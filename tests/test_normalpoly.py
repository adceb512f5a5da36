import random

import pytest

from liediff import (
    ArityMismatch,
    NegativeExponent,
    NormalPoly,
    OpWord,
    RatFunc,
    TruncationExceeded,
    UnboundSlot,
    axiom1_instance_check,
    derive,
    derive_normal,
    eval_hom,
    fresh_extension,
    indices_up_to,
    parse_field_expr,
    parse_normalpoly_expr,
    rewrite_normalize,
    substitute_slots,
)
from liediff.normalpoly import x_action
from conftest import rand_npoly, rand_poly, rand_ratfunc


def np_(text, pres):
    return parse_normalpoly_expr(text, pres)


def rf(text, pres):
    return parse_field_expr(text, pres.vars)


class TestDeriveNormal:
    def test_base_variable_moves_up(self, p1):
        q = NormalPoly.xvar(p1.vars, p1.n, (0, 0))
        assert derive_normal(1, q, p1) == np_("X[1,0]", p1)
        assert derive_normal(2, q, p1) == np_("X[0,1]", p1)

    def test_reordering_term(self, p1):
        assert derive_normal(2, np_("X[1,0]", p1), p1) == np_("X[1,1] - X[1,0]", p1)

    def test_already_normal(self, p1):
        assert derive_normal(1, np_("X[0,1]", p1), p1) == np_("X[1,1]", p1)

    def test_leibniz_random(self, p1, p_nc):
        for pres, seed in ((p1, 51), (p_nc, 52)):
            rng = random.Random(seed)
            for _ in range(12):
                q = rand_npoly(rng, pres)
                r = rand_npoly(rng, pres)
                for i in (1, 2):
                    lhs = derive_normal(i, q * r, pres)
                    rhs = derive_normal(i, q, pres) * r + q * derive_normal(i, r, pres)
                    assert lhs == rhs

    def test_slot_cannot_be_differentiated(self, p1):
        with pytest.raises(UnboundSlot):
            derive_normal(1, np_("a1*X[0,0]", p1), p1)


class TestXAction:
    def test_matches_rewrite_oracle(self, p_nc, p_heis):
        for pres in (p_nc, p_heis):
            for I in indices_up_to(pres.n, 2):
                for i in range(1, pres.n + 1):
                    symbols = tuple(k + 1 for k, e in enumerate(I) for _ in range(e))
                    word = OpWord(pres.vars, pres.n, [(i,) + symbols])
                    want = NormalPoly.zero(pres.vars, pres.n)
                    for J, c in rewrite_normalize(word, pres).terms.items():
                        want = want + NormalPoly.xvar(pres.vars, pres.n, J).scale(c)
                    assert x_action(i, I, pres) == want

    def test_arity_checked(self, p1):
        with pytest.raises(ArityMismatch):
            x_action(1, (1,), p1)


class TestPow:
    def test_power_is_repeated_product(self, p1):
        q = np_("X[1,0] + x", p1)
        assert q**3 == q * q * q

    def test_negative_power_rejected(self, p1):
        with pytest.raises(NegativeExponent):
            np_("X[1,0]", p1) ** -1


class TestEvalHom:
    def test_affine(self, p1):
        assert eval_hom(np_("X[0,1] + 3", p1), rf("y", p1), p1) == rf("4", p1)

    def test_mixed_second_order_vanishes(self, p1):
        assert eval_hom(np_("X[1,1]", p1), rf("y", p1), p1).is_zero()

    def test_constant_passthrough(self, p1):
        c = np_("x^2/3", p1)
        assert eval_hom(c, rf("y", p1), p1) == rf("x^2/3", p1)

    def test_homomorphism_with_derivation_random(self, p1, p_nc):
        # evaluating after deriving equals deriving the evaluation
        for pres, seed in ((p1, 61), (p_nc, 62)):
            rng = random.Random(seed)
            for _ in range(12):
                q = rand_npoly(rng, pres)
                b = RatFunc.from_poly(rand_poly(rng, pres.vars, 3))
                for i in (1, 2):
                    lhs = eval_hom(derive_normal(i, q, pres), b, pres)
                    rhs = derive(pres.derivation(i), eval_hom(q, b, pres))
                    assert lhs == rhs

    def test_unbound_slot_rejected(self, p1):
        with pytest.raises(UnboundSlot):
            eval_hom(np_("a1*X[0,0]", p1), rf("x", p1), p1)


class TestAxiom1:
    def test_nonzero_witness(self, p1):
        assert axiom1_instance_check(np_("X[0,0]", p1), [], rf("x", p1), p1)

    def test_vanishing_instance(self, p1):
        assert not axiom1_instance_check(np_("X[1,0] - 1", p1), [], rf("x", p1), p1)

    def test_scaled_witness_flips_verdict(self, p1):
        assert axiom1_instance_check(np_("X[1,0] - 1", p1), [], rf("2*x", p1), p1)

    def test_slots_filled_in_natural_order(self, p1):
        # a2*X[0,0] - a1 at b = x with a1 = x, a2 = 1:  x - x = 0
        q = np_("a2*X[0,0] - a1", p1)
        assert not axiom1_instance_check(q, [rf("x", p1), rf("1", p1)], rf("x", p1), p1)
        assert axiom1_instance_check(q, [rf("y", p1), rf("1", p1)], rf("x", p1), p1)

    def test_slot_arity_checked(self, p1):
        with pytest.raises(ArityMismatch):
            axiom1_instance_check(np_("a1", p1), [], rf("x", p1), p1)

    def test_substitute_slots_keeps_x_variables(self, p1):
        q = np_("a1*X[1,0]", p1)
        got = substitute_slots(q, {"a1": rf("y", p1)})
        assert got == np_("y*X[1,0]", p1)


class TestFreshExtension:
    def test_order_one_variables_and_actions(self, p1):
        ext = fresh_extension(p1, 1)
        assert ext.variables() == [(0, 0), (0, 1), (1, 0)]
        assert ext.derive(1, np_("X[0,0]", p1)) == np_("X[1,0]", p1)
        assert ext.derive(2, np_("X[0,0]", p1)) == np_("X[0,1]", p1)

    def test_order_two_reordering(self, p1):
        ext = fresh_extension(p1, 2)
        assert ext.derive(2, np_("X[1,0]", p1)) == np_("X[1,1] - X[1,0]", p1)

    def test_truncation_exceeded(self, p1):
        ext = fresh_extension(p1, 2)
        with pytest.raises(TruncationExceeded):
            ext.derive(1, np_("X[2,0]", p1))

    def test_actions_stay_within_bound(self, p1):
        d = 3
        ext = fresh_extension(p1, d)
        for (i, I), q in ext.actions.items():
            assert sum(I) < d
            assert all(sum(J) <= d for J in q.x_support())

    def test_bracket_axiom_lifts(self, p1):
        # the extension is itself a model: residuals vanish on low-order input
        ext = fresh_extension(p1, 3)
        rng = random.Random(71)
        candidates = [NormalPoly.xvar(p1.vars, p1.n, I) for I in indices_up_to(2, 1)]
        for _ in range(8):
            candidates.append(rand_npoly(rng, p1, max_order=1, nterms=2))
        for q in candidates:
            for k in (1, 2):
                for l in range(k + 1, 3):
                    lhs = ext.derive(k, ext.derive(l, q)) - ext.derive(
                        l, ext.derive(k, q)
                    )
                    rhs = NormalPoly.zero(p1.vars, p1.n)
                    for m in (1, 2):
                        c = p1.alpha.get(k, l, m)
                        if not c.is_zero():
                            rhs = rhs + ext.derive(m, q).scale(c)
                    assert lhs == rhs

    def test_linear_independence_certificate(self, p1):
        # sum b_i D_i on X_0 lands on distinct fresh variables, so it vanishes
        # only for b = 0
        ext = fresh_extension(p1, 1)
        x0 = NormalPoly.xvar(p1.vars, p1.n, (0, 0))
        rng = random.Random(72)
        for _ in range(10):
            b = [rand_ratfunc(rng, p1.vars, deg=1) for _ in range(2)]
            image = NormalPoly.zero(p1.vars, p1.n)
            for i in (1, 2):
                image = image + ext.derive(i, x0).scale(b[i - 1])
            expected = NormalPoly.xvar(p1.vars, p1.n, (1, 0)).scale(b[0]) + NormalPoly.xvar(
                p1.vars, p1.n, (0, 1)
            ).scale(b[1])
            assert image == expected
            assert image.is_zero() == (b[0].is_zero() and b[1].is_zero())

    def test_order_bound_positive(self, p1):
        with pytest.raises(ArityMismatch):
            fresh_extension(p1, 0)


class TestPrinting:
    def test_ordering_and_roundtrip(self, p1):
        q = np_("X[1,1]*X[0,1] + 2*X[1,0]^2 - y", p1)
        assert parse_normalpoly_expr(str(q), p1) == q

    @pytest.mark.parametrize(
        "text, printed",
        [
            ("X[1,0]", "X[1,0]"),
            ("-X[0,1]", "-X[0,1]"),
            ("(x+y)*X[1,1]^2", "(x + y)*X[1,1]^2"),
            ("(y-x)*X[1,0]", "-(x - y)*X[1,0]"),
            ("x/y*X[1,0] - 3", "x/y*X[1,0] - 3"),
            ("1/2*a^3*X[0,0]", "1/2*a^3*X[0,0]"),
            ("7", "7"),
            ("x+y", "(x + y)"),
            ("0", "0"),
            ("-(x+1)/(y-1)*X[2,0]*b^2 + a", "-(x + 1)/(y - 1)*b^2*X[2,0] + a"),
            ("X[1,0]^2*X[0,1] - (x^2+1)*c2*c10^2", "X[0,1]*X[1,0]^2 - (x^2 + 1)*c2*c10^2"),
        ],
    )
    def test_exact_text(self, p1, text, printed):
        assert str(np_(text, p1)) == printed

    def test_roundtrip_random(self, p1):
        rng = random.Random(73)
        for _ in range(25):
            q = rand_npoly(rng, p1)
            assert parse_normalpoly_expr(str(q), p1) == q
