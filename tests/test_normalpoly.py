import random
import threading

import pytest

from liediff import (
    ArityMismatch,
    InvalidMultiIndex,
    NegativeExponent,
    NormalOperator,
    NormalPoly,
    OpWord,
    RatFunc,
    TruncationExceeded,
    UnboundSlot,
    UnknownDerivation,
    apply_operator,
    axiom1_instance_check,
    derive,
    derive_normal,
    eval_hom,
    fresh_extension,
    indices_up_to,
    parse_field_expr,
    parse_normalpoly_expr,
    substitute_slots,
)
from liediff import normalpoly, ops
from liediff.normalpoly import x_action
from conftest import DATA, cold_copy, rand_npoly, rand_poly, rand_ratfunc, run_python
from oracles import rewrite_normalize


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

    @pytest.mark.parametrize(
        "pres, i, printed",
        [
            ("p1", 1, "X[1,0]^2*X[1,1] + 3*y*X[0,1]^2*X[1,1] + 2*X[0,1]*X[1,0]*X[2,0]"),
            ("p1", 2, "X[1,0]^2*X[0,2] + X[0,1]^3 + 3*y*X[0,1]^2*X[0,2]"
                      " - 2*X[0,1]*X[1,0]^2 + 2*X[0,1]*X[1,0]*X[1,1]"),
            ("p_nc", 1, "X[1,0]^2*X[1,1] + 3*y*X[0,1]^2*X[1,1] + 2*X[0,1]*X[1,0]*X[2,0]"),
            ("p_nc", 2, "X[1,0]^2*X[0,2] + x*X[0,1]^3 + 3*y*X[0,1]^2*X[0,2]"
                        " - 2/x*X[0,1]^2*X[1,0] + 2*X[0,1]*X[1,0]*X[1,1]"),
        ],
    )
    def test_powers_and_field_coefficient(self, request, pres, i, printed):
        # Leibniz over squared and cubed variables, with a coefficient whose
        # derivative adds one more term
        pres = request.getfixturevalue(pres)
        q = np_("X[1,0]^2*X[0,1] + y*X[0,1]^3", pres)
        got = derive_normal(i, q, pres)
        assert str(got) == printed
        b = rf("x^2*y/(x + 1)", pres)
        assert eval_hom(got, b, pres) == derive(pres.derivation(i), eval_hom(q, b, pres))

    def test_slot_cannot_be_differentiated(self, p1):
        with pytest.raises(UnboundSlot):
            derive_normal(1, np_("a1*X[0,0]", p1), p1)


@pytest.mark.parametrize(
    "act",
    [
        lambda i, p: x_action(i, (0, 0), p),
        lambda i, p: derive_normal(i, NormalPoly.xvar(p.vars, p.n, (0, 0)), p),
        lambda i, p: fresh_extension(p, 2).action(i, (0, 0)),
    ],
    ids=["x_action", "derive_normal", "extension_action"],
)
@pytest.mark.parametrize("i", [0, 3])
def test_derivation_index_checked(p1, act, i):
    with pytest.raises(UnknownDerivation):
        act(i, p1)


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

    def test_negative_index_fails_fast(self, p_nc):
        # (-1, 2) once sent the table's fill loop into an endless descent;
        # the check must reject it before the key reaches the table
        pres = cold_copy(p_nc)
        raised = []

        def act():
            try:
                x_action(2, (-1, 2), pres)
            except InvalidMultiIndex as e:
                raised.append(e)

        t = threading.Thread(target=act, daemon=True)
        t.start()
        t.join(timeout=1.0)
        assert not t.is_alive() and raised
        assert pres._pbw == {}


@pytest.mark.parametrize(
    "make",
    [
        lambda p, I: x_action(2, I, p),
        lambda p, I: NormalPoly.xvar(p.vars, p.n, I),
        lambda p, I: fresh_extension(p, 2).action(1, I),
    ],
    ids=["x_action", "xvar", "extension_action"],
)
@pytest.mark.parametrize("I", [(0, -1), (-1, 1), (0.5, 0), (True, 0)])
def test_multi_index_entries_checked(p_nc, make, I):
    # x_action(2, (0, -1)) once returned X[0,0]
    with pytest.raises(InvalidMultiIndex):
        make(p_nc, I)


class TestPow:
    def test_power_is_repeated_product(self, p1):
        q = np_("X[1,0] + x", p1)
        assert q**3 == q * q * q

    def test_negative_power_rejected(self, p1):
        with pytest.raises(NegativeExponent):
            np_("X[1,0]", p1) ** -1

    @pytest.mark.parametrize(
        "pres, text",
        [
            ("p1", "X[1,0] - x*X[0,1] + 1/y"),
            ("p1", "-2*x*X[1,0]^2*X[0,1]/y"),
            ("p_nc", "X[0,2]/x + X[1,0]^2 - 3"),
            ("p_nc", "(x - y)/(x + 1)"),
            ("p_heis", "z*X[1,0,0] + X[0,1,1]/2 - y"),
            ("p_heis", "X[0,1,1]^3/z"),
            ("p1", "s1*X[1,1] - 2*s2 + x"),
            ("p1", "-s1^2*X[1,1]/3"),
        ],
    )
    def test_power_is_the_k_fold_product(self, request, pres, text):
        # a one-term base is raised without products; value and printing
        # must not see it
        pres = request.getfixturevalue(pres)
        q = np_(text, pres)
        want = np_("1", pres)
        for k in range(13):
            got = q**k
            assert got == want and str(got) == str(want)
            want = want * q

    def test_one_term_powers_take_no_products(self):
        # X[1,0]^1000000 once took a million products; the child counts
        # NormalPoly products, and its timeout bounds the run if it hangs
        code = (
            "from liediff.cli import main\n"
            "from liediff.normalpoly import NormalPoly\n"
            "calls = 0\n"
            "mul = NormalPoly.__mul__\n"
            "def counted(a, b):\n"
            "    global calls\n"
            "    calls += 1\n"
            "    return mul(a, b)\n"
            "NormalPoly.__mul__ = counted\n"
            f"path = {str(DATA / 'p1.json')!r}\n"
            "codes = [main(['eval', '-p', path, e, '--witness', 'x'])\n"
            "         for e in ('X[1,0]^1000000', '3^200000 - 3^200000')]\n"
            "print(*codes, calls)\n"
        )
        out = run_python(code, timeout=20)
        assert out.returncode == 0, out.stderr
        assert out.stdout.splitlines() == ["1", "0", "0 0 0"]


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

    def test_iterated_derivatives_reused(self, p1, p_nc, monkeypatch):
        # D^I b is derived once from D^(I - e_l) b: four derive calls for the
        # chain X[1,0] .. X[4,0], where one application per X made ten
        calls = []
        real = normalpoly.derive

        def counting(action, f):
            calls.append(action.name)
            return real(action, f)

        monkeypatch.setattr(normalpoly, "derive", counting)
        monkeypatch.setattr(ops, "derive", counting)
        b = rf("x^5*y/(x + y)", p1)
        got = eval_hom(np_("X[1,0] + X[2,0] + X[3,0] + X[4,0]", p1), b, p1)
        assert len(calls) == 4
        words = NormalOperator(p1.vars, 2, {(k, 0): rf("1", p1) for k in range(1, 5)})
        monkeypatch.undo()
        assert got == apply_operator(words, b, p1)
        # mixed indices on a non-constant bracket, against apply_operator
        for text in ("X[2,1]*X[0,2] + y*X[1,2]^2", "X[0,3] - X[3,0]*X[1,1]"):
            q, b = np_(text, p_nc), rf("(x^2 + y)/(x - y + 1)", p_nc)
            ref = RatFunc.zero(p_nc.vars)
            for m, c in q.terms.items():
                v = c
                for I, e in m:
                    one = NormalOperator.monomial(p_nc.vars, 2, I, rf("1", p_nc))
                    v = v * apply_operator(one, b, p_nc) ** e
                ref = ref + v
            assert eval_hom(q, b, p_nc) == ref

    def test_arity_checked(self, p1, p_heis):
        with pytest.raises(ArityMismatch):
            eval_hom(np_("X[1,0,0]", p_heis), rf("x", p1), p1)

    def test_sum_is_normalized_once(self, p_heis, gcd_calls):
        # the five derivatives take 7 gcds, the product X[1,0,0]*X[0,1,0]
        # two, and the one lincomb of the monomials five; adding the
        # monomials one by one took 24 in all
        q = np_("X[1,0,0]*X[0,1,0] + x*X[2,0,0] + X[0,0,1]^2 + y*X[0,1,1] + 3", p_heis)
        b = rf("(x + y)/(x*z + 1)", p_heis)
        gcd_calls.clear()
        got = eval_hom(q, b, p_heis)
        assert len(gcd_calls) <= 14
        ref = RatFunc.zero(p_heis.vars)
        for m, c in q.terms.items():
            for I, e in m:
                one = NormalOperator.monomial(p_heis.vars, 3, I, rf("1", p_heis))
                c = c * apply_operator(one, b, p_heis) ** e
            ref = ref + c
        assert got == ref

    def test_polynomial_witness_needs_no_gcd(self, p1, gcd_calls):
        q = np_("X[1,0]*X[0,1] + x*X[2,0] + X[0,1]^2/3 - y*X[1,1] + 3", p1)
        b = rf("x^2*y + 2*y", p1)
        gcd_calls.clear()
        got = eval_hom(q, b, p1)
        assert gcd_calls == [] and got.den.is_const()


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

    def test_substitute_slots_merges_and_cancels(self, p1):
        q = np_("a1*X[1,0] - a2*X[1,0]", p1)
        y = rf("y", p1)
        assert substitute_slots(q, {"a1": y, "a2": y}).is_zero()


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
