import random
import time
from fractions import Fraction
from itertools import product
from math import isqrt

import pytest

import liediff.field
from liediff.field import mpoly_cofactors
from liediff import (
    DerivationAction,
    DivisionByZero,
    IndexOutOfRange,
    InvalidMultiIndex,
    MPoly,
    NegativeExponent,
    RatFunc,
    UnknownVariable,
    ZeroDenominator,
    coordinate_delta,
    derive,
    lincomb,
    mpoly_gcd,
    parse_field_expr,
    ratfunc_normalize,
)
from conftest import rand_nonzero_poly, rand_poly, rand_ratfunc, run_python

VARS = ("x", "y")


def rf(text: str) -> RatFunc:
    return parse_field_expr(text, VARS)


class TestNormalize:
    def test_content_cancellation(self):
        num = MPoly(VARS, {(1, 0): 2})
        den = MPoly.const(VARS, 4)
        got = ratfunc_normalize(num, den)
        assert got.num == MPoly(VARS, {(1, 0): 1})
        assert got.den == MPoly.const(VARS, 2)

    def test_factor_cancellation(self):
        num = MPoly(VARS, {(2, 0): 1, (0, 0): -1})  # x^2 - 1
        den = MPoly(VARS, {(1, 0): 1, (0, 0): -1})  # x - 1
        got = ratfunc_normalize(num, den)
        assert got == rf("x + 1")

    def test_sign_normalization(self):
        num = MPoly(VARS, {(1, 0): -1})
        den = MPoly(VARS, {(0, 1): -1})
        assert ratfunc_normalize(num, den) == rf("x/y")

    def test_zero_denominator(self):
        with pytest.raises(ZeroDenominator):
            ratfunc_normalize(MPoly.const(VARS, 1), MPoly.zero(VARS))

    def test_representation_independence(self):
        # the same fraction reached along different routes is identical
        rng = random.Random(7)
        for _ in range(25):
            f = rand_ratfunc(rng, VARS)
            s = rand_ratfunc(rng, VARS, deg=1)
            if s.is_zero():
                continue
            blown = ratfunc_normalize(f.num * s.num, f.den * s.num)
            assert blown == f
            assert (f * s) / s == f

    def test_reduced_arithmetic_equals_brute_normalization(self):
        # the cross-cancellation fast paths must agree with one big
        # normalization of the textbook numerator/denominator formulas
        rng = random.Random(8)
        for _ in range(60):
            a = rand_ratfunc(rng, VARS)
            b = rand_ratfunc(rng, VARS)
            assert a + b == ratfunc_normalize(
                a.num * b.den + b.num * a.den, a.den * b.den
            )
            assert a * b == ratfunc_normalize(a.num * b.num, a.den * b.den)
            if not b.is_zero():
                assert a / b == ratfunc_normalize(a.num * b.den, a.den * b.num)
            assert a**3 == ratfunc_normalize(a.num**3, a.den**3)

    def test_polynomial_arithmetic_equals_brute_normalization(self):
        # sums and products of two polynomials skip the gcds; they must still
        # equal one normalization over the denominator 1
        rng = random.Random(9)
        one = MPoly.const(VARS, 1)
        for _ in range(60):
            a = RatFunc.from_poly(rand_poly(rng, VARS, 3))
            b = RatFunc.from_poly(rand_poly(rng, VARS, 3))
            for f, g in ((a, b), (a, -a)):
                assert f + g == ratfunc_normalize(f.num + g.num, one)
                assert f * g == ratfunc_normalize(f.num * g.num, one)


class TestArith:
    def test_add_common_denominator(self):
        assert rf("x/y") + rf("1/y") == rf("(x+1)/y")

    def test_mul_inverse(self):
        assert rf("x") * rf("1/x") == rf("1")

    def test_div_by_zero(self):
        with pytest.raises(DivisionByZero):
            rf("1") / rf("x - x")

    def test_sub(self):
        assert (rf("x") - rf("x")).is_zero()

    def test_polynomial_arithmetic_needs_no_gcd(self, gcd_calls):
        # sums and products of polynomials over 1 are canonical already
        f, g = rf("x^2*y - 3"), rf("2*x + y")
        want = [rf("x^2*y + 2*x + y - 3"), rf("x^2*y - 2*x - y - 3"),
                rf("2*x^3*y + x^2*y^2 - 6*x - 3*y")]
        gcd_calls.clear()
        assert [f + g, f - g, f * g] == want
        assert gcd_calls == []

    def test_pow_negative(self):
        assert rf("x/2") ** -2 == rf("4/x^2")

    def test_poly_pow_negative_rejected(self):
        with pytest.raises(NegativeExponent):
            MPoly.variable(VARS, "x") ** -1

    def test_bad_exponents_rejected(self):
        # a negative exponent field would borrow from its neighbour in the
        # packed key; a float or a bool is not an exponent
        for vars, e, err in [
            (("x",), (-1,), NegativeExponent),
            (VARS, (2, -1), NegativeExponent),
            (("x",), (1.5,), InvalidMultiIndex),
            (VARS, (True, 0), InvalidMultiIndex),
        ]:
            with pytest.raises(err):
                MPoly(vars, {e: 1})

    def test_negative_powers_rejected_under_optimize(self):
        # the checks raise, so they survive python -O (an assert would not);
        # this also covers the invariants of the rewrite oracle
        # (tests/oracles.py) and of linear_independence
        code = (
            "from liediff import *\n"
            "from liediff import frobenius\n"
            "import oracles\n"
            "x = MPoly.variable(('x',), 'x')\n"
            "q = NormalPoly.xvar(('x',), 1, (1,))\n"
            "for base in (x, q):\n"
            "    try:\n"
            "        base ** -1\n"
            "    except NegativeExponent:\n"
            "        continue\n"
            "    raise SystemExit(f'{type(base).__name__} ** -1 did not raise')\n"
            "one = RatFunc.const(('x', 'y'), 1)\n"
            "cases = [\n"
            "    (NotConstant, lambda: RatFunc.variable(('x', 'y'), 'x').const_value()),\n"
            "    (ArityMismatch, lambda: DerivationAction('D', ('x', 'y'), (one,))),\n"
            "    (ArityMismatch, lambda: MPoly(('x',), {(1, 2): 1})),\n"
            "    (NegativeExponent, lambda: MPoly(('x',), {(-1,): 1})),\n"
            "    (DegreeOverflow, lambda: MPoly(('x',), {(2**31,): 1})),\n"
            "    (DegreeOverflow, lambda: x ** 2**31),\n"
            # the engines' internal invariants, broken on purpose
            "    (InvariantBroken, lambda: oracles.collect((2, 1), ('x',), 2)),\n"
            "]\n"
            "oracles.measure = lambda term: (0, 0, 0)\n"
            "w = OpWord(('x',), 1, [(1, RatFunc.variable(('x',), 'x'))])\n"
            "p = Presentation(('x',), (coordinate_delta(('x',), 1),), StructureConstants.zero(1, ('x',)))\n"
            "cases.append((InvariantBroken, lambda: oracles.rewrite_normalize(w, p)))\n"
            "d = coordinate_delta(('x',), 1)\n"
            "twice = Presentation(('x',), (d, d), StructureConstants.zero(2, ('x',)))\n"
            "frobenius._null_vector = lambda mat, ncols: None\n"
            "cases.append((InvariantBroken, lambda: linear_independence(twice)))\n"
            "for i, (err, call) in enumerate(cases):\n"
            "    try:\n"
            "        call()\n"
            "    except err:\n"
            "        continue\n"
            "    raise SystemExit(f'case {i} did not raise {err.__name__}')\n"
        )
        out = run_python(code, "-O", timeout=60)
        assert out.returncode == 0, out.stderr


class TestGcd:
    def test_gcd_examples(self):
        two_x = MPoly(VARS, {(1, 0): 2})
        four = MPoly.const(VARS, 4)
        assert mpoly_gcd(two_x, four) == MPoly.const(VARS, 2)

    def test_gcd_random_divides(self):
        from liediff import divexact

        rng = random.Random(11)
        for _ in range(30):
            a = rand_poly(rng, VARS, 2)
            b = rand_poly(rng, VARS, 2)
            g = rand_nonzero_poly(rng, VARS, 1)
            f1, f2 = a * g, b * g
            if f1.is_zero() and f2.is_zero():
                continue
            h = mpoly_gcd(f1, f2)
            # h divides both inputs and the planted factor divides h
            assert divexact(f1, h) * h == f1
            assert divexact(f2, h) * h == f2
            assert divexact(h, g) * g == h

    def test_inner_levels_keep_their_content(self):
        # evaluating y leaves 5*xi^2*x^2 and 11*xi^3*x: the factor xi^2 is
        # integer content of the inner level, and y^2 rebuilds from it
        f = MPoly(VARS, {(2, 2): 5})
        g = MPoly(VARS, {(1, 3): 11})
        want = (MPoly(VARS, {(1, 2): 1}), MPoly(VARS, {(1, 0): 5}), MPoly(VARS, {(0, 1): 11}))
        # the monomial shortcut, and the heuristic on the same pair
        assert mpoly_cofactors(f, g) == want
        assert liediff.field._heu_gcd(f, g) == want

    def test_xi_grows_and_agrees_with_prs(self, monkeypatch):
        # large coefficients make some first evaluation points fail; the
        # retries must still give the reference's answer
        field = liediff.field
        growths = []
        monkeypatch.setattr(field, "_isqrt", lambda n: growths.append(n) or isqrt(n))
        rng = random.Random(5)
        vars = ("x", "y", "z")

        def big():
            # up to 3 terms, each exponent up to 2, coefficients up to 10^6
            return MPoly(vars, {
                tuple(rng.randint(0, 2) for _ in vars): rng.randint(1, 10**6) * rng.choice((1, -1))
                for _ in range(rng.randint(1, 3))
            })

        for _ in range(40):
            h = big()
            f, g = ((big() * h).primitive_part() for _ in range(2))
            h, a, b = field._pp_gcd(f, g)
            assert h == field._pp_gcd_prs(f, g)
            assert (a * h, b * h) == (f, g)
        assert growths

    def test_forced_fallback_gives_the_same_gcd(self, monkeypatch):
        field = liediff.field
        rng = random.Random(12)
        pairs = []
        for vars in [("x",), VARS, ("x", "y", "z")]:
            for _ in range(10):
                h = rand_nonzero_poly(rng, vars, 2)
                pairs.append((rand_poly(rng, vars, 2) * h, rand_nonzero_poly(rng, vars, 2) * h))
        want = [mpoly_cofactors(f, g) for f, g in pairs]
        fallbacks = []
        real_prs = field._pp_gcd_prs
        monkeypatch.setattr(field, "_heu_gcd", lambda f, g: None)
        monkeypatch.setattr(field, "_pp_gcd_prs", lambda f, g: fallbacks.append(f) or real_prs(f, g))
        assert [mpoly_cofactors(f, g) for f, g in pairs] == want
        assert fallbacks

    def test_fallback_keeps_the_coprime_shortcut(self, monkeypatch):
        # coprime inputs over 4 or 5 variables run the whole pseudo-remainder
        # sequence unless coprime univariate images end it first: without
        # that shortcut, some pairs below take seconds each
        sympy = pytest.importorskip("sympy")
        from test_gcd_sympy import from_sympy, positive_lead, to_sympy

        rng = random.Random(1)

        def sparse(vars, deg):
            # 3 or 4 terms, each exponent at most deg
            while True:
                f = MPoly(vars, {
                    tuple(rng.randint(0, deg) for _ in vars): rng.choice((-3, -2, -1, 1, 2, 3))
                    for _ in range(rng.randint(3, 4))
                })
                if not f.is_const():
                    return f

        pairs = []
        for _ in range(2):
            for vars in [("w", "x", "y", "z"), ("v", "w", "x", "y", "z")]:
                pairs += [(sparse(vars, 3), sparse(vars, 3)) for _ in range(6)]
                for _ in range(6):
                    h = sparse(vars, 1)
                    pairs.append((sparse(vars, 1) * h, sparse(vars, 1) * h))
        want = []
        for f, g in pairs:
            gens = sympy.symbols(f.vars)
            h = sympy.gcd(to_sympy(f, gens).set_domain("ZZ"), to_sympy(g, gens).set_domain("ZZ"))
            want.append(positive_lead(from_sympy(h, f.vars)))
        monkeypatch.setattr(liediff.field, "_heu_gcd", lambda f, g: None)
        start = time.perf_counter()
        for (f, g), h in zip(pairs, want):
            got, a, b = mpoly_cofactors(f, g)
            assert got == h, (f, g)
            assert (a * h, b * h) == (f, g)
            assert time.perf_counter() - start < 3.0


class TestDerive:
    def test_power_rule(self):
        d = coordinate_delta(VARS, 1)
        assert derive(d, rf("x^2*y")) == rf("2*x*y")

    def test_quotient_rule_cleared_denominator_oracle(self):
        # independent check: y^2 * D(x/y) must equal D(x)*y - x*D(y)
        D = DerivationAction("D", VARS, (rf("x"), rf("1")))
        f = rf("x/y")
        lhs = rf("y") ** 2 * derive(D, f)
        rhs = rf("x") * rf("y") - rf("x") * rf("1")
        assert lhs == rhs
        assert derive(D, f) == rf("(x*y - x)/y^2")

    def test_polynomial_lifts_need_no_gcd(self, p1, gcd_calls):
        # a polynomial over 1 is reduced already: lifting it, and every
        # partial derivative under polynomial images, cancels nothing
        f = RatFunc.from_poly(MPoly(VARS, {(3, 1): 1, (1, 2): 2, (0, 0): -7}))
        c = RatFunc.const(VARS, Fraction(-3, 2))
        d = derive(p1.derivation(2), f)
        assert gcd_calls == []
        assert d == rf("3*x^3*y + x^3 + 2*x*y^2 + 4*x*y")
        assert (c.num, c.den) == (MPoly.const(VARS, -3), MPoly.const(VARS, 2))

    def test_gcd_fixture_records_fraction_arithmetic(self, gcd_calls):
        # the fixture must see the gcds the callers take, or the tests that
        # assert it saw none would pass whatever the code does
        a, b, want = rf("1/x"), rf("y/(x + y)"), rf("(x*y + x + y)/(x^2 + x*y)")
        gcd_calls.clear()
        assert a + b == want
        assert gcd_calls == [(a.den, b.den)]
        a * b
        assert gcd_calls[1:] == [(a.num, b.den), (b.num, a.den)]

    def test_cancelling_terms_are_dropped(self):
        # D(x) = x and D(y) = -y send x*y to x*y - x*y: no zero term may stay
        D = DerivationAction("D", VARS, (rf("x"), rf("-y")))
        assert derive(D, rf("x*y + x")).num.terms == {(1, 0): 1}
        assert derive(D, rf("x/(x*y + 1)")) == rf("x/(x*y + 1)")

    def test_constants_annihilated(self):
        D = DerivationAction("D", VARS, (rf("x"), rf("1")))
        assert derive(D, rf("7/3")).is_zero()

    def test_leibniz_random(self):
        rng = random.Random(3)
        D = DerivationAction("D", VARS, (rf("y"), rf("x^2")))
        for _ in range(30):
            f = rand_ratfunc(rng, VARS)
            g = rand_ratfunc(rng, VARS)
            assert derive(D, f * g) == derive(D, f) * g + f * derive(D, g)

    def test_additivity_random(self):
        rng = random.Random(4)
        D = DerivationAction("D", VARS, (rf("1/y"), rf("x")))
        for _ in range(20):
            f = rand_ratfunc(rng, VARS)
            g = rand_ratfunc(rng, VARS)
            assert derive(D, f + g) == derive(D, f) + derive(D, g)


class TestDerivationAction:
    def test_foreign_image_rejected_at_construction(self):
        other = parse_field_expr("x", ("x", "z"))
        with pytest.raises(UnknownVariable):
            DerivationAction("D", VARS, (other, rf("1")))

    def test_common_denominator(self):
        D = DerivationAction("D", VARS, (rf("y/(2*x)"), rf("1/(x^2 + x)")))
        assert D.den == rf("2*x^2 + 2*x").num
        for im, num in zip(D.images, D.nums):
            assert ratfunc_normalize(num, D.den) == im
        polynomial = DerivationAction("D", VARS, (rf("x"), rf("0")))
        # polynomial images keep the denominator object every polynomial
        # field element shares, and so do the derivatives taken with them
        unit = RatFunc.zero(VARS).den
        assert polynomial.den is unit
        assert derive(polynomial, rf("x^2*y")).den is unit

    def test_cached_fields_leave_equality_hash_and_repr(self):
        def make():
            return DerivationAction("D", VARS, (rf("1/x"), rf("y/(x + 1)")))

        a, b = make(), make()
        assert a == b and hash(a) == hash(b)
        assert a != DerivationAction("E", VARS, a.images)
        assert repr(a) == (
            "DerivationAction(name='D', vars=('x', 'y'), "
            "images=(RatFunc(1/x), RatFunc(y/(x + 1))))"
        )


class TestLincomb:
    def test_foreign_factor_rejected(self):
        # as with *, a factor over another variable tuple is an error, not a
        # factor whose extra variables are dropped
        a = rf("x + 1")
        z = parse_field_expr("z", ("x", "y", "z"))
        with pytest.raises(UnknownVariable):
            a * z
        for pairs in ([(a, z)], [(z, a)], [(a, a), (rf("0"), z)]):
            with pytest.raises(UnknownVariable):
                lincomb(pairs, VARS)

    def test_variables_as_list(self):
        assert lincomb([(rf("x"), rf("1/y"))], list(VARS)) == rf("x/y")

    def test_power_product_denominators_take_one_gcd(self, gcd_calls):
        # denominators c*x^a, as heis's 2*z^2 and x: their lcm is an integer
        # lcm and an exponent maximum, so only the final normalization may
        # take a gcd
        pairs = [
            (rf("1/(2*y^2)"), rf("x + y")),
            (rf("y/x"), rf("3")),
            (rf("1/(x*y^2)"), rf("x - 1")),
            (rf("x/(3*y)"), rf("y/x")),
        ]
        want = RatFunc.zero(VARS)
        for a, b in pairs:
            want = want + a * b
        gcd_calls.clear()
        assert lincomb(pairs, VARS) == want
        assert len(gcd_calls) <= 1

    def test_cofactor_chain_takes_one_gcd_per_group(self, gcd_calls):
        # general denominators: one gcd per group after the first, each
        # against the lcm so far, and one for the final normalization
        pairs = [(rf("1/(x + 1)"), rf("y")), (rf("1/(x + 1)^2"), rf("x")),
                 (rf("1/(x*y + 1)"), rf("1")), (rf("x/(x + 1)"), rf("1/y"))]
        want = RatFunc.zero(VARS)
        for a, b in pairs:
            want = want + a * b
        gcd_calls.clear()
        assert lincomb(pairs, VARS) == want
        assert len(gcd_calls) == 4


class TestUnitDenominator:
    def test_polynomials_share_one_denominator(self):
        unit = RatFunc.zero(VARS).den
        for f in (
            RatFunc.const(VARS, 5),
            RatFunc.const(VARS, Fraction(-4, 2)),
            RatFunc.variable(VARS, "y"),
            RatFunc.from_poly(MPoly(VARS, {(1, 1): 3})),
        ):
            assert f.den is unit
        assert RatFunc.zero(("x",)).den is not unit

    def test_unit_built_elsewhere_is_one(self):
        # is_one tests identity with the shared unit first; an equal unit
        # built elsewhere still counts as one
        one = RatFunc.const(VARS, 1)
        assert one.num is one.den is RatFunc.zero(VARS).den
        other = RatFunc(MPoly.const(VARS, 1), MPoly.const(VARS, 1))
        assert one.is_one() and other.is_one() and other == one
        assert not RatFunc.const(VARS, 2).is_one() and not RatFunc.const(VARS, Fraction(1, 2)).is_one()

    def test_const_is_canonical(self):
        for c in (0, 7, -3, Fraction(6, -4), Fraction(0, 5), 2.5, True):
            got = RatFunc.const(VARS, c)
            ref = ratfunc_normalize(MPoly.const(VARS, c), MPoly.const(VARS, 1))
            assert (got.num, got.den) == (ref.num, ref.den)
            assert got.const_value() == Fraction(c)


class TestCoordinateDelta:
    def test_images(self):
        d1 = coordinate_delta(VARS, 1)
        d2 = coordinate_delta(VARS, 2)
        assert d1.images == (rf("1"), rf("0"))
        assert d2.images == (rf("0"), rf("1"))

    def test_out_of_range(self):
        with pytest.raises(IndexOutOfRange):
            coordinate_delta(("x",), 3)

    def test_deltas_commute_on_low_degree_monomials(self):
        # double application in both orders on every monomial of degree <= 4
        d1 = coordinate_delta(VARS, 1)
        d2 = coordinate_delta(VARS, 2)
        for a, b in product(range(5), repeat=2):
            if a + b > 4:
                continue
            m = RatFunc.from_poly(MPoly(VARS, {(a, b): Fraction(1)}))
            assert derive(d1, derive(d2, m)) == derive(d2, derive(d1, m))


class TestPrinting:
    def test_descending_grlex(self):
        assert str(rf("1 + x + x^2*y")) == "x^2*y + x + 1"

    def test_denominator_only_when_nontrivial(self):
        assert str(rf("x/1")) == "x"
        assert str(rf("x/2")) == "x/2"
        assert str(rf("(x+1)/(x-1)")) == "(x + 1)/(x - 1)"

    def test_roundtrip_random(self):
        rng = random.Random(5)
        for _ in range(40):
            f = rand_ratfunc(rng, VARS)
            assert parse_field_expr(str(f), VARS) == f
