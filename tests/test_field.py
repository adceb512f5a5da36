import os
import random
import subprocess
import sys
from fractions import Fraction
from itertools import product
from pathlib import Path

import pytest

from liediff import (
    DerivationAction,
    DivisionByZero,
    IndexOutOfRange,
    MPoly,
    NegativeExponent,
    RatFunc,
    ZeroDenominator,
    coordinate_delta,
    derive,
    mpoly_gcd,
    parse_field_expr,
    ratfunc_arith,
    ratfunc_normalize,
)
from conftest import rand_nonzero_poly, rand_poly, rand_ratfunc

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


class TestArith:
    def test_add_common_denominator(self):
        assert ratfunc_arith("add", rf("x/y"), rf("1/y")) == rf("(x+1)/y")

    def test_mul_inverse(self):
        assert ratfunc_arith("mul", rf("x"), rf("1/x")) == rf("1")

    def test_div_by_zero(self):
        with pytest.raises(DivisionByZero):
            ratfunc_arith("div", rf("1"), rf("x - x"))

    def test_sub(self):
        assert ratfunc_arith("sub", rf("x"), rf("x")).is_zero()

    def test_pow_negative(self):
        assert rf("x/2") ** -2 == rf("4/x^2")

    def test_poly_pow_negative_rejected(self):
        with pytest.raises(NegativeExponent):
            MPoly.variable(VARS, "x") ** -1

    def test_negative_powers_rejected_under_optimize(self):
        # the checks raise, so they survive python -O (an assert would not)
        code = (
            "from liediff import *\n"
            "x = MPoly.variable(('x',), 'x')\n"
            "w = OpWord(('x',), 1, [(1,)])\n"
            "q = NormalPoly.xvar(('x',), 1, (1,))\n"
            "for base in (x, w, q):\n"
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
            "]\n"
            "for i, (err, call) in enumerate(cases):\n"
            "    try:\n"
            "        call()\n"
            "    except err:\n"
            "        continue\n"
            "    raise SystemExit(f'case {i} did not raise {err.__name__}')\n"
        )
        path = [str(Path(__file__).resolve().parents[1] / "src")]
        path += [os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else []
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
        out = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                             capture_output=True, text=True, timeout=60)
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
