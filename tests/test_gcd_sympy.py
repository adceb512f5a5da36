"""Differential test of the gcd and the fraction normalization against sympy.

sympy is a test-only oracle: the module is skipped when it is not installed.
"""

import random
from fractions import Fraction
from math import gcd

import pytest

sympy = pytest.importorskip("sympy")

from liediff import MPoly, mpoly_gcd, ratfunc_normalize  # noqa: E402
from conftest import rand_nonzero_poly, rand_poly  # noqa: E402


def to_sympy(f: MPoly, gens):
    terms = {e: sympy.Rational(Fraction(c).numerator, Fraction(c).denominator)
             for e, c in f.terms.items()}
    return sympy.Poly.from_dict(terms or {(0,) * len(gens): 0}, *gens, domain="QQ")


def from_sympy(p, vars) -> MPoly:
    return MPoly(vars, {e: Fraction(int(c.p), int(c.q)) for e, c in p.terms()})


def positive_lead(f: MPoly) -> MPoly:
    # liediff's sign convention: positive leading coefficient under graded lex
    return -f if not f.is_zero() and f.leading()[1] < 0 else f


def planted_pairs(seed, vars, count):
    """Random pairs f = a*h, g = b*h sharing a planted factor h, and h."""
    rng = random.Random(seed)
    for _ in range(count):
        h = rand_nonzero_poly(rng, vars, 2)
        if rng.random() < 0.5:
            h = h * rand_nonzero_poly(rng, vars, 1)
        yield rand_poly(rng, vars, 2) * h, rand_nonzero_poly(rng, vars, 2) * h


@pytest.mark.parametrize("vars", [("x", "y"), ("x", "y", "z")])
def test_gcd_matches_sympy(vars):
    gens = sympy.symbols(vars)
    for f, g in planted_pairs(41 + len(vars), vars, 25):
        ours = mpoly_gcd(f, g)
        # over ZZ sympy keeps the gcd of the integer contents, as liediff does
        theirs = sympy.gcd(to_sympy(f, gens).set_domain("ZZ"),
                           to_sympy(g, gens).set_domain("ZZ"))
        assert ours == positive_lead(from_sympy(theirs, vars)), (f, g)


@pytest.mark.parametrize("vars", [("x", "y"), ("x", "y", "z")])
def test_normalize_matches_sympy_cancel(vars):
    gens = sympy.symbols(vars)
    for num, den in planted_pairs(51 + len(vars), vars, 25):
        r = ratfunc_normalize(num, den)
        expr = sympy.cancel(to_sympy(num, gens).as_expr() / to_sympy(den, gens).as_expr())
        p, q = (sympy.Poly(e, *gens, domain="QQ") for e in sympy.fraction(expr))
        P, Q = from_sympy(p, vars), from_sympy(q, vars)
        # the same fraction, and the same reduced pair up to a rational scalar
        assert r.num * Q == r.den * P
        assert r.num.primitive_part() == P.primitive_part()
        assert r.den.primitive_part() == Q.primitive_part()
        # liediff's normalization fixes the scalar: integer coefficients with
        # coprime contents and a positive leading denominator coefficient
        coeffs = list(r.num.terms.values()) + list(r.den.terms.values())
        assert all(type(c) is int for c in coeffs)
        assert gcd(*coeffs) == 1
        assert r.den.leading()[1] > 0
