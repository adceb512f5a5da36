"""Differential test of the gcd and the fraction normalization against sympy.

sympy is a test-only oracle: the module is skipped when it is not installed.
"""

import random
from fractions import Fraction
from math import gcd

import pytest

sympy = pytest.importorskip("sympy")

from liediff import MPoly, matrix_invert, mpoly_gcd, ratfunc_normalize  # noqa: E402
from liediff.field import mpoly_cofactors  # noqa: E402
from conftest import rand_nonzero_poly, rand_poly, rand_ratfunc  # noqa: E402


def to_sympy(f: MPoly, gens):
    terms = {e: sympy.Rational(Fraction(c).numerator, Fraction(c).denominator)
             for e, c in f.terms.items()}
    return sympy.Poly.from_dict(terms or {(0,) * len(gens): 0}, *gens, domain="QQ")


def from_sympy(p, vars) -> MPoly:
    return MPoly(vars, {e: Fraction(int(c.p), int(c.q)) for e, c in p.terms()})


def positive_lead(f: MPoly) -> MPoly:
    # liediff's sign convention: positive leading coefficient under graded lex
    return -f if not f.is_zero() and f.leading()[1] < 0 else f


def planted_pairs(seed, vars, count, deg=2):
    """Random pairs f = a*h, g = b*h sharing a planted factor h of degree at
    most deg, or deg + 1 for half of them."""
    rng = random.Random(seed)
    for _ in range(count):
        h = rand_nonzero_poly(rng, vars, deg)
        if rng.random() < 0.5:
            h = h * rand_nonzero_poly(rng, vars, 1)
        yield rand_poly(rng, vars, 2) * h, rand_nonzero_poly(rng, vars, 2) * h


def assert_gcd_matches_sympy(f, g, vars):
    gens = sympy.symbols(vars)
    # over ZZ sympy keeps the gcd of the integer contents, as liediff does
    F, G = (to_sympy(p, gens).set_domain("ZZ") for p in (f, g))
    theirs = sympy.gcd(F, G)
    assert mpoly_gcd(f, g) == positive_lead(from_sympy(theirs, vars)), (f, g)
    # a second oracle: sympy's cofactors, signs flipped with the gcd's
    h, a, b = (from_sympy(p, vars) for p in F.cofactors(G))
    if positive_lead(h) != h:
        h, a, b = -h, -a, -b
    assert mpoly_cofactors(f, g) == (h, a, b), (f, g)


@pytest.mark.parametrize("vars", [("x", "y"), ("x", "y", "z")])
def test_gcd_matches_sympy(vars):
    for f, g in planted_pairs(41 + len(vars), vars, 25):
        assert_gcd_matches_sympy(f, g, vars)


def test_gcd_matches_sympy_degree_three_factors():
    vars = ("x", "y", "z")
    for f, g in planted_pairs(47, vars, 25, deg=3):
        assert_gcd_matches_sympy(f, g, vars)


@pytest.mark.parametrize("seed, sizes", [(107, (39, 44)), (120, (64, 68))])
def test_gcd_tail_seeds_match_sympy(seed, sizes, gcd_calls):
    # every gcd of a 3x3 inverse over (x, y, z) whose largest arguments once
    # sent the pseudo-remainder gcd into its slow tail
    vars = ("x", "y", "z")
    rng = random.Random(seed)
    A = [[rand_ratfunc(rng, vars, 1, 1) for _ in range(3)] for _ in range(3)]
    matrix_invert(A)
    # a copy: the checks below take gcds too, and the fixture records them
    pairs = list(gcd_calls)
    assert sizes in {(len(f.terms), len(g.terms)) for f, g in pairs}
    for f, g in pairs:
        assert_gcd_matches_sympy(f, g, vars)


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
