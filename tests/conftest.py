from __future__ import annotations

import random
from fractions import Fraction
from pathlib import Path

import pytest

import liediff.field
from liediff import (
    DerivationAction,
    MPoly,
    NormalPoly,
    OpWord,
    Presentation,
    RatFunc,
    StructureConstants,
    indices_up_to,
    parse_field_expr,
    ratfunc_normalize,
)

DATA = Path(__file__).parent / "data"
GOLDEN = Path(__file__).parent / "golden"


def make_presentation(vars, images, alpha_items):
    """Build a presentation from expression strings; alpha entries are given
    for k < l and mirrored automatically."""
    vars = tuple(vars)
    actions = tuple(
        DerivationAction(
            f"D{i + 1}", vars, tuple(parse_field_expr(s, vars) for s in imgs)
        )
        for i, imgs in enumerate(images)
    )
    n = len(actions)
    entries = {}
    for (k, l, m), expr in alpha_items.items():
        v = parse_field_expr(expr, vars)
        entries[(k, l, m)] = v
        entries[(l, k, m)] = -v
    return Presentation(vars, actions, StructureConstants.from_entries(n, vars, entries))


def cold_copy(p: Presentation) -> Presentation:
    """A new presentation over p's parts, so with an empty PBW table."""
    return Presentation(p.vars, p.derivations, p.alpha)


@pytest.fixture(scope="session")
def p1():
    # two derivations with [D1, D2] = D1
    return make_presentation(("x", "y"), [("1", "0"), ("x", "1")], {(1, 2, 1): "1"})


@pytest.fixture(scope="session")
def p_abelian():
    return make_presentation(("x", "y"), [("1", "0"), ("0", "1")], {})


@pytest.fixture(scope="session")
def p_nc():
    # [D1, D2] = (1/x) D2: a non-constant structure constant
    return make_presentation(("x", "y"), [("1", "0"), ("0", "x")], {(1, 2, 2): "1/x"})


@pytest.fixture(scope="session")
def p_heis():
    # three derivations with [D1, D2] = D3, all other brackets zero
    return make_presentation(
        ("x", "y", "z"),
        [("1", "0", "-y/2"), ("0", "1", "x/2"), ("0", "0", "1")],
        {(1, 2, 3): "1"},
    )


def rand_poly(rng: random.Random, vars, deg: int, nterms: int = 4) -> MPoly:
    t: dict = {}
    for _ in range(rng.randint(1, nterms)):
        total = rng.randint(0, deg)
        e = []
        rem = total
        for _ in range(len(vars) - 1):
            k = rng.randint(0, rem)
            e.append(k)
            rem -= k
        e.append(rem)
        c = Fraction(rng.randint(-4, 4))
        key = tuple(e)
        t[key] = t.get(key, Fraction(0)) + c
    return MPoly(vars, t)


def rand_nonzero_poly(rng, vars, deg: int) -> MPoly:
    p = MPoly.zero(vars)
    while p.is_zero():
        p = rand_poly(rng, vars, deg)
    return p


def rand_ratfunc(rng, vars, deg: int = 2, den_deg: int = 1) -> RatFunc:
    num = rand_poly(rng, vars, deg)
    den = rand_nonzero_poly(rng, vars, den_deg)
    return ratfunc_normalize(num, den)


def rand_word(rng, pres, maxlen: int = 4, coeff_deg: int = 2, max_terms: int = 2) -> OpWord:
    terms = []
    for _ in range(rng.randint(1, max_terms)):
        term = []
        for _ in range(rng.randint(0, maxlen)):
            if rng.random() < 0.55:
                term.append(rng.randint(1, pres.n))
            else:
                term.append(RatFunc.from_poly(rand_poly(rng, pres.vars, coeff_deg)))
        terms.append(tuple(term))
    return OpWord(pres.vars, pres.n, terms)


def word(pres, *terms) -> OpWord:
    """The unnormalized word with these terms; a string factor is a field
    expression."""
    return OpWord(pres.vars, pres.n, [
        tuple(parse_field_expr(f, pres.vars) if isinstance(f, str) else f for f in t)
        for t in terms
    ])


def rand_npoly(rng, pres, max_order: int = 2, nterms: int = 3, coeff_deg: int = 2) -> NormalPoly:
    idxs = indices_up_to(pres.n, max_order)
    out = NormalPoly.zero(pres.vars, pres.n)
    for _ in range(rng.randint(1, nterms)):
        mono: dict = {}
        for _ in range(rng.randint(0, 2)):
            I = rng.choice(idxs)
            mono[I] = mono.get(I, 0) + 1
        c = RatFunc.from_poly(rand_poly(rng, pres.vars, coeff_deg))
        out = out + NormalPoly(pres.vars, pres.n, {tuple(mono.items()): c})
    return out


def quotient_rule_reference(D: DerivationAction, f: RatFunc) -> RatFunc:
    """The reference for ``derive``: the quotient rule over the images'
    common denominator Q, reduced by one full gcd,
    D(N/R) = ratfunc_normalize(R*D'N - N*D'R, Q*R*R), where
    D'p = sum_j d_jp * P_j is built from formal partial derivatives."""
    def dprime(p: MPoly) -> MPoly:
        out = MPoly.zero(p.vars)
        for j, pj in enumerate(D.nums):
            out = out + p.partial(j) * pj
        return out

    n, r = f.num, f.den
    return ratfunc_normalize(r * dprime(n) - n * dprime(r), D.den * r * r)


def field_zero(pres) -> RatFunc:
    return RatFunc.zero(pres.vars)


@pytest.fixture
def gcd_calls(monkeypatch):
    """A list that grows by one entry (f, g) per gcd the field arithmetic
    takes while the test runs: every caller, ``mpoly_gcd`` included, goes
    through ``mpoly_cofactors``."""
    calls = []
    real = liediff.field.mpoly_cofactors

    def counting(f, g):
        calls.append((f, g))
        return real(f, g)

    monkeypatch.setattr(liediff.field, "mpoly_cofactors", counting)
    return calls
