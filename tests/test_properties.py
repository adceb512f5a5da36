"""Property tests: the table engine agrees with the rewrite oracle, with a
warm table as with a cold one, the parser's evaluation in normal form agrees with normalizing the expanded
words, the polynomial kernel keeps its integer-coefficient invariant and its
product agrees with a naive one, the heuristic gcd and the gcd with
cofactors agree with the pseudo-remainder reference, the kernel's trusted
constructors build what the validating ones build, the field arithmetic and
derivations obey their
axioms on three-variable fractions, and
derivation over one common denominator and the one-normalization sum of
products agree with their pairwise references, ``lincomb`` agrees with the
plain sum on each kind of denominator, ``derive`` with the quotient rule
reduced by one full gcd, and ``apply_operator`` on a normal operator with
the same operator written as an ``OpWord``, and the bracket table
computed once per unordered pair agrees with every ordered pair computed
from the formula.  The packed polynomial kernel agrees with the tuple-keyed
kernel of ``tuple_kernel.py`` on products, exact and inexact quotients,
cofactors, printing, equality, hashing and the tuple round trip, with
exponents next to the degree ceiling 2^31, which raises a typed error.  An
inexact division stops at its least key, and a product with a unit operand,
like a division by the coefficient 1, returns the other operand itself."""

import random
from fractions import Fraction
from math import gcd, lcm
from unittest import mock

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402

import liediff.field  # noqa: E402
from liediff import (  # noqa: E402
    DerivationAction,
    MPoly,
    OpWord,
    Presentation,
    RatFunc,
    StructureConstants,
    apply_operator,
    derive,
    divexact,
    lincomb,
    matrix_rank,
    mpoly_gcd,
    normalize,
    parse_field_expr,
    parse_operator_expr,
    ratfunc_normalize,
    validate_antisymmetry,
)
from liediff import DegreeOverflow, NormalOperator, NormalPoly, UnknownVariable, op_mul, ops  # noqa: E402
from conftest import DATA, cold_copy, quotient_rule_reference, rand_npoly  # noqa: E402
from oracles import brackets_reference, rewrite_normalize  # noqa: E402
from liediff.frobenius import _eliminate, _image_rank  # noqa: E402
from liediff.cli import main  # noqa: E402
import tuple_kernel  # noqa: E402
from liediff.field import _eval_point, coprime_basis, mpoly_cofactors  # noqa: E402


def coefficients(vars):
    exponents = st.tuples(*[st.integers(0, 2)] * len(vars)).filter(lambda e: sum(e) <= 2)
    nonzero = st.integers(-3, 3).filter(bool)
    polys = st.dictionaries(exponents, nonzero, min_size=1, max_size=3)
    return polys.map(
        lambda t: RatFunc.from_poly(MPoly(vars, {e: Fraction(c) for e, c in t.items()}))
    )


def words(pres):
    """Sums of one or two terms of up to 5 factors, coefficient degree <= 2."""
    factor = st.one_of(st.integers(1, pres.n), coefficients(pres.vars))
    term = st.lists(factor, max_size=5).map(tuple)
    return st.lists(term, min_size=1, max_size=2).map(
        lambda terms: OpWord(pres.vars, pres.n, terms)
    )


def _agree(pres, data):
    w = data.draw(words(pres))
    assert normalize(w, pres) == rewrite_normalize(w, pres)


PROPERTY = settings(max_examples=100, deadline=None)


@PROPERTY
@given(data=st.data())
def test_table_equals_rewrite_p1(p1, data):
    _agree(p1, data)


@PROPERTY
@given(data=st.data())
def test_table_equals_rewrite_nonconstant_alpha(p_nc, data):
    _agree(p_nc, data)


@PROPERTY
@given(data=st.data())
def test_table_equals_rewrite_heisenberg(p_heis, data):
    _agree(p_heis, data)


def _warm_equals_cold(pres, data):
    # words normalized in a random order over one presentation, whose table
    # keeps the entries of every example before, equal those over a copy
    # with a cold table, and the rewrite oracle
    ws = data.draw(st.lists(words(pres), min_size=1, max_size=4))
    order = data.draw(st.permutations(range(len(ws))))
    warm = {i: normalize(ws[i], pres) for i in order}
    for i, w in enumerate(ws):
        assert warm[i] == normalize(w, cold_copy(pres)) == rewrite_normalize(w, pres)


@PROPERTY
@given(data=st.data())
def test_warm_table_equals_cold_nonconstant_alpha(p_nc, data):
    _warm_equals_cold(p_nc, data)


@PROPERTY
@given(data=st.data())
def test_warm_table_equals_cold_heisenberg(p_heis, data):
    _warm_equals_cold(p_heis, data)


def expressions(pres):
    """Operator expressions as pairs (text, words): the text for the parser,
    and the same expression expanded into raw composition words.  At most 64
    words are expanded, so that the oracle stays cheap."""
    vars = pres.vars

    def coeff(text):
        return parse_field_expr(text, vars)

    minus = coeff("-1")
    leaves = st.one_of(
        st.integers(0, 3).map(str),
        st.sampled_from(vars),
    ).map(lambda t: (t, [(coeff(t),)]))
    leaves |= st.integers(1, pres.n).map(lambda k: (f"D{k}", [(k,)]))
    divisors = st.one_of(st.integers(1, 3).map(str), st.sampled_from(vars))

    def product(a, b):
        return [s + t for s in a for t in b]

    def power(ek):
        (text, ws), k = ek
        out = [()]
        for _ in range(k):
            out = product(out, ws)
        return f"({text})^{k}", out

    def extend(sub):
        pairs = st.tuples(sub, sub)
        return st.one_of(
            pairs.map(lambda ab: (f"({ab[0][0]} + {ab[1][0]})", ab[0][1] + ab[1][1])),
            pairs.map(lambda ab: (f"({ab[0][0]} - {ab[1][0]})",
                                  ab[0][1] + [(minus,) + t for t in ab[1][1]])),
            pairs.filter(lambda ab: len(ab[0][1]) * len(ab[1][1]) <= 64).map(
                lambda ab: (f"{ab[0][0]}*{ab[1][0]}", product(ab[0][1], ab[1][1]))),
            st.tuples(sub, st.integers(0, 4)).filter(
                lambda ek: len(ek[0][1]) ** ek[1] <= 64).map(power),
            st.tuples(sub, divisors).map(
                lambda ed: (f"{ed[0][0]}/{ed[1]}",
                            [t + (coeff(ed[1]).reciprocal(),) for t in ed[0][1]])),
        )

    return st.recursive(leaves, extend, max_leaves=6)


def _parse_agrees(pres, data):
    text, ws = data.draw(expressions(pres))
    assert parse_operator_expr(text, pres) == normalize(OpWord(pres.vars, pres.n, ws), pres)


@PROPERTY
@given(data=st.data())
def test_parse_equals_normalized_words_p1(p1, data):
    _parse_agrees(p1, data)


@PROPERTY
@given(data=st.data())
def test_parse_equals_normalized_words_nonconstant_alpha(p_nc, data):
    _parse_agrees(p_nc, data)


@PROPERTY
@given(data=st.data())
def test_parse_equals_normalized_words_heisenberg(p_heis, data):
    _parse_agrees(p_heis, data)


# -- the integer-coefficient kernel -----------------------------------------


def polys(vars, fractions=False, bound=4, max_deg=2, max_size=3):
    """Sparse polynomials of total degree <= max_deg with up to max_size
    terms and integer coefficients in [-bound, bound]; with ``fractions``,
    coefficients p/q with q in 1..3 as well."""
    exponents = st.tuples(*[st.integers(0, max_deg)] * len(vars)).filter(
        lambda e: sum(e) <= max_deg)
    ints = st.integers(-bound, bound)
    coeff = st.builds(Fraction, ints, st.integers(1, 3)) if fractions else ints
    return st.dictionaries(exponents, coeff, max_size=max_size).map(lambda t: MPoly(vars, t))


def ratfuncs(vars):
    nonzero = polys(vars, fractions=True).filter(lambda f: not f.is_zero())
    return st.builds(ratfunc_normalize, polys(vars, fractions=True), nonzero)


def _int_coefficients(f: RatFunc) -> bool:
    return all(type(c) is int for c in (*f.num.terms.values(), *f.den.terms.values()))


def _invariant_holds(pres, data):
    f = data.draw(ratfuncs(pres.vars))
    g = data.draw(ratfuncs(pres.vars))
    k = data.draw(st.integers(0, 3))
    results = [f + g, f - g, f * g, f**k]
    if not g.is_zero():
        results += [f / g, g**-k]
    results += [derive(D, f) for D in pres.derivations]
    for r in [f, g] + results:
        assert _int_coefficients(r), r
        if r.is_const():
            assert type(r.const_value()) is Fraction
            assert type(r.num.const_value()) is Fraction


@PROPERTY
@given(data=st.data())
def test_coefficients_stay_int_p1(p1, data):
    _invariant_holds(p1, data)


@PROPERTY
@given(data=st.data())
def test_coefficients_stay_int_heisenberg(p_heis, data):
    _invariant_holds(p_heis, data)


@PROPERTY
@given(a=st.integers(-6, 6), b=st.integers(1, 6))
def test_const_value_is_fraction(a, b):
    c = RatFunc.const(("x", "y"), Fraction(a, b))
    assert type(c.const_value()) is Fraction
    assert c.const_value() == Fraction(a, b)


@PROPERTY
@given(data=st.data())
def test_polynomial_lift_equals_normalize(data):
    # from_poly and const skip the gcd of ratfunc_normalize, the reference
    vars = data.draw(st.sampled_from([(), ("x",), ("x", "y")]))
    one = MPoly.const(vars, 1)
    p = data.draw(polys(vars, fractions=True))
    ints = st.integers(-6, 6)
    c = data.draw(st.one_of(ints, st.builds(Fraction, ints, st.integers(1, 6))))
    for got, want in [
        (RatFunc.from_poly(p), ratfunc_normalize(p, one)),
        (RatFunc.const(vars, c), ratfunc_normalize(MPoly.const(vars, c), one)),
    ]:
        assert got == want and _int_coefficients(got)


def _naive_product(f: MPoly, g: MPoly) -> dict:
    # the schoolbook product over Fraction coefficients, zero terms dropped
    t = {}
    for e1, c1 in f.terms.items():
        for e2, c2 in g.terms.items():
            e = tuple(i + j for i, j in zip(e1, e2))
            t[e] = t.get(e, Fraction(0)) + Fraction(c1) * Fraction(c2)
    return {e: c for e, c in t.items() if c}


_X, _Y = (MPoly.variable(("x", "y", "z"), v) for v in "xy")


@PROPERTY
@given(*[polys(("x", "y", "z"), fractions=True, max_size=4)] * 4)
@example(_X, _Y, _X, _Y)
def test_product_equals_naive_product(a, b, u, v):
    # the kernel's one multiply-accumulate against a product written here;
    # (u + v) * (u - v) cancels its cross terms
    for f, g in [(a, b), (u + v, u - v)]:
        got = f * g
        assert got.terms == _naive_product(f, g)
        if not g.is_zero():
            assert divexact(got, g) == f


def _positive_lead(f: MPoly) -> MPoly:
    return -f if not f.is_zero() and f.leading()[1] < 0 else f


def _gcd_scales(vars, data):
    # integer inputs: contents multiply (Gauss's lemma), so equality is exact
    # up to the sign convention of a positive leading coefficient
    f, g = data.draw(polys(vars)), data.draw(polys(vars))
    h = data.draw(polys(vars).filter(lambda p: not p.is_zero()))
    assert mpoly_gcd(f * h, g * h) == _positive_lead(h * mpoly_gcd(f, g))


@PROPERTY
@given(data=st.data())
def test_gcd_of_planted_factor_p1(p1, data):
    _gcd_scales(p1.vars, data)


@PROPERTY
@given(data=st.data())
def test_gcd_of_planted_factor_heisenberg(p_heis, data):
    _gcd_scales(p_heis.vars, data)


# -- the heuristic gcd against the pseudo-remainder reference ----------------

HEU_VARS = [("x",), ("x", "y"), ("x", "y", "z")]


def _nonzero(polys):
    return polys.filter(lambda p: not p.is_zero())


def planted_factors(vars, bound):
    """A shared factor: a monomial, a general polynomial, or 1 (the cofactors
    of a random pair are then usually coprime)."""
    monomials = _nonzero(polys(vars, bound=bound, max_deg=3, max_size=1))
    return st.one_of(monomials, _nonzero(polys(vars, bound=bound)), st.just(MPoly.const(vars, 1)))


def _planted_pair(data, bound):
    vars = data.draw(st.sampled_from(HEU_VARS))
    h = data.draw(planted_factors(vars, bound))
    cofactors = _nonzero(polys(vars, bound=bound))
    return data.draw(cofactors) * h, data.draw(cofactors) * h, h


@PROPERTY
@given(data=st.data(), bound=st.sampled_from([4, 10**3, 10**6]))
def test_heuristic_gcd_equals_prs(data, bound):
    # large coefficients make the first evaluation point fail more often,
    # so xi has to grow
    f, g, h = _planted_pair(data, bound)
    f, g = f.primitive_part(), g.primitive_part()
    got, a, b = liediff.field._pp_gcd(f, g)
    assert got == liediff.field._pp_gcd_prs(f, g)
    assert (a * got, b * got) == (f, g)
    h = h.primitive_part()
    assert divexact(got, h) * h == got


@PROPERTY
@given(data=st.data())
def test_heuristic_mpoly_gcd_equals_prs_on_fractions(data):
    vars = data.draw(st.sampled_from(HEU_VARS))
    f, g, h = (data.draw(polys(vars, fractions=True)) for _ in range(3))
    f, g = f * h, g * h
    got = mpoly_cofactors(f, g)

    def prs(f, g):
        h = liediff.field._pp_gcd_prs(f, g)
        return h, divexact(f, h), divexact(g, h)

    with mock.patch.object(liediff.field, "_pp_gcd", prs):
        assert got == mpoly_cofactors(f, g)


# -- gcd with cofactors against the pseudo-remainder reference ---------------


def _stored_clean(f: MPoly) -> bool:
    """f holds what the validating constructor would store: the same terms,
    each coefficient of the same type (an int when integral), no zero."""
    g = MPoly(f.vars, dict(f.terms))
    return (
        type(f.vars) is tuple
        and g == f
        and all(type(c) is type(g.terms[e]) for e, c in f.terms.items())
    )


def _gcd_reference(f: MPoly, g: MPoly) -> MPoly:
    # the gcd by _pp_gcd_prs alone, rational content included, as the
    # docstring of mpoly_gcd defines it
    if f.is_zero() or g.is_zero():
        return _positive_lead(f + g)
    cf, cg = Fraction(f.content()), Fraction(g.content())
    c = Fraction(gcd(cf.numerator, cg.numerator), lcm(cf.denominator, cg.denominator))
    return MPoly.const(f.vars, c) * liediff.field._pp_gcd_prs(f.primitive_part(), g.primitive_part())


def gcd_arguments(vars):
    """Fraction coefficients of either sign, monomials with a non-unit
    coefficient, and zero."""
    monomials = polys(vars, fractions=True, bound=12, max_deg=3, max_size=1)
    return st.one_of(monomials, polys(vars, fractions=True), st.just(MPoly.zero(vars)))


@st.composite
def gcd_pairs(draw):
    vars = draw(st.sampled_from(HEU_VARS))
    args = gcd_arguments(vars)
    h = draw(st.one_of(args, st.just(MPoly.const(vars, 1))))
    return draw(args) * h, draw(args) * h


_XY = ("x", "y")
_ZERO = MPoly.zero(_XY)
_NEG = MPoly(_XY, {(2, 1): Fraction(-3, 2), (0, 1): 4})


@PROPERTY
@given(pair=gcd_pairs())
@example(pair=(_ZERO, _ZERO))
@example(pair=(_ZERO, _NEG))
@example(pair=(_NEG, _ZERO))
@example(pair=(MPoly(_XY, {(1, 2): -6}), _NEG))
@example(pair=(_NEG, MPoly.const(_XY, Fraction(-2, 3))))
def test_cofactors_equal_prs_reference(pair):
    f, g = pair
    h, a, b = mpoly_cofactors(f, g)
    assert h == _gcd_reference(f, g) == mpoly_gcd(f, g)
    if h.is_zero():
        assert a.is_zero() and b.is_zero()
    else:
        assert (a * h, b * h) == (f, g)
    assert all(_stored_clean(r) for r in (h, a, b))


# -- trusted construction against the validating constructors ----------------


_COEFFS = st.one_of(
    st.integers(-6, 6).filter(bool),
    st.builds(Fraction, st.integers(-6, 6).filter(bool), st.integers(1, 4)),
)


@PROPERTY
@given(data=st.data())
def test_trusted_polynomials_equal_validated(data):
    # every result the kernel builds without the checks of MPoly(...) is
    # what MPoly(...) builds from the same terms
    vars = data.draw(st.sampled_from(HEU_VARS))
    f, g = (data.draw(polys(vars, fractions=True)) for _ in range(2))
    c = data.draw(_COEFFS)
    results = [f + g, f - g, -f, f * g, f._scale(c), f._divide(c), *mpoly_cofactors(f, g)]
    if not g.is_zero():
        results.append(divexact(f * g, g))
    assert all(_stored_clean(r) for r in results)


@PROPERTY
@given(data=st.data())
def test_trusted_field_results_equal_validated(data):
    # _derive_poly, lincomb and the cofactor shifts build their results
    # without the checks; canonical parts keep int coefficients
    D = _action(SHARED_DENOMINATORS[data.draw(st.integers(0, len(SHARED_DENOMINATORS) - 1))])
    f, g = data.draw(ratfuncs(XYZ)), data.draw(ratfuncs(XYZ))
    for r in (derive(D, f), lincomb([(f, g), (g, f), (f, f)], XYZ), f + g, f * g):
        assert _stored_clean(r.num) and _stored_clean(r.den)
        assert r == ratfunc_normalize(r.num, r.den)


@PROPERTY
@given(data=st.data())
def test_trusted_normal_forms_equal_validated(p_nc, data):
    # sums, negations and products of normal operators, and sums and
    # negations of normal polynomials, skip the per-key checks
    a, b = (normalize(data.draw(words(p_nc)), p_nc) for _ in range(2))
    for r in (a + b, a - b, -a, op_mul(a, b, p_nc)):
        assert type(r.vars) is tuple and NormalOperator(r.vars, r.n, dict(r.terms)) == r
    rng = random.Random(data.draw(st.integers(0, 2**32)))
    q, u = rand_npoly(rng, p_nc), rand_npoly(rng, p_nc)
    for r in (q + u, q - u, -q):
        assert type(r.vars) is tuple and NormalPoly(r.vars, r.n, dict(r.terms)) == r


# -- field axioms and derivations on three-variable fractions ----------------

XYZ = ("x", "y", "z")


@PROPERTY
@given(a=ratfuncs(XYZ), b=ratfuncs(XYZ), c=ratfuncs(XYZ))
def test_field_axioms(a, b, c):
    assert a + b == b + a and a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    if not a.is_zero():
        assert (a / a).is_one()


@PROPERTY
@given(r=ratfuncs(XYZ))
def test_canonical_form_is_idempotent(r):
    assert ratfunc_normalize(r.num, r.den) == r


@PROPERTY
@given(data=st.data())
def test_derive_leibniz_and_quotient_rule(p_heis, data):
    f, g = data.draw(ratfuncs(XYZ)), data.draw(ratfuncs(XYZ))
    c = data.draw(st.builds(Fraction, st.integers(-6, 6), st.integers(1, 6)))
    for D in p_heis.derivations:
        df, dg = derive(D, f), derive(D, g)
        assert derive(D, f * g) == df * g + f * dg
        if not g.is_zero():
            assert derive(D, f / g) == (df * g - f * dg) / (g * g)
        assert derive(D, RatFunc.const(XYZ, c)).is_zero()


# -- one common denominator: derive and lincomb against pairwise references ----


def _pairwise_derive(D, f: RatFunc) -> RatFunc:
    # the reference: one RatFunc per partial derivative, added pairwise, and
    # the quotient rule in RatFunc arithmetic
    def dpoly(p: MPoly) -> RatFunc:
        out = RatFunc.zero(p.vars)
        for j in range(len(p.vars)):
            pj = p.partial(j)
            if not pj.is_zero():
                out = out + RatFunc.from_poly(pj) * D.images[j]
        return out

    dn = dpoly(f.num)
    if f.den == MPoly.const(f.vars, 1):
        return dn
    n, d = RatFunc.from_poly(f.num), RatFunc.from_poly(f.den)
    return (dn * d - n * dpoly(f.den)) / (d * d)


#: Images whose denominators are not constant and share factors.
SHARED_DENOMINATORS = [
    ("1/x", "y/(x*(x+1))", "1/(x+1)^2"),
    ("(x + y)/(x+1)^2", "0", "3/(2*x)"),
    ("z/(x*y)", "1/(x*(x+1))", "x - y"),
]


def _action(images):
    return DerivationAction("D", XYZ, tuple(parse_field_expr(s, XYZ) for s in images))


def _derive_agrees(D, f, g):
    df, dg = derive(D, f), derive(D, g)
    assert df == _pairwise_derive(D, f)
    assert derive(D, f * g) == df * g + f * dg
    assert derive(D, f + g) == df + dg


@PROPERTY
@given(data=st.data())
def test_derive_equals_pairwise_shared_denominators(data):
    f, g = data.draw(ratfuncs(XYZ)), data.draw(ratfuncs(XYZ))
    for images in SHARED_DENOMINATORS:
        _derive_agrees(_action(images), f, g)


@PROPERTY
@given(data=st.data())
def test_derive_equals_pairwise_random_images(data):
    images = data.draw(st.tuples(*[ratfuncs(XYZ)] * 3))
    D = DerivationAction("D", XYZ, images)
    _derive_agrees(D, data.draw(ratfuncs(XYZ)), data.draw(ratfuncs(XYZ)))


def _plain_sum(pairs) -> RatFunc:
    out = RatFunc.zero(XYZ)
    for a, b in pairs:
        out = out + a * b
    return out


@PROPERTY
@given(data=st.data())
def test_lincomb_equals_pairwise_sum(data):
    # factors drawn from a small pool, so that products share denominators
    pool = data.draw(st.lists(ratfuncs(XYZ), min_size=1, max_size=4))
    index = st.integers(0, len(pool) - 1)
    pairs = [(pool[i], pool[j]) for i, j in data.draw(st.lists(st.tuples(index, index), max_size=6))]
    ref = _plain_sum(pairs)
    assert lincomb(pairs, XYZ) == ref
    if pairs:
        a, b = pairs[0]
        assert lincomb(pairs + [(-a, b)], XYZ) == ref - a * b


# -- lincomb against the plain RatFunc sum, by kind of denominator ----------


def _over(dens):
    # fractions whose denominators divide the drawn ones: normalizing keeps
    # a power product a power product and a constant a constant
    return st.builds(ratfunc_normalize, polys(XYZ), dens)


#: Denominators c*x^a: the lcm is an integer lcm and an exponent maximum.
POWER_PRODUCTS = st.builds(
    lambda c, e: MPoly(XYZ, {e: c}), st.integers(1, 4), st.tuples(*[st.integers(0, 2)] * 3))
#: Denominators with shared and squared factors, mixed with power products.
MIXED = st.sampled_from([
    parse_field_expr(s, XYZ).num
    for s in ("x", "2*z^2", "x + 1", "(x + 1)^2", "y*(x + 1)", "x - y", "(x - y)^2*z", "x*y + 1")
])
CONSTANTS = st.integers(1, 6).map(lambda c: MPoly.const(XYZ, c))
DENOMINATOR_KINDS = {"power products": POWER_PRODUCTS, "mixed": MIXED, "constants": CONSTANTS}


@PROPERTY
@given(data=st.data(), kind=st.sampled_from(sorted(DENOMINATOR_KINDS)))
def test_lincomb_equals_plain_sum_by_denominator_kind(data, kind):
    fractions = _over(DENOMINATOR_KINDS[kind])
    pairs = data.draw(st.lists(st.tuples(fractions, fractions), min_size=1, max_size=6))
    assert lincomb(pairs, XYZ) == _plain_sum(pairs)


@PROPERTY
@given(data=st.data(), den=st.one_of(MIXED, POWER_PRODUCTS))
def test_lincomb_equal_denominators(data, den):
    # every product lies over den itself: one group, no lcm to find
    over = RatFunc.from_poly(den).reciprocal()
    nums = data.draw(st.lists(polys(XYZ), min_size=1, max_size=5))
    pairs = [(RatFunc.from_poly(n), over) for n in nums]
    assert lincomb(pairs, XYZ) == _plain_sum(pairs)


@PROPERTY
@given(data=st.data(), kind=st.sampled_from(sorted(DENOMINATOR_KINDS)))
def test_lincomb_cancels_to_zero(data, kind):
    fractions = _over(DENOMINATOR_KINDS[kind])
    pairs = data.draw(st.lists(st.tuples(fractions, fractions), min_size=1, max_size=4))
    negated = [(-a, b) for a, b in pairs]
    assert lincomb(pairs + negated[::-1], XYZ).is_zero()
    # a sum that cancels in its numerators only, over several groups
    assert lincomb(pairs + negated + pairs, XYZ) == _plain_sum(pairs)


@PROPERTY
@given(data=st.data(), kind=st.sampled_from(sorted(DENOMINATOR_KINDS)))
def test_lincomb_one_group(data, kind):
    a, b = (data.draw(_over(DENOMINATOR_KINDS[kind])) for _ in range(2))
    assert lincomb([(a, b)], XYZ) == a * b
    assert lincomb([(a, b), (b, a)], XYZ) == a * b + b * a


# -- derive against the quotient rule reduced by one full gcd ---------------


#: Actions whose images have a nonconstant common denominator Q; the tests
#: below also take the conftest presentations' actions (Q = 1 on p_nc,
#: Q = 2 on heis).
NONCONSTANT_Q = [
    ("1/x", "0", "0"),
    ("y/(x*(x+1))", "1/(x+1)^2", "0"),
    ("0", "x/z", "1/z^2"),
]


def _derive_equals_reference(D, f):
    assert derive(D, f) == quotient_rule_reference(D, f)


@PROPERTY
@given(data=st.data())
def test_derive_equals_reference_repeated_factors(p_heis, data):
    # R = h^2 * k: gcd(R, D'R) is at least h, so g is nontrivial
    h, k = (data.draw(polys(XYZ, max_size=2).filter(lambda p: not p.is_const())) for _ in range(2))
    f = ratfunc_normalize(data.draw(polys(XYZ)), h * h * k)
    for D in (*p_heis.derivations, *map(_action, NONCONSTANT_Q + SHARED_DENOMINATORS)):
        _derive_equals_reference(D, f)


@PROPERTY
@given(data=st.data())
def test_derive_equals_reference_free_denominator(data):
    # a denominator over y and z, under an action that sees x alone: D'R = 0
    D = _action(("x + 1", "0", "0"))
    R = data.draw(polys(("y", "z"), max_size=2).filter(lambda p: not p.is_zero()))
    R = MPoly(XYZ, {(0, *e): c for e, c in R.terms.items()})
    f = ratfunc_normalize(data.draw(polys(XYZ)), R)
    _derive_equals_reference(D, f)


@PROPERTY
@given(data=st.data())
def test_derive_equals_reference_presentations(p_nc, p_heis, data):
    f = data.draw(ratfuncs(XYZ))
    for D in (*p_heis.derivations, *map(_action, NONCONSTANT_Q)):
        _derive_equals_reference(D, f)
    g = data.draw(ratfuncs(p_nc.vars))
    for D in p_nc.derivations:
        _derive_equals_reference(D, g)


def test_derive_reference_cases():
    x_only, over_x = _action(("1", "0", "0")), _action(("1/x", "0", "0"))
    cases = [
        # D'R = 0: R is free of x, and the only gcd is against Q*R
        (x_only, "x^2/(y + 1)", "2*x/(y + 1)"),
        # a repeated factor: g = (x + 1)*y, and y cancels from Q*g
        (x_only, "((x + 1)^2 + y)/((x + 1)^2*y)", "-2/(x + 1)^3"),
        # Q = x cancels against the numerator x*2 of D'(x^2)
        (over_x, "x^2/(y + 1)", "2/(y + 1)"),
        # Q = x and g = x + 1 both stay
        (over_x, "y/(x + 1)^2", "-2*y/(x*(x + 1)^3)"),
    ]
    for D, f, want in cases:
        f, want = parse_field_expr(f, XYZ), parse_field_expr(want, XYZ)
        assert derive(D, f) == quotient_rule_reference(D, f) == want


# -- apply_operator: the normal-operator path against the OpWord reference ---


def _apply_agrees(pres, data):
    nf = normalize(data.draw(words(pres)), pres)
    f = data.draw(ratfuncs(pres.vars).filter(lambda f: not f.den.is_const()))
    as_word = OpWord(pres.vars, pres.n, ops._words(nf))
    assert apply_operator(nf, f, pres) == apply_operator(as_word, f, pres)


@PROPERTY
@given(data=st.data())
def test_apply_normal_operator_equals_word_p1(p1, data):
    _apply_agrees(p1, data)


@PROPERTY
@given(data=st.data())
def test_apply_normal_operator_equals_word_nonconstant_alpha(p_nc, data):
    _apply_agrees(p_nc, data)


@PROPERTY
@given(data=st.data())
def test_apply_normal_operator_equals_word_heisenberg(p_heis, data):
    _apply_agrees(p_heis, data)


# -- bracket tables: one computation per unordered pair against every pair ---


def _antisymmetric(n, vars, data):
    """A random antisymmetric table over n rows: entries drawn for k < l and
    mirrored with the opposite sign; the diagonal stays zero."""
    entries = {}
    for k in range(1, n + 1):
        for l in range(k + 1, n + 1):
            for m in range(1, n + 1):
                if data.draw(st.booleans()):
                    c = data.draw(coefficients(vars))
                    entries[(k, l, m)], entries[(l, k, m)] = c, -c
    return StructureConstants.from_entries(n, vars, entries)


def _table_and_pairs(rows, pres, beta):
    # first_order_brackets, and the pairs it handed to _brackets
    seen = []
    real = ops._brackets

    def recording(rows, pairs, p, beta=None):
        seen.extend(pairs)
        return real(rows, pairs, p, beta)

    with mock.patch.object(ops, "_brackets", recording):
        table = ops.first_order_brackets(rows, pres, beta)
    return table, seen


def _equals_every_ordered_pair(rows, pres, beta):
    n = len(rows)
    ordered = [(l, k) for l in range(n) for k in range(n)]
    ref = ops._brackets(rows, ordered, pres, beta)
    table, seen = _table_and_pairs(rows, pres, beta)
    assert [table[l][k] for l, k in ordered] == ref
    assert [[str(c) for c in table[l][k]] for l, k in ordered] == [
        [str(c) for c in b] for b in ref
    ]
    return seen


def _brackets_agree(pres, data):
    n = data.draw(st.integers(2, 4))
    entry = polys(pres.vars, max_deg=1).map(RatFunc.from_poly) | ratfuncs(pres.vars)
    rows = [[data.draw(entry) for _ in range(pres.n)] for _ in range(n)]
    betas = [None, StructureConstants.zero(n, pres.vars), _antisymmetric(n, pres.vars, data)]
    if n == pres.n:
        betas.append(pres.alpha)
    for beta in betas:
        seen = _equals_every_ordered_pair(rows, pres, beta)
        assert seen == [(l, k) for l in range(n) for k in range(l + 1, n)]


BRACKETS = settings(max_examples=20, deadline=None)


@BRACKETS
@given(data=st.data())
def test_pairwise_brackets_equal_ordered_p1(p1, data):
    _brackets_agree(p1, data)


@BRACKETS
@given(data=st.data())
def test_pairwise_brackets_equal_ordered_nonconstant_alpha(p_nc, data):
    _brackets_agree(p_nc, data)


@BRACKETS
@given(data=st.data())
def test_pairwise_brackets_equal_ordered_heisenberg(p_heis, data):
    _brackets_agree(p_heis, data)


@BRACKETS
@given(data=st.data(), defect=st.sampled_from(["diagonal", "no mirror", "same sign"]))
def test_non_antisymmetric_beta_takes_every_ordered_pair(p_nc, data, defect):
    # one defect in an otherwise antisymmetric beta sends the table down the
    # reference path: every ordered pair computed from the formula
    n = data.draw(st.integers(2, 3))
    rows = [[data.draw(ratfuncs(p_nc.vars)) for _ in range(p_nc.n)] for _ in range(n)]
    entries = dict(_antisymmetric(n, p_nc.vars, data).entries)
    c = data.draw(coefficients(p_nc.vars))
    k, m = data.draw(st.integers(1, n)), data.draw(st.integers(1, n))
    l = data.draw(st.integers(1, n).filter(lambda l: l != k))
    if defect == "diagonal":
        entries[(k, k, m)] = c
    elif defect == "no mirror":
        entries[(k, l, m)] = c
        entries.pop((l, k, m), None)
    else:
        entries[(k, l, m)] = entries[(l, k, m)] = c
    beta = StructureConstants.from_entries(n, p_nc.vars, entries)
    assert validate_antisymmetry(beta)
    seen = _equals_every_ordered_pair(rows, p_nc, beta)
    assert seen == [(l, k) for l in range(n) for k in range(n)]


def _antisymmetry_reference(alpha):
    # the definition site by site: every k <= l and every m, sums in RatFunc
    # arithmetic
    out = []
    for k in range(1, alpha.n + 1):
        for l in range(k, alpha.n + 1):
            for m in range(1, alpha.n + 1):
                s = alpha.get(k, l, m) + alpha.get(l, k, m)
                if not s.is_zero():
                    out.append((f"antisymmetry at (k,l,m)=({k},{l},{m})", s))
    return out


@BRACKETS
@given(data=st.data())
def test_antisymmetry_report_equals_sitewise_sums(p_nc, data):
    n = data.draw(st.integers(1, 3))
    entries = dict(_antisymmetric(n, p_nc.vars, data).entries)
    sites = st.tuples(*[st.integers(1, n)] * 3)
    for site in data.draw(st.lists(sites, max_size=3)):
        entries[site] = data.draw(coefficients(p_nc.vars))
    alpha = StructureConstants.from_entries(n, p_nc.vars, entries)
    got = [(v.where, v.residual) for v in validate_antisymmetry(alpha)]
    assert got == _antisymmetry_reference(alpha)


# -- first-order brackets over a coprime basis against the lincomb reference -


def _shared_entries(vars, R):
    """Fractions over denominators that share the factor R, repeat it or
    carry an integer content (1, R, R^2, R*x, 2*R, 3, 2*x^2), and zeros."""
    x = MPoly.variable(vars, vars[0])
    dens = [MPoly.const(vars, 1), R, R * R, R * x, R._scale(2), MPoly.const(vars, 3), (x * x)._scale(2)]
    fraction = st.builds(ratfunc_normalize, polys(vars, max_deg=2), st.sampled_from(dens))
    return st.one_of(st.just(RatFunc.zero(vars)), fraction)


def _shared_factor(vars, data):
    # a nonconstant polynomial with a positive leading coefficient
    R = data.draw(polys(vars, max_deg=1).filter(lambda p: not p.is_const()))
    return R._scale(-1) if R._lc() < 0 else R


def _basis_equals_reference(rows, pres, beta):
    # every ordered pair, so the diagonal and both orders are compared too
    n = len(rows)
    pairs = [(l, k) for l in range(n) for k in range(n)]
    got = ops._brackets(rows, pairs, pres, beta)
    ref = brackets_reference(rows, pairs, pres, beta)
    assert got == ref
    assert [[str(c) for c in b] for b in got] == [[str(c) for c in b] for b in ref]


@BRACKETS
@given(data=st.data())
def test_basis_brackets_equal_reference_presentations(p1, p_nc, p_heis, data):
    for pres in (p1, p_nc, p_heis):
        entry = _shared_entries(pres.vars, _shared_factor(pres.vars, data))
        rows = [[data.draw(entry) for _ in range(pres.n)] for _ in range(pres.n)]
        zero = StructureConstants.zero(pres.n, pres.vars)
        for beta in (None, pres.alpha, zero, _antisymmetric(pres.n, pres.vars, data)):
            _basis_equals_reference(rows, pres, beta)


@BRACKETS
@given(data=st.data(), n=st.integers(1, 3))
def test_basis_brackets_equal_reference_random_presentations(data, n):
    # images and structure constants over the same shared factors as the
    # rows, so the basis must split, merge and repeat factors across all
    # three sources; the bracket law need not hold for the formula
    R = _shared_factor(XYZ, data)
    entry = _shared_entries(XYZ, R)
    actions = tuple(
        DerivationAction(f"D{i + 1}", XYZ, tuple(data.draw(entry) for _ in XYZ)) for i in range(n)
    )
    alpha = StructureConstants.from_entries(n, XYZ, {
        (k, l, m): data.draw(entry)
        for k in range(1, n + 1) for l in range(1, n + 1) for m in range(1, n + 1)
        if data.draw(st.booleans())
    })
    pres = Presentation(XYZ, actions, alpha)
    rows = [[data.draw(entry) for _ in range(n)] for _ in range(data.draw(st.integers(1, 3)))]
    beta = StructureConstants.from_entries(len(rows), XYZ, {
        (l, k, m): data.draw(entry)
        for l in range(1, len(rows) + 1) for k in range(1, len(rows) + 1)
        for m in range(1, len(rows) + 1) if data.draw(st.booleans())
    })
    for b in (None, beta):
        _basis_equals_reference(rows, pres, b)


def test_coprime_basis_refines_shared_factors():
    # x*(x + 1), (x + 1)^2*y and 2*x*y share x, x + 1 and y pairwise: the
    # basis holds each once, and every input is its content times basis powers
    vars = ("x", "y")
    dens = [parse_field_expr(s, vars).num for s in ("x^2 + x", "(x + 1)^2*y", "2*x*y", "4", "x + 1")]
    B, exps = coprime_basis(dens, vars)
    assert sorted(str(b) for b in B) == ["x", "x + 1", "y"]
    for d in dens:
        c, e = exps[d]
        power = MPoly.const(vars, c)
        for b, k in zip(B, e):
            power = power * b**k
        assert power == d


# -- the certified rank filter against Bareiss ------------------------------


def _bareiss_rank(mat):
    return len(_eliminate(mat, full=False)[1]) if mat else 0


@PROPERTY
@given(data=st.data(), shape=st.tuples(st.integers(1, 3), st.integers(1, 3)))
def test_filtered_rank_equals_bareiss(data, shape):
    # a random matrix, and the same with its last row replaced by a
    # combination of the others, which is singular whenever it is square
    nr, nc = shape
    mat = [[data.draw(ratfuncs(XYZ)) for _ in range(nc)] for _ in range(nr)]
    assert matrix_rank(mat) == _bareiss_rank(mat)
    if nr > 1:
        cs = [data.draw(ratfuncs(XYZ)) for _ in range(nr - 1)]
        last = [sum((c * row[j] for c, row in zip(cs, mat)), RatFunc.zero(XYZ)) for j in range(nc)]
        dependent = mat[:-1] + [last]
        assert matrix_rank(dependent) == _bareiss_rank(dependent) < nr


def test_denominator_vanishing_at_every_filter_point():
    # x - a vanishes at each point's first coordinate: the filter finds no
    # point and Bareiss decides
    vars = ("x", "y")
    den = MPoly.const(vars, 1)
    for attempt in range(4):
        den = den * (MPoly.variable(vars, "x") - MPoly.const(vars, _eval_point(2, attempt)[0]))
    one, y = RatFunc.const(vars, 1), RatFunc.variable(vars, "y")
    mat = [[ratfunc_normalize(MPoly.const(vars, 1), den), y], [one, one]]
    assert _image_rank(mat) is None
    assert matrix_rank(mat) == _bareiss_rank(mat) == 2
    assert matrix_rank([mat[0], mat[0]]) == _bareiss_rank([mat[0], mat[0]]) == 1


def test_rank_deficient_image_is_not_trusted():
    # x - 2 and y - 3 vanish at the first filter point (2, 3): the image has
    # rank 1 there, the matrix over Q(x, y) rank 2
    vars = ("x", "y")
    assert tuple(_eval_point(2, 0)) == (2, 3)
    x2, y3 = parse_field_expr("x - 2", vars), parse_field_expr("(y - 3)/(x + 1)", vars)
    one, zero = RatFunc.const(vars, 1), RatFunc.zero(vars)
    mat = [[x2, one], [zero, y3]]
    assert _image_rank(mat) == 1
    assert matrix_rank(mat) == 2
    assert matrix_rank([[x2]]) == 1


# -- the packed kernel against the tuple kernel, and the degree ceiling -------

CEIL = 2**31
# small exponents, and large ones whose sums pass the ceiling or stop just
# below it, so that a slip in a mask, a shift or a guard bit shows
_EXPONENT = st.one_of(st.integers(0, 3), st.sampled_from([CEIL - 2, CEIL - 3, 2**30, 2**30 - 1]))
PACKED_VARS = st.sampled_from([("x",), ("x", "y"), ("x", "y", "z"), ("w", "x", "y", "z")])


def packed_polys(vars, exponent=_EXPONENT, max_size=4):
    """Polynomials whose exponent tuples have a total degree below 2^31,
    with int and Fraction coefficients."""
    exponents = st.tuples(*[exponent] * len(vars)).filter(lambda e: sum(e) < CEIL)
    coeff = st.one_of(st.integers(-5, 5), st.builds(Fraction, st.integers(-5, 5), st.integers(1, 3)))
    return st.dictionaries(exponents, coeff, max_size=max_size).map(lambda t: MPoly(vars, t))


def _degree(f: MPoly) -> int:
    return max(map(sum, f.terms))


def _tuple_terms(f: MPoly) -> dict:
    # f's terms as the tuple kernel keeps them: Fraction coefficients
    return {e: Fraction(c) for e, c in f.terms.items()}


@PROPERTY
@given(data=st.data())
def test_packed_product_equals_tuple_kernel(data):
    vars = data.draw(PACKED_VARS)
    f, g = data.draw(packed_polys(vars)), data.draw(packed_polys(vars))
    if not f.is_zero() and not g.is_zero() and _degree(f) + _degree(g) >= CEIL:
        with pytest.raises(DegreeOverflow):
            f * g
        return
    h = f * g
    assert h.terms == tuple_kernel.product(_tuple_terms(f), _tuple_terms(g))
    if not g.is_zero():
        assert divexact(h, g) == f
        assert divexact(h, g).terms == tuple_kernel.divexact(_tuple_terms(h), _tuple_terms(g))


@PROPERTY
@given(data=st.data())
def test_packed_quotient_equals_tuple_kernel(data):
    # an exact quotient agrees, and an inexact division raises in both.  A
    # divisor with large exponents is a power product: (x^(2^31 - 2) + 1) /
    # (x - 1) would run 2^31 - 2 quotient steps before it fails
    vars = data.draw(PACKED_VARS)
    small = packed_polys(vars, exponent=st.integers(0, 3))
    f, g = data.draw(st.one_of(
        st.tuples(packed_polys(vars), packed_polys(vars, max_size=1)),
        st.tuples(small, small),
    ).filter(lambda fg: not fg[1].is_zero()))
    try:
        want = tuple_kernel.divexact(_tuple_terms(f), _tuple_terms(g))
    except ValueError:
        with pytest.raises(ValueError):
            divexact(f, g)
    else:
        assert divexact(f, g).terms == want


@PROPERTY
@given(data=st.data())
def test_packed_text_order_and_round_trip(data):
    # printing follows the tuple kernel's grlex order; equality and hashing
    # agree with the tuple view, and MPoly(p.vars, p.terms) rebuilds p
    vars = data.draw(PACKED_VARS)
    f, g = data.draw(packed_polys(vars)), data.draw(packed_polys(vars))
    same = MPoly(vars, dict(reversed(list(_tuple_terms(f).items()))))
    for p in (f, g, same):
        assert str(p) == tuple_kernel.to_str(vars, p.terms)
        assert MPoly(p.vars, p.terms) == p
    assert same == f and hash(same) == hash(f)
    assert (f == g) == (f.terms == g.terms)
    if f == g:
        assert hash(f) == hash(g)
    if not f.is_zero():
        e, c = f.leading()
        assert e == max(f.terms, key=tuple_kernel.grlex) and c == f.terms[e]


@PROPERTY
@given(data=st.data())
def test_packed_cofactors_check_by_tuple_kernel(data):
    # a power product with large exponents against a general polynomial
    # (the monomial shortcut), or two general polynomials with small ones
    # (GCDHEU evaluates a variable at xi, so it stays with small degrees)
    vars = data.draw(PACKED_VARS)
    small = packed_polys(vars, exponent=st.integers(0, 3))
    f = data.draw(st.one_of(packed_polys(vars, max_size=1), small))
    g = data.draw(small)
    h, a, b = mpoly_cofactors(f, g)
    if h.is_zero():
        assert f.is_zero() and g.is_zero()
        return
    for whole, part in ((f, a), (g, b)):
        assert tuple_kernel.product(_tuple_terms(part), _tuple_terms(h)) == _tuple_terms(whole)
    for p in (h, a, b):
        assert str(p) == tuple_kernel.to_str(vars, p.terms)


def test_inexact_division_stops_at_its_least_key():
    # x^80000 / (x - 1): an exact quotient would have least key x^80000, and
    # the first quotient key x^79999 is below it
    x = MPoly.variable(("x",), "x")
    f, g = x**80000, x - MPoly.const(("x",), 1)
    shifted = f * g + x
    steps = []
    real = liediff.field._mul_into
    with mock.patch.object(liediff.field, "_mul_into",
                           side_effect=lambda *a: steps.append(1) or real(*a)):
        with pytest.raises(ValueError):
            divexact(f, g)
        with pytest.raises(ValueError):
            divexact(shifted, x**2)  # least keys x and x^2: x^2 divides no x
    assert len(steps) <= 1


# -- unit operands: the products and _divide return the other operand ---------


def _units(vars):
    # the shared unit and a freshly built one
    fresh = MPoly(vars, {(0,) * len(vars): 1})
    return liediff.field._unit(vars), fresh


@PROPERTY
@given(data=st.data())
def test_unit_operand_returns_the_other_mpoly(data):
    vars = data.draw(PACKED_VARS)
    a = data.draw(packed_polys(vars))
    for one in _units(vars):
        # when a is a unit too, either operand is the product
        assert a * one is a and (one * a is a or a._is_one())
        assert (a * one).terms == tuple_kernel.product(_tuple_terms(a), _tuple_terms(one))
    assert a._divide(1) is a and a._divide(Fraction(1)) is a


@PROPERTY
@given(data=st.data())
def test_unit_operand_returns_the_other_ratfunc(data):
    vars = data.draw(st.sampled_from([("x",), ("x", "y"), XYZ]))
    a = data.draw(ratfuncs(vars))
    for u in _units(vars):
        one = RatFunc(u, u)
        assert a * one is a and (one * a is a or a.is_one())
        for got, want in [((a * one).num, a.num), ((a * one).den, a.den)]:
            assert got.terms == tuple_kernel.product(_tuple_terms(want), _tuple_terms(u))


def test_unit_over_other_variables_raises():
    a = MPoly.variable(XYZ, "x")
    for one in _units(("x", "y")):
        for product in (lambda: a * one, lambda: one * a,
                        lambda: RatFunc.from_poly(a) * RatFunc(one, one),
                        lambda: RatFunc(one, one) * RatFunc.from_poly(a)):
            with pytest.raises(UnknownVariable):
                product()


def test_ceiling_exponent_round_trips():
    top = CEIL - 1
    for vars, e in [(("x",), (top,)), (XYZ, (0, top, 0)), (XYZ, (1, 0, top - 1))]:
        p = MPoly(vars, {e: 3})
        assert p.terms == {e: 3} and MPoly(vars, p.terms) == p
        assert parse_field_expr(str(p), vars) == RatFunc.from_poly(p)
    x = MPoly.variable(("x",), "x")
    # the last square of x is not taken, so 2^31 - 1 = 0b111...1 stays in reach
    assert x ** top == MPoly(("x",), {(top,): 1})
    assert str(parse_field_expr("x^999999999", ("x",))) == "x^999999999"
    assert str(parse_field_expr(f"x^{top}*y^0", ("x", "y"))) == f"x^{top}"


def test_ceiling_raises_typed_error(capsys):
    x = MPoly.variable(("x", "y"), "x")
    big = MPoly(("x", "y"), {(2**30, 0): 1})
    for build in [
        lambda: MPoly(("x",), {(CEIL,): 1}),
        lambda: MPoly(("x", "y"), {(2**30, 2**30): 1}),
        lambda: x**CEIL,
        lambda: (x * x) ** 2**30,
        lambda: big * big,
        lambda: big * MPoly(("x", "y"), {(0, 2**30): 1}),
        lambda: parse_field_expr(f"x^{CEIL}", ("x",)),
        lambda: parse_field_expr("x^1073741824 * y^1073741824", ("x", "y")),
        lambda: lincomb([(RatFunc.from_poly(big), RatFunc.from_poly(big))], ("x", "y")),
        lambda: lincomb([(RatFunc.const(("x", "y"), 1), RatFunc.from_poly(big).reciprocal()),
                         (RatFunc.const(("x", "y"), 1),
                          RatFunc.from_poly(MPoly(("x", "y"), {(0, 2**30): 1})).reciprocal())],
                        ("x", "y")),
    ]:
        with pytest.raises(DegreeOverflow):
            build()
    code = main(["apply", "-p", str(DATA / "p1.json"), "D1", f"x^{CEIL}"])
    err = capsys.readouterr().err
    assert code == 2 and "2^31" in err


def test_derivative_at_the_ceiling():
    top = CEIL - 1
    X = ("x",)

    def mono(e, c=1):
        return RatFunc.from_poly(MPoly(X, {(e,): c}))

    dx = DerivationAction("dx", X, (RatFunc.const(X, 1),))
    square = DerivationAction("sq", X, (mono(2),))
    assert derive(dx, mono(top)) == mono(top - 1, top)
    assert mono(top).num.partial(0) == mono(top - 1, top).num
    assert derive(square, mono(top - 1)) == mono(top, top - 1)
    # d/dx x^-(2^31 - 2) = -(2^31 - 2) / x^(2^31 - 1)
    want = mono(top).reciprocal() * RatFunc.const(X, 1 - top)
    assert derive(dx, mono(top - 1).reciprocal()) == want
    for D, f in [(square, mono(top)), (dx, mono(top).reciprocal())]:
        with pytest.raises(DegreeOverflow):
            derive(D, f)
