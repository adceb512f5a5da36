"""Property tests: the table engine agrees with the rewrite oracle."""

from fractions import Fraction

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from liediff import MPoly, OpWord, RatFunc, normalize, rewrite_normalize  # noqa: E402


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
