"""The tuple-keyed polynomial kernel, kept as the tests' reference for the
packed one in ``liediff.field``.

Terms are dicts from exponent tuples to coefficients, ordered by graded lex:
total degree first, then the exponents lexicographically, variables in
declaration order.  Each function is the kernel's code from before monomials
were packed into ints, over plain term dicts.
"""

from __future__ import annotations

from fractions import Fraction
from operator import add

from liediff.field import join_signed


def grlex(e: tuple[int, ...]):
    # graded lexicographic key, variables in declaration order
    return (sum(e), e)


def mul_into(t: dict, a: dict, b: dict) -> None:
    # add the product of the term dicts a and b into t, dropping a key whose
    # sum is zero
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            e = tuple(map(add, e1, e2))
            c = t.get(e, 0) + c1 * c2
            if c:
                t[e] = c
            else:
                t.pop(e, None)


def product(a: dict, b: dict) -> dict:
    t: dict = {}
    mul_into(t, a, b)
    return t


def divexact(f: dict, g: dict) -> dict:
    """Exact quotient of the term dicts f/g; raises ValueError if g does not
    divide f."""
    if not g:
        raise ValueError("division by the zero polynomial")
    ge = max(g, key=grlex)
    gc = Fraction(g[ge])
    q: dict = {}
    rest = dict(f)
    while rest:
        fe = max(rest, key=grlex)
        qe = tuple(a - b for a, b in zip(fe, ge))
        if any(x < 0 for x in qe):
            raise ValueError("inexact polynomial division")
        qc = rest[fe] / gc
        q[qe] = qc
        mul_into(rest, {qe: -qc}, g)
    return q


def to_str(vars: tuple[str, ...], terms: dict) -> str:
    """The text of a polynomial: terms in descending graded lex order."""
    if not terms:
        return "0"
    parts = []
    for e in sorted(terms, key=grlex, reverse=True):
        c = terms[e]
        mon = "*".join(v if p == 1 else f"{v}^{p}" for v, p in zip(vars, e) if p)
        a = abs(c)
        if mon:
            body = mon if a == 1 else f"{a}*{mon}"
        else:
            body = str(a)
        parts.append((c < 0, body))
    return join_signed(parts)
