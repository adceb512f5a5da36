"""The ring of normal polynomials and its induced derivation action.

A normal polynomial lives in finitely many variables X_I, one per
multi-index I, with field coefficients; X_I stands for the normal-ordered
derivative word D1^i1 * ... * Dn^in applied to a generic element.  The
derivation action on X_I is read off by normal-ordering D_i composed with
that word, and evaluation at a concrete witness b replaces X_I by the actual
iterated derivative of b.

Polynomials may also carry placeholder slots: identifiers that are not
declared field variables.  Slots behave as ordinary extra polynomial
variables and must be substituted away before evaluation.
"""

from __future__ import annotations

import re
from collections.abc import Iterable, Sequence

from .errors import (
    ArityMismatch,
    NegativeExponent,
    TruncationExceeded,
    UnboundSlot,
    _Record,
)
from .field import RatFunc, SparseSum, _add_to, derive, format_sum, lincomb
from .lie import Presentation
from .ops import _derivatives, _entry, _multi_index

# A generator is a multi-index (tuple of ints) for X_I or a string for a slot.


def _natkey(name: str):
    return tuple(
        (0, int(s)) if s.isdigit() else (1, s)
        for s in re.split(r"(\d+)", name)
        if s
    )


def _genkey(g):
    if isinstance(g, str):
        return (0, _natkey(g))
    return (1, (sum(g), g))


def _mono_mul(a, b):
    d = dict(a)
    for g, e in b:
        d[g] = d.get(g, 0) + e
    return tuple(sorted(d.items(), key=lambda ge: _genkey(ge[0])))


def _mono_degree(m) -> int:
    return sum(e for _, e in m)


class NormalPoly(SparseSum):
    """Polynomial in the X_I (and optional slots) over field coefficients."""

    __slots__ = ()

    def __init__(self, vars: Iterable[str], n: int, terms: dict):
        self.vars = tuple(vars)
        self.n = n
        clean = {}
        for m, c in terms.items():
            m = tuple(sorted(((g, e) for g, e in m if e), key=lambda ge: _genkey(ge[0])))
            for g, _ in m:
                if not isinstance(g, str):
                    _multi_index(g, n)
            if not c.is_zero():
                _add_to(clean, m, c)
        self.terms = clean

    # -- constructors -----------------------------------------------------

    @classmethod
    def const(cls, vars, n: int, c: RatFunc) -> "NormalPoly":
        return cls(vars, n, {(): c})

    @classmethod
    def xvar(cls, vars, n: int, I) -> "NormalPoly":
        vars = tuple(vars)
        return cls(vars, n, {((tuple(I), 1),): RatFunc.const(vars, 1)})

    @classmethod
    def slot(cls, vars, n: int, name: str) -> "NormalPoly":
        vars = tuple(vars)
        return cls(vars, n, {((name, 1),): RatFunc.const(vars, 1)})

    # -- structure ----------------------------------------------------------

    def x_support(self) -> set:
        return {g for m in self.terms for g, _ in m if not isinstance(g, str)}

    def slots(self) -> set:
        return {g for m in self.terms for g, _ in m if isinstance(g, str)}

    # -- ring operations -------------------------------------------------------

    def __mul__(self, other: "NormalPoly") -> "NormalPoly":
        self._require_compat(other)
        t: dict = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                _add_to(t, _mono_mul(m1, m2), c1 * c2)
        return NormalPoly(self.vars, self.n, t)

    def scale(self, c: RatFunc) -> "NormalPoly":
        return NormalPoly(self.vars, self.n, {m: k * c for m, k in self.terms.items()})

    def __pow__(self, k: int) -> "NormalPoly":
        if k < 0:
            raise NegativeExponent(f"normal polynomial raised to the power {k}")
        if len(self.terms) == 1:
            # one term c*m: c**k times m with every exponent times k, where
            # k products would cost time linear in k
            ((m, c),) = self.terms.items()
            return NormalPoly(self.vars, self.n, {tuple((g, e * k) for g, e in m): c**k})
        # a sum keeps the k-fold product: squaring would multiply the large
        # halves q^(k/2) by each other, more term products than k-1 by q
        out = NormalPoly.const(self.vars, self.n, RatFunc.const(self.vars, 1))
        for _ in range(k):
            out = out * self
        return out

    # -- comparison / display ----------------------------------------------------

    def __str__(self) -> str:
        pairs = []
        order = sorted(
            self.terms,
            key=lambda m: (_mono_degree(m), tuple((_genkey(g), e) for g, e in m)),
            reverse=True,
        )
        for m in order:
            gens = "*".join(
                (g if isinstance(g, str) else "X[" + ",".join(map(str, g)) + "]")
                + (f"^{e}" if e > 1 else "")
                for g, e in m
            )
            pairs.append((self.terms[m], gens))
        return format_sum(pairs)


def _linear(p: Presentation, T: dict) -> NormalPoly:
    # a table entry sum_J c_J * D^J read back as sum_J c_J * X_J
    return NormalPoly(p.vars, p.n, {((J, 1),): c for J, c in T.items()})


def x_action(i: int, I, p: Presentation) -> NormalPoly:
    """Image of the variable X_I under D_i: the normal form T(i, I) of
    D_i * D^I, read back as a linear normal polynomial."""
    return _linear(p, _entry(p, i, _multi_index(I, p.n)))


def derive_normal(i: int, q: NormalPoly, p: Presentation) -> NormalPoly:
    """Extend the derivation D_i to normal polynomials: derive coefficients,
    act on the X_I through the PBW table of the presentation, and apply
    Leibniz."""
    return _derive_with(i, q, p, lambda I: _linear(p, _entry(p, i, I)))


def _derive_with(i: int, q: NormalPoly, p: Presentation, on_x) -> NormalPoly:
    # D_i derives the coefficients in the base field and sends X_I to on_x(I)
    action = p.derivation(i)
    t: dict = {}
    for m, c in q.terms.items():
        _add_to(t, m, derive(action, c))
        for idx, (g, e) in enumerate(m):
            if isinstance(g, str):
                raise UnboundSlot(f"cannot differentiate placeholder slot '{g}'")
            rest = m[:idx] + (((g, e - 1),) if e > 1 else ()) + m[idx + 1 :]
            ce = c * RatFunc.const(q.vars, e)
            for m2, c2 in on_x(g).terms.items():
                _add_to(t, _mono_mul(rest, m2), ce * c2)
    return NormalPoly(q.vars, q.n, t)


def eval_hom(q: NormalPoly, b: RatFunc, p: Presentation) -> RatFunc:
    """Evaluation homomorphism: substitute X_I by the iterated derivative of
    the witness b, then evaluate in the base field.  Each monomial's product
    of derivatives is paired with its coefficient, and the pairs are summed
    with one ``lincomb``, normalized once."""
    slots = q.slots()
    if slots:
        raise UnboundSlot(f"unsubstituted slots {sorted(slots)}")
    if q.n != p.n:
        raise ArityMismatch("normal polynomial arity differs from the presentation")
    dvalue = _derivatives(p, b)
    one = RatFunc.const(p.vars, 1)
    pairs = []
    for m, c in q.terms.items():
        v = one
        for g, e in m:
            v = v * dvalue(g) ** e
        pairs.append((c, v))
    return lincomb(pairs, p.vars)


def substitute_slots(q: NormalPoly, values: dict) -> NormalPoly:
    """Replace slot generators by field elements; X variables are untouched."""
    t: dict = {}
    for m, c in q.terms.items():
        kept = []
        v = c
        for g, e in m:
            if isinstance(g, str):
                if g not in values:
                    raise UnboundSlot(f"no value supplied for slot '{g}'")
                v = v * values[g] ** e
            else:
                kept.append((g, e))
        _add_to(t, tuple(kept), v)
    return NormalPoly(q.vars, q.n, t)


def axiom1_instance_check(
    q: NormalPoly, extra: Sequence[RatFunc], b: RatFunc, p: Presentation
) -> bool:
    """Check one instance of the nonvanishing scheme: fill the placeholder
    slots of q with the given field elements (in natural name order), evaluate
    at the candidate witness b, and test the result against zero."""
    names = sorted(q.slots(), key=_natkey)
    if len(extra) != len(names):
        raise ArityMismatch(
            f"{len(names)} slot(s) {names} but {len(extra)} value(s) supplied"
        )
    filled = substitute_slots(q, dict(zip(names, extra)))
    return not eval_hom(filled, b, p).is_zero()


def indices_up_to(n: int, d: int) -> list[tuple[int, ...]]:
    """All multi-indices of arity n and total order <= d, sorted by (order, lex)."""
    out: list[tuple[int, ...]] = [()]
    for _ in range(n):
        out = [I + (k,) for I in out for k in range(d + 1)]
    out = [I for I in out if sum(I) <= d]
    out.sort(key=lambda I: (sum(I), I))
    return out


class TruncatedExtension(_Record):
    """Finite-order slice of the ring of normal polynomials over a base
    presentation: variables X_I for |I| <= order, derivation actions stored
    for |I| < order."""

    __slots__ = _fields = ("base", "order", "actions")

    def __init__(self, base: Presentation, order: int, actions: dict):
        self._init(base=base, order=order, actions=actions)

    def variables(self) -> list[tuple[int, ...]]:
        return indices_up_to(self.base.n, self.order)

    def action(self, i: int, I) -> NormalPoly:
        self.base.derivation(i)  # UnknownDerivation outside 1..n
        I = _multi_index(I, self.base.n)
        if sum(I) >= self.order:
            raise TruncationExceeded(
                f"D_{i}(X{list(I)}) needs order {sum(I) + 1} > bound {self.order}"
            )
        return self.actions[(i, I)]

    def derive(self, i: int, q: NormalPoly) -> NormalPoly:
        return _derive_with(i, q, self.base, lambda I: self.action(i, I))


def fresh_extension(p: Presentation, d: int) -> TruncatedExtension:
    """Adjoin fresh variables X_I for |I| <= d with the induced derivation
    actions; the derivations act as linearly independent derivations because
    each D_i sends X_0 to the distinct fresh variable X_{e_i}."""
    if d < 1:
        raise ArityMismatch("order bound must be at least 1")
    actions = {}
    for I in indices_up_to(p.n, d - 1):
        for i in range(1, p.n + 1):
            actions[(i, I)] = _linear(p, _entry(p, i, I))
    return TruncatedExtension(p, d, actions)
