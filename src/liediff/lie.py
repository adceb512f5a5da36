"""Structure constants, presentations, and their validators.

A presentation declares the generators of the base field, one action per
derivation, and the structure constants tying the derivations together:
[D_k, D_l] = sum_m alpha[k,l,m] * D_m.  The semantic check verifies that
bracket relation on every generator (``bracket_residuals``), which suffices
for the whole field because both sides are derivations.
"""

from __future__ import annotations

from itertools import combinations

from .errors import (
    NonConstantStructureConstants,
    UnknownDerivation,
    Violation,
    _Record,
)
from .field import DerivationAction, RatFunc, derive, lincomb


class StructureConstants(_Record):
    """The n^3 table alpha[k,l,m] of field elements, stored sparsely: every
    index lies in 1..n, and zero values are dropped on construction."""

    __slots__ = _fields = ("n", "vars", "entries")

    def __init__(self, n: int, vars: tuple[str, ...], entries: dict):
        for key in entries:
            if not all(1 <= i <= n for i in key):
                raise UnknownDerivation(f"structure-constant index {key} not in 1..{n}")
        entries = {key: v for key, v in entries.items() if not v.is_zero()}
        self._init(n=n, vars=vars, entries=entries)

    @classmethod
    def zero(cls, n: int, vars) -> "StructureConstants":
        return cls(n, tuple(vars), {})

    @classmethod
    def from_entries(cls, n: int, vars, items) -> "StructureConstants":
        return cls(n, tuple(vars), dict(items))

    def get(self, k: int, l: int, m: int) -> RatFunc:
        v = self.entries.get((k, l, m))
        return RatFunc.zero(self.vars) if v is None else v

    def bracket(self, k: int, l: int) -> list[tuple[int, RatFunc]]:
        """The nonzero (m, alpha[k,l,m]) of [D_k, D_l], ordered by m."""
        return [
            (m, self.entries[(k, l, m)])
            for m in range(1, self.n + 1)
            if (k, l, m) in self.entries
        ]

    def is_constant(self) -> bool:
        return all(v.is_const() for v in self.entries.values())


class Presentation(_Record):
    """A base field Q(vars) with n derivation actions and structure constants.

    Equality and hashing are by identity.  ``_pbw`` is the presentation's
    PBW table, the normal-ordering entries that ``ops._entry`` fills and
    every call shares; it is left out of the constructor and the repr, so a
    new ``Presentation`` over the same parts starts with an empty table."""

    __slots__ = ("vars", "derivations", "alpha", "_pbw")
    _fields = ("vars", "derivations", "alpha")
    __eq__ = object.__eq__
    __hash__ = object.__hash__

    def __init__(
        self,
        vars: tuple[str, ...],
        derivations: tuple[DerivationAction, ...],
        alpha: StructureConstants,
    ):
        self._init(vars=vars, derivations=derivations, alpha=alpha, _pbw={})

    @property
    def n(self) -> int:
        return len(self.derivations)

    def derivation(self, k: int) -> DerivationAction:
        if not 1 <= k <= self.n:
            raise UnknownDerivation(f"derivation index {k} not in 1..{self.n}")
        return self.derivations[k - 1]


def validate_antisymmetry(alpha: StructureConstants) -> list[Violation]:
    """Report every (k,l,m) with alpha[k,l,m] + alpha[l,k,m] != 0, k <= l,
    in lexicographic order.

    Only sites with a stored entry can fail.  The entries are canonical, so
    a sum vanishes exactly when one entry is the negation of the other, and
    only a failing sum is computed."""
    out = []
    for k, l, m in sorted({(min(k, l), max(k, l), m) for k, l, m in alpha.entries}):
        a, b = alpha.get(k, l, m), alpha.get(l, k, m)
        if b != -a:
            out.append(Violation(f"antisymmetry at (k,l,m)=({k},{l},{m})", a + b))
    return out


def validate_jacobi(alpha: StructureConstants) -> list[Violation]:
    """Check the Jacobi cyclic sums for constant structure constants."""
    if not alpha.is_constant():
        raise NonConstantStructureConstants(
            "the Jacobi test requires constant structure constants"
        )
    out = []
    for k, l, m in combinations(range(1, alpha.n + 1), 3):
        for q in range(1, alpha.n + 1):
            s = RatFunc.zero(alpha.vars)
            for p in range(1, alpha.n + 1):
                s = s + alpha.get(k, l, p) * alpha.get(p, m, q)
                s = s + alpha.get(l, m, p) * alpha.get(p, k, q)
                s = s + alpha.get(m, k, p) * alpha.get(p, l, q)
            if not s.is_zero():
                out.append(Violation(f"jacobi at (k,l,m;q)=({k},{l},{m};{q})", s))
    return out


def bracket_residuals(p: Presentation):
    """Yield (k, l, variable, residual) for every k < l and declared variable
    on which the bracket relation fails, in that order:

        residual = D_k(D_l(v)) - D_l(D_k(v)) - sum_m alpha[k,l,m] * D_m(v).

    Each D_k acts through its generator images alone, so the check does not
    assume the structure constants it tests.  No residual means the relation
    holds on the whole field, because both sides are derivations."""
    one = RatFunc.const(p.vars, 1)
    for k in range(1, p.n + 1):
        for l in range(k + 1, p.n + 1):
            dk, dl = p.derivation(k), p.derivation(l)
            for j, v in enumerate(p.vars):
                terms = [(derive(dk, dl.images[j]), one), (-derive(dl, dk.images[j]), one)]
                terms += [(-c, p.derivation(m).images[j]) for m, c in p.alpha.bracket(k, l)]
                r = lincomb(terms, p.vars)
                if not r.is_zero():
                    yield k, l, v, r


def check_presentation(p: Presentation) -> list[Violation]:
    """Verify antisymmetry of alpha and the bracket relation on every
    generator; an empty report means the relation holds on the whole field."""
    out = validate_antisymmetry(p.alpha)
    for k, l, v, r in bracket_residuals(p):
        out.append(Violation(f"bracket axiom at (k,l)=({k},{l}), variable {v}", r))
    return out

