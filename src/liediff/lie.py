"""Structure constants, presentations, and their validators.

A presentation declares the generators of the base field, one action per
derivation, and the structure constants tying the derivations together:
[D_k, D_l] = sum_m alpha[k,l,m] * D_m.  The semantic check verifies that
bracket relation on every generator (``bracket_residuals``), which suffices
for the whole field because both sides are derivations.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .errors import ArityMismatch, NonConstantStructureConstants, Violation
from .field import DerivationAction, RatFunc, derive


@dataclass(frozen=True, eq=False)
class StructureConstants:
    """The n^3 table alpha[k,l,m] of field elements, stored sparsely."""

    n: int
    vars: tuple[str, ...]
    entries: dict

    @classmethod
    def zero(cls, n: int, vars) -> "StructureConstants":
        return cls(n, tuple(vars), {})

    @classmethod
    def from_entries(cls, n: int, vars, items) -> "StructureConstants":
        vars = tuple(vars)
        entries = {}
        for (k, l, m), value in dict(items).items():
            if not value.is_zero():
                entries[(k, l, m)] = value
        return cls(n, vars, entries)

    def get(self, k: int, l: int, m: int) -> RatFunc:
        v = self.entries.get((k, l, m))
        return RatFunc.zero(self.vars) if v is None else v

    def is_constant(self) -> bool:
        return all(v.is_const() for v in self.entries.values())

    def __eq__(self, other) -> bool:
        if not isinstance(other, StructureConstants):
            return NotImplemented
        if self.n != other.n or self.vars != other.vars:
            return False
        keys = set(self.entries) | set(other.entries)
        return all(self.get(*k) == other.get(*k) for k in keys)


@dataclass(frozen=True, eq=False)
class Presentation:
    """A base field Q(vars) with n derivation actions and structure constants."""

    vars: tuple[str, ...]
    derivations: tuple[DerivationAction, ...]
    alpha: StructureConstants

    @property
    def n(self) -> int:
        return len(self.derivations)

    def derivation(self, k: int) -> DerivationAction:
        return self.derivations[k - 1]


def validate_antisymmetry(alpha: StructureConstants) -> list[Violation]:
    """Report every (k,l,m) with alpha[k,l,m] + alpha[l,k,m] != 0."""
    out = []
    for k in range(1, alpha.n + 1):
        for l in range(k, alpha.n + 1):
            for m in range(1, alpha.n + 1):
                s = alpha.get(k, l, m) + alpha.get(l, k, m)
                if not s.is_zero():
                    out.append(
                        Violation(f"antisymmetry at (k,l,m)=({k},{l},{m})", s)
                    )
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
    for k in range(1, p.n + 1):
        for l in range(k + 1, p.n + 1):
            dk, dl = p.derivation(k), p.derivation(l)
            for j, v in enumerate(p.vars):
                r = derive(dk, dl.images[j]) - derive(dl, dk.images[j])
                for m in range(1, p.n + 1):
                    c = p.alpha.get(k, l, m)
                    if not c.is_zero():
                        r = r - c * p.derivation(m).images[j]
                if not r.is_zero():
                    yield k, l, v, r


def check_presentation(p: Presentation) -> list[Violation]:
    """Verify antisymmetry of alpha and the bracket relation on every
    generator; an empty report means the relation holds on the whole field."""
    out = validate_antisymmetry(p.alpha)
    for k, l, v, r in bracket_residuals(p):
        out.append(Violation(f"bracket axiom at (k,l)=({k},{l}), variable {v}", r))
    return out


def apply_first_order(coeffs, f: RatFunc, p: Presentation) -> RatFunc:
    """Apply the first-order operator sum_i coeffs[i] * D_i to a field element."""
    if len(coeffs) != p.n:
        raise ArityMismatch("coefficient vector arity differs from n")
    out = RatFunc.zero(p.vars)
    for i in range(p.n):
        if not coeffs[i].is_zero():
            out = out + coeffs[i] * derive(p.derivations[i], f)
    return out
