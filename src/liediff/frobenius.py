"""Linear independence of derivations, commuting-basis construction, and the
basis-change condition checks.

Rank computations clear denominators row by row and run fraction-free
(Bareiss) elimination over the polynomial ring, so every division is exact.
Inverses and null vectors both come from one Gauss-Jordan routine over the
field, ``_rref``, which is equally exact here.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .errors import (
    ArityMismatch,
    CommutationFailure,
    NoCoordinateSubset,
    NotIndependent,
    Violation,
)
from .field import DerivationAction, MPoly, RatFunc, divexact, mpoly_gcd
from .lie import Presentation, StructureConstants, bracket_residuals
from .ops import first_order_commutator

Matrix = list  # list of rows of RatFunc


def _poly_lcm(a: MPoly, b: MPoly) -> MPoly:
    return divexact(a * b, mpoly_gcd(a, b))


def _cleared_rows(mat: Matrix) -> list[list[MPoly]]:
    out = []
    for row in mat:
        scale = MPoly.const(row[0].vars, 1)
        for ent in row:
            scale = _poly_lcm(scale, ent.den)
        out.append([ent.num * divexact(scale, ent.den) for ent in row])
    return out


def _bareiss_rank(rows: list[list[MPoly]]) -> int:
    rows = [list(r) for r in rows]
    nr = len(rows)
    nc = len(rows[0]) if nr else 0
    if not nr or not nc:
        return 0
    prev = MPoly.const(rows[0][0].vars, 1)
    r = 0
    for c in range(nc):
        piv = next((i for i in range(r, nr) if not rows[i][c].is_zero()), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        for i in range(r + 1, nr):
            for j in range(c + 1, nc):
                rows[i][j] = divexact(
                    rows[r][c] * rows[i][j] - rows[i][c] * rows[r][j], prev
                )
            rows[i][c] = MPoly.zero(rows[i][c].vars)
        prev = rows[r][c]
        r += 1
        if r == nr:
            break
    return r


def matrix_rank(mat: Matrix) -> int:
    if not mat:
        return 0
    return _bareiss_rank(_cleared_rows(mat))


def matrix_invert(mat: Matrix) -> Matrix | None:
    """Exact inverse over the field, or None if singular: row-reduce
    [mat | I], which is singular when a column of mat has no pivot."""
    n = len(mat)
    vars = mat[0][0].vars
    zero, one = RatFunc.zero(vars), RatFunc.const(vars, 1)
    aug = [
        list(row) + [one if i == j else zero for j in range(n)]
        for i, row in enumerate(mat)
    ]
    rows, pivots = _rref(aug)
    if any(c not in pivots for c in range(n)):
        return None
    return [row[n:] for row in rows]


def _rref(mat: Matrix) -> tuple[Matrix, dict]:
    # Gauss-Jordan: the reduced row echelon form and {pivot column: row}
    rows = [list(r) for r in mat]
    nr, nc = len(rows), len(rows[0]) if rows else 0
    vars = rows[0][0].vars
    one = RatFunc.const(vars, 1)
    pivots: dict[int, int] = {}
    r = 0
    for c in range(nc):
        piv = next((i for i in range(r, nr) if not rows[i][c].is_zero()), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        inv = one / rows[r][c]
        rows[r] = [ent * inv for ent in rows[r]]
        for i in range(nr):
            if i != r and not rows[i][c].is_zero():
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivots[c] = r
        r += 1
        if r == nr:
            break
    return rows, pivots


def _null_vector(mat: Matrix, ncols: int) -> list[RatFunc] | None:
    """A nonzero x with mat . x = 0, chosen from the first free column."""
    vars = mat[0][0].vars
    rows, pivots = _rref(mat)
    free = next((c for c in range(ncols) if c not in pivots), None)
    if free is None:
        return None
    x = [RatFunc.zero(vars) for _ in range(ncols)]
    x[free] = RatFunc.const(vars, 1)
    for c, r in pivots.items():
        x[c] = -rows[r][free]
    return x


@dataclass(frozen=True)
class IndependenceCertificate:
    """Outcome of the independence test, with a checkable witness either way."""

    independent: bool
    columns: tuple[int, ...] | None = None  # 0-based variable indices
    combination: tuple[RatFunc, ...] | None = None  # b with sum b_i D_i = 0

    @property
    def verdict(self) -> str:
        return "independent" if self.independent else "dependent"


def _evaluation_matrix(p: Presentation) -> Matrix:
    # row i: images of the declared variables under D_{i+1}
    return [list(d.images) for d in p.derivations]


def _first_invertible_columns(M: Matrix, n: int, t: int) -> tuple[int, ...] | None:
    for cols in combinations(range(t), n):
        sub = [[M[i][c] for c in cols] for i in range(n)]
        if matrix_rank(sub) == n:
            return cols
    return None


def linear_independence(p: Presentation) -> IndependenceCertificate:
    """Decide linear independence of the derivations over the field.

    A derivation vanishes iff it vanishes on all generators, so independence
    is the rank of the n x t matrix of generator images.
    """
    M = _evaluation_matrix(p)
    n, t = p.n, len(p.vars)
    if matrix_rank(M) == n:
        cols = _first_invertible_columns(M, n, t)
        return IndependenceCertificate(True, columns=cols)
    transpose = [[M[i][j] for i in range(n)] for j in range(t)]
    b = _null_vector(transpose, n)
    assert b is not None
    return IndependenceCertificate(False, combination=tuple(b))


def commuting_basis(p: Presentation) -> tuple[Matrix, tuple]:
    """Construct the change of basis A with D-bar_i = sum_j A[i][j] D_j
    normalized so that D-bar_i fixes the selected coordinate subset
    (D-bar_i(x_{j_k}) = delta_ik), then verify that the new derivations
    commute on every generator."""
    cert = linear_independence(p)
    if not cert.independent:
        raise NotIndependent(
            "derivations are linearly dependent; witness "
            + "(" + ", ".join(str(c) for c in cert.combination) + ")"
        )
    if cert.columns is None:
        raise NoCoordinateSubset("no invertible coordinate minor exists")
    M = _evaluation_matrix(p)
    n = p.n
    W = [[M[i][c] for c in cert.columns] for i in range(n)]
    A = matrix_invert(W)
    if A is None:
        raise NoCoordinateSubset("selected coordinate minor is singular")
    # images of the new derivations on the generators: A . M
    images = [
        [
            sum(
                (A[i][j] * M[j][v] for j in range(n)),
                RatFunc.zero(p.vars),
            )
            for v in range(len(p.vars))
        ]
        for i in range(n)
    ]
    actions = tuple(
        DerivationAction(f"Dbar{i + 1}", p.vars, tuple(images[i])) for i in range(n)
    )
    rebased = Presentation(p.vars, actions, StructureConstants.zero(n, p.vars))
    violations = [
        Violation(f"commutation of Dbar{r}, Dbar{s} on {name}", res)
        for r, s, name, res in bracket_residuals(rebased)
    ]
    if violations:
        raise CommutationFailure(violations)
    return A, actions


def change_basis_check(
    A: Matrix, beta: StructureConstants, p: Presentation
) -> list[Violation]:
    """Evaluate, for every (l,k,j), the condition for D2_i = sum_j A[i][j] D1_j
    to satisfy structure constants beta:

        sum_i (A[l][i] D_i(A[k][j]) - A[k][i] D_i(A[l][j]))
          + sum_{r,s} A[l][r] A[k][s] alpha[r,s,j]
          = sum_m beta[l,k,m] A[m][j]

    An empty report means the relation holds, and it then persists in every
    extension of the presentation's field.
    """
    n = p.n
    if len(A) != n or any(len(row) != n for row in A):
        raise ArityMismatch(f"basis matrix must be {n}x{n}")
    if beta.n != n:
        raise ArityMismatch("target structure constants have the wrong dimension")
    out = []
    for l in range(1, n + 1):
        for k in range(1, n + 1):
            bracket = first_order_commutator(A[l - 1], A[k - 1], p)
            for j in range(1, n + 1):
                res = bracket[j - 1]
                for m in range(1, n + 1):
                    c = beta.get(l, k, m)
                    if not c.is_zero():
                        res = res - c * A[m - 1][j - 1]
                if not res.is_zero():
                    out.append(Violation(f"(l,k,j)=({l},{k},{j})", res))
    return out


def commuting_check(A: Matrix, p: Presentation) -> list[Violation]:
    """The basis-change condition with target beta = 0: do the new
    derivations commute?"""
    return change_basis_check(A, StructureConstants.zero(p.n, p.vars), p)


def axiom2_witness_check(xs, p: Presentation) -> bool:
    """Does the flat n^2-tuple define a linearly independent commuting family
    D_i^x = sum_j xs[i*n+j] D_j?  True iff the matrix is invertible and the
    commuting check passes."""
    n = p.n
    xs = list(xs)
    if len(xs) != n * n:
        raise ArityMismatch(f"witness must have {n * n} entries")
    A = [xs[i * n : (i + 1) * n] for i in range(n)]
    if matrix_rank(A) < n:
        return False
    return not commuting_check(A, p)
