"""Linear independence of derivations, commuting-basis construction, and the
basis-change condition checks.

One fraction-free elimination, ``_eliminate``, answers every matrix
question.  It clears denominators row by row and works over the polynomial
ring, where each division by the previous pivot is exact (Bareiss).  The
forward pass clears below the pivots and gives the rank and the pivot
columns.  The full pass also clears above them; the rows divided by the last
pivot are then the reduced row echelon form, which gives inverses, null
vectors and the commuting basis.

``matrix_rank`` tries a certified filter first: the matrix's image in
GF(p) at a fixed point where no denominator vanishes.  A full-rank image
proves full rank over Q(x); any other image leaves the rank to the
elimination.
"""

from __future__ import annotations

from math import prod

from .errors import (
    ArityMismatch,
    CommutationFailure,
    InvariantBroken,
    NotIndependent,
    UnknownVariable,
    Violation,
    _Record,
)
from .field import (
    _GCD_PRIME,
    DerivationAction,
    MPoly,
    RatFunc,
    _eval_point,
    _unpack,
    common_denominator,
    divexact,
    ratfunc_normalize,
)
from .lie import Presentation, StructureConstants, bracket_residuals
from .ops import first_order_brackets

Matrix = list  # list of rows of RatFunc


def _eliminate(mat: Matrix, full: bool) -> tuple[list[list[MPoly]], list[int], MPoly]:
    """Fraction-free elimination of a nonempty matrix: (rows, pivot columns,
    last pivot d).  Row r of the result holds the pivot of the r-th pivot
    column.  The forward pass (``full`` false) clears below each pivot; the
    full pass clears above it too, and leaves every pivot entry equal to d."""
    # each row times the lcm of its denominators
    rows = [common_denominator(row, row[0].vars)[0] for row in mat]
    nr, nc = len(rows), len(rows[0])
    prev = MPoly.const(rows[0][0].vars, 1)
    pivots: list[int] = []
    for c in range(nc):
        r = len(pivots)
        if r == nr:
            break
        piv = next((i for i in range(r, nr) if not rows[i][c].is_zero()), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        top = rows[r]
        for i in range(0 if full else r + 1, nr):
            if i != r:
                f = rows[i][c]
                rows[i] = [divexact(top[c] * a - f * b, prev) for a, b in zip(rows[i], top)]
        prev = top[c]
        pivots.append(c)
    return rows, pivots, prev


def _width(mat: Matrix) -> int:
    # the common length of the rows of a nonempty matrix over one variable
    # tuple; the filter reads packed keys, which the tuple's length decodes
    width = len(mat[0])
    if not width or any(len(row) != width for row in mat):
        raise ArityMismatch("matrix rows must be nonempty and of one length")
    if any(x.vars != mat[0][0].vars for row in mat for x in row):
        raise UnknownVariable("matrix entries over different variable tuples")
    return width


def _image_rank(mat: Matrix) -> int | None:
    """The rank of mat's image in GF(p), p = _GCD_PRIME, at the first of a
    few fixed points where no denominator vanishes mod p; None if none does.
    A minor nonzero there is nonzero over Q(x), so this bounds the rank
    over Q(x) from below."""
    p, nv = _GCD_PRIME, len(mat[0][0].vars)
    for attempt in range(4):
        point = _eval_point(nv, attempt)

        def at(f):
            return sum(c * prod(map(pow, point, _unpack(k, nv), [p] * nv)) for k, c in f.packed.items())

        try:
            rows = [[at(x.num) * pow(at(x.den), -1, p) % p for x in row] for row in mat]
        except ValueError:  # a denominator is not invertible mod p
            continue
        rank = 0
        for c in range(len(rows[0])):
            piv = next((i for i in range(rank, len(rows)) if rows[i][c]), None)
            if piv is not None:
                rows[rank], rows[piv] = rows[piv], rows[rank]
                inv = pow(rows[rank][c], -1, p)
                for i in range(rank + 1, len(rows)):
                    f = rows[i][c] * inv
                    rows[i] = [(a - f * b) % p for a, b in zip(rows[i], rows[rank])]
                rank += 1
        return rank
    return None


def matrix_rank(mat: Matrix) -> int:
    """The rank over the field.  A full rank of the image at a point
    (``_image_rank``) is certain and returned at once; otherwise the
    fraction-free elimination decides."""
    if not mat:
        return 0
    full = min(len(mat), _width(mat))
    if _image_rank(mat) == full:
        return full
    return len(_eliminate(mat, full=False)[1])


def _with_identity(mat: Matrix) -> Matrix:
    # [mat | I], with one identity column per row of mat
    vars = mat[0][0].vars
    zero, one = RatFunc.zero(vars), RatFunc.const(vars, 1)
    return [
        list(row) + [one if i == j else zero for j in range(len(mat))]
        for i, row in enumerate(mat)
    ]


def matrix_invert(mat: Matrix) -> Matrix | None:
    """Exact inverse over the field, or None if singular: reduce [mat | I],
    which is singular when a column of mat has no pivot."""
    n = len(mat)
    if not mat:
        return []
    if _width(mat) != n:
        raise ArityMismatch(f"cannot invert a {n}x{len(mat[0])} matrix")
    rows, pivots, d = _eliminate(_with_identity(mat), full=True)
    if any(c not in pivots for c in range(n)):
        return None
    return [[ratfunc_normalize(e, d) for e in row[n:]] for row in rows]


def _null_vector(mat: Matrix, ncols: int) -> list[RatFunc] | None:
    """A nonzero x with mat . x = 0, chosen from the first free column."""
    vars = mat[0][0].vars
    rows, pivots, d = _eliminate(mat, full=True)
    free = next((c for c in range(ncols) if c not in pivots), None)
    if free is None:
        return None
    x = [RatFunc.zero(vars) for _ in range(ncols)]
    x[free] = RatFunc.const(vars, 1)
    for r, c in enumerate(pivots):
        x[c] = ratfunc_normalize(-rows[r][free], d)
    return x


class IndependenceCertificate(_Record):
    """Outcome of the independence test, with a checkable witness either way."""

    __slots__ = _fields = ("independent", "columns", "combination")

    def __init__(
        self,
        independent: bool,
        columns: tuple[int, ...] | None = None,  # 0-based variable indices
        combination: tuple[RatFunc, ...] | None = None,  # b with sum b_i D_i = 0
    ):
        self._init(independent=independent, columns=columns, combination=combination)

    @property
    def verdict(self) -> str:
        return "independent" if self.independent else "dependent"


def _evaluation_matrix(p: Presentation) -> Matrix:
    # row i: images of the declared variables under D_{i+1}
    return [list(d.images) for d in p.derivations]


def linear_independence(p: Presentation) -> IndependenceCertificate:
    """Decide linear independence of the derivations over the field.

    A derivation vanishes iff it vanishes on all generators, so independence
    is the rank of the n x t matrix of generator images.  A column is a pivot
    exactly when it is independent of the columns before it, so the pivot
    columns form the lexicographically first invertible n x n minor.
    """
    M = _evaluation_matrix(p)
    n, t = p.n, len(p.vars)
    _, pivots, _ = _eliminate(M, full=False)
    if len(pivots) == n:
        return IndependenceCertificate(True, columns=tuple(pivots))
    transpose = [[M[i][j] for i in range(n)] for j in range(t)]
    b = _null_vector(transpose, n)
    if b is None:
        raise InvariantBroken("rank below n but no null vector was found")
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
    M = _evaluation_matrix(p)
    n, t = p.n, len(p.vars)
    # the reduced form of [M | I] is [A . M | A], with A the inverse of the
    # minor on the selected columns
    rows, _, d = _eliminate(_with_identity(M), full=True)
    reduced = [[ratfunc_normalize(e, d) for e in row] for row in rows]
    A = [row[t:] for row in reduced]
    actions = tuple(
        DerivationAction(f"Dbar{i + 1}", p.vars, tuple(reduced[i][:t])) for i in range(n)
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
    extension of the presentation's field.  A beta of the wrong dimension
    or over other variables is rejected by ``first_order_brackets``.
    """
    n = p.n
    if len(A) != n or any(len(row) != n for row in A):
        raise ArityMismatch(f"basis matrix must be {n}x{n}")
    residuals = first_order_brackets(A, p, beta)
    out = []
    for l in range(1, n + 1):
        for k in range(1, n + 1):
            for j in range(1, n + 1):
                res = residuals[l - 1][k - 1][j - 1]
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
