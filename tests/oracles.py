"""Reference paths for the tests: the rewrite engine, the reference for the
table engine ``liediff.ops.normalize``; ``brackets_reference``, the
reference for the first-order brackets ``liediff.ops._brackets``;
``ratfunc_add_reference`` and ``ratfunc_mul_reference``, the cofactor-gcd
formulas of ``RatFunc`` ``+`` and ``*``, the reference for their integer
lane; and ``independence_reference`` and ``inverse_reference``, plain
Gauss-Jordan over the field, the references for the one fraction-free
reduction of ``liediff.frobenius``.

``rewrite_normalize`` rewrites redexes with two rules:

  R1:  D_k * c      ->  c * D_k  +  D_k(c)
  R2:  D_k * D_l    ->  D_l * D_k + sum_m alpha[k,l,m] * D_m      (k > l)

Both rules preserve the operator's action on the field, so applying the
normal form to any element agrees with applying the original word.  Each
rewrite strictly decreases the measure (number of derivation factors, number
of out-of-order derivation pairs, number of coefficients standing right of a
derivation), which forces termination; the oracle checks the decrease at
every step and raises ``InvariantBroken`` if it fails, also under
``python -O``.  Its cost is exponential in the length of a word.
"""

from __future__ import annotations

from liediff import (
    ArityMismatch,
    IndependenceCertificate,
    InvariantBroken,
    NormalOperator,
    OpWord,
    Presentation,
    RatFunc,
    StructureConstants,
    derive,
    lincomb,
)
from liediff.field import _add_to, _canonical_scale, mpoly_cofactors
from liediff.ops import _check_word, _words


def measure(term) -> tuple[int, int, int]:
    syms = [f for f in term if isinstance(f, int)]
    inversions = sum(
        1
        for i in range(len(syms))
        for j in range(i + 1, len(syms))
        if syms[i] > syms[j]
    )
    pending = 0
    seen = 0
    for f in term:
        if isinstance(f, int):
            seen += 1
        else:
            pending += seen
    return (len(syms), inversions, pending)


def redexes(term):
    for i in range(len(term) - 1):
        a, b = term[i], term[i + 1]
        if isinstance(a, int):
            if not isinstance(b, int):
                yield i
            elif a > b:
                yield i


def rewrite_at(term, i, p: Presentation):
    a, b = term[i], term[i + 1]
    head, tail = term[:i], term[i + 2 :]
    out = [head + (b, a) + tail]
    if isinstance(b, int):
        # R2: swap out-of-order derivations, emit the bracket correction
        for m, c in p.alpha.bracket(a, b):
            out.append(head + (c, m) + tail)
    else:
        # R1: move the coefficient left, emit its derivative
        db = derive(p.derivation(a), b)
        if not db.is_zero():
            out.append(head + (db,) + tail)
    return out


def collect(term, vars, n) -> tuple[tuple[int, ...], RatFunc]:
    I = [0] * n
    c = RatFunc.const(vars, 1)
    prev = 0
    for f in term:
        if isinstance(f, int):
            if f < prev:
                raise InvariantBroken("term is not normal-ordered")
            prev = f
            I[f - 1] += 1
        else:
            c = c * f
    return tuple(I), c


def rewrite_normalize(w: OpWord | NormalOperator, p: Presentation, strategy: str = "leftmost", stats: dict | None = None) -> NormalOperator:
    """Rewrite a word, or the words c * D^I of a normal operator, into its
    normal-ordered form.

    ``strategy`` selects which redex fires first ("leftmost" or "rightmost");
    the result must not depend on it.  ``stats``, when given, receives the
    number of rewrite steps under the key "steps".
    """
    _check_word(w, p, strategy)
    acc: dict[tuple[int, ...], RatFunc] = {}
    stack = list(_words(w))
    steps = 0
    while stack:
        term = stack.pop()
        positions = list(redexes(term))
        if not positions:
            I, c = collect(term, w.vars, w.n)
            if not c.is_zero():
                _add_to(acc, I, c)
            continue
        i = positions[0] if strategy == "leftmost" else positions[-1]
        steps += 1
        before = measure(term)
        for child in rewrite_at(term, i, p):
            if measure(child) >= before:
                raise InvariantBroken("rewrite did not decrease the measure")
            stack.append(child)
    if stats is not None:
        stats["steps"] = steps
    return NormalOperator(w.vars, w.n, acc)


def brackets_reference(rows, pairs, p: Presentation, beta: StructureConstants | None = None) -> list:
    """The brackets [U_l, U_k] of U_l = sum_i rows[l][i] D_i for the (l, k)
    in pairs, less sum_m beta[l,k,m] U_m when beta is given, with the
    contract of ``liediff.ops._brackets``: each coefficient is one
    ``lincomb`` of the U_l(rows[k][j]) and U_k(rows[l][j]) products, the
    alpha terms and the beta terms, each D_i(rows[k][j]) a reduced
    ``derive``, and the lcm of each sum found by ``lincomb``'s own route."""
    n = p.n
    if any(len(row) != n for row in rows):
        raise ArityMismatch("coefficient vectors must have one slot per derivation")
    # d[k][j] = (D_1(rows[k][j]), ..., D_n(rows[k][j]))
    d = [[[derive(D, x) for D in p.derivations] for x in row] for row in rows]
    out = []
    for l, k in pairs:
        u, v = rows[l], rows[k]
        extra = [[] for _ in range(n)]
        for r in range(n):
            for s in range(n):
                for m, c in p.alpha.bracket(r + 1, s + 1):
                    extra[m - 1].append((u[r] * c, v[s]))
        if beta is not None:
            for m, c in beta.bracket(l + 1, k + 1):
                for j in range(n):
                    extra[j].append((-c, rows[m - 1][j]))
        out.append([
            lincomb(
                [*zip(u, d[k][j]), *((-a, e) for a, e in zip(v, d[l][j])), *extra[j]],
                p.vars,
            )
            for j in range(n)
        ])
    return out


def ratfunc_add_reference(a: RatFunc, b: RatFunc) -> RatFunc:
    """a + b for canonical a and b by cofactor gcds alone: with d the gcd of
    the denominators, a/(A*d) + b/(B*d) = t/(A*B*d) for t = a*B + b*A, and
    only a factor of d can cancel against t."""
    d, a_red, b_red = mpoly_cofactors(a.den, b.den)
    t = a.num * b_red + b.num * a_red
    if t.is_zero():
        return RatFunc.zero(a.vars)
    if not d.is_const():
        g, t_red, d_red = mpoly_cofactors(t, d)
        if not g.is_const():
            return _canonical_scale(t_red, a_red * b_red * d_red)
    return _canonical_scale(t, a_red * b.den)


def ratfunc_mul_reference(a: RatFunc, b: RatFunc) -> RatFunc:
    """a * b for canonical a and b by cofactor gcds alone: each numerator
    cancels against the other operand's denominator."""
    _, n1, d2 = mpoly_cofactors(a.num, b.den)
    _, n2, d1 = mpoly_cofactors(b.num, a.den)
    return _canonical_scale(n1 * n2, d1 * d2)


def gauss_jordan(mat) -> tuple[list[list[RatFunc]], list[int]]:
    """(rows, pivot columns) of the reduced row echelon form of a nonempty
    matrix by plain field arithmetic: each pivot row is divided by its
    pivot, and every other row is cleared in the pivot column."""
    rows = [list(row) for row in mat]
    pivots: list[int] = []
    for c in range(len(rows[0])):
        r = len(pivots)
        piv = next((i for i in range(r, len(rows)) if not rows[i][c].is_zero()), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        inv = rows[r][c].reciprocal()
        rows[r] = [a * inv for a in rows[r]]
        for i, row in enumerate(rows):
            if i != r and not row[c].is_zero():
                f = row[c]
                rows[i] = [a - f * b for a, b in zip(row, rows[r])]
        pivots.append(c)
    return rows, pivots


def independence_reference(p: Presentation) -> IndependenceCertificate:
    """The certificate of ``liediff.frobenius.linear_independence`` by the
    transpose route: the pivot columns of the n x t matrix M of generator
    images, or, for a dependent M, the null vector b of M^T chosen from
    its first free column (b is 1 there and 0 at every later free
    column), so that sum b_i D_i = 0."""
    M = [d.images for d in p.derivations]
    _, pivots = gauss_jordan(M)
    if len(pivots) == p.n:
        return IndependenceCertificate(True, columns=tuple(pivots))
    rows, pivots = gauss_jordan([list(col) for col in zip(*M)])
    free = next(c for c in range(p.n) if c not in pivots)
    b = [RatFunc.zero(p.vars)] * p.n
    b[free] = RatFunc.const(p.vars, 1)
    for r, c in enumerate(pivots):
        b[c] = -rows[r][free]
    return IndependenceCertificate(False, combination=tuple(b))


def inverse_reference(mat) -> list | None:
    """The inverse of a nonempty square matrix over one variable tuple, the
    right block of the reduced [mat | I], or None if a pivot falls in I."""
    n, vars = len(mat), mat[0][0].vars
    zero, one = RatFunc.zero(vars), RatFunc.const(vars, 1)
    rows, pivots = gauss_jordan([
        list(row) + [one if i == j else zero for j in range(n)] for i, row in enumerate(mat)
    ])
    return None if pivots[-1] >= n else [row[n:] for row in rows]
