"""Reference paths for the tests: the rewrite engine, the reference for the
table engine ``liediff.ops.normalize``, and ``brackets_reference``, the
reference for the first-order brackets ``liediff.ops._brackets``.

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
    InvariantBroken,
    NormalOperator,
    OpWord,
    Presentation,
    RatFunc,
    StructureConstants,
    derive,
    lincomb,
)
from liediff.field import _add_to
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
