"""The skew algebra of differential operators and its normal-ordering engine.

An operator word is a sum of composition terms; each term is a sequence of
factors, where a factor is either a field coefficient (acting by
multiplication) or a derivation index.  Factors compose left to right, the
rightmost factor acting first.  Normal ordering brings every term into the
form c * D1^i1 * ... * Dn^in, which exists and is unique by the
Poincare-Birkhoff-Witt theorem.

``normalize`` reads each term right to left and left-multiplies a
normal-ordered accumulator, merging like terms after every factor.  A
coefficient scales every coefficient of the accumulator; D_k sends
c * D^I to c * T(k, I) + D_k(c) * D^I, where T(k, I) is the normal form of
D_k * D^I.  With l the first index such that I_l > 0,

  T(k, I) = D^(I + e_k)                                             (k <= l)
  T(k, I) = D_l * T(k, I - e_l) + sum_m alpha[k,l,m] * T(m, I - e_l)  (k > l)

The entries depend on the presentation alone.  They are filled on demand,
without recursion, into one table per presentation, ``Presentation._pbw``,
which every call over that presentation shares through ``_entry``.
"""

from __future__ import annotations

from collections.abc import Iterable
from operator import add

from .errors import (
    ArityMismatch,
    InvalidMultiIndex,
    UnknownDerivation,
    UnknownVariable,
)
from .field import (
    RatFunc,
    SparseSum,
    _add_to,
    _derive_poly,
    _mul_into,
    basis_sum,
    coprime_basis,
    derive,
    format_sum,
    lincomb,
)
from .lie import Presentation, StructureConstants, validate_antisymmetry

#: A factor of a composition term: a derivation index (1-based) or a coefficient.
Factor = int | RatFunc


def _multi_index(I, n: int) -> tuple:
    """I as a tuple, checked to be a multi-index of arity n: n nonnegative
    ints.  Every key of a normal operator or normal polynomial, and every
    key that reaches a presentation's PBW table, passes this check."""
    I = tuple(I)
    if len(I) != n:
        raise ArityMismatch(f"multi-index {I} has arity != {n}")
    for e in I:
        if type(e) is not int or e < 0:
            raise InvalidMultiIndex(f"multi-index {I} has an entry that is not a nonnegative int")
    return I


def _check_factors(term, vars, n) -> tuple:
    out = []
    for f in term:
        if isinstance(f, int):
            if not 1 <= f <= n:
                raise UnknownDerivation(f"derivation index {f} not in 1..{n}")
        elif isinstance(f, RatFunc):
            if f.vars != vars:
                raise UnknownVariable("coefficient over a different variable tuple")
        else:
            raise TypeError(f"bad factor {f!r}")
        out.append(f)
    return tuple(out)


class OpWord:
    """Unnormalized sum of composition words with interleaved coefficients."""

    __slots__ = ("vars", "n", "terms")

    def __init__(self, vars: Iterable[str], n: int, terms: Iterable):
        self.vars = tuple(vars)
        self.n = n
        self.terms = tuple(_check_factors(t, self.vars, n) for t in terms)

    def __repr__(self) -> str:
        return f"OpWord({self.terms!r})"


class NormalOperator(SparseSum):
    """Finite sum of normal-ordered monomials: multi-index -> coefficient."""

    __slots__ = ()

    def __init__(self, vars: Iterable[str], n: int, terms: dict):
        self.vars = tuple(vars)
        self.n = n
        clean = {}
        for I, c in terms.items():
            I = _multi_index(I, n)
            if not c.is_zero():
                clean[I] = c
        self.terms = clean

    @classmethod
    def identity(cls, vars, n: int) -> "NormalOperator":
        vars = tuple(vars)
        return cls(vars, n, {(0,) * n: RatFunc.const(vars, 1)})

    @classmethod
    def monomial(cls, vars, n: int, I, c: RatFunc) -> "NormalOperator":
        return cls(vars, n, {tuple(I): c})

    @classmethod
    def first_order(cls, coeffs, n: int) -> "NormalOperator":
        if len(coeffs) != n:
            raise ArityMismatch("coefficient vector arity differs from n")
        vars = coeffs[0].vars
        terms = {}
        for i, c in enumerate(coeffs):
            e = tuple(1 if j == i else 0 for j in range(n))
            terms[e] = c
        return cls(vars, n, terms)

    def __str__(self) -> str:
        pairs = []
        for I in sorted(self.terms, key=lambda e: (sum(e), e), reverse=True):
            mon = "*".join(
                f"D{k + 1}" if p == 1 else f"D{k + 1}^{p}"
                for k, p in enumerate(I)
                if p
            )
            pairs.append((self.terms[I], mon))
        return format_sum(pairs)


def _symbols(I) -> tuple[int, ...]:
    out: tuple[int, ...] = ()
    for k, p in enumerate(I):
        out += (k + 1,) * p
    return out


def _words(a: OpWord | NormalOperator):
    # the terms of either operator form as composition words: an OpWord's as
    # they are, and each c * D^I of a NormalOperator as (c,) + D^I
    if isinstance(a, OpWord):
        return a.terms
    return [(c,) + _symbols(I) for I, c in a.terms.items()]


def _check_word(w: OpWord | NormalOperator, p: Presentation, strategy: str = "leftmost") -> None:
    if strategy not in ("leftmost", "rightmost"):
        raise ValueError(f"unknown strategy '{strategy}'")
    if w.vars != p.vars:
        raise UnknownVariable("word and presentation declare different variables")
    if w.n != p.n:
        raise UnknownDerivation("word arity differs from the presentation")


def _shift(I: tuple, k: int, d: int) -> tuple:
    return I[: k - 1] + (I[k - 1] + d,) + I[k:]


# Sharing p._pbw is thread-safe without a lock: an entry is published only
# once it is complete, and it is never mutated, replaced or evicted
# afterwards.  Two threads that race on one key compute equal values, and
# the first to publish wins.
def _entry(p: Presentation, k: int, I: tuple) -> dict:
    """T(k, I), the normal form of D_k * D^I over p as a dict multi-index ->
    coefficient, read from p's table.  A missing entry is filled, with the
    entries it depends on first, by an explicit stack, so that long words
    need no deep recursion.  A missing key is checked first (k in 1..n, I a
    multi-index of arity n), so a bad key is never stored and a stored one
    costs no check."""
    entries = p._pbw
    want = (k, I)
    hit = entries.get(want)
    if hit is not None:
        return hit
    p.derivation(k)
    _multi_index(I, p.n)
    one = RatFunc.const(p.vars, 1)
    todo = [want]
    while todo:
        key = todo[-1]
        if key in entries:
            todo.pop()
            continue
        k, I = key
        # l is the first derivation in D^I; D_k * 1 is trivial too
        l = next((j + 1 for j, e in enumerate(I) if e), k)
        if k <= l:
            entries.setdefault(key, {_shift(I, k, 1): one})
            todo.pop()
            continue
        rest = _shift(I, l, -1)
        brackets = p.alpha.bracket(k, l)
        missing = [d for d in [(k, rest)] + [(m, rest) for m, _ in brackets]
                   if d not in entries]
        if not missing:
            missing = [(l, J) for J in entries[(k, rest)] if (l, J) not in entries]
        if missing:
            todo.extend(missing)
            continue
        todo.pop()
        out = _left_mul(p, l, entries[(k, rest)])
        for m, c in brackets:
            for J, t in entries[(m, rest)].items():
                _add_to(out, J, c * t)
        entries.setdefault(key, out)
    return entries[want]


def _left_mul(p: Presentation, k: int, a: dict) -> dict:
    """Normal form of D_k composed with the normal-ordered sum a."""
    out: dict = {}
    action = p.derivation(k)
    for I, c in a.items():
        for J, t in _entry(p, k, I).items():
            _add_to(out, J, c * t)
        if not c.is_const():
            _add_to(out, I, derive(action, c))
    return out


def _compose(a: OpWord | NormalOperator, b: NormalOperator, p: Presentation) -> NormalOperator:
    """Normal form of the composition a after b, for operators over p
    (the callers check that).  a is read through ``_words``, so it may also
    be an unnormalized ``OpWord``: each word's factors are read right to
    left, each one left-multiplying the running sum that starts at b, and a
    zero coefficient drops the word."""
    acc: dict = {}
    for term in _words(a):
        part = b.terms
        for f in reversed(term):
            if isinstance(f, int):
                part = _left_mul(p, f, part)
            elif f.is_zero():
                break
            elif not f.is_one():
                part = {I: f * c for I, c in part.items()}
        else:
            for I, c in part.items():
                _add_to(acc, I, c)
    # the keys come from b and from table entries, checked on the way in
    return NormalOperator._trusted(a.vars, a.n, acc)


def normalize(w: OpWord | NormalOperator, p: Presentation, strategy: str = "leftmost", stats: dict | None = None) -> NormalOperator:
    """Normal-ordered form of a word, or of a normal operator read as the
    words c * D^I of its terms, by left multiplication through the PBW table
    of the presentation.

    ``strategy`` must be "leftmost" or "rightmost" but selects nothing: the
    table engine has one order.  ``stats``, when given, receives under the
    key "steps" the growth of the presentation's table during the call: 0
    when every entry it needed was already there.  Under concurrent calls
    over one presentation it also counts the entries the other calls added
    meanwhile.  Both stay in the signature because the benchmark's tracer
    (``perfbench/spans.py``) passes them positionally.
    """
    _check_word(w, p, strategy)
    size = len(p._pbw)
    out = _compose(w, NormalOperator.identity(p.vars, p.n), p)
    if stats is not None:
        stats["steps"] = len(p._pbw) - size
    return out


def op_mul(a: NormalOperator, b: NormalOperator, p: Presentation) -> NormalOperator:
    """Normal form of the composition a after b: each term of a is folded
    onto the terms of b through the PBW table of the presentation, which
    every call over p shares.  The cost grows with the
    derivation symbols in a's terms, each of which left-multiplies all of b,
    so the operand with fewer symbols should stand on the left where the
    order is free."""
    a._require_compat(b)
    _check_word(a, p)
    return _compose(a, b, p)


def op_commutator(a: NormalOperator, b: NormalOperator, p: Presentation) -> NormalOperator:
    return op_mul(a, b, p) - op_mul(b, a, p)


def _derivatives(p: Presentation, b: RatFunc):
    """The function I -> D^I b = D1^i1 * ... * Dn^in (b).  Each D^I b is
    derived once, as D_l(D^(I - e_l) b) for the first l with I_l > 0, and
    kept for the lifetime of the function."""
    cache: dict = {(0,) * p.n: b}

    def dvalue(I) -> RatFunc:
        chain = []
        while I not in cache:
            l = next(i for i, e in enumerate(I) if e)
            chain.append((I, l))
            I = I[:l] + (I[l] - 1,) + I[l + 1 :]
        v = cache[I]
        for J, l in reversed(chain):
            v = cache[J] = derive(p.derivations[l], v)
        return v

    return dvalue


def apply_operator(a: NormalOperator | OpWord, f: RatFunc, p: Presentation) -> RatFunc:
    """Apply an operator to a field element.

    A normal operator sum_I c_I * D^I takes each D^I f from ``_derivatives``,
    so that every prefix is derived once, and sums the c_I * D^I f with one
    ``lincomb``; a one-term operator takes its single product directly.  An
    ``OpWord`` is the reference: each term acts factor by factor from the
    right, and the terms are added."""
    _check_word(a, p)
    if f.vars != p.vars:
        raise UnknownVariable("argument over a different variable tuple")
    if isinstance(a, NormalOperator):
        dvalue = _derivatives(p, f)
        if len(a.terms) == 1:
            ((I, c),) = a.terms.items()
            return c * dvalue(I)
        return lincomb([(c, dvalue(I)) for I, c in a.terms.items()], p.vars)
    out = RatFunc.zero(p.vars)
    for term in a.terms:
        g = f
        for fac in reversed(term):
            if isinstance(fac, int):
                g = derive(p.derivation(fac), g)
            else:
                g = fac * g
        out = out + g
    return out


def first_order_brackets(rows, p: Presentation, beta: StructureConstants | None = None):
    """Coefficient vectors of the brackets of first-order operators.

    For U_l = sum_i rows[l][i] D_i the bracket [U_l, U_k] is again first
    order; ``out[l][k][j]`` is its j-th coefficient

        U_l(rows[k][j]) - U_k(rows[l][j])
          + sum_{r,s} rows[l][r] rows[k][s] alpha[r,s,j].

    With structure constants ``beta`` (over as many rows as derivations),
    ``out[l][k][j]`` also subtracts sum_m beta[l,k,m] rows[m][j]: the
    residual of the bracket law [U_l, U_k] = sum_m beta[l,k,m] U_m.

    Every D_i(rows[k][j]) is derived once, in quotient-rule form over a
    coprime basis of the denominators (``coprime_basis``), and every
    computed entry is one sum of products whose lcm needs no gcd
    (``basis_sum``), normalized once.  When alpha, and beta if
    given, are antisymmetric (``validate_antisymmetry`` reports nothing), so
    is the table: each unordered pair l < k is computed once, ``out[k][l]``
    is its negation and the diagonal is zero.  Otherwise every ordered pair
    (l, k) is computed from the formula.
    """
    n = len(rows)
    if beta is not None:
        if beta.n != n:
            raise ArityMismatch("target structure constants have the wrong dimension")
        if beta.vars != p.vars:
            raise UnknownVariable("target structure constants over a different variable tuple")
    if validate_antisymmetry(p.alpha) or (beta is not None and validate_antisymmetry(beta)):
        flat = _brackets(rows, [(l, k) for l in range(n) for k in range(n)], p, beta)
        return [flat[l * n : (l + 1) * n] for l in range(n)]
    pairs = [(l, k) for l in range(n) for k in range(l + 1, n)]
    zero = RatFunc.zero(p.vars)
    out = [[[zero] * p.n for _ in range(n)] for _ in range(n)]
    for (l, k), b in zip(pairs, _brackets(rows, pairs, p, beta)):
        out[l][k] = b
        out[k][l] = [-c for c in b]
    return out


def first_order_commutator(u, v, p: Presentation):
    """Coefficient vector of the bracket [U, V] of U = sum_i u[i] D_i and
    V = sum_i v[i] D_i; see ``first_order_brackets``."""
    return _brackets([u, v], [(0, 1)], p)[0]


def _key_mul(a: tuple, b: tuple) -> tuple:
    # the key (c, e) of the product of two denominators with keys a and b
    return a[0] * b[0], tuple(map(add, a[1], b[1]))


def _derive_unreduced(D, x: RatFunc, exps: dict) -> tuple[dict, tuple]:
    """D(x) for x = N/R as (packed numerator, denominator key) over the keys
    exps of a coprime basis, by the quotient rule and without a gcd:
    (R*D'N - N*D'R) / (Q*R^2), or D'N / (Q*R) when D'R = 0, with Q the
    common denominator of D's images and D' = Q*D (``derive``)."""
    q, r = exps[D.den], x.den
    dn = _derive_poly(D, x.num)
    if r._is_one():
        return dn.packed, q
    dr = _derive_poly(D, r)
    if dr.is_zero():
        return dn.packed, _key_mul(q, exps[r])
    return (r * dn - x.num * dr).packed, _key_mul(q, _key_mul(exps[r], exps[r]))


def _brackets(rows, pairs, p: Presentation, beta: StructureConstants | None = None) -> list:
    # the brackets [U_l, U_k] for the (l, k) in pairs, in that order, less
    # sum_m beta[l,k,m] U_m when beta is given.  Every denominator met is a
    # product of those of the row entries, of the derivations' images and of
    # alpha and beta, so these are refined once into a coprime basis, and
    # each fraction is carried unreduced as a packed numerator over a key
    # (c, e), the denominator c * prod B^e; each coefficient is one
    # basis_sum of products of such fractions.
    n, vars = p.n, p.vars
    if any(len(row) != n for row in rows):
        raise ArityMismatch("coefficient vectors must have one slot per derivation")
    if any(x.vars != vars for row in rows for x in row):
        raise UnknownVariable("coefficient over a different variable tuple")
    consts = [*p.alpha.entries.values(), *(beta.entries.values() if beta is not None else ())]
    B, exps = coprime_basis(
        [x.den for row in rows for x in row] + [D.den for D in p.derivations] + [c.den for c in consts],
        vars,
    )
    # f[k][j] = rows[k][j], g[k][j] = -rows[k][j] and d[k][j][i] =
    # D_(i+1)(rows[k][j]), each as (packed numerator, key)
    f = [[(x.num.packed, exps[x.den]) for x in row] for row in rows]
    g = [[((-x.num).packed, exps[x.den]) for x in row] for row in rows]
    d = [[[_derive_unreduced(D, x, exps) for D in p.derivations] for x in row] for row in rows]
    nv, powers, out = len(vars), {}, []
    for l, k in pairs:
        groups = [{} for _ in range(n)]

        def put(j, a, b):
            # add the product a*b into coefficient j's group of its key
            if a[0] and b[0]:
                _mul_into(groups[j].setdefault(_key_mul(a[1], b[1]), {}), a[0], b[0], nv)

        for j in range(n):
            for i in range(n):
                put(j, f[l][i], d[k][j][i])
                put(j, g[k][i], d[l][j][i])
        for r in range(n):
            for s in range(n):
                for m, c in p.alpha.bracket(r + 1, s + 1):
                    x = rows[l][r]
                    put(m - 1, ((x.num * c.num).packed, _key_mul(f[l][r][1], exps[c.den])), f[k][s])
        if beta is not None:
            for m, c in beta.bracket(l + 1, k + 1):
                for j in range(n):
                    put(j, ((-c.num).packed, exps[c.den]), f[m - 1][j])
        out.append([basis_sum(group, B, powers, vars) for group in groups])
    return out
