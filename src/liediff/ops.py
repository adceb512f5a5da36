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

The entries are filled on demand, without recursion, into a table that
lives for one call (``PBWTable``), so nothing is shared between calls.

``rewrite_normalize`` is the reference engine the tests compare against.
It rewrites redexes with two rules:

  R1:  D_k * c      ->  c * D_k  +  D_k(c)
  R2:  D_k * D_l    ->  D_l * D_k + sum_m alpha[k,l,m] * D_m      (k > l)

Both rules preserve the operator's action on the field, so applying the
normal form to any element agrees with applying the original word.  Each
rewrite strictly decreases the measure (number of derivation factors, number
of out-of-order derivation pairs, number of coefficients standing right of a
derivation), which forces termination; the oracle asserts the decrease at
every step.  Its cost is exponential in the length of a word.
"""

from __future__ import annotations

from typing import Iterable, Union

from .errors import ArityMismatch, NegativeExponent, UnknownDerivation, UnknownVariable
from .field import RatFunc, _add_to, derive, format_sum
from .lie import Presentation

#: A factor of a composition term: a derivation index (1-based) or a coefficient.
Factor = Union[int, RatFunc]


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

    @classmethod
    def zero(cls, vars, n: int) -> "OpWord":
        return cls(vars, n, [])

    @classmethod
    def identity(cls, vars, n: int) -> "OpWord":
        return cls(vars, n, [()])

    @classmethod
    def coefficient(cls, c: RatFunc, n: int) -> "OpWord":
        return cls(c.vars, n, [(c,)])

    @classmethod
    def derivation(cls, vars, n: int, k: int) -> "OpWord":
        return cls(vars, n, [(k,)])

    def _require_compat(self, other: "OpWord") -> None:
        if self.vars != other.vars or self.n != other.n:
            raise ArityMismatch("operator words over different presentations")

    def __add__(self, other: "OpWord") -> "OpWord":
        self._require_compat(other)
        return OpWord(self.vars, self.n, self.terms + other.terms)

    def __neg__(self) -> "OpWord":
        minus_one = RatFunc.const(self.vars, -1)
        return OpWord(self.vars, self.n, [(minus_one,) + t for t in self.terms])

    def __sub__(self, other: "OpWord") -> "OpWord":
        return self + (-other)

    def __mul__(self, other: "OpWord") -> "OpWord":
        self._require_compat(other)
        return OpWord(
            self.vars, self.n, [a + b for a in self.terms for b in other.terms]
        )

    def __pow__(self, k: int) -> "OpWord":
        if k < 0:
            raise NegativeExponent(f"operator word raised to the power {k}")
        out = OpWord.identity(self.vars, self.n)
        for _ in range(k):
            out = out * self
        return out

    def has_symbols(self) -> bool:
        return any(isinstance(f, int) for t in self.terms for f in t)

    def __repr__(self) -> str:
        return f"OpWord({self.terms!r})"


class NormalOperator:
    """Finite sum of normal-ordered monomials: multi-index -> coefficient."""

    __slots__ = ("vars", "n", "terms")

    def __init__(self, vars: Iterable[str], n: int, terms: dict):
        self.vars = tuple(vars)
        self.n = n
        clean = {}
        for I, c in terms.items():
            I = tuple(I)
            if len(I) != n:
                raise ArityMismatch(f"multi-index {I} has arity != {n}")
            if not c.is_zero():
                clean[I] = c
        self.terms = clean

    @classmethod
    def zero(cls, vars, n: int) -> "NormalOperator":
        return cls(vars, n, {})

    @classmethod
    def identity(cls, vars, n: int) -> "NormalOperator":
        vars = tuple(vars)
        return cls(vars, n, {(0,) * n: RatFunc.const(vars, 1)})

    @classmethod
    def monomial(cls, vars, n: int, I, c: RatFunc) -> "NormalOperator":
        return cls(vars, n, {tuple(I): c})

    @classmethod
    def first_order(cls, coeffs, n: int) -> "NormalOperator":
        vars = coeffs[0].vars
        terms = {}
        for i, c in enumerate(coeffs):
            e = tuple(1 if j == i else 0 for j in range(n))
            terms[e] = c
        return cls(vars, n, terms)

    def _require_compat(self, other: "NormalOperator") -> None:
        if self.vars != other.vars or self.n != other.n:
            raise ArityMismatch("operators over different presentations")

    def __add__(self, other: "NormalOperator") -> "NormalOperator":
        self._require_compat(other)
        t = dict(self.terms)
        for I, c in other.terms.items():
            _add_to(t, I, c)
        return NormalOperator(self.vars, self.n, t)

    def __neg__(self) -> "NormalOperator":
        return NormalOperator(self.vars, self.n, {I: -c for I, c in self.terms.items()})

    def __sub__(self, other: "NormalOperator") -> "NormalOperator":
        return self + (-other)

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, NormalOperator)
            and self.vars == other.vars
            and self.n == other.n
            and self.terms == other.terms
        )

    def __hash__(self) -> int:
        return hash((self.vars, self.n, frozenset(self.terms.items())))

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

    def __repr__(self) -> str:
        return f"NormalOperator({self})"


def _symbols(I) -> tuple[int, ...]:
    out: tuple[int, ...] = ()
    for k, p in enumerate(I):
        out += (k + 1,) * p
    return out


def _measure(term) -> tuple[int, int, int]:
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


def _redexes(term):
    for i in range(len(term) - 1):
        a, b = term[i], term[i + 1]
        if isinstance(a, int):
            if not isinstance(b, int):
                yield i
            elif a > b:
                yield i


def _rewrite_at(term, i, p: Presentation):
    a, b = term[i], term[i + 1]
    head, tail = term[:i], term[i + 2 :]
    out = [head + (b, a) + tail]
    if isinstance(b, int):
        # R2: swap out-of-order derivations, emit the bracket correction
        for m in range(1, p.n + 1):
            c = p.alpha.get(a, b, m)
            if not c.is_zero():
                out.append(head + (c, m) + tail)
    else:
        # R1: move the coefficient left, emit its derivative
        db = derive(p.derivation(a), b)
        if not db.is_zero():
            out.append(head + (db,) + tail)
    return out


def _collect(term, vars, n) -> tuple[tuple[int, ...], RatFunc]:
    I = [0] * n
    c = RatFunc.const(vars, 1)
    prev = 0
    for f in term:
        if isinstance(f, int):
            assert f >= prev, "term is not normal-ordered"
            prev = f
            I[f - 1] += 1
        else:
            c = c * f
    return tuple(I), c


def _check_word(w: OpWord, p: Presentation, strategy: str) -> None:
    if strategy not in ("leftmost", "rightmost"):
        raise ValueError(f"unknown strategy '{strategy}'")
    if w.vars != p.vars:
        raise UnknownVariable("word and presentation declare different variables")
    if w.n != p.n:
        raise UnknownDerivation("word arity differs from the presentation")


def _times(a: RatFunc, b: RatFunc) -> RatFunc:
    # most table coefficients are 1: skip those products
    if a.is_one():
        return b
    if b.is_one():
        return a
    return a * b


def _shift(I: tuple, k: int, d: int) -> tuple:
    return I[: k - 1] + (I[k - 1] + d,) + I[k:]


class PBWTable:
    """Normal forms T(k, I) of D_k * D^I over one presentation, as dicts
    multi-index -> coefficient, filled on demand.  A table belongs to one
    call; ``len(table.entries)`` is the number of entries computed."""

    __slots__ = ("p", "one", "entries")

    def __init__(self, p: Presentation):
        self.p = p
        self.one = RatFunc.const(p.vars, 1)
        self.entries: dict = {}

    def entry(self, k: int, I: tuple) -> dict:
        """T(k, I), filling the entries it depends on first with an explicit
        stack, so that long words need no deep recursion."""
        entries = self.entries
        want = (k, I)
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
                entries[key] = {_shift(I, k, 1): self.one}
                todo.pop()
                continue
            rest = _shift(I, l, -1)
            brackets = [(m, self.p.alpha.get(k, l, m)) for m in range(1, self.p.n + 1)]
            brackets = [(m, c) for m, c in brackets if not c.is_zero()]
            missing = [d for d in [(k, rest)] + [(m, rest) for m, _ in brackets]
                       if d not in entries]
            if not missing:
                missing = [(l, J) for J in entries[(k, rest)] if (l, J) not in entries]
            if missing:
                todo.extend(missing)
                continue
            todo.pop()
            out = self.left_mul(l, entries[(k, rest)])
            for m, c in brackets:
                for J, t in entries[(m, rest)].items():
                    _add_to(out, J, _times(c, t))
            entries[key] = out
        return entries[want]

    def left_mul(self, k: int, a: dict) -> dict:
        """Normal form of D_k composed with the normal-ordered sum a."""
        out: dict = {}
        action = self.p.derivation(k)
        for I, c in a.items():
            for J, t in self.entry(k, I).items():
                _add_to(out, J, _times(c, t))
            if not c.is_const():
                _add_to(out, I, derive(action, c))
        return out


def normalize(w: OpWord, p: Presentation, strategy: str = "leftmost", stats: dict | None = None) -> NormalOperator:
    """Normal-ordered form of a word, by left multiplication through a
    per-call PBW table.

    ``strategy`` is validated for compatibility with ``rewrite_normalize`` but
    selects nothing here.  ``stats``, when given, receives the number of table
    entries computed under the key "steps".
    """
    _check_word(w, p, strategy)
    table = PBWTable(p)
    zero = (0,) * p.n
    acc: dict[tuple[int, ...], RatFunc] = {}
    for term in w.terms:
        part = {zero: table.one}
        for f in reversed(term):
            if isinstance(f, int):
                part = table.left_mul(f, part)
            elif f.is_zero():
                part = {}
                break
            elif not f.is_one():
                part = {I: _times(f, c) for I, c in part.items()}
        for I, c in part.items():
            _add_to(acc, I, c)
    if stats is not None:
        stats["steps"] = len(table.entries)
    return NormalOperator(w.vars, w.n, acc)


def rewrite_normalize(w: OpWord, p: Presentation, strategy: str = "leftmost", stats: dict | None = None) -> NormalOperator:
    """Reference engine: rewrite a word into its normal-ordered form.

    ``strategy`` selects which redex fires first ("leftmost" or "rightmost");
    the result must not depend on it.  ``stats``, when given, receives the
    number of rewrite steps under the key "steps".
    """
    _check_word(w, p, strategy)
    acc: dict[tuple[int, ...], RatFunc] = {}
    stack = list(w.terms)
    steps = 0
    while stack:
        term = stack.pop()
        positions = list(_redexes(term))
        if not positions:
            I, c = _collect(term, w.vars, w.n)
            if not c.is_zero():
                _add_to(acc, I, c)
            continue
        i = positions[0] if strategy == "leftmost" else positions[-1]
        steps += 1
        before = _measure(term)
        for child in _rewrite_at(term, i, p):
            assert _measure(child) < before, "rewrite did not decrease the measure"
            stack.append(child)
    if stats is not None:
        stats["steps"] = steps
    return NormalOperator(w.vars, w.n, acc)


def op_add(a: NormalOperator, b: NormalOperator) -> NormalOperator:
    return a + b


def op_mul(a: NormalOperator, b: NormalOperator, p: Presentation) -> NormalOperator:
    """Normal form of the composition a after b."""
    a._require_compat(b)
    terms = []
    for I, c in a.terms.items():
        for J, d in b.terms.items():
            terms.append((c,) + _symbols(I) + (d,) + _symbols(J))
    return normalize(OpWord(a.vars, a.n, terms), p)


def op_commutator(a: NormalOperator, b: NormalOperator, p: Presentation) -> NormalOperator:
    return op_mul(a, b, p) - op_mul(b, a, p)


def apply_operator(a: NormalOperator | OpWord, f: RatFunc, p: Presentation) -> RatFunc:
    """Apply an operator to a field element by repeated derivation."""
    if f.vars != p.vars:
        raise UnknownVariable("argument over a different variable tuple")
    if a.n != p.n:
        raise UnknownDerivation("operator arity differs from the presentation")
    terms = (
        a.terms
        if isinstance(a, OpWord)
        else [(c,) + _symbols(I) for I, c in a.terms.items()]
    )
    out = RatFunc.zero(p.vars)
    for term in terms:
        g = f
        for fac in reversed(term):
            if isinstance(fac, int):
                g = derive(p.derivation(fac), g)
            else:
                g = fac * g
        out = out + g
    return out


def first_order_commutator(u, v, p: Presentation):
    """Coefficient vector of the bracket of two first-order operators.

    For U = sum_i u[i] D_i and V = sum_i v[i] D_i the bracket [U, V] is again
    first order, with j-th coefficient
    sum_i (u[i] D_i(v[j]) - v[i] D_i(u[j])) + sum_{r,s} u[r] v[s] alpha[r,s,j].
    """
    if len(u) != p.n or len(v) != p.n:
        raise ArityMismatch("coefficient vectors must have one slot per derivation")
    out = []
    for j in range(p.n):
        w = RatFunc.zero(p.vars)
        for i in range(p.n):
            w = w + u[i] * derive(p.derivations[i], v[j])
            w = w - v[i] * derive(p.derivations[i], u[j])
        for r in range(1, p.n + 1):
            for s in range(1, p.n + 1):
                c = p.alpha.get(r, s, j + 1)
                if not c.is_zero():
                    w = w + u[r - 1] * v[s - 1] * c
        out.append(w)
    return out
