"""Exact arithmetic in Q(x1,...,xt) and derivations extended from generators.

Field elements are canonical fractions of sparse polynomials: numerator and
denominator carry integer coefficients, their contents are coprime, the pair
has no common polynomial factor, and the denominator's leading coefficient
under graded lex is positive.  Equal field elements therefore have identical
representations, so equality is structural.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd as _igcd, lcm as _ilcm
from typing import Iterable, Sequence

from .errors import (
    ArityMismatch,
    DivisionByZero,
    IndexOutOfRange,
    NegativeExponent,
    NotConstant,
    UnknownVariable,
    ZeroDenominator,
)

#: Exact rational numbers; numerator/denominator are arbitrary-precision,
#: always reduced, denominator positive.
Rational = Fraction


def _grlex(e: tuple[int, ...]):
    # graded lexicographic key, variables in declaration order
    return (sum(e), e)


class MPoly:
    """Sparse polynomial over Q in a fixed ordered tuple of variables."""

    __slots__ = ("vars", "terms")

    def __init__(self, vars: Iterable[str], terms: dict):
        self.vars = tuple(vars)
        clean: dict[tuple[int, ...], Fraction] = {}
        for e, c in terms.items():
            if not isinstance(c, Fraction):
                c = Fraction(c)
            if c:
                e = tuple(e)
                if len(e) != len(self.vars):
                    raise ArityMismatch(f"exponent {e} has arity != {len(self.vars)}")
                clean[e] = c
        self.terms = clean

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, vars: Iterable[str]) -> "MPoly":
        return cls(vars, {})

    @classmethod
    def const(cls, vars: Iterable[str], c) -> "MPoly":
        vars = tuple(vars)
        return cls(vars, {(0,) * len(vars): Fraction(c)})

    @classmethod
    def variable(cls, vars: Iterable[str], name: str) -> "MPoly":
        vars = tuple(vars)
        if name not in vars:
            raise UnknownVariable(f"variable '{name}' is not declared")
        e = tuple(1 if v == name else 0 for v in vars)
        return cls(vars, {e: Fraction(1)})

    # -- predicates --------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_const(self) -> bool:
        return all(not any(e) for e in self.terms)

    def const_value(self) -> Fraction:
        if self.is_zero():
            return Fraction(0)
        if len(self.terms) == 1:
            ((e, c),) = self.terms.items()
            if not any(e):
                return c
        raise NotConstant(f"polynomial {self} is not a constant")

    def leading(self) -> tuple[tuple[int, ...], Fraction]:
        e = max(self.terms, key=_grlex)
        return e, self.terms[e]

    # -- ring operations ----------------------------------------------------

    def _require_same_vars(self, other: "MPoly") -> None:
        if self.vars != other.vars:
            raise UnknownVariable("operands are over different variable tuples")

    def __add__(self, other: "MPoly") -> "MPoly":
        self._require_same_vars(other)
        t = dict(self.terms)
        for e, c in other.terms.items():
            t[e] = t.get(e, Fraction(0)) + c
        return MPoly(self.vars, t)

    def __neg__(self) -> "MPoly":
        return MPoly(self.vars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other: "MPoly") -> "MPoly":
        return self + (-other)

    def __mul__(self, other: "MPoly") -> "MPoly":
        self._require_same_vars(other)
        t: dict[tuple[int, ...], Fraction] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                t[e] = t.get(e, Fraction(0)) + c1 * c2
        return MPoly(self.vars, t)

    def _scale(self, c) -> "MPoly":
        c = Fraction(c)
        return MPoly(self.vars, {e: k * c for e, k in self.terms.items()})

    def __pow__(self, k: int) -> "MPoly":
        if k < 0:
            raise NegativeExponent(f"polynomial raised to the power {k}")
        out = MPoly.const(self.vars, 1)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def partial(self, j: int) -> "MPoly":
        """Formal partial derivative with respect to the j-th variable."""
        t: dict[tuple[int, ...], Fraction] = {}
        for e, c in self.terms.items():
            if e[j]:
                e2 = e[:j] + (e[j] - 1,) + e[j + 1 :]
                t[e2] = t.get(e2, Fraction(0)) + c * e[j]
        return MPoly(self.vars, t)

    # -- content and gcd -----------------------------------------------------

    def content(self) -> Fraction:
        """Signed rational content; self / content() has coprime integer
        coefficients and positive leading coefficient."""
        if not self.terms:
            return Fraction(0)
        g = Fraction(0)
        for c in self.terms.values():
            g = _frac_gcd(g, c)
        _, lead = self.leading()
        return -g if lead < 0 else g

    def primitive_part(self) -> "MPoly":
        c = self.content()
        if not c or c == 1:
            return self
        return self._scale(1 / c)

    # -- comparison / display -------------------------------------------------

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, MPoly)
            and self.vars == other.vars
            and self.terms == other.terms
        )

    def __hash__(self) -> int:
        return hash((self.vars, frozenset(self.terms.items())))

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for e in sorted(self.terms, key=_grlex, reverse=True):
            c = self.terms[e]
            mon = "*".join(
                v if p == 1 else f"{v}^{p}" for v, p in zip(self.vars, e) if p
            )
            a = abs(c)
            if mon:
                body = mon if a == 1 else f"{a}*{mon}"
            else:
                body = str(a)
            parts.append((c < 0, body))
        return join_signed(parts)

    def __repr__(self) -> str:
        return f"MPoly({self})"


def join_signed(parts: list[tuple[bool, str]]) -> str:
    """Render a sum from (negative?, unsigned-body) pairs."""
    neg, body = parts[0]
    out = ("-" if neg else "") + body
    for neg, body in parts[1:]:
        out += (" - " if neg else " + ") + body
    return out


def _frac_gcd(a: Fraction, b: Fraction) -> Fraction:
    # gcd(p/q, r/s) = gcd(p, r) / lcm(q, s); nonnegative, gcd(a, 0) = |a|
    if not a:
        return abs(b)
    if not b:
        return abs(a)
    return Fraction(_igcd(a.numerator, b.numerator), _ilcm(a.denominator, b.denominator))


def divexact(f: MPoly, g: MPoly) -> MPoly:
    """Exact polynomial quotient f/g; raises ValueError if g does not divide f."""
    if g.is_zero():
        raise ValueError("division by the zero polynomial")
    if f.is_zero():
        return f
    f._require_same_vars(g)
    if g.is_const():
        return f._scale(1 / g.const_value())
    ge, gc = g.leading()
    q: dict[tuple[int, ...], Fraction] = {}
    rest = dict(f.terms)
    while rest:
        fe = max(rest, key=_grlex)
        qe = tuple(a - b for a, b in zip(fe, ge))
        if any(x < 0 for x in qe):
            raise ValueError("inexact polynomial division")
        qc = rest[fe] / gc
        q[qe] = qc
        for e2, c2 in g.terms.items():
            e = tuple(a + b for a, b in zip(qe, e2))
            nc = rest.get(e, Fraction(0)) - qc * c2
            if nc:
                rest[e] = nc
            else:
                rest.pop(e, None)
    return MPoly(f.vars, q)


# Multivariate gcd by content-and-primitive-part recursion: view polynomials
# as univariate in the highest occurring variable over the ring generated by
# the rest, pull out contents, and run a primitive pseudo-remainder sequence.
# Exactness is the point here; these run at small scale.


def _deg_in(f: MPoly, m: int) -> int:
    return max((e[m] for e in f.terms), default=0)


def _coeff_in(f: MPoly, m: int, d: int) -> MPoly:
    t = {}
    for e, c in f.terms.items():
        if e[m] == d:
            t[e[:m] + (0,) + e[m + 1 :]] = c
    return MPoly(f.vars, t)


def _shift(f: MPoly, m: int, d: int) -> MPoly:
    return MPoly(f.vars, {e[:m] + (e[m] + d,) + e[m + 1 :]: c for e, c in f.terms.items()})


def _prem(f: MPoly, g: MPoly, m: int) -> MPoly:
    # pseudo-remainder of f by g in the variable m; rational content is
    # stripped per step to curb coefficient swell (callers take primitive
    # parts anyway)
    dg = _deg_in(g, m)
    b = _coeff_in(g, m, dg)
    r = f
    while not r.is_zero() and _deg_in(r, m) >= dg:
        dr = _deg_in(r, m)
        lr = _coeff_in(r, m, dr)
        r = (b * r - _shift(lr, m, dr - dg) * g).primitive_part()
    return r


def _cont_in(f: MPoly, m: int) -> MPoly:
    # gcd of the coefficients of the powers of variable m
    g = MPoly.zero(f.vars)
    for d in sorted({e[m] for e in f.terms}):
        g = mpoly_gcd(g, _coeff_in(f, m, d))
    return g


def _m_primitive(f: MPoly, m: int) -> MPoly:
    return divexact(f, _cont_in(f, m)).primitive_part()


_EVAL_POINTS = (2, 3, 5, 7, 11, 13, -2, -3, -5, 17)
_GCD_PRIME = 2147483647


def _univariate_image(f: MPoly, m: int, point) -> dict | None:
    # substitute integers for every variable except m, working mod a prime;
    # None when a coefficient denominator is not invertible
    p = _GCD_PRIME
    out: dict[int, int] = {}
    for e, c in f.terms.items():
        if c.denominator % p == 0:
            return None
        v = c.numerator * pow(c.denominator, -1, p) % p
        for j, q in enumerate(e):
            if j != m and q:
                v = v * pow(point[j] % p, q, p) % p
        d = e[m]
        s = (out.get(d, 0) + v) % p
        if s:
            out[d] = s
        else:
            out.pop(d, None)
    return out


def _uni_gcd_degree(fu: dict, gu: dict) -> int:
    # Euclid over the prime field; plain integer arithmetic, no swell
    p = _GCD_PRIME
    a, b = dict(fu), dict(gu)
    if max(a) < max(b):
        a, b = b, a
    while b:
        db = max(b)
        inv = pow(b[db], -1, p)
        r = dict(a)
        while r and max(r) >= db:
            dr = max(r)
            q = r[dr] * inv % p
            for d, c in b.items():
                e = d + dr - db
                s = (r.get(e, 0) - q * c) % p
                if s:
                    r[e] = s
                else:
                    r.pop(e, None)
        a, b = b, r
    return max(a)


def _image_degree_bound(f: MPoly, g: MPoly, m: int, df: int, dg: int) -> int | None:
    """Upper bound for the main-variable degree of gcd(f, g), from the gcd of
    univariate images at a point preserving both leading coefficients.  None
    when no such point is found quickly."""
    nv = len(f.vars)
    for attempt in range(4):
        point = [_EVAL_POINTS[(j + 3 * attempt) % len(_EVAL_POINTS)] for j in range(nv)]
        fu = _univariate_image(f, m, point)
        gu = _univariate_image(g, m, point)
        if fu and gu and max(fu) == df and max(gu) == dg:
            return _uni_gcd_degree(fu, gu)
    return None


def _pp_gcd(f: MPoly, g: MPoly) -> MPoly:
    # gcd of primitive polynomials (coprime integer coefficients, positive
    # leading coefficient); result in the same normal form
    if f.is_const() or g.is_const():
        return MPoly.const(f.vars, 1)
    m = max(i for e in list(f.terms) + list(g.terms) for i, p in enumerate(e) if p)
    df, dg = _deg_in(f, m), _deg_in(g, m)
    if df == 0:
        return _pp_gcd(f, _cont_in(g, m).primitive_part())
    if dg == 0:
        return _pp_gcd(_cont_in(f, m).primitive_part(), g)
    bound = _image_degree_bound(f, g, m, df, dg)
    if bound == 0:
        # the gcd is free of the main variable, so it divides both contents
        return _pp_gcd(_cont_in(f, m).primitive_part(), _cont_in(g, m).primitive_part())
    cf, cg = _cont_in(f, m), _cont_in(g, m)
    cont = _pp_gcd(cf.primitive_part(), cg.primitive_part())
    F, G = divexact(f, cf), divexact(g, cg)
    if df < dg:
        F, G = G, F
    F0, G0 = F, G
    tried = None
    while not G.is_zero():
        dG = _deg_in(G, m)
        if bound is not None and dG <= bound and dG != tried:
            # a divide-verified candidate ends the remainder sequence early
            tried = dG
            cand = _m_primitive(G, m)
            try:
                divexact(F0, cand)
                divexact(G0, cand)
            except ValueError:
                pass
            else:
                return cont * cand
        r = _prem(F, G, m)
        F, G = G, (r if r.is_zero() else _m_primitive(r, m))
    return cont * _m_primitive(F, m)


def mpoly_gcd(f: MPoly, g: MPoly) -> MPoly:
    """Greatest common divisor in Q[vars], canonicalized so that the result
    carries the gcd of the rational contents: mpoly_gcd(2x, 4) = 2."""
    if f.is_zero() and g.is_zero():
        return f
    if f.is_zero():
        return g.primitive_part()._scale(abs(g.content()))
    if g.is_zero():
        return f.primitive_part()._scale(abs(f.content()))
    c = _frac_gcd(f.content(), g.content())
    return _pp_gcd(f.primitive_part(), g.primitive_part())._scale(c)


class RatFunc:
    """Canonical fraction of two MPoly values; immutable."""

    __slots__ = ("num", "den")

    def __init__(self, num: MPoly, den: MPoly):
        # assumes canonical input; use ratfunc_normalize to build safely
        self.num = num
        self.den = den

    @property
    def vars(self) -> tuple[str, ...]:
        return self.num.vars

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, vars: Iterable[str]) -> "RatFunc":
        vars = tuple(vars)
        return cls(MPoly.zero(vars), MPoly.const(vars, 1))

    @classmethod
    def const(cls, vars: Iterable[str], c) -> "RatFunc":
        vars = tuple(vars)
        return ratfunc_normalize(MPoly.const(vars, c), MPoly.const(vars, 1))

    @classmethod
    def variable(cls, vars: Iterable[str], name: str) -> "RatFunc":
        vars = tuple(vars)
        return cls(MPoly.variable(vars, name), MPoly.const(vars, 1))

    @classmethod
    def from_poly(cls, p: MPoly) -> "RatFunc":
        return ratfunc_normalize(p, MPoly.const(p.vars, 1))

    # -- predicates ----------------------------------------------------------

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def is_one(self) -> bool:
        return (
            self.num.is_const()
            and self.den.is_const()
            and self.num.const_value() == 1
            and self.den.const_value() == 1
        )

    def is_const(self) -> bool:
        return self.num.is_const() and self.den.is_const()

    def const_value(self) -> Fraction:
        if not self.is_const():
            raise NotConstant(f"field element {self} is not a constant")
        if self.is_zero():
            return Fraction(0)
        return self.num.const_value() / self.den.const_value()

    def negative_lead(self) -> bool:
        """Sign used by canonical printing: the numerator's leading sign."""
        return (not self.num.is_zero()) and self.num.leading()[1] < 0

    # -- field operations ------------------------------------------------------

    def _require_same_vars(self, other: "RatFunc") -> None:
        if self.vars != other.vars:
            raise UnknownVariable("operands are over different variable tuples")

    # Arithmetic keeps results reduced with small cross-cancellations instead
    # of one large gcd on products (inputs are canonical, so the classical
    # identities apply).

    def __add__(self, other: "RatFunc") -> "RatFunc":
        self._require_same_vars(other)
        if self.is_zero():
            return other
        if other.is_zero():
            return self
        d = mpoly_gcd(self.den, other.den)
        if d.is_const():
            num = self.num * other.den + other.num * self.den
            den = self.den * other.den
            return _canonical_scale(num, den)
        a_red = divexact(self.den, d)
        b_red = divexact(other.den, d)
        t = self.num * b_red + other.num * a_red
        if t.is_zero():
            return RatFunc.zero(self.vars)
        g = mpoly_gcd(t, d)
        if g.is_const():
            return _canonical_scale(t, a_red * other.den)
        return _canonical_scale(divexact(t, g), a_red * divexact(other.den, g))

    def __neg__(self) -> "RatFunc":
        return RatFunc(-self.num, self.den)

    def __sub__(self, other: "RatFunc") -> "RatFunc":
        return self + (-other)

    def __mul__(self, other: "RatFunc") -> "RatFunc":
        self._require_same_vars(other)
        if self.is_zero() or other.is_zero():
            return RatFunc.zero(self.vars)
        g1 = mpoly_gcd(self.num, other.den)
        g2 = mpoly_gcd(other.num, self.den)
        num = divexact(self.num, g1) * divexact(other.num, g2)
        den = divexact(self.den, g2) * divexact(other.den, g1)
        return _canonical_scale(num, den)

    def reciprocal(self) -> "RatFunc":
        if self.is_zero():
            raise DivisionByZero("division by the zero field element")
        num, den = self.den, self.num
        if den.leading()[1] < 0:
            num, den = -num, -den
        return RatFunc(num, den)

    def __truediv__(self, other: "RatFunc") -> "RatFunc":
        self._require_same_vars(other)
        return self * other.reciprocal()

    def __pow__(self, k: int) -> "RatFunc":
        if k < 0:
            return self.reciprocal() ** (-k)
        if self.is_zero():
            return RatFunc.const(self.vars, 1) if k == 0 else self
        # powers of a canonical fraction stay canonical
        return RatFunc(self.num**k, self.den**k)

    # -- comparison / display ----------------------------------------------------

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, RatFunc)
            and self.num == other.num
            and self.den == other.den
        )

    def __hash__(self) -> int:
        return hash((self.num, self.den))

    def __str__(self) -> str:
        ns = str(self.num)
        if self.den.is_const() and self.den.const_value() == 1:
            return ns
        if len(self.num.terms) > 1:
            ns = f"({ns})"
        ds = str(self.den)
        if not _atomic_denominator(self.den):
            ds = f"({ds})"
        return f"{ns}/{ds}"

    def __repr__(self) -> str:
        return f"RatFunc({self})"


def needs_product_parens(c: "RatFunc") -> bool:
    """True when printing c directly before '*' would split its top-level sum."""
    return len(c.num.terms) > 1 and c.den.is_const() and c.den.const_value() == 1


def format_sum(pairs) -> str:
    """Render a sum of field coefficients times monomials from (coefficient,
    monomial text) pairs in printing order; an empty monomial text is a
    constant term.  A coefficient 1 is left out, a negative lead becomes the
    sign, and a coefficient that is a sum is parenthesized."""
    parts = []
    for c, mon in pairs:
        neg = c.negative_lead()
        a = -c if neg else c
        if mon and a.is_one():
            body = mon
        else:
            body = f"({a})" if needs_product_parens(a) else str(a)
            if mon:
                body = f"{body}*{mon}"
        parts.append((neg, body))
    return join_signed(parts) if parts else "0"


def _add_to(acc: dict, key, c: RatFunc) -> None:
    # merge c into the sparse sum acc, dropping a key whose sum is zero
    s = acc.get(key)
    s = c if s is None else s + c
    if s.is_zero():
        acc.pop(key, None)
    else:
        acc[key] = s


def _atomic_denominator(d: MPoly) -> bool:
    # safe to print unparenthesized after '/': an integer, or a single
    # coefficient-1 power of one variable
    if d.is_const():
        return True
    if len(d.terms) != 1:
        return False
    ((e, c),) = d.terms.items()
    return c == 1 and sum(1 for p in e if p) == 1


def _canonical_scale(num: MPoly, den: MPoly) -> RatFunc:
    # final normalization for a pair already free of common polynomial
    # factors: coprime integer contents, positive leading denominator
    if num.is_zero():
        return RatFunc.zero(num.vars)
    c = _frac_gcd(num.content(), den.content())
    if c != 1:
        num, den = num._scale(1 / c), den._scale(1 / c)
    if den.leading()[1] < 0:
        num, den = -num, -den
    return RatFunc(num, den)


def ratfunc_normalize(num: MPoly, den: MPoly) -> RatFunc:
    """Canonical representative of num/den: common factor cancelled, contents
    coprime integers, denominator's leading coefficient positive."""
    if den.is_zero():
        raise ZeroDenominator("fraction with zero denominator")
    num._require_same_vars(den)
    if num.is_zero():
        return RatFunc.zero(num.vars)
    g = mpoly_gcd(num, den)
    return _canonical_scale(divexact(num, g), divexact(den, g))


def ratfunc_arith(op: str, f: RatFunc, g: RatFunc) -> RatFunc:
    """Named-operation entry point over the four field operations."""
    if op == "add":
        return f + g
    if op == "sub":
        return f - g
    if op == "mul":
        return f * g
    if op == "div":
        return f / g
    raise ValueError(f"unknown operation '{op}'")


@dataclass(frozen=True)
class DerivationAction:
    """A derivation given by its images on the declared variables."""

    name: str
    vars: tuple[str, ...]
    images: tuple[RatFunc, ...]

    def __post_init__(self):
        if len(self.images) != len(self.vars):
            raise ArityMismatch(
                f"derivation {self.name} needs one image per variable, "
                f"got {len(self.images)} for {len(self.vars)}"
            )


def derive(action: DerivationAction, f: RatFunc) -> RatFunc:
    """The unique derivation extending the generator images: additive,
    Leibniz on products, quotient rule on fractions, zero on constants."""
    if f.vars != action.vars:
        raise UnknownVariable("value and derivation are over different variables")
    dnum = _derive_poly(action, f.num)
    if f.den.is_const() and f.den.const_value() == 1:
        return dnum
    n = RatFunc.from_poly(f.num)
    d = RatFunc.from_poly(f.den)
    dden = _derive_poly(action, f.den)
    return (dnum * d - n * dden) / (d * d)


def _derive_poly(action: DerivationAction, p: MPoly) -> RatFunc:
    out = RatFunc.zero(p.vars)
    for j in range(len(p.vars)):
        pj = p.partial(j)
        if not pj.is_zero():
            out = out + RatFunc.from_poly(pj) * action.images[j]
    return out


def coordinate_delta(vars: Sequence[str], i: int) -> DerivationAction:
    """The coordinate derivation sending the i-th variable (1-based) to 1 and
    every other variable to 0."""
    vars = tuple(vars)
    if not 1 <= i <= len(vars):
        raise IndexOutOfRange(f"index {i} not in 1..{len(vars)}")
    images = tuple(
        RatFunc.const(vars, 1 if j == i - 1 else 0) for j in range(len(vars))
    )
    return DerivationAction(f"delta{i}", vars, images)
