"""Exact arithmetic in Q(x1,...,xt) and derivations extended from generators.

Field elements are canonical fractions of sparse polynomials: numerator and
denominator carry integer coefficients, their contents are coprime, the pair
has no common polynomial factor, and the denominator's leading coefficient
under graded lex is positive.  Equal field elements therefore have identical
representations, so equality is structural.

An ``MPoly`` keys each monomial by one int, ``deg << B*t | e1 << B*(t-1) |
... | et`` with B = 32-bit fields and the total degree in the top field
(packed exponents, after Monagan and Pearce, CASC 2007).  Integer order is
graded lex and a product of monomials is a sum of keys.  No total degree may
reach the ceiling 2^31 (``DegreeOverflow``), so the top (guard) bit of every
field stays clear and g divides f exactly when ``((f | G) - g) & G == G``,
G the exponent fields' guard bits.  ``MPoly(vars, terms)`` packs exponent
tuples; ``MPoly.terms`` unpacks them into a new dict, and the kernel reads
``packed``.

Coefficients are stored as plain ``int`` whenever they are integral, which
canonical numerators and denominators always are; a ``Fraction`` appears only
for a non-integral coefficient of an intermediate polynomial.  ``MPoly(...)``
normalizes every coefficient once, on construction; kernel results whose
terms are clean by construction skip that through ``_mpoly``, and results that
may hold an integral Fraction go through ``_cleaned``.  Since
``3 == Fraction(3)``, their hashes agree and both print as ``3``, equality,
hashing and printing do not depend on the stored type.  Every coefficient
division goes through ``_coef_div``, which returns ``a // b`` when ``b``
divides ``a`` and a ``Fraction`` otherwise, so no float ever enters a
polynomial.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Iterable, Sequence
from fractions import Fraction
from functools import lru_cache, reduce
from math import gcd as _igcd, isqrt as _isqrt, lcm as _ilcm, prod
from operator import add, mul, or_, sub

from .errors import (
    ArityMismatch,
    DegreeOverflow,
    DivisionByZero,
    IndexOutOfRange,
    IntegerTooLong,
    InvalidMultiIndex,
    NegativeExponent,
    NotConstant,
    UnknownVariable,
    ZeroDenominator,
    _Record,
)

_B = 32  # bits per exponent field
_MASK = (1 << _B) - 1
_CEIL = 1 << (_B - 1)  # the total degree ceiling, and each field's guard bit
_CONST = {0}  # the key of the monomial 1
_ONE = {0: 1}


def _pack(e: tuple[int, ...]) -> int:
    # an exponent tuple whose sum is below _CEIL as its key
    k = sum(e)
    for x in e:
        k = k << _B | x
    return k


def _unpack(k: int, nv: int) -> tuple[int, ...]:
    return tuple((k >> _B * (nv - 1 - j)) & _MASK for j in range(nv))


def _field(nv: int, j: int) -> tuple[int, int]:
    # (the shift of variable j's exponent field, the key of x_j)
    s = _B * (nv - 1 - j)
    return s, 1 << _B * nv | 1 << s


def _check_degree(d: int) -> None:
    if d >= _CEIL:
        raise DegreeOverflow(f"total degree {d} reaches the ceiling 2^{_B - 1}")


def _coef(c) -> int | Fraction:
    # the stored form of a coefficient: an int when integral, else a Fraction
    if not isinstance(c, Fraction):
        c = Fraction(c)
    return c.numerator if c.denominator == 1 else c


def _coef_div(a, b) -> int | Fraction:
    """Exact quotient of two coefficients: ``a // b`` when both are ints and
    ``b`` divides ``a``, otherwise a Fraction; never a float."""
    if type(a) is int and type(b) is int:
        q, r = divmod(a, b)
        if not r:
            return q
    return _coef(Fraction(a, b))


class MPoly:
    """Sparse polynomial over Q in a fixed ordered tuple of variables."""

    __slots__ = ("vars", "packed")

    def __init__(self, vars: Iterable[str], terms: dict):
        self.vars = tuple(vars)
        nv = len(self.vars)
        clean: dict[int, int | Fraction] = {}
        for e, c in terms.items():
            if type(e) is not tuple:
                e = tuple(e)
            if len(e) != nv:
                raise ArityMismatch(f"exponent {e} has arity != {nv}")
            if any(type(x) is not int for x in e):
                raise InvalidMultiIndex(f"exponent {e} has an entry that is not an int")
            if any(x < 0 for x in e):
                raise NegativeExponent(f"exponent {e} has a negative entry")
            _check_degree(sum(e))
            if type(c) is not int:
                c = _coef(c)
            if c:
                clean[_pack(e)] = c
        self.packed = clean

    @property
    def terms(self) -> dict[tuple[int, ...], int | Fraction]:
        """The terms keyed by exponent tuples, as a new dict."""
        nv = len(self.vars)
        return {_unpack(k, nv): c for k, c in self.packed.items()}

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, vars: Iterable[str]) -> "MPoly":
        return _mpoly(tuple(vars), {})

    @classmethod
    def const(cls, vars: Iterable[str], c) -> "MPoly":
        return _cleaned(tuple(vars), {0: c})

    @classmethod
    def variable(cls, vars: Iterable[str], name: str) -> "MPoly":
        vars = tuple(vars)
        if name not in vars:
            raise UnknownVariable(f"variable '{name}' is not declared")
        return _mpoly(vars, {_field(len(vars), vars.index(name))[1]: 1})

    # -- predicates --------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.packed

    def is_const(self) -> bool:
        return self.packed.keys() <= _CONST

    def const_value(self) -> Fraction:
        if not self.is_const():
            raise NotConstant(f"polynomial {self} is not a constant")
        return Fraction(self.packed.get(0, 0))

    def _is_one(self) -> bool:
        return self.packed == _ONE

    def leading(self) -> tuple[tuple[int, ...], int | Fraction]:
        k = max(self.packed)
        return _unpack(k, len(self.vars)), self.packed[k]

    def _lc(self) -> int | Fraction:
        # the leading coefficient under graded lex
        t = self.packed
        return t[max(t)]

    # -- ring operations ----------------------------------------------------

    def _require_same_vars(self, other: "MPoly") -> None:
        if self.vars != other.vars:
            raise UnknownVariable("operands are over different variable tuples")

    def __add__(self, other: "MPoly") -> "MPoly":
        self._require_same_vars(other)
        t = dict(self.packed)
        for k, c in other.packed.items():
            c += t.get(k, 0)
            if type(c) is not int:
                c = _coef(c)
            if c:
                t[k] = c
            else:
                del t[k]
        return _mpoly(self.vars, t)

    def __neg__(self) -> "MPoly":
        return _mpoly(self.vars, {k: -c for k, c in self.packed.items()})

    def __sub__(self, other: "MPoly") -> "MPoly":
        return self + (-other)

    def __mul__(self, other: "MPoly") -> "MPoly":
        self._require_same_vars(other)
        # a unit operand gives the other one itself
        if other.packed == _ONE:
            return self
        if self.packed == _ONE:
            return other
        t: dict[int, int | Fraction] = {}
        _mul_into(t, self.packed, other.packed, len(self.vars))
        if _ints(self.packed) and _ints(other.packed):
            return _mpoly(self.vars, t)
        # a product of Fractions may be integral
        return _cleaned(self.vars, t)

    def _scale(self, c) -> "MPoly":
        # c is nonzero
        if c == 1:
            return self
        t = {k: a * c for k, a in self.packed.items()}
        if type(c) is int and _ints(self.packed):
            return _mpoly(self.vars, t)
        return _cleaned(self.vars, t)

    def _divide(self, c) -> "MPoly":
        # c is nonzero; _coef_div already gives the stored form
        if c == 1:
            return self
        return _mpoly(self.vars, {k: _coef_div(a, c) for k, a in self.packed.items()})

    def __pow__(self, k: int) -> "MPoly":
        if k < 0:
            raise NegativeExponent(f"polynomial raised to the power {k}")
        _check_degree((max(self.packed, default=0) >> _B * len(self.vars)) * k)
        out = _unit(self.vars)
        base = self
        while k:
            if k & 1:
                out = out * base
            k >>= 1
            if k:
                # a square past the last bit may pass the ceiling
                base = base * base
        return out

    def partial(self, j: int) -> "MPoly":
        """Formal partial derivative by the j-th variable, 0-based."""
        if not 0 <= j < len(self.vars):
            raise IndexOutOfRange(f"variable index {j} not in 0..{len(self.vars) - 1}")
        s, u = _field(len(self.vars), j)
        t: dict[int, int | Fraction] = {}
        for k, c in self.packed.items():
            p = (k >> s) & _MASK
            if p:
                t[k - u] = c * p
        return _cleaned(self.vars, t)

    # -- content and gcd -----------------------------------------------------

    def content(self) -> int | Fraction:
        """Signed rational content; self / content() has coprime integer
        coefficients and positive leading coefficient."""
        if not self.packed:
            return 0
        try:
            g = _igcd(*self.packed.values())
        except TypeError:  # a Fraction coefficient
            g = 0
            for c in self.packed.values():
                g = _frac_gcd(g, c)
        return -g if self._lc() < 0 else g

    def primitive_part(self) -> "MPoly":
        c = self.content()
        return self._divide(c) if c else self

    # -- comparison / display -------------------------------------------------

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, MPoly)
            and self.vars == other.vars
            and self.packed == other.packed
        )

    def __hash__(self) -> int:
        return hash((self.vars, frozenset(self.packed.items())))

    def __str__(self) -> str:
        if not self.packed:
            return "0"
        nv = len(self.vars)
        parts = []
        for k in sorted(self.packed, reverse=True):
            c = self.packed[k]
            mon = power_product((v, p) for v, p in zip(self.vars, _unpack(k, nv)) if p)
            try:
                a = str(abs(c))
            except ValueError as e:
                # the interpreter's int-string limit, which stays in force
                raise IntegerTooLong(f"cannot print a coefficient: {e}") from None
            if mon:
                body = mon if a == "1" else f"{a}*{mon}"
            else:
                body = a
            parts.append((c < 0, body))
        return join_signed(parts)

    def __repr__(self) -> str:
        return f"MPoly({self})"


_new = object.__new__


def _mpoly(vars: tuple[str, ...], packed: dict) -> MPoly:
    """The trusted constructor: an MPoly over the tuple vars holding packed
    as its terms, without the checks of ``MPoly(...)``.  The caller vouches
    that packed is clean: keys of the layout over len(vars) variables with
    total degree below the ceiling, no zero coefficient, and each
    coefficient an int or a non-integral Fraction."""
    p = _new(MPoly)
    p.vars = vars
    p.packed = packed
    return p


def _cleaned(vars: tuple[str, ...], packed: dict) -> MPoly:
    # _mpoly for coefficients that may be zero, or integral Fractions
    return _mpoly(vars, {k: c for k, a in packed.items()
                         if (c := a if type(a) is int else _coef(a))})


_INT = {int}


def _ints(terms: dict) -> bool:
    # every coefficient an int: sums and products of these need no _coef
    return {*map(type, terms.values())} <= _INT


def _mul_into(t: dict, a: dict, b: dict, nv: int) -> None:
    # the multiply-accumulate of the kernel's products (_derive_poly alone
    # keeps a fused loop of its own): add the product of the packed term
    # dicts a and b over nv variables into t, dropping a key whose sum is
    # zero; the leading keys bound the product's degree
    if a and b:
        _check_degree(max(a) + max(b) >> _B * nv)
    b = b.items()
    for k1, c1 in a.items():
        for k2, c2 in b:
            k = k1 + k2
            c = t.get(k, 0) + c1 * c2
            if c:
                t[k] = c
            else:
                del t[k]


def join_signed(parts: list[tuple[bool, str]]) -> str:
    """Render a sum from (negative?, unsigned-body) pairs."""
    neg, body = parts[0]
    out = ("-" if neg else "") + body
    for neg, body in parts[1:]:
        out += (" - " if neg else " + ") + body
    return out


def power_product(pairs) -> str:
    """Render (base text, exponent) pairs as b or b^e, joined by '*'."""
    return "*".join(b if e == 1 else f"{b}^{e}" for b, e in pairs)


def _frac_gcd(a, b) -> int | Fraction:
    # gcd(p/q, r/s) = gcd(p, r) / lcm(q, s); nonnegative, gcd(a, 0) = |a|
    if type(a) is int and type(b) is int:
        return _igcd(a, b)
    if not a:
        return abs(b)
    if not b:
        return abs(a)
    return Fraction(_igcd(a.numerator, b.numerator), _ilcm(a.denominator, b.denominator))


def divexact(f: MPoly, g: MPoly) -> MPoly:
    """Exact polynomial quotient f/g; raises ValueError if g does not divide f.

    Grlex is a monomial order, so an exact quotient q has least key
    min(f) - min(g): a division whose least keys do not divide, or that
    reaches a quotient key below that one, is inexact at once, without
    running the rest of its quotient steps."""
    f._require_same_vars(g)
    if g.is_zero():
        raise ValueError("division by the zero polynomial")
    if f.is_zero():
        return f
    if g.is_const():
        return f._divide(g.packed[0])
    nv, gt = len(f.vars), g.packed
    gk, gm, fm = max(gt), min(gt), min(f.packed)
    gc, G = gt[gk], _CEIL * ((1 << _B * nv) // _MASK)  # the guard bits
    lo = fm - gm  # the least key of an exact quotient
    # an exponent field of a key below another's borrows its guard bit
    if ((fm | G) - gm) & G != G:
        raise ValueError("inexact polynomial division")
    q: dict[int, int | Fraction] = {}
    rest = dict(f.packed)
    while rest:
        fk = max(rest)
        if ((fk | G) - gk) & G != G or fk - gk < lo:
            raise ValueError("inexact polynomial division")
        q[fk - gk] = qc = _coef_div(rest[fk], gc)
        _mul_into(rest, {fk - gk: -qc}, gt, nv)
    return _mpoly(f.vars, q)


# Multivariate gcd of primitive integer polynomials, with cofactors: _pp_gcd
# returns (h, f/h, g/h), so that no caller divides by h again.  A primitive
# argument with one term is a power product x^a; its gcd with g is x^b, b the
# least exponent of each variable over both supports, and the cofactors are
# exponent shifts.  Otherwise the heuristic gcd GCDHEU (Char, Geddes and
# Gonnet, JSC 1989) runs: it evaluates the highest occurring variable at a
# large integer xi, recurses down to one integer gcd, and rebuilds each level
# by symmetric xi-adic expansion; a candidate that divides both inputs is the
# gcd, and the two exact quotients of that check are the cofactors.  When a
# few xi all fail it falls back to the reference: view polynomials as
# univariate in the highest occurring variable over the ring generated by the
# rest, pull out contents, and run a primitive pseudo-remainder sequence (PRS)
# to a zero remainder; its cofactors come from two exact divisions.  One
# provable shortcut comes first: when univariate images at a point that keeps
# both leading coefficients are coprime, the gcd is the gcd of the contents;
# without it, coprime inputs over 4-5 variables can take seconds.


def _main_var(f: MPoly, g: MPoly) -> int:
    # the highest-indexed variable occurring in f or g, -1 if none does: the
    # lowest nonzero exponent field of the keys' union
    nv = len(f.vars)
    o = (reduce(or_, f.packed, 0) | reduce(or_, g.packed, 0)) & ((1 << _B * nv) - 1)
    return nv - 1 - ((o & -o).bit_length() - 1) // _B if o else -1


def _coeffs_in(f: MPoly, m: int) -> dict[int, dict]:
    # f as a polynomial in variable m: each degree in x_m mapped to the
    # packed terms of that coefficient, x_m stripped, in one pass
    s, u = _field(len(f.vars), m)
    out: dict[int, dict] = {}
    for k, c in f.packed.items():
        d = (k >> s) & _MASK
        out.setdefault(d, {})[k - d * u] = c
    return out


def _prem(f: MPoly, g: MPoly, m: int) -> MPoly:
    # pseudo-remainder of f by g in the variable m; rational content is
    # stripped per step to curb coefficient swell (callers take primitive
    # parts anyway)
    u = _field(len(f.vars), m)[1]
    cg = _coeffs_in(g, m)
    dg = max(cg)
    b = _mpoly(g.vars, cg[dg])
    r = f
    while r.packed and max(cr := _coeffs_in(r, m)) >= dg:
        dr = max(cr)
        # the leading coefficient times x_m^(dr - dg)
        lr = _mpoly(r.vars, {k + (dr - dg) * u: c for k, c in cr[dr].items()})
        r = (b * r - lr * g).primitive_part()
    return r


def _cont_in(f: MPoly, m: int) -> MPoly:
    # primitive gcd of the coefficients of the powers of variable m
    coeffs = _coeffs_in(f, m)
    return reduce(_pp_gcd_prs, (_mpoly(f.vars, coeffs[d]).primitive_part() for d in sorted(coeffs)))


def _m_primitive(f: MPoly, m: int) -> MPoly:
    return divexact(f, _cont_in(f, m)).primitive_part()


_EVAL_POINTS = (2, 3, 5, 7, 11, 13, -2, -3, -5, 17)
_GCD_PRIME = 2147483647


def _eval_point(nv: int, attempt: int) -> list[int]:
    # the attempt-th of the fixed integer points tried over nv variables
    return [_EVAL_POINTS[(j + 3 * attempt) % len(_EVAL_POINTS)] for j in range(nv)]


def _value_mod(f: MPoly, point) -> int:
    # f at the integer point, mod _GCD_PRIME; f's coefficients are ints
    p, nv = _GCD_PRIME, len(f.vars)
    return sum(c * prod(map(pow, point, _unpack(k, nv), [p] * nv)) for k, c in f.packed.items()) % p


def _univariate_image(f: MPoly, m: int, point) -> dict:
    # substitute integers for every variable except m, mod _GCD_PRIME: the
    # terms grouped by their degree in m, x_m stripped, each group evaluated
    # once.  _pp_gcd_prs passes primitive parts, so the coefficients are ints
    images = ((d, _value_mod(_mpoly(f.vars, t), point)) for d, t in _coeffs_in(f, m).items())
    return {d: v for d, v in images if v}


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
        point = _eval_point(nv, attempt)
        fu = _univariate_image(f, m, point)
        gu = _univariate_image(g, m, point)
        if fu and gu and max(fu) == df and max(gu) == dg:
            return _uni_gcd_degree(fu, gu)
    return None


def _pp_gcd(f: MPoly, g: MPoly) -> tuple[MPoly, MPoly, MPoly]:
    # (h, f/h, g/h) for primitive polynomials (coprime integer coefficients,
    # positive leading coefficient); all three in the same normal form
    if len(f.packed) == 1:
        return _monomial_gcd(f, g)
    if len(g.packed) == 1:
        h, b, a = _monomial_gcd(g, f)
        return h, a, b
    out = _heu_gcd(f, g)
    if out is None:
        h = _pp_gcd_prs(f, g)
        out = h, divexact(f, h), divexact(g, h)
    return out


def _monomial_gcd(m: MPoly, g: MPoly) -> tuple[MPoly, MPoly, MPoly]:
    # (h, m/h, g/h) for a primitive power product m = x^a (a constant 1
    # included) and a primitive g: h = x^b with b the least exponent of each
    # variable over both supports
    nv = len(m.vars)
    ((a, _),) = m.packed.items()
    b = _unpack(a, nv)
    for k in g.packed:
        b = tuple(map(min, b, _unpack(k, nv)))
        if not any(b):
            return _unit(m.vars), m, g
    b = _pack(b)
    return (
        _mpoly(m.vars, {b: 1}),
        _mpoly(m.vars, {a - b: 1}),
        _mpoly(g.vars, {k - b: c for k, c in g.packed.items()}),
    )


_HEU_TRIES = 6


def _heu_gcd(f: MPoly, g: MPoly) -> tuple[MPoly, MPoly, MPoly] | None:
    """(h, f/h, g/h) for two nonzero integer polynomials, h their gcd with
    the integer content included, by GCDHEU; None when the heuristic gives
    up.  With xi >= 2*min(|f|, |g|) + 2 a candidate that divides both inputs
    is provably the gcd, and the quotients of that check are the cofactors."""
    c = _igcd(_igcd(*f.packed.values()), _igcd(*g.packed.values()))
    # an inner level loses factors unless the common content goes first
    f, g = f._divide(c), g._divide(c)
    m = _main_var(f, g)
    if m < 0:
        return MPoly.const(f.vars, c), f, g
    xi = 2 * min(max(map(abs, f.packed.values())), max(map(abs, g.packed.values()))) + 29
    for _ in range(_HEU_TRIES):
        ff, gg = _eval_at(f, m, xi), _eval_at(g, m, xi)
        if ff.packed and gg.packed:
            out = _heu_gcd(ff, gg)
            if out is None:
                return None
            cand = _xi_adic(out[0], m, xi).primitive_part()
            if cand.is_const():
                # its primitive part 1 divides everything
                return MPoly.const(f.vars, c), f, g
            try:
                a = divexact(f, cand)
                b = divexact(g, cand)
            except ValueError:
                pass
            else:
                return cand._scale(c), a, b
        xi = 73794 * xi * _isqrt(_isqrt(xi)) // 27011
    return None


def _eval_at(f: MPoly, m: int, xi: int) -> MPoly:
    # substitute the integer xi for variable m
    s, u = _field(len(f.vars), m)
    t: dict[int, int] = {}
    for k, c in f.packed.items():
        d = (k >> s) & _MASK
        k -= d * u
        t[k] = t.get(k, 0) + c * xi**d
    return _cleaned(f.vars, t)


def _xi_adic(h: MPoly, m: int, xi: int) -> MPoly:
    # rebuild variable m from the symmetric base-xi digits of each coefficient
    u = _field(len(h.vars), m)[1]
    t: dict[int, int] = {}
    half = xi // 2
    for k, c in h.packed.items():
        d = 0
        while c:
            r = c % xi
            if r > half:
                r -= xi
            if r:
                t[k + d * u] = r
            c = (c - r) // xi
            d += 1
    return _mpoly(h.vars, t)


def _pp_gcd_prs(f: MPoly, g: MPoly) -> MPoly:
    # the reference: the same contract as _pp_gcd, by a primitive
    # pseudo-remainder sequence only
    if f.is_const() or g.is_const():
        return MPoly.const(f.vars, 1)
    m = _main_var(f, g)
    df, dg = max(_coeffs_in(f, m)), max(_coeffs_in(g, m))
    if df == 0:
        return _pp_gcd_prs(f, _cont_in(g, m))
    if dg == 0:
        return _pp_gcd_prs(_cont_in(f, m), g)
    cf, cg = _cont_in(f, m), _cont_in(g, m)
    cont = _pp_gcd_prs(cf, cg)
    bound = _image_degree_bound(f, g, m, df, dg)
    if bound == 0:
        # the gcd is free of the main variable, so it divides both contents
        return cont
    F, G = divexact(f, cf), divexact(g, cg)
    if df < dg:
        F, G = G, F
    while not G.is_zero():
        r = _prem(F, G, m)
        F, G = G, (r if r.is_zero() else _m_primitive(r, m))
    return cont * _m_primitive(F, m)


def mpoly_cofactors(f: MPoly, g: MPoly) -> tuple[MPoly, MPoly, MPoly]:
    """(h, f/h, g/h) with h = mpoly_gcd(f, g).  As in sympy's ``cofactors``,
    (0, 0) gives (0, 0, 0), and (0, g) gives (h, 0, g/h) with h = g or -g,
    whichever has a positive leading coefficient."""
    f._require_same_vars(g)
    if f.is_zero() or g.is_zero():
        if f.is_zero() and g.is_zero():
            return f, f, g
        h = g if f.is_zero() else f
        sign = 1 if h._lc() > 0 else -1
        h, one, zero = h._scale(sign), MPoly.const(h.vars, sign), MPoly.zero(h.vars)
        return (h, zero, one) if f.is_zero() else (h, one, zero)
    cf, cg = f.content(), g.content()
    c = _frac_gcd(cf, cg)
    h, a, b = _pp_gcd(f._divide(cf), g._divide(cg))
    # f = cf * a * h and c divides cf in the integers: f/(c*h) = (cf/c) * a
    return h._scale(c), a._scale(_coef_div(cf, c)), b._scale(_coef_div(cg, c))


def mpoly_gcd(f: MPoly, g: MPoly) -> MPoly:
    """Greatest common divisor in Q[vars], canonicalized so that the result
    carries the gcd of the rational contents: mpoly_gcd(2x, 4) = 2."""
    return mpoly_cofactors(f, g)[0]


@lru_cache(maxsize=256)
def _unit(vars: tuple[str, ...]) -> MPoly:
    # the denominator 1 that the polynomial RatFuncs over vars share, so
    # that they do not each hold a copy; nothing mutates an MPoly, so
    # sharing it is safe
    return MPoly.const(vars, 1)


class RatFunc:
    """Canonical fraction of two MPoly values; immutable."""

    __slots__ = ("num", "den")

    def __init__(self, num: MPoly, den: MPoly):
        # assumes canonical input; build safely with ratfunc_normalize, or
        # with from_poly for a polynomial
        self.num = num
        self.den = den

    @property
    def vars(self) -> tuple[str, ...]:
        return self.num.vars

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, vars: Iterable[str]) -> "RatFunc":
        vars = tuple(vars)
        return cls(MPoly.zero(vars), _unit(vars))

    @classmethod
    def const(cls, vars: Iterable[str], c) -> "RatFunc":
        # the reduced fraction c = a/b is the canonical pair a over b
        vars = tuple(vars)
        c = Fraction(c)
        if not c:
            return cls.zero(vars)
        # 1 is the shared unit over 1, so that is_one needs no dict test
        unit = _unit(vars)
        if c == 1:
            return cls(unit, unit)
        b = c.denominator
        return cls(_mpoly(vars, {0: c.numerator}), unit if b == 1 else _mpoly(vars, {0: b}))

    @classmethod
    def variable(cls, vars: Iterable[str], name: str) -> "RatFunc":
        vars = tuple(vars)
        return cls(MPoly.variable(vars, name), _unit(vars))

    @classmethod
    def from_poly(cls, p: MPoly) -> "RatFunc":
        # a polynomial over 1 has no common factor to cancel: only the
        # contents (a Fraction coefficient included) need fixing
        return _canonical_scale(p, _unit(p.vars))

    # -- predicates ----------------------------------------------------------

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def is_one(self) -> bool:
        return self.num._is_one() and self.den._is_one()

    def is_const(self) -> bool:
        return self.num.is_const() and self.den.is_const()

    def const_value(self) -> Fraction:
        if not self.is_const():
            raise NotConstant(f"field element {self} is not a constant")
        if self.is_zero():
            return Fraction(0)
        ((_, n),) = self.num.packed.items()
        ((_, d),) = self.den.packed.items()
        return Fraction(_coef_div(n, d))

    def negative_lead(self) -> bool:
        """Sign used by canonical printing: the numerator's leading sign."""
        return (not self.num.is_zero()) and self.num._lc() < 0

    # -- field operations ------------------------------------------------------

    # Arithmetic keeps results reduced with small cross-cancellations instead
    # of one large gcd on products (inputs are canonical, so the classical
    # identities apply).  `+` and `*` take three lanes: denominators 1
    # (polynomials, canonical as they stand), integer denominators (only an
    # integer content can cancel: no polynomial gcd), and cofactor gcds.

    def __add__(self, other: "RatFunc") -> "RatFunc":
        self.num._require_same_vars(other.num)
        if self.is_zero():
            return other
        if other.is_zero():
            return self
        if self.den._is_one() and other.den._is_one():
            # polynomials: an integer-coefficient numerator over 1 is canonical
            return RatFunc(self.num + other.num, self.den)
        if self.den.is_const() and other.den.is_const():
            # a/c1 + b/c2 = (a*(c2/g) + b*(c1/g)) / (c1*c2/g), g = igcd(c1, c2)
            c1, c2 = self.den.packed[0], other.den.packed[0]
            g = _igcd(c1, c2)
            t = self.num._scale(c2 // g) + other.num._scale(c1 // g)
            return _canonical_scale(t, _mpoly(self.vars, {0: c1 // g * c2}))
        # with d = gcd of the denominators, a/(A*d) + b/(B*d) = t/(A*B*d) for
        # t = a*B + b*A, and only a factor of d can cancel against t
        d, a_red, b_red = mpoly_cofactors(self.den, other.den)
        t = self.num * b_red + other.num * a_red
        if t.is_zero():
            return RatFunc.zero(self.vars)
        if not d.is_const():
            g, t_red, d_red = mpoly_cofactors(t, d)
            if not g.is_const():
                return _canonical_scale(t_red, a_red * b_red * d_red)
        return _canonical_scale(t, a_red * other.den)

    def __neg__(self) -> "RatFunc":
        return RatFunc(-self.num, self.den)

    def __sub__(self, other: "RatFunc") -> "RatFunc":
        return self + (-other)

    def __mul__(self, other: "RatFunc") -> "RatFunc":
        self.num._require_same_vars(other.num)
        # a unit or zero operand decides the product alone
        if other.is_one() or self.is_zero():
            return self
        if self.is_one() or other.is_zero():
            return other
        if self.den._is_one() and other.den._is_one():
            return RatFunc(self.num * other.num, self.den)
        if self.den.is_const() and other.den.is_const():
            # (a/c1) * (b/c2) = a*b / (c1*c2)
            c = self.den.packed[0] * other.den.packed[0]
            return _canonical_scale(self.num * other.num, _mpoly(self.vars, {0: c}))
        _, n1, d2 = mpoly_cofactors(self.num, other.den)
        _, n2, d1 = mpoly_cofactors(other.num, self.den)
        return _canonical_scale(n1 * n2, d1 * d2)

    def reciprocal(self) -> "RatFunc":
        if self.is_zero():
            raise DivisionByZero("division by the zero field element")
        num, den = self.den, self.num
        if den._lc() < 0:
            num, den = -num, -den
        return RatFunc(num, den)

    def __truediv__(self, other: "RatFunc") -> "RatFunc":
        self.num._require_same_vars(other.num)
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
        if self.den._is_one():
            return ns
        if len(self.num.packed) > 1:
            ns = f"({ns})"
        ds = str(self.den)
        if not _atomic_denominator(self.den):
            ds = f"({ds})"
        return f"{ns}/{ds}"

    def __repr__(self) -> str:
        return f"RatFunc({self})"


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
            # a fraction's str already parenthesizes a sum numerator
            body = f"({a})" if len(a.num.packed) > 1 and a.den._is_one() else str(a)
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


class SparseSum:
    """Finite sum of nonzero field coefficients keyed by monomials, over the
    field variables ``vars`` and ``n`` derivations: the construction and
    arithmetic shared by normal operators and normal polynomials.  A
    subclass checks and canonicalizes a key in ``_key(key, n)``."""

    __slots__ = ("vars", "n", "terms")

    def __init__(self, vars: Iterable[str], n: int, terms: dict):
        # the one checked constructor: equal canonical keys merge, zero sums drop
        self.vars = vars = tuple(vars)
        self.n = n
        clean: dict = {}
        for key, c in terms.items():
            key = self._key(key, n)
            if c.vars != vars:
                raise UnknownVariable("coefficient over a different variable tuple")
            _add_to(clean, key, c)
        self.terms = clean

    @classmethod
    def zero(cls, vars, n: int):
        return cls(vars, n, {})

    @classmethod
    def _trusted(cls, vars: tuple[str, ...], n: int, terms: dict):
        # an internal result, without the checks of __init__: the caller
        # vouches that its keys are canonical and no coefficient is zero
        s = _new(cls)
        s.vars = vars
        s.n = n
        s.terms = terms
        return s

    def _require_compat(self, other) -> None:
        name = type(self).__name__
        if type(other) is not type(self):
            raise ArityMismatch(f"cannot combine {name} with {type(other).__name__}")
        if self.vars != other.vars or self.n != other.n:
            raise ArityMismatch(f"{name} operands over different presentations")

    def __add__(self, other):
        self._require_compat(other)
        t = dict(self.terms)
        for key, c in other.terms.items():
            _add_to(t, key, c)
        return self._trusted(self.vars, self.n, t)

    def __neg__(self):
        return self._trusted(self.vars, self.n, {key: -c for key, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other) -> bool:
        return (
            type(other) is type(self)
            and self.vars == other.vars
            and self.n == other.n
            and self.terms == other.terms
        )

    def __hash__(self) -> int:
        return hash((self.vars, self.n, frozenset(self.terms.items())))

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self})"


def _atomic_denominator(d: MPoly) -> bool:
    # safe to print unparenthesized after '/': an integer, or a single
    # coefficient-1 power of one variable
    if d.is_const():
        return True
    if len(d.packed) != 1:
        return False
    ((k, c),) = d.packed.items()
    return c == 1 and sum(1 for p in _unpack(k, len(d.vars)) if p) == 1


def _canonical_scale(num: MPoly, den: MPoly) -> RatFunc:
    # final normalization for a pair already free of common polynomial
    # factors: coprime integer contents, positive leading denominator, and
    # the shared unit for a denominator 1
    if num.is_zero():
        return RatFunc.zero(num.vars)
    c = _frac_gcd(num.content(), den.content())
    num, den = num._divide(c), den._divide(c)
    if den._lc() < 0:
        num, den = -num, -den
    return RatFunc(num, _unit(num.vars) if den._is_one() else den)


def ratfunc_normalize(num: MPoly, den: MPoly) -> RatFunc:
    """Canonical representative of num/den: common factor cancelled, contents
    coprime integers, denominator's leading coefficient positive."""
    if den.is_zero():
        raise ZeroDenominator("fraction with zero denominator")
    num._require_same_vars(den)
    if num.is_zero():
        return RatFunc.zero(num.vars)
    if den.is_const():
        # no polynomial factor to cancel: only the contents need fixing
        return _canonical_scale(num, den)
    _, num, den = mpoly_cofactors(num, den)
    return _canonical_scale(num, den)


def common_denominator(xs: Sequence[RatFunc], vars) -> tuple[list[MPoly], MPoly]:
    """(nums, den) with den the lcm of the denominators of xs, a unit when xs
    is empty, and xs[j] = nums[j] / den."""
    if not xs:
        return [], _unit(vars)
    den, cofactors = _lcm_cofactors([x.den for x in xs])
    return [x.num * c for x, c in zip(xs, cofactors)], den


class DerivationAction(_Record):
    """A derivation given by its images on the declared variables.

    The images are also kept over one common denominator, images[j] =
    nums[j] / den, with den the lcm of their denominators; ``derive`` reads
    these, and they take no part in equality, hashing or the repr."""

    __slots__ = ("name", "vars", "images", "nums", "den")
    _fields = ("name", "vars", "images")

    def __init__(self, name: str, vars: tuple[str, ...], images: tuple[RatFunc, ...]):
        if len(images) != len(vars):
            raise ArityMismatch(
                f"derivation {name} needs one image per variable, "
                f"got {len(images)} for {len(vars)}"
            )
        if any(im.vars != vars for im in images):
            raise UnknownVariable(
                f"an image of derivation {name} is over other variables"
            )
        nums, den = common_denominator(images, vars)
        self._init(name=name, vars=vars, images=images, nums=tuple(nums), den=den)


def derive(action: DerivationAction, f: RatFunc) -> RatFunc:
    """The unique derivation extending the generator images: additive,
    Leibniz on products, quotient rule on fractions, zero on constants.

    With the images over their common denominator Q, D(N) = D'(N) / Q for
    D'(N) = sum_j d_jN * P_j, one integer-coefficient sum.  Three lanes
    follow.  Over the denominator 1, D(N) is canonical as it stands when
    Q = 1.  Over an integer c, D(N/c) = D'N/(Q*c), and no gcd is taken when
    Q is an integer too.  For a general fraction N/R, take g = gcd(R, D'R)
    with R = g*R1 and D'R = g*S1; the quotient rule gives D(N/R) =
    (R1*D'N - N*S1) / (Q*g*R1^2).  That numerator is coprime to R1, since
    gcd(N, R) = 1 and gcd(R1, S1) = 1 (Bronstein, *Symbolic Integration I*),
    so only a factor of Q*g can cancel, and no gcd is taken when Q*g is a
    constant.  D'R = 0 needs no branch of its own: mpoly_cofactors(R, 0)
    takes no gcd and gives g = R, R1 = 1, S1 = 0."""
    if f.vars != action.vars:
        raise UnknownVariable("value and derivation are over different variables")
    q, r = action.den, f.den
    dn = _derive_poly(action, f.num)
    if r._is_one():
        # an integer-coefficient polynomial over 1 is canonical already
        return RatFunc(dn, q) if q._is_one() else ratfunc_normalize(dn, q)
    if r.is_const():
        # D(N/c) = D'N / (Q*c) for an integer c
        return ratfunc_normalize(dn, q._scale(r.packed[0]))
    dr = _derive_poly(action, r)
    g, r1, s1 = mpoly_cofactors(r, dr)
    num = r1 * dn - f.num * s1
    if num.is_zero():
        return RatFunc.zero(f.vars)
    qg = q * g
    if not qg.is_const():
        _, num, qg = mpoly_cofactors(num, qg)
    return _canonical_scale(num, qg * r1 * r1)


def _derive_poly(action: DerivationAction, p: MPoly) -> MPoly:
    # D'(p) = sum_j d_j(p) * nums[j], added into one dict; p and the nums
    # have int coefficients (canonical parts and their lcm multiples), so
    # dropping the zero sums leaves the terms clean.  Fields below the
    # ceiling sum without a carry, so one check of the result suffices.
    # The partial derivative is taken inside the loop: handing _mul_into a
    # dict of d_j(p) was 5-20% slower.
    nv = len(p.vars)
    t: dict[int, int] = {}
    for j, pj in enumerate(action.nums):
        if not pj.packed:
            continue
        s, u = _field(nv, j)
        pt = pj.packed.items()
        for k, c in p.packed.items():
            e = (k >> s) & _MASK
            if e:
                k1, ce = k - u, c * e
                for k2, c2 in pt:
                    m = k1 + k2
                    v = t.get(m, 0) + ce * c2
                    if v:
                        t[m] = v
                    else:
                        del t[m]
    if t:
        _check_degree(max(t) >> _B * nv)
    return _mpoly(p.vars, t)


def lincomb(pairs: Iterable[tuple[RatFunc, RatFunc]], vars: Sequence[str]) -> RatFunc:
    """The field element sum a*b over the (a, b) in pairs, normalized once.

    The products are taken unreduced and grouped by denominator, so that
    equal denominators just add their numerators.  The lcm L of the group
    denominators is found before any numerator is touched
    (``_lcm_cofactors``); each group's numerator times its cofactor L/d is
    then added into one sum, which a single ``ratfunc_normalize`` reduces.
    A single group skips the merge.  A factor over another variable tuple
    raises ``UnknownVariable``, as ``*`` does."""
    vars = tuple(vars)
    nv, both = len(vars), (vars, vars)
    groups: dict[MPoly, dict] = {}
    for a, b in pairs:
        if (a.num.vars, b.num.vars) != both:
            raise UnknownVariable("operands are over different variable tuples")
        if a.is_zero() or b.is_zero():
            continue
        _mul_into(groups.setdefault(a.den * b.den, {}), a.num.packed, b.num.packed, nv)
    # canonical numerators have int coefficients and _mul_into drops zeros
    nonzero = [(d, t) for d, t in groups.items() if t]
    if not nonzero:
        return RatFunc.zero(vars)
    if len(nonzero) > 1:
        den, cofactors = _lcm_cofactors([d for d, _ in nonzero])
        return _sum_over(vars, den, zip((t for _, t in nonzero), cofactors))
    ((den, t),) = nonzero  # inline: a product by a unit cofactor cost apply 3%
    num = _mpoly(vars, t)
    return RatFunc(num, den) if den._is_one() else ratfunc_normalize(num, den)


def _sum_over(vars: tuple[str, ...], den: MPoly, parts) -> RatFunc:
    # the sum of n * c / den over the (n, c) in parts, normalized once: den
    # a common multiple of the parts' denominators, n packed int terms over
    # one of them and c its cofactor den/d
    t: dict[int, int] = {}
    for n, c in parts:
        _mul_into(t, n, c.packed, len(vars))
    if not t:
        return RatFunc.zero(vars)
    num = _mpoly(vars, t)
    return RatFunc(num, den) if den._is_one() else ratfunc_normalize(num, den)


def _lcm_cofactors(dens: list[MPoly]) -> tuple[MPoly, list[MPoly]]:
    """(L, [L/d for d in dens]) for L the lcm of one or more integer
    polynomials with positive leading coefficients, integer content
    included: _lcm_cofactors([2x, 4]) gives L = 4x.

    When every d is a power product c*x^a, L = lcm(c)*x^max(a) and each
    cofactor is an integer times an exponent shift: no gcd is taken.
    Otherwise a cofactor chain runs over the denominators alone:
    (_, b_i, g_i) = mpoly_cofactors(L_(i-1), d_i) and L_i = L_(i-1)*g_i =
    b_i*d_i, so L/d_i = b_i * g_(i+1) * ... * g_k, built with suffix
    products."""
    vars = dens[0].vars
    if all(len(d.packed) == 1 for d in dens):
        mons = [next(iter(d.packed.items())) for d in dens]
        c = _ilcm(*(k for _, k in mons))
        a = tuple(map(max, zip(*(_unpack(e, len(vars)) for e, _ in mons))))
        _check_degree(sum(a))
        a = _pack(a)
        # all units (polynomial images) keep the shared denominator 1
        L = _unit(vars) if c == 1 and not a else _mpoly(vars, {a: c})
        return L, [_mpoly(vars, {a - e: c // k}) for e, k in mons]
    one = _unit(vars)
    L, bs, gs = dens[0], [one], [one]
    for d in dens[1:]:
        _, b, g = mpoly_cofactors(L, d)
        bs.append(b)
        gs.append(g)
        L = L * g
    cofactors, suffix = [], one
    for b, g in zip(reversed(bs), reversed(gs)):
        cofactors.append(b * suffix)
        suffix = g * suffix
    cofactors.reverse()
    return L, cofactors


def coprime_basis(dens: Iterable[MPoly], vars: tuple[str, ...]) -> tuple[list[MPoly], dict]:
    """(B, exps): B pairwise coprime primitive polynomials over vars and,
    for each of the integer polynomials dens (positive leading
    coefficients), exps[d] = (c, e) with d = c * prod_i B[i]^e[i], c the
    content of d.  B comes from factor refinement (Bach, Driscoll and
    Shallit, J. Algorithms 1993): a factor g shared by a = g*a1 and b =
    g*b1 replaces them by a1, b1 and g, each keeping its multiplicity in
    every input; the total degree falls at each split.  a1 resumes at b's
    place, b1 and g (coprime to the rest) meet only each other, and a piece
    equal to an element merges with it without a gcd; B's order depends on
    dens alone.  When every primitive part is a power product, B is the
    variables and no gcd is taken."""
    pps = {}
    for d in dens:
        if d not in pps:
            c = d.content()
            pps[d] = c, d._divide(c)
    if all(len(q.packed) == 1 for _, q in pps.values()):
        B = [MPoly.variable(vars, v) for v in vars]
        return B, {d: (c, _unpack(next(iter(q.packed)), len(vars))) for d, (c, q) in pps.items()}
    polys = dict.fromkeys(q for _, q in pps.values() if not q.is_const())
    todo = [(q, Counter({q: 1}), 0) for q in reversed(polys)]
    items: list[tuple[MPoly, Counter]] = []  # (element, input -> multiplicity)
    while todo:
        a, ma, start = todo.pop()
        for i in range(start, len(items)):
            b, mb = items[i]
            if a == b:
                items[i] = b, mb + ma
                break
            g, a1, b1 = mpoly_cofactors(a, b)
            if not g.is_const():
                del items[i]
                pieces = ((a1, ma, i), (b1, mb, len(items)), (g, ma + mb, len(items)))
                todo += [piece for piece in pieces if not piece[0].is_const()]
                break
        else:
            items.append((a, ma))
    exps = {d: (c, tuple(m[q] for _, m in items)) for d, (c, q) in pps.items()}
    return [b for b, _ in items], exps


def _basis_power(e: tuple, B: list[MPoly], powers: dict, vars: tuple[str, ...]) -> MPoly:
    # prod_i B[i]^e[i], kept in powers
    p = powers.get(e)
    if p is None:
        p = powers[e] = reduce(mul, (b**k for b, k in zip(B, e) if k), _unit(vars))
    return p


def basis_sum(groups: dict, B: list[MPoly], powers: dict, vars: tuple[str, ...]) -> RatFunc:
    """The sum of t / (c * prod_i B[i]^e[i]) over the items (c, e): t of
    groups, t packed int terms and B a coprime basis, normalized once, as
    ``lincomb`` sums its groups.  The lcm is lcm(c) * B^max(e), and each
    cofactor an integer times a product of basis powers, kept in powers
    across calls: no gcd is taken before the final ``ratfunc_normalize``."""
    nonzero = [(key, t) for key, t in groups.items() if t]
    if not nonzero:
        return RatFunc.zero(vars)
    c = _ilcm(*(ci for (ci, _), _ in nonzero))
    e = tuple(map(max, zip(*(ei for (_, ei), _ in nonzero))))
    parts = ((n, _basis_power(tuple(map(sub, e, ei)), B, powers, vars)._scale(c // ci))
             for (ci, ei), n in nonzero)
    return _sum_over(vars, _basis_power(e, B, powers, vars)._scale(c), parts)


def _key_mul(a: tuple, b: tuple) -> tuple:
    # the key (c, e) of the product of two denominators with keys a and b
    return a[0] * b[0], tuple(map(add, a[1], b[1]))


def _derive_unreduced(D: DerivationAction, x: RatFunc, exps: dict) -> tuple[MPoly, tuple]:
    """D(x) for x = N/R as (numerator, denominator key) over the keys exps
    of a coprime basis (``coprime_basis``), by the quotient rule and without
    a gcd: (R*D'N - N*D'R) / (Q*R^2), or D'N / (Q*R) when D'R = 0, with Q
    the common denominator of D's images and D' = Q*D (``derive``)."""
    q, r = exps[D.den], x.den
    dn = _derive_poly(D, x.num)
    if r._is_one():
        return dn, q
    dr = _derive_poly(D, r)
    if dr.is_zero():
        return dn, _key_mul(q, exps[r])
    return r * dn - x.num * dr, _key_mul(q, _key_mul(exps[r], exps[r]))


def _add_product(group: dict, a: tuple, b: tuple) -> None:
    # add the product of the unreduced fractions a and b, each (numerator,
    # key), into group, a basis_sum group, under the key of its denominator
    (x, ka), (y, kb) = a, b
    if x.packed and y.packed:
        _mul_into(group.setdefault(_key_mul(ka, kb), {}), x.packed, y.packed, len(x.vars))
