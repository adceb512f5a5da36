"""Recursive-descent parsers for field, operator, and normal-polynomial
expressions.

Shared grammar:

    expr   := ('+'|'-')? term (('+'|'-') term)*
    term   := factor (('*'|'/') factor)*
    factor := atom ('^' nonneg-integer)?
    atom   := integer | variable | '(' expr ')'

Operator expressions extend the atom with derivation symbols D1, D2, ...
and are evaluated in normal form as they are read: every value is a
``NormalOperator``, '*' is noncommutative composition through the PBW table
of the presentation and '^' repeats it.  Normal-polynomial expressions add
X[i1,...,in] atoms, and treat any identifier that is not a declared field
variable as a placeholder slot.  '^' binds tighter than '*' and '/' (so 3/2^2
is 3/4).  In the operator and normal-polynomial grammars the divisor must be
a pure coefficient; for an operator that is judged by its normal form, so
x/(D1*x - x*D1) divides by D1(x).
"""

from __future__ import annotations

import re
from collections import namedtuple

from .errors import ExprSyntaxError, UnknownDerivation, UnknownVariable
from .field import RatFunc
from .lie import Presentation
from .normalpoly import NormalPoly
from .ops import NormalOperator, op_mul


# kind is "int", "name", or the punctuation itself
_Tok = namedtuple("_Tok", "kind text pos")


_TOKEN = re.compile(r"(\d+)|([A-Za-z_][A-Za-z_0-9]*)|([\^+\-*/()\[\],])|(\S)")


def _tokenize(text: str) -> list[_Tok]:
    out = []
    for m in _TOKEN.finditer(text):
        if m.group(4):
            raise ExprSyntaxError(f"unexpected character '{m.group(4)}'", m.start())
        if m.group(1):
            out.append(_Tok("int", m.group(1), m.start()))
        elif m.group(2):
            out.append(_Tok("name", m.group(2), m.start()))
        else:
            out.append(_Tok(m.group(3), m.group(3), m.start()))
    out.append(_Tok("end", "", len(text)))
    return out


def _int(text: str, pos: int) -> int:
    # a run of digits past the interpreter's int-string limit, which stays
    # in force, is a syntax error at its offset
    try:
        return int(text)
    except ValueError:
        raise ExprSyntaxError(
            f"integer of {len(text)} digits is too long to read", pos
        ) from None


class _Parser:
    """The shared grammar; each grammar supplies ``const(c)``, which lifts a
    field element into its values, and ``name(tok)`` for identifier atoms,
    and may override ``mul``, ``power`` and ``divide``."""

    def __init__(self, text: str, vars: tuple[str, ...], pres: Presentation | None = None):
        self.text = text
        self.toks = _tokenize(text)
        self.i = 0
        self.vars = vars
        self.pres = pres

    def peek(self) -> _Tok:
        return self.toks[self.i]

    def take(self, kind: str | None = None) -> _Tok:
        tok = self.toks[self.i]
        if kind is not None and tok.kind != kind:
            raise ExprSyntaxError(
                f"expected {kind}, found '{tok.text or 'end of input'}'", tok.pos
            )
        self.i += 1
        return tok

    def integer(self) -> int:
        tok = self.take("int")
        return _int(tok.text, tok.pos)

    def parse(self):
        v = self.expr()
        tok = self.peek()
        if tok.kind != "end":
            raise ExprSyntaxError(f"unexpected token '{tok.text}'", tok.pos)
        return v

    def expr(self):
        neg = False
        if self.peek().kind in ("+", "-"):
            neg = self.take().kind == "-"
        v = self.term()
        if neg:
            v = -v
        while self.peek().kind in ("+", "-"):
            op = self.take().kind
            t = self.term()
            v = v - t if op == "-" else v + t
        return v

    def term(self):
        v = self.factor()
        while self.peek().kind in ("*", "/"):
            tok = self.take()
            f = self.factor()
            v = self.mul(v, f) if tok.kind == "*" else self.divide(v, f, tok.pos)
        return v

    def factor(self):
        a = self.atom()
        if self.peek().kind == "^":
            self.take()
            a = self.power(a, self.integer())
        return a

    def atom(self):
        tok = self.take()
        if tok.kind == "int":
            return self.const(RatFunc.const(self.vars, _int(tok.text, tok.pos)))
        if tok.kind == "name":
            return self.name(tok)
        if tok.kind == "(":
            v = self.expr()
            self.take(")")
            return v
        raise ExprSyntaxError(f"unexpected token '{tok.text or 'end of input'}'", tok.pos)

    def variable(self, tok: _Tok) -> RatFunc:
        if tok.text not in self.vars:
            raise UnknownVariable(
                f"variable '{tok.text}' is not declared (offset {tok.pos})"
            )
        return RatFunc.variable(self.vars, tok.text)

    def mul(self, a, b):
        return a * b

    def power(self, a, k: int):
        return a**k

    def divide(self, v, f, pos):
        return v / f


class _FieldParser(_Parser):
    def const(self, c: RatFunc) -> RatFunc:
        return c

    def name(self, tok: _Tok) -> RatFunc:
        return self.variable(tok)


_DSYM = re.compile(r"^D(\d+)$")


class _OperatorParser(_Parser):
    def const(self, c: RatFunc) -> NormalOperator:
        return NormalOperator.monomial(self.vars, self.pres.n, (0,) * self.pres.n, c)

    def name(self, tok: _Tok) -> NormalOperator:
        m = _DSYM.match(tok.text)
        if not m:
            return self.const(self.variable(tok))
        k = _int(m.group(1), tok.pos + 1)
        n = self.pres.n
        if not 1 <= k <= n:
            raise UnknownDerivation(
                f"derivation D{k} not in D1..D{n} (offset {tok.pos})"
            )
        e = tuple(int(j == k) for j in range(1, n + 1))
        return NormalOperator.monomial(self.vars, n, e, RatFunc.const(self.vars, 1))

    def mul(self, a, b):
        return op_mul(a, b, self.pres)

    def power(self, a, k: int):
        # a pure coefficient takes the field's power, in log k products and
        # under its degree ceiling; otherwise a^k = a * a^(k-1): the base stays
        # the left operand, whose symbols set the cost of a product
        zero = (0,) * self.pres.n
        if a.terms.keys() <= {zero}:
            return self.const(a.terms.get(zero, RatFunc.zero(self.vars)) ** k)
        out = NormalOperator.identity(self.vars, self.pres.n)
        for _ in range(k):
            out = self.mul(a, out)
        return out

    def divide(self, v, f, pos):
        zero = (0,) * self.pres.n
        if any(I != zero for I in f.terms):
            raise ExprSyntaxError("cannot divide by a differential operator", pos)
        c = f.terms.get(zero, RatFunc.zero(self.vars))
        return self.mul(v, self.const(c.reciprocal()))


class _NormalPolyParser(_Parser):
    def const(self, c: RatFunc) -> NormalPoly:
        return NormalPoly.const(self.vars, self.pres.n, c)

    def name(self, tok: _Tok) -> NormalPoly:
        if tok.text == "X" and self.peek().kind == "[":
            self.take()
            idx = [self.integer()]
            while self.peek().kind == ",":
                self.take()
                idx.append(self.integer())
            self.take("]")
            return NormalPoly.xvar(self.vars, self.pres.n, tuple(idx))
        if tok.text in self.vars:
            return self.const(RatFunc.variable(self.vars, tok.text))
        return NormalPoly.slot(self.vars, self.pres.n, tok.text)

    def divide(self, v, f, pos):
        if f.x_support() or f.slots():
            raise ExprSyntaxError("cannot divide by a normal-polynomial variable", pos)
        c = f.terms.get((), RatFunc.zero(self.vars))
        return v.scale(c.reciprocal())


def parse_field_expr(text: str, vars) -> RatFunc:
    """Parse a field expression over the declared variables."""
    return _FieldParser(text, tuple(vars)).parse()


def parse_operator_expr(text: str, pres: Presentation) -> NormalOperator:
    """Parse an operator expression into its normal-ordered form."""
    return _OperatorParser(text, pres.vars, pres).parse()


def parse_normalpoly_expr(text: str, pres: Presentation) -> NormalPoly:
    """Parse a normal-polynomial expression; undeclared identifiers become
    placeholder slots."""
    return _NormalPolyParser(text, pres.vars, pres).parse()
