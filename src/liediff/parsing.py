"""Recursive-descent parsers for field, operator, and normal-polynomial
expressions.

Shared grammar:

    expr   := ('+'|'-')? term (('+'|'-') term)*
    term   := factor (('*'|'/') factor)*
    factor := atom ('^' nonneg-integer)?
    atom   := integer | variable | '(' expr ')'

Operator expressions extend the atom with derivation symbols D1, D2, ...;
'*' is noncommutative composition there and '^' on a derivation repeats it.
Normal-polynomial expressions add X[i1,...,in] atoms, and treat any
identifier that is not a declared field variable as a placeholder slot.
'^' binds tighter than '*' and '/' (so 3/2^2 is 3/4), and division requires a
coefficient-only divisor in the operator and normal-polynomial grammars.
"""

from __future__ import annotations

import re
from typing import NamedTuple

from .errors import ExprSyntaxError, UnknownDerivation, UnknownVariable
from .field import RatFunc
from .lie import Presentation
from .normalpoly import NormalPoly
from .ops import OpWord, apply_operator


class _Tok(NamedTuple):
    kind: str  # "int", "name", or the punctuation itself
    text: str
    pos: int


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


class _Parser:
    """The shared grammar; each grammar supplies ``const(c)``, which lifts a
    field element into its values, and ``name(tok)`` for identifier atoms."""

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
            v = v * f if tok.kind == "*" else self.divide(v, f, tok.pos)
        return v

    def factor(self):
        a = self.atom()
        if self.peek().kind == "^":
            self.take()
            k = int(self.take("int").text)
            a = a**k
        return a

    def atom(self):
        tok = self.take()
        if tok.kind == "int":
            return self.const(RatFunc.const(self.vars, int(tok.text)))
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

    def divide(self, v, f, pos):
        return v / f


class _FieldParser(_Parser):
    def const(self, c: RatFunc) -> RatFunc:
        return c

    def name(self, tok: _Tok) -> RatFunc:
        return self.variable(tok)


_DSYM = re.compile(r"^D(\d+)$")


class _OperatorParser(_Parser):
    def const(self, c: RatFunc) -> OpWord:
        return OpWord.coefficient(c, self.pres.n)

    def name(self, tok: _Tok) -> OpWord:
        m = _DSYM.match(tok.text)
        if not m:
            return self.const(self.variable(tok))
        k = int(m.group(1))
        n = self.pres.n
        if not 1 <= k <= n:
            raise UnknownDerivation(
                f"derivation D{k} not in D1..D{n} (offset {tok.pos})"
            )
        return OpWord.derivation(self.vars, n, k)

    def divide(self, v, f, pos):
        if f.has_symbols():
            raise ExprSyntaxError("cannot divide by a differential operator", pos)
        # a word without derivations applied to 1 is its value in the field
        total = apply_operator(f, RatFunc.const(self.vars, 1), self.pres)
        return v * self.const(total.reciprocal())


class _NormalPolyParser(_Parser):
    def const(self, c: RatFunc) -> NormalPoly:
        return NormalPoly.const(self.vars, self.pres.n, c)

    def name(self, tok: _Tok) -> NormalPoly:
        if tok.text == "X" and self.peek().kind == "[":
            self.take()
            idx = [int(self.take("int").text)]
            while self.peek().kind == ",":
                self.take()
                idx.append(int(self.take("int").text))
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


def parse_operator_expr(text: str, pres: Presentation) -> OpWord:
    """Parse an operator expression, preserving composition order."""
    return _OperatorParser(text, pres.vars, pres).parse()


def parse_normalpoly_expr(text: str, pres: Presentation) -> NormalPoly:
    """Parse a normal-polynomial expression; undeclared identifiers become
    placeholder slots."""
    return _NormalPolyParser(text, pres.vars, pres).parse()
