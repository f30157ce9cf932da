"""Recursive-descent parser for polynomial expressions.

Grammar (whitespace insignificant, identifiers ASCII letters+digits starting
with a letter):

    expr   := ['-'] term (('+'|'-') term)*
    term   := factor ('*' factor)*
    factor := base ('^' natliteral)?
    base   := intliteral ['/' natliteral] | identifier | '(' expr ')'

Rational literals ``p/q`` are accepted in coefficient position.  Identifiers
must be declared variables or the field generator.
"""

from __future__ import annotations

from fractions import Fraction

from .fields import NumberField
from .poly import Poly


class ParseError(ValueError):
    def __init__(self, message: str, pos: int):
        super().__init__(f"{message} (at position {pos})")
        self.pos = pos


class _Tok:
    __slots__ = ("kind", "text", "pos")

    def __init__(self, kind, text, pos):
        self.kind = kind
        self.text = text
        self.pos = pos


def _tokenize(src: str) -> list[_Tok]:
    toks = []
    i, n = 0, len(src)
    while i < n:
        ch = src[i]
        if ch.isspace():
            i += 1
            continue
        if ch.isdigit():
            j = i
            while j < n and src[j].isdigit():
                j += 1
            toks.append(_Tok("int", src[i:j], i))
            i = j
            continue
        if ch.isalpha():
            j = i
            while j < n and (src[j].isalnum()):
                j += 1
            toks.append(_Tok("ident", src[i:j], i))
            i = j
            continue
        if ch in "+-*^()/":
            toks.append(_Tok(ch, ch, i))
            i += 1
            continue
        raise ParseError(f"unexpected character {ch!r}", i)
    toks.append(_Tok("end", "", n))
    return toks


class _Parser:
    def __init__(self, src: str, vars: tuple[str, ...], field: NumberField):
        self.toks = _tokenize(src)
        self.i = 0
        self.vars = tuple(vars)
        self.field = field

    def peek(self) -> _Tok:
        return self.toks[self.i]

    def next(self) -> _Tok:
        t = self.toks[self.i]
        self.i += 1
        return t

    def expect(self, kind: str) -> _Tok:
        t = self.next()
        if t.kind != kind:
            raise ParseError(f"expected {kind!r}, found {t.text or 'end of input'!r}", t.pos)
        return t

    def parse(self) -> Poly:
        p = self.expr()
        t = self.peek()
        if t.kind != "end":
            raise ParseError(f"unexpected {t.text!r}", t.pos)
        return p

    def expr(self) -> Poly:
        p = self.signed_term()
        while self.peek().kind in ("+", "-"):
            op = self.next().kind
            q = self.signed_term()
            p = p + q if op == "+" else p - q
        return p

    def signed_term(self) -> Poly:
        # unary minus is permitted before a term
        if self.peek().kind == "-":
            self.next()
            return -self.term()
        return self.term()

    def term(self) -> Poly:
        p = self.factor()
        while self.peek().kind == "*":
            self.next()
            p = p * self.factor()
        return p

    def factor(self) -> Poly:
        p = self.base()
        if self.peek().kind == "^":
            self.next()
            t = self.expect("int")
            p = p ** int(t.text)
        return p

    def base(self) -> Poly:
        t = self.next()
        if t.kind == "int":
            num = int(t.text)
            if self.peek().kind == "/":
                self.next()
                d = self.expect("int")
                if int(d.text) == 0:
                    raise ParseError("zero denominator", d.pos)
                return Poly.constant(Fraction(num, int(d.text)), self.vars, self.field)
            return Poly.constant(num, self.vars, self.field)
        if t.kind == "ident":
            if t.text in self.vars:
                return Poly.variable(t.text, self.vars, self.field)
            if self.field.degree > 1 and t.text == self.field.generator_name:
                return Poly.constant(self.field.generator(), self.vars, self.field)
            raise ParseError(f"unknown identifier {t.text!r}", t.pos)
        if t.kind == "(":
            p = self.expr()
            self.expect(")")
            return p
        raise ParseError(f"expected a value, found {t.text or 'end of input'!r}", t.pos)


def parse_poly(src: str, vars, field: NumberField) -> Poly:
    """Parse an expression into a canonical Poly over the given field."""
    return _Parser(src, tuple(vars), field).parse()


def parse_univariate_rational(src: str, gen: str) -> list[Fraction]:
    """Coefficient list (index = exponent) of a univariate rational polynomial."""
    from .fields import QQ

    p = parse_poly(src, (gen,), QQ)
    d = p.degree_in(gen)
    coeffs = [Fraction(0)] * (d + 1)
    for e, c in p.terms.items():
        coeffs[e[0]] = c.as_rational()
    return coeffs
