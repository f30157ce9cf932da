"""Recursive-descent parser for polynomial expressions.

Grammar (whitespace insignificant, identifiers ASCII letters+digits starting
with a letter):

    expr   := ['-'] term (('+'|'-') ['-'] term)*
    term   := factor ('*' factor)*
    factor := base ('^' natliteral)?
    base   := intliteral ['/' natliteral] | identifier | '(' expr ')'

A minus may open each term of a sum (``u + -v`` is u - v and ``u - -v`` is
u + v) and nothing else: ``--u`` and ``u*-v`` are refused.

Rational literals ``p/q`` are accepted in coefficient position.  Identifiers
must be declared variables or the field generator.  A power is refused before
it is expanded when its exponent exceeds MAX_EXPONENT, or when its base has t
terms and C(n + t - 1, t - 1), the number of monomials of degree n in t
symbols and so a bound on the terms of base^n, exceeds MAX_POWER_TERMS.

Sums, products and the squares of a power are formed term by term.  Each
coefficient, a product of two coefficients or a partial sum, is refused at
its operator as it is formed when a numerator or the denominator has more
than MAX_COEFF_BITS bits, so no operation acts on much larger numbers.  In a
field of degree d whose ``reduction_bits`` alone pass MAX_COEFF_BITS,
reducing a product by the minimal polynomial may run away.  There a product
of two coefficients of degrees k and l in the generator is refused before it
is formed when k + l >= d, exactly when it reaches the d-th power and a
reduction step would run; a rational coefficient has degree 0.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .fields import QQ, FieldElem, NumberField
from .poly import Poly, power

# Far above the germs in use, whose powers have one-term bases and
# exponents up to 33; (u + i*v + 1)^61, with 1,953 terms, is within both.
MAX_EXPONENT = 500
MAX_POWER_TERMS = 2000
# a number of at most this many bits has at most 4300 digits, the most that
# int() and str() convert by default
MAX_COEFF_BITS = 14284


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
        if "0" <= ch <= "9":  # str.isdigit() also holds for digits int() refuses
            j = i
            while j < n and "0" <= src[j] <= "9":
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


def _checked(c: FieldElem, what: str, pos: int) -> FieldElem:
    """c, refused as ``what`` at pos when a numerator or the denominator has
    more than MAX_COEFF_BITS bits."""
    if (c.den.bit_length() > MAX_COEFF_BITS
            or max(map(int.bit_length, c.num)) > MAX_COEFF_BITS):
        raise ParseError(f"{what} has coefficients above {MAX_COEFF_BITS} bits", pos)
    return c


def _degree(c: FieldElem) -> int:
    """The highest power of the field generator with a nonzero coordinate in c."""
    return max((i for i, n in enumerate(c.num) if n), default=0)


def _literal(t: _Tok) -> int:
    try:
        return int(t.text)
    except ValueError:  # longer than the interpreter's int_max_str_digits
        raise ParseError(f"integer literal of {len(t.text)} digits is too long",
                         t.pos) from None


class _Parser:
    def __init__(self, src: str, vars: tuple[str, ...], field: NumberField):
        self.toks = _tokenize(src)
        self.i = 0
        self.vars = tuple(vars)
        self.field = field
        # reducing a product by the minimal polynomial may alone pass
        # MAX_COEFF_BITS
        self.runaway = field.reduction_bits > MAX_COEFF_BITS

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
            t = self.next()
            q = self.signed_term()
            terms = dict(p.terms)
            for e, c in (q if t.kind == "+" else -q).terms.items():
                s = terms.get(e)
                terms[e] = c if s is None else _checked(s + c, "sum", t.pos)
            p = Poly(self.vars, terms, self.field)
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
            t = self.next()
            p = self.product(p, self.factor(), "product", t.pos)
        return p

    def product(self, p: Poly, q: Poly, what: str, pos: int) -> Poly:
        """p * q, refused as ``what`` at pos by the rule of the module
        docstring."""
        terms: dict = {}
        for e1, c1 in p.terms.items():
            for e2, c2 in q.terms.items():
                if self.runaway and _degree(c1) + _degree(c2) >= self.field.degree:
                    raise ParseError(f"{what} may have coefficients above "
                                     f"{MAX_COEFF_BITS} bits", pos)
                e = tuple([a + b for a, b in zip(e1, e2)])
                c = _checked(c1 * c2, what, pos)
                s = terms.get(e)
                terms[e] = c if s is None else _checked(s + c, what, pos)
        return Poly(self.vars, terms, self.field)

    def factor(self) -> Poly:
        p = self.base()
        if self.peek().kind == "^":
            self.next()
            t = self.expect("int")
            digits = t.text.lstrip("0") or "0"
            # compare lengths first: int() refuses very long digit strings
            if len(digits) > len(str(MAX_EXPONENT)) or int(digits) > MAX_EXPONENT:
                raise ParseError(f"exponent above the limit {MAX_EXPONENT}", t.pos)
            n, size = int(digits), len(p.terms)
            if size > 1 and math.comb(n + size - 1, n) > MAX_POWER_TERMS:
                raise ParseError(f"power of a {size}-term polynomial may exceed "
                                 f"{MAX_POWER_TERMS} terms", t.pos)
            p = (power(p, n, lambda a, b: self.product(a, b, "power", t.pos)) if n
                 else Poly.constant(1, self.vars, self.field))
        return p

    def base(self) -> Poly:
        t = self.next()
        if t.kind == "int":
            num = _literal(t)
            if self.peek().kind == "/":
                self.next()
                d = self.expect("int")
                den = _literal(d)
                if den == 0:
                    raise ParseError("zero denominator", d.pos)
                return Poly.constant(Fraction(num, den), self.vars, self.field)
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
    try:
        return _Parser(src, tuple(vars), field).parse()
    except RecursionError:
        raise ParseError("expression nested too deeply", 0) from None


def parse_univariate_rational(src: str, gen: str) -> list[Fraction]:
    """Coefficient list (index = exponent) of a univariate rational polynomial."""
    p = parse_poly(src, (gen,), QQ)
    d = p.degree_in(gen)
    coeffs = [Fraction(0)] * (d + 1)
    for e, c in p.terms.items():
        coeffs[e[0]] = c.as_rational()
    return coeffs
