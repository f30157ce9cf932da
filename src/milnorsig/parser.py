"""Recursive-descent parser for polynomial expressions.

Grammar (whitespace insignificant, identifiers ASCII letters+digits starting
with a letter):

    expr   := ['-'] term (('+'|'-') term)*
    term   := factor ('*' factor)*
    factor := base ('^' natliteral)?
    base   := intliteral ['/' natliteral] | identifier | '(' expr ')'

Rational literals ``p/q`` are accepted in coefficient position.  Identifiers
must be declared variables or the field generator.  A power is refused before
it is expanded when its exponent exceeds MAX_EXPONENT, or when its base has t
terms and C(n + t - 1, t - 1), the number of monomials of degree n in t
symbols and so a bound on the terms of base^n, exceeds MAX_POWER_TERMS.  A
product p * q is refused before it is expanded when b_p + b_q + ceil(log2
min(t_p, t_q)) + r exceeds MAX_COEFF_BITS, b the largest bit length among an
operand's numerators and denominators: each of its coefficients sums at most
min(t_p, t_q) products of two coefficients.  r is the field's
``reduction_bits``, what reducing by the minimal polynomial may add to one
product of two field elements.  A rational factor only scales coordinates,
so r counts only for two factors with a coefficient outside Q.  A power is
formed by repeated squaring, and each of its squares and products is checked
as a product is, so it is refused at the first one that could pass
MAX_COEFF_BITS.  The bound assumes that the products summed into a
coefficient share a denominator, which rationals need not, so a product
whose operands both have more than one term, and a sum whose terms share an
exponent, are also refused once built if a coefficient exceeds
MAX_COEFF_BITS.  A sum checks only the exponents of the term it adds.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .fields import QQ, NumberField
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


def _coeff_bits(coeffs) -> int:
    """The largest bit length among the numerators and denominators of the
    field elements coeffs."""
    return max((x.bit_length() for c in coeffs for x in (*c.num, c.den)), default=0)


def _check_built(coeffs, what: str, pos: int) -> None:
    if _coeff_bits(coeffs) > MAX_COEFF_BITS:
        raise ParseError(f"{what} has coefficients above {MAX_COEFF_BITS} bits", pos)


def _irrational(p: Poly) -> bool:
    """Whether some coefficient of p lies outside Q."""
    return any(any(c.num[1:]) for c in p.terms.values())


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
            n = len(p.terms) + len(q.terms)
            p = p + q if t.kind == "+" else p - q
            if len(p.terms) < n:  # an exponent of q was in p
                _check_built((p.terms[e] for e in q.terms if e in p.terms), "sum", t.pos)
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
        """p * q, refused as ``what`` at pos when its coefficients may pass,
        or do pass, MAX_COEFF_BITS."""
        size = min(len(p.terms), len(q.terms))
        reduction = self.field.reduction_bits if _irrational(p) and _irrational(q) else 0
        if (_coeff_bits(p.terms.values()) + _coeff_bits(q.terms.values())
                + (size - 1).bit_length() + reduction > MAX_COEFF_BITS):
            raise ParseError(f"{what} may have coefficients above {MAX_COEFF_BITS} "
                             "bits", pos)
        p = p * q
        if size > 1:  # else each coefficient is one product, as bounded
            _check_built(p.terms.values(), what, pos)
        return p

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
