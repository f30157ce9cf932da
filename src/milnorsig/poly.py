"""Sparse multivariate polynomials over a number field.

Terms are a map from exponent vectors to nonzero FieldElem coefficients.
Polynomials are immutable values: no operation changes its operands.
"""

from __future__ import annotations

import operator
from fractions import Fraction

from .fields import FieldElem, NumberField, format_field_elem


class PolyError(ValueError):
    pass


def local_key(exp: tuple[int, ...]):
    """Sort key of the local monomial order, in which 1 is the largest
    monomial: a smaller key (total degree, then reversed exponent) means a
    larger monomial; as a plain key it is a graded well-order."""
    return (sum(exp), exp[::-1])


def power(x, n: int, mul=operator.mul):
    """x^n for n >= 1 by repeated squaring, each product formed by ``mul``:
    floor(log2 n) squares and popcount(n) - 1 further products."""
    result = None
    while True:
        if n & 1:
            result = x if result is None else mul(result, x)
        n >>= 1
        if not n:
            return result
        x = mul(x, x)


def product(factors, vars, field) -> "Poly":
    """The product of factors, polynomials in vars over field; 1 for none."""
    prod = Poly.constant(1, vars, field)
    for h in factors:
        prod = prod * h
    return prod


class Poly:
    __slots__ = ("vars", "terms", "field")

    def __init__(self, vars: tuple[str, ...], terms: dict, field: NumberField):
        self.vars = tuple(vars)
        self.field = field
        self.terms = {e: c for e, c in terms.items() if not c.is_zero()}

    # -- constructors ----------------------------------------------------------

    @staticmethod
    def zero(vars, field) -> "Poly":
        return Poly(tuple(vars), {}, field)

    @staticmethod
    def constant(c, vars, field) -> "Poly":
        if isinstance(c, (int, Fraction)):
            c = field.from_rational(c)
        n = len(vars)
        return Poly(tuple(vars), {(0,) * n: c}, field)

    @staticmethod
    def variable(name, vars, field) -> "Poly":
        vars = tuple(vars)
        exp = [0] * len(vars)
        exp[vars.index(name)] = 1
        return Poly(vars, {tuple(exp): field.one()}, field)

    # -- predicates ------------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return all(all(e == 0 for e in exp) for exp in self.terms)

    def is_unit_local(self) -> bool:
        """Nonzero constant term: a unit of the local ring at the origin."""
        zero = (0,) * len(self.vars)
        return zero in self.terms

    def total_degree(self) -> int:
        if not self.terms:
            return -1
        return max(sum(e) for e in self.terms)

    def degree_in(self, var: str) -> int:
        i = self.vars.index(var)
        if not self.terms:
            return -1
        return max(e[i] for e in self.terms)

    # -- term access -----------------------------------------------------------

    def leading(self):
        """(exponent, coefficient) of the leading term under the local order."""
        if not self.terms:
            raise PolyError("zero polynomial has no leading term")
        e = min(self.terms, key=local_key)
        return e, self.terms[e]

    def normalized(self) -> "Poly":
        """Scaled so the leading coefficient is 1; self when it already is,
        or when self is zero."""
        if not self.terms:
            return self
        _, c = self.leading()
        if c == self.field.one():
            return self
        inv = c.inverse()
        return Poly(self.vars, {e: k * inv for e, k in self.terms.items()}, self.field)

    def _check_compat(self, other: "Poly"):
        if self.vars != other.vars or self.field != other.field:
            raise PolyError("mismatched variable lists or fields")

    # -- ring operations ---------------------------------------------------------

    def __add__(self, other: "Poly") -> "Poly":
        self._check_compat(other)
        terms = dict(self.terms)
        for e, c in other.terms.items():
            s = terms.get(e)
            terms[e] = c if s is None else s + c
        return Poly(self.vars, terms, self.field)

    def __neg__(self) -> "Poly":
        return Poly(self.vars, {e: -c for e, c in self.terms.items()}, self.field)

    def __sub__(self, other: "Poly") -> "Poly":
        return self + (-other)

    def __mul__(self, other: "Poly") -> "Poly":
        self._check_compat(other)
        terms: dict = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                c = c1 * c2
                s = terms.get(e)
                terms[e] = c if s is None else s + c
        return Poly(self.vars, terms, self.field)

    def scale(self, c) -> "Poly":
        if isinstance(c, (int, Fraction)):
            c = self.field.from_rational(c)
        return Poly(self.vars, {e: k * c for e, k in self.terms.items()}, self.field)

    def __pow__(self, n: int) -> "Poly":
        if n < 0:
            raise PolyError("negative exponent")
        return power(self, n) if n else Poly.constant(1, self.vars, self.field)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Poly)
            and self.vars == other.vars
            and self.field == other.field
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.vars, self.field, frozenset(self.terms.items())))

    # -- calculus / substitution -------------------------------------------------

    def derivative(self, var: str) -> "Poly":
        i = self.vars.index(var)
        terms = {}
        for e, c in self.terms.items():
            if e[i] == 0:
                continue
            ne = list(e)
            ne[i] -= 1
            terms[tuple(ne)] = c * e[i]
        return Poly(self.vars, terms, self.field)

    def substitute(self, var: str, num: "Poly", den: "Poly | None" = None) -> "Poly":
        """den^d * self(var = num/den), d = deg_var self, in num's variables;
        with no den, self(var = num).  var may be kept in the target list or
        dropped; every other variable must exist there under its own name.
        When num has at most one term, and den if given has one, each term
        maps to at most one term; otherwise by Horner's rule in var, so a
        degree of var costs one product by num (and one by den).  Either
        way the other variables ride along as exponents, re-keyed into the
        target list and never multiplied."""
        tvars, field = num.vars, num.field
        if field != self.field:
            raise PolyError("substitution cannot change the coefficient field")
        if den is not None and (den.vars, den.field) != (tvars, field):
            raise PolyError("num and den disagree on variables or field")
        if den is not None and den == Poly.constant(1, tvars, field):
            den = None  # no powers of 1 to form
        if var not in self.vars:
            raise PolyError(f"{var} is not a variable of this polynomial")
        if any(v != var and v not in tvars for v in self.vars):
            raise PolyError("an unbound variable is missing from the target variables")
        i = self.vars.index(var)
        kept = [(k, tvars.index(v)) for k, v in enumerate(self.vars) if k != i]
        if self.terms and len(num.terms) <= 1 and (den is None or len(den.terms) == 1):
            return self._substitute_term(i, kept, num, den)
        by_degree: dict = {}
        for e, c in self.terms.items():
            ne = [0] * len(tvars)
            for k, j in kept:
                ne[j] = e[k]
            by_degree.setdefault(e[i], {})[tuple(ne)] = c
        if not by_degree:
            return Poly.zero(tvars, field)
        d = max(by_degree)
        acc, den_power = Poly(tvars, by_degree[d], field), den
        for n in range(d - 1, -1, -1):
            acc = acc * num
            part = by_degree.get(n)
            if part is not None:
                part = Poly(tvars, part, field)
                acc = acc + (part if den is None else part * den_power)
            if den is not None and n:
                den_power = den_power * den
        return acc

    def _substitute_term(self, i: int, kept: list, num: "Poly", den: "Poly | None") -> "Poly":
        """``substitute`` for num = n*X^a or 0, and den = m*X^b if given:
        the term c*var^k*Y, Y re-keyed by ``kept``, maps to the one term
        c*n^k*m^(d-k)*X^(k*a + (d-k)*b)*Y, or to 0 when num = 0 and k > 0.
        The factor and the shift of each degree k are computed once, and a
        coefficient n or m of +-1 adds a sign, not a product."""
        (a, n), = num.terms.items() or (((0,) * len(num.vars), None),)
        (b, m), = den.terms.items() if den is not None else ((None, None),)
        d = max(e[i] for e in self.terms)
        images: dict = {}
        terms: dict = {}
        for e, c in self.terms.items():
            k = e[i]
            if k and n is None:
                continue
            image = images.get(k)
            if image is None:
                shift, factor, sign = [k * x for x in a], None, 1
                if m is not None:
                    shift = [s + (d - k) * y for s, y in zip(shift, b)]
                for x, j in ((n, k), (m, d - k)):
                    if x is None or not j:
                        continue
                    if x.den == 1 and abs(x.num[0]) == 1 and not any(x.num[1:]):
                        sign *= x.num[0] ** j
                    else:
                        xj = power(x, j)
                        factor = xj if factor is None else factor * xj
                image = images[k] = shift, factor, sign
            shift, factor, sign = image
            key = list(shift)
            for src, j in kept:
                key[j] += e[src]
            key = tuple(key)
            if factor is not None:
                c = c * factor
            if sign < 0:
                c = -c
            s = terms.get(key)
            terms[key] = c if s is None else s + c
        return Poly(num.vars, terms, num.field)

    def rename(self, mapping: dict, new_vars: tuple[str, ...]) -> "Poly":
        """Rename/reorder variables; every variable with a nonzero exponent
        must be mapped into new_vars."""
        new_vars = tuple(new_vars)
        terms = {}
        for e, c in self.terms.items():
            ne = [0] * len(new_vars)
            for i, n in enumerate(e):
                if n == 0:
                    continue
                tgt = mapping.get(self.vars[i], self.vars[i])
                ne[new_vars.index(tgt)] = n
            terms[tuple(ne)] = c
        return Poly(new_vars, terms, self.field)

    # -- printing ---------------------------------------------------------------

    def __repr__(self):
        return format_poly(self)

    def __str__(self):
        return format_poly(self)


def divided_difference(a: Poly, var: str, fresh: tuple[str, str]) -> Poly:
    """(a[var -> v1] - a[var -> v2]) / (v1 - v2), an exact polynomial.

    v1 takes ``var``'s place in the variable list and v2 is appended; v1 may
    be ``var`` itself.
    """
    v1, v2 = fresh
    if v1 != var and v1 in a.vars or v2 in a.vars:
        raise PolyError("fresh symbols already in use")
    new_vars = tuple(v1 if v == var else v for v in a.vars) + (v2,)
    i = a.vars.index(var)
    terms: dict = {}
    for e, c in a.terms.items():
        n = e[i]
        # (v1^n - v2^n)/(v1 - v2) = sum v1^(n-1-p) v2^p over p < n; v1 takes
        # var's place and v2 comes last
        for p in range(n):
            key = e[:i] + (n - 1 - p,) + e[i + 1:] + (p,)
            s = terms.get(key)
            terms[key] = c if s is None else s + c
    return Poly(new_vars, terms, a.field)


def format_exponent(vars, e) -> str:
    parts = []
    for name, n in zip(vars, e):
        if n == 0:
            continue
        parts.append(name if n == 1 else f"{name}^{n}")
    return "*".join(parts)


def format_poly(p: Poly) -> str:
    """Deterministic printing; parses back to the same polynomial."""
    if not p.terms:
        return "0"
    items = sorted(p.terms.items(), key=lambda t: local_key(t[0]))
    chunks = []
    for e, c in items:
        mono = format_exponent(p.vars, e)
        if not mono:
            cs = _coeff_str(c, standalone=True)
            chunks.append(cs)
            continue
        cs = _coeff_str(c, standalone=False)
        if cs == "1":
            chunks.append(mono)
        elif cs == "-1":
            chunks.append(f"-{mono}")
        else:
            chunks.append(f"{cs}*{mono}")
    out = chunks[0]
    for ch in chunks[1:]:
        out += f" - {ch[1:]}" if ch.startswith("-") else f" + {ch}"
    return out


def _coeff_str(c: FieldElem, standalone: bool) -> str:
    s = format_field_elem(c)
    if (" + " in s or " - " in s) and not standalone:
        return f"({s})"
    return s
