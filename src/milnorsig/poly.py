"""Sparse multivariate polynomials over a number field.

Terms are a map from exponent vectors to nonzero FieldElem coefficients.
Polynomials are immutable values: every operation returns a fresh Poly.
"""

from __future__ import annotations

from fractions import Fraction

from .fields import FieldElem, NumberField


class PolyError(ValueError):
    pass


def local_key(exp: tuple[int, ...]):
    """Sort key of the local monomial order, in which 1 is larger than every
    non-constant monomial: negative total degree, ties broken by reverse
    lexicographic comparison.  Larger key means larger monomial."""
    return (-sum(exp), tuple(-e for e in reversed(exp)))


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

    def constant_term(self) -> FieldElem:
        zero = (0,) * len(self.vars)
        return self.terms.get(zero, self.field.zero())

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
        e = max(self.terms, key=local_key)
        return e, self.terms[e]

    def normalized(self) -> "Poly":
        """Scaled so the leading coefficient is 1."""
        if not self.terms:
            return self
        _, c = self.leading()
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
        result = Poly.constant(1, self.vars, self.field)
        base = self
        while n:
            if n & 1:
                result = result * base
            n >>= 1
            if n:
                base = base * base
        return result

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

    def substitute(self, bindings: dict) -> "Poly":
        """Ring homomorphism sending each bound variable to a Poly.

        All images must share one variable list; unbound variables must exist
        there under their own name.
        """
        images = {}
        target = None
        for name, img in bindings.items():
            if name not in self.vars:
                raise PolyError(f"{name} is not a variable of this polynomial")
            if target is None:
                target = (img.vars, img.field)
            elif (img.vars, img.field) != target:
                raise PolyError("substitution images disagree on variables or field")
            images[name] = img
        if target is None:
            return self
        tvars, field = target
        if field != self.field:
            raise PolyError("substitution cannot change the coefficient field")
        for v in self.vars:
            if v not in images:
                images[v] = Poly.variable(v, tvars, field)
        result = Poly.zero(tvars, field)
        powers: dict = {}

        def power(name, n):
            if (name, n) not in powers:
                powers[(name, n)] = images[name] ** n
            return powers[(name, n)]

        for e, c in self.terms.items():
            term = Poly.constant(c, tvars, field)
            for i, n in enumerate(e):
                if n:
                    term = term * power(self.vars[i], n)
            result = result + term
        return result

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

    The fresh names replace ``var`` in the variable list.
    """
    v1, v2 = fresh
    if v1 in a.vars or v2 in a.vars:
        raise PolyError("fresh symbols already in use")
    new_vars = tuple(v1 if v == var else v for v in a.vars) + (v2,)
    terms: dict = {}
    i = a.vars.index(var)
    j_new = new_vars.index(v1)
    k_new = len(new_vars) - 1
    for e, c in a.terms.items():
        n = e[i]
        base = [0] * len(new_vars)
        for idx, val in enumerate(e):
            if idx == i:
                continue
            base[new_vars.index(a.vars[idx] if a.vars[idx] != var else v1)] = val
        # (v1^n - v2^n)/(v1 - v2) = sum v1^a v2^b over a+b = n-1
        for p in range(n):
            ne = list(base)
            ne[j_new] += n - 1 - p
            ne[k_new] += p
            key = tuple(ne)
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
    items = sorted(p.terms.items(), key=lambda t: local_key(t[0]), reverse=True)
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
    from .fields import format_field_elem

    s = format_field_elem(c)
    if (" + " in s or " - " in s) and not standalone:
        return f"({s})"
    return s
