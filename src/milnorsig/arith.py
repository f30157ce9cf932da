"""Exact division, gcd, squarefree parts, and resultants for sparse Poly.

One subresultant polynomial remainder sequence (PRS) serves both gcds and
resultants.  A gcd is the gcd of the contents times the primitive part of
the last nonzero remainder; a resultant follows from the last two remainders
with the sign convention of the Sylvester determinant (rows of the first
argument on top), and one run also gives the degree-1 subresultant.  A gcd
with a one-term input, a constant included, needs no PRS: it is the
monomial of the least exponents.  Nor does a resultant with an input of
degree 1 in the variable: it is one substitution of that input's root.
Nor does a resultant with an input y whose leading coefficient in the
variable is a constant c, against an input x of no smaller degree: with
r = x mod y (``monic_remainder``, one pass over x's terms),
Res(y, x) = c^(deg x - deg r) * Res(y, r), and the pair (y, r) goes on by
these rules, the PRS only when none applies.
Nor does a gcd whose primitive parts one image proves coprime: with every
other variable put equal to the first c in 1, 2, 3 at which neither leading
coefficient in the main variable vanishes, Euclid's algorithm on their
univariate images, each step a ``monic_remainder``, ends in a nonzero
constant.  A common factor g of positive degree would have survived, since
lc(g) divides both leading coefficients and so deg g(c) = deg g (Brown,
J. ACM 18, 1971); the gcd is then the gcd of the contents.  Only pairs that
fail this test run the multivariate PRS.

The PRS runs on integral inputs: at its entry each view is multiplied by the
least common denominator L of the coordinates of its coefficients.  Over
fields whose minimal polynomial has integer coefficients (Q, Q(i), Q(zeta3))
the products of such coordinates stay integers, and so do the remainders,
being subresultants, determinants of the scaled coefficients.  So no product
in the loop makes a denominator that must be cancelled; only an exact
division's quotient terms do, one each.  Other fields get the same values,
with denominators.  A gcd is normalized, so the scaling drops out of it; a
resultant undoes it exactly with
Res(La*a, Lb*b) = La^deg(b) * Lb^deg(a) * Res(a, b).
"""

from __future__ import annotations

import math
from fractions import Fraction

from .poly import Poly, PolyError, local_key, power


def try_divide(a: Poly, b: Poly) -> Poly | None:
    """Exact quotient a/b, or None when b does not divide a.

    Each quotient term t cancels the leading term of the remainder, and t
    times the rest of b is subtracted from the remainder's terms in place."""
    if b.is_zero():
        raise PolyError("division by zero polynomial")
    q = {}
    r = dict(a.terms)
    lb = max(b.terms, key=local_key)
    cb_inv = b.terms[lb].inverse()
    rest = [(e, c) for e, c in b.terms.items() if e != lb]
    while r:
        lr = max(r, key=local_key)
        if any(x < y for x, y in zip(lr, lb)):
            return None
        mono = tuple(x - y for x, y in zip(lr, lb))
        coeff = r.pop(lr) * cb_inv
        q[mono] = coeff
        for e, c in rest:
            k = tuple(x + y for x, y in zip(mono, e))
            s = r.get(k)
            if s is None:
                r[k] = -(coeff * c)
            else:
                s = s - coeff * c
                if s.is_zero():
                    del r[k]
                else:
                    r[k] = s
    return Poly(a.vars, q, a.field)


def exact_divide(a: Poly, b: Poly) -> Poly:
    q = try_divide(a, b)
    if q is None:
        raise PolyError("inexact polynomial division")
    return q


def _constant_lead(p: Poly, var: str):
    """p's coefficient of var^deg_var(p) when it is a nonzero constant, else
    None (p = 0 included)."""
    i = p.vars.index(var)
    d = p.degree_in(var)
    lead = [(e, c) for e, c in p.terms.items() if e[i] == d]
    if len(lead) == 1 and sum(lead[0][0]) == d:
        return lead[0][1]
    return None


def monic_remainder(a: Poly, b: Poly, var: str) -> Poly:
    """The remainder of a by b in var, for b whose coefficient of
    var^deg_var(b) is a nonzero constant c; PolyError otherwise.

    The terms of a are bucketed by their degree in var and reduced from the
    highest degree down, in place: a term x*m of degree k >= deg_var(b) is
    replaced by x*m/var^deg_var(b) times -(b - c*var^deg_var(b))/c, whose
    terms all have degree below k.  The multipliers -b_j/c are formed once,
    with no inverse when c = 1, and one of +-1 costs a sign, not a product."""
    a._check_compat(b)
    c = _constant_lead(b, var)
    if c is None:
        raise PolyError(f"divisor's leading coefficient in {var} is not a constant")
    i = a.vars.index(var)
    db = b.degree_in(var)
    one = a.field.one()
    inv = None if c == one else c.inverse()
    rest = []
    for e, x in b.terms.items():
        if e[i] == db:
            continue
        y = -x if inv is None else -(x * inv)
        rest.append((e, y, 1 if y == one else -1 if -y == one else 0))
    buckets: dict = {}
    for e, x in a.terms.items():
        buckets.setdefault(e[i], {})[e] = x
    for k in range(max(buckets, default=-1), db - 1, -1):
        for e, x in buckets.pop(k, {}).items():
            shift = e[:i] + (k - db,) + e[i + 1:]
            for f, y, sign in rest:
                key = tuple([s + t for s, t in zip(shift, f)])
                t = x * y if not sign else x if sign > 0 else -x
                bucket = buckets.setdefault(key[i], {})
                s = bucket.get(key)
                if s is None:
                    bucket[key] = t
                else:
                    s = s + t
                    if s.is_zero():
                        del bucket[key]
                    else:
                        bucket[key] = s
    return Poly(a.vars, {e: x for bucket in buckets.values() for e, x in bucket.items()},
                a.field)


# -- univariate views ----------------------------------------------------------


def _univ_coeffs(p: Poly, var: str) -> list[Poly]:
    """Coefficients of p seen as univariate in var (index = exponent);
    coefficients are Polys on the same variable list with var-exponent 0."""
    i = p.vars.index(var)
    d = p.degree_in(var)
    out = [dict() for _ in range(max(d, 0) + 1)]
    for e, c in p.terms.items():
        ne = list(e)
        k = ne[i]
        ne[i] = 0
        out[k][tuple(ne)] = c
    return [Poly(p.vars, t, p.field) for t in out]


def _from_univ(coeffs: list[Poly], var: str, vars, field) -> Poly:
    i = vars.index(var)
    terms = {}
    for k, c in enumerate(coeffs):
        for e, x in c.terms.items():
            ne = list(e)
            ne[i] += k
            terms[tuple(ne)] = x
    return Poly(vars, terms, field)


def _udeg(coeffs: list[Poly]) -> int:
    for i in range(len(coeffs) - 1, -1, -1):
        if not coeffs[i].is_zero():
            return i
    return -1


def _pseudo_rem(a: list[Poly], b: list[Poly]) -> list[Poly]:
    """Pseudo-remainder of univariate-view polynomials: lc(b)^(da-db+1)*a mod b."""
    da, db = _udeg(a), _udeg(b)
    lb = b[db]
    monic = lb == Poly.constant(1, lb.vars, lb.field)
    r = list(a[: da + 1])
    for k in range(da, db - 1, -1):
        lead = r[k]
        if not monic:
            r = [c * lb for c in r]
        if not lead.is_zero():
            for j in range(db + 1):
                r[k - db + j] = r[k - db + j] - lead * b[j]
    return r[:db] if db > 0 else [Poly.zero(lb.vars, lb.field)]


def _content(coeffs: list[Poly]) -> Poly:
    g = Poly.zero(coeffs[0].vars, coeffs[0].field)
    for c in coeffs:
        if not c.is_zero():
            g = poly_gcd(g, c)
            if g.is_constant():
                break  # normalized: 1, and every later gcd is 1
    return g


def _primitive(coeffs: list[Poly]) -> tuple[Poly, list[Poly]]:
    """(content, primitive part) of a univariate view.  Contents are
    normalized, so a constant content is 1 and leaves the view as it is."""
    g = _content(coeffs)
    return g, coeffs if g.is_constant() else [exact_divide(c, g) for c in coeffs]


def _cleared(coeffs: list[Poly]) -> tuple[int, list[Poly]]:
    """(L, L * coeffs) with L the least common denominator of the coordinates
    of every coefficient of a univariate view."""
    L = math.lcm(*(x.den for c in coeffs for x in c.terms.values()))
    return L, coeffs if L == 1 else [c.scale(L) for c in coeffs]


def _subresultants(A: list[Poly], B: list[Poly]):
    """Subresultant PRS of univariate views of positive degree, run on
    La * A and Lb * B with integral coordinates (see the module docstring).

    Returns (S, R, h, factor): S is the last remainder of positive degree, R
    the remainder after it (a constant, zero when S divides the previous
    one), h the scale of the step that made R, and factor the rational that
    turns the subresultant into the Sylvester determinant of A and B (rows of
    A on top): the sign of the degree swaps over La^deg(B) * Lb^deg(A)."""
    one = Poly.constant(1, A[0].vars, A[0].field)
    La, A = _cleared(A)
    Lb, B = _cleared(B)
    unscale = La ** _udeg(B) * Lb ** _udeg(A)
    g, h, sign = one, one, 1
    if _udeg(A) < _udeg(B):
        A, B = B, A
        if _udeg(A) & _udeg(B) & 1:
            sign = -1
    while True:
        dA, dB = _udeg(A), _udeg(B)
        delta = dA - dB
        if dA & dB & 1:
            sign = -sign
        R = _pseudo_rem(A, B)
        denom = g * (h ** delta)
        if denom != one:
            R = [exact_divide(c, denom) for c in R]
        A, B = B, R
        g = A[dB]
        if delta > 1:
            h = g ** delta if h == one else exact_divide(g ** delta, h ** (delta - 1))
        elif delta == 1:
            h = g
        # delta == 0: h unchanged
        if _udeg(B) <= 0:
            return A, B, h, Fraction(sign, unscale)


def _at(p: Poly, c: int):
    """p with every variable put equal to c."""
    x = p.field.zero()
    for e, k in p.terms.items():
        x = x + k * c ** sum(e)
    return x


def _coprime_image(A: list[Poly], B: list[Poly], var: str) -> bool:
    """Whether one image proves the primitive univariate views A and B in var
    coprime: with the other variables put equal to the first c in 1, 2, 3
    at which neither leading coefficient vanishes, Euclid's algorithm on the
    images (``monic_remainder``: their leading coefficients are constants)
    ends in a nonzero constant.  A common factor g of positive degree would
    survive: lc(g) divides lc(A), so g(c) keeps the degree of g.  False when
    there are no other variables, or no such c."""
    if all(x.is_constant() for x in A + B):
        return False
    for c in (1, 2, 3):
        if not (_at(A[-1], c).is_zero() or _at(B[-1], c).is_zero()):
            a, b = (Poly((var,), {(k,): _at(x, c) for k, x in enumerate(X)}, X[0].field)
                    for X in (A, B))
            while not b.is_zero():
                a, b = b, monic_remainder(a, b, var)
            return a.is_constant()
    return False


def poly_gcd(a: Poly, b: Poly) -> Poly:
    """gcd normalized to leading coefficient 1 under the local order.

    The contents in the main variable are split off first.  When one image
    proves the primitive parts coprime (``_coprime_image``: a common factor
    g has lc(g) dividing both leading coefficients, so it keeps its degree
    at a point where they do not vanish) the gcd is the gcd of the
    contents, the value the PRS would give; only otherwise does the PRS of
    the primitive parts run."""
    if a.is_zero() and b.is_zero():
        raise PolyError("gcd(0, 0) is undefined")
    if a.is_zero():
        return b.normalized()
    if b.is_zero():
        return a.normalized()
    if len(a.terms) == 1 or len(b.terms) == 1:
        # the divisors of a monomial are monomials, and x^m divides a
        # polynomial iff it divides each term: m is the least exponent
        m = tuple(map(min, *a.terms, *b.terms))
        return Poly(a.vars, {m: a.field.one()}, a.field)
    # main variable: the cheapest PRS, i.e. smallest maximal degree
    var = min((v for v in a.vars if a.degree_in(v) > 0 or b.degree_in(v) > 0),
              key=lambda v: max(a.degree_in(v), b.degree_in(v)))
    ca, pa = _primitive(_univ_coeffs(a, var))
    cb, pb = _primitive(_univ_coeffs(b, var))
    cont = poly_gcd(ca, cb)
    if _udeg(pa) > 0 and _udeg(pb) > 0 and not _coprime_image(pa, pb, var):
        S, R, _, _ = _subresultants(pa, pb)
        if _udeg(R) < 0:
            g = _from_univ(_primitive(S)[1], var, a.vars, a.field)
            return (g * cont).normalized()
    return cont


def squarefree_part(a: Poly) -> Poly:
    """Product of the distinct irreducible factors of a (characteristic 0),
    normalized to leading coefficient 1 under the local order."""
    if a.is_zero():
        raise PolyError("squarefree part of zero")
    g = a
    for v in a.vars:
        d = a.derivative(v)
        if not d.is_zero():
            g = poly_gcd(g, d)
    if g.is_constant():
        return a.normalized()
    return exact_divide(a, g).normalized()


def resultant(a: Poly, b: Poly, var: str) -> Poly:
    """Resultant with respect to var; sign fixed by the Sylvester determinant
    with the rows of a first.  Computed by the subresultant PRS."""
    return resultant_and_s1(a, b, var)[0]


def resultant_and_s1(a: Poly, b: Poly, var: str) -> tuple[Poly, Poly | None]:
    """(resultant(a, b, var), S1).  An input of degree 1 in var gives both
    by one substitution.  Else an input y whose leading coefficient in var
    is a constant c, against the other input x with deg x >= deg y, gives
    them from r = x mod y (``monic_remainder``): Res(y, x) = c^(dx - dr) *
    Res(y, r), 0 for r = 0 and r^dy for r free of var, and the pair (y, r)
    goes on by these rules or the PRS.  Otherwise one subresultant PRS
    gives both.  S1 is the degree-1 subresultant of a and b in var up to a
    constant factor, or None when there is none: an input of degree 1,
    else the first remainder of degree 1, its denominators cleared when it
    is x mod y."""
    if a.is_zero() or b.is_zero():
        raise PolyError("resultant of zero polynomial")
    da, db = a.degree_in(var), b.degree_in(var)
    if da <= 0 and db <= 0:
        raise PolyError(f"both inputs constant in {var}")
    s1 = a if da == 1 else b if db == 1 else None
    if da <= 0:
        return a ** db, s1
    if db <= 0:
        return b ** da, s1
    # one root: Res(a1*x + a0, b) = a1^deg(b) * b(-a0/a1), and
    # Res(a, b) = (-1)^(deg a * deg b) * Res(b, a)
    if da == 1:
        a0, a1 = _univ_coeffs(a, var)
        return b.substitute(var, -a0, a1), s1
    if db == 1:
        b0, b1 = _univ_coeffs(b, var)
        res = a.substitute(var, -b0, b1)
        return (-res if da % 2 else res), s1
    for x, y, dx, dy, sign in ((a, b, da, db, -1 if da & db & 1 else 1), (b, a, db, da, 1)):
        c = _constant_lead(y, var) if dx >= dy else None
        if c is not None:
            r = monic_remainder(x, y, var)
            if r.is_zero():
                return Poly.zero(a.vars, a.field), None
            res, s1 = resultant_and_s1(y, r, var)
            factor = sign * power(c, dx - r.degree_in(var))
            if factor != 1:
                res = res.scale(factor)
            return res, None if s1 is None else _cleared([s1])[1][0]
    S, R, h, factor = _subresultants(_univ_coeffs(a, var), _univ_coeffs(b, var))
    dS = _udeg(S)
    if dS == 1:
        s1 = _from_univ(S, var, a.vars, a.field)
    if _udeg(R) < 0:
        return Poly.zero(a.vars, a.field), s1
    res = R[0] if dS == 1 else exact_divide(R[0] ** dS, h ** (dS - 1))
    return res.scale(factor), s1
