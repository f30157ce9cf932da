"""Exact division, gcd, squarefree parts, and resultants for sparse Poly.

gcds use the primitive polynomial-remainder-sequence recursion; resultants
use the subresultant PRS with the sign convention of the Sylvester
determinant (rows of the first argument on top).
"""

from __future__ import annotations

from .poly import Poly, PolyError


def _global_key(exp):
    # graded lex: a well-order suitable for exact polynomial division
    return (sum(exp), exp)


def try_divide(a: Poly, b: Poly) -> Poly | None:
    """Exact quotient a/b, or None when b does not divide a."""
    if b.is_zero():
        raise PolyError("division by zero polynomial")
    q = Poly.zero(a.vars, a.field)
    r = a
    lb = max(b.terms, key=_global_key) if b.terms else None
    cb = b.terms[lb]
    cb_inv = cb.inverse()
    while not r.is_zero():
        lr = max(r.terms, key=_global_key)
        if any(x < y for x, y in zip(lr, lb)):
            return None
        mono = tuple(x - y for x, y in zip(lr, lb))
        coeff = r.terms[lr] * cb_inv
        t = Poly(a.vars, {mono: coeff}, a.field)
        q = q + t
        r = r - t * b
    return q


def exact_divide(a: Poly, b: Poly) -> Poly:
    q = try_divide(a, b)
    if q is None:
        raise PolyError("inexact polynomial division")
    return q


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
    r = list(a[: da + 1])
    for k in range(da, db - 1, -1):
        lead = r[k]
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
    return g


def poly_gcd(a: Poly, b: Poly) -> Poly:
    """gcd normalized to leading coefficient 1 under the local order."""
    if a.is_zero() and b.is_zero():
        raise PolyError("gcd(0, 0) is undefined")
    if a.is_zero():
        return b.normalized()
    if b.is_zero():
        return a.normalized()
    # main variable: the cheapest PRS, i.e. smallest maximal degree
    candidates = [v for v in a.vars if a.degree_in(v) > 0 or b.degree_in(v) > 0]
    if not candidates:
        return Poly.constant(1, a.vars, a.field)
    var = min(candidates, key=lambda v: max(a.degree_in(v), b.degree_in(v)))
    if a.degree_in(var) == 0:
        ub = _univ_coeffs(b, var)
        return poly_gcd(a, _content(ub)).normalized()
    if b.degree_in(var) == 0:
        ua = _univ_coeffs(a, var)
        return poly_gcd(_content(ua), b).normalized()
    ua, ub = _univ_coeffs(a, var), _univ_coeffs(b, var)
    ca, cb = _content(ua), _content(ub)
    cont = poly_gcd(ca, cb)
    g = [exact_divide(c, ca) for c in ua]
    h = [exact_divide(c, cb) for c in ub]
    if _udeg(g) < _udeg(h):
        g, h = h, g
    while _udeg(h) >= 0:
        r = _pseudo_rem(g, h)
        if _udeg(r) < 0:
            g = h
            break
        cr = _content(r)
        g, h = h, [exact_divide(c, cr) for c in r]
    if _udeg(g) == 0:
        return cont.normalized()
    gp = _from_univ(g, var, a.vars, a.field)
    return (gp * cont).normalized()


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
    if a.is_zero() or b.is_zero():
        raise PolyError("resultant of zero polynomial")
    da, db = a.degree_in(var), b.degree_in(var)
    if da <= 0 and db <= 0:
        raise PolyError(f"both inputs constant in {var}")
    if da <= 0:
        return a ** db
    if db <= 0:
        return b ** da
    sign = 1
    A, B = _univ_coeffs(a, var), _univ_coeffs(b, var)
    if da < db:
        A, B = B, A
        if (da & 1) and (db & 1):
            sign = -sign
    vars, field = a.vars, a.field
    one = Poly.constant(1, vars, field)
    g, h = one, one
    while True:
        dA, dB = _udeg(A), _udeg(B)
        delta = dA - dB
        if (dA & 1) and (dB & 1):
            sign = -sign
        R = _pseudo_rem(A, B)
        A = B
        denom = g * (h ** delta)
        B = [exact_divide(c, denom) for c in R]
        g = A[_udeg(A)]
        if delta > 1:
            h = exact_divide(g ** delta, h ** (delta - 1))
        elif delta == 1:
            h = g
        # delta == 0: h unchanged
        dB = _udeg(B)
        if dB < 0:
            return Poly.zero(vars, field)
        if dB == 0:
            dA = _udeg(A)
            res = exact_divide(B[0] ** dA, h ** (dA - 1)) if dA > 1 else (
                B[0] if dA == 1 else h
            )
            return res if sign == 1 else -res
