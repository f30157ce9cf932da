"""Factorization of plane-curve equations into component equations.

Not a general bivariate factorizer: on a squarefree input the strategy is
variable/content extraction, Newton-polygon edge roots x = c*y^m for factors
of degree <= 2 in some variable, and a single-edge Newton-polygon
irreducibility certificate.  Anything it cannot certify raises
FactorizationIncomplete so the caller can supply components explicitly.
"""

from __future__ import annotations

from .arith import _content, _univ_coeffs, exact_divide, try_divide
from .fields import quadratic_roots
from .poly import Poly, PolyError, local_key


class FactorizationIncomplete(ValueError):
    pass


def factor_components(s: Poly) -> list[Poly]:
    """Certified irreducible factors of a squarefree s, pairwise
    non-associate and sorted by ``canonical_key``.  Their product must equal s
    up to a coefficient-field unit, so an s that is not squarefree raises
    PolyError (or FactorizationIncomplete, if a repeated factor defeats the
    certificate first)."""
    if s.is_zero() or s.is_constant():
        raise PolyError("cannot factor a constant")
    factors = _factor_squarefree(s)
    prod = Poly.constant(1, s.vars, s.field)
    for f in factors:
        prod = prod * f
    if prod.normalized() != s.normalized():
        raise PolyError("factors do not multiply back to the input; "
                        "is it squarefree?")
    return factors


def _factor_squarefree(s: Poly) -> list[Poly]:
    factors: list[Poly] = []
    work = [s.normalized()]
    while work:
        h = work.pop()
        if h.is_constant():
            continue
        active = [v for v in h.vars if h.degree_in(v) > 0]
        if len(active) == 1:
            factors.extend(_factor_univariate(h, active[0]))
            continue
        # monomial variable factors
        split = False
        for v in active:
            i = h.vars.index(v)
            if all(e[i] > 0 for e in h.terms):
                factors.append(Poly.variable(v, h.vars, h.field))
                work.append(exact_divide(h, Poly.variable(v, h.vars, h.field)))
                split = True
                break
        if split:
            continue
        # content with respect to a variable
        for v in active:
            cont = _content(_univ_coeffs(h, v))
            if not cont.is_constant():
                work.append(cont)
                work.append(exact_divide(h, cont))
                split = True
                break
        if split:
            continue
        if len(active) > 2:
            raise FactorizationIncomplete(f"more than two variables in {h}")
        x, y = active
        if h.degree_in(y) < h.degree_in(x):
            x, y = y, x
        # primitive and linear in a variable: irreducible
        if h.degree_in(x) == 1:
            factors.append(h.normalized())
            continue
        if h.degree_in(x) == 2:
            pair = _split_by_edge_root(h, x, y)
            if pair is not None:
                work.extend(pair)
                continue
        if _newton_certificate(h, x, y):
            factors.append(h.normalized())
            continue
        raise FactorizationIncomplete(
            f"cannot certify a factorization of {h}; supply components explicitly"
        )
    # canonical order; a repeated factor of a non-squarefree input is kept
    # once, so that the product check in factor_components rejects it
    uniq: list[Poly] = []
    for f in factors:
        f = f.normalized()
        if f not in uniq:
            uniq.append(f)
    uniq.sort(key=canonical_key)
    return uniq


def canonical_key(p: Poly):
    items = sorted(p.terms.items(), key=lambda t: local_key(t[0]), reverse=True)
    return tuple((e, c.coeffs) for e, c in items)


def _factor_univariate(h: Poly, var: str) -> list[Poly]:
    field = h.field
    factors = []
    # x = 0 roots
    i = h.vars.index(var)
    while all(e[i] > 0 for e in h.terms):
        factors.append(Poly.variable(var, h.vars, h.field))
        h = exact_divide(h, Poly.variable(var, h.vars, h.field))
    d = h.degree_in(var)
    if d <= 0:
        return factors
    if d == 1:
        factors.append(h.normalized())
        return factors
    if d == 2:
        coeffs = [c.constant_term() for c in _univ_coeffs(h, var)]
        lead_inv = coeffs[2].inverse()
        roots = quadratic_roots(field, coeffs[1] * lead_inv, coeffs[0] * lead_inv)
        if roots:
            for r in roots:
                lin = Poly.variable(var, h.vars, h.field) - Poly.constant(r, h.vars, field)
                factors.append(lin.normalized())
            if len(roots) == 1:  # double root contradicts squarefree input
                raise PolyError("internal error: squarefree input with double root")
            return factors
        factors.append(h.normalized())
        return factors
    raise FactorizationIncomplete(f"univariate factor of degree {d}: {h}")


def _support(h: Poly, x: str, y: str):
    ix, iy = h.vars.index(x), h.vars.index(y)
    return [(e[ix], e[iy], c) for e, c in h.terms.items()]


def _lower_hull(points):
    """Lower-left Newton boundary of (i, j) support points: for each i keep
    the minimal j, then take the lower convex chain by increasing i."""
    best = {}
    for i, j in points:
        if i not in best or j < best[i]:
            best[i] = j
    pts = sorted(best.items())
    hull = []
    for p in pts:
        while len(hull) >= 2:
            (i1, j1), (i2, j2) = hull[-2], hull[-1]
            # drop hull[-1] if not strictly below the segment hull[-2] -> p
            if (j2 - j1) * (p[0] - i1) >= (p[1] - j1) * (i2 - i1):
                hull.pop()
            else:
                break
        hull.append(p)
    return hull


def _split_by_edge_root(h: Poly, x: str, y: str):
    """Try to split off a factor x - c*y^m found on a Newton-polygon edge.

    Returns (factor, quotient) or None."""
    supp = _support(h, x, y)
    hull = _lower_hull([(i, j) for i, j, _ in supp])
    field = h.field
    for (i1, j1), (i2, j2) in zip(hull, hull[1:]):
        di, dj = i2 - i1, j1 - j2
        if di <= 0 or dj <= 0 or dj % di:
            continue
        m = dj // di
        # edge polynomial in c: sum of coefficients on the segment, graded by i
        edge = {}
        for i, j, c in supp:
            if (i - i1) * dj == (j1 - j) * di and i1 <= i <= i2:
                edge[i] = edge.get(i, field.zero()) + c
        degs = sorted(edge)
        lo = degs[0]
        e = [edge.get(k, field.zero()) for k in range(lo, degs[-1] + 1)]
        if len(e) - 1 > 2:
            continue
        roots = []
        if len(e) - 1 == 1:
            roots = [-e[0] / e[1]]
        elif len(e) - 1 == 2:
            inv = e[2].inverse()
            roots = quadratic_roots(field, e[1] * inv, e[0] * inv)
        for c in roots:
            if c.is_zero():
                continue
            cand = Poly.variable(x, h.vars, field) - (
                Poly.variable(y, h.vars, field) ** m
            ).scale(c)
            q = try_divide(h, cand)
            if q is not None:
                return cand.normalized(), q
    return None


def _newton_certificate(h: Poly, x: str, y: str) -> bool:
    """Single-edge Newton polygon with coprime endpoints: certifies that h is
    irreducible as a curve germ at the origin."""
    from math import gcd

    supp = _support(h, x, y)
    a = min((i for i, j, _ in supp if j == 0), default=None)
    b = min((j for i, j, _ in supp if i == 0), default=None)
    if a is None or b is None or a < 1 or b < 1:
        return False
    if gcd(a, b) != 1:
        return False
    return all(i * b + j * a >= a * b for i, j, _ in supp)
