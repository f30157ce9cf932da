"""Factorization of plane-curve equations into their branches through the
origin.

Not a general bivariate factorizer: the strategy is variable/content
extraction, Newton-polygon edge roots x = c*y^m for factors of degree <= 2 in
some variable, and a single-edge Newton-polygon irreducibility certificate.
A piece that is a unit of the local ring has no branch through the origin and
is dropped unsplit.  Anything it cannot certify raises OverrideRequired, so
the germ file can supply components explicitly.  The factors are not
multiplied back here: ``curves.decompose`` checks them against the curve.
"""

from __future__ import annotations

from collections import Counter
from math import gcd

from .arith import _content, _univ_coeffs, exact_divide, try_divide
from .fields import quadratic_roots
from .poly import Poly, PolyError, local_key


class OverrideRequired(ValueError):
    """The automatic route does not apply; the germ file must supply data."""


def factor_components(s: Poly) -> list[Poly]:
    """Certified irreducible factors of s that vanish at the origin, pairwise
    non-associate and sorted by ``canonical_key``."""
    if s.is_zero() or s.is_constant():
        raise PolyError("cannot factor a constant")
    factors: list[Poly] = []
    work = [s.normalized()]
    while work:
        h = work.pop()
        if h.is_unit_local():
            continue
        active = [v for v in h.vars if h.degree_in(v) > 0]
        # monomial variable factors; once they are split off, a piece left
        # in one variable has a constant term and is dropped above
        mono = next((v for v in active
                     if all(e[h.vars.index(v)] > 0 for e in h.terms)), None)
        if mono is not None:
            var = Poly.variable(mono, h.vars, h.field)
            factors.append(var)
            work.append(exact_divide(h, var))
            continue
        # content with respect to a variable; a one-term coefficient in v
        # makes the content in v a monomial, and no variable divides h now
        cont = next((c for c in (_content(_univ_coeffs(h, v)) for v in active
                                 if not _has_one_term_coefficient(h, v))
                     if not c.is_constant()), None)
        if cont is not None:
            work.extend((cont, exact_divide(h, cont)))
            continue
        if len(active) > 2:
            raise OverrideRequired(f"more than two variables in {h}")
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
                # both pieces are linear in x and, by Gauss's lemma, primitive
                # as h is: irreducible, so final unless a unit
                factors.extend(p.normalized() for p in pair if not p.is_unit_local())
                continue
        if _newton_certificate(h, x, y):
            factors.append(h.normalized())
            continue
        raise OverrideRequired(
            f"cannot certify a factorization of {h}; supply components explicitly"
        )
    # every factor is normalized, so a repeated factor of a non-squarefree
    # input is kept once, and the product check in curves.decompose rejects it
    return sorted(set(factors), key=canonical_key)


def _has_one_term_coefficient(h: Poly, v: str) -> bool:
    """Whether some coefficient of h, seen as univariate in v, is one term."""
    i = h.vars.index(v)
    return 1 in Counter(e[i] for e in h.terms).values()


def is_prime_factor(h: Poly) -> bool:
    """Whether a factor from ``factor_components`` is irreducible as a
    polynomial too, not only as a germ at the origin: a variable, a piece
    linear in a variable (split off primitive), or a Newton-certified
    binomial c*x^a + y^b with gcd(a, b) = 1.  A Newton-certified piece of
    more terms may carry a factor that is a unit of the local ring, even a
    square: (u - v^2)*(1 + u + v^2)^2 is certified whole."""
    return len(h.terms) <= 2 or any(h.degree_in(x) == 1 for x in h.vars)


def canonical_key(p: Poly):
    items = sorted(p.terms.items(), key=lambda t: local_key(t[0]))
    return tuple((e, c.coeffs) for e, c in items)


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

    h has degree 2 in x, and a segment of the hull holds one support point
    per x-exponent, so each edge polynomial has degree 1 or 2 and a nonzero
    constant term: its roots c are nonzero.  Returns (factor, quotient) or
    None."""
    supp = _support(h, x, y)
    hull = _lower_hull([(i, j) for i, j, _ in supp])
    field = h.field
    for (i1, j1), (i2, j2) in zip(hull, hull[1:]):
        di, dj = i2 - i1, j1 - j2
        if di <= 0 or dj <= 0 or dj % di:
            continue
        m = dj // di
        # edge polynomial in c: the coefficients on the segment, graded by i
        edge = {i: c for i, j, c in supp
                if (i - i1) * dj == (j1 - j) * di and i1 <= i <= i2}
        e = [edge.get(k, field.zero()) for k in range(i1, i2 + 1)]
        if di == 1:
            roots = [-e[0] / e[1]]
        else:
            inv = e[2].inverse()
            roots = quadratic_roots(field, e[1] * inv, e[0] * inv)
        for c in roots:
            cand = Poly.variable(x, h.vars, field) - (
                Poly.variable(y, h.vars, field) ** m
            ).scale(c)
            q = try_divide(h, cand)
            if q is not None:
                return cand, q
    return None


def _newton_certificate(h: Poly, x: str, y: str) -> bool:
    """Single-edge Newton polygon with coprime endpoints: certifies that h is
    irreducible as a curve germ at the origin."""
    supp = _support(h, x, y)
    a = min((i for i, j, _ in supp if j == 0), default=None)
    b = min((j for i, j, _ in supp if i == 0), default=None)
    if a is None or b is None or a < 1 or b < 1:
        return False
    if gcd(a, b) != 1:
        return False
    return all(i * b + j * a >= a * b for i, j, _ in supp)
