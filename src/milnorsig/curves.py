"""Component analysis of the double-point curve: decomposition, the
twisted/untwisted pairing, intersection tables, and the Milnor number of a
branch."""

from __future__ import annotations

from functools import cache

# poly_gcd is unused here; the perfbench tracer self-test reads curves.poly_gcd.
from .arith import poly_gcd, try_divide  # noqa: F401
from .factor import factor_components
from .germs import (AnalysisError, Germ, OverrideRequired, double_curve_equation,
                    is_local_unit_multiple)
from .localring import INFINITE, intersection_multiplicity, linear_pivot, milnor_number
from .poly import Poly, product


class ComponentSet:
    """components: ordered reduced equations h_1..h_n; pairing: index pairs
    (i, j) covering each index once, (i, i) for a twisted component and
    i != j for an untwisted pair; partner[i]: the other index of i's pair;
    intersection[i][j]: D_i . D_j for i != j (diagonal kept 0)."""

    def __init__(self, components, pairing, intersection):
        self.components = components
        self.pairing = pairing
        self.intersection = intersection
        self.partner = [0] * len(components)
        for i, j in pairing:
            self.partner[i], self.partner[j] = j, i


def decompose(curve_eq: Poly, override=None, factor=None) -> list[Poly]:
    """The branches through the origin of the reduced curve ``curve_eq``:
    the ``components`` override, or else its irreducible factors through
    the origin by ``factor`` (``factor_components``), sorted by
    ``canonical_key``.  Either list must multiply to ``curve_eq`` up to a
    unit of the local ring, and override components must pass through the
    origin, as the factors do."""
    if override is not None:
        comps = [h.normalized() for h in override]
        units = [i for i, h in enumerate(comps) if h.is_unit_local()]
        if units:
            raise AnalysisError(f"override components {units} miss the origin")
    else:
        comps = (factor or factor_components)(curve_eq)  # read here, so tracers see it
        if not comps:
            raise AnalysisError("no double-curve component passes through the origin")
    # curve_eq is reduced, so components whose product divides it with a
    # unit of the local ring as quotient are squarefree, pairwise coprime
    # and hold every branch through the origin
    if not is_local_unit_multiple(curve_eq, product(comps, curve_eq.vars, curve_eq.field)):
        source = "override components" if override is not None else "factors"
        raise AnalysisError(f"{source} do not multiply to the curve")
    return comps


def _dividing_pullbacks(h: Poly, a: Poly | None, b: Poly, comps: list[Poly],
                        pullbacks) -> list[int]:
    """The j with h | G_j = a^deg_v(g_j) * g_j(u, -b/a).  A branch h = c*x + r
    (``linear_pivot``) divides G_j exactly when G_j(x = -r/c) = 0, and that
    value is a_r^deg_v(g_j) * g_j(u, -b_r/a_r) with x = -r/c put into a and
    b first (a_r, b_r), then into u when x is u: G_j is never formed.  When
    x occurs in neither a nor b, a_r^deg_v(g_j) * g_j(u, -b_r/a_r) is G_j
    itself, so the shared ``pullbacks()`` are evaluated instead.  Any other
    branch divides the ``pullbacks()``."""
    pivot = linear_pivot([h])
    if pivot is None:
        return [j for j, G_j in enumerate(pullbacks()) if try_divide(G_j, h) is not None]
    _, x, root = pivot
    if all(p is None or p.degree_in(x) <= 0 for p in (a, b)):
        values = (G_j.substitute(x, root) for G_j in pullbacks())
    else:
        at_root = root.rename({}, h.vars)   # keeps x, with exponent 0
        a_r = None if a is None else a.substitute(x, at_root)
        neg_b_r = -b.substitute(x, at_root)
        values = (g.substitute("v", neg_b_r, a_r) for g in comps)
        if x == "u":
            values = (value.substitute("u", root) for value in values)
    return [j for j, value in enumerate(values) if value.is_zero()]


def _partners(f: Germ, comps: list[Poly]) -> list[list[int]]:
    """Each branch's candidate partners.  With (a, b) the germ's
    ``multipoint.line`` (a None for 1), the double-point space has the one
    point v2 = -b/a over (u, v1 = v) where a != 0 (subresultant theorem).  So
    when no G_j = a^deg_v(g_j) * g_j(u, -b/a) is zero, a branch h_i that
    does not divide a is decided: its partners are the j with h_i | G_j
    (``_dividing_pullbacks``).  No G_j is zero when W = a*b_v - b*a_v (b_v
    when a is None) is not: then (u, v) -> (u, -b/a) is dominant (Jacobian
    criterion, characteristic 0), so only for W = 0 are the G_j formed and
    checked.
    The partner map swaps v1 <-> v2, an involution, so an undecided branch's
    partners are the decided branches that name it, or else the undecided
    branches that no decided branch names (itself alone: twisted)."""
    line, found = f.multipoint.line, [None] * len(comps)
    if line is not None:
        a, b = line
        pullbacks = cache(lambda: [g.substitute("v", -b, a) for g in comps])
        dominant = (b.degree_in("v") > 0 if a is None else
                    not (a * b.derivative("v") - b * a.derivative("v")).is_zero())
        if dominant or not any(G_j.is_zero() for G_j in pullbacks()):
            found = [_dividing_pullbacks(h, a, b, comps, pullbacks)
                     if a is None or try_divide(a, h) is None else None for h in comps]
    named = {j for p in found if p is not None for j in p}
    unnamed = [i for i, p in enumerate(found) if p is None and i not in named]
    return [p if p is not None
            else [k for k, q in enumerate(found) if q is not None and i in q] or unnamed
            for i, p in enumerate(found)]


def classify_twist(f: Germ, comps: list[Poly], override=None):
    """The twist pairing of ``comps`` as index pairs (i, j), i == j for a
    twisted component: the ``twist`` override, checked, or else each
    component paired with its one candidate from ``_partners``; several
    candidates ask for the override.  An override pair (i, j) needs j among
    the candidates of i; a germ without multiple-point data has none, and
    its override is trusted."""
    if override is not None:
        covered = sorted(i for pair in override for i in set(pair))
        if covered != list(range(len(comps))):
            raise AnalysisError("twist override is not a partition of components")
        try:
            partners = _partners(f, comps)
        except OverrideRequired:  # f.multipoint: no multiple-point data
            return list(override)
        if any(j not in partners[i] for i, j in override):
            raise AnalysisError(
                "twist override disagrees with the divided-difference partners")
        return list(override)
    partners = _partners(f, comps)
    for i, found in enumerate(partners):
        if len(found) != 1:
            raise OverrideRequired(
                f"twist classification ambiguous for component {i}: "
                f"candidates {found}; supply the twist override")
        if partners[found[0]] != [i]:
            raise AnalysisError("twist pairing is not an involution")
    return [(i, j) for i, (j,) in enumerate(partners) if i <= j]


def intersection_table(comps: list[Poly]):
    n = len(comps)
    table = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            m = intersection_multiplicity(comps[i], comps[j])
            if m == INFINITE:
                raise AnalysisError(
                    f"components {i} and {j} share a branch (repeated component?)")
            table[i][j] = table[j][i] = m
    return table


def v_axis_multiplicities(comps: list[Poly]):
    """D_i . {v = 0} = dim C{u}/(h_i(u, 0)) for each branch h_i: the least
    u-exponent among the terms of h_i free of v."""
    out = []
    for h in comps:
        orders = [a for a, b in h.terms if b == 0]
        if not orders:
            raise AnalysisError("a double-curve component contains {v = 0}")
        out.append(min(orders))
    return out


def curve_milnor(h: Poly) -> int:
    """The Milnor number at the origin of the reduced curve h = 0."""
    m = milnor_number(h)
    if m == INFINITE:
        raise AnalysisError("curve has a non-isolated singularity")
    return m


def component_set(f: Germ) -> ComponentSet:
    """The component set of f's double curve ``double_curve_equation(f)``:
    with no override for the curve or its components, the branches from
    ``MultiPointData.factor``, checked by ``decompose`` as on every route."""
    ov = f.overrides
    curve = double_curve_equation(f)
    if ov.double_curve is None and ov.components is None:
        comps = decompose(curve, factor=f.multipoint.factor)
    else:
        comps = decompose(curve, ov.components)
    pairing = classify_twist(f, comps, ov.twist)
    return ComponentSet(comps, pairing, intersection_table(comps))
