"""Component analysis of the double-point curve: decomposition, the
twisted/untwisted pairing, intersection tables, and the curve Milnor number."""

from __future__ import annotations

# poly_gcd is unused here; the perfbench tracer self-test reads curves.poly_gcd.
from .arith import _univ_coeffs, poly_gcd, resultant, try_divide  # noqa: F401
from .factor import FactorizationIncomplete, factor_components
from .germs import AnalysisError, Germ, OverrideRequired, UV, is_local_unit_multiple
from .localring import INFINITE, intersection_multiplicity, milnor_number
from .poly import Poly


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


def decompose(curve_eq: Poly, override=None) -> list[Poly]:
    """The branches through the origin of the reduced curve ``curve_eq``:
    the ``components`` override, or else its irreducible factors that pass
    through the origin, sorted by ``canonical_key``.  Either list must
    multiply to ``curve_eq`` up to a unit of the local ring."""
    if override is not None:
        comps = [h.normalized() for h in override]
    else:
        try:
            comps = factor_components(curve_eq)
        except FactorizationIncomplete as exc:
            raise OverrideRequired(str(exc)) from exc
        if not comps:
            raise AnalysisError("no double-curve component passes through the origin")
    # curve_eq is reduced, so components whose product divides it with a
    # unit of the local ring as quotient are squarefree, pairwise coprime
    # and hold every branch through the origin
    prod = Poly.constant(1, curve_eq.vars, curve_eq.field)
    for h in comps:
        prod = prod * h
    if not is_local_unit_multiple(curve_eq, prod):
        source = "override components" if override is not None else "factors"
        raise AnalysisError(f"{source} do not multiply to the curve")
    return comps


def _general_partner(h: Poly, mp, comps_v2: list[Poly]) -> list[int]:
    """Indices of components dividing the elimination of v1 from
    (h(u, v1), P, Q), that is, dividing both resultants r0 = Res(h, P) and
    r1 = Res(h, Q).

    Every component g is squarefree (an irreducible factor, or an override
    component checked squarefree by ``decompose``), and for squarefree g,
    g divides sqfree(gcd(r0, r1)) exactly when g divides r0 and r1.  So two
    exact divisions replace the gcd."""
    h1 = h.rename({"v": "v1"}, ("u", "v1", "v2"))
    rs = []
    for g in (mp.P, mp.Q):
        if h1.degree_in("v1") <= 0 and g.degree_in("v1") <= 0:
            rs.append(g)
        else:
            rs.append(resultant(h1, g, "v1"))
    if rs[0].is_zero() or rs[1].is_zero():
        raise AnalysisError("degenerate elimination while classifying twists")
    return [j for j, g in enumerate(comps_v2)
            if try_divide(rs[0], g) is not None and try_divide(rs[1], g) is not None]


def _cleared_pullback(g: Poly, a: Poly, nb: Poly) -> Poly:
    """a^deg_v(g) * g(u, nb/a) by Horner's rule in v."""
    acc, a_power = Poly.zero(UV, g.field), Poly.constant(1, UV, g.field)
    for c_k in reversed(_univ_coeffs(g, "v")):
        acc = acc * nb + c_k * a_power
        a_power = a_power * a
    return acc


def _partners(f: Germ, comps: list[Poly]) -> list[list[int]]:
    """j is a partner of h_i when h_i divides G_j = a^deg_v(g_j) * g_j(u, -b/a),
    with a*v2 + b the germ's ``partner_line``, v1 read as v: where a != 0 the
    double-point space has the one point v2 = -b/a over (u, v1) (subresultant
    theorem).  ``_general_partner`` decides when there is no such line, a
    component divides a, or some G_j is zero."""
    line = f.partner_line
    G = None
    if line is not None:
        b, a = (c.rename({"v1": "v"}, UV) for c in _univ_coeffs(line, "v2"))
        if a.is_constant():  # fold germs and the cross-cap: P = v1 + v2
            w = b.scale(-a.terms[(0, 0)].inverse())
            G = [g.substitute({"v": w}) for g in comps]
        elif all(try_divide(a, h) is None for h in comps):
            G = [_cleared_pullback(g, a, -b) for g in comps]
    if G is None or any(G_j.is_zero() for G_j in G):
        comps_v2 = [h.rename({"v": "v2"}, ("u", "v1", "v2")).normalized() for h in comps]
        return [_general_partner(h, f.multipoint, comps_v2) for h in comps]
    return [[j for j, g in enumerate(G) if try_divide(g, h) is not None] for h in comps]


def classify_twist(f: Germ, comps: list[Poly], override=None):
    """The twist pairing of ``comps`` as index pairs (i, j), i == j for a
    twisted component: the ``twist`` override, checked, or else each
    component paired with its partners from ``_partners``.  An override
    pair (i, j) needs j among the partners of i; a germ without
    multiple-point data has no partners, and its override is trusted."""
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


def curve_milnor(curve_eq: Poly) -> int:
    m = milnor_number(curve_eq)
    if m == INFINITE:
        raise AnalysisError("double curve has non-isolated singularity")
    return m


def component_set(f: Germ, curve_eq: Poly) -> ComponentSet:
    """The component set of ``curve_eq = double_curve_equation(f)``."""
    ov = f.overrides
    comps = decompose(curve_eq, ov.components)
    pairing = classify_twist(f, comps, ov.twist)
    return ComponentSet(comps, pairing, intersection_table(comps))
