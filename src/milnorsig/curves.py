"""Component analysis of the double-point curve: decomposition, the
twisted/untwisted pairing, intersection tables, and the curve Milnor number."""

from __future__ import annotations

# poly_gcd is unused here; the perfbench tracer self-test reads curves.poly_gcd.
from .arith import poly_gcd, resultant, try_divide  # noqa: F401
from .factor import FactorizationIncomplete, factor_components
from .germs import AnalysisError, Germ, OverrideRequired, UV
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


def associate(a: Poly, b: Poly) -> bool:
    return a.normalized() == b.normalized()


def decompose(curve_eq: Poly, override=None) -> list[Poly]:
    """The branches through the origin of the reduced curve ``curve_eq``:
    the ``components`` override, checked against it, or else its irreducible
    factors that pass through the origin, sorted by ``canonical_key``."""
    if override is not None:
        # curve_eq is reduced, so components whose product divides it with a
        # unit of the local ring as quotient are squarefree, pairwise coprime
        # and hold every branch through the origin
        prod = Poly.constant(1, curve_eq.vars, curve_eq.field)
        for h in override:
            prod = prod * h
        rest = try_divide(curve_eq, prod)
        if rest is None or not rest.is_unit_local():
            raise AnalysisError("override components do not multiply to the curve")
        return [h.normalized() for h in override]
    try:
        factors = factor_components(curve_eq)
    except FactorizationIncomplete as exc:
        raise OverrideRequired(str(exc)) from exc
    # a unit of the local ring has no branch through the origin
    comps = [h for h in factors if not h.is_unit_local()]
    if not comps:
        raise AnalysisError("no double-curve component passes through the origin")
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


def classify_twist(f: Germ, comps: list[Poly], override=None):
    """The twist pairing of ``comps`` as index pairs (i, j), i == j for a
    twisted component: the ``twist`` override, checked, or else each
    component paired with its partners.  On a fold germ the partner of
    h(u, v) is h(u, -v), since v -> -v permutes the branches of the reduced
    fold curve; elsewhere it comes from ``_general_partner``."""
    if f.fold_data is not None:
        v = Poly.variable("v", UV, comps[0].field)
        flipped = [h.substitute({"v": -v}) for h in comps]

        def partners(i):
            return [j for j, g in enumerate(comps) if associate(g, flipped[i])]
    else:
        comps_v2 = [h.rename({"v": "v2"}, ("u", "v1", "v2")).normalized()
                    for h in comps]

        def partners(i):
            return _general_partner(comps[i], f.multipoint, comps_v2)
    if override is not None:
        covered = sorted(i for pair in override for i in set(pair))
        if covered != list(range(len(comps))):
            raise AnalysisError("twist override is not a partition of components")
        # v -> -v is an involution, so partners(i) == [j] gives partners(j) == [i]
        if f.fold_data is not None and any(partners(i) != [j] for i, j in override):
            raise AnalysisError("twist override disagrees with v -> -v")
        return list(override)
    pairing = []
    seen = set()
    for i in range(len(comps)):
        if i in seen:
            continue
        found = partners(i)
        if len(found) != 1:
            raise OverrideRequired(
                f"twist classification ambiguous for component {i}: "
                f"candidates {found}; supply the twist override")
        j = found[0]
        if j != i and partners(j) != [i]:
            raise AnalysisError("twist pairing is not an involution")
        pairing.append((i, j))
        seen.update((i, j))
    return pairing


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
    v = Poly.variable("v", UV, comps[0].field)
    out = []
    for h in comps:
        m = intersection_multiplicity(h, v)
        if m == INFINITE:
            raise AnalysisError("a double-curve component contains {v = 0}")
        out.append(m)
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
