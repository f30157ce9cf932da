"""Component analysis of the double-point curve: decomposition, the
twisted/untwisted pairing, intersection tables, and the curve Milnor number."""

from __future__ import annotations

# poly_gcd is unused here; the perfbench tracer self-test reads curves.poly_gcd.
from .arith import poly_gcd, resultant, squarefree_part, try_divide  # noqa: F401
from .factor import FactorizationIncomplete, canonical_key, factor_components
from .germs import AnalysisError, Germ, OverrideRequired, UV, double_curve_factors
from .localring import INFINITE, intersection_multiplicity, milnor_number
from .poly import Poly


class ComponentSet:
    """components: ordered reduced equations h_1..h_n; pairing: list of
    ("twisted", i) / ("untwisted", i, j) entries covering each index once;
    intersection[i][j]: D_i . D_j for i != j (diagonal kept 0);
    v_axis_mult: D_i . {v = 0}, present on the fold path only."""

    def __init__(self, curve, components, pairing, intersection, v_axis_mult=None):
        self.curve = curve
        self.components = components
        self.pairing = pairing
        self.intersection = intersection
        self.v_axis_mult = v_axis_mult

    def partner(self, i: int) -> int:
        for entry in self.pairing:
            if entry[0] == "twisted" and entry[1] == i:
                return i
            if entry[0] == "untwisted" and i in entry[1:]:
                return entry[1] if entry[2] == i else entry[2]
        raise AnalysisError(f"component {i} missing from the pairing")


def associate(a: Poly, b: Poly) -> bool:
    return a.normalized() == b.normalized()


def decompose(curve_eq: Poly, override=None) -> list[Poly]:
    if override is not None:
        prod = Poly.constant(1, curve_eq.vars, curve_eq.field)
        for h in override:
            if squarefree_part(h) != h.normalized():
                raise AnalysisError(f"override component {h} is not squarefree")
            prod = prod * h
        for i, a in enumerate(override):
            for b in override[:i]:
                if associate(a, b):
                    raise AnalysisError("override components repeat a factor")
        if not associate(prod, curve_eq):
            raise AnalysisError("override components do not multiply to the curve")
        return [h.normalized() for h in override]
    try:
        factors = factor_components(curve_eq)
    except FactorizationIncomplete as exc:
        raise OverrideRequired(str(exc)) from exc
    comps = [h for h, m in factors]
    comps.sort(key=canonical_key)
    return comps


def _fold_pairing(comps: list[Poly]):
    flipped = []
    v = Poly.variable("v", UV, comps[0].field)
    for h in comps:
        flipped.append(h.substitute({"v": -v}).normalized())
    pairing = []
    seen = set()
    for i, h in enumerate(comps):
        if i in seen:
            continue
        if associate(h, flipped[i]):
            pairing.append(("twisted", i))
            seen.add(i)
            continue
        partner = [j for j, g in enumerate(comps) if j != i and associate(g, flipped[i])]
        if len(partner) != 1:
            raise AnalysisError(f"component {i} has no unique v -> -v partner")
        j = partner[0]
        pairing.append(("untwisted", i, j))
        seen.update((i, j))
    return pairing


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
    if override is not None:
        seen = set()
        for entry in override:
            if entry[0] == "twisted":
                idx = entry[1:]
            else:
                idx = entry[1:]
                if entry[1] == entry[2]:
                    raise AnalysisError("untwisted pair must join distinct components")
            for i in idx:
                if i in seen or not (0 <= i < len(comps)):
                    raise AnalysisError("twist override is not a partition of components")
                seen.add(i)
        if len(seen) != len(comps):
            raise AnalysisError("twist override misses a component")
        return list(override)
    if f.fold_data is not None:
        return _fold_pairing(comps)
    mp = f.multipoint
    comps_v2 = [h.rename({"v": "v2"}, ("u", "v1", "v2")).normalized()
                for h in comps]
    pairing = []
    seen = set()
    for i, h in enumerate(comps):
        if i in seen:
            continue
        partners = _general_partner(h, mp, comps_v2)
        if len(partners) != 1:
            raise OverrideRequired(
                f"twist classification ambiguous for component {i}: "
                f"candidates {partners}; supply the twist override")
        j = partners[0]
        if j == i:
            pairing.append(("twisted", i))
            seen.add(i)
        else:
            back = _general_partner(comps[j], mp, comps_v2)
            if back != [i]:
                raise AnalysisError("twist pairing is not an involution")
            pairing.append(("untwisted", i, j))
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
    comps = None if ov.components is not None else double_curve_factors(f)
    if comps is None:
        comps = decompose(curve_eq, ov.components)
    pairing = classify_twist(f, comps, ov.twist)
    table = intersection_table(comps)
    vax = v_axis_multiplicities(comps) if f.fold_data is not None else None
    return ComponentSet(curve_eq, comps, pairing, table, vax)
