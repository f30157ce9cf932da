"""The report stages after the twist pairing, one function each: the vertical
indices (fold formula, then overrides, then the sum rule), the intersection
form of X on the untwisted pairs as a plain integer matrix, its exact
signature by Descartes' rule on the characteristic polynomial, and the
report sigma(F_f) = sigma(X) + T - C with every intermediate invariant."""

from __future__ import annotations

from .curves import ComponentSet, component_set, curve_milnor, v_axis_multiplicities
from .fields import charpoly
from .germs import (AnalysisError, Germ, OverrideRequired, crosscap_number,
                    triple_point_number)
from .poly import format_poly


def _pair_key(pair) -> str:
    """Stable string key for an image component, e.g. '0' or '1+2'."""
    i, j = sorted(pair)
    return str(i) if i == j else f"{i}+{j}"


def vertical_indices(germ: Germ, cs: ComponentSet, C: int, T: int):
    """The vertical index of each image component, as {pair: (value,
    provenance)} keyed by the pairs of ``cs.pairing``, and the sum-rule check.

    On a fold germ the fold formula gives every index; a ``vertical_indices``
    override replaces any of them; the sum rule (Thm 2.12: the indices add up
    to -sum D_i.D_j - C + 3T) then fills the one index still missing, or
    checks the sum when none is.  More than one missing index is allowed only
    for twisted components, which the intersection form does not read."""
    inter = cs.intersection   # zero diagonal
    vi = {}
    if germ.fold_data is not None:
        vax = v_axis_multiplicities(cs.components)
        lam = [-sum(row) - m for row, m in zip(inter, vax)]
        for i, j in cs.pairing:
            vi[(i, j)] = (lam[i] if i == j else lam[i] + lam[j], "fold-formula")
    pairs = {_pair_key(p): p for p in cs.pairing}
    override = germ.overrides.vertical_indices
    unknown = sorted(set(override) - set(pairs))
    if unknown:
        raise AnalysisError(
            f"vertical_indices override names no image component: {unknown}")
    for key, value in override.items():
        vi[pairs[key]] = (value, "override")

    missing = [p for p in cs.pairing if p not in vi]
    if len(missing) > 1:
        if any(i != j for i, j in missing):
            raise OverrideRequired(
                "vertical indices of untwisted pairs unknown and more than one "
                "entry missing; supply vertical_indices overrides")
        return vi, ("sum-rule", "skipped",
                    f"{len(missing)} twisted vertical indices unknown")
    target = -sum(map(sum, inter)) - C + 3 * T
    total = sum(value for value, _ in vi.values())
    if missing:
        vi[missing[0]] = (target - total, "sum-rule")
        return vi, ("sum-rule", "pass",
                    f"sum rule fixed vi[{_pair_key(missing[0])}] = {target - total}")
    if total == target:
        return vi, ("sum-rule", "pass",
                    f"sum of vertical indices {total} matches {target}")
    detail = f"sum of vertical indices {total} != {target}"
    if all(provenance == "fold-formula" for _, provenance in vi.values()):
        raise AnalysisError(detail)
    return vi, ("sum-rule", "fail", detail)


def intersection_form(cs: ComponentSet, vi) -> list[list[int]]:
    """The intersection form of X on its untwisted pairs, in pairing order:
    entry (a, b) is D_a . D_b summed over the branches of pairs a and b,
    which on the diagonal is 2 D_i.D_j (the table's diagonal is zero), plus
    the pair's vertical index."""
    inter = cs.intersection
    untwisted = [(i, j) for i, j in cs.pairing if i != j]
    return [[inter[i][k] + inter[i][l] + inter[j][k] + inter[j][l]
             + (vi[(i, j)][0] if (i, j) == (k, l) else 0)
             for k, l in untwisted] for i, j in untwisted]


def signature_of_form(matrix) -> int:
    """Exact signature of a symmetric integer/rational matrix: the sign
    changes of the coefficients of its characteristic polynomial p(t) minus
    those of p(-t).  By Descartes' rule these bound the numbers of positive
    and negative roots, and equal them when every root is real, as every
    eigenvalue of a symmetric matrix is; no floating point."""
    if [list(col) for col in zip(*matrix)] != [list(row) for row in matrix]:
        raise ValueError("signature needs a symmetric square matrix")
    c = charpoly(matrix)
    return _sign_changes(c) - _sign_changes([(-1) ** k * x for k, x in enumerate(c)])


def _sign_changes(coeffs) -> int:
    signs = [x > 0 for x in coeffs if x]
    return sum(a != b for a, b in zip(signs, signs[1:]))


def derived_invariants(mu_D: int, C: int, T: int):
    """(mu_I, b2) from mu(D), C and T."""
    s = mu_D + C - 4 * T - 1
    if s % 2 or s < 0:
        raise AnalysisError(
            f"parity violation: mu(D)+C-4T-1 = {s} is not an even non-negative integer")
    mu_I = s // 2
    b2 = mu_D + 2 * C - 3 * T - 1
    return mu_I, b2


class SignatureReport:
    def __init__(self, name, corank, C, T, mu_D, mu_I, b2, component_set,
                 vertical_indices, form, sigma_X, sigma_F, checks):
        self.name = name
        self.corank = corank
        self.C = C
        self.T = T
        self.mu_D = mu_D
        self.mu_I = mu_I
        self.b2 = b2
        self.component_set = component_set
        self.vertical_indices = vertical_indices
        self.form = form
        self.sigma_X = sigma_X
        self.sigma_F = sigma_F
        self.checks = checks   # list of (name, "pass"/"fail"/"skipped", detail)

    def ok(self) -> bool:
        return all(status != "fail" for _, status, _ in self.checks)

    def to_dict(self) -> dict:
        cs = self.component_set
        comps = []
        for i, h in enumerate(cs.components):
            comps.append({
                "equation": format_poly(h),
                "twist": "twisted" if cs.partner[i] == i else "untwisted",
                "partner": cs.partner[i],
            })
        vis = [{"pair": _pair_key(pair), "value": self.vertical_indices[pair][0],
                "provenance": self.vertical_indices[pair][1]}
               for pair in cs.pairing if pair in self.vertical_indices]
        return {
            "name": self.name,
            "corank": self.corank,
            "C": self.C,
            "T": self.T,
            "mu_D": self.mu_D,
            "mu_I": self.mu_I,
            "b2": self.b2,
            "components": comps,
            "intersection_table": cs.intersection,
            "vertical_indices": vis,
            "intersection_form": self.form,
            "sigma_X": self.sigma_X,
            "sigma_F": self.sigma_F,
            "checks": [{"name": n, "status": s, "detail": d}
                       for n, s, d in self.checks],
        }


def analyze(germ: Germ) -> SignatureReport:
    """Run the full pipeline on one germ."""
    if germ.corank == 0:
        raise AnalysisError("the germ is an immersion (corank 0): "
                            "the double-point curve is empty")
    C = crosscap_number(germ)
    T = triple_point_number(germ)
    cs = component_set(germ)
    vi, sum_check = vertical_indices(germ, cs, C, T)
    form = intersection_form(cs, vi)
    sigma_X = signature_of_form(form)
    # Milnor 1968, section 10: mu(D) = sum mu(D_i) + 2 sum_{i<j} D_i.D_j - r + 1
    # for reduced, pairwise coprime D_i through the origin; the table is
    # symmetric with a zero diagonal, so its full sum is the middle term
    mu_D = (sum(curve_milnor(h) for h in cs.components) + sum(map(sum, cs.intersection))
            - len(cs.components) + 1)
    mu_I, b2 = derived_invariants(mu_D, C, T)
    checks = [sum_check, ("parity", "pass",
                          f"mu(D)+C-4T-1 = {mu_D + C - 4 * T - 1} is even")]

    p = germ.fold_data
    if p is not None:
        # fold germ: P = v1 + v2, so Res_v2(P, Q) = +-p(u, v1^2) exactly
        ok = germ.multipoint.resultant in (p, -p)
        checks.append(("fold-vs-resultant", "pass" if ok else "fail",
                       f"resultant route gives {format_poly(germ.multipoint.curve)}"))

    return SignatureReport(germ.name, germ.corank, C, T, mu_D, mu_I, b2, cs,
                           vi, form, sigma_X, sigma_X + T - C, checks)
