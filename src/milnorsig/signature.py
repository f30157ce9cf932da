"""Vertical indices, the intersection form of X, exact signatures, and the
final report: sigma(F_f) = sigma(X) + T - C with all intermediate invariants."""

from __future__ import annotations

from fractions import Fraction

from .curves import ComponentSet, associate, component_set, curve_milnor
from .germs import (AnalysisError, Germ, OverrideRequired, _resultant_curve,
                    crosscap_number, double_curve_equation, triple_point_number)
from .poly import format_poly


def _pair_key(pair) -> str:
    """Stable string key for an image component, e.g. '0' or '1+2'."""
    i, j = sorted(pair)
    return str(i) if i == j else f"{i}+{j}"


class VerticalIndexAssignment:
    def __init__(self):
        self.values = {}       # pair key -> int
        self.provenance = {}   # pair key -> "fold-formula" | "sum-rule" | "override"

    def set(self, pair, value, provenance):
        key = _pair_key(pair)
        self.values[key] = value
        self.provenance[key] = provenance

    def get(self, pair):
        return self.values.get(_pair_key(pair))


def fold_vertical_indices(cs: ComponentSet) -> VerticalIndexAssignment:
    if cs.v_axis_mult is None:
        raise AnalysisError("fold vertical indices need the fold-path data")
    n = len(cs.components)
    lam = []
    for i in range(n):
        lam.append(-sum(cs.intersection[i][k] for k in range(n) if k != i)
                   - cs.v_axis_mult[i])
    vi = VerticalIndexAssignment()
    for i, j in cs.pairing:
        vi.set((i, j), lam[i] if i == j else lam[i] + lam[j], "fold-formula")
    return vi


def vertical_index_sum_target(cs: ComponentSet, C: int, T: int) -> int:
    n = len(cs.components)
    total = sum(cs.intersection[i][k] for i in range(n) for k in range(n) if i != k)
    return -total - C + 3 * T


def complete_vertical_indices(vi: VerticalIndexAssignment, cs: ComponentSet,
                              C: int, T: int):
    """Fill at most one missing vertical index from the sum rule; when all are
    present, verify the sum rule.  Returns (vi, check) where check is
    ("pass"|"fail"|"skipped", detail)."""
    target = vertical_index_sum_target(cs, C, T)
    missing = [e for e in cs.pairing if vi.get(e) is None]
    if len(missing) > 1:
        raise OverrideRequired(
            f"{len(missing)} vertical indices unknown; supply vertical_indices "
            "overrides (the sum rule can recover at most one)")
    if len(missing) == 1:
        known = sum(vi.get(e) for e in cs.pairing if vi.get(e) is not None)
        vi.set(missing[0], target - known, "sum-rule")
        return vi, ("pass", f"sum rule fixed vi[{_pair_key(missing[0])}] = {target - known}")
    total = sum(vi.get(e) for e in cs.pairing)
    if total == target:
        return vi, ("pass", f"sum of vertical indices {total} matches {target}")
    detail = f"sum of vertical indices {total} != {target}"
    if all(vi.provenance[_pair_key(e)] == "fold-formula" for e in cs.pairing):
        raise AnalysisError(detail)
    return vi, ("fail", detail)


class IntersectionForm:
    def __init__(self, labels, matrix):
        self.labels = labels   # the untwisted pairs (i, j), i != j
        self.matrix = matrix


def build_intersection_form(cs: ComponentSet, vi: VerticalIndexAssignment) -> IntersectionForm:
    untwisted = [(i, j) for i, j in cs.pairing if i != j]
    for pair in untwisted:
        if vi.get(pair) is None:
            raise OverrideRequired(
                f"vertical index of untwisted pair {_pair_key(pair)} unknown")
    n = len(untwisted)
    M = [[0] * n for _ in range(n)]
    inter = cs.intersection
    for a, (i, ip) in enumerate(untwisted):
        M[a][a] = 2 * inter[i][ip] + vi.get(untwisted[a])
        for b in range(a + 1, n):
            j, jp = untwisted[b]
            val = inter[i][j] + inter[i][jp] + inter[ip][j] + inter[ip][jp]
            M[a][b] = M[b][a] = val
    return IntersectionForm(untwisted, M)


def signature_of_form(matrix) -> int:
    """Exact signature of a symmetric integer/rational matrix by congruence
    diagonalization (Sylvester inertia); no floating point."""
    n = len(matrix)
    A = [[Fraction(x) for x in row] for row in matrix]
    pos = neg = 0
    for k in range(n):
        if A[k][k] == 0:
            swap = next((j for j in range(k + 1, n) if A[j][j] != 0), None)
            if swap is not None:
                A[k], A[swap] = A[swap], A[k]
                for row in A:
                    row[k], row[swap] = row[swap], row[k]
            else:
                off = next(((p, q) for p in range(k, n) for q in range(p + 1, n)
                            if A[p][q] != 0), None)
                if off is None:
                    break  # remaining block is zero
                p, q = off
                if p != k:
                    A[k], A[p] = A[p], A[k]
                    for row in A:
                        row[k], row[p] = row[p], row[k]
                # diagonal is zero: add row/column q to make A[k][k] = 2*A[k][q]
                for j in range(n):
                    A[k][j] += A[q][j]
                for i in range(n):
                    A[i][k] += A[i][q]
        pivot = A[k][k]
        if pivot > 0:
            pos += 1
        else:
            neg += 1
        for i in range(k + 1, n):
            if A[i][k] != 0:
                factor = A[i][k] / pivot
                for j in range(k, n):
                    A[i][j] -= factor * A[k][j]
        for j in range(k + 1, n):
            A[k][j] = Fraction(0)
            A[j][k] = Fraction(0)
    return pos - neg


def milnor_fiber_signature(C: int, T: int, sigma_X: int) -> int:
    return sigma_X + T - C


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
        vis = []
        for pair in cs.pairing:
            key = _pair_key(pair)
            if key in self.vertical_indices.values:
                vis.append({
                    "pair": key,
                    "value": self.vertical_indices.values[key],
                    "provenance": self.vertical_indices.provenance[key],
                })
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
            "intersection_form": self.form.matrix,
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
    curve_eq = double_curve_equation(germ)
    cs = component_set(germ, curve_eq)
    checks = []

    is_fold = germ.fold_data is not None
    if is_fold:
        vi = fold_vertical_indices(cs)
    else:
        vi = VerticalIndexAssignment()
    vi_override = germ.overrides.vertical_indices
    unknown = sorted(set(vi_override) - {_pair_key(p) for p in cs.pairing})
    if unknown:
        raise AnalysisError(
            f"vertical_indices override names no image component: {unknown}")
    for pair in cs.pairing:
        key = _pair_key(pair)
        if key in vi_override:
            vi.set(pair, vi_override[key], "override")

    missing = [p for p in cs.pairing if vi.get(p) is None]
    if len(missing) <= 1:
        vi, sum_check = complete_vertical_indices(vi, cs, C, T)
        checks.append(("sum-rule", sum_check[0], sum_check[1]))
    else:
        if any(i != j for i, j in missing):
            raise OverrideRequired(
                "vertical indices of untwisted pairs unknown and more than one "
                "entry missing; supply vertical_indices overrides")
        checks.append(("sum-rule", "skipped",
                       f"{len(missing)} twisted vertical indices unknown"))

    form = build_intersection_form(cs, vi)
    sigma_X = signature_of_form(form.matrix)
    sigma_F = milnor_fiber_signature(C, T, sigma_X)
    mu_D = curve_milnor(curve_eq)
    mu_I, b2 = derived_invariants(mu_D, C, T)
    checks.append(("parity", "pass",
                   f"mu(D)+C-4T-1 = {mu_D + C - 4 * T - 1} is even"))

    if is_fold:
        try:
            alt = _resultant_curve(germ.multipoint)
            status = "pass" if associate(alt, curve_eq) else "fail"
            checks.append(("fold-vs-resultant", status,
                           f"resultant route gives {format_poly(alt)}"))
        except (AnalysisError, OverrideRequired) as exc:
            checks.append(("fold-vs-resultant", "skipped", str(exc)))

    return SignatureReport(germ.name, germ.corank, C, T, mu_D, mu_I, b2, cs,
                           vi, form, sigma_X, sigma_F, checks)
