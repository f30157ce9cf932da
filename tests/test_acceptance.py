"""Acceptance suite: exact-integer checks, one printed pass/fail line each."""

import random
from itertools import product

import pytest

from test_localring import rand_branch
from test_signature import sturm_signature

from milnorsig.arith import squarefree_part
from milnorsig.corpus import (B, C_, F4, H, S, TRIPLE_POINT_MATRIX, corank2,
                              corpus, cross_cap, expected_invariants)
from milnorsig.curves import component_set, decompose, intersection_table
from milnorsig.fields import QQ
from milnorsig.germs import (AnalysisError, corank, crosscap_number,
                             double_curve_equation, fold_normal_data,
                             multipoint_data, triple_point_number)
from milnorsig.localring import (INFINITE, intersection_multiplicity,
                                 milnor_number, quotient_dim)
from milnorsig.parser import parse_poly
from milnorsig.poly import Poly
from milnorsig.signature import analyze, signature_of_form, vertical_indices

UV = ("u", "v")


def report(criterion, failures):
    if failures:
        print(f"criterion {criterion}: FAIL ({'; '.join(failures)})")
    else:
        print(f"criterion {criterion}: PASS")
    assert not failures, failures


def h_family_signature(k, vi):
    """sigma(F) of H_k = (u, u*v + v^(3k-1), v^3) by hand, from
    sigma(F) = sigma(X) + T - C with C = 2 and T = k - 1 (Mond 1987).

    Two points (u, v) != (u, v') with the same image have v' = w*v, w^3 = 1,
    w != 1, and then u = w^2 * v^(3k-2). So D is the two smooth branches
    u = zeta3^2 * v^(3k-2) and u = zeta3 * v^(3k-2), swapped by
    v -> zeta3*v and meeting with multiplicity 3k - 2: one untwisted pair,
    and X has the 1x1 form [2(3k - 2) + vi].
    """
    form = 2 * (3 * k - 2) + vi
    sigma_X = (form > 0) - (form < 0)
    return sigma_X + (k - 1) - 2


def table1_cases():
    yield cross_cap(), -1
    for k in range(1, 6):
        yield S(k), (-k - 2 if k % 2 else -k - 1)
    for k in range(2, 6):
        yield B(k), (-3 if k % 2 else -2)
    for k in range(3, 7):
        yield C_(k), (-k - 1 if k % 2 else -k)
    yield F4(), -3
    # H_k: the quoted table value is k, which sigma(F) = sigma(X) + T - C
    # cannot give. D(H_k) has two branches, so however X is built on them
    # sigma(X) <= 2 and sigma(F) <= 2 + (k - 1) - 2 < k. With the published
    # vertical index -3k - 1 (criterion 3) the form is [3k - 5] > 0, so
    # sigma(F) = k - 2. The same derivation at k = 1, where H_1 is S_1,
    # gives the published S_1 value (test_h_family_derivation_at_S1).
    # (mu_I(H_k) = k, which may be the column the quoted k came from.)
    for k in range(2, 6):
        yield H(k), h_family_signature(k, -3 * k - 1)
    yield corank2(), -2


def test_criterion_1_table1_signatures():
    failures = []
    count = 0
    for germ, want in table1_cases():
        count += 1
        got = analyze(germ).sigma_F
        if got != want:
            failures.append(f"{germ.name}: expected {want}, computed {got}")
    assert count == 20
    report("1 (Table-1 signatures, 20 cases)", failures)


def test_h_family_derivation_at_S1():
    # H_1 is A-equivalent to S_1, so the H_k derivation above, checked
    # against nothing but the table's S_1 row, must give sigma(S_1) = -3.
    # Source v -> v - u/2 and target Y -> Y + X^2/4, Z -> Z + 3/2*X*Y + X^3/8
    # take H_1 to (u, v^2, v^3 + 3/4*u^2*v), which is S_1 after u -> c*u
    # with c^2 = 3/4.
    f = H(1)
    P = lambda s: parse_poly(s, UV, f.field)
    X, Y, Z = (c.substitute("v", P("v - 1/2*u")) for c in f.components)
    Y = Y + P("1/4*u^2")
    Z = Z + P("3/2*u") * Y + P("1/8*u^3")
    assert (X, Y, Z) == tuple(P(s) for s in ("u", "v^2", "v^3 + 3/4*u^2*v"))

    published = expected_invariants("S_1")["signature"]
    # at k = 1 the vertical index is S_1's published -2k - 2 = -4
    assert h_family_signature(1, -4) == published == -3
    assert analyze(f).sigma_F == published


def test_criterion_2_C_and_T():
    failures = []
    def check(name, got, want):
        if got != want:
            failures.append(f"{name}: expected {want}, computed {got}")
    check("C(cross-cap)", crosscap_number(cross_cap()), 1)
    for k in range(1, 6):
        check(f"C(S_{k})", crosscap_number(S(k)), k + 1)
    for k in range(2, 6):
        check(f"C(B_{k})", crosscap_number(B(k)), 2)
    for k in range(3, 7):
        check(f"C(C_{k})", crosscap_number(C_(k)), k)
    check("C(F_4)", crosscap_number(F4()), 3)
    for k in range(2, 6):
        check(f"C(H_{k})", crosscap_number(H(k)), 2)
        check(f"T(H_{k})", triple_point_number(H(k)), k - 1)
    check("C(corank-2)", crosscap_number(corank2()), 3)
    check("T(corank-2)", triple_point_number(corank2()), 1)
    for f in (cross_cap(), S(1), S(4), B(2), B(5), C_(3), C_(6), F4()):
        check(f"T({f.name})", triple_point_number(f), 0)
    report("2 (cross-cap and triple point numbers)", failures)


def _vertical_indices(f):
    """(pairing, {pair: (value, provenance)}) of a germ."""
    cs = component_set(f)
    vi, _ = vertical_indices(f, cs, crosscap_number(f), triple_point_number(f))
    return cs.pairing, vi


def _untwisted_vi(f):
    pairing, vi = _vertical_indices(f)
    entries = [vi[p][0] for p in pairing if p[0] != p[1]]
    assert len(entries) == 1
    return entries[0]


def test_criterion_3_vertical_indices():
    failures = []
    for k in (1, 3, 5):
        got = _untwisted_vi(S(k))
        if got != -2 * k - 2:
            failures.append(f"S_{k}: expected {-2 * k - 2}, computed {got}")
    for k in (3, 5):
        got = _untwisted_vi(C_(k))
        if got != -2 * k:
            failures.append(f"C_{k}: expected {-2 * k}, computed {got}")
    for k in range(2, 6):
        got = _untwisted_vi(H(k))
        if got != -3 * k - 1:
            failures.append(f"H_{k}: expected {-3 * k - 1}, computed {got}")
    got = _vertical_indices(cross_cap())[1][(0, 0)][0]
    if got != -1:
        failures.append(f"cross-cap: expected -1, computed {got}")
    report("3 (vertical indices)", failures)


def test_criterion_4_sum_rule_on_folds():
    failures = []
    for f in corpus(5):
        if fold_normal_data(f) is None:
            continue
        try:  # vertical_indices refuses a fold formula that misses the sum
            pairing, vi = _vertical_indices(f)
        except AnalysisError as exc:
            failures.append(f"{f.name}: {exc}")
            continue
        if any(vi[p][1] != "fold-formula" for p in pairing):
            failures.append(f"{f.name}: not every index from the fold formula")
            continue
        total = sum(vi[p][0] for p in pairing)
        table = intersection_table(decompose(double_curve_equation(f)))
        target = (-sum(map(sum, table)) - crosscap_number(f)
                  + 3 * triple_point_number(f))
        if total != target:
            failures.append(f"{f.name}: sum {total} != target {target}")
    report("4 (Thm 2.12 sum rule on folds)", failures)


def test_criterion_5_triple_point_matrix():
    got = signature_of_form(TRIPLE_POINT_MATRIX)
    report("5 (triple-point matrix signature)",
           [] if got == -1 else [f"expected -1, computed {got}"])


def test_criterion_6_property_suites():
    failures = []

    # Mora quotient dimensions vs staircase counts, 50 random monomial ideals
    rng = random.Random(31)
    for _ in range(50):
        nv = rng.choice([2, 3])
        exps = []
        for i in range(nv):
            e = [0] * nv
            e[i] = rng.randint(1, 4)
            exps.append(tuple(e))
        for _ in range(rng.randint(0, 3)):
            exps.append(tuple(rng.randint(0, 4) for _ in range(nv)))
        vars_ = tuple("xyz"[:nv])
        gens = [Poly(vars_, {e: QQ.one()}, QQ) for e in exps]
        want = sum(
            1 for m in product(range(10), repeat=nv)
            if not any(all(a <= b for a, b in zip(e, m)) for e in exps))
        got = quotient_dim(gens)
        if got != want:
            failures.append(f"staircase {exps}: {got} != {want}")

    # signature vs Sturm oracle, 100 random symmetric matrices
    rng = random.Random(101)
    for _ in range(100):
        n = rng.randint(1, 8)
        M = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                M[i][j] = M[j][i] = rng.randint(-5, 5)
        if signature_of_form(M) != sturm_signature(M):
            failures.append(f"signature mismatch on {M}")

    # intersection multiplicity symmetry and additivity, 30 pairs
    rng = random.Random(77)
    done = 0
    while done < 30:
        h1, h1p, h2 = (rand_branch(rng, QQ) for _ in range(3))
        if (h1.normalized() == h2.normalized()
                or h1p.normalized() == h2.normalized()):
            continue
        a = intersection_multiplicity(h1, h2)
        b = intersection_multiplicity(h1p, h2)
        if intersection_multiplicity(h2, h1) != a:
            failures.append(f"symmetry fails: {h1}, {h2}")
        if intersection_multiplicity(h1 * h1p, h2) != a + b:
            failures.append(f"additivity fails: {h1}, {h1p}, {h2}")
        done += 1

    # divided-difference identity on every corank-1 corpus germ
    V3 = ("u", "v1", "v2")
    for f in corpus(5):
        if corank(f) != 1 or f.components[0] != Poly.variable("u", UV, f.field):
            continue
        mp = multipoint_data(f)
        v1 = Poly.variable("v1", V3, f.field)
        v2 = Poly.variable("v2", V3, f.field)
        for dd, comp in ((mp.P, f.components[1]), (mp.Q, f.components[2])):
            lhs = dd * (v1 - v2)
            rhs = comp.rename({"v": "v1"}, V3) - comp.rename({"v": "v2"}, V3)
            if lhs != rhs:
                failures.append(f"dd identity fails on {f.name}")

    # parity of mu(D) + C - 4T - 1 on every successful run
    for f in corpus(5):
        r = analyze(f)
        if (r.mu_D + r.C - 4 * r.T - 1) % 2:
            failures.append(f"parity fails on {f.name}")

    # the fold route squarefree(f3 / v) gives the resultant route's curve
    for f in corpus(5):
        if fold_normal_data(f) is None:
            continue
        fold = squarefree_part(fold_normal_data(f))
        if fold != double_curve_equation(f):
            failures.append(f"double-curve routes disagree on {f.name}")

    report("6 (property suites)", failures)


def _minors_dim(f):
    du = [c.derivative("u") for c in f.components]
    dv = [c.derivative("v") for c in f.components]
    minors = [du[i] * dv[j] - du[j] * dv[i]
              for i in range(3) for j in range(i + 1, 3)]
    return quotient_dim(minors)


def test_criterion_7_derived_invariants():
    failures = []
    for f in corpus(5):
        r = analyze(f)
        if 2 * r.mu_I != r.mu_D + r.C - 4 * r.T - 1:
            failures.append(f"mu_I substitution fails on {f.name}")
        if r.b2 != r.mu_D + 2 * r.C - 3 * r.T - 1:
            failures.append(f"b2 substitution fails on {f.name}")
    # independent brute-force oracle for S_1 and H_2
    for f, want_mu_I, want_b2 in ((S(1), 1, 4), (H(2), 2, 7)):
        C = _minors_dim(f)
        T = triple_point_number(f)
        mu_D = milnor_number(double_curve_equation(f))
        r = analyze(f)
        oracle_mu_I = (mu_D + C - 4 * T - 1) // 2
        oracle_b2 = mu_D + 2 * C - 3 * T - 1
        if (r.mu_I, r.b2) != (want_mu_I, want_b2):
            failures.append(
                f"{f.name}: computed ({r.mu_I}, {r.b2}), "
                f"expected ({want_mu_I}, {want_b2})")
        if (oracle_mu_I, oracle_b2) != (want_mu_I, want_b2):
            failures.append(
                f"{f.name}: oracle ({oracle_mu_I}, {oracle_b2}) "
                f"!= expected ({want_mu_I}, {want_b2})")
    report("7 (derived invariants)", failures)
