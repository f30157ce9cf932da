import importlib.util
import json
import pathlib
import random
import time
from collections import Counter
from fractions import Fraction

import pytest

from milnorsig import arith, curves, factor, germs, localring, signature
from milnorsig.cli import run_analyze
from milnorsig.corpus import (B, C_, F4, H, S, TRIPLE_POINT_MATRIX, corank2,
                              corpus, cross_cap, expected_invariants)
from milnorsig.curves import component_set
from milnorsig.germfile import load_germ
from milnorsig.germs import AnalysisError, OverrideRequired, corank, crosscap_number, \
    double_curve_equation, triple_point_number
from milnorsig.localring import milnor_number
from milnorsig.signature import (analyze, derived_invariants, intersection_form,
                                 signature_of_form, vertical_indices)
from milnorsig.poly import Poly
from test_curves import target_changed
from test_golden import FALLBACK_GERMS, OVERRIDE_GERMS

PERFBENCH = pathlib.Path(__file__).resolve().parents[1] / "perfbench"


# --- Sturm-sequence oracle for the signature of a symmetric matrix ----------

def char_poly(M):
    """Coefficients (descending) of det(tI - M), by Faddeev-LeVerrier."""
    k = len(M)
    M = [[Fraction(x) for x in row] for row in M]
    coeffs = [Fraction(1)]
    N = [row[:] for row in M]
    for i in range(1, k + 1):
        c = -sum(N[j][j] for j in range(k)) / i
        coeffs.append(c)
        if i == k:
            break
        for j in range(k):
            N[j][j] += c
        N = [[sum(M[r][m] * N[m][s] for m in range(k)) for s in range(k)]
             for r in range(k)]
    return coeffs  # descending powers


def _deg(p):
    return len(p) - 1


def _rem(a, b):
    a = a[:]
    while len(a) > 1 and a[0] == 0:
        a.pop(0)
    while _deg(a) >= _deg(b) and any(x != 0 for x in a):
        f = a[0] / b[0]
        for i in range(len(b)):
            a[i] -= f * b[i]
        a.pop(0)
        while len(a) > 1 and a[0] == 0:
            a.pop(0)
    return a


def _derivative(p):
    d = _deg(p)
    return [c * (d - i) for i, c in enumerate(p[:-1])] or [Fraction(0)]


def _gcd(a, b):
    while any(x != 0 for x in b):
        a, b = b, _rem(a, b)
    return a


def _divide(a, b):
    q = []
    a = a[:]
    while _deg(a) >= _deg(b):
        f = a[0] / b[0]
        q.append(f)
        for i in range(len(b)):
            a[i] -= f * b[i]
        a.pop(0)
    return q or [Fraction(0)]


def _sign_at_zero_plus(p):
    for c in reversed(p):
        if c != 0:
            return 1 if c > 0 else -1
    return 0


def _sign_at_inf(p, positive):
    lc = p[0]
    if lc == 0:
        raise AssertionError("unnormalized chain member")
    s = 1 if lc > 0 else -1
    if not positive and _deg(p) % 2:
        s = -s
    return s


def _variations(signs):
    signs = [s for s in signs if s != 0]
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def _sturm_pos_neg(p):
    """(#roots > 0, #roots < 0) of a squarefree polynomial."""
    chain = [p, _derivative(p)]
    while _deg(chain[-1]) > 0:
        r = _rem(chain[-2], chain[-1])
        if all(x == 0 for x in r):
            break
        chain.append([-x for x in r])
    v0 = _variations([_sign_at_zero_plus(q) for q in chain])
    vpos = _variations([_sign_at_inf(q, True) for q in chain])
    vneg = _variations([_sign_at_inf(q, False) for q in chain])
    return v0 - vpos, vneg - v0


def sturm_signature(M):
    if not M:
        return 0
    p = char_poly(M)
    # strip roots at zero
    while p[-1] == 0:
        p.pop()
    total = 0
    while _deg(p) > 0:
        g = _gcd(p, _derivative(p))
        g = [c / g[0] for c in g]
        q = _divide(p, g)
        pos, neg = _sturm_pos_neg(q)
        total += pos - neg
        p = g
    return total


# --- tests -------------------------------------------------------------------

def test_signature_of_form_examples():
    assert signature_of_form(TRIPLE_POINT_MATRIX) == -1
    assert signature_of_form([[3 * 2 - 5]]) == 1   # H_2 diagonal 3k-5 at k=2
    assert signature_of_form([]) == 0
    assert signature_of_form([[0, 1], [1, 0]]) == 0
    assert signature_of_form([[2, 0], [0, -3]]) == 0
    assert signature_of_form([[1, 2], [2, 1]]) == 0
    assert signature_of_form([[0, 0], [0, 0]]) == 0


def test_signature_matches_sturm_oracle():
    rng = random.Random(101)
    for _ in range(100):
        n = rng.randint(1, 8)
        M = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                M[i][j] = M[j][i] = rng.randint(-5, 5)
        assert signature_of_form(M) == sturm_signature(M), M


def test_signature_invariant_under_permutation():
    rng = random.Random(55)
    for _ in range(20):
        n = rng.randint(2, 6)
        M = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                M[i][j] = M[j][i] = rng.randint(-4, 4)
        perm = list(range(n))
        rng.shuffle(perm)
        P = [[M[perm[i]][perm[j]] for j in range(n)] for i in range(n)]
        assert signature_of_form(P) == signature_of_form(M)


def test_signature_matches_congruent_diagonal():
    # Sylvester's law of inertia: P^T D P has the signature of D for every
    # invertible P; here P is a product of integer unitriangular matrices
    rng = random.Random(2024)
    for _ in range(300):
        n = rng.randint(1, 7)
        D = [rng.choice([0, rng.randint(-9, 9), Fraction(rng.randint(-9, 9),
                                                         rng.randint(1, 7))])
             for _ in range(n)]
        up = [[int(i == j) or (rng.randint(-3, 3) if j > i else 0)
               for j in range(n)] for i in range(n)]
        low = [[int(i == j) or (rng.randint(-3, 3) if j < i else 0)
                for j in range(n)] for i in range(n)]
        P = [[sum(up[i][k] * low[k][j] for k in range(n)) for j in range(n)]
             for i in range(n)]
        M = [[sum(P[k][i] * D[k] * P[k][j] for k in range(n)) for j in range(n)]
             for i in range(n)]
        want = sum(d > 0 for d in D) - sum(d < 0 for d in D)
        assert signature_of_form(M) == want, (D, P)


def test_signature_refuses_non_symmetric_input():
    for M in ([[1, 2]], [[1, 2], [3, 4]], [[1, 0], [0]]):
        with pytest.raises(ValueError, match="symmetric square"):
            signature_of_form(M)


def _vertical_indices(f):
    cs = component_set(f)
    vi, check = vertical_indices(f, cs, crosscap_number(f), triple_point_number(f))
    return cs, vi, check


def test_fold_vertical_indices():
    _, vi, _ = _vertical_indices(S(1))
    assert vi == {(0, 1): (-4, "fold-formula")}
    cs, vi, _ = _vertical_indices(C_(5))
    pair = next(p for p in cs.pairing if p[0] != p[1])
    assert vi[pair] == (-10, "fold-formula")  # -2k
    _, vi, _ = _vertical_indices(cross_cap())
    assert vi == {(0, 0): (-1, "fold-formula")}


def test_sum_rule_on_folds():
    for f in (cross_cap(), S(1), S(2), S(3), B(2), B(3), C_(3), C_(4), C_(5), F4()):
        cs, vi, check = _vertical_indices(f)
        assert all(provenance == "fold-formula" for _, provenance in vi.values())
        assert len(vi) == len(cs.pairing), f.name
        assert check[:2] == ("sum-rule", "pass"), f.name


def test_sum_rule_completion_Hk():
    for k in (2, 3):
        cs, vi, check = _vertical_indices(H(k))
        assert check[:2] == ("sum-rule", "pass")
        assert vi == {cs.pairing[0]: (-3 * k - 1, "sum-rule")}


def test_sum_rule_mismatch_of_fold_formula_is_an_error():
    # the fold formula and the sum rule are two routes to the same total
    f = S(1)
    cs = component_set(f)
    with pytest.raises(AnalysisError, match="sum of vertical indices"):
        vertical_indices(f, cs, crosscap_number(f) + 1, triple_point_number(f))


def test_two_missing_untwisted_indices_require_overrides():
    twist = '["0:untwisted-with:1", "2:twisted", "3:twisted", "4:twisted"]'
    text = _germ_text(("u^2", "v^2", "u^3 + v^3 + u*v"), "Q(zeta3)", (
        'double_curve = "(u + v^2)*(u^2 + v)*(u + v)*(u + zeta3*v)*(u + zeta3^2*v)"\n'
        'components = ["u + v^2", "u^2 + v", "u + v", "u + zeta3*v", "u + zeta3^2*v"]\n'
        f"twist = {twist}\nT = 1\n"))
    with pytest.raises(OverrideRequired, match="untwisted pairs unknown"):
        analyze(load_germ(text)[0])


def test_missing_twisted_indices_skip_the_sum_rule():
    r = analyze(corank2())
    assert not r.vertical_indices
    assert r.checks[0][:2] == ("sum-rule", "skipped")
    assert r.form == []


def test_intersection_form():
    cs, vi, _ = _vertical_indices(S(1))
    assert intersection_form(cs, vi) == [[-2]]
    cs, vi, _ = _vertical_indices(F4())
    assert intersection_form(cs, vi) == []
    cs, vi, _ = _vertical_indices(H(2))
    assert intersection_form(cs, vi) == [[1]]


def test_derived_invariants():
    assert derived_invariants(1, 2, 0) == (1, 4)     # S_1
    assert derived_invariants(7, 2, 1) == (2, 7)     # H_2
    assert derived_invariants(0, 1, 0) == (0, 1)     # cross-cap
    with pytest.raises(AnalysisError):
        derived_invariants(2, 2, 0)  # odd parity


def test_analyze_corpus_intermediates():
    for f in corpus(4):
        want = expected_invariants(f.name)
        r = analyze(f)
        assert r.C == want["C"], f.name
        assert r.T == want["T"], f.name
        assert r.sigma_F == r.sigma_X + r.T - r.C
        assert (r.mu_D + r.C - 4 * r.T - 1) % 2 == 0
        assert 2 * r.mu_I == r.mu_D + r.C - 4 * r.T - 1
        assert r.b2 == r.mu_D + 2 * r.C - 3 * r.T - 1
        assert r.mu_I >= 0 and r.b2 >= 0
        assert abs(r.sigma_X) <= len(r.form)


def _override_germs():
    return [load_germ(text)[0] for text in OVERRIDE_GERMS]


def test_mu_D_from_the_branches_matches_the_whole_curve():
    # analyze sums Milnor's formula over the component set; the oracle runs
    # Mora on the Jacobian ideal of the whole double curve
    germs = corpus(10) + _override_germs()
    germs += [g for f in corpus(8) for g in target_changed(f)]
    completed = 0
    for f in germs:
        try:
            report = analyze(f)
        except OverrideRequired:   # target-changed corank-2 and odd C_k: no
            continue               # overrides, or two vertical indices unknown
        assert report.mu_D == milnor_number(double_curve_equation(f)), f.name
        completed += 1
    assert completed >= 39 + len(OVERRIDE_GERMS) + 54


def test_analyze_reads_the_milnor_number_of_components_only(monkeypatch):
    # the whole double curve went through curve_milnor before
    seen = []

    def recorder(module, name):
        original = getattr(module, name)

        def recording(h):
            seen.append(h)
            return original(h)
        monkeypatch.setattr(module, name, recording)
    recorder(signature, "curve_milnor")
    recorder(curves, "milnor_number")
    for f in corpus(10) + _override_germs():
        seen.clear()
        comps = analyze(f).component_set.components
        assert len(seen) == 2 * len(comps), f.name
        assert all(h in comps for h in seen), f.name


def test_analyze_determinism():
    from milnorsig.cli import render_report
    f = H(2)
    a = render_report(analyze(f), "json")
    b = render_report(analyze(f), "json")
    assert a == b


def test_corank0_is_an_error():
    from milnorsig.germs import Germ, UV
    from milnorsig.parser import parse_poly
    from milnorsig.fields import QQ
    g = Germ(tuple(parse_poly(s, UV, QQ) for s in ("u", "v", "u*v")), QQ)
    with pytest.raises(AnalysisError):
        analyze(g)


def test_germ_data_computed_once_per_analyze(monkeypatch):
    # every module's name for the function is counted, not only its own
    calls = Counter()
    counted_functions = [(germs, "corank"), (germs, "fold_normal_data"),
                         (germs, "multipoint_data"), (germs, "divided_difference"),
                         (arith, "squarefree_part"), (factor, "factor_components")]
    for home, name in counted_functions:
        original = getattr(home, name)

        def counted(*args, _original=original, _name=name):
            calls[_name] += 1
            return _original(*args)
        for module in (arith, factor, localring, germs, curves, signature):
            if getattr(module, name, None) is original:
                monkeypatch.setattr(module, name, counted)
    # squarefree_part: none where the resultant's own factors certify it as
    # the curve (cross-cap, S_2, H_3 and the reduced three-term branch
    # u^3 + u^2*v^2 + v^4, a prime by its Newton polygon's axis ends), and
    # one for the double_curve override check on the corank-2 germ and for
    # the unit-carrying R = (u^3 + v^2)*(1 + u + v^2), certified whole but
    # declined by is_prime_factor; the component route then reuses R's
    # factorization
    reductions = {"cross-cap": 0, "S_2": 0, "H_3": 0, "corank-2": 1,
                  "three-term": 0, "unit-carrying": 1}
    three_term = load_germ(_germ_text(("u", "v^2", "v*(u^3 + u^2*v^2 + v^4)"), "Q"))[0]
    three_term.name = "three-term"
    unit_carrying = load_germ(_germ_text(
        ("u", "v^2", "v*(u^3 + v^2)*(1 + u + v^2)"), "Q"))[0]
    unit_carrying.name = "unit-carrying"
    sigma = {}
    for germ in (cross_cap(), S(2), H(3), corank2(), three_term, unit_carrying):
        calls.clear()
        sigma[germ.name] = analyze(germ).sigma_F
        once = ["corank", "fold_normal_data", "multipoint_data"]
        if germ.name == "corank-2":
            # a refusal is not kept but read again, and each read stops at
            # the cached corank: no multiple-point data is built
            once.remove("multipoint_data")
            assert calls["divided_difference"] == 0, calls
        assert max(calls[n] for n in once) == 1, (germ.name, calls)
        assert calls["factor_components"] == (germ.name != "corank-2"), (germ.name, calls)
        assert calls["squarefree_part"] == reductions[germ.name], (germ.name, calls)
    assert [str(h) for h in three_term.multipoint.branches] == ["u^3 + u^2*v^2 + v^4"]
    # the last germ: the fallback factored R once, and its one component
    # is R itself, unit factor and all
    assert unit_carrying.multipoint.branches is None
    assert component_set(unit_carrying).components == [
        unit_carrying.multipoint.resultant.normalized()]
    assert sigma["three-term"] == sigma["unit-carrying"] == -3


def _count_calls(monkeypatch, home=arith, name="squarefree_part"):
    calls = Counter()
    original = getattr(home, name)

    def counted(*args):
        calls[name] += 1
        return original(*args)
    for module in (arith, factor, localring, germs, curves, signature):
        if getattr(module, name, None) is original:
            monkeypatch.setattr(module, name, counted)
    return calls


def _workload_germs(tmp_path):
    spec = importlib.util.spec_from_file_location("germgen", PERFBENCH / "germgen.py")
    germgen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(germgen)
    return [load_germ(pathlib.Path(path).read_text())[0]
            for workload in germgen.WORKLOADS
            for _, path in germgen.generate(workload, 5, tmp_path / workload)]


def test_no_squarefree_part_without_a_double_curve_override(monkeypatch, tmp_path):
    # the resultant's own factors certify it as the double curve on every
    # corpus and workload germ; only a double_curve override is checked by
    # a squarefree part, and reading the curve first changes nothing
    calls = _count_calls(monkeypatch)
    checked = 0
    for f in corpus(10) + _workload_germs(tmp_path):
        calls.clear()
        if f.corank == 1:
            f.multipoint.curve
        analyze(f)
        if f.overrides.double_curve is None:
            assert calls["squarefree_part"] == 0, f.name
            checked += 1
    assert checked == len(corpus(10)) - 1 + 57 - 1   # all but the corank-2 germs


def test_a_resultant_that_is_not_reduced_takes_the_squarefree_route(monkeypatch):
    # under (X, Z + Y, 3Y - Z) the resultant of C_k, k = 3..8, has the
    # square u^2 and is not reduced: its squarefree part is the curve, whose
    # branches are R's own prime factors, so R is factored once.  The odd
    # C_k end where they did when every curve went that way, asking for the
    # vertical indices
    calls = _count_calls(monkeypatch)
    factorizations = _count_calls(monkeypatch, factor, "factor_components")
    for k in range(3, 9):
        f = target_changed(C_(k))[1]
        u = Poly.variable("u", germs.UV, f.field)
        assert arith.try_divide(f.multipoint.resultant, u * u) is not None, f.name
        calls.clear()
        factorizations.clear()
        if k % 2:
            with pytest.raises(OverrideRequired, match="^vertical indices of untwisted "
                               "pairs unknown and more than one entry missing; supply "
                               "vertical_indices overrides$"):
                analyze(f)
        else:
            analyze(f)
        assert f.multipoint.curve != f.multipoint.resultant.normalized(), f.name
        assert calls["squarefree_part"] == 1, f.name
        assert factorizations["factor_components"] == 1, f.name


def test_curve_does_not_depend_on_read_order(monkeypatch):
    # curve and branches are pure functions of R's one factorization, so
    # reading branches first changes neither the curve nor the number of
    # squarefree parts, on the certified route (S_2) and on the fallback
    calls = _count_calls(monkeypatch)
    texts = [_germ_text(("u", "v^2", f3), field) for _, f3, field in FALLBACK_GERMS]
    for make in [lambda: S(2)] + [lambda text=text: load_germ(text)[0] for text in texts]:
        seen = []
        for branches_first in (False, True):
            f = make()
            calls.clear()
            if branches_first:
                f.multipoint.branches
            seen.append((f.multipoint.curve, calls["squarefree_part"]))
        assert seen[0] == seen[1], seen


def test_a_resultant_with_a_squared_unit_factor_is_not_taken_as_the_curve():
    # Res_v2(P, Q) = (u - v^2)*(1 + u + v^2)^2 is one Newton-certified
    # factor, a germ branch, but not reduced as a polynomial: the curve is
    # its squarefree part, whose branch through the origin is u - v^2
    f = load_germ(_germ_text(("u", "v^2", "v*(u - v^2)*(1 + u + v^2)^2"), "Q(i)"))[0]
    report = analyze(f).to_dict()
    assert f.multipoint.branches is None
    assert [c["equation"] for c in report["components"]] == ["u - v^2"]
    assert {"name": "fold-vs-resultant", "status": "pass",
            "detail": "resultant route gives u + u^2 - v^2 - v^4"} in report["checks"]


def test_source_changed_H5_is_refused_quickly(monkeypatch):
    # H_5 under v -> 4u - 3v - (2/3)u^2: Res_v2(P, Q) has 481 terms, is
    # squarefree, and has no factorization the factorizer certifies; its
    # squarefree part took 17-37 s by the bivariate PRS and takes well under
    # 1 s once one image proves the gcds trivial.  The squarefree part is R
    # itself, so the component route reuses the factorizer's one refusal
    calls = _count_calls(monkeypatch, factor, "factor_components")
    w = "(4*u - 3*v - 2/3*u^2)"
    f = load_germ(_germ_text(("u", f"u*{w} + {w}^14", f"{w}^3"), "Q(zeta3)"))[0]
    start = time.perf_counter()
    with pytest.raises(OverrideRequired, match="cannot certify a factorization"):
        analyze(f)
    assert time.perf_counter() - start < 10
    assert calls["factor_components"] == 1
    assert len(f.multipoint.resultant.terms) == 481


def test_a_factorizer_refusal_is_not_missing_multiple_point_data(monkeypatch):
    # Res_v2(P, Q) = (u - v^2)^3, which the factorizer refuses with the same
    # OverrideRequired that a germ with no multiple-point data raises; the
    # germ has that data, so a double_curve override is checked against
    # the squarefree part, not trusted, and with no override that part is
    # factored on its own
    calls = _count_calls(monkeypatch, factor, "factor_components")
    maps = ("u", "v^2 + u^2", "v*(u - v^2)^3")
    wrong = load_germ(_germ_text(maps, "Q", 'double_curve = "u + v^2"\n'))[0]
    with pytest.raises(AnalysisError, match="^double_curve override is not the "
                       "divided-difference curve up to factors that miss the origin$"):
        analyze(wrong)
    assert isinstance(wrong.multipoint.factorization, OverrideRequired)
    for overrides in ('double_curve = "u - v^2"\n', ""):
        calls.clear()
        assert analyze(load_germ(_germ_text(maps, "Q", overrides))[0]).sigma_F == -3
        assert calls["factor_components"] == 2, overrides


def _without_check_details(report):
    d = report.to_dict()
    d["checks"] = [(c["name"], c["status"]) for c in d["checks"]]
    del d["name"]
    return d


def _germ_text(maps, field, overrides=""):
    return (f"[germ]\nmap = {list(maps)!r}\nfield = {field!r}\n"
            f"[overrides]\n{overrides}")


def test_fold_components_pass_through_the_origin():
    # Z -> (1 + Y)*Z and Z -> (1 + X)*Z multiply the double curve by a unit
    # of the local ring; the branches that miss the origin must not be
    # reported, and every invariant is the plain germ's.  Check details may
    # differ: the resultant route keeps the unit factor.
    cases = [(S(1), "(1 + v^2)*(v^3 + u^2*v)", "Q(i)"),
             (F4(), "(1 + u)*(u^3*v + v^5)", "Q")]
    for plain, f3, field in cases:
        twin = load_germ(_germ_text(("u", "v^2", f3), field))[0]
        assert _without_check_details(analyze(twin)) == \
            _without_check_details(analyze(plain)), plain.name


def test_fold_formula_reads_the_odd_part_of_f3():
    # Z -> Z - q(X, Y) removes the even part of f3, so (u, v^2, f3) is the
    # fold germ of its odd part; the first exited 2 asking for vertical_indices
    cases = [(C_(5), "u*v^3 + u^5*v + u*v^2"), (S(1), "v^3 + u^2*v + v^2"),
             (B(3), "u^2*v + v^7 + 3*u*v^4 + v^6")]
    for plain, f3 in cases:
        twin = load_germ(_germ_text(("u", "v^2", f3), "Q(i)"))[0]
        report = analyze(twin)
        assert _without_check_details(report) == \
            _without_check_details(analyze(plain)), plain.name
        assert all(vi["provenance"] == "fold-formula"
                   for vi in report.to_dict()["vertical_indices"]), plain.name
        assert ("fold-vs-resultant", "pass") in [c[:2] for c in report.checks], plain.name


def test_fold_vs_resultant_ignores_a_valid_double_curve_override(tmp_path):
    # the override drops the factor 1 + v^2 that misses the origin, so it is
    # valid; the check compares Res_v2(P, Q) with +-f3/v, not with the override
    path, out = tmp_path / "twin.germ", tmp_path / "twin.json"
    maps = ("u", "v^2", "(1 + v^2)*(v^3 + u^2*v)")
    for overrides in ("", 'double_curve = "v^2 + u^2"\n'):
        path.write_text(_germ_text(maps, "Q(i)", overrides))
        assert run_analyze(str(path), "json", out=str(out)) == 0, overrides
        checks = {c["name"]: c["status"] for c in json.loads(out.read_text())["checks"]}
        assert checks["fold-vs-resultant"] == "pass", overrides


def test_fold_vs_resultant_fails_unless_the_resultant_is_f3_over_v():
    # r*r has the squarefree part of r, so the curve and every other stage
    # stay the same; only the exact identity Res_v2(P, Q) = +-f3/v breaks
    want = analyze(S(1)).to_dict()
    f = S(1)
    f.multipoint.resultant = f.multipoint.resultant ** 2
    report = analyze(f)
    for check in want["checks"]:
        if check["name"] == "fold-vs-resultant":
            check["status"] = "fail"
    assert report.to_dict() == want
    assert not report.ok()


def test_one_resultant_per_analyze_with_a_double_curve_override(monkeypatch):
    # the override check and the fold-vs-resultant check read one resultant;
    # arith.resultant calls resultant_and_s1, so this counts every elimination
    calls = Counter()
    original = arith.resultant_and_s1

    def counted(*args):
        calls["resultant"] += 1
        return original(*args)
    for module in (arith, factor, localring, germs, curves, signature):
        if getattr(module, "resultant_and_s1", None) is original:
            monkeypatch.setattr(module, "resultant_and_s1", counted)
    maps = ("u", "v^2", "(1 + v^2)*(v^3 + u^2*v)")
    germ = load_germ(_germ_text(maps, "Q(i)", 'double_curve = "v^2 + u^2"\n'))[0]
    analyze(germ)
    assert calls["resultant"] == 1


def test_one_elimination_of_P_and_Q_per_analyze(monkeypatch):
    # the double-point resultant and the partner line come from one
    # elimination of v2, and no PRS runs on (P, Q): P has degree 1 in v2
    # (every germ but the H_k), or Q = v1^2 + v1*v2 + v2^2 has the constant
    # leading coefficient 1 in v2, and P is reduced by Q exactly once
    runs, divisions = [], []
    original_prs, original_rem = arith._subresultants, arith.monic_remainder

    def recording_prs(A, B):
        runs.append((A, B))
        return original_prs(A, B)

    def recording_rem(a, b, var):
        divisions.append((a, b, var))
        return original_rem(a, b, var)
    monkeypatch.setattr(arith, "_subresultants", recording_prs)
    monkeypatch.setattr(arith, "monic_remainder", recording_rem)
    reduced = []
    for f in corpus(10):
        runs.clear()
        divisions.clear()
        analyze(f)
        if f.corank != 1:
            continue
        P, Q = f.multipoint.P, f.multipoint.Q
        views = [arith._univ_coeffs(g, "v2") for g in (P, Q)]
        assert not [1 for A, B in runs if [A, B] in (views, views[::-1])], f.name
        if divisions.count((P, Q, "v2")):
            assert divisions.count((P, Q, "v2")) == 1, f.name
            reduced.append(f.name)
    # the nine H_k: every other corank-1 germ has P = v1 + v2
    assert reduced == [f"H_{k}" for k in range(2, 11)]


def test_components_override_may_leave_out_units():
    # Z -> (1 + X)*Z on H_2: the resultant curve gains the factor 1 + u,
    # which a components override need not list
    comps = 'components = ["u - zeta3*v^4", "u + (1 + zeta3)*v^4"]\n'
    twin = load_germ(_germ_text(("u", "u*v + v^5", "(1 + u)*v^3"), "Q(zeta3)",
                                comps))[0]
    assert _without_check_details(analyze(twin)) == \
        _without_check_details(analyze(H(2)))


def test_unknown_vertical_index_keys_are_errors():
    h2 = ("u", "u*v + v^5", "v^3")
    s1 = ("u", "v^2", "v^3 + u^2*v")
    cases = [(h2, "Q(zeta3)", '["0+2:-7", "5:3"]', ["'0+2'", "'5'"]),
             (s1, "Q(i)", '["0:-2"]', ["'0'"])]
    for maps, field, entries, keys in cases:
        germ = load_germ(_germ_text(maps, field, f"vertical_indices = {entries}\n"))[0]
        with pytest.raises(AnalysisError, match="names no image component") as exc:
            analyze(germ)
        assert all(key in str(exc.value) for key in keys), str(exc.value)
