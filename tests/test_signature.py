import random
from collections import Counter
from fractions import Fraction

import pytest

from milnorsig import arith, curves, factor, germs, localring, signature
from milnorsig.corpus import (B, C_, F4, H, S, TRIPLE_POINT_MATRIX, corank2,
                              corpus, cross_cap, expected_invariants)
from milnorsig.curves import component_set
from milnorsig.germfile import load_germ
from milnorsig.germs import AnalysisError, OverrideRequired, corank, crosscap_number, \
    double_curve_equation, triple_point_number
from milnorsig.signature import (analyze, derived_invariants, intersection_form,
                                 signature_of_form, vertical_indices)


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


def _vertical_indices(f):
    cs = component_set(f, double_curve_equation(f))
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
    cs = component_set(f, double_curve_equation(f))
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
                         (germs, "multipoint_data"), (arith, "squarefree_part"),
                         (factor, "factor_components")]
    for home, name in counted_functions:
        original = getattr(home, name)

        def counted(*args, _original=original, _name=name):
            calls[_name] += 1
            return _original(*args)
        for module in (arith, factor, localring, germs, curves, signature):
            if getattr(module, name, None) is original:
                monkeypatch.setattr(module, name, counted)
    # squarefree_part: the fold reduction and the fold-vs-resultant check on
    # a fold germ, the resultant curve on H_3, the double_curve override
    # check on the corank-2 germ
    reductions = {"cross-cap": 2, "S_2": 2, "H_3": 1, "corank-2": 1}
    for germ in (cross_cap(), S(2), H(3), corank2()):
        calls.clear()
        analyze(germ)
        germ_data = [calls[n] for n in ("corank", "fold_normal_data", "multipoint_data")]
        assert max(germ_data) == 1, (germ.name, calls)
        assert calls["factor_components"] <= 1, (germ.name, calls)
        assert calls["squarefree_part"] == reductions[germ.name], (germ.name, calls)


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
