import re

import pytest

from milnorsig import arith, curves, germs, localring
from milnorsig.arith import poly_gcd, resultant, squarefree_part, try_divide
from milnorsig.corpus import B, C_, F4, H, S, corank2, corpus, cross_cap
from milnorsig.curves import (_partners, classify_twist, component_set, curve_milnor,
                              decompose, intersection_table, v_axis_multiplicities)
from milnorsig.fields import QQ
from milnorsig.germfile import load_germ
from milnorsig.germs import (AnalysisError, MultiPointData, OverrideRequired, UV,
                             double_curve_equation, multipoint_data)
from milnorsig.parser import parse_poly
from milnorsig.poly import Poly
from milnorsig.signature import analyze
from test_golden import target_changed, target_changed_corpus8

UVV = ("u", "v1", "v2")


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


def gcd_route_partner(h, mp, comps_v2):
    """Reference for _general_partner: the components dividing the squarefree
    gcd of the two resultants, computed without any shortcut."""
    h1 = h.rename({"v": "v1"}, UVV)
    rs = [g if h1.degree_in("v1") <= 0 and g.degree_in("v1") <= 0
          else resultant(h1, g, "v1") for g in (mp.P, mp.Q)]
    elim = squarefree_part(poly_gcd(rs[0], rs[1]))
    return [j for j, g in enumerate(comps_v2) if try_divide(elim, g) is not None]


def in_v2(comps):
    return [h.rename({"v": "v2"}, UVV).normalized() for h in comps]


def test_decompose_examples():
    f = S(1)
    comps = decompose(double_curve_equation(f))
    assert len(comps) == 2
    assert {str(c) for c in comps} == {"u - i*v", "u + i*v"}
    f = B(4)
    comps = decompose(double_curve_equation(f))
    assert {str(c) for c in comps} == {"u - i*v^4", "u + i*v^4"}
    f = F4()
    comps = decompose(double_curve_equation(f))
    assert len(comps) == 1


def test_decompose_drops_local_units():
    # 1 + u has no branch through the origin; a curve of units only is refused
    field = S(1).field
    comps = decompose(parse_poly("(1 + u)*(u^2 + v^2)", UV, field))
    assert {str(c) for c in comps} == {"u - i*v", "u + i*v"}
    with pytest.raises(AnalysisError, match="passes through the origin"):
        decompose(parse_poly("(1 + u)*(1 - v)", UV, field))
    # the quotient (1 + u)^2 of the curve by its one branch is a unit
    assert [str(c) for c in decompose(parse_poly("(1 + u)^2*(u + v)", UV, QQ))] == ["u + v"]


def test_decompose_refuses_repeated_factors():
    # a curve with a repeated factor is not reduced: it fails the product check
    for src in ("v^2*(u + v)", "(u + v)^2", "(u - v^2)^2", "u*(u + v)^2"):
        with pytest.raises(AnalysisError, match="do not multiply to the curve"):
            decompose(parse_poly(src, UV, QQ))


def test_decompose_override_validation():
    f = S(1)
    curve = double_curve_equation(f)
    good = [parse_poly("u - i*v", UV, f.field), parse_poly("u + i*v", UV, f.field)]
    assert len(decompose(curve, good)) == 2
    with pytest.raises(AnalysisError):
        decompose(curve, [parse_poly("u - i*v", UV, f.field)])
    with pytest.raises(AnalysisError):
        decompose(curve, [good[0], parse_poly("2*u - 2*i*v", UV, f.field)])
    with pytest.raises(AnalysisError):
        decompose(curve, [parse_poly("(u - i*v)^2", UV, f.field), good[1]])
    # a factor that misses the origin may be left out, a branch may not
    with_unit = curve * parse_poly("1 + u", UV, f.field)
    assert decompose(with_unit, good) == good
    with pytest.raises(AnalysisError):
        decompose(with_unit, good[:1])


def test_twist_fold_path():
    f = S(1)
    comps = decompose(double_curve_equation(f))
    pairing = classify_twist(f, comps)
    assert pairing == [(0, 1)]
    f = B(4)
    comps = decompose(double_curve_equation(f))
    assert classify_twist(f, comps) == [(0, 0), (1, 1)]
    f = C_(5)
    comps = decompose(double_curve_equation(f))
    pairing = classify_twist(f, comps)
    assert sorted(i == j for i, j in pairing) == [False, True]
    # the twisted one is the u-axis component
    twisted = next(i for i, j in pairing if i == j)
    assert str(comps[twisted]) == "u"


def test_twist_general_path_matches_fold_path():
    for f in (cross_cap(), S(1), S(2), B(2), B(4), C_(3), C_(4), F4()):
        comps = decompose(double_curve_equation(f))
        fold_pairing = classify_twist(f, comps)
        # exercise the divided-difference partner route directly
        mp = multipoint_data(f)
        comps_v2 = in_v2(comps)
        for i, j in fold_pairing:
            assert _general_partner(comps[i], mp, comps_v2) == [j], f.name
            assert _general_partner(comps[j], mp, comps_v2) == [i], f.name


def test_twist_general_path_Hk():
    f = H(2)
    comps = decompose(double_curve_equation(f))
    pairing = classify_twist(f, comps)
    assert pairing == [(0, 1)]


def test_general_partner_matches_gcd_route_Hk():
    for k in (2, 3, 4, 5):
        f = H(k)
        comps = decompose(double_curve_equation(f))
        mp = multipoint_data(f)
        comps_v2 = in_v2(comps)
        for i, h in enumerate(comps):
            got = _general_partner(h, mp, comps_v2)
            assert got == gcd_route_partner(h, mp, comps_v2), (f.name, i)
            assert got == [1 - i], (f.name, i)


def test_general_partner_matches_gcd_route_reducible_overrides():
    # override components must be squarefree, not irreducible: join branches
    cases = []
    f = H(2)
    cases.append((f, [double_curve_equation(f)]))
    f = C_(5)
    a, b, c = decompose(double_curve_equation(f))
    cases += [(f, [a * b, c]), (f, [a, b * c]), (f, [a * c, b])]
    f = B(4)
    cases.append((f, [double_curve_equation(f)]))
    for f, override in cases:
        comps = decompose(double_curve_equation(f), override)
        mp = multipoint_data(f)
        comps_v2 = in_v2(comps)
        for h in comps:
            assert (_general_partner(h, mp, comps_v2)
                    == gcd_route_partner(h, mp, comps_v2)), f.name


def test_general_partner_needs_both_resultants():
    # Res(u - v1, P) = (u - v2)^2 (u + 2 v2) and Res(u - v1, Q) = (u - v2)(u + v2):
    # only u - v2 divides both, so a one-resultant test would pick extra partners
    v1, v2 = (parse_poly(v, UVV, QQ) for v in ("v1", "v2"))
    mp = MultiPointData((v1 - v2) * (v1 - v2) * (v1 + v2.scale(2)),
                        (v1 - v2) * (v1 + v2))
    h = parse_poly("u - v", UV, QQ)
    comps_v2 = in_v2([parse_poly(s, UV, QQ) for s in
                      ("u - v", "u + v", "u + 2*v", "(u - v)*(u + v)", "(u - v)*(u + 2*v)")])
    assert _general_partner(h, mp, comps_v2) == gcd_route_partner(h, mp, comps_v2) == [0]


def test_partners_match_general_partner():
    for f in [f for f in corpus(10) if f.corank == 1] + target_changed_corpus8():
        comps = decompose(double_curve_equation(f))
        comps_v2 = in_v2(comps)
        want = [_general_partner(h, f.multipoint, comps_v2) for h in comps]
        assert _partners(f, comps) == want, f.name


def test_branch_dividing_a_is_paired_by_the_involution():
    # the branch u of C_k under (X, Z + Y, 3Y - Z) divides the coefficient a
    # of v2 in the partner line, so no pullback decides it; no decided
    # branch names it, so it is its own partner: twisted
    for k in range(3, 9):
        f = target_changed(C_(k))[1]
        comps = decompose(double_curve_equation(f))
        i = comps.index(parse_poly("u", UV, f.field))
        a = f.multipoint.line[0]
        assert try_divide(a, comps[i]) is not None, f.name
        assert _partners(f, comps)[i] == [i], f.name
        assert classify_twist(f, comps) == classify_twist(C_(k), comps), f.name


@pytest.mark.parametrize("line", [
    pytest.param(None, id="no-line"),
    # v2 + i*u, stored as (None, i*u), pulls u - i*v back to u - i*(-i*u) = 0
    pytest.param("i*u", id="zero-pullback"),
])
def test_undecided_branches_ask_for_the_override(line):
    # S_1 with its partner line replaced: neither branch is decided
    f = S(1)
    if line is not None:
        line = (None, parse_poly(line, UV, f.field))
    f.multipoint.line = line
    comps = decompose(double_curve_equation(f))
    assert _partners(f, comps) == [[0, 1], [0, 1]]
    with pytest.raises(OverrideRequired, match=re.escape("candidates [0, 1]")):
        classify_twist(f, comps)
    for override in ([(0, 1)], [(0, 0), (1, 1)]):
        assert classify_twist(f, comps, override) == override


def test_linear_branches_divide_no_pullback(monkeypatch):
    # every branch of H_k and B_k is c*x + r, on which _partners evaluates
    # the pullbacks: try_divide runs only for the h | a checks, one per
    # branch when a is a polynomial and none when a is None
    cases = [(f, decompose(double_curve_equation(f)))
             for f in [H(k) for k in range(2, 9)] + [B(k) for k in range(2, 9)]]
    calls = []

    def counted(p, q, real=curves.try_divide):
        calls.append(q)
        return real(p, q)
    monkeypatch.setattr(curves, "try_divide", counted)
    for f, comps in cases:
        calls.clear()
        partners = _partners(f, comps)
        assert all(len(p) == 1 for p in partners), f.name
        a = f.multipoint.line[0]
        assert calls == ([] if a is None else comps), f.name


def test_vanishing_jacobian_forms_the_pullbacks():
    # S_1 with the line v2 + 2u, stored as (None, 2u): W = b_v = 0, so the
    # pullbacks are formed, and none is zero (u -+ i*v pulls back to
    # (1 -+ 2i)*u); both branches are decided, and neither divides one
    f = S(1)
    f.multipoint.line = (None, parse_poly("2*u", UV, f.field))
    comps = decompose(double_curve_equation(f))
    assert _partners(f, comps) == [[], []]


def test_classify_twist_runs_no_resultant_on_the_corpus(monkeypatch):
    cases = [(f, decompose(double_curve_equation(f), f.overrides.components))
             for f in corpus(10)]
    cases += [(f, decompose(double_curve_equation(f))) for f in target_changed_corpus8()]

    def refuse(*args):
        raise AssertionError("resultant called")
    # the germ's one PRS of (P, Q) ran in double_curve_equation above
    for module, name in ((arith, "resultant"), (arith, "resultant_and_s1"),
                         (germs, "resultant_and_s1")):
        monkeypatch.setattr(module, name, refuse)
    for f, comps in cases:
        classify_twist(f, comps, f.overrides.twist)


def test_target_changes_keep_every_invariant():
    keys = ("C", "T", "mu_D", "mu_I", "b2", "sigma_X", "sigma_F")

    def invariants(report):
        d = report.to_dict()
        pattern = [(c["twist"], c["partner"]) for c in d["components"]]
        return [d[k] for k in keys], pattern

    completed = 0
    for f in corpus(6):
        if f.corank != 1:
            continue
        want = invariants(analyze(f))
        for g in target_changed(f):
            try:
                got = invariants(analyze(g))
            except OverrideRequired:  # C_3 and C_5 ask for vertical indices
                continue
            assert got == want, g.name
            completed += 1
    assert completed >= 40


def test_twist_override_validation():
    f = corank2()
    comps = decompose(double_curve_equation(f), f.overrides.components)
    pairing = classify_twist(f, comps, f.overrides.twist)
    assert pairing == [(i, i) for i in range(5)]
    with pytest.raises(AnalysisError):
        classify_twist(f, comps, [(0, 0)])
    with pytest.raises(AnalysisError):
        classify_twist(f, comps, [(0, 1), (1, 2), (3, 3), (4, 4)])
    with pytest.raises(AnalysisError):
        classify_twist(f, comps, [(i, i) for i in range(4)] + [(4, 5)])


def test_fold_twist_override_must_agree_with_v_flip():
    # v -> -v swaps u - i*v with u + i*v and u - 2i*v with u + 2i*v; calling
    # all four twisted gave sigma_F = -4 with every check passing, not -6
    f = load_germ("""[germ]
map = ["u", "v^2", "v*(u^2 + v^2)*(u^2 + 4*v^2)"]
field = "Q(i)"
""")[0]
    comps = decompose(double_curve_equation(f), [
        parse_poly(s, UV, f.field)
        for s in ("u - i*v", "u + i*v", "u - 2*i*v", "u + 2*i*v")])
    assert classify_twist(f, comps) == [(0, 1), (2, 3)]
    assert classify_twist(f, comps, [(3, 2), (1, 0)]) == [(3, 2), (1, 0)]
    for wrong in ([(i, i) for i in range(4)], [(0, 2), (1, 3)],
                  [(0, 1), (2, 2), (3, 3)]):
        with pytest.raises(AnalysisError, match="disagrees with the divided-difference partners"):
            classify_twist(f, comps, wrong)


def test_pairing_is_involution():
    for f in (S(1), C_(5), H(2)):
        cs = component_set(f)
        for i in range(len(cs.components)):
            assert cs.partner[cs.partner[i]] == i


def test_intersection_tables():
    f = S(1)
    comps = decompose(double_curve_equation(f))
    assert intersection_table(comps) == [[0, 1], [1, 0]]
    f = H(2)
    comps = decompose(double_curve_equation(f))
    assert intersection_table(comps) == [[0, 4], [4, 0]]
    f = corank2()
    comps = decompose(double_curve_equation(f), f.overrides.components)
    table = intersection_table(comps)
    n = len(comps)
    assert all(table[i][j] == 1 for i in range(n) for j in range(n) if i != j)


def test_repeated_component_detected():
    f = S(1)
    h = parse_poly("u - i*v", UV, f.field)
    with pytest.raises(AnalysisError):
        intersection_table([h, h * parse_poly("u + i*v", UV, f.field)])


def test_v_axis_multiplicities():
    f = C_(5)
    comps = decompose(double_curve_equation(f))
    vax = v_axis_multiplicities(comps)
    # u-axis component meets {v=0} once; u^2 +- i*v components meet it twice
    assert sorted(vax) == [1, 2, 2]


def test_v_axis_multiplicities_match_intersection_numbers():
    # oracle: D_i . {v = 0} as dim O/(h, v) by a Mora standard basis
    for f in corpus(10):
        if f.fold_data is None:
            continue
        v = Poly.variable("v", UV, f.field)
        for h in decompose(double_curve_equation(f)):
            want = localring.intersection_multiplicity(h, v)
            assert v_axis_multiplicities([h]) == [want], (f.name, h)


def test_v_axis_multiplicities_refuse_a_branch_along_the_v_axis():
    for text in ("v", "v*(u^2 + v)", "u*v + v^3"):
        h = parse_poly(text, UV, QQ)
        with pytest.raises(AnalysisError, match=re.escape("contains {v = 0}")):
            v_axis_multiplicities([parse_poly("u", UV, QQ), h])


def test_v_axis_multiplicities_run_no_standard_basis(monkeypatch):
    comps = decompose(double_curve_equation(C_(5)))

    def refuse(*args):
        raise AssertionError("standard_basis called")
    monkeypatch.setattr(localring, "standard_basis", refuse)
    assert sorted(v_axis_multiplicities(comps)) == [1, 2, 2]


def test_curve_milnor():
    f = S(1)
    assert curve_milnor(double_curve_equation(f)) == 1
    f = H(2)
    assert curve_milnor(double_curve_equation(f)) == 7
    f = S(2)
    assert curve_milnor(double_curve_equation(f)) == 2
    # mu needs the reduced curve: a repeated branch is refused, while a
    # repeated factor that misses the origin changes nothing
    with pytest.raises(AnalysisError):
        curve_milnor(parse_poly("(u - i*v)^2*(u + i*v)", UV, f.field))
    assert curve_milnor(parse_poly("(1 + u)^2*(u^2 + v^2)", UV, f.field)) == 1


def test_intersection_tables_reach_only_univariate_orders(monkeypatch):
    # eliminating the linear variables leaves each intersection of two
    # corpus branches finished, or in one variable, where quotient_dim reads
    # the least order: none runs a standard basis
    branch_lists = [decompose(double_curve_equation(f), f.overrides.components)
                    for f in corpus(10)]
    calls = []
    original = localring.standard_basis

    def recording(I):
        calls.append(list(I))
        return original(I)
    monkeypatch.setattr(localring, "standard_basis", recording)
    for comps in branch_lists:
        intersection_table(comps)
    assert sum(len(c) * (len(c) - 1) // 2 for c in branch_lists) == 49
    assert calls == []
