import pytest

from milnorsig.arith import poly_gcd, resultant, squarefree_part, try_divide
from milnorsig.corpus import B, C_, F4, H, S, corank2, cross_cap
from milnorsig.curves import (_general_partner, associate, classify_twist,
                              component_set, curve_milnor, decompose,
                              intersection_table, v_axis_multiplicities)
from milnorsig.fields import QQ
from milnorsig.germfile import load_germ
from milnorsig.germs import (AnalysisError, MultiPointData, UV, double_curve_equation,
                             multipoint_data)
from milnorsig.parser import parse_poly

UVV = ("u", "v1", "v2")


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
                        (v1 - v2) * (v1 + v2), None)
    h = parse_poly("u - v", UV, QQ)
    comps_v2 = in_v2([parse_poly(s, UV, QQ) for s in
                      ("u - v", "u + v", "u + 2*v", "(u - v)*(u + v)", "(u - v)*(u + 2*v)")])
    assert _general_partner(h, mp, comps_v2) == gcd_route_partner(h, mp, comps_v2) == [0]


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
        with pytest.raises(AnalysisError, match="disagrees with v -> -v"):
            classify_twist(f, comps, wrong)


def test_pairing_is_involution():
    for f in (S(1), C_(5), H(2)):
        curve = double_curve_equation(f)
        cs = component_set(f, curve)
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


def test_associate():
    a = parse_poly("u + v", UV, S(1).field)
    assert associate(a, a.scale(3))
    assert not associate(a, parse_poly("u - v", UV, S(1).field))
