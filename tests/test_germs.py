import random
from fractions import Fraction

import pytest

from milnorsig import germs
from milnorsig.arith import resultant, squarefree_part
from milnorsig.corpus import B, C_, F4, H, S, corank2, corpus, cross_cap
from milnorsig.fields import QQ, FieldElem, parse_field
from milnorsig.germs import (AnalysisError, Germ, OverrideRequired, OverrideSet, UV,
                             corank, crosscap_number,
                             double_curve_equation, fold_normal_data,
                             multipoint_data, presented_triple_points,
                             triple_point_number)
from milnorsig.localring import INFINITE, quotient_dim
from milnorsig.parser import parse_poly
from milnorsig.poly import Poly
from milnorsig.signature import analyze
from test_curves import target_changed, target_changed_corpus8


def G(maps, field=QQ):
    return Germ(tuple(parse_poly(s, UV, field) for s in maps), field)


def test_corank():
    assert corank(cross_cap()) == 1
    assert corank(corank2()) == 2
    assert corank(G(("u", "v", "0"))) == 0
    assert corank(G(("u + v", "2*u + 2*v", "u^2"))) == 1  # proportional columns


def _rank(matrix) -> int:
    """Rank of a matrix of Fractions by Gaussian elimination."""
    rows, rank = [list(r) for r in matrix], 0
    for col in range(len(rows[0])):
        i = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if i is None:
            continue
        rows[rank], rows[i] = rows[i], rows[rank]
        pivot = rows[rank]
        for r in rows[rank + 1:]:
            k = r[col] / pivot[col]
            r[:] = [a - k * b for a, b in zip(r, pivot)]
        rank += 1
    return rank


def test_corank_matches_rank_of_linear_part():
    # linear parts: random rational 3x2 matrices of rank 0, 1 (proportional
    # columns) and 2, with zero rows and zero components, under random terms
    # of degree 2 and 3
    rng = random.Random(18)

    def q(zero_odds=0.0):
        return Fraction(0) if rng.random() < zero_odds else \
            Fraction(rng.choice([-1, 1]) * rng.randint(1, 9), rng.randint(1, 4))

    seen = set()
    for n in range(90):
        if n % 3 == 0:
            matrix = [[Fraction(0)] * 2 for _ in range(3)]
        elif n % 3 == 1:
            col, row = [q(0.3) for _ in range(3)], [q(0.3), q(0.3)]
            matrix = [[a * b for b in row] for a in col]
        else:
            matrix = [[q(0.2), q(0.2)] for _ in range(3)]
        comps = []
        for a, b in matrix:
            if rng.random() < 0.15:
                comps.append(Poly.zero(UV, QQ))
                continue
            terms = {(1, 0): a, (0, 1): b}
            for _ in range(rng.randint(0, 3)):
                i = rng.randint(0, 3)
                terms[(i, rng.randint(max(0, 2 - i), 3 - i))] = q()
            comps.append(Poly(UV, {e: QQ.from_rational(c) for e, c in terms.items()}, QQ))
        matrix = [[c.terms.get(e, QQ.zero()).as_rational() for e in ((1, 0), (0, 1))]
                  for c in comps]
        rank = _rank(matrix)
        seen.add(rank)
        assert corank(Germ(tuple(comps), QQ)) == 2 - rank, comps
    assert seen == {0, 1, 2}


def test_crosscap_numbers():
    assert crosscap_number(cross_cap()) == 1
    for k in (1, 2, 3):
        assert crosscap_number(S(k)) == k + 1
    assert crosscap_number(B(2)) == 2
    assert crosscap_number(C_(4)) == 4
    assert crosscap_number(F4()) == 3
    for k in (2, 3):
        assert crosscap_number(H(k)) == 2
    assert crosscap_number(corank2()) == 3


def test_crosscap_swap_invariance():
    f = S(2)
    f1, f2, f3 = f.components
    swapped = Germ((f1, f3, f2), f.field)
    assert crosscap_number(swapped) == crosscap_number(f)
    rescaled = Germ((f1, f2.scale(5), f3), f.field)
    assert crosscap_number(rescaled) == crosscap_number(f)


def test_crosscap_detects_non_finite():
    with pytest.raises(AnalysisError):
        crosscap_number(G(("u", "v^2", "v^2")))
    # every Jacobian minor vanishes: the zero ideal has infinite colength
    with pytest.raises(AnalysisError, match="not finitely determined along the cross-cap"):
        crosscap_number(G(("u", "u^2", "u^3")))


def test_fold_normal_data():
    # p(u, v^2) = f3 / v, in the germ's own variables
    p = fold_normal_data(S(2))
    assert p == parse_poly("v^2 + u^3", UV, S(2).field)
    assert fold_normal_data(H(2)) is None
    p = fold_normal_data(cross_cap())
    assert p == parse_poly("u", UV, QQ)
    # the even part of f3 is left out; an f3 with no odd term has no p
    assert fold_normal_data(G(("u", "v^2", "u*v^3 + u*v^2 + u^5*v"))) == \
        parse_poly("u*v^2 + u^5", UV, QQ)
    assert fold_normal_data(G(("u", "v^2", "u*v^2 + v^4"))) is None


def test_multipoint_data():
    f = S(1)
    mp = multipoint_data(f)
    V3 = ("u", "v1", "v2")
    assert mp.P == parse_poly("v1 + v2", V3, f.field)
    assert mp.Q == parse_poly("v1^2 + v1*v2 + v2^2 + u^2", V3, f.field)
    cc = cross_cap()
    mp = multipoint_data(cc)
    assert mp.P == parse_poly("v1 + v2", V3, QQ)
    assert mp.Q == parse_poly("u", V3, QQ)


def test_multipoint_divided_difference_identity():
    V3 = ("u", "v1", "v2")
    for f in corpus(3):
        if corank(f) != 1:
            continue
        mp = multipoint_data(f)
        field = f.field
        v1 = Poly.variable("v1", V3, field)
        v2 = Poly.variable("v2", V3, field)
        for dd, comp in ((mp.P, f.components[1]), (mp.Q, f.components[2])):
            lhs = dd * (v1 - v2)
            rhs = comp.rename({"v": "v1"}, V3) - comp.rename({"v": "v2"}, V3)
            assert lhs == rhs


def test_triple_point_generators_are_divided_differences():
    """The triple-point generators are P, Q, ddP and ddQ in (u, v1, v2, v3),
    with (v2 - v3) * ddP = P(u, v1, v2) - P(u, v1, v3), and the same for Q."""
    V4 = ("u", "v1", "v2", "v3")
    checked = 0
    for f in corpus(10):
        if corank(f) != 1:
            continue
        mp = multipoint_data(f)
        gens = list(mp.triple_point_generators())
        assert gens[:2] == [mp.P.rename({}, V4), mp.Q.rename({}, V4)], f.name
        v2, v3 = (Poly.variable(x, V4, f.field) for x in ("v2", "v3"))
        for g, dd in zip((mp.P, mp.Q), gens[2:]):
            assert (v2 - v3) * dd == g.rename({}, V4) - g.rename({"v2": "v3"}, V4), f.name
        assert len(gens) == 4, f.name
        checked += 1
    assert checked == 38


def test_triple_point_generators_build_ddP_and_ddQ_in_place(monkeypatch):
    # only P and Q are re-indexed into (u, v1, v2, v3); the divided
    # differences of P and Q in v2 land there directly
    renamed = []
    rename = Poly.rename

    def recording(p, mapping, new_vars):
        renamed.append(p)
        return rename(p, mapping, new_vars)

    monkeypatch.setattr(Poly, "rename", recording)
    for f in (cross_cap(), S(2), H(3), C_(4)):
        renamed.clear()
        mp = multipoint_data(Germ(f.components, f.field))
        list(mp.triple_point_generators())
        assert renamed == [mp.P, mp.Q], f.name


def test_triple_point_number_builds_only_the_generators_it_reads(monkeypatch):
    # every corank-1 germ of the corpus takes T from its multiplicity or a
    # monic cubic, and a T override reads no triple-point generator: only P
    # and Q are divided differences.  The fallback builds ddP and ddQ too.
    calls = []
    original = germs.divided_difference

    def recording(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(germs, "divided_difference", recording)
    corank1 = [f for f in corpus(10) if f.corank == 1]
    assert len(corank1) == 38
    for f in corank1:
        calls.clear()
        analyze(f)
        assert len(calls) == 2, f.name
    h2 = H(2)
    calls.clear()
    analyze(Germ(h2.components, h2.field, overrides=OverrideSet(T=1)))
    assert len(calls) == 2
    calls.clear()
    assert triple_point_number(target_changed(h2)[1]) == 1
    assert len(calls) == 4


def test_presented_triple_points_match_the_generators():
    # the multiplicity and monic-cubic rules against dim O/(P, Q, ddP, ddQ)
    # = 6T; only the H_k target changes, where no component is a monic
    # cubic, fall back.  Besides the corpus: monic cubics with lower terms
    # in u, the last with no isolated triple point (INFINITE both ways), and
    # H_k under source changes
    extra = [G(("u", "v^3 - 2*u^2 + u^2*v^2", "v^5 + u^2*v^3 + 3*u*v^3")),
             G(("u", "v^3 + u^2*v - u^3", "v^5 - 3*u^2*v^3 - u*v^2")),
             G(("u", "v^3 + u^3 - 3*u^2*v^2", "-v^4 + u*v^3 + 2*u^3")),
             G(("u", "v^3 + 2*u^3 - u*v^2", "u^2 + 3*u*v - 2*u^3"))]
    for k in (2, 3, 4):
        h = H(k)
        for src in ("2*v + u", "v + u^2"):
            image = parse_poly(src, UV, h.field)
            extra.append(Germ(tuple(c.substitute("v", image) for c in h.components),
                              h.field, f"{h.name} v -> {src}"))
    applied, fallback = 0, []
    for f in [f for f in corpus(10) if f.corank == 1] + target_changed_corpus8() + extra:
        T = presented_triple_points(*f.components[1:])
        if T is None:
            fallback.append(f.name)
            continue
        assert 6 * T == quotient_dim(f.multipoint.triple_point_generators()), f.name
        applied += 1
    assert applied >= 84 + len(extra)
    assert fallback == [g.name for f in corpus(8) if f.name.startswith("H_")
                        for g in target_changed(f)]


def test_presented_triple_points_of_a_zero_presentation():
    # h = 0 makes M zero, so T is the colength of the zero ideal
    v3 = parse_poly("v^3", UV, QQ)
    assert presented_triple_points(v3, Poly.zero(UV, QQ)) == INFINITE
    assert presented_triple_points(Poly.zero(UV, QQ), v3) == INFINITE


def test_multipoint_symmetry():
    for f in (S(3), B(2), H(2)):
        mp = multipoint_data(f)
        swap = {"v1": "v2", "v2": "v1"}
        assert mp.P.rename(swap, mp.P.vars) == mp.P
        assert mp.Q.rename(swap, mp.Q.vars) == mp.Q


def test_multipoint_requires_corank1_shape():
    with pytest.raises(OverrideRequired):
        multipoint_data(corank2())
    with pytest.raises(OverrideRequired):
        multipoint_data(G(("u + v^2", "v^2", "u*v")))


def test_other_preimages_of_0_are_refused(monkeypatch):
    # each is the cross-cap at 0 with a second preimage of 0 at v = 1: the
    # first two reported sigma = -1 by luck, the third exited 2 with "cannot
    # certify a factorization", and in the last f2(0, v) is zero
    for maps in (("u", "v^2 - v^3", "u*v"),
                 ("u", "v^2 - v^3", "u*v + v^3 - v^4"),
                 ("u", "v^2 - v^3", "u*v + u*v^3 + v^3 - v^4"),
                 ("u", "u*v", "v^2 - v^3"),
                 ("u", "u*v", "u^2 + u^3*v")):
        with pytest.raises(OverrideRequired, match="another preimage of 0; supply the "
                           "double_curve, components, twist and T overrides"):
            multipoint_data(G(maps))
    # the overrides named finish the first germ with the cross-cap's sigma
    f = G(("u", "v^2 - v^3", "u*v"))
    f.overrides = OverrideSet(double_curve=parse_poly("u", UV, QQ),
                              components=[parse_poly("u", UV, QQ)],
                              twist=[(0, 0)], T=0)
    assert analyze(f).sigma_F == -1
    # no other root: a part is a nonzero constant, or the two are coprime
    for maps in (("u", "v^2 - v^3", "u*v + v^3"),
                 ("u", "v^2 - v^3", "u*v + v^3 + v^4")):
        assert multipoint_data(G(maps)).P is not None
    # where a part is a nonzero constant, as on every corank-1 germ of the
    # corpus, no gcd runs
    calls = []
    monkeypatch.setattr(germs, "poly_gcd", lambda a, b: calls.append((a, b)))
    for f in corpus(10):
        if f.corank == 1:
            multipoint_data(f)
    assert calls == []


def test_double_curve_fold_examples():
    assert double_curve_equation(S(2)) == parse_poly("v^2 + u^3", UV, S(2).field)
    h2 = H(2)
    d = double_curve_equation(h2)
    assert d.normalized() == parse_poly("u^2 + u*v^4 + v^8", UV, h2.field).normalized()
    c2 = corank2()
    d = double_curve_equation(c2)
    want = parse_poly(
        "(u + v^2)*(u^2 + v)*(u + v)*(u + zeta3*v)*(u + zeta3^2*v)",
        UV, c2.field)
    assert d.normalized() == want.normalized()


def test_double_curve_routes_agree_on_folds():
    # the double curve comes from the resultant; the fold route
    # squarefree(f3 / v) must give the same reduced curve
    for f in (cross_cap(), S(1), S(2), B(2), B(3), C_(3), C_(4), F4()):
        fold = squarefree_part(fold_normal_data(f))
        assert fold == double_curve_equation(f), f.name

    # the identity behind the check, on generated p over Q(i) with
    # p(0, 0) = 0: P = v1 + v2, so Res_v2(P, Q) = +-Q(u, v1, -v1) = +-p(u, v1^2)
    hyp = pytest.importorskip("hypothesis")
    st = hyp.strategies
    field = parse_field("Q(i)")
    V3 = ("u", "v1", "v2")
    exps = st.tuples(st.integers(0, 3), st.integers(0, 2)).filter(any)
    coords = st.tuples(*[st.fractions(-5, 5, max_denominator=4)] * 2).filter(any)
    routes = set()

    def check(p):
        coeffs = {e: FieldElem(field, c) for e, c in p.items()}
        f3 = Poly(UV, {(a, 2 * b + 1): c for (a, b), c in coeffs.items()}, field)
        u, v = (Poly.variable(x, UV, field) for x in UV)
        f = Germ((u, v * v, f3), field)
        mp = multipoint_data(f)
        p_v1 = Poly(V3, {(a, 2 * b, 0): c for (a, b), c in coeffs.items()}, field)
        assert resultant(mp.P, mp.Q, "v2") in (p_v1, -p_v1)
        p = fold_normal_data(f)
        assert f.multipoint.resultant in (p, -p)
        # the curve is R normalized when R's own branches certify it, and
        # its squarefree part otherwise: either way the squarefree part;
        # both routes must occur, R reduced and R with a square
        assert f.multipoint.curve == squarefree_part(p)
        routes.add(f.multipoint.curve == f.multipoint.resultant.normalized())

    run = hyp.given(st.dictionaries(exps, coords, min_size=1, max_size=4))(check)
    hyp.settings(max_examples=30, deadline=None, database=None, derandomize=True)(run)()
    assert routes == {True, False}


def test_eliminating_v1_or_v2_gives_one_curve():
    """P and Q are symmetric in v1 <-> v2, so Res_v1(P, Q) is Res_v2(P, Q)
    with v1 and v2 swapped: after renaming the kept variable to v, both give
    the same squarefree curve, and one elimination is enough."""
    scaled_h3 = G(("u", "6*u*v + 6561*v^8", "27*v^3"), parse_field("Q(zeta3)"))
    for f in [H(k) for k in range(2, 6)] + [scaled_h3]:
        mp = multipoint_data(f)
        r12 = squarefree_part(resultant(mp.P, mp.Q, "v2")).rename({"v1": "v"}, UV)
        r21 = squarefree_part(resultant(mp.P, mp.Q, "v1")).rename({"v2": "v"}, UV)
        assert r12 == r21, f
        assert mp.curve == r12, f


def test_double_curve_requires_override_for_corank2():
    f = corank2()
    bare = Germ(f.components, f.field, name=f.name)
    with pytest.raises(OverrideRequired):
        double_curve_equation(bare)


def test_double_curve_override_validation():
    f = S(1)
    bad = Germ(f.components, f.field, name="bad")
    bad.overrides.double_curve = parse_poly("u^2 + v^2", UV, f.field) ** 2
    with pytest.raises(AnalysisError):
        double_curve_equation(bad)
    wrong = Germ(f.components, f.field, name="wrong")
    wrong.overrides.double_curve = parse_poly("u + v^3", UV, f.field)
    with pytest.raises(AnalysisError):
        double_curve_equation(wrong)


def test_triple_point_numbers():
    for f in (cross_cap(), S(1), S(4), B(3), C_(3), F4()):
        assert triple_point_number(f) == 0, f.name
    for k in (2, 3, 4):
        assert triple_point_number(H(k)) == k - 1
    assert triple_point_number(corank2()) == 1  # override

