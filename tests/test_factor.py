import functools

import pytest

from milnorsig import arith, factor, germs
from milnorsig.arith import _content, _univ_coeffs, try_divide
from milnorsig.corpus import corpus
from milnorsig.factor import OverrideRequired, factor_components
from milnorsig.fields import QQ, parse_field
from milnorsig.germs import double_curve_equation
from milnorsig.parser import parse_poly
from milnorsig.poly import Poly
from test_golden import target_changed_corpus8
from test_signature import _workload_germs

UV = ("u", "v")
Qi = parse_field("Q(i)")
Qz = parse_field("Q(zeta3)")


def check_multiplies_back(a, factors):
    prod = Poly.constant(1, a.vars, a.field)
    for f in factors:
        prod = prod * f
    assert prod.normalized() == a.normalized()


def test_conjugate_pair_over_Qi():
    a = parse_poly("u^2 + v^2", UV, Qi)
    factors = factor_components(a)
    assert len(factors) == 2
    eqs = {str(f) for f in factors}
    assert eqs == {"u - i*v", "u + i*v"}
    check_multiplies_back(a, factors)


def test_Ck_pattern():
    a = parse_poly("u*v^2 + u^3", UV, Qi)
    factors = factor_components(a)
    assert len(factors) == 3
    check_multiplies_back(a, factors)
    assert Poly.variable("u", UV, Qi) in factors


def test_F4_irreducible():
    a = parse_poly("u^3 + v^4", UV, QQ)
    assert factor_components(a) == [a]


def test_Hk_curve_over_zeta3():
    a = parse_poly("u^2 + u*v^4 + v^8", UV, Qz)
    factors = factor_components(a)
    assert len(factors) == 2
    check_multiplies_back(a, factors)
    for f in factors:
        assert f.degree_in("u") == 1 and f.degree_in("v") == 4


def test_unit_pieces_dropped_unsplit():
    # a factor with a constant term has no branch through the origin.  In v
    # every coefficient of the first has two terms, u^2 + u^3 and 1 + u, so
    # only a gcd finds the content 1 + u; left in, the split at v = +-i*u
    # would return the quotient (1 + u)*(v -+ i*u) as a branch
    a = parse_poly("(1 + u)*(u^2 + v^2)", UV, Qi)
    assert {len(c.terms) for c in _univ_coeffs(a, "v") if not c.is_zero()} == {2}
    assert str(_content(_univ_coeffs(a, "v"))) == "1 + u"
    assert [str(f) for f in factor_components(a)] == ["u - i*v", "u + i*v"]
    a = parse_poly("u*(1 + u + v^2)", UV, QQ)
    assert factor_components(a) == [parse_poly("u", UV, QQ)]
    # degree 2 in u: the edge root gives u - v^2, and the quotient 1 + u + v
    a = parse_poly("(u - v^2)*(1 + u + v)", UV, QQ)
    assert factor_components(a) == [parse_poly("u - v^2", UV, QQ)]


def _multipoint_or_none(f):
    try:
        return f.multipoint
    except OverrideRequired:
        return None


def test_workload_resultants_are_factored_with_no_gcd(monkeypatch, tmp_path):
    # a one-term coefficient settles each content, and a split's pieces are
    # final, so no resultant of the seed-5 workload germs needs a gcd
    resultants = [f.multipoint.resultant for f in _workload_germs(tmp_path)
                  if _multipoint_or_none(f) is not None]
    gcds = []
    original = arith.poly_gcd
    monkeypatch.setattr(arith, "poly_gcd", lambda a, b: gcds.append(1) or original(a, b))
    assert all(factor_components(r) for r in resultants)
    assert len(resultants) == 56 and not gcds


def test_even_case_certificate():
    # v^2 + u^(k+1) for even k: coprime Newton endpoints, certified irreducible
    for k in (2, 4):
        a = parse_poly(f"v^2 + u^{k + 1}", UV, QQ)
        assert factor_components(a) == [a]


def test_incomplete_factorization_raises():
    # (v^2+u^3+u^2)*(v^2-u^3-u^2) has a two-edge Newton polygon and quadratic
    # v-degree roots outside the strategy: must refuse, not guess
    a = parse_poly("(v^2 + u^3 + u^2)*(v^2 + u^5 + 2*u^2)", UV, QQ)
    with pytest.raises(OverrideRequired, match="cannot certify a factorization"):
        factor_components(a)
    # one refusal type for "the germ file must supply data"
    assert factor.OverrideRequired is germs.OverrideRequired


def test_no_silent_reducible_factor():
    # u^2 - v^2 over Q splits; must not be returned as one factor
    a = parse_poly("u^2 - v^2", UV, QQ)
    factors = factor_components(a)
    assert len(factors) == 2
    check_multiplies_back(a, factors)
    for f in factors:
        assert try_divide(a, f) is not None


def test_degree_1_edge_root_splits_off_its_factor():
    # degree 2 in u; the hull edge (0, 4)-(1, 1) has one step in u, so its
    # edge polynomial has degree 1 and its root gives u - v^3
    a = parse_poly("(u - v)*(u - v^3)", UV, QQ)
    assert factor_components(a) == [parse_poly("u - v", UV, QQ),
                                    parse_poly("u - v^3", UV, QQ)]


def test_factor_components_matches_sympy_on_corpus_curves(tmp_path):
    # an oracle that shares no code with the factorizer: sympy's factor_list
    # over the same field, keeping the distinct factors through the origin;
    # the one corpus germ with override components is left out.  Past the
    # corpus curves: R = Res_v2(P, Q) of every seed-5 workload germ and
    # every target change of corpus(8), squares and all
    sp = pytest.importorskip("sympy")
    u, v = sp.symbols("u v")

    @functools.cache
    def sympy_field(field):
        # the field sympy factors over, and the generator in it as a root
        # of x^2 + p1*x + p0
        if field.degree == 1:
            return sp.QQ, sp.QQ.one
        assert field.degree == 2
        p0, p1, _ = (sp.Rational(c.numerator, c.denominator) for c in field.minimal_poly)
        root = sp.sqrt(p1 * p1 - 4 * p0)
        domain = sp.QQ.algebraic_field(root)
        return domain, domain.from_sympy((root - p1) / 2)

    def to_sympy(p):
        domain, gen = sympy_field(p.field)
        return sp.Poly.from_dict(
            {e: sum((domain.convert(sp.Rational(n, c.den)) * gen ** k
                     for k, n in enumerate(c.num)), domain.zero)
             for e, c in p.terms.items()}, u, v, domain=domain)

    def check(name, curve):
        _, theirs = to_sympy(curve).factor_list()
        theirs = {t.monic() for t, _ in theirs if not t.coeff_monomial(1)}
        ours = [to_sympy(h).monic() for h in factor_components(curve)]
        assert len(ours) == len(theirs) and set(ours) == theirs, name

    curves = [(f.name, double_curve_equation(f)) for f in corpus(10)
              if f.overrides.components is None]
    assert len(curves) == 38
    with_data = [f for f in _workload_germs(tmp_path) + target_changed_corpus8()
                 if _multipoint_or_none(f) is not None]
    assert len(with_data) == 57 - 1 + 60   # all but the corank-2 workload germ
    # each distinct polynomial once, under the first name that has it
    names = {}
    for name, curve in curves + [(f.name, f.multipoint.resultant) for f in with_data]:
        names.setdefault(curve, name)
    for curve, name in names.items():
        check(name, curve)
