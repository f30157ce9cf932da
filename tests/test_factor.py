import pytest

from milnorsig.arith import try_divide
from milnorsig.factor import FactorizationIncomplete, factor_components
from milnorsig.fields import QQ, parse_field
from milnorsig.parser import parse_poly
from milnorsig.poly import Poly

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
    # a factor with a constant term has no branch through the origin
    a = parse_poly("(1 + u)*(u^2 + v^2)", UV, Qi)
    assert [str(f) for f in factor_components(a)] == ["u - i*v", "u + i*v"]
    a = parse_poly("u*(1 + u + v^2)", UV, QQ)
    assert factor_components(a) == [parse_poly("u", UV, QQ)]


def test_even_case_certificate():
    # v^2 + u^(k+1) for even k: coprime Newton endpoints, certified irreducible
    for k in (2, 4):
        a = parse_poly(f"v^2 + u^{k + 1}", UV, QQ)
        assert factor_components(a) == [a]


def test_incomplete_factorization_raises():
    # (v^2+u^3+u^2)*(v^2-u^3-u^2) has a two-edge Newton polygon and quadratic
    # v-degree roots outside the strategy: must refuse, not guess
    a = parse_poly("(v^2 + u^3 + u^2)*(v^2 + u^5 + 2*u^2)", UV, QQ)
    with pytest.raises(FactorizationIncomplete):
        factor_components(a)


def test_no_silent_reducible_factor():
    # u^2 - v^2 over Q splits; must not be returned as one factor
    a = parse_poly("u^2 - v^2", UV, QQ)
    factors = factor_components(a)
    assert len(factors) == 2
    check_multiplies_back(a, factors)
    for f in factors:
        assert try_divide(a, f) is not None
