import pytest

from milnorsig import factor, germs
from milnorsig.arith import try_divide
from milnorsig.corpus import corpus
from milnorsig.factor import OverrideRequired, factor_components
from milnorsig.fields import QQ, parse_field
from milnorsig.germs import double_curve_equation
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


def test_factor_components_matches_sympy_on_corpus_curves():
    # an oracle that shares no code with the factorizer: sympy's factor_list
    # over the same field, keeping the factors through the origin; the one
    # corpus germ with override components is left out
    sp = pytest.importorskip("sympy")
    u, v = sp.symbols("u v")
    # generator value and the extension of Q that sympy factors over
    extensions = {"i": (sp.I, sp.I), "zeta3": ((sp.sqrt(-3) - 1) / 2, sp.sqrt(-3))}

    def to_sympy(p, gen):
        return sp.expand(sum(
            sum(sp.Rational(n, c.den) * gen ** k for k, n in enumerate(c.num))
            * u ** a * v ** b for (a, b), c in p.terms.items()))

    checked = 0
    for f in corpus(10):
        if f.overrides.components is not None:
            continue
        if f.field.degree > 1:
            gen, ext = extensions[f.field.generator_name]
            domain, kw = sp.QQ.algebraic_field(ext), {"extension": ext}
        else:
            gen, domain, kw = 1, sp.QQ, {}
        curve = double_curve_equation(f)
        _, theirs = sp.factor_list(to_sympy(curve, gen), u, v, **kw)
        theirs = [sp.Poly(t, u, v, domain=domain) for t, _ in theirs
                  if sp.expand(t.subs({u: 0, v: 0})) == 0]
        ours = [sp.Poly(to_sympy(h, gen), u, v, domain=domain)
                for h in factor_components(curve)]
        assert len(ours) == len(theirs), f.name
        for t in theirs:
            # proportional polynomials share their leading monomial
            assert sum((t * h.LC() - h * t.LC()).is_zero for h in ours) == 1, f.name
        checked += 1
    assert checked == 38
