import random
from fractions import Fraction

import pytest

from milnorsig.fields import QQ, FieldElem, parse_field
from milnorsig.parser import parse_poly
from milnorsig.poly import Poly, PolyError, divided_difference, power

UV = ("u", "v")


def P(src, field=QQ):
    return parse_poly(src, UV, field)


def rand_poly(rng, field=QQ, nterms=4, maxdeg=4):
    terms = {}
    for _ in range(rng.randint(1, nterms)):
        e = (rng.randint(0, maxdeg), rng.randint(0, maxdeg))
        terms[e] = field.from_rational(Fraction(rng.randint(-4, 4)))
    return Poly(UV, terms, field)


def test_ring_axioms_random():
    rng = random.Random(5)
    for _ in range(40):
        a, b, c = (rand_poly(rng) for _ in range(3))
        assert (a + b) * c == a * c + b * c
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        assert a + (-a) == Poly.zero(UV, QQ)


def test_poly_pow():
    assert P("u+v") ** 2 == P("u^2 + 2*u*v + v^2")
    with pytest.raises(PolyError):
        P("u") ** -1


def test_pow_matches_repeated_multiplication():
    Qi = parse_field("Q(i)")
    p = P("3*u - 1/2*i*v^2", Qi)
    acc = Poly.constant(1, UV, Qi)
    for n in range(41):
        assert p ** n == acc, n
        acc = acc * p
    # field elements, as Poly.substitute raises them
    Qz, K = parse_field("Q(zeta3)"), parse_field("Q[a]/(a^3 - 2*a + 5)")
    for x in (Qz.generator() + Fraction(1, 2),
              K.generator() * K.generator() - 3 * K.generator() + 7):
        acc = x
        for n in range(1, 41):
            assert power(x, n) == acc, (x, n)
            acc = acc * x


def test_power_forms_floor_log2_n_plus_popcount_n_minus_1_products():
    for n in range(1, 130):
        products = []

        def mul(a, b):
            products.append((a, b))
            return a + b

        assert power(1, n, mul) == n
        assert len(products) == n.bit_length() - 1 + bin(n).count("1") - 1, n


def test_conjugate_product_over_Qi():
    Qi = parse_field("Q(i)")
    assert parse_poly("(u+i*v)*(u-i*v)", UV, Qi) == parse_poly("u^2+v^2", UV, Qi)


def test_substitution_is_ring_hom():
    rng = random.Random(9)
    for _ in range(20):
        a, b = rand_poly(rng), rand_poly(rng)
        for var in UV:
            num, den = rand_poly(rng, maxdeg=2), rand_poly(rng, maxdeg=2)
            assert (a + b).substitute(var, num) == a.substitute(var, num) + b.substitute(var, num)
            assert (a * b).substitute(var, num) == a.substitute(var, num) * b.substitute(var, num)
            # deg_var(a*b) = deg_var a + deg_var b, so the den powers add up too
            assert ((a * b).substitute(var, num, den)
                    == a.substitute(var, num, den) * b.substitute(var, num, den))


def _expand_termwise(p, var, num, den=None):
    """den^d * p(var = num/den), d = deg_var p, one term and one factor at a
    time."""
    tvars, d = num.vars, p.degree_in(var)
    out = Poly.zero(tvars, p.field)
    for e, c in p.terms.items():
        term = Poly.constant(c, tvars, p.field)
        for name, n in zip(p.vars, e):
            if name != var:
                factors = [Poly.variable(name, tvars, p.field)] * n
            else:
                factors = [num] * n + ([] if den is None else [den] * (d - n))
            for x in factors:
                term = term * x
        out = out + term
    return out


def test_substitute_matches_termwise_expansion():
    rng = random.Random(12)
    V3 = ("u", "v1", "v2")

    def rand3(vars_, nterms=5, maxdeg=3):
        terms = {tuple(rng.randint(0, maxdeg) for _ in vars_):
                 QQ.from_rational(Fraction(rng.randint(-4, 4), rng.randint(1, 3)))
                 for _ in range(rng.randint(1, nterms))}
        return Poly(vars_, terms, QQ)

    for _ in range(25):
        a = rand3(V3)
        for var, tvars in (("u", V3), ("v1", V3), ("u", V3[1:]), ("v2", V3[:2])):
            num = rand3(tvars, 3, 2)       # var kept in tvars, or dropped
            den = rand3(tvars, 3, 2)
            assert a.substitute(var, num) == _expand_termwise(a, var, num)
            assert a.substitute(var, num, den) == _expand_termwise(a, var, num, den)
    # an unbound variable must survive into the target list
    with pytest.raises(PolyError, match="missing from the target"):
        P("u + v").substitute("u", Poly.variable("x", ("x",), QQ))
    with pytest.raises(PolyError, match="disagree"):
        P("u + v").substitute("u", P("v"), Poly.variable("x", ("x",), QQ))


def test_one_term_substitution_matches_termwise_expansion(monkeypatch):
    # a num of at most one term (and a one-term den) maps each term to at
    # most one term, with no product of polynomials; any other input goes
    # through Horner's rule
    rng = random.Random(21)
    Qz = parse_field("Q(zeta3)")
    V3 = ("u", "v1", "v2")

    def rand3(vars_, field, nterms, maxdeg=3):
        terms = {}
        for _ in range(nterms):
            e = tuple(rng.randint(0, maxdeg) for _ in vars_)
            c = field.from_rational(Fraction(rng.randint(-4, 4) or 1, rng.randint(1, 3)))
            terms[e] = c * field.generator() if field.degree > 1 and rng.random() < 0.5 else c
        return Poly(vars_, terms, field)

    cases = []
    for field in (QQ, Qz):
        for _ in range(12):
            a = rand3(V3, field, rng.randint(1, 6))
            for var, tvars in (("u", V3), ("v1", V3), ("u", V3[1:]), ("v2", V3[:2])):
                num, den = rand3(tvars, field, 1, 2), rand3(tvars, field, 1, 2)
                zero = Poly.zero(tvars, field)
                cases += [(a, var, num, None), (a, var, num, den),
                          (a, var, zero, None), (a, var, zero, den)]
        # free of the substituted variable, with a den; the zero polynomial
        free = rand3(("u", "v1"), field, 4).rename({}, V3)
        cases += [(free, "v2", rand3(V3, field, 1), rand3(V3, field, 1)),
                  (Poly.zero(V3, field), "v1", rand3(V3, field, 1), None),
                  (Poly.zero(V3, field), "v1", rand3(V3, field, 1), rand3(V3, field, 1))]
    # terms that meet on one monomial add up, and may cancel
    cases.append((P("u - v", Qz), "v", P("u", Qz), None))
    want = [_expand_termwise(*case) for case in cases]
    products = []
    monkeypatch.setattr(Poly, "__mul__", lambda self, other: products.append(1))
    got = [p.substitute(var, num, den) for p, var, num, den in cases]
    monkeypatch.undo()
    assert not products
    assert got == want
    assert got[-1].is_zero()
    # a num or den coefficient of +-1 adds the sign (-1)^k of each degree k,
    # and no product of coefficients
    cases = []
    for field in (QQ, Qz):
        for sn, sm in ((1, -1), (-1, 1), (-1, -1)):
            a = rand3(V3, field, rng.randint(2, 6))
            for var, tvars in (("u", V3), ("v1", V3), ("u", V3[1:]), ("v2", V3[:2])):
                num, den = (rand3(tvars, field, 1, 2).normalized().scale(sign)
                            for sign in (sn, sm))
                cases += [(a, var, num, None), (a, var, num, den)]
    want = [_expand_termwise(*case) for case in cases]
    original = FieldElem.__mul__

    def counted(x, y):
        products.append(1)
        return original(x, y)
    monkeypatch.setattr(FieldElem, "__mul__", counted)
    monkeypatch.setattr(FieldElem, "__rmul__", counted)
    got = [p.substitute(var, num, den) for p, var, num, den in cases]
    monkeypatch.undo()
    assert not products
    assert got == want


def test_fold_substitution_example():
    # z -> v^3 + u^2*v factors as v*(v^2 + u^2)
    f3 = P("v^3 + u^2*v")
    assert f3 == P("v") * P("v^2 + u^2")


def test_derivative():
    assert P("v^2 + u^3").derivative("v") == P("2*v")
    assert P("u*v + v^5").derivative("u") == P("v")
    cross = P("u*v")
    assert cross.derivative("v") == P("u")


def test_divided_difference_examples():
    V3 = ("u", "v1", "v2")
    dd = divided_difference(P("v^2"), "v", ("v1", "v2"))
    assert dd == parse_poly("v1 + v2", V3, QQ)
    dd = divided_difference(P("v^3 + u^4*v"), "v", ("v1", "v2"))
    assert dd == parse_poly("v1^2 + v1*v2 + v2^2 + u^4", V3, QQ)
    dd = divided_difference(P("u*v + v^5"), "v", ("v1", "v2"))
    assert dd == parse_poly(
        "u + v1^4 + v1^3*v2 + v1^2*v2^2 + v1*v2^3 + v2^4", V3, QQ)
    # the first fresh name may be the replaced variable's own
    V4 = ("u", "v1", "v2", "v3")
    dd = divided_difference(parse_poly("v1*v2^2 + u", V3, QQ), "v2", ("v2", "v3"))
    assert dd == parse_poly("v1*v2 + v1*v3", V4, QQ)
    with pytest.raises(PolyError, match="fresh symbols already in use"):
        divided_difference(parse_poly("v2^2", V3, QQ), "v2", ("v1", "v3"))


def test_divided_difference_identity_random():
    rng = random.Random(3)
    V3 = ("u", "v1", "v2")
    v1 = Poly.variable("v1", V3, QQ)
    v2 = Poly.variable("v2", V3, QQ)
    for _ in range(20):
        a = rand_poly(rng)
        if a.degree_in("v") <= 0:
            continue
        dd = divided_difference(a, "v", ("v1", "v2"))
        lhs = dd * (v1 - v2) + a.rename({"v": "v2"}, V3)
        assert lhs == a.rename({"v": "v1"}, V3)


def test_mismatched_operands():
    other = Poly.variable("x", ("x", "y"), QQ)
    with pytest.raises(PolyError):
        P("u") + other


def test_rename():
    p = P("u^2 + v^3")
    q = p.rename({"v": "y", "u": "x"}, ("x", "y", "z"))
    assert q == parse_poly("x^2 + y^3", ("x", "y", "z"), QQ)


def test_normalized_with_leading_coefficient_1_forms_no_product(monkeypatch):
    # the leading term under the local order is the one of least total
    # degree: u here, with coefficient 1 in the first two polynomials
    Qz = parse_field("Q(zeta3)")
    ones = [P("u + 2/3*v^2 - u*v"), parse_poly("u - zeta3*v^3 + (1 + zeta3)*u^2", UV, Qz)]
    other = parse_poly("(2 + zeta3)*u - v^2", UV, Qz)
    counts = []

    def refuse(*args):
        counts.append(1)
        raise AssertionError("field product or inverse formed")
    monkeypatch.setattr(FieldElem, "__mul__", refuse)
    monkeypatch.setattr(FieldElem, "__rmul__", refuse)
    monkeypatch.setattr(FieldElem, "inverse", refuse)
    assert all(p.normalized() is p for p in ones)
    assert Poly.zero(UV, QQ).normalized().is_zero()
    with pytest.raises(AssertionError, match="field product or inverse"):
        other.normalized()
    monkeypatch.undo()
    assert other.normalized().leading() == ((1, 0), Qz.one())
    assert other.normalized().scale(other.leading()[1]) == other
