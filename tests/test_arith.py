import random
from fractions import Fraction

import pytest

from milnorsig.arith import (_udeg, _univ_coeffs, exact_divide, poly_gcd,
                             resultant, squarefree_part, try_divide)
from milnorsig.fields import QQ, parse_field
from milnorsig.parser import parse_poly
from milnorsig.poly import Poly, PolyError, divided_difference

UV = ("u", "v")


def P(src, field=QQ):
    return parse_poly(src, UV, field)


def sylvester_resultant(a, b, var):
    """Independent oracle: determinant of the Sylvester matrix, rows of the
    first argument on top, by cofactor expansion."""
    A, B = _univ_coeffs(a, var), _univ_coeffs(b, var)
    da, db = _udeg(A), _udeg(B)
    n = da + db
    zero = Poly.zero(a.vars, a.field)
    M = []
    for i in range(db):
        row = [zero] * n
        for j, c in enumerate(A):
            row[i + da - j] = c
        M.append(row)
    for i in range(da):
        row = [zero] * n
        for j, c in enumerate(B):
            row[i + db - j] = c
        M.append(row)

    def det(m):
        if len(m) == 1:
            return m[0][0]
        acc = Poly.zero(a.vars, a.field)
        for i in range(len(m)):
            if m[i][0].is_zero():
                continue
            minor = [row[1:] for r, row in enumerate(m) if r != i]
            term = m[i][0] * det(minor)
            acc = acc + term if i % 2 == 0 else acc - term
        return acc

    return det(M)


def rand_poly(rng, maxdeg=3, require_v=True):
    while True:
        terms = {}
        for _ in range(rng.randint(1, 4)):
            e = (rng.randint(0, 2), rng.randint(0, maxdeg))
            terms[e] = QQ.from_rational(Fraction(rng.randint(-3, 3)))
        p = Poly(UV, terms, QQ)
        if not require_v or p.degree_in("v") > 0:
            return p


def test_exact_division():
    assert exact_divide(P("u^2 - v^2"), P("u - v")) == P("u + v")
    assert try_divide(P("u^2 + v^2"), P("u - v")) is None
    with pytest.raises(PolyError):
        exact_divide(P("u"), Poly.zero(UV, QQ))


def test_gcd_examples():
    assert poly_gcd(P("u^2 - v^2"), P("u - v")) == P("u - v").normalized()
    g = poly_gcd(P("u^2*v - v^3"), P("u^2 + 2*u*v + v^2"))
    assert g == P("u + v").normalized()
    assert poly_gcd(P("u"), P("v")).is_constant()
    with pytest.raises(PolyError):
        poly_gcd(Poly.zero(UV, QQ), Poly.zero(UV, QQ))


def test_gcd_divides_both_random():
    rng = random.Random(13)
    for _ in range(25):
        a, b, c = rand_poly(rng, 2), rand_poly(rng, 2), rand_poly(rng, 2)
        g = poly_gcd(a * c, b * c)
        assert try_divide(g, c.normalized()) is not None or \
            try_divide(c.normalized(), g) is not None
        assert try_divide(a * c, g) is not None
        assert try_divide(b * c, g) is not None


def test_squarefree_part():
    s = squarefree_part(P("v^2*u + v^3"))
    assert s == (P("v") * P("u + v")).normalized()
    assert squarefree_part(P("u^2 + v^2")) == P("u^2 + v^2").normalized()
    rng = random.Random(8)
    for _ in range(15):
        a = rand_poly(rng, 2)
        s = squarefree_part(a)
        assert squarefree_part(s) == s
        partials = [s.derivative(x) for x in UV]
        partials = [p for p in partials if not p.is_zero()]
        if partials and not s.is_constant():
            g = s
            for p in partials:
                g = poly_gcd(g, p)
            assert g.is_constant()


def test_resultant_examples():
    assert resultant(P("v - u"), P("v + u"), "v") == P("2*u")
    assert resultant(P("v^2 + u^2"), P("v"), "v") == P("u^2")
    with pytest.raises(PolyError):
        resultant(P("u"), P("u^2"), "v")


def test_resultant_matches_sylvester_determinant():
    rng = random.Random(7)
    for _ in range(40):
        a, b = rand_poly(rng), rand_poly(rng)
        assert resultant(a, b, "v") == sylvester_resultant(a, b, "v")


def test_resultant_swap_sign():
    rng = random.Random(17)
    for _ in range(25):
        a, b = rand_poly(rng), rand_poly(rng)
        s = (-1) ** (a.degree_in("v") * b.degree_in("v"))
        r = resultant(b, a, "v")
        assert resultant(a, b, "v") == (r if s == 1 else -r)


def test_resultant_multiplicative():
    rng = random.Random(23)
    for _ in range(15):
        a, b, c = rand_poly(rng, 2), rand_poly(rng, 2), rand_poly(rng, 2)
        assert resultant(a, b * c, "v") == \
            resultant(a, b, "v") * resultant(a, c, "v")


def test_resultant_detects_common_factor():
    a, c = P("u + v"), P("u - v^2")
    assert resultant(a * c, c * P("v"), "v").is_zero()


def test_h2_resultant_reproduces_double_curve():
    Qz = parse_field("Q(zeta3)")
    f2 = parse_poly("u*v + v^5", UV, Qz)
    f3 = parse_poly("v^3", UV, Qz)
    Pd = divided_difference(f2, "v", ("v1", "v2"))
    Qd = divided_difference(f3, "v", ("v1", "v2"))
    r = squarefree_part(resultant(Pd, Qd, "v2"))
    expect = parse_poly("(u - zeta3*v1^4)*(u - zeta3^2*v1^4)",
                        ("u", "v1", "v2"), Qz).normalized()
    assert r == expect
