import random
from fractions import Fraction

import pytest

from milnorsig import arith
from milnorsig.arith import (_subresultants, _udeg, _univ_coeffs, exact_divide,
                             poly_gcd, resultant, squarefree_part, try_divide)
from milnorsig.corpus import corpus
from milnorsig.curves import decompose
from milnorsig.fields import QQ, FieldElem, parse_field
from milnorsig.germfile import load_germ
from milnorsig.germs import double_curve_equation
from milnorsig.parser import parse_poly
from milnorsig.poly import Poly, PolyError, divided_difference
from test_poly import _expand_termwise

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


def test_content_stops_at_a_constant_gcd(monkeypatch):
    # gcds are normalized, so once the running gcd is 1 every later one is 1
    view = _univ_coeffs(P("3 + u*v + u^2*v^2 + u^3*v^3"), "v")
    calls = []
    original = arith.poly_gcd
    monkeypatch.setattr(arith, "poly_gcd", lambda a, b: calls.append(1) or original(a, b))
    assert arith._content(view) == P("1")
    assert len(calls) == 1


def test_gcd_divides_both_random():
    rng = random.Random(13)
    for _ in range(25):
        a, b, c = rand_poly(rng, 2), rand_poly(rng, 2), rand_poly(rng, 2)
        g = poly_gcd(a * c, b * c)
        # c divides a*c and b*c, so it divides their gcd
        assert try_divide(g, c) is not None
        assert g == (poly_gcd(a, b) * c).normalized()
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


# -- rational coefficients ---------------------------------------------------
# The PRS clears denominators at its entry and resultant undoes the scaling
# with Res(La*a, Lb*b) = La^deg(b) * Lb^deg(a) * Res(a, b).  In the first pair
# La = 323 != Lb = 21 and the degrees differ, so swapped exponents give a
# wrong value; in the second only one input is non-integral.  z is the
# field's generator (1 over Q).

RATIONAL_PAIRS = [
    ("11/19*v^3 + z*u*v + 13/17", "2/3*v^2 - 5/7*u^2"),
    ("v^3 + z*u*v + 2", "1/6*v^2 + 5/4*z*u"),
]
RATIONAL_FACTOR = "3/4*v - 11/19*z*u + 1/2"

# Q[a]/(a^2 - 1/2) has q = 2: integer coordinates do not stay integral
# under multiplication, since a^2 = 1/2
HALF_SQRT_FIELD = "Q[a]/(a^2 - 1/2)"


@pytest.mark.parametrize("field", ("Q", "Q(i)", "Q(zeta3)", HALF_SQRT_FIELD))
def test_rational_resultant_and_gcd_both_orders(field):
    Q3 = field_parser(field)
    c = Q3(RATIONAL_FACTOR)
    for a_src, b_src in RATIONAL_PAIRS:
        a, b = Q3(a_src), Q3(b_src)
        for x, y in ((a, b), (b, a)):
            assert resultant(x, y, "v") == sylvester_resultant(x, y, "v"), (x, y)
            assert resultant(x * c, y * c, "v").is_zero()
            assert poly_gcd(x, y).is_constant()
            assert poly_gcd(x * c, y * c) == c.normalized(), (x, y)


def scaled_h3():
    """H_3 after u -> 11/19*u, v -> 13/17*v, with f2 divided by its
    coefficient of u*v, as in the benchmark's twist-resultant workload."""
    c = Fraction(19, 11) * Fraction(13, 17) ** 7
    text = ('[germ]\nname = "H_3"\n'
            f'map = ["u", "u*v + {c}*v^8", "v^3"]\nfield = "Q(zeta3)"\n')
    return load_germ(text)[0]


def test_subresultant_prs_stays_integral(monkeypatch):
    """Structural guard for the cleared PRS over Q(zeta3), on the two
    resultants of twist classification, Res_v1(h, P) and Res_v1(h, Q), with
    h and P non-integral: every coefficient of S and R has denominator 1, and
    no exact division inside the loop is by the constant 1 (the first step
    of Res_v1(h, Q) drops 5 degrees while h = 1)."""
    f = scaled_h3()
    P, Q = f.multipoint.P, f.multipoint.Q
    h = decompose(double_curve_equation(f))[0]
    A = _univ_coeffs(h.rename({"v": "v1"}, P.vars), "v1")
    for view in (A, _univ_coeffs(P, "v1")):
        assert any(x.den > 1 for c in view for x in c.terms.values())
    divisors = []

    def recording_try_divide(a, b):
        divisors.append(b)
        return try_divide(a, b)

    monkeypatch.setattr(arith, "try_divide", recording_try_divide)
    one = Poly.constant(1, P.vars, P.field)
    for g in (P, Q):
        S, R, _, _ = _subresultants(A, _univ_coeffs(g, "v1"))
        assert all(x.den == 1 for c in S + R for x in c.terms.values())
    # Q is monic in v1, so only Res_v1(h, P) divides
    assert divisors
    assert all(b != one for b in divisors)


# -- sympy oracle ---------------------------------------------------------------
# sympy shares no code with arith; it is a test-only dependency, and these
# tests skip without it.  Over an algebraic field, sympy Polys are compared
# after monic(): comparing expressions gives false mismatches over Q(zeta3).

ORACLE_FIELDS = ("Q", "Q(i)", "Q(zeta3)")
UVW = ("u", "v", "w")


@pytest.fixture(scope="module")
def sympy():
    return pytest.importorskip("sympy")


_SYMPY_GENERATORS = {"i": "I", "zeta3": "(-1 + sqrt(-3))/2"}
_sympy_domains = {}


def sympy_poly(sympy, p, gens):
    """p as a sympy Poly in the variables gens (a subset of p.vars that
    holds every variable p involves), over the same number field."""
    F = p.field
    if F not in _sympy_domains:
        K = sympy.QQ
        if F != QQ:
            K = K.algebraic_field(sympy.sympify(_SYMPY_GENERATORS[F.generator_name]))
            # sympy's generator is a root of our minimal polynomial
            assert K.mod.to_list() == list(reversed(F.minimal_poly))
        _sympy_domains[F] = K
    K = _sympy_domains[F]
    idx = [p.vars.index(x) for x in gens]
    terms = {}
    for e, c in p.terms.items():
        assert sum(e) == sum(e[i] for i in idx)
        # sympy lists an element's coordinates from the highest power down
        terms[tuple(e[i] for i in idx)] = K(list(reversed(c.coeffs))) \
            if K != sympy.QQ else K(c.coeffs[0])
    return sympy.Poly.from_dict(terms, *(sympy.Symbol(x) for x in gens), domain=K)


def field_parser(field):
    """Parses polynomials in u, v, w over field, with z for its generator
    (z = 1 over Q)."""
    F = parse_field(field)
    z = {"Q": "1", "Q(i)": "i", "Q(zeta3)": "zeta3", HALF_SQRT_FIELD: "a"}[field]
    return lambda src: parse_poly(src.replace("z", z), UVW, F)


def oracle_gcd_cases(field):
    """(a, b) pairs over field, fixed ones first, then a few random ones."""
    Q3 = field_parser(field)
    cases = [
        # contents (u^3 + 2)*(u - z) and (u^3 + 2)*(u + 1) in the main
        # variable v: the gcd needs the gcd of both contents
        (Q3("(u^3 + 2)*(u - z)*(v + z*u)*(v^2 + u)"),
         Q3("(u^3 + 2)*(u + 1)*(v + z*u)*(v + u^2 + 1)")),
        # the first input is constant in the main variable v
        (Q3("(u^2 + z)*(u - 1)"), Q3("(u^2 + z)*(v^2 + u*v + 1)")),
        # the remainders drop from degree 5 to degree 3 in v, a gap of 2
        (Q3("(v - z*u)*(v^5 + u^6*v^2 + 1)"), Q3("(v - z*u)*(v^4 + u^6)")),
        # three variables, a common factor in all of them
        (Q3("(v + z*w + u)*(v^2 + u*w)"), Q3("(v + z*w + u)*(v + w^2 + 1)*w")),
    ] + [(Q3(f"({a})*({RATIONAL_FACTOR})"), Q3(f"({b})*({RATIONAL_FACTOR})"))
         for a, b in RATIONAL_PAIRS]
    rng = random.Random(field)
    for _ in range(3):
        a, b, c = (Q3(" + ".join(
            f"({rng.randint(-3, 3)} + {rng.randint(-2, 2)}*z)*u^{rng.randint(0, 2)}"
            f"*v^{rng.randint(0, 2)}" for _ in range(rng.randint(2, 3))))
            for _ in range(3))
        if not (a * c).is_zero() and not (b * c).is_zero():
            cases.append((a * c, b * c))
    return cases


@pytest.mark.parametrize("field", ORACLE_FIELDS)
def test_gcd_matches_sympy(sympy, field):
    for a, b in oracle_gcd_cases(field):
        want = sympy.gcd(sympy_poly(sympy, a, UVW), sympy_poly(sympy, b, UVW)).monic()
        for x, y in ((a, b), (b, a)):
            assert sympy_poly(sympy, poly_gcd(x, y), UVW).monic() == want, (x, y)


def one_term_gcd_cases(field):
    """(a, b) pairs over field with a one-term or constant input."""
    Q3 = field_parser(field)
    return [
        # the double curve's v-coefficients on H_k rows: a PRS of degree 44
        (Q3("u^44"), Q3("(2/3 + z)*u^22")),
        # a monomial against a polynomial with a monomial factor
        (Q3("z*u^2*v^3"), Q3("u*v*(v + u)")),
        # a constant against a polynomial, and against a constant
        (Q3("7/2*z"), Q3("(u + v)*(v^2 + z*u)")),
        (Q3("3"), Q3("5*z")),
        # three variables
        (Q3("3*u^2*v*w^4"), Q3("u*w^2*(v*w + z*u^3 + v^2)")),
        (Q3("u^2*v*w^4"), Q3("z*u*v^3*w^2")),
    ]


@pytest.mark.parametrize("field", ORACLE_FIELDS)
def test_one_term_gcd_matches_sympy(sympy, field):
    for a, b in one_term_gcd_cases(field):
        want = sympy.gcd(sympy_poly(sympy, a, UVW), sympy_poly(sympy, b, UVW)).monic()
        for x, y in ((a, b), (b, a)):
            assert sympy_poly(sympy, poly_gcd(x, y), UVW).monic() == want, (x, y)


def test_one_term_gcd_runs_no_prs(monkeypatch):
    def refuse(*args):
        raise AssertionError("PRS run")
    monkeypatch.setattr(arith, "_subresultants", refuse)
    for field in ORACLE_FIELDS:
        for a, b in one_term_gcd_cases(field):
            poly_gcd(a, b)
            poly_gcd(b, a)
    # the recorder is live: two inputs of two terms each do run the PRS
    with pytest.raises(AssertionError, match="PRS run"):
        poly_gcd(P("u^2 + v"), P("u + v"))


def image_certificate_cases(field):
    """(a, b) pairs over field for the image certificate of ``poly_gcd``."""
    Q3 = field_parser(field)
    return [
        # main variable u (a tie in degree): at v = 1 both images are u,
        # so the certificate fails, and the PRS finds the gcd 1
        (Q3("u + v - 1"), Q3("u - v + 1")),
        # main variable v: the leading coefficient u - 1 vanishes at u = 1,
        # so the images are taken at u = 2: v + 2*z and v + 4, coprime
        (Q3("(u - 1)*v + z*u"), Q3("v + u^2")),
        # the common factor (u - 1)*v + 1 is the constant 1 at u = 1, where
        # the images v + z and v + 3 would be coprime; at u = 2 both images
        # keep v + 1
        (Q3("((u - 1)*v + 1)*(v + z*u^2)"), Q3("((u - 1)*v + 1)*(v + 2 + u^2)")),
        # a true common factor: the images share it, the PRS finds it
        (Q3("(v + z*u)*(v - u + 1)"), Q3("(v + z*u)*(v + u - 1)*(u + 2)")),
        # three variables, coprime and with a common factor
        (Q3("v*w + u + z"), Q3("v + w^2 + u*w")),
        (Q3("(w + z*u*v)*(v*w + u + 1)"), Q3("(w + z*u*v)*(v + w^2 + u*w)")),
    ]


@pytest.mark.parametrize("field", ORACLE_FIELDS)
def test_image_certificate_gcds_match_sympy(sympy, field):
    for a, b in image_certificate_cases(field):
        want = sympy.gcd(sympy_poly(sympy, a, UVW), sympy_poly(sympy, b, UVW)).monic()
        for x, y in ((a, b), (b, a)):
            assert sympy_poly(sympy, poly_gcd(x, y), UVW).monic() == want, (x, y)


def test_image_certificate_proves_a_coprime_pair(monkeypatch):
    # u^2 + u*v + v^3 and u + v^2 + 1 have contents 1 in u; at v = 1 the
    # images u^2 + u + 1 and u + 2 are coprime, and Euclid on them by
    # ``monic_remainder`` proves it: no PRS runs at all, univariate or not
    runs = []
    original = arith._subresultants

    def recording(A, B):
        runs.append(A + B)
        return original(A, B)
    monkeypatch.setattr(arith, "_subresultants", recording)
    assert poly_gcd(P("u^2 + u*v + v^3"), P("u + v^2 + 1")) == P("1")
    assert not runs
    # the recorder is live: at v = 1 the images of u + v - 1 and u - v + 1
    # are both u, so the certificate fails and the bivariate PRS runs
    assert poly_gcd(P("u + v - 1"), P("u - v + 1")) == P("1")
    assert runs


@pytest.mark.parametrize("field", ORACLE_FIELDS)
def test_squarefree_part_matches_sympy(sympy, field):
    # small inputs: sympy's sqf_part over Q(i) took 56 s on a*a*b of the
    # first gcd case above
    Q3 = field_parser(field)
    for p in (Q3("(v + z*u)^2*(v^2 + u)"), Q3("(u - z)^2*(v^2 - u)^3*v"),
              Q3("(u^2 + z)^2*(u + 1)"), Q3("(v + z*w)^2*(u + w)*(u - v)^3"),
              # v-content u^4, as in the double curve of the H_k rows
              Q3("u^4*(v^2 + z*u)^2*(v + 1)")):
        want = sympy_poly(sympy, p, UVW).sqf_part()
        assert sympy_poly(sympy, squarefree_part(p), UVW).monic() == want.monic(), p


# (y, x) with y's leading coefficient in v a constant and x's not, deg x >=
# deg y: the resultant reduces x by y (``monic_remainder``) and goes on with
# (y, x mod y)
CONSTANT_LEAD_PAIRS = [
    # both degrees odd, leading coefficient 3; x mod y has degree 2 and a
    # leading coefficient in u, so the PRS runs on (y, x mod y)
    ("3*v^3 + u*v^2 + z*u^2", "(u + 1)*v^5 + (u - z)*v^2 + u*w"),
    # leading coefficient 2/5: x mod y has degree 1
    ("2/5*v^2 + z*u*v + w", "u*v^4 + v^3 - z*w^2 + 1/3"),
    # leading coefficient z (1 over Q)
    ("z*v^3 + u*v + 1", "(u - w)*v^4 + v + u^2"),
    # a shared factor: x mod y = 0
    ("(v^2 + z*u)*(2*v + w)", "(v^2 + z*u)*(2*v + w)*(u*v^2 + 1)"),
    # x mod y = u^3 + z is free of v
    ("v^2 + u", "(v^2 + u)*(u*v + w) + u^3 + z"),
    # a cubic divisor and a remainder (u + 1)*v^2 + w*v + 1 of degree 2
    ("v^3 + u*v + z", "(u*v^2 + w)*(v^3 + u*v + z) + (u + 1)*v^2 + w*v + 1"),
]


@pytest.mark.parametrize("field", ORACLE_FIELDS + (HALF_SQRT_FIELD,))
def test_monic_remainder_divides(field):
    Q3 = field_parser(field)
    for y_src, x_src in CONSTANT_LEAD_PAIRS:
        y, x = Q3(y_src), Q3(x_src)
        r = arith.monic_remainder(x, y, "v")
        assert r.degree_in("v") < y.degree_in("v"), (x, y)
        assert try_divide(x - r, y) is not None, (x, y)
        assert arith.monic_remainder(y, y, "v").is_zero()
        # x's leading coefficient u + 1, u, u - w or 2*u is not a constant
        with pytest.raises(PolyError, match="not a constant"):
            arith.monic_remainder(y, x, "v")
    assert arith.monic_remainder(Q3("u*w + z"), Q3("v^2 + u"), "v") == Q3("u*w + z")
    with pytest.raises(PolyError, match="not a constant"):
        arith.monic_remainder(Q3("v"), Q3("0"), "v")


@pytest.mark.parametrize("field", ORACLE_FIELDS + (HALF_SQRT_FIELD,))
def test_constant_lead_s1_matches_the_prs(field):
    # S1 by the remainder rule is the PRS's degree-1 subresultant up to a
    # constant factor, and exists exactly when the PRS's does
    Q3 = field_parser(field)
    found = 0
    for y_src, x_src in CONSTANT_LEAD_PAIRS:
        for a, b in ((Q3(y_src), Q3(x_src)), (Q3(x_src), Q3(y_src))):
            s1 = arith.resultant_and_s1(a, b, "v")[1]
            S, _, _, _ = _subresultants(_univ_coeffs(a, "v"), _univ_coeffs(b, "v"))
            if _udeg(S) != 1:
                assert s1 is None, (a, b)
                continue
            found += 1
            ratio = try_divide(arith._from_univ(S, "v", a.vars, a.field), s1)
            assert ratio is not None and ratio.is_constant(), (a, b)
    assert found == 8


def test_twist_resultants_run_no_prs(monkeypatch):
    # Q = v1^2 + v1*v2 + v2^2 of H_k has the constant leading coefficient 1
    # in v2, so Res_v2(P, Q) and S1 come from P mod Q with no PRS
    def refuse(*args):
        raise AssertionError("PRS run")
    monkeypatch.setattr(arith, "_subresultants", refuse)
    germs = [f for f in corpus(10) if f.name.startswith("H_")] + [scaled_h3()]
    assert len(germs) == 10
    for f in germs:
        P, Q = f.multipoint.P, f.multipoint.Q
        res, s1 = arith.resultant_and_s1(P, Q, "v2")
        # Q = (v2 - z*v1)*(v2 - z^2*v1) with z = zeta3, so the resultant
        # is P(v2 = z*v1) * P(v2 = z^2*v1)
        z = Poly.constant(f.field.generator(), P.vars, f.field)
        v1 = Poly.variable("v1", P.vars, f.field)
        assert res == P.substitute("v2", z * v1) * P.substitute("v2", z * z * v1), f.name
        assert s1.degree_in("v2") == 1
        # the remainder is cleared to integer coordinates, although P of
        # the scaled H_3 has a rational coefficient 19/11*(13/17)^7
        assert all(x.den == 1 for x in s1.terms.values()), f.name
    assert any(x.den > 1 for x in germs[-1].multipoint.P.terms.values())


@pytest.mark.parametrize("field", ORACLE_FIELDS)
def test_resultant_matches_sympy(sympy, field):
    Q3 = field_parser(field)
    cases = [(a, b, "v") for a, b in oracle_gcd_cases(field)] + [
        # deg a < deg b, both odd: the swap changes the sign
        (Q3("v^3 + u*v + z"), Q3("v^5 + (u - z)*v^2 + u^2"), "v"),
        (Q3("w^2 + z*u*v + 1"), Q3("w^3 - v*w + u"), "w"),
    ] + [(Q3(x), Q3(y), "v") for a, b in RATIONAL_PAIRS for x, y in ((a, b), (b, a))
          ] + [(Q3(x), Q3(y), "v") for a, b in CONSTANT_LEAD_PAIRS for x, y in ((a, b), (b, a))]
    for a, b, var in cases:
        rest = [x for x in UVW if x != var]
        # sympy takes the resultant in the first generator
        A, B = (sympy_poly(sympy, p, [var] + rest) for p in (a, b))
        # sympy 1.14 gives -1 for resultant(v, v^3 + 1), whose Sylvester
        # determinant is 1, so it is asked with the larger degree first
        if A.degree() < B.degree():
            want = B.resultant(A) * (-1) ** (A.degree() * B.degree())
        else:
            want = A.resultant(B)
        assert sympy_poly(sympy, resultant(a, b, var), rest) == want, (a, b, var)


@pytest.mark.parametrize("field", ORACLE_FIELDS)
def test_degree_1_resultant_matches_the_prs_and_sympy(sympy, field, monkeypatch):
    # an input of degree 1 in var gives the resultant by one substitution,
    # with no PRS; with the linear input second, (-1)^deg(a) fixes the sign
    Q3 = field_parser(field)
    linear = [Q3("v + u"), Q3("2/3*v - z*u^2 + 1/5"), Q3("(u - z*w)*v + u*w + 7/3"),
              Q3("u*v")]
    others = [Q3("v^2 + u"), Q3("11/19*v^3 + z*u*v + 13/17"),
              Q3("v^4 - (u + w)*v^3 + z*u^2*w"), Q3("(u + 1)*v^5 + v*w + z")]
    cases = [(a, b) for a in linear for b in linear + others]
    cases += [(b, a) for a in linear for b in others]
    want = {}
    for a, b in cases:
        A, B = (sympy_poly(sympy, p, ["v", "u", "w"]) for p in (a, b))
        if A.degree() < B.degree():
            want[a, b] = B.resultant(A) * (-1) ** (A.degree() * B.degree())
        else:
            want[a, b] = A.resultant(B)
        assert resultant(a, b, "v") == sylvester_resultant(a, b, "v"), (a, b)
    prs = []
    original = arith._subresultants
    monkeypatch.setattr(arith, "_subresultants",
                        lambda A, B: prs.append(A) or original(A, B))
    for a, b in cases:
        res, s1 = arith.resultant_and_s1(a, b, "v")
        assert sympy_poly(sympy, res, ["u", "w"]) == want[a, b], (a, b)
        assert s1 == (a if a.degree_in("v") == 1 else b)
    assert not prs


def test_fold_resultant_forms_no_field_product(monkeypatch):
    # on a fold germ P = v1 + v2, so Res_v2(P, Q) = Q(v2 = -v1): each term
    # maps to one term, and the coefficient -1 adds a sign, not a product
    folds = [f.multipoint for f in corpus(10)
             if f.corank == 1 and not f.name.startswith("H_")]
    assert len(folds) == 29
    products = []
    original = FieldElem.__mul__

    def counted(a, b):
        products.append(1)
        return original(a, b)
    monkeypatch.setattr(FieldElem, "__mul__", counted)
    monkeypatch.setattr(FieldElem, "__rmul__", counted)
    results = [arith.resultant_and_s1(m.P, m.Q, "v2") for m in folds]
    monkeypatch.undo()
    assert not products
    for m, (res, _) in zip(folds, results):
        assert m.P == Poly.variable("v1", m.P.vars, m.P.field) + Poly.variable(
            "v2", m.P.vars, m.P.field)
        assert res == _expand_termwise(m.Q, "v2", -Poly.variable("v1", m.P.vars, m.P.field))
