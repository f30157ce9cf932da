import math
import random
import time
from fractions import Fraction

import pytest

from milnorsig.fields import (FieldElem, FieldError, NumberField, QQ, _ratio_sqrt,
                              charpoly, parse_field, quadratic_roots, sqrt_in_field)
from milnorsig.parser import parse_poly


def test_builtin_fields():
    Qi = parse_field("Q(i)")
    i = Qi.generator()
    assert i * i == -1
    Qz = parse_field("Q(zeta3)")
    z = Qz.generator()
    assert z * z * z == 1
    assert (z * z + z + 1).is_zero()
    assert parse_field("Q") is QQ or parse_field("Q").degree == 1


def test_custom_field_descriptor():
    F = parse_field("Q[a]/(a^2 - 2)")
    a = F.generator()
    assert a * a == 2
    assert (1 / a) * a == 1


def test_equal_fields_hash_alike():
    # fields are values: one built twice is equal, and so are the hashes
    # of its elements, whichever copy they belong to
    F, G = parse_field("Q[a]/(a^2 - 2)"), parse_field("Q[a]/(a^2 - 2)")
    assert F is not G and F == G and hash(F) == hash(G)
    assert hash(F.generator()) == hash(G.generator())
    assert parse_field("Q[a]/(a^2 - 3)") != F


def test_reducible_minimal_poly_rejected():
    with pytest.raises(FieldError):
        NumberField("a", (Fraction(-1), Fraction(0), Fraction(1)))  # a^2 - 1
    with pytest.raises(FieldError):
        # a^4 + 2a^2 + 1 = (a^2+1)^2
        NumberField("a", (Fraction(1), Fraction(0), Fraction(2), Fraction(0),
                          Fraction(1)))


def test_arithmetic_axioms_random():
    rng = random.Random(42)
    Qz = parse_field("Q(zeta3)")

    def rand_elem():
        return Qz.from_rational(rng.randint(-5, 5)) + Qz.generator() * rng.randint(-5, 5)

    for _ in range(50):
        x, y, z = rand_elem(), rand_elem(), rand_elem()
        assert (x * y) * z == x * (y * z)
        assert x * (y + z) == x * y + x * z
        if not x.is_zero():
            assert x * x.inverse() == 1


def test_minimal_poly_kills_generator():
    for desc in ("Q(i)", "Q(zeta3)", "Q[a]/(a^3 - a - 1)"):
        F = parse_field(desc)
        g = F.generator()
        acc = F.zero()
        power = F.one()
        for c in F.minimal_poly:
            acc = acc + power * c
            power = power * g
        assert acc.is_zero()


def test_rational_sqrt():
    assert _ratio_sqrt(9, 4) == (3, 2)
    assert _ratio_sqrt(-18, -8) == (3, 2)    # in lowest terms, signs cleared
    assert _ratio_sqrt(0, -7) == (0, 1)
    assert _ratio_sqrt(2, 1) is None
    assert _ratio_sqrt(-1, 1) is None
    assert _ratio_sqrt(1, 2) is None


def test_quartic_splitting_into_quadratics_rejected():
    # p - r was taken for p, so both split and were accepted as fields
    for desc in ("Q[a]/(a^4 + a^2 + 1)",                   # (a^2 + a + 1)(a^2 - a + 1)
                 "Q[a]/(a^4 + 2*a^3 + 4*a^2 + 3*a + 2)"):  # (a^2 + a + 1)(a^2 + a + 2)
        with pytest.raises(FieldError, match="splits into two quadratics"):
            parse_field(desc)
    assert parse_field("Q[a]/(a^4 + 1)").degree == 4
    assert parse_field("Q[a]/(a^4 - 2)").degree == 4


def test_quartic_irreducibility_matches_sympy():
    # monic quartics with no rational root, half of them products of two
    # rational quadratics: a field exactly when sympy finds them irreducible
    sympy = pytest.importorskip("sympy")
    x = sympy.symbols("x")
    rng = random.Random(33)
    seen = {True: 0, False: 0}
    for i in range(600):
        if i % 2:
            a, b, c, d = (sympy.Rational(rng.randint(-6, 6), rng.choice([1, 1, 2, 3]))
                          for _ in range(4))
            m = sympy.Poly((x**2 + a * x + b) * (x**2 + c * x + d), x, domain="QQ")
        else:
            m = sympy.Poly(x**4 + sum(sympy.Rational(rng.randint(-9, 9), rng.choice([1, 1, 2]))
                                      * x**k for k in range(4)), x, domain="QQ")
        if any(f.degree() == 1 for f, _ in m.factor_list()[1]):
            continue
        coeffs = tuple(Fraction(int(c.p), int(c.q)) for c in reversed(m.all_coeffs()))
        try:
            NumberField("a", coeffs)
            accepted = True
        except FieldError as exc:
            assert "splits into two quadratics" in str(exc), m
            accepted = False
        assert accepted == m.is_irreducible, m
        seen[accepted] += 1
    assert min(seen.values()) >= 100, seen


def test_sqrt_in_quadratic_field():
    Qz = parse_field("Q(zeta3)")
    s = sqrt_in_field(Qz, Qz.from_rational(Fraction(-3, 4)))
    assert s is not None and s * s == Fraction(-3, 4)
    Qi = parse_field("Q(i)")
    # sqrt(2i) = 1 + i
    s = sqrt_in_field(Qi, Qi.generator() * 2)
    assert s is not None and s * s == Qi.generator() * 2
    assert sqrt_in_field(Qi, Qi.from_rational(2)) is None
    # the roots returned: a rational x takes its non-negative rational root,
    # else b * (alpha + c1/2) with b >= 0
    z, i = Qz.generator(), Qi.generator()
    assert sqrt_in_field(Qz, Qz.from_rational(Fraction(-3, 4))) == z + Fraction(1, 2)
    assert sqrt_in_field(Qi, Qi.from_rational(-4)) == i * 2
    assert sqrt_in_field(Qi, Qi.from_rational(Fraction(9, 4))) == Fraction(3, 2)
    assert sqrt_in_field(Qi, Qi.zero()) == 0
    assert sqrt_in_field(Qi, i * 2) == i + 1
    Qa = parse_field("Q[a]/(a^2 - 2)")
    assert sqrt_in_field(Qa, Qa.from_rational(8)) == Qa.generator() * 2


SQRT_FIELDS = ("Q(i)", "Q(zeta3)", "Q[a]/(a^2 - 2)", "Q[a]/(a^2 - 1/2*a + 1/3)")


@pytest.mark.parametrize("desc", SQRT_FIELDS)
def test_sqrt_of_a_square_is_found(desc):
    F = parse_field(desc)
    rng = random.Random(31)
    for _ in range(200):
        y = FieldElem(F, tuple(Fraction(rng.randint(-20, 20), rng.randint(1, 9))
                               * rng.randint(0, 1) for _ in range(2)))
        s = sqrt_in_field(F, y * y)
        assert s is not None and s * s == y * y, y
        if desc == "Q(i)" and not y.is_zero():
            # i is not a square in Q(i), so neither is y^2 * i
            assert sqrt_in_field(F, y * y * F.generator()) is None, y


def _rational_sqrt(x):
    """The non-negative square root of a Fraction, or None."""
    s, t = math.isqrt(abs(x.numerator)), math.isqrt(x.denominator)
    ok = x >= 0 and s * s == x.numerator and t * t == x.denominator
    return Fraction(s, t) if ok else None


def _fraction_sqrt(field, x):
    """Reference: the square root of x in a field of degree <= 2 worked out
    in Fractions from the coordinates, the route sqrt_in_field took before it
    moved to integer coordinates; its root and sign are the ones kept."""
    if field.degree == 1:
        r = _rational_sqrt(x.coeffs[0])
        return None if r is None else field.from_rational(r)
    c0, c1 = field.minimal_poly[:2]
    d0, d1 = x.coeffs
    if d1 == 0:
        r = _rational_sqrt(d0)
        if r is not None:
            return field.from_rational(r)
        b = _rational_sqrt(4 * d0 / (c1 * c1 - 4 * c0))
        return None if b is None else b * (field.generator() + c1 / 2)
    r = _rational_sqrt(d0 * d0 - c1 * d0 * d1 + c0 * d1 * d1)
    if r is None:
        return None
    for n in (r, -r):
        t = _rational_sqrt(2 * d0 - c1 * d1 + 2 * n)
        if t:
            return (x + n) * (1 / t)
    return None


def _fraction_quadratic_roots(field, p, q):
    s = _fraction_sqrt(field, p * p - 4 * q)
    if s is None:
        return []
    r1, r2 = (-p + s) * Fraction(1, 2), (-p - s) * Fraction(1, 2)
    return [r1] if r1 == r2 else [r1, r2]


ROOT_FIELDS = ("Q", "Q(i)", "Q(zeta3)", "Q[a]/(a^2 - 2)", "Q[a]/(a^2 - 1/2*a + 1/3)")


@pytest.mark.parametrize("desc", ROOT_FIELDS)
def test_integer_roots_match_the_fraction_reference(desc):
    # squares of sampled elements, their products with the generator (no
    # square in Q(i) or Q[a]/(a^2 - 2)) and x^2 + p x + q with chosen roots:
    # the same root, sign and order as the Fraction reference
    F = parse_field(desc)
    rng = random.Random(desc)

    def sample():
        return FieldElem(F, tuple(Fraction(rng.randint(-30, 30), rng.randint(1, 12))
                                  * rng.randint(0, 1) for _ in range(F.degree)))
    found = {"square": 0, "none": 0, "roots": 0, "no roots": 0}
    for _ in range(150):
        y, r1, r2 = sample(), sample(), sample()
        for x in (y * y, y * y * (F.generator() if F.degree > 1 else 2), y):
            s = sqrt_in_field(F, x)
            assert s == _fraction_sqrt(F, x), x
            assert s is None or s * s == x, x
            found["square" if s is not None else "none"] += 1
        for p, q in ((-(r1 + r2), r1 * r2), (r1, r2)):
            roots = quadratic_roots(F, p, q)
            assert roots == _fraction_quadratic_roots(F, p, q), (p, q)
            assert all((x * x + p * x + q).is_zero() for x in roots)
            found["roots" if roots else "no roots"] += 1
        assert sorted(map(repr, quadratic_roots(F, -(r1 + r2), r1 * r2))) == \
            sorted({repr(r1), repr(r2)})
    assert all(found.values()), found


def test_charpoly_of_companion_matrix():
    # the companion matrix of t^n + a_(n-1) t^(n-1) + ... + a_0 has that
    # characteristic polynomial
    rng = random.Random(8)
    for n in range(7):
        a = [Fraction(rng.randint(-9, 9), rng.randint(1, 6)) for _ in range(n)]
        A = [[int(i == j + 1) for j in range(n - 1)] + [-a[i]] for i in range(n)]
        assert charpoly(A) == a + [1], a


def test_quadratic_roots():
    Qz = parse_field("Q(zeta3)")
    roots = quadratic_roots(Qz, Qz.one(), Qz.one())  # x^2 + x + 1
    assert len(roots) == 2
    for r in roots:
        assert (r * r + r + 1).is_zero()
    assert quadratic_roots(QQ, QQ.zero(), QQ.from_rational(1)) == []


def test_bad_descriptor():
    with pytest.raises(FieldError):
        parse_field("R")


def test_degree_1_descriptor_points_to_Q():
    # Q[a]/(a - 3) built a field whose generator the parser refuses
    for desc in ("Q[a]/(a - 3)", "Q[b]/(b)", "Q[a]/(2*a + 1)"):
        with pytest.raises(FieldError, match='has degree 1, so it is Q: write field = "Q"'):
            parse_field(desc)


def test_quadratic_with_large_constant_is_fast():
    # bisection for rational roots needs no factoring of 10^23 + 3
    F = parse_field("Q[a]/(a^2 - 100000000000000000000003)")
    assert F.degree == 2
    a = F.generator()
    assert a * a == 100000000000000000000003


def test_quadratic_square_discriminant_rejected():
    with pytest.raises(FieldError):
        parse_field(f"Q[a]/(a^2 - {(10 ** 11 + 3) ** 2})")
    with pytest.raises(FieldError):
        parse_field("Q[a]/(a^2 + 3*a + 2)")   # (a + 1)(a + 2)
    assert parse_field("Q[a]/(a^2 + a + 1)").degree == 2


def test_cubic_and_quartic_with_large_constant_are_fast():
    # rational roots are found by bisection, not by factoring 10^23 + 3
    for desc, degree in (("Q[a]/(a^3 - 100000000000000000000003)", 3),
                         ("Q[a]/(a^4 - 100000000000000000000003)", 4)):
        start = time.perf_counter()
        assert parse_field(desc).degree == degree
        assert time.perf_counter() - start < 1.0


def test_product_skips_the_reduction_steps_of_zero_coordinates():
    # a*1 in degree 800 has one nonzero coordinate, so each of the 799
    # reduction steps pops a zero: running them all took 68-105 ms, and
    # skipping them takes well under 1 ms
    F = parse_field("Q[a]/(a^400*a^400 - 3)")
    assert F.degree == 800
    times = []
    for _ in range(3):
        start = time.perf_counter()
        p = parse_poly("a*u", ("u", "v"), F)
        times.append(time.perf_counter() - start)
    assert p.terms == {(1, 0): F.generator()}
    assert min(times) < 0.02
    # a step that pops a nonzero coordinate still reduces: a^799 * a = 3
    x = FieldElem(F, (0,) * 799 + (1,))
    assert x * F.generator() == 3


def test_large_integer_root_rejected():
    with pytest.raises(FieldError):
        parse_field("Q[a]/(a^3 - 1000000900000270000027)")   # (10^7 + 3)^3
    with pytest.raises(FieldError):
        # (a - 10000019)*(a^3 + 2)
        parse_field("Q[a]/(a^4 - 10000019*a^3 + 2*a - 20000038)")
    with pytest.raises(FieldError):
        parse_field("Q[a]/(a^3 - 1/8)")                      # root 1/2


def test_zero_divisors_of_an_unchecked_degree_are_refused():
    # a^5 - 1 = (a - 1)(a^4 + a^3 + a^2 + a + 1) is taken on the user's word
    F = parse_field("Q[a]/(a^5 - 1)")
    a = F.generator()
    for x in (a - 1, 1 + a + a * a + a * a * a + a * a * a * a):
        with pytest.raises(FieldError, match="not irreducible"):
            x.inverse()
    assert (a + 2) * (a + 2).inverse() == 1


# -- oracle: Fraction polynomials modulo the minimal polynomial ---------------
#
# The reference below shares no code with milnorsig.fields: an element is a
# list of Fractions (index = exponent), products are reduced by long division
# by the monic minimal polynomial, and inverses solve the linear system
# (multiplication by x) * y = 1 by Gaussian elimination.

ORACLE_FIELDS = {
    "Q": [0, 1],
    "Q(i)": [1, 0, 1],
    "Q(zeta3)": [1, 1, 1],
    "Q[a]/(a^2 - 1/2*a + 1/3)": [Fraction(1, 3), Fraction(-1, 2), 1],
    "Q[a]/(a^3 - 2)": [-2, 0, 0, 1],
    "Q[a]/(a^3 - 1/2*a^2 + 3/4*a - 2)": [-2, Fraction(3, 4), Fraction(-1, 2), 1],
}


def _ref_reduce(p, m):
    d = len(m) - 1
    p = [Fraction(c) for c in p]
    for k in range(len(p) - 1, d - 1, -1):
        c = p[k]
        if c:
            for i in range(d + 1):
                p[k - d + i] -= c * m[i]
    return (p + [Fraction(0)] * d)[:d]


def _ref_mul(a, b, m):
    prod = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            prod[i + j] += x * y
    return _ref_reduce(prod, m)


def _ref_inverse(a, m):
    d = len(m) - 1
    basis = [[Fraction(int(i == j)) for j in range(d)] for i in range(d)]
    # column j of the matrix is a * alpha^j
    cols = [_ref_mul(a, e, m) for e in basis]
    rows = [[cols[j][i] for j in range(d)] + [Fraction(int(i == 0))]
            for i in range(d)]
    for c in range(d):
        piv = next(r for r in range(c, d) if rows[r][c])
        rows[c], rows[piv] = rows[piv], rows[c]
        rows[c] = [x / rows[c][c] for x in rows[c]]
        for r in range(d):
            if r != c and rows[r][c]:
                f = rows[r][c]
                rows[r] = [x - f * y for x, y in zip(rows[r], rows[c])]
    return [rows[i][d] for i in range(d)]


def _check_canonical(x):
    assert all(type(n) is int for n in x.num) and type(x.den) is int
    assert x.den > 0
    assert math.gcd(x.den, *x.num) == 1


def _run_oracle(desc, check):
    hyp = pytest.importorskip("hypothesis")
    st = hyp.strategies
    F = parse_field(desc)
    m = [Fraction(c) for c in ORACLE_FIELDS[desc]]
    assert list(F.minimal_poly) == m
    coords = st.lists(st.fractions(min_value=-40, max_value=40, max_denominator=12),
                      min_size=F.degree, max_size=F.degree)
    run = hyp.given(coords, coords, coords)(
        lambda a, b, c: check(F, m, a, b, c))
    hyp.settings(max_examples=40, deadline=None, database=None,
                 derandomize=True)(run)()


@pytest.mark.parametrize("desc", sorted(ORACLE_FIELDS))
def test_arithmetic_matches_oracle(desc):
    def check(F, m, a, b, c):
        x, y = FieldElem(F, tuple(a)), FieldElem(F, tuple(b))
        k = c[0]
        results = {
            "+": (x + y, [p + q for p, q in zip(a, b)]),
            "-": (x - y, [p - q for p, q in zip(a, b)]),
            "neg": (-x, [-p for p in a]),
            "*": (x * y, _ref_mul(a, b, m)),
            "* rational": (x * k, [p * k for p in a]),
            "rational -": (k - x, [k - a[0]] + [-p for p in a[1:]]),
        }
        if any(b):
            # a check that shares no method with the oracle's linear solve
            assert y * y.inverse() == F.one()
            results["inverse"] = (y.inverse(), _ref_inverse(b, m))
            results["/"] = (x / y, _ref_mul(a, _ref_inverse(b, m), m))
            results["rational /"] = (k / y, [k * p for p in _ref_inverse(b, m)])
        else:
            with pytest.raises(ZeroDivisionError):
                y.inverse()
        for op, (got, want) in results.items():
            assert list(got.coeffs) == want, op
            _check_canonical(got)

    _run_oracle(desc, check)


@pytest.mark.parametrize("desc", sorted(ORACLE_FIELDS))
def test_representation_is_canonical(desc):
    def check(F, m, a, b, c):
        x, y, z = (FieldElem(F, tuple(v)) for v in (a, b, c))
        for e, v in zip((x, y, z), (a, b, c)):
            _check_canonical(e)
            assert e.coeffs == tuple(v)
            assert FieldElem(F, e.coeffs) == e
        # the same value reached two ways: equal, with equal hashes
        for u, v in (((x * y) * z, x * (y * z)), (x + y - y, x),
                     (x * (y + z), x * y + x * z), (x - x, F.zero())):
            assert u == v and hash(u) == hash(v)
            assert u.num == v.num and u.den == v.den
        if x.is_rational():
            assert x == x.as_rational()
            assert x == F.from_rational(x.as_rational())

    _run_oracle(desc, check)
