import random
import time
from fractions import Fraction

import pytest

from milnorsig.fields import (FieldError, NumberField, QQ, parse_field,
                              quadratic_roots, rational_sqrt, sqrt_in_field)


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
    assert rational_sqrt(Fraction(9, 4)) == Fraction(3, 2)
    assert rational_sqrt(Fraction(2)) is None
    assert rational_sqrt(Fraction(-1)) is None


def test_sqrt_in_quadratic_field():
    Qz = parse_field("Q(zeta3)")
    s = sqrt_in_field(Qz, Qz.from_rational(Fraction(-3, 4)))
    assert s is not None and s * s == Fraction(-3, 4)
    Qi = parse_field("Q(i)")
    # sqrt(2i) = 1 + i
    s = sqrt_in_field(Qi, Qi.generator() * 2)
    assert s is not None and s * s == Qi.generator() * 2
    assert sqrt_in_field(Qi, Qi.from_rational(2)) is None


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


def test_quadratic_with_large_constant_is_fast():
    # the discriminant test needs no factoring of 10^23 + 3
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


def test_large_integer_root_rejected():
    with pytest.raises(FieldError):
        parse_field("Q[a]/(a^3 - 1000000900000270000027)")   # (10^7 + 3)^3
    with pytest.raises(FieldError):
        # (a - 10000019)*(a^3 + 2)
        parse_field("Q[a]/(a^4 - 10000019*a^3 + 2*a - 20000038)")
    with pytest.raises(FieldError):
        parse_field("Q[a]/(a^3 - 1/8)")                      # root 1/2
