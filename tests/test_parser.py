import importlib.util
import math
import pathlib
import random
import time
from fractions import Fraction

import pytest

from milnorsig.corpus import corpus
from milnorsig.fields import QQ, FieldElem, FieldError, parse_field
from milnorsig.germfile import load_germ
from milnorsig.parser import ParseError, parse_poly
from milnorsig.poly import Poly, PolyError, format_poly
from test_golden import OVERRIDE_GERMS

UV = ("u", "v")
PERFBENCH = pathlib.Path(__file__).resolve().parents[1] / "perfbench"


def test_basic_examples():
    p = parse_poly("v^2 + u^2", UV, QQ)
    assert p == parse_poly("u^2 + v^2", UV, QQ)
    p = parse_poly("v^3 + u^4*v", UV, QQ)
    assert p.degree_in("u") == 4 and p.degree_in("v") == 3


def test_zeta3_expansion():
    Qz = parse_field("Q(zeta3)")
    p = parse_poly("(u - zeta3*v^4)*(u - zeta3^2*v^4)", UV, Qz)
    assert p == parse_poly("u^2 + u*v^4 + v^8", UV, Qz)


def test_print_parse_fixed_point():
    Qi = parse_field("Q(i)")
    cases = [
        ("1/2*u - 3/4 + v^5", QQ),
        ("(u + i*v)*(u - i*v) - 7*u*v", Qi),
        ("-u + 2*v - 1", QQ),
        ("0", QQ),
        ("(2 + 3*i)*u^2*v", Qi),
    ]
    for src, field in cases:
        p = parse_poly(src, UV, field)
        s = format_poly(p)
        assert parse_poly(s, UV, field) == p
        assert format_poly(parse_poly(s, UV, field)) == s


def test_unary_minus_and_parens():
    assert parse_poly("-u + v", UV, QQ) == parse_poly("v - u", UV, QQ)
    assert parse_poly("-(u - v)", UV, QQ) == parse_poly("v - u", UV, QQ)
    # a minus may open each term of a sum, and only there
    assert parse_poly("u - -v", UV, QQ) == parse_poly("u + v", UV, QQ)
    assert parse_poly("u + -v", UV, QQ) == parse_poly("u - v", UV, QQ)
    for src, pos in (("--u", 1), ("u*-v", 2)):
        with pytest.raises(ParseError, match=f"found '-' \\(at position {pos}\\)"):
            parse_poly(src, UV, QQ)


def test_rational_literals():
    p = parse_poly("1/2*u + 1/3", UV, QQ)
    q = parse_poly("3*u + 2", UV, QQ)
    assert p.scale(6) == q


def test_syntax_errors_report_position():
    with pytest.raises(ParseError) as exc:
        parse_poly("u + * v", UV, QQ)
    assert "position" in str(exc.value)
    with pytest.raises(ParseError):
        parse_poly("u +", UV, QQ)
    with pytest.raises(ParseError):
        parse_poly("(u + v", UV, QQ)
    with pytest.raises(ParseError):
        parse_poly("u ^ v", UV, QQ)


def test_unknown_identifier():
    with pytest.raises(ParseError) as exc:
        parse_poly("u + w^2", UV, QQ)
    assert "unknown identifier" in str(exc.value)
    # field generator is only known over its own field
    with pytest.raises(ParseError):
        parse_poly("i*u", UV, QQ)


def test_zero_denominator():
    with pytest.raises(ParseError):
        parse_poly("1/0", UV, QQ)


def test_deep_nesting_is_a_parse_error():
    with pytest.raises(ParseError, match="nested too deeply"):
        parse_poly("(" * 3000 + "u" + ")" * 3000, UV, QQ)


def test_powers_are_bounded_before_expanding():
    Qi = parse_field("Q(i)")
    assert parse_poly("(2*u)^500", UV, QQ) == parse_poly("u^500", UV, QQ).scale(2 ** 500)
    assert parse_poly("u^007", UV, QQ) == parse_poly("u^7", UV, QQ)
    assert parse_poly("0^500", UV, QQ).is_zero()
    with pytest.raises(ParseError, match=r"exponent above the limit 500 \(at position 2\)"):
        parse_poly("u^501", UV, QQ)
    # int() refuses digit strings this long; the limit is checked first
    with pytest.raises(ParseError, match="exponent above the limit"):
        parse_poly("u^" + "9" * 5000, UV, QQ)
    # C(62 + 2, 2) = 2016 possible terms: refused at once, not expanded
    with pytest.raises(ParseError, match=r"3-term polynomial may exceed 2000 terms"):
        parse_poly("(u + i*v + 1)^62", UV, Qi)
    # C(20 + 3, 3) = 1771 possible terms, 441 actual; C(21 + 3, 3) = 2024
    assert len(parse_poly("(u + v + u*v + 1)^20", UV, QQ).terms) == 441
    with pytest.raises(ParseError, match=r"4-term polynomial may exceed 2000 terms"):
        parse_poly("(u + v + u*v + 1)^21", UV, QQ)


def test_power_coefficient_bits_are_bounded_before_expanding():
    # 9^500 has 1,585 bits, so (9^500)^500 may have 792,500 and (9^500)^10
    # 15,850, above the 14,284 bits of a 4300-digit literal
    Qi = parse_field("Q(i)")
    for src, pos in (("((9^500)^500)^20", 9), ("v^3 + (9^500)^10*u^2*v", 14)):
        start = time.perf_counter()
        with pytest.raises(ParseError, match=rf"above 14284 bits \(at position {pos}\)"):
            parse_poly(src, UV, Qi)
        assert time.perf_counter() - start < 0.1, src
    # n * b: 500 * 2 bits for (2/3)^500 and (2*u)^500; n * (b + ceil(log2 t)):
    # 61 * (1 + 2) bits for (u + i*v + 1)^61
    assert parse_poly("(2/3)^500*u", UV, QQ) == parse_poly("u", UV, QQ).scale(
        Fraction(2, 3) ** 500)
    assert parse_poly("(2*u)^500", UV, Qi) == parse_poly("u^500", UV, Qi).scale(2 ** 500)
    assert len(parse_poly("(u + i*v + 1)^61", UV, Qi).terms) == 1953


def test_product_coefficient_bits_are_bounded_before_expanding():
    # (9^500)^9 has 14,265 bits and passes the bound; a product of two has
    # 28,530, refused as that coefficient is formed
    Qi = parse_field("Q(i)")
    for src, pos in (("(9^500)^9*(9^500)^9", 9), ("u*(9^500)^9*u*(9^500)^9*v", 13),
                     ("(9^500)^9*(u + v)*(9^500)^9", 17)):
        start = time.perf_counter()
        with pytest.raises(ParseError, match=rf"product has coefficients above "
                                             rf"14284 bits \(at position {pos}\)"):
            parse_poly(src, UV, Qi)
        assert time.perf_counter() - start < 0.1, src
    half = f"({2 ** 7131}*u + v + 1)"
    p = parse_poly(f"{half}*{half}", UV, QQ)
    assert max(c.num[0].bit_length() for c in p.terms.values()) == 14263
    # the coefficient of u^2 is 2^14282, of 14,283 bits: accepted, although
    # a bound of 7,142 + 7,142 bits plus 1 for min(2, 2) terms, 14,285,
    # refused it before it was formed
    half = f"({2 ** 7141}*u + v)"
    p = parse_poly(f"{half}*{half}", UV, QQ)
    assert p == parse_poly(half, UV, QQ) * parse_poly(half, UV, QQ)
    assert max(c.num[0].bit_length() for c in p.terms.values()) == 14283
    # 2^14284 has 14,285 bits: refused
    half = f"({2 ** 7142}*u + v)"
    with pytest.raises(ParseError, match=rf"product has coefficients above 14284 bits "
                                         rf"\(at position {len(half)}\)"):
        parse_poly(f"{half}*{half}", UV, QQ)


def test_coefficient_bounds_count_the_reduction_by_the_minimal_polynomial():
    # a^2 = 2*10^100 adds up to 336 bits per product of irrational
    # coefficients: (u + a*v)^200 had coefficients of 33,320 bits
    F = parse_field("Q[a]/(a^2 - 2*10^100)")
    assert F.reduction_bits == 2 + (2 * 10 ** 100).bit_length()
    with pytest.raises(ParseError, match=r"power has coefficients above "
                                         r"14284 bits \(at position 10\)"):
        parse_poly("(u + a*v)^200", UV, F)
    p = parse_poly("(u + a*v)^42*(u + a*v)^42", UV, F)
    assert max(x.bit_length() for c in p.terms.values() for x in (*c.num, c.den)) == 13995
    assert p == parse_poly("u + a*v", UV, F) ** 84
    p = parse_poly("(u + a*v)^43", UV, F)
    assert max(x.bit_length() for c in p.terms.values() for x in (*c.num, c.den)) == 7003
    # a rational factor only scales coordinates: no reduction is counted
    assert parse_poly("(9^500)^9*a*u", UV, F) == parse_poly("a*u", UV, F).scale(9 ** 4500)
    assert QQ.reduction_bits == 0
    assert parse_field("Q(i)").reduction_bits == 3
    Qa = parse_field("Q[a]/(a^2 - 2)")
    assert len(parse_poly("(u + a*v)^61", UV, Qa).terms) == 62
    # reducing by a^3 = 3^5000 may add 15,854 bits to one product, more than
    # the bound: a product that reaches a^3 is refused before it is formed,
    # and one below a^3, which needs no reduction, is formed as usual
    F = parse_field("Q[a]/(a^3 - (3^500)^10)")
    assert F.reduction_bits == 15854
    for src, pos, what in (("a*a*a*u", 3, "product"), ("a^3*u", 2, "power")):
        start = time.perf_counter()
        with pytest.raises(ParseError, match=rf"{what} may have coefficients above "
                                             rf"14284 bits \(at position {pos}\)"):
            parse_poly(src, UV, F)
        assert time.perf_counter() - start < 0.1, src
    a, u, v = (parse_poly(x, UV, F) for x in ("a", "u", "v"))
    a2 = FieldElem(F, (0, 0, 1))
    a2u = Poly(UV, {(1, 0): a2}, F)
    assert parse_poly("a*a*u", UV, F) == a2u
    assert parse_poly("a^2*u", UV, F) == a2u
    assert parse_poly("(a*u)*(a*v)", UV, F) == Poly(UV, {(1, 1): a2}, F)
    assert parse_poly("a*u + v", UV, F) == u.scale(F.generator()) + v
    assert parse_poly("(u + a*v)^2", UV, F) == u * u + (a * u * v).scale(2) + a * a * v * v


def test_built_coefficients_are_refused_at_their_operator():
    # sums of coefficients with different denominators: built in full,
    # these had coefficients of 18,729, 14,495, 14,495 and 23,451 bits
    half = "(((1/3)^490)^6*v + ((1/5)^404)^5*u*v + ((1/7)^334)^5*u^2*v)"
    for src, pos, what in (
            (f"{half}*{half}", 59, "product"),
            ("((1/3)^490)^9 + ((1/5)^404)^8", 14, "sum"),
            ("u + ((1/3)^490)^9*v - ((1/5)^404)^8*v", 20, "sum"),
            ("(((1/3)^296)^10 + ((1/5)^202)^10*v + ((1/7)^167)^10*v^2)^3", 57, "power")):
        with pytest.raises(ParseError, match=rf"{what} has coefficients above "
                                             rf"14284 bits \(at position {pos}\)"):
            parse_poly(src, UV, QQ)
    # a sum whose terms have different exponents adds no coefficients
    p = parse_poly("((1/3)^490)^9*u + ((1/5)^404)^8*v", UV, QQ)
    assert len(p.terms) == 2


def _odd_primes(n):
    primes = []
    k = 3
    while len(primes) < n:
        if all(k % p for p in primes):
            primes.append(k)
        k += 2
    return primes


def test_product_is_refused_at_its_first_partial_sum_over_the_bound():
    # t = 20 terms ((1/p)^a)^20*u^i, p the first odd primes, of at most
    # 7,000 bits: a bound of 7,000 + 7,000 + ceil(log2 20) bits let
    # half*half expand in full for 3.3 s before a scan refused it
    half = " + ".join(f"((1/{p})^{int(7000 / (20 * math.log2(p)))})^20*u^{i}"
                      for i, p in enumerate(_odd_primes(20)))
    start = time.perf_counter()
    with pytest.raises(ParseError, match=r"product has coefficients above 14284 bits "
                                         rf"\(at position {len(half) + 2}\)"):
        parse_poly(f"({half})*({half})", UV, QQ)
    assert time.perf_counter() - start < 0.1


def test_partial_sum_over_the_bound_is_refused_although_it_cancels():
    # the coefficient of u*v is 1/3^5000 + 1/5^5000 - 1/5^5000 = 1/3^5000,
    # of 7,925 bits, but its first two products sum to 19,535 bits.  The
    # product has at most 11,610 bits, and a scan of the built product
    # accepted it; refusing each coefficient as it is formed is what keeps
    # every operation of the parser on numbers of bounded size
    a, b = 3 ** 5000, 5 ** 5000
    p, q = f"(1/{a} + 1/{b}*u - 1/{b}*v)", "(u*v + v + u)"
    expected = parse_poly(p, UV, QQ) * parse_poly(q, UV, QQ)
    assert max(x.bit_length() for c in expected.terms.values()
               for x in (*c.num, c.den)) == 11610
    with pytest.raises(ParseError, match=r"product has coefficients above 14284 bits "
                                         rf"\(at position {len(p)}\)"):
        parse_poly(f"{p}*{q}", UV, QQ)


def test_products_are_accepted_exactly_when_their_coefficients_fit():
    """2,000 seeded products of two operands of 2 or 3 terms, each
    coefficient a signed prime power of 200 to 7,200 bits over another, the
    primes distinct across terms: a product parses exactly when the Poly
    product of its operands has no numerator or denominator above 14,284
    bits, and then equals it.  Such summands share no prime, so the
    denominators of the partial sums only grow, and no partial sum here
    passes the bound only to be cancelled by a later term.  Every input
    that a bound before the product with a scan after it accepted has a
    product within the bound, so it is accepted here too."""
    rng = random.Random(26)
    primes = _odd_primes(30)
    refused = 0
    for _ in range(2000):
        pool = rng.sample(primes, 12)
        texts, operands = [], []
        for _ in range(2):
            text, terms = [], {}
            for e in rng.sample([(i, j) for i in range(3) for j in range(3)],
                                rng.randint(2, 3)):
                num, den = (p ** round(rng.randint(200, 7200) / math.log2(p))
                            for p in (pool.pop(), pool.pop()))
                c = Fraction(rng.choice((1, -1)) * num, den)
                terms[e] = QQ.from_rational(c)
                text.append(f"{'+-'[c < 0]} {num}/{den}*u^{e[0]}*v^{e[1]}")
            texts.append(f"(0 {' '.join(text)})")
            operands.append(Poly(UV, terms, QQ))
        expected = operands[0] * operands[1]
        src = "*".join(texts)
        if max(x.bit_length() for c in expected.terms.values()
               for x in (*c.num, c.den)) > 14284:
            refused += 1
            with pytest.raises(ParseError, match=r"product has coefficients above 14284 "
                                                 rf"bits \(at position {len(texts[0])}\)"):
                parse_poly(src, UV, QQ)
        else:
            assert parse_poly(src, UV, QQ) == expected, src
    assert 500 < refused < 1500


def test_long_integer_literals_are_parse_errors():
    # int() refuses more than 4300 digits; the refusal names the literal
    big = "9" * 5000
    with pytest.raises(ParseError, match=r"literal of 5000 digits is too long \(at position 4\)"):
        parse_poly(f"u + {big}*v", UV, QQ)
    with pytest.raises(ParseError, match=r"literal of 5000 digits is too long \(at position 6\)"):
        parse_poly(f"u + 1/{big}", UV, QQ)
    assert parse_poly("9" * 4000 + "*u", UV, QQ) == parse_poly("u", UV, QQ).scale(10 ** 4000 - 1)
    # str.isdigit() holds for a superscript two, which int() refuses
    with pytest.raises(ParseError, match=r"unexpected character '²' \(at position 2\)"):
        parse_poly("u^²", UV, QQ)


def test_fuzzed_text_raises_only_documented_errors():
    """Random polynomial text and field descriptors, digit runs of 4000 to
    6000 characters among them: parsing succeeds or raises ParseError,
    FieldError or PolyError."""
    hyp = pytest.importorskip("hypothesis")
    st = hyp.strategies
    Qi = parse_field("Q(i)")
    digit_runs = st.builds(lambda d, n: d * n, st.sampled_from("0123456789"),
                           st.integers(4000, 6000))
    pieces = st.one_of(
        st.sampled_from(["u", "v", "i", "a", "w", "zeta3", "Q", "0", "1", "2", "07",
                         "500", "501", "+", "-", "*", "/", "^", "(", ")", "[", "]",
                         "]/(", " "]),
        digit_runs, st.text(max_size=3))
    text = st.lists(pieces, max_size=10).map("".join)
    descriptors = st.one_of(text, text.map("Q[a]/({})".format),
                            text.map("Q[{}]/(a^2 + 1)".format))

    def check(src, desc):
        for parse in (lambda: parse_poly(src, UV, Qi), lambda: parse_field(desc)):
            try:
                parse()
            except (ParseError, FieldError, PolyError):
                pass

    run = hyp.given(text, descriptors)(check)
    hyp.settings(max_examples=300, deadline=None, database=None, derandomize=True)(run)()


def test_every_corpus_and_workload_germ_parses_within_the_limits(tmp_path):
    # corpus(10) parses its germs as it builds them
    assert len(corpus(10)) == 39
    for text in OVERRIDE_GERMS:
        load_germ(text)
    spec = importlib.util.spec_from_file_location("germgen", PERFBENCH / "germgen.py")
    germgen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(germgen)
    for workload in germgen.WORKLOADS:
        for seed in (1, 2, 3):
            for _, path in germgen.generate(workload, seed, tmp_path / f"{workload}-{seed}"):
                load_germ(pathlib.Path(path).read_text())


# six terms with distinct prime denominators: a bound on the power,
# n * (b + ceil(log2 t)) = 8 * (892 + 3), let it expand in full for 2 s
# before refusing it
SIX_TERM_POWER = ("(((1/3)^280)^2 + ((1/5)^191)^2*u + ((1/7)^158)^2*v"
                  " + ((1/11)^128)^2*u*v + ((1/13)^120)^2*u^2 + ((1/17)^109)^2*v^2)^8")


def test_power_is_refused_at_its_first_square_that_could_pass_the_bound(monkeypatch):
    # ten terms with distinct prime denominators: a bound on the power,
    # 4 * (3,518 + 4), let it expand in full for 5 s
    ten_terms = ("(((1/3)^221)^10 + ((1/5)^151)^10*u + ((1/7)^125)^10*v"
                 " + ((1/11)^101)^10*u*v + ((1/13)^95)^10*u^2 + ((1/17)^86)^10*v^2"
                 " + ((1/19)^82)^10*u^2*v + ((1/23)^77)^10*u*v^2 + ((1/29)^72)^10*u^3"
                 " + ((1/31)^71)^10*v^3)^4")
    # the work is counted in coefficient products, not in seconds: the two
    # are refused after 486 and 180 products, and expanded in full they
    # form 2,360 and 1,040
    products = 0

    def counted(self, other, _mul=FieldElem.__mul__):
        nonlocal products
        products += 1
        assert products < limit, f"{products} coefficient products"
        return _mul(self, other)
    monkeypatch.setattr(FieldElem, "__mul__", counted)
    for src, pos, what, limit in ((SIX_TERM_POWER, 115, "power has", 1000),
                                  (ten_terms, 207, "power has", 500)):
        products = 0
        with pytest.raises(ParseError, match=rf"{what} coefficients above 14284 bits "
                                             rf"\(at position {pos}\)"):
            parse_poly(src, UV, QQ)


def test_accepted_powers_equal_the_polynomial_power():
    """Bases of 1 to 3 terms over Q and Q(i), with coefficients of up to
    about 2,000 bits: whenever (base)^n parses, it is parse_poly(base) ** n."""
    hyp = pytest.importorskip("hypothesis")
    st = hyp.strategies
    Qi = parse_field("Q(i)")
    rationals = st.builds("({}*{}/{})".format, st.integers(-9, 9),
                          st.sampled_from([1, 3 ** 40, 2 ** 700, 7 ** 700]),
                          st.sampled_from([1, 5, 5 ** 100, 11 ** 500]))
    terms = st.tuples(rationals, rationals, st.sampled_from(["1", "u", "v", "u*v", "v^3"]))
    # n within the term bound C(n + t - 1, t - 1) <= 2000 (n <= 1998 and 61
    # for t = 2 and 3), lower for several terms to keep the products small
    powers = st.lists(terms, min_size=1, max_size=3).flatmap(
        lambda ts: st.tuples(st.just(ts), st.integers(0, (500, 60, 24)[len(ts) - 1])))
    parsed = []

    def check(power, over_i):
        ts, n = power
        field = Qi if over_i else QQ
        base = " + ".join(f"({re} + {im}*i)*{m}" if over_i else f"{re}*{m}"
                          for re, im, m in ts)
        try:
            p = parse_poly(f"({base})^{n}", UV, field)
        except ParseError:
            return
        assert p == parse_poly(base, UV, field) ** n
        parsed.append(n)

    run = hyp.given(powers, st.booleans())(check)
    hyp.settings(max_examples=200, deadline=None, database=None, derandomize=True)(run)()
    assert len(parsed) >= 50
