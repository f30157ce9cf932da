import importlib.util
import pathlib
import time
from fractions import Fraction

import pytest

from milnorsig.corpus import corpus
from milnorsig.fields import QQ, FieldError, parse_field
from milnorsig.germfile import load_germ
from milnorsig.parser import ParseError, parse_poly
from milnorsig.poly import PolyError, format_poly
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
    assert parse_poly("u - -v", UV, QQ) == parse_poly("u + v", UV, QQ)


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
    # (9^500)^9 has 14,265 bits and passes the power bound; a product of two
    # has up to 28,530.  The bound is b_p + b_q + ceil(log2 min(t_p, t_q)).
    Qi = parse_field("Q(i)")
    for src, pos in (("(9^500)^9*(9^500)^9", 9), ("u*(9^500)^9*u*(9^500)^9*v", 13),
                     ("(9^500)^9*(u + v)*(9^500)^9", 17)):
        start = time.perf_counter()
        with pytest.raises(ParseError, match=rf"product may have coefficients above "
                                             rf"14284 bits \(at position {pos}\)"):
            parse_poly(src, UV, Qi)
        assert time.perf_counter() - start < 0.1, src
    # 7,132 + 7,132 bits plus 2 for min(3, 3) terms is 14,266: accepted
    half = f"({2 ** 7131}*u + v + 1)"
    p = parse_poly(f"{half}*{half}", UV, QQ)
    assert max(c.num[0].bit_length() for c in p.terms.values()) == 14263
    # 7,142 + 7,142 bits plus 1 for min(2, 2) terms is 14,285: refused
    half = f"({2 ** 7141}*u + v)"
    with pytest.raises(ParseError, match="product may have coefficients above"):
        parse_poly(f"{half}*{half}", UV, QQ)


def test_coefficient_bounds_count_the_reduction_by_the_minimal_polynomial():
    # a^2 = 2*10^100 adds up to 336 bits per product of irrational
    # coefficients: (u + a*v)^200 had coefficients of 33,320 bits against a
    # bound of 200 * (1 + 1)
    F = parse_field("Q[a]/(a^2 - 2*10^100)")
    assert F.reduction_bits == 2 + (2 * 10 ** 100).bit_length()
    for src, pos, what in (("(u + a*v)^200", 10, "power"),
                           ("(u + a*v)^42*(u + a*v)^42", 12, "product")):
        with pytest.raises(ParseError, match=rf"{what} may have coefficients above "
                                             rf"14284 bits \(at position {pos}\)"):
            parse_poly(src, UV, F)
    # 43 * 2 + 42 * 336 = 14,198 bits: accepted, with 7,003
    p = parse_poly("(u + a*v)^43", UV, F)
    assert max(x.bit_length() for c in p.terms.values() for x in (*c.num, c.den)) == 7003
    # a rational factor only scales coordinates: no reduction is counted
    assert parse_poly("(9^500)^9*a*u", UV, F) == parse_poly("a*u", UV, F).scale(9 ** 4500)
    assert QQ.reduction_bits == 0
    assert parse_field("Q(i)").reduction_bits == 3
    Qa = parse_field("Q[a]/(a^2 - 2)")
    # 61 * 2 + 60 * 4 bits
    assert len(parse_poly("(u + a*v)^61", UV, Qa).terms) == 62


def test_built_coefficients_are_refused_at_their_operator():
    # the bounds before expansion assume the summed products share a
    # denominator; these passed them and built coefficients of 18,729,
    # 14,495, 14,495 and 23,451 bits
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


# six terms with distinct prime denominators: each square's bound trips
# before it is formed; the power's own bound, n * (b + ceil(log2 t)) =
# 8 * (892 + 3), let it expand in full for 2 s before refusing it
SIX_TERM_POWER = ("(((1/3)^280)^2 + ((1/5)^191)^2*u + ((1/7)^158)^2*v"
                  " + ((1/11)^128)^2*u*v + ((1/13)^120)^2*u^2 + ((1/17)^109)^2*v^2)^8")


def test_power_is_refused_at_its_first_square_that_could_pass_the_bound():
    # ten terms with distinct prime denominators: the first square passes
    # its bound and is refused by the scan of what it built; the power's own
    # bound, 4 * (3,518 + 4), let it expand in full for 5 s
    ten_terms = ("(((1/3)^221)^10 + ((1/5)^151)^10*u + ((1/7)^125)^10*v"
                 " + ((1/11)^101)^10*u*v + ((1/13)^95)^10*u^2 + ((1/17)^86)^10*v^2"
                 " + ((1/19)^82)^10*u^2*v + ((1/23)^77)^10*u*v^2 + ((1/29)^72)^10*u^3"
                 " + ((1/31)^71)^10*v^3)^4")
    for src, pos, what in ((SIX_TERM_POWER, 115, "power may have"),
                           (ten_terms, 207, "power has")):
        start = time.perf_counter()
        with pytest.raises(ParseError, match=rf"{what} coefficients above 14284 bits "
                                             rf"\(at position {pos}\)"):
            parse_poly(src, UV, QQ)
        assert time.perf_counter() - start < 0.1, src


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
