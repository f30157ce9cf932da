import json
import os
import re
import subprocess
import sys

import pytest

import milnorsig
from milnorsig import cli, localring
from milnorsig.cli import (EXIT_ERROR, EXIT_OK, EXIT_OVERRIDES, main,
                           render_report, run_analyze, run_batch, run_selftest)
from milnorsig.corpus import corank2
from milnorsig.fields import FieldError
from milnorsig.germfile import GermFileError, load_germ
from milnorsig.localring import ResourceExceeded
from milnorsig.parser import ParseError
from milnorsig.poly import PolyError
from milnorsig.signature import analyze
from test_parser import SIX_TERM_POWER

S1_TEXT = """\
# a simple fold germ
[germ]
name = "S_1"
map = ["u", "v^2", "v^3 + u^2*v"]
field = "Q(i)"

[expected]
signature = -3
C = 2
T = 0
"""

CORANK2_TEXT = """\
[germ]
name = "corank-2"
map = ["u^2", "v^2", "u^3 + v^3 + u*v"]
field = "Q(zeta3)"

[overrides]
double_curve = "(u + v^2)*(u^2 + v)*(u + v)*(u + zeta3*v)*(u + zeta3^2*v)"
components = ["u + v^2", "u^2 + v", "u + v", "u + zeta3*v", "u + zeta3^2*v"]
twist = ["0:twisted", "1:twisted", "2:twisted", "3:twisted", "4:twisted"]
T = 1

[expected]
signature = -2
"""


def test_load_germ():
    germ, expected = load_germ(S1_TEXT)
    assert germ.name == "S_1"
    assert expected == {"signature": -3, "C": 2, "T": 0}
    assert str(germ.components[1]) == "v^2"


def test_load_germ_with_overrides():
    germ, expected = load_germ(CORANK2_TEXT)
    assert germ.overrides.T == 1
    assert len(germ.overrides.components) == 5
    assert germ.overrides.twist == [(i, i) for i in range(5)]
    assert expected == {"signature": -2}
    report = analyze(germ)
    assert report.sigma_F == -2


def test_load_germ_errors():
    with pytest.raises(GermFileError):
        load_germ("map = [\"u\"]\n")  # key outside a section
    with pytest.raises(GermFileError):
        load_germ("[germ]\nmap = [\"u\", \"v^2\"]\nfield = \"Q\"\n")
    with pytest.raises(GermFileError):
        load_germ("[germ]\nfield = \"Q\"\n")
    with pytest.raises(GermFileError):
        load_germ(S1_TEXT + "\n[expected]\nsignature = -3\n")  # duplicate section
    with pytest.raises(GermFileError):
        load_germ(S1_TEXT.replace("T = 0", "bogus = 1"))
    with pytest.raises(GermFileError):
        load_germ(S1_TEXT.replace('"v^2"', "v^2"))  # unquoted value
    with pytest.raises(GermFileError):  # (4, 4) is a twisted component
        load_germ(CORANK2_TEXT.replace('"4:twisted"', '"4:untwisted-with:4"'))


def test_hash_inside_quotes_is_kept():
    # each line was cut at its first '#', so name = "S#1" exited 1 with
    # "bad value for 'name': unterminated string literal"
    text = (S1_TEXT.replace('name = "S_1"', 'name = "S#1"   # the first S_k')
            .replace('field = "Q(i)"', 'field = "Q(i)"  # for the branches u -+ i*v')
            .replace("[expected]", "[expected]  # checked against the report")
            .replace("T = 0", "T = 0 # no triple point"))
    germ, expected = load_germ(text)
    assert germ.name == "S#1"
    assert str(germ.field) == "Q(i)"
    assert expected == {"signature": -3, "C": 2, "T": 0}
    # a '#' in a key is still no key
    with pytest.raises(GermFileError, match="line 9: expected key = value"):
        load_germ(text.replace("C = 2", "foo # = 3"))


def test_T_override_must_be_a_non_negative_integer():
    # T = -1 on H_2 gave sigma_F = -4 with every check passing
    h2 = ('[germ]\nmap = ["u", "u*v + v^5", "v^3"]\nfield = "Q(zeta3)"\n'
          "[overrides]\nT = {}\n")
    assert load_germ(h2.format(0))[0].overrides.T == 0
    for bad in ("-1", '"1"', "1.5"):
        with pytest.raises(GermFileError, match="non-negative integer"):
            load_germ(h2.format(bad))


def test_vertical_index_override_parsing():
    germ, _ = load_germ(CORANK2_TEXT)
    assert not germ.overrides.vertical_indices
    text = CORANK2_TEXT.replace(
        'T = 1',
        'T = 1\nvertical_indices = ["0:-2", "1:-2", "2:-2", "3:-2", "4:-2"]')
    germ, _ = load_germ(text)
    assert germ.overrides.vertical_indices == {str(i): -2 for i in range(5)}


def test_render_json_roundtrip():
    germ, _ = load_germ(S1_TEXT)
    report = analyze(germ)
    blob = render_report(report, "json")
    assert json.loads(blob) == report.to_dict()
    d = report.to_dict()
    for key in ("name", "corank", "C", "T", "mu_D", "mu_I", "b2", "components",
                "intersection_table", "vertical_indices", "intersection_form",
                "sigma_X", "sigma_F", "checks"):
        assert key in d, key


def test_render_text_mentions_invariants():
    germ, _ = load_germ(S1_TEXT)
    text = render_report(analyze(germ), "text")
    assert "sigma(F) = sigma(X) + T - C: -3" in text
    assert "cross-cap number C: 2" in text


def test_run_analyze_exit_codes(tmp_path, capsys):
    good = tmp_path / "s1.germ"
    good.write_text(S1_TEXT)
    assert run_analyze(str(good)) == EXIT_OK

    wrong = tmp_path / "wrong.germ"
    wrong.write_text(S1_TEXT.replace("signature = -3", "signature = 7"))
    assert run_analyze(str(wrong)) == EXIT_ERROR
    out = capsys.readouterr().out
    assert "expected-signature: fail" in out

    needs = tmp_path / "needs.germ"
    needs.write_text("\n".join(CORANK2_TEXT.splitlines()[:4]) + "\n")
    assert run_analyze(str(needs)) == EXIT_OVERRIDES

    bad = tmp_path / "bad.germ"
    bad.write_text("[germ]\nmap = [\"u\", \"v\"]\nfield = \"Q\"\n")
    assert run_analyze(str(bad)) == EXIT_ERROR

    self_paired = tmp_path / "self_paired.germ"
    self_paired.write_text(
        CORANK2_TEXT.replace('"4:twisted"', '"4:untwisted-with:4"'))
    assert run_analyze(str(self_paired)) == EXIT_ERROR
    assert "untwisted pair needs two components" in capsys.readouterr().err

    assert run_analyze(str(tmp_path / "missing.germ")) == EXIT_ERROR

    negative_T = tmp_path / "negative_T.germ"
    negative_T.write_text('[germ]\nmap = ["u", "u*v + v^5", "v^3"]\n'
                          'field = "Q(zeta3)"\n[overrides]\nT = -1\n')
    assert run_analyze(str(negative_T)) == EXIT_ERROR
    assert "non-negative integer" in capsys.readouterr().err

    # f2 and f3 affine in v leave P and Q free of v2; the cross-cap
    # criterion stops such a germ before the double-point resultant
    affine = tmp_path / "affine.germ"
    affine.write_text('[germ]\nmap = ["u", "u*v", "u^2 + u^3*v"]\nfield = "Q"\n')
    assert run_analyze(str(affine)) == EXIT_ERROR
    assert "not finitely determined along the cross-cap criterion" in capsys.readouterr().err
    # all three Jacobian minors vanish: the zero ideal has infinite colength
    flat = tmp_path / "flat.germ"
    flat.write_text('[germ]\nmap = ["u", "u^2", "u^3"]\nfield = "Q"\n')
    assert run_analyze(str(flat)) == EXIT_ERROR
    assert "not finitely determined along the cross-cap criterion" in capsys.readouterr().err

    wrong_twist = tmp_path / "wrong_twist.germ"
    wrong_twist.write_text(
        '[germ]\nmap = ["u", "v^2", "v*(u^2 + v^2)*(u^2 + 4*v^2)"]\n'
        'field = "Q(i)"\n[overrides]\n'
        'components = ["u - i*v", "u + i*v", "u - 2*i*v", "u + 2*i*v"]\n'
        'twist = ["0:twisted", "1:twisted", "2:twisted", "3:twisted"]\n')
    assert run_analyze(str(wrong_twist)) == EXIT_ERROR
    assert "disagrees with the divided-difference partners" in capsys.readouterr().err


CROSS_CAP_TEXT = '[germ]\nmap = ["u", "v^2", "u*v"]\nfield = "Q"\n'
DEEP = "(" * 3000 + "u" + ")" * 3000


@pytest.mark.parametrize("old, new, error, message", [
    pytest.param(*case, id=case[3].split()[0]) for case in [
        ('"u*v"]', '5]', GermFileError, "map must be a list of strings"),
        ('"Q"', '3', GermFileError, "field must be a string"),
        ('"Q"\n', '"Q"\nname = [1]\n', GermFileError, "name must be a string"),
        ('"Q"\n', '"Q"\n[overrides]\ndouble_curve = 3\n', GermFileError,
         "double_curve must be a string"),
        ('"Q"\n', '"Q"\n[overrides]\ncomponents = "u"\n', GermFileError,
         "components must be a list of strings"),
        ('"Q"\n', '"Q"\n[overrides]\ntwist = [1]\n', GermFileError,
         "twist must be a list of strings"),
        ('"Q"\n', '"Q"\n[overrides]\nvertical_indices = [3]\n', GermFileError,
         "vertical_indices must be a list of strings"),
        ('"Q"\n', '"Q"\n[overrides]\nT = True\n', GermFileError,
         "T override must be a non-negative integer"),
        ('"Q"\n', '"Q"\n[expected]\nC = True\n', GermFileError,
         "expected C must be an integer"),
        ('"u*v"', f'"{DEEP}"', ParseError, "nested too deeply"),
        ('"u*v"', '"u*v^501"', ParseError, "exponent above the limit 500 (at position 4)"),
        ('"u*v"', f'"{"9" * 5000}*u*v"', ParseError,
         "integer literal of 5000 digits is too long (at position 0)"),
        ('"u*v"', '"(u + v + 1)^62"', ParseError,
         "power of a 3-term polynomial may exceed 2000 terms (at position 12)"),
    ]
] + [
    pytest.param('"Q"\n', f'"Q"\n[overrides]\n{entry}\n', GermFileError, message,
                 id=id_)
    for id_, entry, message in [
        ("twist-index", 'twist = ["x:twisted"]', "bad twist entry 'x:twisted'"),
        ("vertical-index-value", 'vertical_indices = ["0+1:abc"]',
         "bad vertical_indices entry '0+1:abc'"),
        ("twist-index-digits", f'twist = ["{"9" * 5000}:twisted"]',
         "twist entry 0: a number of 5000 digits is too long"),
        ("vertical-index-digits", f'vertical_indices = ["0:-1", "0+1:{"9" * 5000}"]',
         "vertical_indices entry 1: a number of 5000 digits is too long"),
        # the second value of each of these replaced the first
        ("vertical-index-repeated", 'vertical_indices = ["0:-1", "0:-2"]',
         "vertical_indices entry 1 gives '0' a second value"),
        ("vertical-pair-repeated", 'vertical_indices = ["0+1:-7", "1+0:5"]',
         "vertical_indices entry 1 gives '0+1' a second value"),
        ("zero-component", 'components = ["0"]',
         "components override '0' is the zero polynomial"),
        ("zero-double-curve", 'double_curve = "0"',
         "double_curve override '0' is the zero polynomial"),
    ]])
def test_bad_values_exit_1(tmp_path, capsys, old, new, error, message):
    # each of these escaped run_analyze as a traceback, was accepted, or
    # was refused with a message from Python's internals
    _assert_refused(tmp_path, capsys, old, new, error, message)


def _assert_refused(tmp_path, capsys, old, new, error, message):
    assert CROSS_CAP_TEXT.count(old) == 1
    text = CROSS_CAP_TEXT.replace(old, new)
    with pytest.raises(error, match=re.escape(message)):
        load_germ(text)
    path = tmp_path / "bad.germ"
    path.write_text(text)
    assert run_analyze(str(path)) == EXIT_ERROR
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and "error:" in err[0] and message in err[0]


@pytest.mark.parametrize("entry, message", [
    pytest.param('twist = ["\u0663:twisted"]', "bad twist entry '\u0663:twisted'",
                 id="twist"),
    pytest.param('vertical_indices = ["0+\u0663:-2"]',
                 "bad vertical_indices entry '0+\u0663:-2'", id="vertical_indices"),
])
def test_indices_take_ascii_digits_only(entry, message):
    # an Arabic-Indic three was read as component 3
    with pytest.raises(GermFileError, match=re.escape(message)):
        load_germ(CROSS_CAP_TEXT + "[overrides]\n" + entry + "\n")


@pytest.mark.parametrize("new, message", [
    pytest.param('"Q"\nfeild = "Q(i)"\n', "unknown germ key 'feild'", id="feild"),
    pytest.param('"Q"\n[expect]\nC = 9\n', "unknown section 'expect'", id="expect"),
    pytest.param('"Q"\n[override]\nT = 5\n', "unknown section 'override'", id="override"),
])
def test_misspelled_sections_and_keys_exit_1(tmp_path, capsys, new, message):
    # each of these was dropped silently and the file analyzed with exit 0
    _assert_refused(tmp_path, capsys, '"Q"\n', new, GermFileError, message)


@pytest.mark.parametrize("gen", ["u", "v"])
def test_field_generator_named_u_or_v_exits_1(tmp_path, capsys, gen):
    # with the generator named v, the branches u -+ i*v of S_1 were reported
    # as u -+ v*v, which parse back to other curves
    _assert_refused(tmp_path, capsys, '"Q"', f'"Q[{gen}]/({gen}^2 + 1)"',
                    PolyError, "must not be named u or v")
    path = tmp_path / "s1.germ"
    path.write_text(S1_TEXT.replace("Q(i)", "Q[i]/(i^2 + 1)"))
    assert run_analyze(str(path), "json") == EXIT_OK
    assert json.loads(capsys.readouterr().out)["sigma_F"] == -3


def test_degree_1_field_exits_1(tmp_path, capsys):
    # Q[a]/(a - 3) was accepted as a field, and a germ file that used a
    # exited 1 with "unknown identifier 'a'"
    _assert_refused(tmp_path, capsys, '"u*v"]\nfield = "Q"',
                    '"a*u*v"]\nfield = "Q[a]/(a - 3)"', FieldError, 'write field = "Q"')


def test_byte_order_mark_is_read(tmp_path, capsys):
    # a file saved with a UTF-8 byte-order mark exited 1 with
    # "line 1: key outside any section"
    path = tmp_path / "s1.germ"
    path.write_bytes(S1_TEXT.encode("utf-8-sig"))
    assert run_analyze(str(path), "json") == EXIT_OK
    assert json.loads(capsys.readouterr().out)["sigma_F"] == -3


def test_reduction_budget_exits_1(tmp_path, capsys, monkeypatch):
    # the budget's error path: with no reduction step allowed, the first
    # normal form of the corank-2 germ raises ResourceExceeded
    monkeypatch.setattr(localring, "STEP_CAP", 0)
    message = "normal form exceeded the reduction budget"
    with pytest.raises(ResourceExceeded, match=message):
        analyze(corank2())
    path = tmp_path / "corank2.germ"
    path.write_text(CORANK2_TEXT)
    assert run_analyze(str(path)) == EXIT_ERROR
    captured = capsys.readouterr()
    err = captured.err.splitlines()
    assert len(err) == 1 and "error:" in err[0] and message in err[0]
    assert captured.out == ""


def test_filesystem_errors_exit_1(tmp_path, capsys):
    germ = tmp_path / "cc.germ"
    germ.write_text(CROSS_CAP_TEXT)
    missing = tmp_path / "missing"
    for argv in (["batch", str(missing)], ["batch", str(germ)],
                 ["analyze", str(germ), "--out", str(missing / "out.json")]):
        assert main(argv) == EXIT_ERROR, argv
        captured = capsys.readouterr()
        err = captured.err.splitlines()
        assert len(err) == 1 and "error:" in err[0], argv
        assert captured.out == "", argv


H2_HEAD = '[germ]\nmap = ["u", "u*v + v^5", "v^3"]\nfield = "Q(zeta3)"\n[overrides]\n'


def test_resultant_route_overrides_checked_by_the_route(tmp_path, capsys):
    # each override is refused by its own check, not by a later one
    comps = 'components = ["u - zeta3*v^4", "u + (1 + zeta3)*v^4"]\n'
    path = tmp_path / "g.germ"
    path.write_text(H2_HEAD + comps + 'twist = ["0:untwisted-with:1"]\n')
    assert run_analyze(str(path), "json") == EXIT_OK
    assert json.loads(capsys.readouterr().out)["sigma_F"] == 0
    cases = [
        # both twisted gave sigma_F = -1 with exit 0
        (H2_HEAD + comps + 'twist = ["0:twisted", "1:twisted"]\n',
         "twist override disagrees with the divided-difference partners"),
        # one of two branches; was refused as a parity violation
        (H2_HEAD + 'double_curve = "u - zeta3*v^4"\ntwist = ["0:twisted"]\n',
         "double_curve override is not the divided-difference curve"),
        # C_3 without its two u^2 -+ i*v branches; was refused by the sum rule
        ('[germ]\nmap = ["u", "v^2", "u*v^3 + u^3*v"]\nfield = "Q(i)"\n'
         '[overrides]\ndouble_curve = "u"\n',
         "double_curve override is not the divided-difference curve"),
    ]
    for text, message in cases:
        path.write_text(text)
        assert run_analyze(str(path)) == EXIT_ERROR, text
        assert message in capsys.readouterr().err, text


def test_failed_sum_rule_is_reported_and_exits_1(tmp_path):
    path, out = tmp_path / "g.germ", tmp_path / "report.json"
    path.write_text(H2_HEAD + 'vertical_indices = ["0+1:-6"]\n')
    assert run_analyze(str(path), "json", out=str(out)) == EXIT_ERROR
    checks = json.loads(out.read_text())["checks"]
    assert {"name": "sum-rule", "status": "fail",
            "detail": "sum of vertical indices -6 != -7"} in checks


# S_2 under v -> 2v + u: the factorizer cannot certify its one branch
S2_MOVED = ('[germ]\nmap = ["u", "u^2 + 4*u*v + 4*v^2", '
            '"u^4 + 2*u^3*v + u^3 + 6*u^2*v + 12*u*v^2 + 8*v^3"]\nfield = "Q(i)"\n')


def test_uncertified_factorization_asks_for_components(tmp_path, capsys):
    path = tmp_path / "g.germ"
    path.write_text(S2_MOVED)
    assert run_analyze(str(path)) == EXIT_OVERRIDES
    assert ("overrides required: cannot certify a factorization of "
            "u^2 + 4*u*v + 4*v^2 + u^3") in capsys.readouterr().err
    path.write_text(S2_MOVED + '[overrides]\ncomponents = ["u^2 + 4*u*v + 4*v^2 + u^3"]\n')
    assert run_analyze(str(path), "json") == EXIT_OK
    report = json.loads(capsys.readouterr().out)
    assert ({k: report[k] for k in ("sigma_F", "C", "T", "mu_D", "mu_I", "b2")}
            == {"sigma_F": -3, "C": 3, "T": 0, "mu_D": 2, "mu_I": 2, "b2": 7})


@pytest.mark.parametrize("text, message", [
    # asked for "double_curve/T overrides", although it had both
    pytest.param(CORANK2_TEXT.replace(
        'twist = ["0:twisted", "1:twisted", "2:twisted", "3:twisted", "4:twisted"]\n', ""),
        "corank-1 germ; supply the double_curve, twist and T overrides", id="corank-2"),
    pytest.param(CROSS_CAP_TEXT.replace('"u", "v^2"', '"v^2", "u"'),
                 "re-enter the germ with f1 = u or supply the double_curve, twist "
                 "and T overrides", id="f1-not-u"),
])
def test_missing_multipoint_data_names_every_override(tmp_path, capsys, text, message):
    path = tmp_path / "g.germ"
    path.write_text(text)
    assert run_analyze(str(path)) == EXIT_OVERRIDES
    assert message in capsys.readouterr().err


def test_override_components_that_miss_the_origin_exit_1(tmp_path, capsys):
    # 1 + u divides the double curve but misses the origin; it was reported
    # as a sixth, twisted branch with exit 0
    text = (CORANK2_TEXT
            .replace('double_curve = "', 'double_curve = "(1 + u)*')
            .replace('"u + zeta3^2*v"]', '"u + zeta3^2*v", "1 + u"]')
            .replace('"4:twisted"]', '"4:twisted", "5:twisted"]'))
    assert text.count("1 + u") == 2 and "5:twisted" in text
    path = tmp_path / "g.germ"
    path.write_text(text)
    assert run_analyze(str(path)) == EXIT_ERROR
    assert "override components [5] miss the origin" in capsys.readouterr().err


@pytest.mark.parametrize("double_curve, message", [
    pytest.param("(u + v)^2*(u^2 + v)", "double_curve override is not squarefree",
                 id="square"),
    pytest.param("1 + u", "no double-curve component passes through the origin",
                 id="unit"),
])
def test_double_curve_override_refusals_exit_1(tmp_path, capsys, double_curve, message):
    # the corank-2 germ with its double_curve override replaced, and no
    # components or twist overrides, so that the curve itself is factored
    text = "".join(line for line in CORANK2_TEXT.splitlines(keepends=True)
                   if not line.startswith(("double_curve", "components", "twist")))
    text = text.replace("[overrides]\n", f'[overrides]\ndouble_curve = "{double_curve}"\n')
    path = tmp_path / "g.germ"
    path.write_text(text)
    assert run_analyze(str(path)) == EXIT_ERROR
    captured = capsys.readouterr()
    err = captured.err.splitlines()
    assert len(err) == 1 and "error:" in err[0] and message in err[0]
    assert captured.out == ""


def test_power_coefficient_bound_exits_1(tmp_path, capsys):
    # exited 1 with Python's own "Exceeds the limit (4300 digits)" while the
    # factorization refusal formatted the double curve
    _assert_refused(tmp_path, capsys, '"u*v"', '"v^3 + (9^500)^10*u^2*v"', ParseError,
                    "power has coefficients above 14284 bits (at position 14)")


def test_power_refused_at_a_square_exits_1(tmp_path, capsys):
    _assert_refused(tmp_path, capsys, '"u*v"', f'"{SIX_TERM_POWER}"', ParseError,
                    "power has coefficients above 14284 bits (at position 115)")


def test_product_coefficient_bound_exits_1(tmp_path, capsys):
    # each power has 14,265 bits, under the bound; their product's 28,530
    # made the CLI exit 1 with Python's own "Exceeds the limit (4300 digits)"
    _assert_refused(tmp_path, capsys, '"u*v"', '"v^3 + (9^500)^9*(9^500)^9*u^2*v"',
                    ParseError,
                    "product has coefficients above 14284 bits (at position 15)")


def test_sum_coefficient_bound_exits_1(tmp_path, capsys):
    # the two u^2*v coefficients, of 6,990 and 7,505 bits, add up to one of
    # 14,495: the CLI exited 1 with Python's own "Exceeds the limit (4300
    # digits)" while it reported the germ
    _assert_refused(tmp_path, capsys, '"u*v"',
                    '"v^3 + ((1/3)^490)^9*u^2*v - ((1/5)^404)^8*u^2*v"', ParseError,
                    "sum has coefficients above 14284 bits (at position 26)")


def test_fuzzed_germ_files_raise_only_documented_errors():
    """Germ-file text from section headers, every key, literals of each type
    ast.literal_eval reads and 5,000-digit runs: loading succeeds or raises
    GermFileError, ParseError, FieldError or PolyError."""
    hyp = pytest.importorskip("hypothesis")
    st = hyp.strategies
    digits = "9" * 5000
    good = st.sampled_from(["u", "v^2", "u*v", "v^3 + u^2*v", "u^2 + v^2",
                            "u^2 - v^3"]).map(repr)
    polys = st.one_of(good, st.sampled_from(["0", "1 + u", "i*u", "a*v", "zeta3*u",
                                             f"{digits}*u", f"u/{digits}", "(u",
                                             "u^501", "w", ""]).map(repr))
    entries = st.sampled_from(["0:twisted", "0:untwisted-with:1", "1:untwisted-with:1",
                               "0+1:-2", "0:1", f"{digits}:twisted", f"0+1:{digits}",
                               "x"]).map(repr)
    fields = st.one_of(
        st.sampled_from(["Q", "Q(i)", "Q(zeta3)", "Q[a]/(a^2 + 1)"]),
        st.sampled_from(["Q[u]/(u^2 + 1)", "Q[a]/(a^2 - 1)", "Q[a]/(a^5 + a + 1)", "R",
                         f"Q[a]/(a^2 + {digits})"])).map(repr)
    scalars = st.sampled_from(["0", "1", "-1", "3", digits, f"-{digits}", "1.5", "1e999",
                               "1j", "True", "None", "...", "b'u'", "{1: 2}", "{1}", "()",
                               "[]", "[1]", '("u", "v^2", "u*v")', "[", "u"])
    lists = st.lists(st.one_of(polys, entries, scalars), max_size=4).map(
        lambda xs: "[" + ", ".join(xs) + "]")
    values = st.one_of(polys, entries, fields, scalars, lists)
    keys = st.sampled_from(["map", "field", "name", "double_curve", "components", "twist",
                            "vertical_indices", "T", "signature", "C", "bogus"])
    overrides = st.lists(st.one_of(
        st.builds("double_curve = {}".format, polys),
        st.builds("components = [{}]".format, polys),
        st.builds("twist = [{}]".format, entries),
        st.builds("vertical_indices = [{}]".format, entries),
        st.builds("T = {}".format, scalars)), max_size=4,
        unique_by=lambda line: line.split(" =")[0]).map(
            lambda ls: "\n".join(["[overrides]", *ls]))
    lines = st.one_of(
        st.sampled_from(["[germ]", "[overrides]", "[expected]", "[other]", "# note", "",
                         "no value", "= 1"]),
        st.builds("{} = {}".format, keys, values))
    germ = st.builds("[germ]\nmap = [{}, {}, {}]\nfield = {}".format,
                     good, good, good, fields)
    texts = st.builds(lambda *parts: "\n".join([*parts[:2], *parts[2]]),
                      st.one_of(germ, st.just("")), st.one_of(overrides, st.just("")),
                      st.one_of(st.just([]), st.lists(lines, max_size=6)))
    loaded = []

    def check(text):
        try:
            loaded.append(load_germ(text)[0])
        except (GermFileError, ParseError, FieldError, PolyError):
            pass

    run = hyp.given(texts)(check)
    hyp.settings(max_examples=1000, deadline=None, database=None, derandomize=True)(run)()
    # the text reaches a loaded germ, some with overrides, not only the refusals
    assert len(loaded) >= 150
    assert sum(any(v not in (None, {}) for v in vars(g.overrides).values())
               for g in loaded) >= 5


def test_run_analyze_out_file(tmp_path):
    src = tmp_path / "s1.germ"
    src.write_text(S1_TEXT)
    dest = tmp_path / "report.json"
    assert main(["analyze", str(src), "--format", "json",
                 "--out", str(dest)]) == EXIT_OK
    data = json.loads(dest.read_text())
    assert data["sigma_F"] == -3
    assert data["C"] == 2 and data["T"] == 0


def test_run_batch(tmp_path, capsys):
    (tmp_path / "a.germ").write_text(S1_TEXT)
    (tmp_path / "b.germ").write_text(CORANK2_TEXT)
    assert run_batch(str(tmp_path)) == EXIT_OK
    out = capsys.readouterr().out
    assert out.index("a.germ") < out.index("b.germ")
    assert out.splitlines()[-1] == "2 germ files: 2 exit 0"

    (tmp_path / "c.germ").write_text(
        S1_TEXT.replace("signature = -3", "signature = 0"))
    assert run_batch(str(tmp_path)) == EXIT_ERROR
    assert capsys.readouterr().out.splitlines()[-1] == "3 germ files: 2 exit 0, 1 exit 1"

    # a file that cannot be read is reported, and the others still are; the
    # exit code is the worst one, and the last line counts every code
    (tmp_path / "b2.germ").write_text(CROSS_CAP_TEXT.replace('"Q"', "3"))
    (tmp_path / "d.germ").write_text("\n".join(CORANK2_TEXT.splitlines()[:4]) + "\n")
    assert run_batch(str(tmp_path)) == EXIT_OVERRIDES
    captured = capsys.readouterr()
    assert [line for line in captured.out.splitlines() if line.startswith("===")] == [
        f"=== {tmp_path / name} ==="
        for name in ("a.germ", "b.germ", "b2.germ", "c.germ", "d.germ")]
    assert "sigma(F) = sigma(X) + T - C: -3" in captured.out
    assert captured.out.splitlines()[-1] == "5 germ files: 2 exit 0, 2 exit 1, 1 exit 2"
    assert captured.err.count("error:") == 1 and "b2.germ" in captured.err

    empty = tmp_path / "empty"
    empty.mkdir()
    assert run_batch(str(empty)) == EXIT_ERROR


def _wrong_signature_for(monkeypatch, name):
    real = cli.expected_invariants

    def patched(germ_name):
        want = real(germ_name)
        if germ_name == name:
            want = dict(want, signature=want["signature"] + 1)
        return want

    monkeypatch.setattr(cli, "expected_invariants", patched)


def test_run_selftest(capsys, monkeypatch):
    rc = run_selftest(5)
    lines = capsys.readouterr().out.splitlines()
    assert lines[-1] == "20/20 passed"
    assert rc == EXIT_OK
    assert all(line.startswith("ok") for line in lines[:-1])

    # a real mismatch is still caught, and only on that row
    _wrong_signature_for(monkeypatch, "H_3")
    rc = run_selftest(5)
    lines = capsys.readouterr().out.splitlines()
    assert rc == EXIT_ERROR
    fails = [line for line in lines if line.startswith("FAIL")]
    assert len(fails) == 1 and fails[0].startswith("FAIL H_3:")
    assert lines[-1] == "19/20 passed"

    assert run_selftest(3) == EXIT_ERROR  # kmax too small


def test_main_selftest_kmax(capsys, monkeypatch):
    assert main(["selftest", "--kmax", "5"]) == EXIT_OK
    lines = capsys.readouterr().out.splitlines()
    assert lines[-1] == "20/20 passed"
    assert all(line.startswith("ok") for line in lines[:-1])

    _wrong_signature_for(monkeypatch, "S_2")
    assert main(["selftest", "--kmax", "5"]) == EXIT_ERROR
    fails = [line for line in capsys.readouterr().out.splitlines()
             if line.startswith("FAIL")]
    assert len(fails) == 1 and fails[0].startswith("FAIL S_2:")


def test_main_selftest_kmax_10(capsys):
    # the acceptance run of the whole corpus at kmax 10
    assert main(["selftest", "--kmax", "10"]) == EXIT_OK
    lines = capsys.readouterr().out.splitlines()
    assert lines[-1] == "40/40 passed"
    assert all(line.startswith("ok") for line in lines[:-1])


def test_selftest_corpus_past_the_parser_limits_exits_1(capsys):
    # H_168 needs v^503, past the exponent limit 500: this was a ParseError
    # traceback
    assert main(["selftest", "--kmax", "168"]) == EXIT_ERROR
    captured = capsys.readouterr()
    err = captured.err.splitlines()
    assert len(err) == 1 and "error:" in err[0] and "exponent above the limit 500" in err[0]
    assert captured.out == ""


def test_cli_import_stays_light():
    # dataclasses pulls in inspect, which adds several ms to every start-up
    src = os.path.dirname(os.path.dirname(milnorsig.__file__))
    # the runtime is stdlib-only: analyzing a germ imports nothing else
    code = ("import sys, milnorsig.cli; "
            "print(sorted({'dataclasses', 'inspect'} & set(sys.modules))); "
            "from milnorsig.corpus import cross_cap; "
            "from milnorsig.signature import analyze; "
            "assert analyze(cross_cap()).ok(); "
            "print(sorted({m.partition('.')[0] for m in sys.modules} "
            "- set(sys.stdlib_module_names) - {'milnorsig', '__main__'}))")
    # -S: no site hooks, so every module imported is one the run needed
    out = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True,
                         text=True, check=True, timeout=60,
                         env={**os.environ, "PYTHONPATH": src})
    assert out.stdout.split() == ["[]", "[]"]
