import json
import os
import subprocess
import sys

import pytest

import milnorsig
from milnorsig import cli
from milnorsig.cli import (EXIT_ERROR, EXIT_OK, EXIT_OVERRIDES, main,
                           render_report, run_analyze, run_batch, run_selftest)
from milnorsig.germfile import GermFileError, load_germ
from milnorsig.signature import analyze

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

    wrong_twist = tmp_path / "wrong_twist.germ"
    wrong_twist.write_text(
        '[germ]\nmap = ["u", "v^2", "v*(u^2 + v^2)*(u^2 + 4*v^2)"]\n'
        'field = "Q(i)"\n[overrides]\n'
        'components = ["u - i*v", "u + i*v", "u - 2*i*v", "u + 2*i*v"]\n'
        'twist = ["0:twisted", "1:twisted", "2:twisted", "3:twisted"]\n')
    assert run_analyze(str(wrong_twist)) == EXIT_ERROR
    assert "disagrees with v -> -v" in capsys.readouterr().err


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

    (tmp_path / "c.germ").write_text(
        S1_TEXT.replace("signature = -3", "signature = 0"))
    assert run_batch(str(tmp_path)) == EXIT_ERROR

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


def test_cli_import_stays_light():
    # dataclasses pulls in inspect, which adds several ms to every start-up
    src = os.path.dirname(os.path.dirname(milnorsig.__file__))
    code = ("import sys, milnorsig.cli; "
            "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, timeout=60,
                         env={**os.environ, "PYTHONPATH": src})
    assert out.stdout.strip() == "[]"
