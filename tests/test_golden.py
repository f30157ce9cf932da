"""Golden-output tests: ``analyze(g).to_dict()`` must match the checked-in
snapshots byte for byte, for every germ of ``corpus(10)``, for the germ
files in ``OVERRIDE_GERMS``, which take the override paths, and for the
target changes of ``corpus(8)`` and the ``FALLBACK_GERMS``, whose double
curve is a squarefree part, whose twist takes the involution step or whose
T takes the fallback; there a germ that is refused records the exception's
class and message instead of a report.

A change that is meant to leave every report unchanged (a refactor or a
speed-up) is checked against these files.  From the repository root,

    PYTHONPATH=src python tests/test_golden.py --check

exits non-zero when a snapshot differs, naming for each such file the first
germ whose report differs and its first differing key.  To re-record the
snapshots after a deliberate change of output, run

    PYTHONPATH=src python tests/test_golden.py --record
"""

import json
import os
import sys

from milnorsig.corpus import corpus
from milnorsig.germfile import load_germ
from milnorsig.germs import AnalysisError, Germ, OverrideRequired
from milnorsig.signature import analyze

HERE = os.path.dirname(__file__)
SNAPSHOT = os.path.join(HERE, "golden_corpus10.json")
OVERRIDE_SNAPSHOT = os.path.join(HERE, "golden_overrides.json")
TARGET_CHANGED_SNAPSHOT = os.path.join(HERE, "golden_target_changed.json")

OVERRIDE_GERMS = [
    # components and twist overrides; the pairs are listed out of index
    # order, and the report keeps file order (2+3 before 0+1)
    """\
[germ]
name = "fold-4-lines"
map = ["u", "v^2", "v*(u^2 + v^2)*(u^2 + 4*v^2)"]
field = "Q(i)"

[overrides]
components = ["u - i*v", "u + i*v", "u - 2*i*v", "u + 2*i*v"]
twist = ["3:untwisted-with:2", "1:untwisted-with:0"]
""",
    # a vertical-index override on the resultant route
    """\
[germ]
name = "H_2-vi"
map = ["u", "u*v + v^5", "v^3"]
field = "Q(zeta3)"

[overrides]
vertical_indices = ["0+1:-7"]
""",
    # a double_curve override, checked against the divided-difference resultant
    """\
[germ]
name = "H_2-curve"
map = ["u", "u*v + v^5", "v^3"]
field = "Q(zeta3)"

[overrides]
double_curve = "2*u^2 + 2*u*v^4 + 2*v^8"
""",
    # components and twist overrides on the resultant route
    """\
[germ]
name = "H_2-twist"
map = ["u", "u*v + v^5", "v^3"]
field = "Q(zeta3)"

[overrides]
components = ["u - zeta3*v^4", "u + (1 + zeta3)*v^4"]
twist = ["0:untwisted-with:1"]
""",
]

# fold germs whose resultant R is not certified by its own factors: R with a
# squared unit factor, one reduced branch of three terms, a unit factor, and
# a squared unit factor with two branches
FALLBACK_GERMS = [
    ("sextic-squared-unit", "v*(u - v^2)*(1 + u + v^2)^2", "Q(i)"),
    ("three-term-branch", "v*(u^3 + u^2*v^2 + v^4)", "Q"),
    ("unit-factor", "v*(u + v^2)*(1 + u)", "Q"),
    ("two-branches-squared-unit", "v*(u^2 + v^2)*(1 - u)^2", "Q(i)"),
]


def target_changed(f):
    """f under the target changes (X, Y, Z) -> (X, Y + X^2, Z + XY) and
    (X, Y, Z) -> (X, Z + Y, 3Y - Z); its double curve stays the same."""
    X, Y, Z = f.components
    return [Germ((X, Y + X * X, Z + X * Y), f.field, f"{f.name} (X, Y + X^2, Z + XY)"),
            Germ((X, Z + Y, Y.scale(3) - Z), f.field, f"{f.name} (X, Z + Y, 3Y - Z)")]


def target_changed_corpus8():
    return [g for f in corpus(8) if f.corank == 1 for g in target_changed(f)]


def _render(germs) -> str:
    return json.dumps([analyze(g).to_dict() for g in germs], indent=2) + "\n"


def _report_or_refusal(g):
    try:
        return analyze(g).to_dict()
    except (AnalysisError, OverrideRequired) as exc:
        return {"name": g.name, "error": type(exc).__name__, "message": str(exc)}


def render_corpus() -> str:
    return _render(corpus(10))


def render_overrides() -> str:
    return _render(load_germ(text)[0] for text in OVERRIDE_GERMS)


def render_target_changed() -> str:
    germs = target_changed_corpus8() + [
        load_germ(f'[germ]\nname = "{name}"\nmap = ["u", "v^2", "{f3}"]\n'
                  f'field = "{field}"\n')[0] for name, f3, field in FALLBACK_GERMS]
    return json.dumps([_report_or_refusal(g) for g in germs], indent=2) + "\n"


def _read(path) -> str:
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def test_corpus10_matches_snapshot():
    assert render_corpus() == _read(SNAPSHOT)


def test_override_germs_match_snapshot():
    assert render_overrides() == _read(OVERRIDE_SNAPSHOT)


def test_target_changed_and_fallback_germs_match_snapshot():
    assert render_target_changed() == _read(TARGET_CHANGED_SNAPSHOT)


def first_difference(rendered: str, stored: str) -> str:
    """Where two snapshots first differ: the first germ whose report
    differs, by index and name, and its first differing key."""
    new, old = json.loads(rendered), json.loads(stored)
    for i, (a, b) in enumerate(zip(new, old)):
        if a != b:
            key = next(k for k in list(a) + list(b) if a.get(k) != b.get(k))
            return f"germ {i} ({a.get('name', b.get('name'))!r}), key {key!r}"
    if len(new) != len(old):
        return f"{len(new)} reports instead of {len(old)}"
    return "formatting only"


def test_first_difference_names_the_germ_and_key():
    stored = _read(OVERRIDE_SNAPSHOT)
    reports = json.loads(stored)
    key = list(reports[2])[-1]
    reports[2][key] = "changed"
    assert first_difference(json.dumps(reports, indent=2) + "\n", stored) == \
        f"germ 2 ('H_2-curve'), key {key!r}"
    assert first_difference(json.dumps(reports[:2]), stored) == "2 reports instead of 4"
    assert first_difference(json.dumps(json.loads(stored)), stored) == "formatting only"


if __name__ == "__main__":
    if sys.argv[1:] not in (["--record"], ["--check"]):
        sys.exit("usage: python tests/test_golden.py --record | --check")
    differ = []
    for path, render in ((SNAPSHOT, render_corpus), (OVERRIDE_SNAPSHOT, render_overrides),
                         (TARGET_CHANGED_SNAPSHOT, render_target_changed)):
        rendered = render()
        if sys.argv[1] == "--record":
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(rendered)
        elif rendered != _read(path):
            differ.append(f"{os.path.basename(path)}: "
                          f"{first_difference(rendered, _read(path))}")
    if differ:
        sys.exit("reports differ from " + "; ".join(differ))
