"""Golden-output test: ``analyze(g).to_dict()`` for every germ of
``corpus(10)`` must match the checked-in snapshot byte for byte.

A change that is meant to leave every report unchanged (a refactor or a
speed-up) is checked against this file.  To re-record the snapshot after a
deliberate change of output, run from the repository root:

    PYTHONPATH=src python tests/test_golden.py --record
"""

import json
import os
import sys

from milnorsig.corpus import corpus
from milnorsig.signature import analyze

SNAPSHOT = os.path.join(os.path.dirname(__file__), "golden_corpus10.json")


def render_corpus() -> str:
    reports = [analyze(g).to_dict() for g in corpus(10)]
    return json.dumps(reports, indent=2) + "\n"


def test_corpus10_matches_snapshot():
    with open(SNAPSHOT, encoding="utf-8") as fh:
        expected = fh.read()
    assert render_corpus() == expected


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit("usage: python tests/test_golden.py --record")
    with open(SNAPSHOT, "w", encoding="utf-8") as fh:
        fh.write(render_corpus())
