"""Command-line interface: analyze, batch, selftest."""

from __future__ import annotations

import argparse
import json
import os
import sys

from .corpus import TRIPLE_POINT_MATRIX, corpus, expected_invariants
from .germfile import GermFileError, load_germ_file
from .germs import AnalysisError, OverrideRequired
from .localring import ResourceExceeded
from .signature import SignatureReport, analyze, signature_of_form

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_OVERRIDES = 2


def render_report(report: SignatureReport, fmt: str = "text") -> str:
    if fmt == "json":
        return json.dumps(report.to_dict(), indent=2, sort_keys=False) + "\n"
    d = report.to_dict()
    lines = [f"germ: {d['name'] or '(unnamed)'}", f"corank: {d['corank']}"]
    lines.append(f"cross-cap number C: {d['C']}")
    lines.append(f"triple point number T: {d['T']}")
    lines.append("double curve components:")
    for i, c in enumerate(d["components"]):
        twist = c["twist"] if c["twist"] == "twisted" else \
            f"untwisted, partner {c['partner']}"
        lines.append(f"  [{i}] {c['equation']}  ({twist})")
    n = len(d["components"])
    if n > 1:
        lines.append("intersection table:")
        for row in d["intersection_table"]:
            lines.append("  " + "  ".join(f"{x:3d}" for x in row))
    for v in d["vertical_indices"]:
        lines.append(
            f"vertical index ({v['provenance']}): pair {v['pair']} -> {v['value']}")
    lines.append(f"intersection form: {d['intersection_form']}")
    lines.append(f"mu(D): {d['mu_D']}   mu_I: {d['mu_I']}   b2: {d['b2']}")
    lines.append(f"sigma(X): {d['sigma_X']}")
    lines.append(f"sigma(F) = sigma(X) + T - C: {d['sigma_F']}")
    lines.append("checks:")
    for c in d["checks"]:
        lines.append(f"  {c['name']}: {c['status']} ({c['detail']})")
    return "\n".join(lines) + "\n"


def _expected_checks(report: SignatureReport, expected: dict) -> None:
    got = {"signature": report.sigma_F, "C": report.C, "T": report.T}
    for key, want in expected.items():
        status = "pass" if got[key] == want else "fail"
        report.checks.append(
            (f"expected-{key}", status, f"expected {want}, computed {got[key]}"))


def run_analyze(path: str, fmt: str = "text", out=None) -> int:
    try:
        germ, expected = load_germ_file(path)
        report = analyze(germ)
    except OverrideRequired as exc:
        print(f"{path}: overrides required: {exc}", file=sys.stderr)
        return EXIT_OVERRIDES
    except (GermFileError, AnalysisError, ResourceExceeded, ValueError,
            OSError) as exc:
        print(f"{path}: error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    _expected_checks(report, expected)
    text = render_report(report, fmt)
    if out:
        try:
            with open(out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            print(f"{out}: error: {exc}", file=sys.stderr)
            return EXIT_ERROR
    else:
        sys.stdout.write(text)
    return EXIT_OK if report.ok() else EXIT_ERROR


def run_batch(directory: str, fmt: str = "text") -> int:
    try:
        names = os.listdir(directory)
    except OSError as exc:
        print(f"{directory}: error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    paths = sorted(os.path.join(directory, f) for f in names if f.endswith(".germ"))
    if not paths:
        print(f"{directory}: no .germ files found", file=sys.stderr)
        return EXIT_ERROR
    codes = []
    for p in paths:
        print(f"=== {p} ===")
        codes.append(run_analyze(p, fmt))
    counts = ", ".join(f"{codes.count(rc)} exit {rc}" for rc in sorted(set(codes)))
    print(f"{len(codes)} germ files: {counts}")
    return max(codes)


def run_selftest(kmax: int = 5) -> int:
    if kmax < 5:
        print("selftest needs kmax >= 5", file=sys.stderr)
        return EXIT_ERROR
    try:
        germs = corpus(kmax)
    except ValueError as exc:  # a corpus germ past the parser's limits
        print(f"selftest: error: corpus(kmax={kmax}): {exc}", file=sys.stderr)
        return EXIT_ERROR
    failures = 0
    total = 0
    for germ in germs:
        total += 1
        try:
            report = analyze(germ)
        except (AnalysisError, OverrideRequired, ResourceExceeded) as exc:
            print(f"FAIL {germ.name}: {exc}")
            failures += 1
            continue
        _expected_checks(report, expected_invariants(germ.name))
        failed = [c for c in report.checks if c[1] == "fail"]
        if failed:
            print(f"FAIL {germ.name}: {failed}")
            failures += 1
        else:
            print(f"ok   {germ.name}: sigma(F) = {report.sigma_F}")
    total += 1
    sig = signature_of_form(TRIPLE_POINT_MATRIX)
    if sig == -1:
        print("ok   triple-point matrix: sigma = -1")
    else:
        print(f"FAIL triple-point matrix: sigma = {sig}")
        failures += 1
    print(f"{total - failures}/{total} passed")
    return EXIT_OK if failures == 0 else EXIT_ERROR


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(
        prog="milnorsig",
        description="Signature of the Milnor fiber of the image of a "
                    "finitely determined map germ (C^2,0) -> (C^3,0)")
    sub = ap.add_subparsers(dest="command", required=True)

    a = sub.add_parser("analyze", help="analyze one germ file")
    a.add_argument("file")
    a.add_argument("--format", choices=("text", "json"), default="text")
    a.add_argument("--out", default=None)

    b = sub.add_parser("batch", help="analyze every .germ file in a directory")
    b.add_argument("dir")
    b.add_argument("--format", choices=("text", "json"), default="text")

    s = sub.add_parser("selftest", help="run the built-in example corpus")
    s.add_argument("--kmax", type=int, default=5)

    args = ap.parse_args(argv)
    if args.command == "analyze":
        return run_analyze(args.file, args.format, args.out)
    if args.command == "batch":
        return run_batch(args.dir, args.format)
    return run_selftest(args.kmax)


if __name__ == "__main__":
    sys.exit(main())
