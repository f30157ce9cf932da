"""Benchmark for milnorsig: seeded germ-file workloads through the CLI's
analyze path, with an outside-in per-layer trace.

    python3 perfbench/run.py --workload fold-mora --seed 1 --seconds 40 --trace 0

Run from the root of a source checkout; the package is imported from
``src``.  The seed generates the workload's germ files (see germgen.py)
under ``perfbench/_work``.  Each germ goes through
``milnorsig.cli.run_analyze(path, "json", out=...)`` (load, analyze, render,
write), closed loop, one germ at a time, in this single process and thread.
Passes over the workload repeat until ``--seconds`` is used up.  Every
output is checked against the golden invariants in golden.json, recorded
from unscaled inputs with ``--record-golden``.

``--trace 0`` prints the end-to-end metrics.  Their times are scaled to a
reference machine speed (see REFERENCE_S); the unscaled times are printed
on the line before the result.  ``--trace 1`` alternates untraced and
traced passes and prints the per-layer metrics of tracer.py, unscaled.
The last line of standard output is one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.

Self-tests: python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import time
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(HERE, "_work")
GOLDEN = os.path.join(HERE, "golden.json")
sys.path.insert(0, HERE)

import germgen  # noqa: E402
import tracer as tracing  # noqa: E402

# A germ's latency is the median of its latencies over the run's untraced
# passes; germ_ms_p50 and germ_ms_tail are percentiles of those per-germ
# latencies.  Percentiles of the raw samples would sit on the boundary
# between two germs' clusters and jump from one germ to the next as the
# number of passes in a run changes.  A run makes at least MIN_PASSES
# passes, even past --seconds.
TAIL_PERCENTILE = 90
MIN_PASSES = 3
HARD_CAP_S = 150

# On a shared host the processor's speed drifts by tens of percent within
# seconds and by up to twofold over minutes, more than any bound worth
# setting, so raw times of runs a few minutes apart are not comparable.
# Between the germs of untraced passes the run times reference_work, which
# calls nothing in milnorsig, at most every PROBE_EVERY_S.  Every time
# sample (a germ's latency, an import time) is multiplied by REFERENCE_S
# over the median of the PROBES_NEAR reference_work times nearest to it in
# time: that is the time it would have taken on a machine where
# reference_work takes REFERENCE_S, and a change to milnorsig moves it as
# much as it moves the raw time.  Import times are sampled between germs
# too, at most every SETUP_EVERY_S, so that they are scaled the same way.
PROBE_EVERY_S = 0.5
PROBES_NEAR = 8
SETUP_EVERY_S = 1.0
REFERENCE_S = 0.025

IMPORT_PROBE = ("import sys, time; sys.path.insert(0, {src!r}); "
                "t = time.perf_counter(); import milnorsig, milnorsig.cli; "
                "print(time.perf_counter() - t)")


def invariants(report: dict) -> dict:
    """The seed-independent part of an analyze --format json report."""
    comps = report["components"]
    table = report["intersection_table"]
    return {
        **{k: report[k] for k in ("C", "T", "mu_D", "mu_I", "b2",
                                  "sigma_X", "sigma_F")},
        "components": len(comps),
        "twisted": sum(c["twist"] == "twisted" for c in comps),
        "untwisted": sum(c["twist"] == "untwisted" for c in comps),
        "intersections": sorted(table[i][j] for i in range(len(table))
                                for j in range(i + 1, len(table))),
        "checks": sorted(f"{c['name']}:{c['status']}" for c in report["checks"]),
    }


def percentile(sorted_values, p):
    """Linear interpolation between closest ranks."""
    x = (len(sorted_values) - 1) * p / 100
    lo = int(x)
    hi = min(lo + 1, len(sorted_values) - 1)
    return sorted_values[lo] + (sorted_values[hi] - sorted_values[lo]) * (x - lo)


def reference_work() -> None:
    """Fixed work in three parts of about equal time: exact rational
    arithmetic on sparse polynomials held in dicts, inserts and lookups of
    scattered tuple keys in a dict, and big-integer and Fraction
    arithmetic.  On a shared host each part slows by its own amount; their
    sum followed milnorsig's own slowdowns more closely than any one part
    did alone.  Nothing here calls milnorsig, so no change to the package
    changes this time."""
    for _ in range(2):
        a = {(i % 6, i // 6): Fraction(i * i - 3, 2 * i + 1) for i in range(1, 31)}
        b = {(i % 5, i // 5): Fraction(5 - i, i + 2) for i in range(1, 26)}
        out = {}
        for e, c in a.items():
            for f, d in b.items():
                k = (e[0] + f[0], e[1] + f[1])
                out[k] = out.get(k, 0) + c * d
        sorted(out, key=lambda e: (-sum(e), tuple(reversed(e))))
    rng = random.Random(5)
    keys = [(rng.randrange(10**6), rng.randrange(10**6)) for _ in range(6000)]
    table = {}
    for k in keys[::2]:
        table[k] = table.get(k, 0) + 1
    sum(table.get(k, 0) for k in keys[1::2])
    sorted(table, key=lambda e: (e[1], e[0]))
    m = 3 ** 2000 - 1
    x = 3 ** 2000
    for _ in range(300):
        x = (x * 7 + 11) % m
    total = Fraction(0)
    for i in range(1, 1800):
        total += Fraction(i, i + 1)


class Sampler:
    """Samples taken between the germs of untraced passes, so that they see
    the machine as the germs do: (time, seconds) of reference_work at most
    every PROBE_EVERY_S, and of a fresh interpreter's import of milnorsig at
    most every SETUP_EVERY_S.  The time is the sample's midpoint."""

    def __init__(self):
        self.cmd = [sys.executable, "-I", "-c", IMPORT_PROBE.format(src=SRC)]
        self.import_time()      # untimed: compiles the bytecode
        self.probes, self.setups = [], []
        self.next_probe = self.next_setup = 0.0

    def import_time(self) -> float:
        out = subprocess.run(self.cmd, capture_output=True, text=True,
                             check=True, timeout=60, cwd=ROOT)
        return float(out.stdout)

    def tick(self) -> None:
        now = time.perf_counter()
        if now >= self.next_setup:
            seconds = self.import_time()
            t1 = time.perf_counter()
            self.setups.append((t1 - seconds / 2, seconds))
            self.next_setup = t1 + SETUP_EVERY_S
        if now >= self.next_probe:
            t0 = time.perf_counter()
            reference_work()
            t1 = time.perf_counter()
            self.probes.append(((t0 + t1) / 2, t1 - t0))
            self.next_probe = t1 + PROBE_EVERY_S

    def scale(self, t: float) -> float:
        """Factor that takes a time sampled at t to the reference speed."""
        near = sorted(self.probes, key=lambda p: abs(p[0] - t))[:PROBES_NEAR]
        return REFERENCE_S / statistics.median(s for _, s in near)


class Workload:
    def __init__(self, name: str, seed: int, golden: dict):
        from milnorsig import cli
        self.run_analyze = cli.run_analyze
        base = os.path.join(WORK, f"{name}-seed{seed}")
        self.files = germgen.generate(name, seed, os.path.join(base, "germs"))
        self.outs = [os.path.join(base, "out", f"{i:02d}.json")
                     for i in range(len(self.files))]
        os.makedirs(os.path.join(base, "out"), exist_ok=True)
        self.golden = golden
        self.latencies = []     # per untraced pass, (midpoint, seconds) per germ
        self.attempted = 0
        self.failed = []        # (germ name, reason)

    def run_pass(self, tracer=None, sampler=None) -> float:
        """One closed-loop pass over the germs; returns its wall time, the
        sum of the germ latencies, which leaves out the sampler's work between
        germs.  Outputs are checked after the timed loop."""
        for out in self.outs:
            if os.path.exists(out):
                os.remove(out)
        gc.collect()
        codes, lat = [], []
        run_analyze = self.run_analyze
        for i, ((_, path), out) in enumerate(zip(self.files, self.outs)):
            if tracer is not None:
                tracer.germ = i
            if sampler is not None:
                sampler.tick()
            t0 = time.perf_counter()
            try:
                rc = run_analyze(path, "json", out=out)
            except Exception as exc:  # a crash is a failed germ, not a dead run
                rc = f"{type(exc).__name__}: {exc}"
            t1 = time.perf_counter()
            lat.append(((t0 + t1) / 2, t1 - t0))
            codes.append(rc)
        wall = sum(x for _, x in lat)
        for (name, _), out, rc in zip(self.files, self.outs, codes):
            self.attempted += 1
            reason = self.check(name, out, rc)
            if reason:
                self.failed.append((name, reason))
        if tracer is None:
            self.latencies.append(lat)
        return wall

    def check(self, name: str, out: str, rc) -> str | None:
        if rc != 0:
            return f"run_analyze returned {rc!r}"
        try:
            with open(out, encoding="utf-8") as fh:
                got = invariants(json.load(fh))
        except (OSError, ValueError, KeyError) as exc:
            return f"unreadable report: {exc}"
        want = {k: v for k, v in self.golden[name].items()
                if not k.startswith("published_")}
        if got != want:
            diff = {k: (want.get(k), got.get(k)) for k in want if got.get(k) != want[k]}
            return f"differs from golden (want, got): {diff}"
        return None


def run_passes(wl: Workload, seconds: float, traced: bool):
    """Untraced passes (alternating with traced ones when traced is set)
    until seconds are used and enough passes are made.  Returns the wall
    times, the traced summaries, the last tracer and, untraced, the
    sampler."""
    walls, traced_walls, summaries, tr = [], [], [], None
    sampler = None if traced else Sampler()
    t_start = time.perf_counter()
    while True:
        walls.append(wl.run_pass(sampler=sampler))
        if traced:
            tr = tracing.Tracer()
            tr.install()
            try:
                traced_walls.append(wl.run_pass(tr))
            finally:
                tr.uninstall()
            summaries.append(tr.summary())
        elapsed = time.perf_counter() - t_start
        step = statistics.median(walls) + (statistics.median(traced_walls)
                                           if traced else 0.0)
        enough = len(walls) >= (2 if traced else MIN_PASSES)
        if elapsed + step > HARD_CAP_S or (enough and elapsed + step > seconds):
            break
    return walls, traced_walls, summaries, tr, sampler


def end_to_end(wl: Workload, walls, sampler: Sampler) -> dict:
    """End-to-end metrics, every time scaled to the reference speed."""
    passes = [[x * sampler.scale(t) for t, x in p] for p in wl.latencies]
    lat = sorted(statistics.median(p[i] for p in passes)
                 for i in range(len(wl.files)))
    setups = [x * sampler.scale(t) for t, x in sampler.setups]
    print(f"germ latency: median of {len(passes)} passes for each of "
          f"{len(lat)} germs; germ_ms_tail is p{TAIL_PERCENTILE} of them; "
          f"setup_s is the median of {len(setups)} imports")
    raw = sorted(statistics.median(p[i][1] for p in wl.latencies)
                 for i in range(len(wl.files)))
    print(f"unscaled: wall_s {statistics.median(walls):.4f}, germ_ms_p50 "
          f"{percentile(raw, 50) * 1000:.2f}, germ_ms_tail "
          f"{percentile(raw, TAIL_PERCENTILE) * 1000:.2f}, setup_s "
          f"{statistics.median(x for _, x in sampler.setups):.4f}; "
          f"reference_work median {statistics.median(x for _, x in sampler.probes):.4f} s "
          f"of {len(sampler.probes)}")
    ok = wl.attempted - len(wl.failed)
    return {
        "wall_s": (statistics.median(sum(p) for p in passes), "s"),
        "germ_ms_p50": (percentile(lat, 50) * 1000, "ms"),
        "germ_ms_tail": (percentile(lat, TAIL_PERCENTILE) * 1000, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "pass_ratio": (ok / wl.attempted, "ratio"),
        "setup_s": (statistics.median(setups), "s"),
    }


def per_layer(wl: Workload, walls, traced_walls, summaries) -> dict:
    n_germs = len(wl.files)

    def med(f):
        return statistics.median(f(s) for s in summaries)

    out = {}
    for name in tracing.SPAN_NAMES:
        out[f"{name}.calls"] = (med(lambda s: s["functions"][name]["calls"]), "count")
        out[f"{name}.self_s"] = (med(lambda s: s["functions"][name]["self_s"]), "s")
        if name.split(".")[0] in ("germs", "curves"):
            out[f"{name}.total_s"] = (med(lambda s: s["functions"][name]["total_s"]), "s")
    for counter in ("poly.Poly.mul", "fields.FieldElem.mul", "fields.FieldElem.inverse"):
        out[f"{counter}.calls"] = (med(lambda s: s["counts"].get(counter, 0)), "count")
    for name, (outcome, _) in tracing.OUTCOMES.items():
        out[f"{name}.{outcome}_ratio"] = (med(
            lambda s: s["counts"].get(f"{name}.{outcome}", 0)
            / max(s["functions"][name]["calls"], 1)), "ratio")
    for f in ("corank", "fold_normal_data", "multipoint_data"):
        out[f"germs.{f}.calls_per_germ"] = (
            med(lambda s: s["functions"][f"germs.{f}"]["calls"]) / n_germs, "ratio")
    for module in tracing.SPAN_FUNCTIONS:
        out[f"{module}.errors"] = (med(lambda s: s["errors"].get(module, 0)), "count")

    def share(s, module):
        fns = s["functions"]
        total = sum(v["self_s"] for v in fns.values())
        return sum(v["self_s"] for k, v in fns.items()
                   if k.split(".")[0] == module) / total
    for module in tracing.SPAN_FUNCTIONS:
        out[f"{module}.self_share"] = (med(lambda s: share(s, module)), "ratio")
    out["trace.overhead_ratio"] = (
        statistics.median(traced_walls) / statistics.median(walls), "ratio")
    return out


def record_golden() -> None:
    """Write golden.json from the unscaled germs of every workload."""
    from milnorsig import cli
    golden = {}
    path = os.path.join(WORK, "golden", "germ.germ")
    out = os.path.join(WORK, "golden", "out.json")
    os.makedirs(os.path.dirname(path), exist_ok=True)
    for germs in germgen.WORKLOADS.values():
        for germ in germs:
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(germgen.germ_text(germ))
            rc = cli.run_analyze(path, "json", out=out)
            if rc != 0:
                raise SystemExit(f"{germ['name']}: run_analyze returned {rc}")
            with open(out, encoding="utf-8") as fh:
                golden[germ["name"]] = invariants(json.load(fh))
            if germ["name"].startswith("H_"):
                golden[germ["name"]]["published_sigma_F"] = int(germ["name"][2:])
    with open(GOLDEN, "w", encoding="utf-8") as fh:
        fh.write("{\n" + ",\n".join(
            f"{json.dumps(name)}: {json.dumps(golden[name], sort_keys=True)}"
            for name in sorted(golden)) + "\n}\n")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(germgen.WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=40)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record-golden", action="store_true")
    args = ap.parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "milnorsig")):
        print(f"error: no milnorsig sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    if args.record_golden:
        record_golden()
        return 0
    if args.workload is None:
        ap.error("--workload is required")

    with open(GOLDEN, encoding="utf-8") as fh:
        golden = json.load(fh)
    wl = Workload(args.workload, args.seed, golden)
    for name, _ in wl.files:
        published = golden[name].get("published_sigma_F")
        if published is not None:
            print(f"known paper discrepancy: {name} sigma_F = "
                  f"{golden[name]['sigma_F']} from sigma(X) + T - C; "
                  f"the published table says {published}")
    walls, traced_walls, summaries, last_tracer, sampler = run_passes(
        wl, args.seconds, bool(args.trace))

    for name, reason in wl.failed[:20]:
        print(f"FAIL {name}: {reason}", file=sys.stderr)
    print(f"{len(walls)} untraced and {len(traced_walls)} traced passes "
          f"of {len(wl.files)} germs")
    if args.trace:
        metrics = per_layer(wl, walls, traced_walls, summaries)
        spans_path = os.path.join(WORK, f"{args.workload}-seed{args.seed}", "spans.tsv")
        last_tracer.write(spans_path)
        print(f"{len(last_tracer)} spans of the last traced pass in {spans_path}")
    else:
        metrics = end_to_end(wl, walls, sampler)
    result = {
        "correct": not wl.failed,
        "attempted": wl.attempted,
        "failed": len(wl.failed),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
