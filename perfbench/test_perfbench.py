"""Self-tests of the benchmark harness.

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import json
import os
import sys
import time
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import germgen  # noqa: E402
import run  # noqa: E402
import tracer as tracing  # noqa: E402


def namespace_snapshot() -> dict:
    """Every attribute of every loaded milnorsig module, plus the counted
    methods, by identity."""
    snap = {}
    for modname, module in list(sys.modules.items()):
        if modname == "milnorsig" or modname.startswith("milnorsig."):
            for attr, value in vars(module).items():
                snap[(modname, attr)] = id(value)
    for mod, cls, meth, _ in tracing.COUNTED_METHODS:
        klass = getattr(sys.modules[f"milnorsig.{mod}"], cls)
        snap[(cls, meth)] = id(klass.__dict__[meth])
    return snap


class GeneratorTest(unittest.TestCase):
    def test_same_seed_same_text_other_seed_other_text(self):
        germ = germgen.B(5)
        texts = {}
        for seed in (1, 1, 2):
            d = os.path.join(run.WORK, "selftest", f"gen{seed}")
            files = germgen.generate("fold-mora", seed, d)
            with open(files[3][1], encoding="utf-8") as fh:
                texts.setdefault(seed, set()).add(fh.read())
        self.assertEqual(len(texts[1]), 1)
        self.assertNotEqual(texts[1], texts[2])
        self.assertIn('name = "B_5"', germgen.germ_text(germ))

    def test_scaled_germs_reproduce_golden_invariants(self):
        with open(run.GOLDEN, encoding="utf-8") as fh:
            golden = json.load(fh)
        for workload in germgen.WORKLOADS:
            for seed in (3, 4):
                with self.subTest(workload=workload, seed=seed):
                    wl = run.Workload(workload, seed, golden)
                    wl.run_pass()
                    self.assertEqual(wl.failed, [])
                    self.assertEqual(wl.attempted, len(germgen.WORKLOADS[workload]))

    def test_golden_check_rejects_a_wrong_invariant(self):
        with open(run.GOLDEN, encoding="utf-8") as fh:
            golden = json.load(fh)
        golden["cross-cap"]["sigma_F"] += 1
        wl = run.Workload("small-germs", 1, golden)
        wl.files, wl.outs = wl.files[:1], wl.outs[:1]
        wl.run_pass()
        self.assertEqual([name for name, _ in wl.failed], ["cross-cap"])


class SamplerTest(unittest.TestCase):
    def test_tick_samples_at_most_once_per_interval(self):
        sampler = run.Sampler()
        sampler.tick()
        sampler.tick()
        self.assertEqual((len(sampler.probes), len(sampler.setups)), (1, 1))
        self.assertGreater(sampler.probes[0][1], 0)
        self.assertGreater(sampler.setups[0][1], 0)

    def test_times_are_scaled_by_the_nearest_reference_samples(self):
        with open(run.GOLDEN, encoding="utf-8") as fh:
            golden = json.load(fh)
        wl = run.Workload("small-germs", 1, golden)
        wl.files, wl.outs = wl.files[:2], wl.outs[:2]
        wall = wl.run_pass()
        sampler = run.Sampler.__new__(run.Sampler)   # no import samples taken
        now = time.perf_counter()
        # near the pass reference_work ran at half the reference speed, far
        # from it at twice: times near the pass halve
        sampler.probes = ([(now, 2 * run.REFERENCE_S)] * run.PROBES_NEAR
                          + [(now + 1e6, run.REFERENCE_S / 2)] * run.PROBES_NEAR)
        sampler.setups = [(now, 0.04)]
        metrics = run.end_to_end(wl, [wall], sampler)
        self.assertAlmostEqual(metrics["wall_s"][0], wall / 2)
        self.assertAlmostEqual(metrics["setup_s"][0], 0.02)
        self.assertEqual(metrics["pass_ratio"][0], 1.0)


class TracerTest(unittest.TestCase):
    def setUp(self):
        import milnorsig.cli  # noqa: F401  (loads every traced module)

    def test_call_through_imported_alias_is_counted(self):
        import milnorsig.curves as curves
        import milnorsig.germs as germs
        from milnorsig.fields import parse_field
        from milnorsig.parser import parse_poly
        original = tracing.originals()["arith.poly_gcd"]
        tr = tracing.Tracer()
        tr.install()
        try:
            self.assertIsNot(curves.poly_gcd, original)
            self.assertIs(curves.poly_gcd.__wrapped__, original)
            from milnorsig.germs import multipoint_data   # as analyze() does
            self.assertIs(multipoint_data.__wrapped__, germs.multipoint_data.__wrapped__)
            field = parse_field("Q")
            a = parse_poly("u^2 - v^2", ("u", "v"), field)
            b = parse_poly("u*v + v^2", ("u", "v"), field)
            n0 = len(tr)
            curves.poly_gcd(a, b)
        finally:
            tr.uninstall()
        fns = tr.summary()["functions"]
        self.assertGreaterEqual(fns["arith.poly_gcd"]["calls"], 1)
        self.assertEqual(tracing.SPAN_NAMES[tr.fn[n0]], "arith.poly_gcd")
        self.assertEqual(tr.parent[n0], -1)
        self.assertIs(curves.poly_gcd, original)

    def test_self_time_excludes_child_spans(self):
        tr = tracing.Tracer()
        # a root span of 10 s with a 4 s child and, inside that, a 1 s child
        for fn, start, end, parent in ((0, 0.0, 10.0, -1), (1, 2.0, 6.0, 0),
                                       (1, 3.0, 4.0, 1)):
            tr.fn.append(fn)
            tr.start.append(start)
            tr.end.append(end)
            tr.parent.append(parent)
            tr.germ_of.append(0)
        fns = tr.summary()["functions"]
        first, second = tracing.SPAN_NAMES[:2]
        self.assertEqual(fns[first]["self_s"], 6.0)
        self.assertEqual(fns[second]["self_s"], 4.0)   # 3 + 1
        self.assertEqual(fns[second]["total_s"], 4.0)  # recursion counted once
        self.assertEqual(fns[second]["calls"], 2)

    def test_untraced_run_leaves_originals_bound(self):
        with open(run.GOLDEN, encoding="utf-8") as fh:
            golden = json.load(fh)
        before = namespace_snapshot()
        wl = run.Workload("small-germs", 1, golden)
        wl.files, wl.outs = wl.files[:3], wl.outs[:3]
        wl.run_pass()
        self.assertEqual(namespace_snapshot(), before)
        tr = tracing.Tracer()
        tr.install()
        try:
            self.assertNotEqual(namespace_snapshot(), before)
            wl.run_pass(tr)
        finally:
            tr.uninstall()
        self.assertEqual(namespace_snapshot(), before)
        self.assertEqual(wl.failed, [])


if __name__ == "__main__":
    unittest.main()
