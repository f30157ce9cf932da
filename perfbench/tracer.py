"""Outside-in tracer for milnorsig.

The tracer times calls into the package's public functions from outside it:
``install`` rebinds each listed function in every ``milnorsig`` namespace
that holds it (``from .x import y`` aliases included, so calls between
modules are seen too) and ``uninstall`` puts the originals back.  Nothing
under ``src/milnorsig`` is edited, and while tracing is off no wrapper is
installed at all.

Each call of a span function records a span (function, start, end, parent
span, germ) in flat arrays kept in memory; ``write`` saves them at the end.
Self time is a span's duration minus the durations of its child spans.
A few hot methods only get a call counter, since a span per call would
swamp the time being measured.
"""

from __future__ import annotations

import importlib
import sys
import time
from array import array
from collections import Counter

SPAN_FUNCTIONS = {
    "germfile": ["load_germ"],
    "parser": ["parse_poly"],
    "fields": ["parse_field"],
    "germs": ["corank", "crosscap_number", "fold_normal_data",
              "multipoint_data", "double_curve_equation", "triple_point_number"],
    "curves": ["decompose", "classify_twist", "intersection_table",
               "v_axis_multiplicities", "curve_milnor"],
    "factor": ["factor_components"],
    "arith": ["poly_gcd", "resultant", "squarefree_part", "try_divide"],
    "localring": ["standard_basis", "mora_normal_form"],
    "signature": ["analyze", "signature_of_form"],
    "cli": ["render_report"],
}

# (module, class, method, counter name): counted, not spanned.
COUNTED_METHODS = [
    ("poly", "Poly", "__mul__", "poly.Poly.mul"),
    ("fields", "FieldElem", "__mul__", "fields.FieldElem.mul"),
    ("fields", "FieldElem", "__rmul__", "fields.FieldElem.mul"),
    ("fields", "FieldElem", "inverse", "fields.FieldElem.inverse"),
]

# Wasted-work outcomes: a result for which the predicate holds is counted
# under "<function>.<outcome>".
OUTCOMES = {
    "arith.try_divide": ("none", lambda r: r is None),
    "localring.mora_normal_form": ("zero", lambda r: r.is_zero()),
}

SPAN_NAMES = [f"{m}.{f}" for m, fs in SPAN_FUNCTIONS.items() for f in fs]


def originals() -> dict:
    """Qualified name -> the function object its defining module holds."""
    out = {}
    for mod, funcs in SPAN_FUNCTIONS.items():
        module = importlib.import_module(f"milnorsig.{mod}")
        for f in funcs:
            out[f"{mod}.{f}"] = getattr(module, f)
    return out


def bindings(targets: dict) -> list:
    """Every (namespace module, attribute, qualified name) in a loaded
    milnorsig module whose value is one of the target functions."""
    by_id = {id(fn): name for name, fn in targets.items()}
    out = []
    for modname, module in list(sys.modules.items()):
        if modname != "milnorsig" and not modname.startswith("milnorsig."):
            continue
        for attr, value in list(vars(module).items()):
            name = by_id.get(id(value))
            if name is not None and targets[name] is value:
                out.append((module, attr, name))
    return out


class Tracer:
    def __init__(self):
        self.fn = array("i")        # index into SPAN_NAMES
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")    # -1 for a root span
        self.germ_of = array("i")
        self.germ = -1              # set by the caller before each germ
        self.counts = Counter()
        self.errors = Counter()
        self._stack = []
        self._restore = []

    # -- installation ----------------------------------------------------------

    def install(self) -> None:
        if self._restore:
            raise RuntimeError("tracer already installed")
        targets = originals()
        wrappers = {name: self._span_wrapper(SPAN_NAMES.index(name), fn)
                    for name, fn in targets.items()}
        for module, attr, name in bindings(targets):
            self._restore.append((module, attr, getattr(module, attr)))
            setattr(module, attr, wrappers[name])
        for mod, cls, meth, counter in COUNTED_METHODS:
            klass = getattr(importlib.import_module(f"milnorsig.{mod}"), cls)
            orig = klass.__dict__[meth]
            self._restore.append((klass, meth, orig))
            setattr(klass, meth, self._count_wrapper(counter, orig))

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, value = self._restore.pop()
            setattr(owner, attr, value)

    def _count_wrapper(self, counter, fn):
        counts = self.counts

        def counted(*args):
            counts[counter] += 1
            return fn(*args)
        return counted

    def _span_wrapper(self, idx, fn):
        name = SPAN_NAMES[idx]
        module = name.split(".")[0]
        outcome = OUTCOMES.get(name)
        stack, errors, counts = self._stack, self.errors, self.counts
        fns, starts, ends, parents, germs = (
            self.fn, self.start, self.end, self.parent, self.germ_of)
        clock = time.perf_counter

        def traced(*args, **kwargs):
            i = len(fns)
            fns.append(idx)
            parents.append(stack[-1] if stack else -1)
            germs.append(self.germ)
            ends.append(0.0)
            stack.append(i)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                errors[module] += 1
                raise
            finally:
                ends[i] = clock()
                stack.pop()
            if outcome is not None and outcome[1](result):
                counts[f"{name}.{outcome[0]}"] += 1
            return result
        traced.__wrapped__ = fn
        return traced

    # -- results ---------------------------------------------------------------

    def __len__(self):
        return len(self.fn)

    def summary(self) -> dict:
        """Per span function: calls, total_s (outermost calls only, so
        recursion is not counted twice) and self_s; plus counters."""
        n = len(self.fn)
        dur = [self.end[i] - self.start[i] for i in range(n)]
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += dur[i]
        calls = [0] * len(SPAN_NAMES)
        self_s = [0.0] * len(SPAN_NAMES)
        total_s = [0.0] * len(SPAN_NAMES)
        for i in range(n):
            f = self.fn[i]
            calls[f] += 1
            self_s[f] += dur[i] - child[i]
            p = self.parent[i]
            while p >= 0 and self.fn[p] != f:
                p = self.parent[p]
            if p < 0:
                total_s[f] += dur[i]
        return {
            "functions": {name: {"calls": calls[k], "self_s": self_s[k],
                                 "total_s": total_s[k]}
                          for k, name in enumerate(SPAN_NAMES)},
            "counts": dict(self.counts),
            "errors": dict(self.errors),
        }

    def write(self, path: str) -> None:
        """Save the spans as tab-separated text, one span per line."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("span\tfunction\tparent\tgerm\tstart_s\tend_s\n")
            for i in range(len(self.fn)):
                fh.write(f"{i}\t{SPAN_NAMES[self.fn[i]]}\t{self.parent[i]}\t"
                         f"{self.germ_of[i]}\t{self.start[i]:.9f}\t{self.end[i]:.9f}\n")
