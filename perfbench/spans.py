"""Span tracing for the traced run, recorded from the benchmark's side.

``Tracer.install`` replaces each layer function under every name the
library's modules look it up by (``inexact.mobs.aggregate_error``,
``inexact.decoders.truth_table``, ...) with a wrapper that records a span:
name, start, end, parent span and item id.  Spans stay in memory until the
run ends.  A span's self time is its duration minus the time its child
spans cover; calls are synchronous, so children never overlap.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import sys
import time
from array import array
from collections import defaultdict

# (span name, module, attribute); callers resolve these names at call time
LAYER_FUNCTIONS = (
    ("problems.build_problem", "inexact.problems", "build_problem"),
    ("problems.truth_table", "inexact.problems", "truth_table"),
    ("noise.pattern_probabilities", "inexact.noise", "pattern_probabilities"),
    ("adversary.build_group", "inexact.adversary", "build_group"),
    ("adversary.average_pattern_probabilities", "inexact.adversary",
     "average_pattern_probabilities"),
    ("adversary.sample_energy_assignments", "inexact.adversary",
     "sample_energy_assignments"),
    ("decoders.identity_decoder", "inexact.decoders", "identity_decoder"),
    ("decoders.map_decoder", "inexact.decoders", "map_decoder"),
    ("decoders.error_profile", "inexact.decoders", "error_profile"),
    ("decoders.per_input_error", "inexact.decoders", "per_input_error"),
    ("decoders.error_report", "inexact.decoders", "error_report"),
    ("decoders.monte_carlo_error", "inexact.decoders", "monte_carlo_error"),
    ("allocators.analytic_allocation", "inexact.allocators", "analytic_allocation"),
    ("allocators.coordinate_descent", "inexact.allocators", "coordinate_descent"),
    ("mobs.aggregate_error", "inexact.mobs", "aggregate_error"),
    ("mobs.mobs", "inexact.mobs", "mobs"),
    ("cli.main", "inexact.cli", "main"),
    ("cli.emit", "inexact.cli", "emit_json"),
    ("cli.emit", "inexact.cli", "emit_csv"),
)
GROUP_SAMPLE = "adversary.group.sample"
GROUP_CLASSES = ("IdentityGroup", "FullSymmetricGroup", "GeneratedGroup")


def _arg(args, kwargs, position: int, name: str, default=None):
    if len(args) > position:
        return args[position]
    return kwargs.get(name, default)


def _cells(counts, args, kwargs, result) -> None:
    counts["cells"] += 4 ** _arg(args, kwargs, 1, "energies").n


def _table_rows(counts, args, kwargs, result) -> None:
    problem = _arg(args, kwargs, 0, "problem")
    counts["rows"] += 1 << problem.n
    counts.setdefault("problems", set()).add((problem.name, problem.kind, problem.n))


def _evaluations(counts, args, kwargs, result) -> None:
    counts["evaluations"] += result.evaluations


def _samples(counts, args, kwargs, result) -> None:
    counts["samples"] += _arg(args, kwargs, 6, "samples", 100_000)


# work counts taken at the layer boundary, from arguments and results
COUNTERS = {
    "decoders.error_profile": _cells,
    "decoders.map_decoder": _cells,
    "problems.truth_table": _table_rows,
    "allocators.coordinate_descent": _evaluations,
    "decoders.monte_carlo_error": _samples,
}


class Tracer:
    """In-memory span recorder; install around traced calls, then remove.

    Spans live in flat arrays (no per-span Python objects for the garbage
    collector to walk), so recording stays cheap over ~10**6 spans.
    """

    def __init__(self):
        self.names = []                  # span name per name id
        self.name_ids = {}
        self.span_name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.span_item = array("q")
        self.counts = defaultdict(lambda: defaultdict(float))   # name -> count -> total
        self.item = -1
        self._stack = []
        self._restore = []

    def wrap(self, name: str, fn):
        name_id = self.name_ids.setdefault(name, len(self.names))
        if name_id == len(self.names):
            self.names.append(name)
        counter = COUNTERS.get(name)
        counts = self.counts[name]
        stack = self._stack
        # bound once: the wrapper runs ~10**6 times in a traced pass
        clock = time.perf_counter
        add_name, add_parent = self.span_name.append, self.parent.append
        add_item, add_start, add_end = self.span_item.append, self.start.append, self.end.append
        ends = self.end

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(ends)
            add_name(name_id)
            add_parent(stack[-1] if stack else -1)
            add_item(self.item)
            add_end(0.0)
            stack.append(index)
            add_start(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[index] = clock()
                stack.pop()
            if counter is not None:
                counter(counts, args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        targets = {}
        for name, module, attr in LAYER_FUNCTIONS:
            fn = getattr(importlib.import_module(module), attr)
            targets[id(fn)] = self.wrap(name, fn)
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "inexact" and not mod_name.startswith("inexact."):
                continue
            for attr, value in list(vars(module).items()):
                if id(value) in targets and callable(value):
                    self._restore.append((module, attr, value))
                    setattr(module, attr, targets[id(value)])
        adversary = importlib.import_module("inexact.adversary")
        for cls_name in GROUP_CLASSES:
            cls = getattr(adversary, cls_name)
            original = cls.__dict__["sample"]
            self._restore.append((cls, "sample", original))
            setattr(cls, "sample", self.wrap(GROUP_SAMPLE, original))

    def remove(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.remove()
        return False

    def write(self, path) -> None:
        """Spans as CSV lines: name,start,end,parent,item (gzip)."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("name,start,end,parent,item\n")
            for row in zip(self.span_name, self.start, self.end, self.parent, self.span_item):
                fh.write(f"{self.names[row[0]]},{row[1]!r},{row[2]!r},{row[3]},{row[4]}\n")


def layer_totals(tracer: Tracer) -> dict:
    """Per span name: calls, total_s (inclusive), self_s and summed counts."""
    child = defaultdict(float)
    for parent, start, end in zip(tracer.parent, tracer.start, tracer.end):
        if parent >= 0:
            child[parent] += end - start
    totals = defaultdict(lambda: defaultdict(float))
    for index, (name_id, start, end) in enumerate(
            zip(tracer.span_name, tracer.start, tracer.end)):
        entry = totals[tracer.names[name_id]]
        entry["calls"] += 1
        entry["total_s"] += end - start
        entry["self_s"] += end - start - child[index]
    for name, counts in tracer.counts.items():
        for key, value in counts.items():
            if key == "problems":
                totals[name]["distinct"] = len(value)
            else:
                totals[name][key] += value
    return totals
