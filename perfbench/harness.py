"""Measurement loop, output checks and metrics for one workload run.

Items are driven through ``inexact.cli.main`` in process, one at a time
(a closed loop with one client).  A run makes a fixed number of whole
passes over the item list (``workloads.passes``), each in a fresh process
(``worker.py``), so every run of a workload at the same --seconds takes the
same number of latency samples and no process-wide cache carries over from
one pass to the next.  Pass times are reported as medians; item latencies
are pooled over the passes.  Gated timings are in calibration units: each
item's wall time divided by the time of a fixed kernel run just before and
after it, which cancels most of the speed swings of a shared machine (see
README.md).
"""

from __future__ import annotations

import contextlib
import ctypes
import glob
import hashlib
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import scipy

import inexact.cli
import oracle
import spans
import workloads

HERE = Path(__file__).resolve().parent
TAIL_BEYOND = 10          # latency samples beyond the reported tail percentile
PROBES_PER_PASS = 3       # set-up probes before each measured pass
PROBE_TIMEOUT_S = 60
PASS_TIMEOUT_S = 120
OVERHEAD_STRIDE = 4       # traced run: every 4th item also runs untraced
CHUNK_ROWS = {"medium": 1 << 15, "large": 1 << 18}   # Calibration kernels' array sizes
BYTES_PER_CELL = 24       # dense kernel: int64 index, int64 decoded, float64 loss
# measured and recorded beside the gated metrics of BENCHMARK.json
ALSO_REPORTED = (("wall_s", "s"), ("items_per_s", "1/s"), ("item_p50_s", "s"),
                 ("item_tail_s", "s"), ("cpu_s", "s"), ("calibration_s", "s"),
                 ("failed_frac", "ratio"))
TRACE_SUMMARIES = ("decoders.error_profile", "problems.truth_table",
                   "decoders.identity_decoder", "allocators.coordinate_descent",
                   "mobs.aggregate_error", "mobs.mobs", "decoders.map_decoder",
                   "adversary.average_pattern_probabilities",
                   "noise.pattern_probabilities", "decoders.monte_carlo_error",
                   "cli.main")


@dataclass
class Outcome:
    """One item call: latency, output digest and what went wrong, if anything."""

    item: workloads.Item
    wall: float                  # seconds on the wall clock
    cpu: float                   # seconds of process CPU time (user + system)
    digest: str
    size: int
    error: str | None
    value: float | None = None   # the price, for exact price items
    cal: float | None = None     # calibration kernel seconds around the call

    @property
    def norm(self) -> float:
        """Wall time in calibration-kernel units."""
        return self.wall / self.cal


def call(item: workloads.Item) -> tuple[float, float, object, str, str]:
    """Run one CLI call in process: (wall s, CPU s, exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    start, cpu_start = time.perf_counter(), time.process_time()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = inexact.cli.main(list(item.argv))
    except SystemExit as exc:      # argparse rejects a malformed call this way
        code = exc.code
    except Exception:              # a raising item fails; the run goes on
        code = "raised"
        err.write(traceback.format_exc())
    return (time.perf_counter() - start, time.process_time() - cpu_start, code,
            out.getvalue(), err.getvalue())


def run_item(item: workloads.Item) -> Outcome:
    wall, cpu, code, text, err = call(item)
    outcome = Outcome(item, wall, cpu, hashlib.sha256(text.encode()).hexdigest(),
                      len(text.encode()), None)
    if code != 0:                  # 3 (resource limit) and 4 (no convergence) included
        outcome.error = f"exit {code}: {err.strip()[-300:]}"
        return outcome
    try:
        outcome.value = oracle.CHECKS[item.check](item, text)
    except oracle.CheckError as exc:
        outcome.error = str(exc)
    return outcome


def run_pass(items) -> list[Outcome]:
    return [run_item(item) for item in items]


class Calibration:
    """A fixed kernel shaped like an item's work, timed between items to
    track how fast the shared machine runs at that moment.

    ``small``: XOR gathers into a 64x256 loss matrix times a vector, and
    small-array Python loops (the dense kernels behind the descent at
    n <= 7).
    ``medium`` and ``large``: bit counts over 2**18 int64 rows, random
    draws and random gathers (truth tables, Monte Carlo, 4**n kernels).
    ``large`` streams whole 2**18-row arrays, about 9 MB, which stay far
    below the peak resident set of the workloads that use it.  ``medium``
    works in chunks of 2**15 rows, under 1 MB, for price_sweep, whose peak
    lies only a few MB above the interpreter's.
    """

    def __init__(self, kind: str):
        rng = np.random.default_rng(0)
        self.kernel = self._small if kind == "small" else self._rows
        self.chunk = CHUNK_ROWS.get(kind)
        self.decode = rng.integers(0, 2, size=256)
        self.index = np.arange(256)
        self.weights = rng.random(256)
        self.flips = rng.random(4)
        self.rng = np.random.default_rng(1)

    def _small(self) -> None:
        for _ in range(120):
            rows = self.index[:64]
            decoded = self.decode[rows[:, None] ^ self.index[None, :]]
            (decoded != self.decode[rows][:, None]).astype(np.float64) @ self.weights
            for _ in range(10):
                probs = np.array([1.0])
                for q in self.flips:
                    probs = np.concatenate([probs * (1.0 - q), probs * q])

    def _rows(self) -> None:
        for _ in range(4):
            for start in range(0, 1 << 18, self.chunk):
                rows = np.arange(start, start + self.chunk, dtype=np.int64)
                counts = np.zeros(rows.size, dtype=np.int64)
                for j in range(6):
                    counts += (rows >> j) & 1
                values = self.rng.random(rows.size)
                values[self.rng.integers(0, rows.size, size=rows.size >> 2)].sum()

    def __call__(self) -> float:
        start = time.perf_counter()
        self.kernel()
        return time.perf_counter() - start


def calibrated_pass(items, kernels: dict) -> list[Outcome]:
    """A pass with the calibration kernels run before each item and after
    the last; each item gets the mean of its own kind's two runs around it."""
    outcomes = []
    before = {kind: kernel() for kind, kernel in kernels.items()}
    for item in items:
        outcome = run_item(item)
        after = {kind: kernel() for kind, kernel in kernels.items()}
        outcome.cal = 0.5 * (before[item.calibration] + after[item.calibration])
        outcomes.append(outcome)
        before = after
    return outcomes


def check_whole_pass(outcomes: list[Outcome]) -> None:
    """Cross-item checks that need every item of the list."""
    prices = {o.item.id: o.value for o in outcomes if o.value is not None}
    frozen = oracle.check_frozen_prices(
        [o.item for o in outcomes if o.item.check == "price"], prices)
    for o in outcomes:
        if o.error is None and o.item.id in frozen:
            o.error = frozen[o.item.id]


def check_reruns(passes: list[list[Outcome]]) -> None:
    """Identical calls must give byte-identical output in every pass; a
    difference fails the item in the first pass."""
    for later in passes[1:]:
        for first, again in zip(passes[0], later):
            if again.digest != first.digest and first.error is None:
                first.error = "rerun with the same arguments gave different output"


def measured_pass(items) -> list[Outcome]:
    """One checked, calibrated pass (run in a worker process)."""
    kernels = {kind: Calibration(kind) for kind in sorted({it.calibration for it in items})}
    outcomes = calibrated_pass(items, kernels)
    check_whole_pass(outcomes)
    return outcomes


OUTCOME_FIELDS = ("wall", "cpu", "digest", "size", "error", "value", "cal")


def dump(outcome: Outcome) -> dict:
    return {"id": outcome.item.id, **{k: getattr(outcome, k) for k in OUTCOME_FIELDS}}


def spawn(workload: str, seed: int, scale: str, mode: str) -> tuple[float, dict | None]:
    """Start worker.py; return the seconds until it reached its first item
    and, in ``pass`` mode, what it reported."""
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "worker.py"), workload, str(seed), scale, mode],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    try:
        line = proc.stdout.readline()
        setup = time.perf_counter() - start
        out, err = proc.communicate(
            timeout=PASS_TIMEOUT_S if mode == "pass" else PROBE_TIMEOUT_S)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if line.strip() != "ready" or proc.returncode != 0:
        raise RuntimeError(f"{mode} worker failed: {err.strip()[-300:]}")
    return setup, json.loads(out.splitlines()[-1]) if mode == "pass" else None


def measure(workload: str, seed: int, passes: int, scale: str = "full"):
    """Measured passes, each in a fresh worker after PROBES_PER_PASS set-up
    probes; returns (passes, set-up seconds, peak resident MB).  Every
    process started here times its set-up, the pass workers included."""
    items = workloads.build(workload, seed, scale)
    measured, setup, rss = [], [], []
    for _ in range(passes):
        for _ in range(PROBES_PER_PASS):
            setup.append(spawn(workload, seed, scale, "probe")[0])
        seconds, report = spawn(workload, seed, scale, "pass")
        setup.append(seconds)
        rss.append(report["peak_rss_mb"])
        if [o["id"] for o in report["outcomes"]] != [it.id for it in items]:
            raise RuntimeError("a worker built a different item list")
        measured.append([Outcome(item, **{k: o[k] for k in OUTCOME_FIELDS})
                         for item, o in zip(items, report["outcomes"])])
    return measured, setup, max(rss)


def tail(latencies: list[float]) -> tuple[float, float, int]:
    """(latency, percentile, sample count): the highest percentile with
    TAIL_BEYOND samples beyond it; the maximum for short lists."""
    ordered = sorted(latencies)
    if len(ordered) <= TAIL_BEYOND:
        return ordered[-1], 100.0, len(ordered)
    rank = len(ordered) - TAIL_BEYOND
    return ordered[rank - 1], 100.0 * rank / len(ordered), len(ordered)


def timings(passes: list[list[Outcome]], clock: str) -> tuple[dict, float, int]:
    """Pass time, throughput, median and tail item latency on one clock."""
    totals = [sum(getattr(o, clock) for o in p) for p in passes]
    latencies = [getattr(o, clock) for p in passes for o in p]
    tail_s, tail_pct, pooled = tail(latencies)
    return {
        "pass": statistics.median(totals),
        "items_per": statistics.median(
            sum(o.error is None for o in p) / t for p, t in zip(passes, totals)),
        "p50": statistics.median(latencies),
        "tail": tail_s,
    }, tail_pct, pooled


def end_to_end(passes: list[list[Outcome]], setup: list[float], peak_rss_mb: float) -> dict:
    wall, tail_pct, pooled = timings(passes, "wall")
    norm, _, _ = timings(passes, "norm")
    attempted = sum(len(p) for p in passes)
    failed = sum(o.error is not None for p in passes for o in p)
    return {
        "setup_s": statistics.median(setup),
        "wall_cal": norm["pass"],
        "items_per_cal": norm["items_per"],
        "item_p50_cal": norm["p50"],
        "item_tail_cal": norm["tail"],
        "peak_rss_mb": peak_rss_mb,
        "wall_s": wall["pass"],
        "items_per_s": wall["items_per"],
        "item_p50_s": wall["p50"],
        "item_tail_s": wall["tail"],
        "cpu_s": statistics.median(sum(o.cpu for o in p) for p in passes),
        "calibration_s": statistics.median(o.cal for p in passes for o in p),
        "failed_frac": failed / attempted,
        "item_tail_pct": tail_pct,
        "item_count": pooled,
        "passes": len(passes),
    }


def per_layer(tracer: spans.Tracer, traced: list[Outcome], overhead: float) -> dict:
    totals = spans.layer_totals(tracer)

    def get(name: str, key: str) -> float:
        return float(totals[name][key]) if name in totals else 0.0

    def rate(work: float, name: str) -> float:
        busy = get(name, "total_s")
        return work / busy if busy > 0 else 0.0

    metrics = {}
    for name in TRACE_SUMMARIES:
        metrics[f"{name}.calls"] = get(name, "calls")
        metrics[f"{name}.self_s"] = get(name, "self_s")
    cells = get("decoders.error_profile", "cells")
    metrics["decoders.error_profile.cells"] = cells
    metrics["decoders.error_profile.cells_per_s"] = rate(cells, "decoders.error_profile")
    metrics["decoders.error_profile.bytes_computed"] = cells * BYTES_PER_CELL
    tables = get("problems.truth_table", "calls")
    metrics["problems.truth_table.rows"] = get("problems.truth_table", "rows")
    metrics["problems.truth_table.reuse"] = (
        get("problems.truth_table", "distinct") / tables if tables else 0.0)
    descents = get("allocators.coordinate_descent", "calls")
    evaluations = get("allocators.coordinate_descent", "evaluations")
    metrics["allocators.coordinate_descent.evaluations"] = evaluations
    metrics["allocators.coordinate_descent.evals_per_budget"] = (
        evaluations / descents if descents else 0.0)
    aggregates = get("mobs.aggregate_error", "calls")
    metrics["mobs.aggregate_error.mean_s"] = (
        get("mobs.aggregate_error", "total_s") / aggregates if aggregates else 0.0)
    metrics["decoders.map_decoder.cells"] = get("decoders.map_decoder", "cells")
    samples = get("decoders.monte_carlo_error", "samples")
    metrics["decoders.monte_carlo_error.samples"] = samples
    metrics["decoders.monte_carlo_error.samples_per_s"] = rate(
        samples, "decoders.monte_carlo_error")
    metrics["adversary.group.sample.self_s"] = get(spans.GROUP_SAMPLE, "self_s")
    metrics["cli.emit.self_s"] = get("cli.emit", "self_s")
    metrics["cli.emit.bytes"] = float(sum(o.size for o in traced))
    metrics["trace.overhead_frac"] = overhead
    return metrics


def traced_run(items, spans_path: Path) -> tuple[list[list[Outcome]], dict]:
    """One traced pass.  Every OVERHEAD_STRIDE-th item also runs untraced,
    alternately just before and just after its traced call, for the tracing
    overhead and an output-identity check."""
    tracer = spans.Tracer()
    traced, paired, baseline = [], [], []
    for index, item in enumerate(items):
        pair = index % OVERHEAD_STRIDE == 0
        before = pair and (index // OVERHEAD_STRIDE) % 2 == 0
        if before:
            baseline.append(run_item(item))
        tracer.item = index
        with tracer:
            traced.append(run_item(item))
        if pair:
            paired.append(traced[-1])
            if not before:
                baseline.append(run_item(item))
    check_whole_pass(traced)
    check_reruns([paired, baseline])
    overhead = sum(o.cpu for o in paired) / sum(o.cpu for o in baseline) - 1.0
    tracer.write(spans_path)
    return [traced], per_layer(tracer, traced, overhead)


def blas_threads() -> int | None:
    """Thread count the loaded OpenBLAS reports, when it can be asked."""
    pattern = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "*openblas*")
    for path in glob.glob(pattern):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def git_commit(root: Path) -> str | None:
    """HEAD commit read from .git, or None outside a git checkout."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        return None
    return None


def environment(root: Path, seed: int) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        openblas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        openblas = None
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__, "scipy": scipy.__version__, "openblas": openblas,
            "blas_threads": blas_threads(),
            "blas_threads_env": os.environ.get("OPENBLAS_NUM_THREADS"),
            "commit": git_commit(root), "seed": seed}


def run(root: Path, workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """One benchmark run; returns its full record."""
    items = workloads.build(workload, seed)
    out_dir = root / ".perfbench"
    out_dir.mkdir(exist_ok=True)
    record = {"workload": workload, "seed": seed, "trace": int(trace), "seconds": seconds}
    if trace:
        passes, record["per_layer"] = traced_run(
            items, out_dir / f"spans-{workload}-seed{seed}.csv.gz")
    else:
        passes, setup, peak_rss_mb = measure(workload, seed, workloads.passes(workload, seconds))
        reruns = passes
        if len(passes) == 1 and any(it.check.startswith("sampled") for it in items):
            reruns = passes + [run_pass(items)]   # seeded reruns, unmeasured
        check_reruns(reruns)
        record["end_to_end"] = end_to_end(passes, setup, peak_rss_mb)
    attempted = sum(len(p) for p in passes)
    failures = [f"{o.item.id}: {o.error}" for p in passes for o in p if o.error]
    record["item_seconds"] = [[o.item.id, o.wall, o.cpu, o.cal] for p in passes for o in p]
    record.update({"items_per_pass": len(items), "attempted": attempted,
                   "failed": len(failures), "failures": failures[:20],
                   "env": environment(root, seed)})
    with (out_dir / "results.jsonl").open("a") as fh:
        fh.write(json.dumps(record, sort_keys=True) + "\n")
    return record
