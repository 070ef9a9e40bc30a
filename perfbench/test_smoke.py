"""Smoke tests of the benchmark itself, on tiny item lists (n <= 6).

    python3 -m pytest perfbench

The repository's own test run collects only tests/, so these stay out of it.
"""

import json
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import pytest  # noqa: E402

import harness  # noqa: E402
import oracle  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

COUNT_SUFFIXES = (".calls", ".cells", ".rows", ".reuse", ".evaluations",
                  ".evals_per_budget", ".samples", ".bytes", ".bytes_computed")


@pytest.fixture(params=workloads.WORKLOADS)
def items(request):
    return workloads.build(request.param, seed=3, scale="smoke")


def traced_pass(items):
    tracer = spans.Tracer()
    outcomes = []
    for index, item in enumerate(items):
        tracer.item = index
        with tracer:
            outcomes.append(harness.run_item(item))
    return tracer, outcomes


def test_smoke_lists_stay_small(items):
    assert all(int(item.argv[item.argv.index("--n") + 1]) <= 6
               for item in items if "--n" in item.argv)


def test_traced_and_untraced_outputs_match(items):
    plain = harness.run_pass(items)
    harness.check_whole_pass(plain)
    _, traced = traced_pass(items)
    harness.check_whole_pass(traced)
    assert [o.error for o in plain] == [None] * len(items)
    assert [o.error for o in traced] == [None] * len(items)
    assert [o.digest for o in traced] == [o.digest for o in plain]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_measured_passes_give_positive_metrics(workload):
    passes, setup, peak_rss_mb = harness.measure(workload, seed=3, passes=2, scale="smoke")
    metrics = harness.end_to_end(passes, setup, peak_rss_mb)
    assert len(setup) == 2 * (harness.PROBES_PER_PASS + 1)
    assert all(o.error is None and o.cal > 0 for p in passes for o in p)
    assert [o.digest for o in passes[0]] == [o.digest for o in passes[1]]
    assert metrics["failed_frac"] == 0 and metrics["item_count"] == 2 * len(passes[0])
    assert min(metrics[name] for name in ("wall_cal", "items_per_cal", "item_p50_cal",
                                          "item_tail_cal", "peak_rss_mb")) > 0


def test_self_times_fit_in_wall_time(items):
    start = time.perf_counter()
    tracer, _ = traced_pass(items)
    wall = time.perf_counter() - start
    totals = spans.layer_totals(tracer)
    assert totals["cli.main"]["calls"] == len(items)
    assert sum(t["self_s"] for t in totals.values()) <= wall
    assert min(t["self_s"] for t in totals.values()) >= -1e-9


def test_counts_repeat_exactly(items, tmp_path):
    runs = [harness.traced_run(items, tmp_path / f"spans{i}.csv.gz") for i in range(2)]
    counts = [{k: v for k, v in layers.items() if k.endswith(COUNT_SUFFIXES)}
              for _, layers in runs]
    assert counts[0] == counts[1]
    assert counts[0]["cli.main.calls"] == len(items)
    assert all(o.error is None for passes, _ in runs for o in passes[0])


def test_sampled_runs_skip_descent_and_exact_kernel(tmp_path):
    items = workloads.build("sampled_price", seed=3, scale="smoke")
    _, layers = harness.traced_run(items, tmp_path / "spans.csv.gz")
    assert layers["decoders.error_profile.calls"] == 0
    assert layers["allocators.coordinate_descent.calls"] == 0
    assert layers["decoders.monte_carlo_error.samples"] > 0


def test_a_perturbed_report_row_fails_its_check():
    item = next(i for i in workloads.build("exact_reports", seed=3, scale="smoke")
                if i.spec["kind"] == "be")
    _, _, code, text, _ = harness.call(item)
    assert code == 0
    oracle.check_report(item, text)
    envelope = json.loads(text)
    envelope["result"]["per_input"][5]["p_err"] *= 1.0 + 1e-6
    with pytest.raises(oracle.CheckError):
        oracle.check_report(item, json.dumps(envelope))


def test_a_rerun_that_differs_fails_the_first_pass():
    item = workloads.build("sampled_price", seed=3, scale="smoke")[0]
    first = harness.run_pass([item])
    again = harness.run_pass([item])
    again[0].digest = "different"
    harness.check_reruns([first, again])
    assert first[0].error is not None


def test_tail_leaves_ten_samples_beyond_it():
    latencies = [float(i) for i in range(40)] * 2
    value, pct, count = harness.tail(latencies)
    assert (value, pct, count) == (34.0, 87.5, 80)
    assert sum(v > value for v in latencies) == 10
