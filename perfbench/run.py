#!/usr/bin/env python3
"""Benchmark entry point for inexact.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere inside a checkout that holds ``src/inexact``; nothing is
installed.  ``--trace 0`` measures the end-to-end metrics, ``--trace 1``
makes one traced pass for the per-layer metrics.  Metric names and units
come from BENCHMARK.json.  The last line of standard output is the result
as one JSON object; every run is also appended to .perfbench/results.jsonl
for perfbench/compare.py.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("price_sweep", "exact_reports", "sampled_price")
# BLAS runs single-threaded here and in every worker process (at most nproc);
# the variables must be set before numpy loads
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def parse_args(argv):
    parser = argparse.ArgumentParser(description="inexact benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "inexact" / "__init__.py").is_file():
        print(f"error: {ROOT} holds no src/inexact to benchmark", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import harness  # after the BLAS pin and the path set-up above

    record = harness.run(ROOT, args.workload, args.seed, args.seconds, bool(args.trace))
    values = record["per_layer"] if args.trace else record["end_to_end"]
    listed = spec["per_layer"] if args.trace else spec["end_to_end"]

    print(f"{args.workload} seed={args.seed} trace={args.trace}: "
          f"{record['attempted']} items attempted ({record['items_per_pass']} per pass), "
          f"{record['failed']} failed")
    for metric in listed:
        print(f"  {metric['name']:<48} {values[metric['name']]:.6g} {metric['unit']}")
    if not args.trace:
        print("  also measured (not gated):")
        for name, unit in harness.ALSO_REPORTED:
            print(f"  {name:<48} {values[name]:.6g} {unit}")
        print(f"  the tail is the p{values['item_tail_pct']:.1f} latency of "
              f"{values['item_count']} samples over {values['passes']} passes")
    for failure in record["failures"]:
        print(f"  FAILED {failure}")
    print(json.dumps({
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in listed},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
