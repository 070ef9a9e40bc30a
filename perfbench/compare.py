#!/usr/bin/env python3
"""Compare two result sets of the benchmark.

    python3 perfbench/compare.py PARENT.jsonl CHANGE.jsonl

Each file holds run records as perfbench/run.py appends them to
.perfbench/results.jsonl (copy that file out of each checkout).  For every
(workload, metric) pair the report prints each side's median and quartiles.
End-to-end metrics also get a verdict, paired run by run in seed order:

* better      -- the change wins at least 9 of every 10 pairs (ties count
                 for neither side), with at least 10 pairs, and the medians
                 differ by more than the parent's interquartile range.
* unresolved  -- otherwise, when either side's interquartile range is wider
                 than the metric's bound (as a share of its median) ...
* not worse   -- ... unless every change run beats every parent run.
* worse       -- the change's median is worse than the parent's by more
                 than the bound.
* same        -- within the bound.

Per-layer metrics (traced runs) have no bound and get no verdict.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

MIN_PAIRS = 10
WIN_SHARE = 0.9
# metric bounds come from the benchmark definition at the checkout's root
BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load(path: Path) -> list[dict]:
    with path.open() as fh:
        return [json.loads(line) for line in fh if line.strip()]


def series(records: list[dict], section: str) -> dict:
    """(workload, metric) -> values in seed order."""
    out = defaultdict(list)
    for rec in sorted((r for r in records if section in r), key=lambda r: r["seed"]):
        for name, value in rec[section].items():
            out[(rec["workload"], name)].append(float(value))
    return out


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(parent: list[float], change: list[float], better: str, bound: float) -> str:
    def beats(a: float, b: float) -> bool:
        return a < b if better == "lower" else a > b

    p1, pm, p3 = quartiles(parent)
    c1, cm, c3 = quartiles(change)
    pairs = list(zip(parent, change))
    wins = sum(beats(c, p) for p, c in pairs)
    if len(pairs) >= MIN_PAIRS and wins >= WIN_SHARE * len(pairs) and abs(cm - pm) > p3 - p1:
        return "better"
    spread = max((p3 - p1) / abs(pm) if pm else 0.0, (c3 - c1) / abs(cm) if cm else 0.0)
    if spread > bound:
        if all(beats(c, p) for c in change for p in parent):
            return "not worse"
        return "unresolved"
    worse_by = (cm - pm if better == "lower" else pm - cm) / abs(pm) if pm else 0.0
    return "worse" if worse_by > bound else "same"


def report(parent: list[dict], change: list[dict], spec: dict) -> list[str]:
    lines = [f"{'workload':<14} {'metric':<48} {'parent q1/median/q3':>32} "
             f"{'change q1/median/q3':>32}  verdict"]
    for section, listed in (("end_to_end", spec["end_to_end"]), ("per_layer", spec["per_layer"])):
        before, after = series(parent, section), series(change, section)
        for workload in sorted({w for w, _ in before} | {w for w, _ in after}):
            for metric in listed:
                key = (workload, metric["name"])
                if key not in before or key not in after:
                    continue
                p, c = before[key], after[key]
                text = [f"{v:.4g}" for v in (*quartiles(p), *quartiles(c))]
                judged = (verdict(p, c, metric["better"], metric["bound"])
                          if "bound" in metric else "-")
                lines.append(f"{workload:<14} {metric['name']:<48} "
                             f"{'/'.join(text[:3]):>32} {'/'.join(text[3:]):>32}  "
                             f"{judged} ({len(p)} vs {len(c)} runs)")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[1])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    args = parser.parse_args(argv)
    spec = json.loads(BENCHMARK.read_text())
    print("\n".join(report(load(args.parent), load(args.change), spec)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
