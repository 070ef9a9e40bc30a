"""A fresh process for one workload: a set-up probe or one measured pass.

Usage: python3 perfbench/worker.py WORKLOAD SEED SCALE probe|pass
(started by harness.py).

The process imports inexact and builds the workload's items, then prints
"ready": that line is what setup_s times.  In ``pass`` mode it goes on to
make one calibrated pass over the items and prints the outcomes and its
peak resident set as one JSON line.  Every measured pass has a process of
its own, so no process-wide cache outlives a pass, as none outlives an
``inexact`` command.
"""

import json
import resource
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import inexact.cli  # noqa: E402,F401  (the import is what set-up pays for)
import workloads  # noqa: E402

workload, seed, scale, mode = sys.argv[1:5]
items = workloads.build(workload, int(seed), scale)
print("ready", flush=True)
if mode == "pass":
    import harness

    outcomes = harness.measured_pass(items)
    print(json.dumps({
        "outcomes": [harness.dump(o) for o in outcomes],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }))
