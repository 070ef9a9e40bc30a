"""Workload item lists.

An item is one ``inexact`` command line plus what its output check needs.
Every random part of an item list (report energies, probe rows, Monte Carlo
seeds) comes from the workload seed, so the program only sees the
generated arguments.  ``scale="smoke"`` gives tiny lists (n <= 6) for the
benchmark's own tests.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

WORKLOADS = ("price_sweep", "exact_reports", "sampled_price")
SCALES = ("full", "smoke")

MC_MOBS_SAMPLES = 20_000     # per probe row and side, in sampled mobs items
MC_ROW_SAMPLES = 200_000     # per sampled single-row report

# Seconds one full pass takes on a 2-core x86 VM (numpy 2.4, one BLAS
# thread).  A run makes seconds // nominal whole passes, so the number of
# latency samples, and with it the tail percentile, is fixed by --seconds.
NOMINAL_PASS_SECONDS = {"price_sweep": 10.0, "exact_reports": 10.0, "sampled_price": 7.5}


@dataclass(frozen=True)
class Item:
    """One CLI call and the facts its output check needs."""

    id: str
    argv: tuple
    check: str                   # price | report | sampled_mobs | sampled_row
    spec: dict = field(default_factory=dict)
    # harness.Calibration kernel shaped like the item's work: "small" for
    # dense kernels on arrays of at most 2**14 cells, "medium" for the
    # 2**16-cell ones of price_sweep at n = 8, "large" otherwise
    calibration: str = "large"


def budget_grid(n: int) -> list[float]:
    """The CLI's default mobs grid: n, n(n+1)/4, n(n+1)/2, n(n+1)."""
    return [float(n), n * (n + 1) / 4.0, n * (n + 1) / 2.0, float(n * (n + 1))]


def problem_args(kind: str, n: int) -> list[str]:
    args = ["--problem", kind, "--n", str(n)]
    if kind == "tribes":
        args += ["--tribe-count", "2"]
    return args


def group_args(group: str, n: int) -> list[str]:
    args = ["--group", group]
    if group == "generated":
        # one cyclic shift generates the rotation group of order n
        args += ["--generators", ",".join(str((j + 1) % n) for j in range(n))]
    return args


def energies_text(energies: np.ndarray) -> str:
    return ",".join(repr(float(e)) for e in energies)


def price_sweep(seed: int, scale: str) -> list[Item]:
    """Exact mobs, one call per budget; fixed inputs (the seed is unused)."""
    sizes, widths, shapes = ((6, 7, 8), (2, 3, 4), ((4, 2),)) if scale == "full" \
        else ((4, 6), (2, 3), ((2, 2),))
    items = []
    for n in sizes:
        for kind in ("or", "ue", "be"):
            budgets = budget_grid(n)
            if n == sizes[-1]:
                # one be evaluation at the largest n costs as much as an or/ue
                # one; be's first two budgets (its price peaks at the second)
                # keep that cost in the pass at a third of the time
                if kind != "be":
                    continue
                budgets = budgets[:2]
            for budget in budgets:
                items.append(Item(
                    f"{kind}-{n}-b{budget:g}",
                    ("mobs", *problem_args(kind, n), "--budgets", repr(budget),
                     "--format", "csv"),
                    "price", {"name": kind, "kind": kind, "n": n},
                    "small" if n <= 7 else "medium"))
    for k in widths:
        budget = k * (k + 1) / 2.0
        items.append(Item(
            f"comparison{k}-b{budget:g}",
            ("mobs", "--problem", "comparison", "--k", str(k), "--budgets", repr(budget),
             "--format", "csv"),
            "price", {"name": f"comparison{k}", "kind": "comparison", "n": 2 * k}, "small"))
    for count, width in shapes:
        budget = count * width * (width + 1) / 4.0
        items.append(Item(
            f"sorting{count}x{width}-b{budget:g}",
            ("mobs", "--problem", "sorting", "--count", str(count), "--width", str(width),
             "--budgets", repr(budget), "--format", "csv"),
            "price", {"name": f"sorting{count}x{width}", "kind": "sorting",
                      "n": count * width}, "small"))
    return items


def _report_item(rng, kind: str, n: int, group: str, decoder: str) -> Item:
    # energies on the budget simplex at budget n(n+1)/4, fresh per item
    energies = rng.dirichlet(np.ones(n)) * (n * (n + 1) / 4.0)
    loss = "absolute" if kind == "be" else "exact"
    argv = ("simulate", *problem_args(kind, n), "--energies", energies_text(energies),
            *group_args(group, n), "--decoder", decoder, "--loss", loss,
            "--mode", "exact", "--format", "json")
    return Item(f"{kind}-{n}-{group}-{decoder}", argv, "report",
                {"kind": kind, "n": n, "energies": energies, "group": group,
                 "decoder": decoder, "loss": loss})


def exact_reports(seed: int, scale: str) -> list[Item]:
    """Full exact reports: every problem under every group at the small
    size, decoders alternating, and one big MAP call (two 4**n kernels).

    MAP decoding runs only on few-output problems: be has 2**n outputs,
    and be items check that few-output work does not reach its path.
    """
    small, big = (12, 14) if scale == "full" else (4, 6)
    rng = np.random.default_rng([seed, 1])
    items = []
    for k, kind in enumerate(("or", "tribes", "comparison", "be")):
        for g, group in enumerate(("identity", "symmetric", "generated")):
            decoder = "map" if (k + g) % 2 and kind != "be" else "identity"
            items.append(_report_item(rng, kind, small, group, decoder))
    items.append(_report_item(rng, "or", big, "symmetric", "map"))
    return items


def sampled_price(seed: int, scale: str) -> list[Item]:
    """Seeded Monte Carlo: per-budget sampled mobs plus single-row reports."""
    mobs_sizes, row_sizes = ((16, 20), (12, 14)) if scale == "full" else ((6,), (4, 6))
    rng = np.random.default_rng([seed, 2])
    items = []
    for n in mobs_sizes:
        for kind in ("be", "or", "ue"):
            for budget in budget_grid(n)[1:2]:
                mc_seed = int(rng.integers(1 << 31))
                items.append(Item(
                    f"mobs-{kind}-{n}-b{budget:g}",
                    ("mobs", *problem_args(kind, n), "--mode", "monte_carlo",
                     "--samples", str(MC_MOBS_SAMPLES), "--seed", str(mc_seed),
                     "--budgets", repr(budget), "--format", "json"),
                    "sampled_mobs", {"name": kind, "n": n, "samples": MC_MOBS_SAMPLES}))
    for n in row_sizes:
        for kind in ("or", "ue", "be", "comparison"):
            for group in ("identity", "symmetric", "generated"):
                energies = rng.dirichlet(np.ones(n)) * float(n)
                row = int(rng.integers(1 << n))
                mc_seed = int(rng.integers(1 << 31))
                loss = "absolute" if kind == "be" else "exact"
                items.append(Item(
                    f"row-{kind}-{n}-{group}",
                    ("simulate", *problem_args(kind, n),
                     "--energies", energies_text(energies), *group_args(group, n),
                     "--loss", loss, "--mode", "monte_carlo",
                     "--samples", str(MC_ROW_SAMPLES), "--seed", str(mc_seed),
                     "--input", format(row, f"0{n}b"), "--format", "json"),
                    "sampled_row",
                    {"kind": kind, "n": n, "energies": energies, "group": group,
                     "decoder": "identity", "loss": loss, "row": row,
                     "samples": MC_ROW_SAMPLES}))
    return items


_BUILDERS = {"price_sweep": price_sweep, "exact_reports": exact_reports,
             "sampled_price": sampled_price}


def passes(workload: str, seconds: float) -> int:
    return max(1, int(seconds // NOMINAL_PASS_SECONDS[workload]))


def build(workload: str, seed: int, scale: str = "full") -> list[Item]:
    if workload not in _BUILDERS:
        raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")
    if scale not in SCALES:
        raise ValueError(f"unknown scale {scale!r}; expected one of {SCALES}")
    return _BUILDERS[workload](int(seed), scale)
