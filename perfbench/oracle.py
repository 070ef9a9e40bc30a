"""Output checks, with reference computations independent of the library.

Exact reports are checked row by row against algorithms the library does
not use: few-output problems through XOR convolutions by the fast
Walsh-Hadamard transform, binary evaluation under absolute loss through a
closed form over the most significant flipped bit.  Sampled rows are
checked against the exact mean and variance of their loss.  Exact prices
are checked against the values frozen in the repository's tests and
against reference values recorded from the seed run (reference.json).
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

REFERENCE = json.loads((Path(__file__).parent / "reference.json").read_text())

PRICE_REL_TOL = 1e-4       # optimizer-tolerance slack against recorded prices
REPORT_REL_TOL = 1e-9      # reordered floating-point sums
REPORT_ABS_TOL = 1e-12
TIE_REL_TOL = 1e-9         # MAP scores this close count as a tie
SAMPLED_SE_LIMIT = 4.0

# values frozen in tests/test_mobs.py and tests/test_acceptance.py:
# (problem name, n) -> (max over budget items, absolute tolerance)
FROZEN_PRICES = {
    ("be", 4): (1.755443, 1e-3),
    ("be", 6): (2.654156, 1e-3),
    ("be", 8): (3.841077, 1e-3),
    ("comparison2", 4): (1.76776686646, 1e-6),
    ("sorting4x2", 8): (2.0 ** 1.5, 1e-6),
}


class CheckError(Exception):
    """An item's output is wrong."""


# ---------------------------------------------------------------------------
# problems, channel and adversary, written from their definitions

def truth_table(kind: str, n: int) -> np.ndarray:
    idx = np.arange(1 << n, dtype=np.int64)
    if kind == "or":
        return (idx > 0).astype(np.int64)
    if kind == "ue":
        return _bits(n).sum(axis=1)
    if kind == "be":
        return idx
    if kind == "tribes":
        half = n // 2
        mask = (1 << half) - 1
        return (((idx & mask) == mask) | ((idx >> half) == mask)).astype(np.int64)
    if kind == "comparison":
        k = n // 2
        return np.sign((idx & ((1 << k) - 1)) - (idx >> k))
    raise ValueError(f"no reference table for {kind!r}")


def _bits(n: int) -> np.ndarray:
    """Row d, column j: bit j of d."""
    return (np.arange(1 << n, dtype=np.int64)[:, None] >> np.arange(n)) & 1


def group_flip_vectors(group: str, q: np.ndarray) -> list[np.ndarray]:
    """Per-bit flip probabilities, one vector per group element."""
    n = q.size
    if group == "identity":
        return [q]
    if group == "generated":  # rotations: bit j read at energy entry (j + r) mod n
        return [np.roll(q, -r) for r in range(n)]
    raise ValueError(f"no element list for {group!r}")


def flip_count_weights(q: np.ndarray) -> np.ndarray:
    """P{exactly m of the bits flip}, m = 0..n."""
    a = np.zeros(q.size + 1)
    a[0] = 1.0
    for j, qj in enumerate(q):
        a[1:j + 2] = a[1:j + 2] * (1.0 - qj) + a[:j + 1] * qj
        a[0] *= 1.0 - qj
    return a


def pattern_distribution(group: str, energies: np.ndarray) -> np.ndarray:
    """Group-averaged probability of each flip pattern d."""
    q = np.exp2(-np.asarray(energies, dtype=np.float64))
    n = q.size
    bits = _bits(n).astype(bool)
    if group == "symmetric":
        m = bits.sum(axis=1)
        counts = np.array([math.comb(n, c) for c in range(n + 1)], dtype=np.float64)
        return flip_count_weights(q)[m] / counts[m]
    vectors = group_flip_vectors(group, q)
    return sum(np.where(bits, qv, 1.0 - qv).prod(axis=1) for qv in vectors) / len(vectors)


# ---------------------------------------------------------------------------
# exact per-input error

def fwht(a: np.ndarray) -> np.ndarray:
    """Unnormalized Walsh-Hadamard transform along the last axis."""
    a = np.array(a, dtype=np.float64)
    size = a.shape[-1]
    lead = a.shape[:-1]
    h = 1
    while h < size:
        a = a.reshape(*lead, size // (2 * h), 2, h)
        a = np.stack([a[..., 0, :] + a[..., 1, :], a[..., 0, :] - a[..., 1, :]], axis=-2)
        h *= 2
    return a.reshape(*lead, size)


def xor_convolve(avg: np.ndarray, columns: np.ndarray) -> np.ndarray:
    """out[c, i] = sum_d avg[d] * columns[c, i ^ d]."""
    return fwht(fwht(avg) * fwht(columns)) / avg.size


def map_tie_sets(table: np.ndarray, avg: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(classes, member[c, o]): output classes whose posterior score at
    observation o is within TIE_REL_TOL of the best (uniform prior)."""
    classes = np.unique(table)
    indicators = (table[None, :] == classes[:, None]).astype(np.float64) / table.size
    scores = xor_convolve(avg, indicators)
    best = scores.max(axis=0)
    return classes, scores >= best - TIE_REL_TOL * np.abs(best)


def few_output_bounds(table: np.ndarray, avg: np.ndarray, decoder: str):
    """Exact-loss error per input, as (low, high).

    The bounds differ only where MAP scores tie: the decoder may pick any
    tied class, so the low bound counts a tied observation as decoded
    right whenever the true class is among the tied ones.
    """
    classes = np.unique(table)
    if decoder == "identity":
        member = table[None, :] == classes[:, None]
        unique = member
    else:
        classes, member = map_tie_sets(table, avg)
        unique = member & (member.sum(axis=0) == 1)
    truth_class = np.searchsorted(classes, table)
    rows = np.arange(table.size)
    right_sure = xor_convolve(avg, unique.astype(np.float64))[truth_class, rows]
    right_maybe = xor_convolve(avg, member.astype(np.float64))[truth_class, rows]
    return 1.0 - right_maybe, 1.0 - right_sure


def be_absolute_profile(group: str, energies: np.ndarray) -> np.ndarray:
    """E|decoded - truth| per input for be read as-is.

    With the top flipped bit at t, the decoded value moves by
    s_t 2**t + sum_{j<t} d_j s_j 2**j (s_j = 1 - 2 * bit j of the input),
    whose magnitude is 2**t + s_t * sum_{j<t} d_j s_j 2**j.
    """
    q = np.exp2(-np.asarray(energies, dtype=np.float64))
    n = q.size
    s = 1.0 - 2.0 * _bits(n)
    w = np.exp2(np.arange(n))
    if group == "symmetric":
        # average over patterns with m flips: C(t, m-1) of them have top bit t,
        # and each lower bit is set in C(t-1, m-2) of those
        a = flip_count_weights(q)
        per = [a[m] / math.comb(n, m) for m in range(n + 1)]
        top = np.array([sum(per[m] * _comb(t, m - 1) for m in range(1, n + 1))
                        for t in range(n)])
        lower = np.array([sum(per[m] * _comb(t - 1, m - 2) for m in range(2, n + 1))
                          for t in range(n)])
        below = np.cumsum(s * w, axis=1) - s * w
        return (top * w).sum() + (s * below * lower).sum(axis=1)
    total = np.zeros(1 << n)
    vectors = group_flip_vectors(group, q)
    for qv in vectors:
        above = np.concatenate([np.cumprod((1.0 - qv)[::-1])[::-1][1:], [1.0]])
        top = qv * above
        below = np.cumsum(qv * s * w, axis=1) - qv * s * w
        total += (top * w).sum() + (s * below * top).sum(axis=1)
    return total / len(vectors)


def _comb(a: int, b: int) -> int:
    return math.comb(a, b) if 0 <= b <= a else 0


def row_loss_moments(spec: dict) -> tuple[float, float]:
    """Exact mean and variance of one row's loss (decoder reads bits as-is)."""
    table = truth_table(spec["kind"], spec["n"])
    avg = pattern_distribution(spec["group"], spec["energies"])
    row = spec["row"]
    decoded = table[row ^ np.arange(table.size)]
    if spec["loss"] == "exact":
        loss = (decoded != table[row]).astype(np.float64)
    else:
        loss = np.abs(decoded - table[row]).astype(np.float64)
    mean = float(avg @ loss)
    return mean, max(float(avg @ (loss * loss)) - mean * mean, 0.0)


# ---------------------------------------------------------------------------
# item checks: each raises CheckError on a wrong output

def _json_result(text: str) -> dict:
    try:
        return json.loads(text)["result"]
    except (ValueError, KeyError, TypeError) as exc:
        raise CheckError(f"unreadable JSON output: {exc}") from None


def _expect(cond: bool, message: str) -> None:
    if not cond:
        raise CheckError(message)


def check_price(item, text: str) -> float:
    rows = [line for line in text.strip().split("\n") if not line.startswith("#")]
    _expect(len(rows) == 2 and rows[0] == "problem,n,mobs,mode", "malformed CSV output")
    name, n, value, mode = rows[1].split(",")
    spec = item.spec
    _expect((name, int(n), mode) == (spec["name"], spec["n"], "exact"),
            f"row {rows[1]!r} is not an exact {spec['name']} price at n={spec['n']}")
    price = float(value)
    if spec["kind"] in ("or", "ue"):
        _expect(1.0 <= price <= 1.001, f"symmetric price {price} outside [1, 1.001]")
    _expect(item.id in REFERENCE["price_sweep"], f"no recorded reference for {item.id}")
    ref = float(REFERENCE["price_sweep"][item.id])
    _expect(abs(price - ref) <= PRICE_REL_TOL * abs(ref),
            f"price {price} differs from the recorded {ref}")
    return price


def check_frozen_prices(items, prices: dict) -> dict:
    """Cross-item check: max price over a problem's budgets vs frozen values.

    Returns {item id: message} for the items of each group that misses.
    """
    failures = {}
    for (name, n), (want, tol) in FROZEN_PRICES.items():
        group = [it for it in items if (it.spec["name"], it.spec["n"]) == (name, n)]
        if not group or any(it.id not in prices for it in group):
            continue
        got = max(prices[it.id] for it in group)
        if abs(got - want) > tol:
            for it in group:
                failures[it.id] = f"{name} n={n} price {got} is not the frozen {want}"
    return failures


def check_report(item, text: str) -> None:
    spec = item.spec
    body = _json_result(text)
    size = 1 << spec["n"]
    setting = "clairvoyant" if spec["group"] == "identity" else f"blindfolded:{spec['group']}"
    _expect((body.get("setting"), body.get("mode"), body.get("loss"))
            == (setting, "exact", spec["loss"]), "report header does not match the call")
    rows = body.get("per_input", [])
    _expect([r.get("row") for r in rows] == list(range(size)),
            f"report does not list rows 0..{size - 1} in order")
    got = np.array([r["p_err"] for r in rows], dtype=np.float64)
    avg = pattern_distribution(spec["group"], spec["energies"])
    if spec["kind"] == "be":
        low = high = be_absolute_profile(spec["group"], spec["energies"])
    else:
        low, high = few_output_bounds(truth_table(spec["kind"], spec["n"]), avg,
                                      spec["decoder"])
    slack = REPORT_ABS_TOL + REPORT_REL_TOL * np.maximum(np.abs(low), np.abs(high))
    bad = np.flatnonzero((got < low - slack) | (got > high + slack))
    _expect(bad.size == 0,
            f"{bad.size} rows off the reference, first row {bad[:1].tolist()}: "
            f"{got[bad[:1]].tolist()} vs [{low[bad[:1]].tolist()}, {high[bad[:1]].tolist()}]")


def check_sampled_mobs(item, text: str) -> None:
    spec = item.spec
    body = _json_result(text)
    _expect((body.get("problem"), body.get("n"), body.get("mode"), body.get("samples"))
            == (spec["name"], spec["n"], "monte_carlo", spec["samples"]),
            "sampled price header does not match the call")
    _expect(body.get("converged") is True and len(body.get("per_budget", [])) == 1,
            "sampled price must hold one converged budget")
    price = body.get("mobs")
    # a probe row whose clairvoyant estimate is 0 prices at "inf"
    _expect(price == "inf" or (isinstance(price, float) and price > 0.0),
            f"sampled price {price!r} is neither positive nor inf")


def check_sampled_row(item, text: str) -> None:
    spec = item.spec
    body = _json_result(text)
    _expect((body.get("row"), body.get("mode"), body.get("samples"), body.get("loss"))
            == (spec["row"], "monte_carlo", spec["samples"], spec["loss"]),
            "sampled row header does not match the call")
    mean, var = row_loss_moments(spec)
    se = math.sqrt(var / spec["samples"])
    gap = abs(float(body["p_err"]) - mean)
    _expect(gap <= SAMPLED_SE_LIMIT * se + REPORT_ABS_TOL,
            f"estimate {body['p_err']} is {gap / se if se else math.inf:.2f} standard "
            f"errors from the exact {mean}")


CHECKS = {"price": check_price, "report": check_report,
          "sampled_mobs": check_sampled_mobs, "sampled_row": check_sampled_row}
