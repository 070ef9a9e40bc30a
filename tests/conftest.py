"""Shared first-principles oracles for the test suite.

Everything here recomputes model quantities the slow, obvious way: explicit
loops over permutations, flip patterns, and read outcomes.  Library results
are checked against these, never against themselves.
"""

import numpy as np


def brute_output(problem, bits) -> int:
    """A problem's output on one bit vector, straight from its kind's
    definition, with plain Python integers."""
    b = [int(x) for x in bits]

    def value(field):
        return sum(bit << j for j, bit in enumerate(field))

    kind, params = problem.kind, problem.params
    if kind == "or":
        return int(any(b))
    if kind == "ue":
        return sum(b)
    if kind == "be":
        return value(b)
    if kind == "tribes":
        size = problem.n // params["tribe_count"]
        return int(any(all(b[c * size:(c + 1) * size])
                       for c in range(params["tribe_count"])))
    if kind == "comparison":
        x, y = value(b[:params["k"]]), value(b[params["k"]:])
        return (x > y) - (x < y)
    if kind == "sorting":
        width = params["width"]
        values = sorted(value(b[m * width:(m + 1) * width])
                        for m in range(params["count"]))
        return sum(v << (width * m) for m, v in enumerate(values))
    if kind == "custom":
        return int(params["outputs"][value(b)])
    raise ValueError(f"no oracle for kind {kind!r}")


def brute_pattern_probability(energies: np.ndarray, pattern: int) -> float:
    """P{flip pattern} as a plain per-bit product."""
    p = 1.0
    for j, e in enumerate(energies):
        q = 2.0 ** (-e)
        p *= q if (pattern >> j) & 1 else 1.0 - q
    return p


def brute_error(table, energies, group, decoder, i: int, loss: str) -> float:
    """Per-input error from the definition: average over the group's
    elements and all flip patterns."""
    n = table.n
    total = 0.0
    elements = group.elements()
    for sigma in elements:
        permuted = energies.entries[np.asarray(sigma)]
        for d in range(1 << n):
            p = brute_pattern_probability(permuted, d)
            decoded = int(decoder.decode_map[i ^ d])
            truth = int(table.outputs[i])
            if loss == "exact":
                w = float(decoded != truth)
            else:
                w = float(abs(decoded - truth))
            total += p * w
    return total / len(elements)


def brute_map_scores(table, energies, group, observed: int, prior=None) -> dict:
    """Posterior mass per output value, summing likelihoods row by row."""
    n = table.n
    if prior is None:
        prior = np.full(1 << n, 1.0 / (1 << n))
    elements = group.elements()
    scores = {}
    for i in range(1 << n):
        like = 0.0
        for sigma in elements:
            permuted = energies.entries[np.asarray(sigma)]
            like += brute_pattern_probability(permuted, i ^ observed)
        like /= len(elements)
        v = int(table.outputs[i])
        scores[v] = scores.get(v, 0.0) + prior[i] * like
    return scores


def brute_pair_wrong(x: int, y: int, x_energies, y_energies) -> float:
    """Wrong-verdict probability of the pooled most-significant-first scan,
    by recursion over read outcomes."""
    x_energies = np.asarray(x_energies, dtype=float)
    y_energies = np.asarray(y_energies, dtype=float)
    k = x_energies.size
    p = 2.0 ** (-(x_energies + y_energies))
    want = (x > y) - (x < y)

    def walk(j: int, mass: float) -> float:
        if j < 0:
            # every position read as a tie; verdict "equal"
            return mass if want != 0 else 0.0
        xb = (x >> j) & 1
        yb = (y >> j) & 1
        t = (xb > yb) - (xb < yb)
        wrong = 0.0
        if t == 0:
            # misread tie decides either way with half the error mass each
            if want != 1:
                wrong += mass * p[j] / 2.0
            if want != -1:
                wrong += mass * p[j] / 2.0
            wrong += walk(j - 1, mass * (1.0 - p[j]))
        else:
            if want != t:
                wrong += mass * (1.0 - p[j])
            if want != -t:
                wrong += mass * p[j]
        return wrong

    return walk(k - 1, 1.0)
