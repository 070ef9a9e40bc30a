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


def brute_pattern_probabilities(energies) -> np.ndarray:
    """All 2**n pattern probabilities by the doubling recursion: each bit j
    doubles the vector, the low half times 1 - q_j, the high half times q_j,
    so every entry multiplies its factors in order j = 0..n-1."""
    q = np.exp2(-np.asarray(energies.entries, dtype=np.float64))
    probs = np.array([1.0])
    for j in range(q.size):
        probs = np.concatenate([probs * (1.0 - q[j]), probs * q[j]])
    return probs


def brute_monte_carlo_error(table, energies, group, decoder, i: int, loss: str,
                            samples: int, rng, batch: int) -> tuple:
    """Sampled error of row i, drawn batch by batch in the same generator
    order as the library, then decoded from the observed bits.  Under the
    full symmetric group each trial draws a flip count from the
    Poisson-binomial law, then a rank into the numerically ordered list of
    patterns with that many flips, enumerated here in full.  Under the
    identity group, and under a generated group whose order times the
    table sizes of its blocks is at most ALIAS_ENTRIES_LIMIT, each trial
    draws an element (the identity group draws none), then each block of
    COIN_BLOCK_BITS bits takes one uniform per trial, block by block,
    looked up one at a time in the library's alias table of that element's
    block law (tests/test_adversary.py checks each table's law against the
    block's).  A larger generated group rewires the energies by a drawn
    permutation and flips each bit against 2**-e."""
    from inexact import adversary
    from inexact.adversary import (COIN_BLOCK_BITS, FullSymmetricGroup, GeneratedGroup,
                                   _alias_table, _mismatch_count_weights,
                                   sample_energy_assignments)
    from inexact.noise import energy_vector

    n = table.n
    bits = (np.int64(i) >> np.arange(n, dtype=np.int64)) & 1
    truth = int(table.outputs[i])
    weights = np.left_shift(np.int64(1), np.arange(n, dtype=np.int64))
    by_count = [[] for _ in range(n + 1)]
    for d in range(1 << n):
        by_count[bin(d).count("1")].append(d)
    cdf = np.cumsum(_mismatch_count_weights(np.exp2(-energies.entries)))
    cdf /= cdf[-1]
    entries = group.order() * sum(1 << min(COIN_BLOCK_BITS, n - lo)
                                  for lo in range(0, n, COIN_BLOCK_BITS))
    coins = isinstance(group, GeneratedGroup) and entries > adversary.ALIAS_ENTRIES_LIMIT
    tables = {}  # (element, lo) -> (prob, alias) as lists
    total = total_sq = 0.0
    done = 0
    while done < samples:
        m = min(batch, samples - done)
        if isinstance(group, FullSymmetricGroup):
            counts = np.searchsorted(cdf, rng.random(m), side="right")
            ranks = rng.integers(np.array([len(by_count[k]) for k in counts],
                                          dtype=np.int64))
            patterns = np.array([by_count[k][r] for k, r in zip(counts, ranks)],
                                dtype=np.int64)
            flips = (patterns[:, None] >> np.arange(n, dtype=np.int64)) & 1
        elif coins:
            assigned = sample_energy_assignments(group, energies, m, rng)
            flips = rng.random((m, n)) < np.exp2(-assigned)
        else:
            elements = [tuple(sigma) for sigma in group.sample(m, rng).tolist()]
            patterns = [0] * m
            for lo in range(0, n, COIN_BLOCK_BITS):
                for t, u in enumerate(rng.random(m).tolist()):
                    if (elements[t], lo) not in tables:
                        rewired = energies.entries[list(elements[t])]
                        block = energy_vector(rewired[lo:lo + COIN_BLOCK_BITS])
                        tables[elements[t], lo] = [
                            a.tolist() for a in _alias_table(brute_pattern_probabilities(block))]
                    prob, alias = tables[elements[t], lo]
                    x = u * len(prob)
                    slot = int(x)
                    patterns[t] |= (slot if x - slot < prob[slot] else alias[slot]) << lo
            patterns = np.array(patterns, dtype=np.int64)
            flips = (patterns[:, None] >> np.arange(n, dtype=np.int64)) & 1
        observed = (bits[None, :] ^ flips) @ weights
        decoded = decoder.decode_map[observed]
        if loss == "exact":
            vals = (decoded != truth).astype(np.float64)
        else:
            vals = np.abs(decoded - truth).astype(np.float64)
        total += vals.sum()
        total_sq += (vals * vals).sum()
        done += m
    mean = total / samples
    var = max(total_sq / samples - mean * mean, 0.0)
    return float(mean), float(np.sqrt(var / samples))


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


def one_row_at_a_time(score):
    """A row function, (K, n) energy rows -> K values, that scores each row
    alone through score(EnergyVector) -> float."""
    from inexact.noise import energy_vector

    return lambda rows: np.array([score(energy_vector(row)) for row in rows])


def brute_descent(fn, budget: float, n: int, seeds) -> tuple:
    """The first-improvement pairwise descent, one candidate move at a time:
    at each step size (halving from 1 to DESCENT_MIN_STEP) every ordered pair
    (a, b) that can give a step moves it from a to b, scored alone as a
    one-row stack, and stays when it improves by more than IMPROVEMENT_EPS.
    A seed equal to an earlier one is skipped.  Returns (energies, objective
    value, evaluations, converged) of the best seed's run."""
    from inexact.allocators import DESCENT_MIN_STEP, DESCENT_PASS_CAP, IMPROVEMENT_EPS

    best = None
    evaluations = 0
    converged_all = True
    for s, seed in enumerate(seeds):
        if any(np.array_equal(seed.entries, earlier.entries) for earlier in seeds[:s]):
            continue  # a repeated seed walks the same path again
        e = np.array(seed.entries, dtype=np.float64)
        value = fn(e[None, :])[0]
        evaluations += 1
        passes, step, converged = 0, 1.0, False
        while passes < DESCENT_PASS_CAP:
            improved = False
            for a in range(n):
                for b in range(n):
                    if a == b or e[a] < step:
                        continue
                    trial = e.copy()
                    trial[a] -= step
                    trial[b] += step
                    trial_value = fn(trial[None, :])[0]
                    evaluations += 1
                    if trial_value < value - IMPROVEMENT_EPS:
                        e, value = trial, trial_value
                        improved = True
            passes += 1
            if not improved:
                if step <= DESCENT_MIN_STEP:
                    converged = True
                    break
                step /= 2.0
        converged_all = converged_all and converged
        if best is None or value < best[1] - IMPROVEMENT_EPS:
            best = (e, value)
    return best[0], float(best[1]), evaluations, converged_all
