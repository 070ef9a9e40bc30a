"""Permutation adversaries over energy assignments.

An adversary draws a permutation sigma uniformly from a fixed group and
rewires the energy vector so that bit j is read at energy entries[sigma[j]].
The identity group models a clairvoyant designer (assignments stick); the
full symmetric group models a blindfolded one (any rewiring is equally
likely); smaller generated groups interpolate.

Independence across bits makes the observation of input i land on i XOR d
with a probability that depends only on the flip pattern d, so the group
average is one 2**n vector shared by every input.  Each group class owns
that law: ``law`` gives it exactly, ``sample_patterns`` draws packed
patterns from it, ``marginal`` gives each bit's flip probability,
``average`` the mean of a row score over the rewired rows, and ``setting``
names the designer ("clairvoyant" or "blindfolded:<kind>").

* identity   -- law: the channel's product over bits.  sampled: bit j flips
                when a uniform draw falls below q[j].  average: one call.
* generated  -- law: the mean of the channel over the rewired flip vectors
                q[sigma].  sampled: one element per trial, then the
                identity's coins against q[sigma].
* symmetric  -- law: a[popcount(d)] / C(n, popcount(d)), a the flip-count
                law (a Poisson binomial), polynomial in n where the
                elements are factorial.  sampled: a count K from a, then a
                uniform K-subset, so a trial costs two draws and n unranking
                steps instead of a permutation.

Generated and symmetric groups average over their explicit elements.
"""

from __future__ import annotations

import itertools
import math
import operator
from typing import Sequence

import numpy as np

from .bits import ResourceLimitError, as_rng, popcount_table
from .noise import (EnergyVector, _flip_patterns, energy_rows, flip_probability,
                    pattern_probabilities)

SYMMETRIC_ENUM_LIMIT = 9          # 9! = 362880 explicit elements
GENERATED_ORDER_LIMIT = 1_000_000  # closure size guard
EXACT_OPS_LIMIT = 50_000_000       # order * 2**n guard for generated averages
_ROW_BLOCK = 1 << 18               # pattern entries per batch of rows x group elements

GROUP_KINDS = ("identity", "symmetric", "generated")


def _mismatch_count_weights(q: np.ndarray) -> np.ndarray:
    """P{exactly m bits flip}, m = 0..n, for each flip vector along q's last
    axis (Poisson binomial): bit j takes a[m] to a[m] * (1 - q_j) +
    a[m - 1] * q_j, the two taps of np.convolve(a, (1 - q_j, q_j))."""
    n = q.shape[-1]
    q = np.moveaxis(q, -1, 0)
    a = np.zeros((n + 1,) + q.shape[1:])
    a[0] = 1.0
    for j in range(n):
        flipped = a[:j + 1] * q[j]
        a[:j + 1] *= 1.0 - q[j]
        a[1:j + 2] += flipped
    return np.moveaxis(a, 0, -1)


def _flip_coins(q: np.ndarray, count: int, rng) -> np.ndarray:
    """count packed patterns, bit j set when a uniform draw falls below q[..., j]."""
    n = q.shape[-1]
    flips = rng.random((count, n)) < q
    return flips @ np.left_shift(np.int64(1), np.arange(n, dtype=np.int64))


class PermutationGroup:
    """Base: a subgroup of S_n acting on bit positions.

    Each class defines its own sample (uniform elements, one per row), which
    perfbench/spans.py times.  law, sample_patterns and marginal take energy
    rows or flip vectors q = 2**-e of width n unchecked: the module's
    functions (average_pattern_probabilities, ...) check.
    """

    kind: str

    def __init__(self, n: int):
        if n < 1:
            raise ValueError("n must be >= 1")
        self.n = int(n)

    def order(self) -> int:
        raise NotImplementedError

    def elements(self) -> np.ndarray:
        """All elements, one permutation per row."""
        raise NotImplementedError

    def law(self, rows: np.ndarray) -> np.ndarray:
        """(K, n) energy rows -> (K, 2**n) group-averaged pattern laws."""
        raise NotImplementedError

    def sample_patterns(self, q: np.ndarray, count: int, rng) -> np.ndarray:
        """count packed flip patterns d (bit j set when bit j flips) drawn
        from the law that law gives exactly, for the flip vector q."""
        raise NotImplementedError

    def marginal(self, q: np.ndarray) -> np.ndarray:
        """Per-bit flip probability averaged over the draw."""
        return q[self.elements()].mean(axis=0)

    def average(self, fn, rows: np.ndarray) -> np.ndarray:
        """Per energy row, the exact entry-wise mean of fn over the group's
        rewirings of that row, in element order: the rewired row for sigma
        gives bit j the entry sigma[j].  fn scores a stack of rows."""
        out = fn(rows)
        # a flat row rewires to itself under every element
        moving = np.flatnonzero(np.ptp(rows, axis=1) != 0.0)
        if moving.size:
            elements = self.elements()  # may raise the enumeration guard
            for r in moving:
                out[r] = np.mean(fn(rows[r][elements]), axis=0)
        return out

    @property
    def setting(self) -> str:
        return f"blindfolded:{self.kind}"

    def check_width(self, width: int) -> None:
        if width != self.n:
            raise ValueError(f"group acts on {self.n} bits, energies have {width}")

    def __repr__(self) -> str:
        return f"{type(self).__name__}(n={self.n})"


class IdentityGroup(PermutationGroup):
    """The trivial group: energies stay where they were assigned."""

    kind = "identity"
    setting = "clairvoyant"

    def order(self) -> int:
        return 1

    def elements(self) -> np.ndarray:
        return np.arange(self.n, dtype=np.int64)[None, :]

    def sample(self, count: int, rng=None) -> np.ndarray:
        return np.tile(np.arange(self.n, dtype=np.int64), (count, 1))

    def law(self, rows: np.ndarray) -> np.ndarray:
        return pattern_probabilities(rows)

    def sample_patterns(self, q: np.ndarray, count: int, rng) -> np.ndarray:
        return _flip_coins(q, count, rng)

    def marginal(self, q: np.ndarray) -> np.ndarray:
        return q

    def average(self, fn, rows: np.ndarray) -> np.ndarray:
        return fn(rows)  # nothing moves


class FullSymmetricGroup(PermutationGroup):
    """All of S_n: the adversary may rewire energies arbitrarily."""

    kind = "symmetric"
    _elements = None  # enumerated on the first elements() call

    def order(self) -> int:
        return math.factorial(self.n)

    def elements(self) -> np.ndarray:
        """All n! permutations in lexicographic order, enumerated on the first
        call and shared, read-only, by every later one."""
        if self._elements is None:
            if self.n > SYMMETRIC_ENUM_LIMIT:
                raise ResourceLimitError(
                    f"enumerating S_{self.n} ({math.factorial(self.n)} elements) exceeds "
                    f"the n <= {SYMMETRIC_ENUM_LIMIT} guard; use sample() or the "
                    f"closed-form averages instead")
            elements = np.array(list(itertools.permutations(range(self.n))), dtype=np.int64)
            elements.flags.writeable = False
            self._elements = elements
        return self._elements

    def sample(self, count: int, rng=None) -> np.ndarray:
        base = np.tile(np.arange(self.n, dtype=np.int64), (count, 1))
        return as_rng(rng).permuted(base, axis=1)

    def law(self, rows: np.ndarray) -> np.ndarray:
        n = self.n
        a = _mismatch_count_weights(flip_probability(rows))
        counts = np.array([math.comb(n, k) for k in range(n + 1)], dtype=np.float64)
        return (a / counts)[:, popcount_table(n)]

    def sample_patterns(self, q: np.ndarray, count: int, rng) -> np.ndarray:
        # each trial draws the flip count K, then a rank r < C(n, K), the
        # r-th K-subset in numeric order
        n = self.n
        cdf = np.cumsum(_mismatch_count_weights(q))
        cdf /= cdf[-1]
        # side="right" never lands on a count of zero weight (a flat cdf step)
        k = np.searchsorted(cdf, rng.random(count), side="right")
        # binom[j, c] = C(j, c), 0 when c > j
        binom = np.array([[math.comb(j, c) for c in range(n + 1)] for j in range(n + 1)],
                         dtype=np.int64)
        rank = rng.integers(binom[n, k])
        # unranking: C(j, k) k-subsets of the bits below j precede the first
        # one that sets bit j
        d = np.zeros(count, dtype=np.int64)
        for j in range(n - 1, -1, -1):
            below = binom[j, k]
            take = rank >= below
            rank -= below * take
            k -= take
            d |= take.astype(np.int64) << j
        return d

    def marginal(self, q: np.ndarray) -> np.ndarray:
        return np.full(self.n, q.mean())


class GeneratedGroup(PermutationGroup):
    """Subgroup generated by explicit permutations (closure by products).

    Finite order makes inverses reachable as powers, so products alone
    close the group.  The closure is capped at GENERATED_ORDER_LIMIT.
    """

    kind = "generated"

    def __init__(self, n: int, generators: Sequence[Sequence[int]]):
        super().__init__(n)
        gens = [self._check_perm(g) for g in generators]
        identity = tuple(range(self.n))
        seen = {identity}
        frontier = [identity]
        while frontier:
            nxt = []
            for p in frontier:
                for g in gens:
                    q = tuple(p[g[j]] for j in range(self.n))
                    if q not in seen:
                        seen.add(q)
                        nxt.append(q)
                        if len(seen) > GENERATED_ORDER_LIMIT:
                            raise ResourceLimitError(
                                f"generated group exceeds {GENERATED_ORDER_LIMIT} elements")
            frontier = nxt
        self._elements = np.array(sorted(seen), dtype=np.int64)
        self.generators = [tuple(g) for g in gens]

    def _check_perm(self, g) -> tuple:
        g = tuple(map(operator.index, g))  # integers only (numpy's too): 1.7 is refused
        if sorted(g) != list(range(self.n)):
            raise ValueError(f"not a permutation of 0..{self.n - 1}: {g!r}")
        return g

    def order(self) -> int:
        return int(self._elements.shape[0])

    def elements(self) -> np.ndarray:
        return self._elements

    def sample(self, count: int, rng=None) -> np.ndarray:
        idx = as_rng(rng).integers(self.order(), size=count)
        return self._elements[idx]

    def law(self, rows: np.ndarray) -> np.ndarray:
        """The rewired flip vectors q[sigma], one batch of elements at a
        time, summed in element order."""
        order, n = self.order(), self.n
        if order * (1 << n) > EXACT_OPS_LIMIT:
            raise ResourceLimitError(
                f"averaging {order} elements over 2**{n} patterns exceeds the exact guard")
        rewired = flip_probability(rows)[:, self._elements]
        chunk = max(1, _ROW_BLOCK // (rows.shape[0] << n))
        total = np.zeros((rows.shape[0], 1 << n))
        for lo in range(0, order, chunk):
            patterns = _flip_patterns(rewired[:, lo:lo + chunk])
            for element in range(patterns.shape[1]):
                total += patterns[:, element]
        return total / order

    def sample_patterns(self, q: np.ndarray, count: int, rng) -> np.ndarray:
        return _flip_coins(q[self._elements][rng.integers(self.order(), size=count)],
                           count, rng)


def build_group(kind: str, n: int, generators=None) -> PermutationGroup:
    if kind == "identity":
        return IdentityGroup(n)
    if kind == "symmetric":
        return FullSymmetricGroup(n)
    if kind == "generated":
        if not generators:
            raise ValueError("generated groups need at least one generator")
        return GeneratedGroup(n, generators)
    raise ValueError(f"unknown group kind {kind!r}; expected one of {GROUP_KINDS}")


def sample_energy_assignments(group: PermutationGroup, energies: EnergyVector,
                              count: int, rng=None) -> np.ndarray:
    """Matrix of adversarially rewired energy rows, entries[sigma[j]] at j."""
    group.check_width(energies.n)
    return energies.entries[group.sample(count, rng)]


def average_pattern_probabilities(group: PermutationGroup, energies) -> np.ndarray:
    """Group-averaged probability of each flip pattern d in 0..2**n-1: the
    observation of input i is i XOR d with this probability, uniformly over
    the adversary's draw (group.law, see the module docstring).

    energies is an EnergyVector (one vector back) or a (K, n) stack of
    energy rows (a (K, 2**n) stack back, each row bit for bit the vector
    of that row alone).
    """
    rows = energy_rows(energies)
    group.check_width(rows.shape[1])
    avg = group.law(rows)
    return avg[0] if isinstance(energies, EnergyVector) else avg


def marginal_flip_probability(group: PermutationGroup,
                              energies: EnergyVector) -> np.ndarray:
    """Per-bit flip probability averaged over the adversary's draw."""
    group.check_width(energies.n)
    return group.marginal(flip_probability(energies))


def amgm_bound(energies: EnergyVector) -> float:
    """Lower bound 2**-(budget/n) on the mean per-bit flip probability.

    Convexity of 2**-e puts the average of the per-bit flip probabilities at
    or above the flip probability of the average energy, with equality only
    for uniform energies.
    """
    return float(2.0 ** (-energies.budget / energies.n))
