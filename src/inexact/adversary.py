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

* identity   -- law: the channel's product over bits.  sampled: one
                uniform per block of COIN_BLOCK_BITS bits, read through
                Walker's alias table of that block's own product law
                (independent bits factorise over blocks), so a trial costs
                n / COIN_BLOCK_BITS draws instead of n.  average: one call.
* generated  -- law: the mean of the channel over the rewired flip vectors
                q[sigma].  sampled: one element per trial, then one uniform
                per block read through that element's alias table of the
                block law of q[sigma], as the identity group draws.  A
                group needing more than ALIAS_ENTRIES_LIMIT table entries
                (its order times the table sizes of the blocks) draws a
                coin per bit instead: bit j flips when a uniform draw falls
                below q[sigma][j].
* symmetric  -- law: a[popcount(d)] / C(n, popcount(d)), a the flip-count
                law (a Poisson binomial), polynomial in n where the
                elements are factorial.  sampled: a count K from a, then a
                uniform K-subset, so a trial costs two draws instead of a
                permutation.  K is read through a guide table of a's cdf
                over _GUIDE_BUCKETS equal buckets of the uniform (Chen and
                Asau; Devroye, Non-Uniform Random Variate Generation,
                III.2.4): a bucket that holds no cdf breakpoint gives its
                count directly, the draws in the others search the cdf.
                The subset's rank is unranked one bit at a time down to
                UNRANK_LOW_BITS, and the low bits are one gather from a
                table of the low-width patterns.

Generated and symmetric groups average over their explicit elements.  A
group builds the tables of a flip vector (alias tables, or the symmetric
group's cdf and guide) once and keeps those of its last flip vector, so
the batches of one sampled row and the probe rows that share energies read
one table set.  Draws work through a batch _DRAW_CHUNK trials at a time,
so their temporaries stay in cache; the rng calls take the whole batch,
so the drawn patterns do not depend on the chunk.
"""

from __future__ import annotations

import functools
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
UNRANK_LOW_BITS = 14               # symmetric draws gather their low bits from a table
COIN_BLOCK_BITS = 8                # alias draws take one uniform per block of bits
ALIAS_ENTRIES_LIMIT = 1 << 14      # generated groups past this many table entries draw coins
_ROW_BLOCK = 1 << 18               # pattern entries per batch of rows x group elements
_DRAW_CHUNK = 1 << 14              # trials per pass of a draw loop's arithmetic
_GUIDE_BUCKETS = 1 << 12           # equal buckets of the uniform in a flip-count guide

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


@functools.lru_cache(maxsize=None)
def _binomials(n: int) -> np.ndarray:
    """Read-only (n + 1, n + 1) table, entry [j, c] = C(j, c), 0 when c > j."""
    binom = np.array([[math.comb(j, c) for c in range(n + 1)] for j in range(n + 1)],
                     dtype=np.int64)
    binom.flags.writeable = False
    return binom


@functools.lru_cache(maxsize=None)
def _low_patterns(width: int) -> tuple[np.ndarray, np.ndarray]:
    """All width-bit patterns sorted by flip count, then by value, and
    starts[k], the position of the first one with k flips: the r-th
    k-subset in numeric order is patterns[starts[k] + r].  Read-only."""
    counts = popcount_table(width)
    patterns = np.argsort(counts, kind="stable")
    starts = np.concatenate(([0], np.cumsum(np.bincount(counts, minlength=width + 1))))
    for a in (patterns, starts):
        a.flags.writeable = False
    return patterns, starts


def _alias_table(law: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Walker's alias table (prob, alias) of a law over 2**w outcomes, by
    Vose's construction in Python floats: a draw lands in slot k uniformly
    and keeps k when its fraction within the slot falls below prob[k], else
    it takes alias[k].  The law is scaled by 2**w, exactly, and not divided
    by its sum, so the table is the same bytes whatever numpy's summation
    order; an outcome of weight 0 keeps no fraction of its slot."""
    size = law.size
    weight = (law * size).tolist()
    prob = [1.0] * size
    alias = list(range(size))
    small = [k for k, p in enumerate(weight) if p < 1.0]
    large = [k for k, p in enumerate(weight) if p >= 1.0]
    while small and large:
        s, g = small.pop(), large.pop()
        prob[s], alias[s] = weight[s], g
        weight[g] = (weight[g] + weight[s]) - 1.0
        (small if weight[g] < 1.0 else large).append(g)
    # the slots left over hold weight 1 up to rounding and keep their draws
    return np.array(prob), np.array(alias, dtype=np.int64)


def _block_tables(rows: np.ndarray) -> list:
    """(lo, w, prob, alias) for each block of COIN_BLOCK_BITS bits from bit
    lo, w bits wide: the alias tables of the block laws of the (E, n) flip
    vectors rows, laid end to end, row r's at [r * 2**w, (r + 1) * 2**w)
    with its aliases counted within it.  Rows that agree on a block share
    one build."""
    tables = []
    for lo in range(0, rows.shape[1], COIN_BLOCK_BITS):
        block = rows[:, lo:lo + COIN_BLOCK_BITS]
        laws = _flip_patterns(block)  # each row bit for bit its law alone
        keys = [r.tobytes() for r in block]
        built = {}
        for key, law in zip(keys, laws):
            if key not in built:
                built[key] = _alias_table(law)
        prob, alias = zip(*map(built.get, keys))
        tables.append((lo, block.shape[1], np.concatenate(prob), np.concatenate(alias)))
    return tables


def _chunks(count: int):
    """Slices over count trials, _DRAW_CHUNK at a time."""
    return (slice(at, at + _DRAW_CHUNK) for at in range(0, count, _DRAW_CHUNK))


def _alias_draws(tables: list, element, count: int, rng) -> np.ndarray:
    """count packed patterns: one uniform u per block and trial, all blocks'
    drawn at once, read through the table of the trial's element (an
    index array into the rows _block_tables took, or None for one row).
    Slot floor(u * 2**w), and the fraction past it picks the slot or its
    alias; both steps are exact."""
    u = rng.random((len(tables), count))
    d = np.zeros(count, dtype=np.int64)
    for span in _chunks(count):
        out = d[span]
        for x, (lo, width, prob, alias) in zip(u[:, span], tables):
            x *= 1 << width
            slot = x.astype(np.int64)
            x -= slot
            at = slot if element is None else slot + (element[span] << width)
            block = np.where(x < prob[at], slot, alias[at])
            block <<= lo
            out |= block
    return d


def _count_guide(q: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(cdf, first, split): the flip-count law's cdf for the flip vector q,
    and its guide over _GUIDE_BUCKETS equal buckets of [0, 1).  A uniform u
    in bucket b has searchsorted(cdf, u, "right") == first[b] unless a cdf
    breakpoint lies inside the bucket (split[b]).  side="right" never lands
    on a count of zero weight (a flat cdf step), here or in the search."""
    cdf = np.cumsum(_mismatch_count_weights(q))
    cdf /= cdf[-1]
    edges = np.arange(_GUIDE_BUCKETS + 1) / _GUIDE_BUCKETS
    first = np.searchsorted(cdf, edges[:-1], side="right")
    split = first != np.searchsorted(cdf, edges[1:], side="left")
    return cdf, first, split


def _guided_counts(guide: tuple, u: np.ndarray) -> np.ndarray:
    """searchsorted(cdf, u, side="right") for the uniforms u, read through
    the guide _count_guide made; only draws in split buckets search.  u
    times a power of two is exact, so each draw lands in its own bucket."""
    cdf, first, split = guide
    k = np.empty(u.size, dtype=np.int64)
    for span in _chunks(u.size):
        x = u[span]
        bucket = (x * _GUIDE_BUCKETS).astype(np.int64)
        counts = first[bucket]
        hard = np.flatnonzero(split[bucket])
        if hard.size:
            counts[hard] = np.searchsorted(cdf, x[hard], side="right")
        k[span] = counts
    return k


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
        self._tables = (None, None)  # last flip vector's bytes, its _build_tables

    def _tables_of(self, q: np.ndarray):
        """_build_tables of q, rebuilt only when q differs from the last
        flip vector."""
        key = q.tobytes()
        if self._tables[0] != key:
            self._tables = (key, self._build_tables(q))
        return self._tables[1]

    def _build_tables(self, q: np.ndarray):
        """_block_tables of the rewired flip vectors q[sigma], one row per
        element."""
        return _block_tables(q[self.elements()])

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
        return _alias_draws(self._tables_of(q), None, count, rng)

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
        return (a / _binomials(n)[n])[:, popcount_table(n)]

    def _build_tables(self, q: np.ndarray) -> tuple:
        return _count_guide(q)

    def sample_patterns(self, q: np.ndarray, count: int, rng) -> np.ndarray:
        # each trial draws the flip count K, then a rank r < C(n, K), the
        # r-th K-subset in numeric order
        n = self.n
        k = _guided_counts(self._tables_of(q), rng.random(count))
        binom = _binomials(n)
        rank = rng.integers(binom[n, k])
        low = min(n, UNRANK_LOW_BITS)
        patterns, starts = _low_patterns(low)
        d = np.empty(count, dtype=np.int64)
        for span in _chunks(count):
            kc, rc = k[span], rank[span]
            # unranking the bits above the low width, highest first: C(j, k)
            # k-subsets of the bits below j precede the first one that sets bit j
            high = np.zeros(kc.size, dtype=np.int64)
            for j in range(n - 1, low - 1, -1):
                below = binom[j].take(kc)
                take = rc >= below
                below *= take
                rc -= below
                kc -= take
                high <<= 1
                high |= take
            # the rest is the rank-th k-subset of the low bits, one gather
            out = patterns[starts[kc] + rc]
            if n > low:
                out |= high << low
            d[span] = out
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
        element = rng.integers(self.order(), size=count)
        full, rest = divmod(self.n, COIN_BLOCK_BITS)
        entries = self.order() * ((full << COIN_BLOCK_BITS) + (1 << rest if rest else 0))
        if entries > ALIAS_ENTRIES_LIMIT:
            return _flip_coins(q[self._elements[element]], count, rng)
        return _alias_draws(self._tables_of(q), element, count, rng)


def build_group(kind: str, n: int, generators=None) -> PermutationGroup:
    """The group of a kind; only a generated group takes generators."""
    if kind == "generated":
        if not generators:
            raise ValueError("generated groups need at least one generator")
        return GeneratedGroup(n, generators)
    if kind not in GROUP_KINDS:
        raise ValueError(f"unknown group kind {kind!r}; expected one of {GROUP_KINDS}")
    if generators is not None:
        raise ValueError(f"{kind} groups take no generators")
    return IdentityGroup(n) if kind == "identity" else FullSymmetricGroup(n)


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
