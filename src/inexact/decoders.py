"""Decoding observed rows and scoring how often the answer is wrong.

A decoder is a deterministic map from an observed n-bit row to an output
value.  Two strategies:

* identity -- trust the read bits and apply the function to them.
* map      -- Bayes rule: pick the output value with the highest posterior
              mass given the observed row, the uniform prior over inputs,
              and the channel (with the adversary's draw marginalized out,
              since the decoder never learns which permutation was used).

Error analysis leans on one fact: the observation of input i is i XOR d
where the flip pattern d has a probability independent of i, and averaging
over the adversary's permutation keeps it that way (see the adversary
module).  Because the decoder is fixed before the draw, the exact error of
input i under any group is

    err(i) = sum_d avg_pattern_prob[d] * loss(decode(i XOR d), f(i))

The weight of pattern d for input i, L[i, d] = loss(decode(i XOR d), f(i)),
depends on neither the energies nor the group, so the per-input errors are
one matrix-vector product, L @ avg_pattern_prob.  Grouping the patterns by
the decoded value v turns the same sum into XOR convolutions,

    err(i) = sum_v loss(v, f(i)) * (avg_pattern_prob (*) 1[decode = v])(i),

one per output class, and the fast Walsh-Hadamard transform computes each
in O(n 2**n).  Where the identity decoder reads a ramp table,
f(i) = f(0) + i, each flip costs |(i XOR d) - i| (the offset cancels; be
under the identity decoder), which depends on d only through its top
flipped bit t and the signs s_j = 1 - 2 bit_j(i) below it:

    |(i XOR d) - i| = 2**t + s_t * sum_{j<t} s_j d_j 2**j,

so err(i) needs only the law's mass on each top bit and its first moments
d_j below it.  Those are closed form in the flip vector under every group
(a product law, S_n's flip-count law, or a generated group's mean over its
elements), and ramp_profile builds every row from them by doubling over
the bits: no table, no 2**n law.  An ErrorAnalysis binds (truth table,
decoder, loss) and picks one of four kernels once, the first that
applies, shown by its ``kernel`` attribute; all but the ramp refuse past
DECODE_BITS_LIMIT bits:

* ramp   -- ramp_profile, O(2**n) per energy row from the group's
            top-flipped-bit moments, for the identity decoder on a ramp
            table from n = 10 up (below, a kept L's gemv per row is cheaper).
* matrix -- L whole, built tile by tile on the first call and kept, when
            4**n fits one vectorized block (n <= 11); a search that scores
            many energy vectors builds it once.
* xor    -- the convolutions, when the decoder's C output classes make them
            cheaper than a dense pass (C n 2**n < 4**n, and n >= 8, below
            which the transforms' fixed per-call cost outweighs a dense pass)
            and their C x 2**n arrays fit one block: or, tribes, comparison,
            ue, few-valued custom problems and sorting with narrow words at
            n >= 12.
* blocks -- L rebuilt on every call, one cache-sized tile of rows at a
            time, each tile's errors one matrix-vector product, for the
            other many-valued decoders (wide-word sorting, many-valued
            custom tables) at n >= 12.

The MAP decoder's scores are XOR convolutions too, and it picks between
them and dense row tiles by the same rule; having no matrix to keep, it
takes the transform from n = 8 up.  Every dense pass gathers
decode(r XOR d), or the pattern vector at r XOR d, through _dense_tiles:
index and gathered buffers of about 2**16 entries, allocated once per call
and refilled in place, so a pass costs its arithmetic and not page faults
on fresh temporaries.  error_profile is a one-shot ErrorAnalysis.
Losses: "exact" counts any wrong output, "absolute" weighs it by
|decoded - truth|.

The same fact makes sampling cheap across rows: monte_carlo_error draws
each batch of flip patterns once and decodes every requested row from
it, so a sampled mobs budget draws one stream per side for all its probe
rows, and a full sampled report one stream for all 2**n rows.  Each row's
estimate is the one a call for that row alone makes at the same seed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bits import ResourceLimitError, as_rng
from .noise import EnergyVector, energy_rows, flip_probability
from .adversary import (IdentityGroup, PermutationGroup, _binomials, _mismatch_count_weights,
                        average_pattern_probabilities)
from .problems import BooleanProblem, TruthTable, truth_table

DECODE_BITS_LIMIT = 14   # 2**n decode maps and error sums
MC_BITS_LIMIT = 20       # Monte Carlo decodes via packed row lookup
RAMP_BITS_LIMIT = 20     # 2**n rows of a ramp profile
MC_REPORT_WORK_LIMIT = 1 << 28  # rows x samples cap for full sampled reports
LOSS_KINDS = ("exact", "absolute")

_CHUNK_ENTRIES = 1 << 22  # floats per vectorized block
# a dense 2**n x 2**n pass runs a tile of rows at a time through buffers it
# reuses: about _TILE_ENTRIES entries (each buffer a few hundred KB, so the
# tile stays in cache), and never fewer than _TILE_MIN_ROWS rows, since
# OpenBLAS's gemv rounds a row by another path when a call has very few rows
_TILE_ENTRIES = 1 << 16
_TILE_MIN_ROWS = 16
_XOR_MIN_BITS = 8         # below this a dense gather beats the transforms' fixed cost
_RAMP_MIN_BITS = 10       # below this a kept loss matrix beats the ramp's per-bit calls
_TIE_REL_TOL = 1e-12      # MAP scores this close to a row's top score tie
_MC_BATCH = 1 << 16       # Monte Carlo draws per batch; seeded streams depend on it


@dataclass(frozen=True)
class Decoder:
    """Deterministic observed-row -> output-value map, kept read-only: a
    read-only int64 map (a truth table's column) is kept as given, any
    other is copied."""

    decode_map: np.ndarray

    def __post_init__(self):
        dm = np.asarray(self.decode_map, dtype=np.int64)
        if dm.ndim != 1 or dm.size == 0 or (dm.size & (dm.size - 1)) != 0:
            raise ValueError("decode map must cover all 2**n rows")
        if dm.flags.writeable:
            dm = dm.copy()
            dm.setflags(write=False)
        object.__setattr__(self, "decode_map", dm)

    @property
    def n(self) -> int:
        return int(self.decode_map.size).bit_length() - 1


def _as_table(problem) -> TruthTable:
    if isinstance(problem, TruthTable):
        return problem
    if isinstance(problem, BooleanProblem):
        return truth_table(problem)
    raise TypeError(f"expected a problem or truth table, got {type(problem).__name__}")


def _check_scale(n: int, what: str) -> None:
    if n > DECODE_BITS_LIMIT:
        raise ResourceLimitError(f"{what} supports n <= {DECODE_BITS_LIMIT}, got n={n}")


def _xor_is_cheaper(classes: int, n: int) -> bool:
    """Kernel rule: C XOR convolutions cost about C n 2**n against 4**n for a
    dense pass, and their C x 2**n arrays must fit one vectorized block.
    Each transform also makes about 4n numpy calls whatever the size, which
    outweighs a dense gather of at most 4**7 entries, hence the floor on n."""
    size = 1 << n
    return (n >= _XOR_MIN_BITS and classes * n < size
            and classes * size <= _CHUNK_ENTRIES)


def _is_ramp(decoder: Decoder, table: TruthTable) -> bool:
    """Kernel rule: the identity decoder on outputs f(0) + i, whose offset
    cancels, so a flip's cost is the distance it moves the row index."""
    outputs = table.outputs
    return np.array_equal(decoder.decode_map, outputs) and bool((np.diff(outputs) == 1).all())


def _fwht(a: np.ndarray) -> np.ndarray:
    """Unnormalized Walsh-Hadamard transform of each row of a (C-contiguous
    float64), in place."""
    rows, size = a.shape
    h = 1
    while h < size:
        pairs = a.reshape(rows, size // (2 * h), 2, h)
        low, high = pairs[:, :, 0, :], pairs[:, :, 1, :]
        diff = low - high
        low += high
        high[...] = diff
        h *= 2
    return a


def _xor_convolve(avg: np.ndarray, columns: np.ndarray) -> np.ndarray:
    """out[c, i] = sum_d avg[d] * columns[c, i ^ d], through the transform:
    H(H avg * H column) / 2**n, since H diagonalizes XOR convolution."""
    spectrum = _fwht(np.array(avg, dtype=np.float64).reshape(1, -1))
    out = _fwht(np.array(columns, dtype=np.float64))
    out *= spectrum
    _fwht(out)
    out /= avg.size
    return out


def _tile_rows(size: int) -> int:
    """Rows per tile of a dense pass over size x size entries."""
    return min(size, max(_TILE_MIN_ROWS, _TILE_ENTRIES // size))


def _dense_tiles(source: np.ndarray, columns: np.ndarray):
    """The dense gather source[r ^ columns[c]] over every row r of a
    2**n x 2**n pass, one tile of _tile_rows rows at a time: yields
    (lo, hi, tile) with tile[r - lo, c] = source[r ^ columns[c]].  The index
    and tile buffers are allocated once and refilled in place, so a tile is
    valid until the next step and the caller may overwrite it."""
    size = columns.size
    height = _tile_rows(size)
    index = np.empty((height, size), dtype=np.int64)
    tile = np.empty((height, size), dtype=source.dtype)
    for lo in range(0, size, height):
        hi = min(lo + height, size)
        rows = np.arange(lo, hi, dtype=np.int64)[:, None]
        np.bitwise_xor(rows, columns, out=index[:hi - lo])
        # indices are in range; "clip" skips the buffered bounds check
        np.take(source, index[:hi - lo], out=tile[:hi - lo], mode="clip")
        yield lo, hi, tile[:hi - lo]


def _first_near_top(scores: np.ndarray) -> np.ndarray:
    """Per row of scores, the first column within _TIE_REL_TOL of the row's
    top score: columns ascend by value, so ties pick the smaller value.
    Scores are scaled posterior masses, so the top is positive and the
    threshold sits just below it."""
    top = scores.max(axis=1, keepdims=True)
    top *= 1.0 - _TIE_REL_TOL
    return (scores >= top).argmax(axis=1)


def _classes(values: np.ndarray):
    """(the distinct values ascending, the stable order that sorts values,
    where each distinct value starts in that order): np.unique by one sort
    and a neighbour comparison, without the numpy.ma import np.unique makes."""
    order = np.argsort(values, kind="stable")
    ranked = values[order]
    first = np.ones(ranked.size, dtype=bool)
    np.not_equal(ranked[1:], ranked[:-1], out=first[1:])
    starts = np.flatnonzero(first)
    return ranked[starts], order, starts


def identity_decoder(problem) -> Decoder:
    """Read the bits as-is and apply the function."""
    table = _as_table(problem)
    if table.n > MC_BITS_LIMIT:
        raise ResourceLimitError(f"decode maps support n <= {MC_BITS_LIMIT}, got n={table.n}")
    return Decoder(table.outputs)


def map_decoder(problem, energies: EnergyVector,
                group: PermutationGroup | None = None) -> Decoder:
    """Posterior-mass decoder: observed row -> most likely output value.

    Under the uniform prior, value v at observation o scores the sum over
    rows i with f(i) = v of P(o | i), the channel marginalized over the
    group's draw: the posterior mass times 2**n, a power of two, so the
    ranking is the posterior's.  That is the XOR convolution of the pattern
    probabilities with the indicator of v's rows, computed by transform for
    few output values at n >= 8 and by dense row tiles otherwise.  Values
    scoring within a relative 1e-12 of the top tie, and ties break toward
    the smaller output value.
    """
    table = _as_table(problem)
    n = table.n
    _check_scale(n, "map decoding")
    _check_width(energies.n, n)
    if group is None:
        group = IdentityGroup(n)
    avg = average_pattern_probabilities(group, energies)

    classes, order, starts = _classes(table.outputs)
    size = 1 << n
    if _xor_is_cheaper(classes.size, n):
        columns = table.outputs == classes[:, None]
        return Decoder(classes[_first_near_top(_xor_convolve(avg, columns).T)])

    scores = np.empty((_tile_rows(size), classes.size))
    decode = np.empty(size, dtype=np.int64)
    for lo, hi, like in _dense_tiles(avg, order):
        tile_scores = np.add.reduceat(like, starts, axis=1, out=scores[:hi - lo])
        decode[lo:hi] = classes[_first_near_top(tile_scores)]
    return Decoder(decode)


def _loss_kernel(loss: str):
    """The named loss as an elementwise (decoded, truth) -> float64 kernel,
    written into the float64 array out when one is given."""
    if loss not in LOSS_KINDS:
        raise ValueError(f"unknown loss {loss!r}; expected one of {LOSS_KINDS}")

    def weigh(decoded, truth, out=None):
        if out is None:
            out = np.empty(np.broadcast_shapes(np.shape(decoded), np.shape(truth)))
        if loss == "exact":
            return np.not_equal(decoded, truth, out=out)
        # the int64 difference, cast on store; |x| commutes with the cast
        np.subtract(decoded, truth, out=out)
        return np.abs(out, out=out)

    return weigh


class ErrorAnalysis:
    """Exact per-input errors of one (truth table, decoder, loss) under any
    energies and group: L @ average_pattern_probabilities(group, energies).

    The kernel ("ramp", "matrix", "xor" or "blocks") is picked once, here,
    by the module docstring's rules; the DECODE_BITS_LIMIT guard refuses all
    but "ramp", which reads top-bit moments under its own RAMP_BITS_LIMIT.  It
    keeps the energy-independent arrays its kernel needs: L whole (built on
    the first profile) for "matrix", the decoder's class indicators and
    their loss weights for "xor".  "blocks" rebuilds L on every call in
    cache-sized tiles of rows through buffers it reuses from tile to tile;
    each tile's errors come from one gemv, bit for bit the sums whole row
    blocks gave.
    """

    def __init__(self, problem, decoder: Decoder, loss: str = "exact"):
        self._loss_fn = _loss_kernel(loss)
        self.table = _as_table(problem)
        n = self.table.n
        if decoder.n != n:
            raise ValueError(f"decoder covers {decoder.n} bits, table has {n}")
        self.decoder = decoder
        self._loss = loss
        self._matrix = self._indicators = self._weights = None
        if n >= _RAMP_MIN_BITS and _is_ramp(decoder, self.table):
            self._kernel = "ramp"
            return
        _check_scale(n, "exact error analysis")
        if 1 << (2 * n) <= _CHUNK_ENTRIES:
            self._kernel = "matrix"
            return
        classes = _classes(decoder.decode_map)[0][:, None]
        if _xor_is_cheaper(classes.size, n):
            self._kernel = "xor"
            self._indicators = decoder.decode_map[None, :] == classes
            self._weights = self._loss_fn(classes, self.table.outputs[None, :])
        else:
            self._kernel = "blocks"

    @property
    def kernel(self) -> str:
        return self._kernel

    def _decoded_tiles(self):
        """_dense_tiles of the decode map, each tile with its truth column."""
        truth = self.table.outputs[:, None]
        columns = np.arange(truth.size, dtype=np.int64)
        for lo, hi, decoded in _dense_tiles(self.decoder.decode_map, columns):
            yield lo, hi, decoded, truth[lo:hi]

    def profile(self, energies, group: PermutationGroup) -> np.ndarray:
        """Per-input errors of an EnergyVector, or one row of them for each
        row of a (K, n) stack of energy rows, bit for bit the profile of that
        row alone: "matrix" runs one gemv per row (np.matmul over the stack;
        a single gemm would round differently), "xor", "ramp" and "blocks"
        score the rows one by one, "blocks" each tile once for the whole
        stack."""
        rows = energy_rows(energies)
        _check_width(rows.shape[1], self.table.n)
        if self._kernel == "ramp":
            return ramp_profile(energies, group, self._loss)
        avg = average_pattern_probabilities(group, rows)
        size = 1 << self.table.n
        if self._kernel == "matrix":
            if self._matrix is None:
                matrix = np.empty((size, size))
                for lo, hi, decoded, truth in self._decoded_tiles():
                    self._loss_fn(decoded, truth, out=matrix[lo:hi])
                self._matrix = matrix
            out = np.matmul(self._matrix, avg[:, :, None])[:, :, 0]
        elif self._kernel == "xor":
            out = np.empty_like(avg)
            for r, row in enumerate(avg):
                err = (self._weights * _xor_convolve(row, self._indicators)).sum(axis=0)
                # a sum of nonnegative terms; clip the transform's rounding below 0
                np.maximum(err, 0.0, out=out[r])
        else:
            weights = np.empty((_tile_rows(size), size))
            out = np.empty_like(avg)
            for lo, hi, decoded, truth in self._decoded_tiles():
                tile = self._loss_fn(decoded, truth, out=weights[:hi - lo])
                for r, row in enumerate(avg):
                    np.matmul(tile, row, out=out[r, lo:hi])
        return out[0] if isinstance(energies, EnergyVector) else out


def _ramp_moments(q: np.ndarray, group: PermutationGroup):
    """(top, cond) of the group-averaged pattern law for the flip vector q:
    top[t] = P{top flipped bit = t} and cond[t, j] = P{bit j flips | top
    flipped bit = t} for j < t, from q in closed form, with no 2**n law.
    cond is None for a product law (the identity group, or a flat q, which
    every permutation fixes), where it reads q_j."""
    n = q.size
    if group.kind == "identity" or q.min() == q.max():
        return q * np.append(np.cumprod((1.0 - q)[::-1])[::-1][1:], 1.0), None
    if group.kind == "symmetric":
        # a k-flip pattern, of mass a[k] / C(n, k), has its top bit at t in
        # C(t, k - 1) placements and sets a given lower bit in C(t - 1, k - 2)
        binom = _binomials(n)
        mass = _mismatch_count_weights(q) / binom[n]
        top = binom[:n, :n] @ mass[1:]
        joint = np.zeros((n, 1))
        joint[1:, 0] = binom[:n - 1, :n - 1] @ mass[2:]
    else:
        # each element's product moments, summed pairwise along the element axis
        rewired = np.ascontiguousarray(q[group.elements()].T)
        tops = rewired.copy()
        tops[:-1] *= np.cumprod(1.0 - rewired[:0:-1], axis=0)[::-1]
        top = tops.sum(axis=1) / rewired.shape[1]
        joint = np.zeros((n, n))
        for t in range(1, n):
            joint[t, :t] = (rewired[:t] * tops[t]).sum(axis=1) / rewired.shape[1]
    cond = np.zeros((n, n))
    np.divide(joint, top[:, None], out=cond, where=top[:, None] > 0.0)
    return top, cond


def ramp_profile(energies, group: PermutationGroup, loss: str = "exact") -> np.ndarray:
    """Exact per-input errors of a ramp table f(i) = f(0) + i read through
    its identity decoder (be, or an offset of it) under any
    group, for an EnergyVector or each row of a (K, n) stack of energy
    rows, every input row at once, in O(2**n) time past the moments: no
    table, no 2**n law and no bit table.

    Under the exact loss every row reads P{d != 0} = 1 - prod_j (1 - q_j)
    under every group (a permutation never changes whether no bit flips),
    through log1p and expm1 so that tiny q keep their digits.  Under the
    absolute loss, with top and cond from _ramp_moments and s_j = 1 - 2
    bit_j(i) (see the module docstring),

        err(i) = sum_t top[t] (2**t + s_t A_t(i)),  A_t(i) = sum_{j<t} s_j 2**j cond[t, j].

    Each term is positive (|A_t| < 2**t), and rows are built by doubling
    over the bits: rows [2**t, 2**(t+1)) are rows [0, 2**t) with s_t = -1.
    A product law keeps A_t's partial sums from bit to bit; otherwise A_t
    is rebuilt for each t.  Rows i and 2**n - 1 - i get the same float,
    since A_t flips sign with s.
    """
    _loss_kernel(loss)  # refuses an unknown loss
    rows = energy_rows(energies)
    n = rows.shape[1]
    group.check_width(n)
    if n > RAMP_BITS_LIMIT:
        raise ResourceLimitError(f"ramp profiles support n <= {RAMP_BITS_LIMIT}, got n={n}")
    out = np.zeros((rows.shape[0], 1 << n))
    for err, q in zip(out, flip_probability(rows)):
        if loss == "exact":
            with np.errstate(divide="ignore"):  # log1p(-1) = -inf, a certain flip
                err[:] = -np.expm1(np.log1p(-q).sum())
            continue
        top, cond = _ramp_moments(q, group)
        partial = np.zeros(1 << n)  # A_t of each row built so far
        low = np.empty(1 << (n - 1))
        h = 1
        for t in range(n):
            if cond is not None:  # A_t afresh, bit j by bit j
                partial[0] = 0.0
                for j in range(t):
                    step = (1 << j) * cond[t, j]
                    np.subtract(partial[:1 << j], step, out=partial[1 << j:2 << j])
                    partial[:1 << j] += step
            scale = float(1 << t)
            high = err[h:2 * h]  # s_t = -1 on these rows
            np.subtract(scale, partial[:h], out=high)
            high *= top[t]
            high += err[:h]
            np.add(scale, partial[:h], out=low[:h])
            low[:h] *= top[t]
            err[:h] += low[:h]
            if cond is None:  # A_{t+1} from A_t
                step = scale * q[t]
                np.subtract(partial[:h], step, out=partial[h:2 * h])
                partial[:h] += step
            h *= 2
    return out[0] if isinstance(energies, EnergyVector) else out


def error_profile(problem, energies: EnergyVector, group: PermutationGroup,
                  decoder: Decoder, loss: str = "exact") -> np.ndarray:
    """Exact per-input error, every input row at once."""
    return ErrorAnalysis(problem, decoder, loss).profile(energies, group)


def _check_row(i, n: int) -> None:
    if not 0 <= i < (1 << n):
        raise ValueError(f"input row {i} out of range for {n} bits")


def _check_width(width: int, n: int) -> None:
    if width != n:
        raise ValueError(f"energies have {width} bits, table has {n}")


def per_input_error(problem, energies: EnergyVector, group: PermutationGroup,
                    decoder: Decoder, i: int, loss: str = "exact") -> float:
    """Exact error of one input row (noise and adversary draw averaged): one
    2**n law and one 2**n gather, guarded by the decoder, table and group;
    on the ramp, the row of ramp_profile, with no law."""
    loss_fn = _loss_kernel(loss)
    table = _as_table(problem)
    _check_row(i, table.n)
    if decoder.n != table.n:
        raise ValueError(f"decoder covers {decoder.n} bits, table has {table.n}")
    _check_width(energies.n, table.n)
    if _is_ramp(decoder, table):
        return float(ramp_profile(energies, group, loss)[i])
    avg = average_pattern_probabilities(group, energies)
    idx = np.arange(1 << table.n, dtype=np.int64)
    decoded = decoder.decode_map[np.int64(i) ^ idx]
    return float(loss_fn(decoded, table.outputs[i]) @ avg)


def monte_carlo_error(problem, energies: EnergyVector, group: PermutationGroup,
                      decoder: Decoder, rows, loss: str = "exact",
                      samples: int = 100_000, rng=None):
    """Sampled error of input rows: (estimate, standard error), floats for
    one row and arrays in row order for a sequence of rows.

    Each trial draws a flip pattern d from the group-averaged law that
    average_pattern_probabilities gives exactly (group.sample_patterns:
    under the full symmetric group a flip count, read through a guide
    table of its cdf, and a uniform subset of that size, its rank the high
    word of a 64-bit draw times the subset count, unranked above the low
    16 bits and gathered from a table below them; under the identity group
    a 64-bit word per block of 8 bits, read through the alias table of
    that block's law by an integer threshold per slot; under a generated
    group an element, then the same through that element's tables of the
    rewired law, or a coin per rewired bit where its tables would pass
    adversary.ALIAS_ENTRIES_LIMIT) and decodes the observed row i XOR d of
    every row i.  The pattern law does not depend on the row, so the rows
    share their draws: the flip vector is computed once and sampled
    _MC_BATCH draws at a time, one sample_patterns call per batch whose
    patterns every row decodes, and a row's estimate is the one a call for
    that row alone makes from the same generator state.  The group builds
    its tables once and keeps them for the later batches and calls.  Each
    row keeps its own sums: under the exact loss a batch adds its count of
    wrong decodes to both, under the absolute loss the batch's sums of the
    losses and their squares.
    """
    loss_fn = _loss_kernel(loss)
    table = _as_table(problem)
    n = table.n
    one = np.ndim(rows) == 0
    rows = [rows] if one else list(rows)
    if not rows:
        raise ValueError("rows must name at least one input row")
    for i in rows:
        _check_row(i, n)
    if n > MC_BITS_LIMIT:
        raise ResourceLimitError(f"Monte Carlo decoding supports n <= {MC_BITS_LIMIT}")
    if decoder.n != n:
        raise ValueError(f"decoder covers {decoder.n} bits, table has {n}")
    _check_width(energies.n, n)
    group.check_width(energies.n)
    if samples < 1:
        raise ValueError("samples must be >= 1")
    rng = as_rng(rng)
    q = flip_probability(energies)
    rows = np.array(rows, dtype=np.int64)
    truths = table.outputs[rows].tolist()

    total, total_sq = np.zeros(rows.size), np.zeros(rows.size)
    done = 0
    while done < samples:
        m = min(_MC_BATCH, samples - done)
        patterns = group.sample_patterns(q, m, rng)
        for r, (i, truth) in enumerate(zip(rows, truths)):
            decoded = decoder.decode_map[i ^ patterns]
            if loss == "exact":
                # a sum of 0/1 values is exact, so the count is the float sums' value
                wrong = np.count_nonzero(decoded != truth)
                total[r] += wrong
                total_sq[r] += wrong
            else:
                vals = loss_fn(decoded, truth)
                total[r] += vals.sum()
                total_sq[r] += (vals * vals).sum()
        done += m
    mean = total / samples
    std_err = np.sqrt(np.maximum(total_sq / samples - mean * mean, 0.0) / samples)
    if one:
        return float(mean[0]), float(std_err[0])
    return mean, std_err


@dataclass(frozen=True)
class ErrorReport:
    """Per-input error table with its provenance."""

    setting: str                 # clairvoyant | blindfolded:<kind>
    mode: str                    # exact | monte_carlo
    loss: str
    per_input: np.ndarray
    std_err: np.ndarray | None = None
    samples: int | None = None

    def to_json(self) -> dict:
        rows = []
        for i, p in enumerate(self.per_input):
            entry = {"row": i, "p_err": float(p)}
            if self.std_err is not None:
                entry["std_err"] = float(self.std_err[i])
            rows.append(entry)
        body = {"setting": self.setting, "mode": self.mode, "loss": self.loss,
                "per_input": rows}
        if self.samples is not None:
            body["samples"] = int(self.samples)
        return body


def error_report(problem, energies: EnergyVector, group: PermutationGroup,
                 decoder: Decoder, loss: str = "exact", mode: str = "exact",
                 samples: int = 100_000, rng=None) -> ErrorReport:
    """Every input row's error: error_profile in exact mode; in monte_carlo
    mode one monte_carlo_error call over all 2**n rows, which decode shared
    draws, so each row reads what that row alone reads at the same seed.
    A sampled report over MC_REPORT_WORK_LIMIT rows x samples decodes is
    refused before any draw."""
    table = _as_table(problem)
    if mode == "exact":
        profile = error_profile(table, energies, group, decoder, loss)
        return ErrorReport(group.setting, "exact", loss, profile)
    if mode == "monte_carlo":
        rows = 1 << table.n
        if rows * samples > MC_REPORT_WORK_LIMIT:
            raise ResourceLimitError(
                f"full Monte Carlo report needs {rows} rows x {samples} samples; "
                f"that is over the {MC_REPORT_WORK_LIMIT} decode cap, so target "
                f"one row or cut samples")
        est, err = monte_carlo_error(table, energies, group, decoder, range(rows), loss,
                                     samples, rng)
        return ErrorReport(group.setting, "monte_carlo", loss, est, err, samples)
    raise ValueError(f"unknown mode {mode!r}; expected exact or monte_carlo")
