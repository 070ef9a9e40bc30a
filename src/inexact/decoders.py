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
in O(n 2**n).  An ErrorAnalysis binds (truth table, decoder, loss) and
picks one of three kernels once, shown by its ``kernel`` attribute:

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
            time, each tile's errors one matrix-vector product, for
            many-valued decoders (be, wide-word sorting) at n >= 12.

The MAP decoder's scores are XOR convolutions too, and it picks between
them and dense row tiles by the same rule; having no matrix to keep, it
takes the transform from n = 8 up.  Every dense pass gathers
decode(r XOR d), or the pattern vector at r XOR d, through _dense_tiles:
index and gathered buffers of about 2**16 entries, allocated once per call
and refilled in place, so a pass costs its arithmetic and not page faults
on fresh temporaries.  error_profile is a one-shot ErrorAnalysis.
Losses: "exact" counts any wrong output, "absolute" weighs it by
|decoded - truth|.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bits import ResourceLimitError, as_bit_array, as_rng, bits_to_index
from .noise import EnergyVector, energy_rows, flip_probability
from .adversary import IdentityGroup, PermutationGroup, average_pattern_probabilities
from .problems import BooleanProblem, TruthTable, truth_table

DECODE_BITS_LIMIT = 14   # 2**n decode maps and error sums
MC_BITS_LIMIT = 20       # Monte Carlo decodes via packed row lookup
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
_TIE_REL_TOL = 1e-12      # MAP scores this close to a row's top score tie
_MC_BATCH = 1 << 16       # Monte Carlo draws per batch; seeded streams depend on it


@dataclass(frozen=True)
class Decoder:
    """Deterministic observed-row -> output-value map."""

    name: str
    decode_map: np.ndarray

    def __post_init__(self):
        dm = np.asarray(self.decode_map, dtype=np.int64)
        if dm.ndim != 1 or dm.size == 0 or (dm.size & (dm.size - 1)) != 0:
            raise ValueError("decode map must cover all 2**n rows")
        dm = dm.copy()
        dm.setflags(write=False)
        object.__setattr__(self, "decode_map", dm)

    @property
    def n(self) -> int:
        return int(self.decode_map.size).bit_length() - 1

    def decode(self, observed) -> int:
        return int(self.decode_map[bits_to_index(as_bit_array(observed, self.n))])


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


def identity_decoder(problem) -> Decoder:
    """Read the bits as-is and apply the function."""
    table = _as_table(problem)
    if table.n > MC_BITS_LIMIT:
        raise ResourceLimitError(f"decode maps support n <= {MC_BITS_LIMIT}, got n={table.n}")
    return Decoder("identity", table.outputs)


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
    if group is None:
        group = IdentityGroup(n)
    avg = average_pattern_probabilities(group, energies)

    classes, class_index = np.unique(table.outputs, return_inverse=True)
    size = 1 << n
    if _xor_is_cheaper(classes.size, n):
        columns = np.zeros((classes.size, size))
        columns[class_index, np.arange(size)] = 1.0
        return Decoder("map", classes[_first_near_top(_xor_convolve(avg, columns).T)])

    order = np.argsort(class_index, kind="stable")
    starts = np.searchsorted(class_index[order], np.arange(classes.size))
    scores = np.empty((_tile_rows(size), classes.size))
    decode = np.empty(size, dtype=np.int64)
    for lo, hi, like in _dense_tiles(avg, order):
        tile_scores = np.add.reduceat(like, starts, axis=1, out=scores[:hi - lo])
        decode[lo:hi] = classes[_first_near_top(tile_scores)]
    return Decoder("map", decode)


def build_decoder(strategy: str, problem, energies: EnergyVector | None = None,
                  group: PermutationGroup | None = None) -> Decoder:
    if strategy == "identity":
        return identity_decoder(problem)
    if strategy == "map":
        if energies is None:
            raise ValueError("map decoding needs the energy vector")
        return map_decoder(problem, energies, group)
    raise ValueError(f"unknown decoder strategy {strategy!r}; expected identity or map")


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

    The kernel ("matrix", "xor" or "blocks", see the module docstring) is
    picked once, here, with the energy-independent arrays it keeps: the
    decoder's class indicators and their loss weights for "xor", L whole
    (built on the first profile) for "matrix".  "blocks" rebuilds L on every
    call in cache-sized tiles of rows through buffers it reuses from tile to
    tile; each tile's errors come from one gemv, bit for bit the sums whole
    row blocks gave.
    """

    def __init__(self, problem, decoder: Decoder, loss: str = "exact"):
        self._loss_fn = _loss_kernel(loss)
        self.table = _as_table(problem)
        n = self.table.n
        _check_scale(n, "exact error analysis")
        if decoder.n != n:
            raise ValueError(f"decoder covers {decoder.n} bits, table has {n}")
        self.decoder = decoder
        self._matrix = self._indicators = self._weights = None
        if 1 << (2 * n) <= _CHUNK_ENTRIES:
            self._kernel = "matrix"
            return
        classes = np.unique(decoder.decode_map)[:, None]
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
        a single gemm would round differently), "xor" and "blocks" score the
        rows one by one, "blocks" each tile once for the whole stack."""
        rows = energy_rows(energies)
        _check_width(rows.shape[1], self.table.n)
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
    """Exact error of one input row (noise and adversary draw averaged)."""
    loss_fn = _loss_kernel(loss)
    table = _as_table(problem)
    _check_row(i, table.n)
    _check_scale(table.n, "exact error analysis")
    if decoder.n != table.n:
        raise ValueError(f"decoder covers {decoder.n} bits, table has {table.n}")
    _check_width(energies.n, table.n)
    avg = average_pattern_probabilities(group, energies)
    idx = np.arange(1 << table.n, dtype=np.int64)
    decoded = decoder.decode_map[np.int64(i) ^ idx]
    return float(loss_fn(decoded, table.outputs[i]) @ avg)


def monte_carlo_error(problem, energies: EnergyVector, group: PermutationGroup,
                      decoder: Decoder, i: int, loss: str = "exact",
                      samples: int = 100_000, rng=None) -> tuple[float, float]:
    """Sampled error of one input row: (estimate, standard error).

    Each trial draws a flip pattern d from the group-averaged law that
    average_pattern_probabilities gives exactly (group.sample_patterns:
    under the full symmetric group a flip count and a uniform subset of
    that size, otherwise independent flips of the possibly rewired bits)
    and decodes the observed row i XOR d.  The flip vector is computed
    once and sampled _MC_BATCH draws at a time.
    """
    loss_fn = _loss_kernel(loss)
    table = _as_table(problem)
    n = table.n
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
    truth = int(table.outputs[i])

    total = 0.0
    total_sq = 0.0
    done = 0
    while done < samples:
        m = min(_MC_BATCH, samples - done)
        observed = np.int64(i) ^ group.sample_patterns(q, m, rng)
        vals = loss_fn(decoder.decode_map[observed], truth)
        total += vals.sum()
        total_sq += (vals * vals).sum()
        done += m
    mean = total / samples
    var = max(total_sq / samples - mean * mean, 0.0)
    std_err = np.sqrt(var / samples)
    return float(mean), float(std_err)


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
        rng = as_rng(rng)
        est = np.empty(1 << table.n)
        err = np.empty(1 << table.n)
        for i in range(1 << table.n):
            est[i], err[i] = monte_carlo_error(table, energies, group, decoder, i,
                                               loss, samples, rng)
        return ErrorReport(group.setting, "monte_carlo", loss, est, err, samples)
    raise ValueError(f"unknown mode {mode!r}; expected exact or monte_carlo")
