"""Decoding observed rows and scoring how often the answer is wrong.

A decoder is a deterministic map from an observed n-bit row to an output
value.  Two strategies:

* identity -- trust the read bits and apply the function to them.
* map      -- Bayes rule: pick the output value with the highest posterior
              mass given the observed row, a prior over inputs, and the
              channel (with the adversary's draw marginalized out, since
              the decoder never learns which permutation was used).

Error analysis leans on one fact: the observation of input i is i XOR d
where the flip pattern d has a probability independent of i, and averaging
over the adversary's permutation keeps it that way (see the adversary
module).  Because the decoder is fixed before the draw, the exact error of
input i under any group is

    err(i) = sum_d avg_pattern_prob[d] * loss(decode(i XOR d), f(i))

which this module evaluates in vectorized chunks.  Losses: "exact" counts
any wrong output, "absolute" weighs it by |decoded - truth|.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bits import ResourceLimitError, as_bit_array, as_rng, bits_to_index
from .noise import EnergyVector
from .adversary import (
    IdentityGroup,
    PermutationGroup,
    average_pattern_probabilities,
    sample_energy_assignments,
)
from .problems import BooleanProblem, TruthTable, truth_table

DECODE_BITS_LIMIT = 14   # 2**n decode maps and error sums
MC_BITS_LIMIT = 20       # Monte Carlo decodes via packed row lookup
MC_REPORT_WORK_LIMIT = 1 << 28  # rows x samples cap for full sampled reports
LOSS_KINDS = ("exact", "absolute")

_CHUNK_ENTRIES = 1 << 22  # floats per vectorized block


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


def identity_decoder(problem) -> Decoder:
    """Read the bits as-is and apply the function."""
    table = _as_table(problem)
    if table.n > MC_BITS_LIMIT:
        raise ResourceLimitError(f"decode maps support n <= {MC_BITS_LIMIT}, got n={table.n}")
    return Decoder("identity", table.outputs)


def uniform_prior(n: int) -> np.ndarray:
    return np.full(1 << n, 1.0 / (1 << n))


def _check_prior(prior, n: int) -> np.ndarray:
    if prior is None:
        return uniform_prior(n)
    prior = np.asarray(prior, dtype=np.float64)
    if prior.shape != (1 << n,) or np.any(prior < 0):
        raise ValueError("prior must be a nonnegative vector over all 2**n rows")
    total = prior.sum()
    if not np.isclose(total, 1.0, rtol=0, atol=1e-9):
        raise ValueError(f"prior sums to {total}, expected 1")
    return prior


def map_decoder(problem, energies: EnergyVector, group: PermutationGroup | None = None,
                prior=None) -> Decoder:
    """Posterior-mass decoder: observed row -> most likely output value.

    Scores value v at observation o by sum over rows i with f(i) = v of
    prior(i) * P(o | i), the channel marginalized over the group's draw.
    Ties break toward the smaller output value.
    """
    table = _as_table(problem)
    n = table.n
    _check_scale(n, "map decoding")
    if group is None:
        group = IdentityGroup(n)
    prior = _check_prior(prior, n)
    avg = average_pattern_probabilities(group, energies)

    classes, class_index = np.unique(table.outputs, return_inverse=True)
    order = np.argsort(class_index, kind="stable")
    starts = np.searchsorted(class_index[order], np.arange(classes.size))

    size = 1 << n
    idx = np.arange(size, dtype=np.int64)
    weighted_cols = prior[order]
    chunk = max(1, _CHUNK_ENTRIES // size)
    decode = np.empty(size, dtype=np.int64)
    for lo in range(0, size, chunk):
        rows = idx[lo:lo + chunk]
        like = avg[rows[:, None] ^ idx[order][None, :]] * weighted_cols[None, :]
        scores = np.add.reduceat(like, starts, axis=1)
        # argmax keeps the first hit; classes ascend, so ties pick the smaller value
        decode[rows] = classes[np.argmax(scores, axis=1)]
    return Decoder("map", decode)


def build_decoder(strategy: str, problem, energies: EnergyVector | None = None,
                  group: PermutationGroup | None = None, prior=None) -> Decoder:
    if strategy == "identity":
        return identity_decoder(problem)
    if strategy == "map":
        if energies is None:
            raise ValueError("map decoding needs the energy vector")
        return map_decoder(problem, energies, group, prior)
    raise ValueError(f"unknown decoder strategy {strategy!r}; expected identity or map")


def _loss_kernel(loss: str):
    """The named loss as an elementwise (decoded, truth) -> float64 kernel."""
    if loss == "exact":
        return lambda decoded, truth: (decoded != truth).astype(np.float64)
    if loss == "absolute":
        return lambda decoded, truth: np.abs(decoded - truth).astype(np.float64)
    raise ValueError(f"unknown loss {loss!r}; expected one of {LOSS_KINDS}")


def error_profile(problem, energies: EnergyVector, group: PermutationGroup,
                  decoder: Decoder, loss: str = "exact") -> np.ndarray:
    """Exact per-input error, every input row at once."""
    loss_fn = _loss_kernel(loss)
    table = _as_table(problem)
    n = table.n
    _check_scale(n, "exact error analysis")
    if decoder.n != n:
        raise ValueError(f"decoder covers {decoder.n} bits, table has {n}")
    avg = average_pattern_probabilities(group, energies)
    size = 1 << n
    idx = np.arange(size, dtype=np.int64)
    out = np.empty(size)
    chunk = max(1, _CHUNK_ENTRIES // size)
    for lo in range(0, size, chunk):
        rows = idx[lo:lo + chunk]
        decoded = decoder.decode_map[rows[:, None] ^ idx[None, :]]
        out[rows] = loss_fn(decoded, table.outputs[rows][:, None]) @ avg
    return out


def per_input_error(problem, energies: EnergyVector, group: PermutationGroup,
                    decoder: Decoder, i: int, loss: str = "exact") -> float:
    """Exact error of one input row (noise and adversary draw averaged)."""
    loss_fn = _loss_kernel(loss)
    table = _as_table(problem)
    _check_scale(table.n, "exact error analysis")
    avg = average_pattern_probabilities(group, energies)
    idx = np.arange(1 << table.n, dtype=np.int64)
    decoded = decoder.decode_map[np.int64(i) ^ idx]
    return float(loss_fn(decoded, table.outputs[i]) @ avg)


def worst_input_error(problem, energies, group, decoder, loss="exact") -> float:
    return float(error_profile(problem, energies, group, decoder, loss).max())


def expected_error(problem, energies, group, decoder, loss="exact", prior=None) -> float:
    table = _as_table(problem)
    prior = _check_prior(prior, table.n)
    return float(prior @ error_profile(table, energies, group, decoder, loss))


def worst_case_quality(problem, energies, group, decoder) -> float:
    """min over inputs of 1 / wrong-output probability (inf when error-free)."""
    worst = worst_input_error(problem, energies, group, decoder, "exact")
    return float("inf") if worst == 0.0 else 1.0 / worst


def monte_carlo_error(problem, energies: EnergyVector, group: PermutationGroup,
                      decoder: Decoder, i: int, loss: str = "exact",
                      samples: int = 100_000, rng=None,
                      batch: int = 1 << 16) -> tuple[float, float]:
    """Sampled error of one input row: (estimate, standard error).

    Each trial draws a permutation from the group, rewires the energies,
    flips bits independently, and decodes the observed row.
    """
    loss_fn = _loss_kernel(loss)
    table = _as_table(problem)
    n = table.n
    if n > MC_BITS_LIMIT:
        raise ResourceLimitError(f"Monte Carlo decoding supports n <= {MC_BITS_LIMIT}")
    if decoder.n != n:
        raise ValueError(f"decoder covers {decoder.n} bits, table has {n}")
    if samples < 1:
        raise ValueError("samples must be >= 1")
    rng = as_rng(rng)
    bits = (np.int64(i) >> np.arange(n, dtype=np.int64)) & 1
    truth = int(table.outputs[i])
    weights = np.left_shift(np.int64(1), np.arange(n, dtype=np.int64))

    total = 0.0
    total_sq = 0.0
    done = 0
    while done < samples:
        m = min(batch, samples - done)
        assigned = sample_energy_assignments(group, energies, m, rng)
        flips = rng.random((m, n)) < np.exp2(-assigned)
        observed = (bits[None, :] ^ flips) @ weights
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

    def worst(self) -> float:
        return float(self.per_input.max())

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


def setting_name(group: PermutationGroup) -> str:
    return "clairvoyant" if isinstance(group, IdentityGroup) else f"blindfolded:{group.kind}"


def error_report(problem, energies: EnergyVector, group: PermutationGroup,
                 decoder: Decoder, loss: str = "exact", mode: str = "exact",
                 samples: int = 100_000, rng=None) -> ErrorReport:
    table = _as_table(problem)
    if mode == "exact":
        profile = error_profile(table, energies, group, decoder, loss)
        return ErrorReport(setting_name(group), "exact", loss, profile)
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
        return ErrorReport(setting_name(group), "monte_carlo", loss, est, err, samples)
    raise ValueError(f"unknown mode {mode!r}; expected exact or monte_carlo")
