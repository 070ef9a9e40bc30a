"""Energy-driven bit-flip noise.

A bit read at energy e is misread with probability 2**-e, independently of
the other bits.  Energies are real numbers >= 0.

e = 0 is legal and means the bit flips with probability exactly 1: the read
is deterministic, just deterministically wrong.  Allocators and optimizers
must therefore treat "spend nothing on a bit" as "guarantee a flip there",
not as "ignore the bit".

Pattern probabilities.  Flip pattern d (bit j set when bit j flips) has
probability prod_j f_j(d) with f_j(d) = q_j if bit j of d is set and
1 - q_j if not, where q = 2**-e is the flip vector.  The kernel builds all
2**n of them from q in a few vectorized numpy calls: the low (at most
_TABLE_BITS) bits through one product over a cached boolean bit table,
np.multiply.reduce(np.where(bits, q, 1 - q)), and each further bit j by
doubling in place (the upper half is the lower half times q_j, then the
lower half is scaled by 1 - q_j), so memory stays O(2**n).  Every entry is
multiplied in the fixed order f_0 * f_1 * ... * f_{n-1}, left to right, so
results are bit for bit reproducible and the same for one flip vector or a
batch of them.

Also provided: a supply-voltage correctness curve for CMOS-style reads,
p(vdd) = 1 - 0.5 * erfc(vdd / (2 * sqrt(2) * sigma)), which maps a hardware
knob onto the same per-bit correctness scale.
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np
from scipy.special import erfc

from .bits import as_bit_array, as_rng

_TABLE_BITS = 8  # bits covered by the cached table; higher bits double in place


@dataclass(frozen=True)
class EnergyVector:
    """Per-bit read energies; entry j powers bit j."""

    entries: np.ndarray

    def __post_init__(self):
        entries = np.array(self.entries, dtype=np.float64)
        if entries.ndim != 1 or entries.size == 0:
            raise ValueError("energies must form a nonempty 1-D vector")
        # min and max propagate NaN, and both comparisons are false on it
        if not (entries.min() >= 0.0 and entries.max() < np.inf):
            raise ValueError("energies must be finite and >= 0")
        entries.setflags(write=False)
        object.__setattr__(self, "entries", entries)

    @property
    def n(self) -> int:
        return int(self.entries.size)

    @property
    def budget(self) -> float:
        """Total energy spent across all bits."""
        return float(self.entries.sum())

    def permuted(self, sigma: Sequence[int]) -> "EnergyVector":
        """Reassign energies so bit j receives entry sigma[j]."""
        sigma = np.asarray(sigma, dtype=np.int64)
        if sorted(sigma.tolist()) != list(range(self.n)):
            raise ValueError(f"not a permutation of 0..{self.n - 1}: {sigma!r}")
        return EnergyVector(self.entries[sigma])


def energy_vector(entries: Sequence[float]) -> EnergyVector:
    return EnergyVector(np.asarray(entries, dtype=np.float64))


def flip_probability(energy) -> np.ndarray | float:
    """Per-bit misread probability 2**-e (e = 0 gives a certain flip)."""
    if isinstance(energy, EnergyVector):
        return np.exp2(-energy.entries)
    arr = np.asarray(energy, dtype=np.float64)
    if not np.all(arr >= 0):  # false on NaN too
        raise ValueError("energies must be >= 0 and not NaN")
    out = np.exp2(-arr)
    return float(out) if arr.ndim == 0 else out


def sample_observation(bits, energies: EnergyVector, rng=None) -> np.ndarray:
    """Read the input once through the channel: each bit flips w.p. 2**-e."""
    arr = as_bit_array(bits, energies.n)
    q = flip_probability(energies)
    flips = as_rng(rng).random(energies.n) < q
    return (arr ^ flips.astype(np.uint8)).astype(np.uint8)


def sample_observations(bits, energies: EnergyVector, count: int, rng=None) -> np.ndarray:
    """Matrix of `count` independent reads, one per row."""
    arr = as_bit_array(bits, energies.n)
    q = flip_probability(energies)
    flips = as_rng(rng).random((count, energies.n)) < q
    return (arr[None, :] ^ flips.astype(np.uint8)).astype(np.uint8)


def pattern_probabilities(energies: EnergyVector) -> np.ndarray:
    """Probability of each flip pattern d in 0..2**n-1.

    Entry d is prod_j q_j**d_j * (1-q_j)**(1-d_j); the observation of input
    i lands on i XOR d with exactly this probability.  Exact but 2**n long.
    """
    return _flip_patterns(flip_probability(energies))


@functools.lru_cache(maxsize=None)
def _bit_table(k: int) -> np.ndarray:
    """Read-only bool table, entry [j, d] = bit j of d, for d < 2**k."""
    idx = np.arange(1 << k, dtype=np.int64)
    table = ((idx[None, :] >> np.arange(k, dtype=np.int64)[:, None]) & 1).astype(bool)
    table.setflags(write=False)
    return table


def _flip_patterns(q: np.ndarray) -> np.ndarray:
    """Pattern probabilities of each flip vector along q's last axis.

    q has shape (..., n); the result has shape (..., 2**n), little endian
    (bit j of d toggles with stride 2**j), with the multiplication order
    given in the module docstring.
    """
    n = q.shape[-1]
    low = min(n, _TABLE_BITS)
    h = 1 << low
    out = np.empty(q.shape[:-1] + (1 << n,))
    q_low = q[..., :low, None]
    np.multiply.reduce(np.where(_bit_table(low), q_low, 1.0 - q_low), axis=-2,
                       out=out[..., :h])
    for j in range(low, n):
        q_j = q[..., j, None]
        np.multiply(out[..., :h], q_j, out=out[..., h:2 * h])
        out[..., :h] *= 1.0 - q_j
        h *= 2
    return out


def observation_distribution(bits, energies: EnergyVector) -> np.ndarray:
    """Distribution over observed rows for one true input."""
    from .bits import bits_to_index

    i = bits_to_index(as_bit_array(bits, energies.n))
    probs = pattern_probabilities(energies)
    out = np.empty_like(probs)
    idx = np.arange(probs.size, dtype=np.int64)
    out[idx ^ i] = probs
    return out


def cmos_correctness_probability(vdd, sigma: float = 1.0):
    """Correct-read probability of a CMOS bit at supply voltage vdd.

    Gaussian threshold noise of scale sigma makes the read wrong with
    probability 0.5 * erfc(vdd / (2 * sqrt(2) * sigma)); vdd = 0 reads at
    chance (p = 0.5) and large vdd approaches certainty.
    """
    if not sigma > 0:  # false on NaN too
        raise ValueError("sigma must be positive")
    arr = np.asarray(vdd, dtype=np.float64)
    if not np.all(arr >= 0):
        raise ValueError("vdd must be >= 0 and not NaN")
    p = 1.0 - 0.5 * erfc(arr / (2.0 * np.sqrt(2.0) * sigma))
    return float(p) if arr.ndim == 0 else p


def equivalent_energy(p_correct) -> np.ndarray | float:
    """Energy whose flip probability matches 1 - p_correct (log2 scale)."""
    arr = np.asarray(p_correct, dtype=np.float64)
    if not np.all((arr >= 0) & (arr <= 1)):
        raise ValueError("probabilities must lie in [0, 1]")
    with np.errstate(divide="ignore"):
        e = -np.log2(1.0 - arr)
    return float(e) if arr.ndim == 0 else e


def save_energies(energies: EnergyVector, path) -> None:
    Path(path).write_text(json.dumps({"energies": energies.entries.tolist()}, indent=2) + "\n")


def load_energies(path) -> EnergyVector:
    data = json.loads(Path(path).read_text())
    return energy_vector(data["energies"])
