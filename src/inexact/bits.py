"""Bit-vector helpers shared across the package.

Vectors are little endian: entry j is bit j and carries weight 2**j.  Text
form is big endian ("110" means b2=1, b1=1, b0=0), matching the usual way
binary numbers are written.  Row i of a truth table is the input whose bits
spell i under this convention.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

MAX_PACK_BITS = 62  # packed row indices live in int64

class ResourceLimitError(RuntimeError):
    """An exact computation would exceed its enumeration guard."""


def as_bit_array(bits: Sequence[int], n: int | None = None) -> np.ndarray:
    arr = np.asarray(bits, dtype=np.int64)
    if arr.ndim != 1:
        raise ValueError("bit vector must be one-dimensional")
    if arr.size == 0:
        raise ValueError("bit vector must be non-empty")
    if not np.all((arr == 0) | (arr == 1)):
        raise ValueError("bit vector entries must be 0 or 1")
    if n is not None and arr.size != n:
        raise ValueError(f"expected {n} bits, got {arr.size}")
    if arr.size > MAX_PACK_BITS:
        raise ResourceLimitError(f"bit vectors wider than {MAX_PACK_BITS} are not supported")
    return arr.astype(np.uint8)


def bits_to_index(bits: Sequence[int]) -> int:
    """Integer encoded by a bit vector (bit j has weight 2**j)."""
    arr = as_bit_array(bits)
    weights = np.left_shift(np.int64(1), np.arange(arr.size, dtype=np.int64))
    return int(arr.astype(np.int64) @ weights)


def index_to_bits(i: int, n: int) -> np.ndarray:
    """Bit vector of length n encoding integer i (bit 0 least significant)."""
    if not 0 <= i < (1 << n):
        raise ValueError(f"index {i} out of range for {n} bits")
    return ((i >> np.arange(n)) & 1).astype(np.uint8)


def parse_bits(text: str, n: int | None = None) -> np.ndarray:
    """Parse a big-endian bit string like "101" into a bit vector."""
    text = text.strip()
    if not text or any(c not in "01" for c in text):
        raise ValueError(f"bit string must be nonempty and contain only 0/1, got {text!r}")
    return as_bit_array([int(c) for c in reversed(text)], n)


def popcount(idx: np.ndarray, n: int) -> np.ndarray:
    """Ones among the low n bits of each packed int64 row index, summed a
    bit at a time (whole tables read popcount_table)."""
    counts = np.zeros(idx.shape, dtype=np.int64)
    for j in range(n):
        counts += (idx >> j) & 1
    return counts


def popcount_table(n: int) -> np.ndarray:
    """Array of popcounts for row indices 0 .. 2**n - 1, built by doubling:
    rows 2**j .. 2**(j+1) - 1 are the rows below them with bit j set."""
    counts = np.zeros(1 << n, dtype=np.int64)
    for j in range(n):
        np.add(counts[:1 << j], 1, out=counts[1 << j:2 << j])
    return counts


def as_rng(seed) -> np.random.Generator:
    """Coerce an int seed or Generator into a numpy Generator (PCG64)."""
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)
