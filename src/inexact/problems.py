"""Boolean problems over fixed-width bit vectors.

A problem is a total function from n-bit inputs to integers.  The built-in
families:

* ``or``          -- 1 unless every bit is 0.
* ``ue``          -- unary evaluation, the number of 1 bits.
* ``be``          -- binary evaluation, sum of b_j * 2**j.
* ``tribes``      -- n bits split into contiguous equal tribes; 1 iff some
                     tribe is all ones.
* ``comparison``  -- two k-bit operands x (bits 0..k-1) and y (bits k..2k-1);
                     returns sign(x - y) in {-1, 0, 1}.
* ``sorting``     -- `count` numbers of `width` bits each; returns the sorted
                     sequence packed into one integer, least element in the
                     lowest width-bit field.
* ``custom``      -- explicit output column of length 2**n in [-2**62, 2**62).

Truth tables index rows by the packed input (bit 0 least significant); the
CSV form writes columns b_{n-1},...,b_0,output and round-trips bit exactly.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .bits import (
    MAX_PACK_BITS,
    ResourceLimitError,
    as_bit_array,
    bits_to_index,
    index_to_bits,
    popcount,
    popcount_table,
)

TABLE_BITS_LIMIT = 20    # full truth table enumeration guard
CUSTOM_BITS_LIMIT = 14   # explicit output arrays
OUTPUT_BOUND = 1 << 62   # so that any two outputs differ within int64

# each kind and the parameters it reads besides n
_KIND_PARAMS = {"or": (), "ue": (), "be": (), "tribes": ("tribe_count",), "comparison": ("k",),
                "sorting": ("count", "width"), "custom": ("outputs",)}
PROBLEM_KINDS = tuple(_KIND_PARAMS)


@dataclass(frozen=True)
class BooleanProblem:
    """A named total function from n-bit vectors to integers."""

    name: str
    kind: str
    n: int
    params: dict

    def __repr__(self) -> str:  # params carry arrays for custom tables
        return f"BooleanProblem(name={self.name!r}, kind={self.kind!r}, n={self.n})"


@dataclass(frozen=True)
class TruthTable:
    """Output column over all 2**n rows, row i = packed input i."""

    n: int
    outputs: np.ndarray

    def __post_init__(self):
        outputs = np.asarray(self.outputs)  # checked before any cast could wrap
        if outputs.size and not -OUTPUT_BOUND <= outputs.min() <= outputs.max() < OUTPUT_BOUND:
            raise ValueError("outputs must lie in [-2**62, 2**62)")
        outputs = outputs.astype(np.int64, copy=False)
        if outputs.shape != (1 << self.n,):
            raise ValueError(f"expected {1 << self.n} outputs, got {outputs.shape}")
        object.__setattr__(self, "outputs", outputs)


def _check_n(n) -> int:
    if not isinstance(n, (int, np.integer)) or n < 1:
        raise ValueError(f"n must be an integer >= 1, got {n!r}")
    return int(n)


def or_problem(n: int) -> BooleanProblem:
    n = _check_n(n)
    return BooleanProblem("or", "or", n, {})


def unary_evaluation(n: int) -> BooleanProblem:
    n = _check_n(n)
    return BooleanProblem("ue", "ue", n, {})


def binary_evaluation(n: int) -> BooleanProblem:
    n = _check_n(n)
    return BooleanProblem("be", "be", n, {})


def tribes_problem(n: int, tribe_count: int = 2) -> BooleanProblem:
    n = _check_n(n)
    if not isinstance(tribe_count, (int, np.integer)) or tribe_count < 1:
        raise ValueError(f"tribe_count must be a positive integer, got {tribe_count!r}")
    if n % tribe_count != 0:
        raise ValueError(f"n={n} is not divisible by tribe_count={tribe_count}")
    return BooleanProblem(f"tribes{tribe_count}", "tribes", n, {"tribe_count": int(tribe_count)})


def comparison_problem(k: int) -> BooleanProblem:
    k = _check_n(k)
    return BooleanProblem(f"comparison{k}", "comparison", 2 * k, {"k": int(k)})


def sorting_problem(count: int, width: int) -> BooleanProblem:
    count = _check_n(count)
    width = _check_n(width)
    n = count * width
    if n > MAX_PACK_BITS:
        raise ResourceLimitError(f"sorting over {n} bits cannot pack its output into int64")
    return BooleanProblem(f"sorting{count}x{width}", "sorting", n,
                          {"count": int(count), "width": int(width)})


def custom_problem(outputs: Sequence[int]) -> BooleanProblem:
    shape = np.shape(outputs)
    if len(shape) != 1 or shape[0] < 2 or (shape[0] & (shape[0] - 1)) != 0:
        raise ValueError("custom outputs must have length 2**n with n >= 1")
    n = int(shape[0]).bit_length() - 1
    if n > CUSTOM_BITS_LIMIT:
        raise ResourceLimitError(f"custom tables support n <= {CUSTOM_BITS_LIMIT}, got n={n}")
    column = TruthTable(n, outputs).outputs.copy()
    column.setflags(write=False)
    return BooleanProblem("custom", "custom", n, {"outputs": column})


def build_problem(kind: str, n: int | None = None, **params) -> BooleanProblem:
    """Construct a problem from its kind string and parameters.  A parameter
    the kind does not read, or an n other than the problem's own, is
    refused."""
    if kind not in _KIND_PARAMS:
        raise ValueError(f"unknown problem kind {kind!r}; expected one of {PROBLEM_KINDS}")
    unread = sorted(set(params) - set(_KIND_PARAMS[kind]))
    if unread:
        raise ValueError(f"{kind} problems do not read {unread}")
    if kind == "or":
        return or_problem(n)
    if kind == "ue":
        return unary_evaluation(n)
    if kind == "be":
        return binary_evaluation(n)
    if kind == "tribes":
        return tribes_problem(n, params.get("tribe_count", 2))
    if kind == "comparison":
        k = params.get("k")
        if k is None:
            if n is None or n % 2 != 0:
                raise ValueError("comparison needs k, or an even n")
            k = n // 2
        problem = comparison_problem(k)
    elif kind == "sorting":
        count, width = params.get("count"), params.get("width")
        if count is None or width is None:
            raise ValueError("sorting needs count and width")
        problem = sorting_problem(count, width)
    else:
        outputs = params.get("outputs")
        if outputs is None:
            raise ValueError("custom needs an outputs column")
        problem = custom_problem(outputs)
    if n is not None and n != problem.n:
        raise ValueError(f"{problem.name} has n={problem.n}, got n={n!r}")
    return problem


def _outputs(problem: BooleanProblem, idx: np.ndarray) -> np.ndarray:
    """The problem's outputs on an int64 array of packed input rows, which
    it may return (be) or overwrite (or)."""
    n, kind = problem.n, problem.kind
    if kind == "or":
        return np.not_equal(idx, 0, out=idx)
    if kind == "ue":
        return popcount(idx, n)
    if kind == "be":
        return idx
    if kind == "tribes":
        t = problem.params["tribe_count"]
        size = n // t
        mask = (1 << size) - 1
        hit = np.zeros(idx.shape, dtype=bool)
        for c in range(t):
            hit |= ((idx >> (c * size)) & mask) == mask
        return hit.astype(np.int64)
    if kind == "comparison":
        k = problem.params["k"]
        return np.sign((idx & ((1 << k) - 1)) - (idx >> k)).astype(np.int64)
    if kind == "sorting":
        count, width = problem.params["count"], problem.params["width"]
        mask = (1 << width) - 1
        fields = np.stack([(idx >> (width * m)) & mask for m in range(count)], axis=-1)
        fields.sort(axis=-1)
        return fields @ np.left_shift(np.int64(1), width * np.arange(count, dtype=np.int64))
    if kind == "custom":
        return np.asarray(problem.params["outputs"], dtype=np.int64)[idx]
    raise ValueError(f"unknown problem kind {kind!r}; expected one of {PROBLEM_KINDS}")


def evaluate(problem: BooleanProblem, bits: Sequence[int]) -> int:
    """Apply the problem to one input vector."""
    index = bits_to_index(as_bit_array(bits, problem.n))
    return int(_outputs(problem, np.array([index], dtype=np.int64))[0])


def truth_table(problem: BooleanProblem) -> TruthTable:
    """Enumerate the full output column (guarded at n <= TABLE_BITS_LIMIT),
    one read-only 2**n array, which decoders.identity_decoder shares."""
    n = problem.n
    if n > TABLE_BITS_LIMIT:
        raise ResourceLimitError(f"truth tables support n <= {TABLE_BITS_LIMIT}, got n={n}")
    if problem.kind == "ue":  # the ones count of every row, by doubling
        column = popcount_table(n)
    else:
        column = _outputs(problem, np.arange(1 << n, dtype=np.int64))
    column.setflags(write=False)
    return TruthTable(n, column)


def table_to_csv(table: TruthTable, path) -> None:
    """Write the table as CSV with header b_{n-1},...,b_0,output."""
    path = Path(path)
    header = [f"b_{j}" for j in range(table.n - 1, -1, -1)] + ["output"]
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for i in range(1 << table.n):
            bits = index_to_bits(i, table.n)
            writer.writerow([int(b) for b in bits[::-1]] + [int(table.outputs[i])])


def table_from_csv(path) -> TruthTable:
    """Read a truth table written by :func:`table_to_csv` (bit-exact)."""
    path = Path(path)
    with path.open(newline="") as fh:
        rows = [r for r in csv.reader(fh) if r and not r[0].startswith("#")]
    if not rows:
        raise ValueError(f"{path} is empty")
    header = rows[0]
    n = len(header) - 1
    expected = [f"b_{j}" for j in range(n - 1, -1, -1)] + ["output"]
    if header != expected or n < 1:
        raise ValueError(f"bad truth table header {header!r}")
    body = rows[1:]
    if len(body) != (1 << n):
        raise ValueError(f"expected {1 << n} rows, got {len(body)}")
    outputs = []
    for i, row in enumerate(body):
        bits = np.array([int(c) for c in row[:-1]], dtype=np.uint8)[::-1]
        if bits_to_index(bits) != i:
            raise ValueError(f"row {i} bit pattern {row[:-1]} out of order")
        outputs.append(int(row[-1]))
    return TruthTable(n, outputs)
