"""Energy allocation under a total budget.

Closed-form allocations:

* uniform            -- E/n everywhere; the blindfolded workhorse.
* water-filled ramp  -- e_j = max(0, j + c) with c set so the total is E,
                        the exact minimizer of sum_j 2**j * 2**-e_j under a
                        budget.  The staircase e_j = j + 1 is the ramp at
                        its canonical budget: water_filled_ramp(n, n(n+1)/2).
* sorting ladder     -- every number's bits of position j get (j+1)/2 each
                        (an interpretation: nothing pins down the split
                        across numbers, so all numbers are treated alike).
                        The comparison ladder is its two-number case,
                        sorting_allocation(2, k): the position-j comparison
                        carries j+1 units pooled, total k(k+1)/2.

Numerical search: coordinate descent moving mass between entry pairs with a
halving step ladder, and an exhaustive simplex lattice for small n.  A
search takes the function it minimizes and the width n; both keep every
entry >= 0 and the total within the budget.  The function scores a stack of
candidates at once: a (K, n) float array of energy rows in, K values out
(ue_variance here, or one built by mobs.error_objective), each value the
one that row would score alone, so how a search stacks its candidates
never changes what it finds.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .bits import ResourceLimitError
from .noise import EnergyVector, energy_rows, energy_vector
from .problems import BooleanProblem

IMPROVEMENT_EPS = 1e-10
DESCENT_MIN_STEP = 1e-6
DESCENT_PASS_CAP = 500
GRID_POINT_CAP = 5_000_000
GRID_SLOW_POINT_CAP = 200_000  # objectives other than ue_variance
_GRID_STACK_ENTRIES = 1 << 16  # rows x 2**n per objective call of grid_search


def uniform_allocation(budget: float, n: int) -> EnergyVector:
    if budget < 0:
        raise ValueError("budget must be >= 0")
    return energy_vector(np.full(n, budget / n))


def sorting_allocation(count: int, width: int) -> EnergyVector:
    """Per-number comparison ladder; total count * width * (width+1) / 4."""
    if count < 1 or width < 1:
        raise ValueError("count and width must be >= 1")
    half = (np.arange(width, dtype=np.float64) + 1.0) / 2.0
    return energy_vector(np.tile(half, count))


def water_filled_ramp(n: int, budget: float) -> EnergyVector:
    """Minimizer of sum_j 2**j * 2**-e_j subject to the budget.

    The unconstrained optimum is e_j = j + c; entries that would go
    negative clamp to 0 and the offset rebalances over the rest.
    """
    if n < 1 or budget < 0:
        raise ValueError("need n >= 1 and budget >= 0")
    j = np.arange(n, dtype=np.float64)
    for t in range(n):
        c = (budget - j[t:].sum()) / (n - t)
        if t + c >= 0:
            e = np.maximum(j + c, 0.0)
            e[:t] = 0.0
            return energy_vector(e)
    e = np.zeros(n)
    e[-1] = budget
    return energy_vector(e)


def _scaled(base: EnergyVector, budget: float) -> EnergyVector:
    return energy_vector(base.entries * (budget / base.budget))


def analytic_allocation(problem: BooleanProblem, budget: float) -> EnergyVector:
    """Kind-appropriate closed-form allocation at the given budget.

    Used as a search seed: exact optimum for symmetric kinds and for the
    ramp objective, a scaled ladder otherwise.  For be it is also the
    clairvoyant champion itself: mobs plays the ramp with no search (see
    mobs.closed_form_champion).
    """
    kind, n = problem.kind, problem.n
    if kind == "be":
        return water_filled_ramp(n, budget)
    if kind == "comparison":
        return _scaled(sorting_allocation(2, problem.params["k"]), budget)
    if kind == "sorting":
        return _scaled(sorting_allocation(problem.params["count"],
                                          problem.params["width"]), budget)
    return uniform_allocation(budget, n)


def ue_variance(rows: np.ndarray) -> np.ndarray:
    """Variance of the ones-count estimator, sum_j (1 - 2**-e_j) * 2**-e_j,
    for each row of a (K, n) stack of energy rows."""
    q = np.exp2(-energy_rows(rows))
    return np.sum((1.0 - q) * q, axis=1)


@dataclass(frozen=True)
class AllocationResult:
    energies: EnergyVector
    objective_value: float
    method: str
    converged: bool
    evaluations: int  # candidates a one-at-a-time search examines, not rows scored

    def to_json(self) -> dict:
        return {
            "energies": self.energies.entries.tolist(),
            "budget": self.energies.budget,
            "method": self.method,
            "converged": self.converged,
            "objective_value": self.objective_value,
            "evaluations": self.evaluations,
        }


def _check_budget(budget: float) -> None:
    if not 0 <= budget < np.inf:  # false on NaN too
        raise ValueError(f"budget must be finite and >= 0, got {budget}")


def coordinate_descent(fn: Callable[[np.ndarray], np.ndarray], budget: float, n: int,
                       seeds: Sequence[EnergyVector] | None = None) -> AllocationResult:
    """Pairwise mass-transfer descent of fn from each seed; best result wins.

    At each step size (halving from 1 down to DESCENT_MIN_STEP) every
    ordered entry pair (a, b), in order, is offered a transfer from a to b;
    a move is kept when it improves fn by more than IMPROVEMENT_EPS, and
    later moves start from it.  Runs hitting DESCENT_PASS_CAP passes are
    flagged non-converged.  A seed equal to an earlier one is skipped: its
    walk would repeat that one.

    The walk is first-improvement, one move at a time, but it scores the
    moves as stacks: every move left in the pass that the current vector
    can fund, one fn call, then the first row that improves is taken and
    the moves after it are stacked again from the new vector.  Rows scored
    past an accepted move are not counted in evaluations, so the result,
    its evaluations included, is the one-at-a-time walk's.
    """
    _check_budget(budget)
    if seeds is None:
        seeds = [uniform_allocation(budget, n)]
    if not seeds:
        raise ValueError("coordinate_descent needs at least one seed")
    sources, targets = (m.ravel() for m in np.indices((n, n)))
    moves = sources != targets
    sources, targets = sources[moves], targets[moves]
    best = None
    evaluations = 0
    converged_all = True
    for s, seed in enumerate(seeds):
        if seed.n != n or seed.budget > budget * (1 + 1e-9) + 1e-12:
            raise ValueError("seed does not fit the search (wrong n or over budget)")
        if any(np.array_equal(seed.entries, earlier.entries) for earlier in seeds[:s]):
            continue  # the same walk again
        e = seed.entries.copy()
        value = fn(e[None, :])[0]
        evaluations += 1
        passes = 0
        step = 1.0
        converged = False
        while passes < DESCENT_PASS_CAP:
            improved = False
            start = 0
            while True:
                # the moves left in the pass whose source can give a step
                stack = start + np.flatnonzero(e[sources[start:]] >= step)
                if stack.size == 0:
                    break
                trials = np.repeat(e[None, :], stack.size, axis=0)
                index = np.arange(stack.size)
                trials[index, sources[stack]] -= step
                trials[index, targets[stack]] += step
                values = fn(trials)
                better = np.flatnonzero(values < value - IMPROVEMENT_EPS)
                if better.size == 0:
                    evaluations += stack.size
                    break
                first = better[0]
                evaluations += first + 1
                e, value = trials[first], values[first]
                improved = True
                start = stack[first] + 1
            passes += 1
            if not improved:
                if step <= DESCENT_MIN_STEP:
                    converged = True
                    break
                step /= 2.0
        converged_all = converged_all and converged
        if best is None or value < best[1] - IMPROVEMENT_EPS:
            best = (EnergyVector(e), value, converged)
    return AllocationResult(best[0], float(best[1]), "coordinate_descent",
                            converged_all, int(evaluations))


def _simplex_lattice(total_ticks: int, n: int) -> np.ndarray:
    """All length-n compositions of total_ticks, lexicographic order."""
    if n == 1:
        return np.array([[total_ticks]], dtype=np.int64)
    rows = []
    for first in range(total_ticks + 1):
        rest = _simplex_lattice(total_ticks - first, n - 1)
        block = np.empty((rest.shape[0], n), dtype=np.int64)
        block[:, 0] = first
        block[:, 1:] = rest
        rows.append(block)
    return np.vstack(rows)


def _lattice_size(total_ticks: int, n: int) -> int:
    from math import comb

    return comb(total_ticks + n - 1, n - 1)


def grid_search(fn: Callable[[np.ndarray], np.ndarray], budget: float, n: int,
                resolution: float = 0.05) -> AllocationResult:
    """Exhaustive search of fn over the budget simplex at the given spacing.

    Every lattice point spends the budget exactly; fn scores the lattice in
    stacks of rows.  ue_variance takes the first minimum over a lattice of
    up to GRID_POINT_CAP points; other functions cost a profile per point,
    so they get a tighter lattice-size guard, and a point wins only by
    improving on the best before it by more than IMPROVEMENT_EPS.
    """
    _check_budget(budget)
    if not resolution > 0:  # false on NaN too
        raise ValueError("resolution must be positive")
    ticks = int(round(budget / resolution))
    if abs(ticks * resolution - budget) > 1e-9 * max(budget, 1.0):
        raise ValueError(f"budget {budget} is not a multiple of resolution {resolution}")
    size = _lattice_size(ticks, n)
    if size > GRID_POINT_CAP:
        raise ResourceLimitError(f"simplex lattice has {size} points (cap {GRID_POINT_CAP})")
    cheap = fn is ue_variance
    if not cheap and size > GRID_SLOW_POINT_CAP:
        raise ResourceLimitError(
            f"{size} pointwise objective evaluations exceed the cap {GRID_SLOW_POINT_CAP}")
    lattice = _simplex_lattice(ticks, n) * resolution
    height = max(1, _GRID_STACK_ENTRIES >> n)
    values = np.concatenate([fn(lattice[lo:lo + height]) for lo in range(0, size, height)])
    if cheap:
        best_idx = int(np.argmin(values))
        best_value = values[best_idx]
    else:
        best_idx, best_value = 0, float("inf")
        for i, value in enumerate(values.tolist()):
            if value < best_value - IMPROVEMENT_EPS:
                best_idx, best_value = i, value
    return AllocationResult(energy_vector(lattice[best_idx]), float(best_value),
                            "grid", True, size)

