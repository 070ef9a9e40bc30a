"""Energy allocation under a total budget.

Closed-form allocations:

* uniform            -- E/n everywhere; the blindfolded workhorse.
* staircase          -- e_j = j + 1; more significant bits get more energy,
                        total n(n+1)/2.
* comparison ladder  -- operand bits of position j get (j+1)/2 each, so the
                        position-j comparison carries j+1 units pooled;
                        total k(k+1)/2.
* sorting ladder     -- the comparison ladder replicated inside each number
                        (an interpretation: nothing pins down the split
                        across numbers, so all numbers are treated alike).
* water-filled ramp  -- e_j = max(0, j + c) with c set so the total is E,
                        the exact minimizer of sum_j 2**j * 2**-e_j under a
                        budget; generalizes the staircase off its canonical
                        budget n(n+1)/2 (where c = 1).

Numerical search: coordinate descent moving mass between entry pairs with a
halving step ladder, and an exhaustive simplex lattice for small n.  A
search takes the function it minimizes, EnergyVector -> float (ue_variance
here, or one built by mobs.error_objective), and the width n; both keep
every entry >= 0 and the total within the budget.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .bits import ResourceLimitError
from .noise import EnergyVector, energy_vector, flip_probability
from .problems import BooleanProblem

IMPROVEMENT_EPS = 1e-10
DESCENT_MIN_STEP = 1e-6
DESCENT_PASS_CAP = 500
GRID_POINT_CAP = 5_000_000
GRID_SLOW_POINT_CAP = 200_000  # per-point python objectives


def uniform_allocation(budget: float, n: int) -> EnergyVector:
    if budget < 0:
        raise ValueError("budget must be >= 0")
    return energy_vector(np.full(n, budget / n))


def staircase_allocation(n: int) -> EnergyVector:
    if n < 1:
        raise ValueError("n must be >= 1")
    return energy_vector(np.arange(1, n + 1, dtype=np.float64))


def comparison_allocation(k: int) -> EnergyVector:
    """Both operands' bits of position j get (j+1)/2; total k(k+1)/2."""
    if k < 1:
        raise ValueError("k must be >= 1")
    half = (np.arange(k, dtype=np.float64) + 1.0) / 2.0
    return energy_vector(np.concatenate([half, half]))


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
    total = base.budget
    if total == 0:
        return base
    return energy_vector(base.entries * (budget / total))


def analytic_allocation(problem: BooleanProblem, budget: float) -> EnergyVector:
    """Kind-appropriate closed-form allocation at the given budget.

    Used as a search seed: exact optimum for symmetric kinds and for the
    ramp objective, a scaled ladder otherwise.
    """
    kind, n = problem.kind, problem.n
    if kind == "be":
        return water_filled_ramp(n, budget)
    if kind == "comparison":
        return _scaled(comparison_allocation(problem.params["k"]), budget)
    if kind == "sorting":
        return _scaled(sorting_allocation(problem.params["count"],
                                          problem.params["width"]), budget)
    return uniform_allocation(budget, n)


def ue_variance(energies: EnergyVector) -> float:
    """Variance of the ones-count estimator: sum_j (1 - 2**-e_j) * 2**-e_j."""
    q = flip_probability(energies)
    return float(np.sum((1.0 - q) * q))


@dataclass(frozen=True)
class AllocationResult:
    energies: EnergyVector
    objective_value: float
    method: str
    converged: bool
    evaluations: int

    def to_json(self) -> dict:
        return {
            "energies": self.energies.entries.tolist(),
            "budget": self.energies.budget,
            "method": self.method,
            "converged": self.converged,
            "objective_value": self.objective_value,
            "evaluations": self.evaluations,
        }


def coordinate_descent(fn: Callable[[EnergyVector], float], budget: float, n: int,
                       seeds: Sequence[EnergyVector] | None = None) -> AllocationResult:
    """Pairwise mass-transfer descent of fn from each seed; best result wins.

    At each step size (halving from 1 down to DESCENT_MIN_STEP) every
    ordered entry pair is offered a transfer; a move is kept when it
    improves fn by more than IMPROVEMENT_EPS.  Runs hitting
    DESCENT_PASS_CAP passes are flagged non-converged.
    """
    if seeds is None:
        seeds = [uniform_allocation(budget, n)]
    best = None
    evaluations = 0
    converged_all = True
    for seed in seeds:
        if seed.n != n or seed.budget > budget * (1 + 1e-9) + 1e-12:
            raise ValueError("seed does not fit the search (wrong n or over budget)")
        e = seed.entries.copy()
        value = fn(EnergyVector(e))
        evaluations += 1
        passes = 0
        step = 1.0
        converged = False
        while passes < DESCENT_PASS_CAP:
            improved = False
            for a in range(n):
                for b in range(n):
                    # e mutates on acceptance, so re-check headroom every move
                    if a == b or e[a] < step:
                        continue
                    trial = e.copy()
                    trial[a] -= step
                    trial[b] += step
                    trial_value = fn(EnergyVector(trial))
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
            best = (EnergyVector(e), value, converged)
    return AllocationResult(best[0], float(best[1]), "coordinate_descent",
                            converged_all, evaluations)


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


def _check_budget(budget: float) -> None:
    if not 0 <= budget < np.inf:  # false on NaN too
        raise ValueError(f"budget must be finite and >= 0, got {budget}")


def grid_search(fn: Callable[[EnergyVector], float], budget: float, n: int,
                resolution: float = 0.05) -> AllocationResult:
    """Exhaustive search of fn over the budget simplex at the given spacing.

    Every lattice point spends the budget exactly.  ue_variance runs
    vectorized; other functions are evaluated pointwise and get a tighter
    lattice-size guard.
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
    lattice = _simplex_lattice(ticks, n) * resolution

    if fn is ue_variance:
        q = np.exp2(-lattice)
        values = ((1.0 - q) * q).sum(axis=1)
        best_idx = int(np.argmin(values))
        return AllocationResult(energy_vector(lattice[best_idx]),
                                float(values[best_idx]), "grid", True, size)

    if size > GRID_SLOW_POINT_CAP:
        raise ResourceLimitError(
            f"{size} pointwise objective evaluations exceed the cap {GRID_SLOW_POINT_CAP}")
    best_idx, best_value = 0, float("inf")
    for i in range(size):
        value = fn(energy_vector(lattice[i]))
        if value < best_value - IMPROVEMENT_EPS:
            best_idx, best_value = i, value
    return AllocationResult(energy_vector(lattice[best_idx]), float(best_value),
                            "grid", True, size)


def optimize_allocation(fn: Callable[[EnergyVector], float], budget: float, n: int,
                        method: str = "coordinate_descent",
                        resolution: float = 0.05) -> AllocationResult:
    """Minimize fn over allocations with total <= budget."""
    _check_budget(budget)
    if method == "coordinate_descent":
        return coordinate_descent(fn, budget, n)
    if method == "grid":
        return grid_search(fn, budget, n, resolution)
    raise ValueError(f"unknown method {method!r}; expected coordinate_descent or grid")
