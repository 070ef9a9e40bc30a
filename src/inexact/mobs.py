"""Quality metrics and the blindfolded-vs-clairvoyant price ratio.

The headline number for a problem is the worst ratio, over energy budgets
and inputs, of the best blindfolded error to the best clairvoyant error.
The blindfolded side always plays the uniform allocation (non-uniform
vectors cannot improve any per-bit marginal once the adversary shuffles
them); the clairvoyant side is found by coordinate descent seeded with the
uniform vector and a kind-appropriate closed-form allocation.  Because the
clairvoyant search starts at the blindfolded champion's own vector, the
ratio can never sit below 1 (up to descent tolerance).

Each metric is one profile function, (energy rows, group) -> errors, which
scores a (K, n) stack of energy rows at once, each row bit for bit as it
would score alone: one entry per input row for the per-input metrics (one
decoders.ErrorAnalysis of the truth table read through the identity
decoder, whose loss matrix depends on neither the energies nor the group,
so a stack of K candidate moves costs K matrix-vector products behind one
call), and one entry for the pair-weighted metrics (the worst position of
their closed form, vectorized over the rows, averaged over the group's
rewirings of each row).  Every search scores through error_objective, the
worst entry of each row.  Per budget,
exact mobs descends on the identity-group objective and compares both
champions' profiles entry for entry; sampled mode estimates the per-input
profiles on probe rows instead.

Metrics:

* worst_correctness   -- worst-input wrong-output probability.
* expected_magnitude  -- worst-input expected |truth - decoded|.
* comparison_weighted -- worst pair (x != y) of |x - y| * P{compared wrong}.
* sorting_weighted    -- sum over pairs of |x_a - x_b| * P{ordered wrong},
                         on the expensive-pairs instance (half the numbers
                         at 2**(width-1), half at 0), the one
                         sorting_mobs_bound is derived on.

Comparison and sorting score position reads as pooled atomic events: the
two operand bits at position j share their energy (c_j = sum of both), a
read errs with probability 2**-c_j, an erring unequal position inverts its
verdict, an erring tie breaks either way with half that mass, and the
decision comes from the most significant position that reads nonzero.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .bits import as_rng
from .noise import EnergyVector, energy_rows
from .adversary import FullSymmetricGroup, IdentityGroup, PermutationGroup
from .problems import BooleanProblem, truth_table
from .decoders import (
    ErrorAnalysis,
    identity_decoder,
    monte_carlo_error,
)
from .allocators import (
    analytic_allocation,
    coordinate_descent,
    uniform_allocation,
)

METRIC_KINDS = ("worst_correctness", "expected_magnitude",
                "comparison_weighted", "sorting_weighted")

# per-input metrics score each input row under a decoder loss; the other
# metrics are pair-weighted aggregates
_PER_INPUT_LOSS = {"worst_correctness": "exact", "expected_magnitude": "absolute"}


def default_metric(problem: BooleanProblem) -> str:
    if problem.kind == "comparison":
        return "comparison_weighted"
    if problem.kind == "sorting":
        return "sorting_weighted"
    if problem.kind == "be":
        return "expected_magnitude"
    return "worst_correctness"


def default_budget_grid(n: int) -> list[float]:
    return [float(n), n * (n + 1) / 4.0, n * (n + 1) / 2.0, float(n * (n + 1))]


# ---------------------------------------------------------------------------
# pooled ternary position reads (comparison and sorting)

def _scan_terms(p: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-position terms of the most-significant-first scan, for each row
    of pooled probabilities along p's last axis.

    B[j] = P{every position above j reads correctly};
    A[j] = P{some tie above j misreads first AND breaks toward one fixed
           sign} (half the misread mass decides each way).
    """
    B = np.empty_like(p)
    A = np.empty_like(p)
    B_next = np.ones(p.shape[:-1])
    A_next = np.zeros(p.shape[:-1])
    for j in range(p.shape[-1] - 1, -1, -1):
        B[..., j] = B_next
        A[..., j] = A_next
        A_next = A_next + B_next * (p[..., j] / 2.0)
        B_next = B_next * (1.0 - p[..., j])
    return A, B


def _pooled_probabilities(x_energies: np.ndarray, y_energies: np.ndarray) -> np.ndarray:
    return np.exp2(-(x_energies + y_energies))


def pair_wrong_probability(x: int, y: int, x_energies, y_energies):
    """P{the pooled scan orders x and y wrongly} for k-bit values, for each
    row of operand energies along the last axis (a float for one row).

    For x = y, "wrong" means any nonzero verdict.
    """
    p = _pooled_probabilities(np.asarray(x_energies, dtype=np.float64),
                              np.asarray(y_energies, dtype=np.float64))
    if x == y:
        return 1.0 - np.prod(1.0 - p, axis=-1)
    A, B = _scan_terms(p)
    j = (x ^ y).bit_length() - 1
    return A[..., j] + B[..., j] * p[..., j]


def _split_comparison_energies(problem: BooleanProblem, entries: np.ndarray):
    k = problem.params["k"]
    if entries.shape[-1] != 2 * k:
        raise ValueError(f"comparison over {2 * k} bits, energies have {entries.shape[-1]}")
    return entries[..., :k], entries[..., k:]


def comparison_wrong_probability(problem: BooleanProblem, energies: EnergyVector,
                                 x: int, y: int) -> float:
    """Exact wrong-comparison probability for one operand pair."""
    if problem.kind != "comparison":
        raise ValueError("expected a comparison problem")
    k = problem.params["k"]
    if not (0 <= x < (1 << k) and 0 <= y < (1 << k)):
        raise ValueError(f"operands must be {k}-bit values")
    ex, ey = _split_comparison_energies(problem, energies.entries)
    return float(pair_wrong_probability(x, y, ex, ey))


def _comparison_weighted_error_direct(problem: BooleanProblem,
                                      rows: np.ndarray) -> np.ndarray:
    # one entry per top differing position j, which alone fixes P{wrong};
    # the widest pair differing there has |x - y| = 2**(j+1) - 1
    ex, ey = _split_comparison_energies(problem, rows)
    p = _pooled_probabilities(ex, ey)
    A, B = _scan_terms(p)
    weights = np.exp2(np.arange(1, p.shape[-1] + 1)) - 1.0
    return weights * (A + B * p)


def expensive_pairs_instance(count: int, width: int) -> tuple[int, ...]:
    """Half the numbers at 2**(width-1), half at 0 (count must be even)."""
    if count < 2 or count % 2 != 0:
        raise ValueError("count must be even and >= 2")
    high = 1 << (width - 1)
    return tuple([high] * (count // 2) + [0] * (count // 2))


def _sorting_weighted_error_direct(problem: BooleanProblem, rows: np.ndarray,
                                   instance) -> np.ndarray:
    count, width = problem.params["count"], problem.params["width"]
    if rows.shape[1] != problem.n:
        raise ValueError(f"sorting over {problem.n} bits, energies have {rows.shape[1]}")
    values = tuple(int(v) for v in instance)
    slots = [rows[:, m * width:(m + 1) * width] for m in range(count)]
    total = np.zeros(rows.shape[0])
    for a in range(count):
        for b in range(a + 1, count):
            gap = abs(values[a] - values[b])
            if gap == 0:
                continue
            total += gap * pair_wrong_probability(values[a], values[b],
                                                  slots[a], slots[b])
    return total


def _profile_function(problem: BooleanProblem, metric: str):
    """(energy rows, group) -> error profile of the metric, one row of
    entries per row of the (K, n) stack.

    A per-input metric profiles every input row through one ErrorAnalysis
    of the truth table under the identity decoder.  A pair-weighted metric
    profiles as one entry: the worst entry of its closed form averaged over
    the group's rewirings of the energies.
    """
    if metric in _PER_INPUT_LOSS:
        table = truth_table(problem)
        loss = _PER_INPUT_LOSS[metric]
        return ErrorAnalysis(table, identity_decoder(table), loss).profile
    if metric == "comparison_weighted":
        if problem.kind != "comparison":
            raise ValueError("comparison_weighted needs a comparison problem")
        direct = lambda rows: _comparison_weighted_error_direct(problem, rows)
    elif metric == "sorting_weighted":
        if problem.kind != "sorting":
            raise ValueError("sorting_weighted needs a sorting problem")
        instance = expensive_pairs_instance(problem.params["count"],
                                            problem.params["width"])
        direct = lambda rows: _sorting_weighted_error_direct(problem, rows, instance)
    else:
        raise ValueError(f"unknown metric {metric!r}; expected one of {METRIC_KINDS}")

    def profile(rows, group):
        rows = energy_rows(rows)
        group.check_width(rows.shape[1])
        averaged = group.average(direct, rows)
        return averaged.reshape(rows.shape[0], -1).max(axis=1, keepdims=True)

    return profile


def error_objective(problem: BooleanProblem, metric: str | None = None,
                    group: PermutationGroup | None = None, profile=None):
    """(K, n) energy rows -> K scalar errors of (problem, allocation,
    adversary) under the metric, one per row.

    This is the quantity the allocation searches minimize and the ratio in
    the symmetry-price computation is built from: the worst entry of the
    metric's profile function (the given one, or one built here, so a search
    builds its truth table and loss matrix once).  No group means identity.
    """
    if metric is None:
        metric = default_metric(problem)
    if profile is None:
        profile = _profile_function(problem, metric)
    g = group if group is not None else IdentityGroup(problem.n)
    return lambda rows: profile(rows, g).max(axis=1)


def aggregate_error(problem: BooleanProblem, energies: EnergyVector,
                    group: PermutationGroup | None = None,
                    metric: str | None = None) -> float:
    """error_objective(problem, metric, group) at one energy vector."""
    objective = error_objective(problem, metric, group)
    return float(objective(energy_rows(energies))[0])


# ---------------------------------------------------------------------------
# analytic cross-checks

def be_analytic_bounds(n: int) -> tuple[float, float]:
    """(ramp-allocation expected error n/2, uniform-allocation floor 2**((n-3)/2))."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return n / 2.0, 2.0 ** ((n - 3) / 2.0)


def sorting_mobs_bound(count: int, width: int) -> float:
    """Expensive-pair wrong-order probability ratio 2**((width-1)/2) between
    uniform play (2**-((width+1)/2)) and per-position ladder play (2**-width)."""
    if count < 2 or count % 2 != 0:
        raise ValueError("count must be even and >= 2")
    if width < 1:
        raise ValueError("width must be >= 1")
    return 2.0 ** ((width - 1) / 2.0)


# ---------------------------------------------------------------------------
# the symmetry-price ratio

def _ratio(bf: float, cv: float) -> float:
    if cv == 0.0:
        return 1.0 if bf == 0.0 else float("inf")
    return bf / cv


@dataclass(frozen=True)
class BudgetOutcome:
    """Champions and ratios at one energy budget."""

    budget: float
    cv_energies: EnergyVector
    bf_energies: EnergyVector
    cv_value: float              # clairvoyant aggregate error
    bf_value: float              # blindfolded aggregate error
    error_ratio: float           # max over inputs of BF(i)/CV(i); aggregate ratio otherwise
    quality_ratio: float         # CV quality / BF quality = bf_value / cv_value
    worst_input: int | None      # argmax input row for per-input metrics
    converged: bool
    std_errors: dict | None = None

    def to_json(self) -> dict:
        body = {
            "budget": self.budget,
            "cv_energies": self.cv_energies.entries.tolist(),
            "bf_energies": self.bf_energies.entries.tolist(),
            "cv_value": self.cv_value,
            "bf_value": self.bf_value,
            "error_ratio": _json_float(self.error_ratio),
            "quality_ratio": _json_float(self.quality_ratio),
            "converged": self.converged,
        }
        if self.worst_input is not None:
            body["worst_input"] = int(self.worst_input)
        if self.std_errors is not None:
            body["std_errors"] = self.std_errors
        return body


def _json_float(x: float):
    return "inf" if np.isinf(x) else float(x)


@dataclass(frozen=True)
class MobsResult:
    """Symmetry price across a budget grid."""

    problem_name: str
    kind: str
    n: int
    metric: str
    group_kind: str
    mode: str
    outcomes: list[BudgetOutcome] = field(default_factory=list)
    samples: int | None = None

    @property
    def mobs(self) -> float:
        return max(o.error_ratio for o in self.outcomes)

    @property
    def converged(self) -> bool:
        return all(o.converged for o in self.outcomes)

    def to_json(self) -> dict:
        return {
            "problem": self.problem_name,
            "kind": self.kind,
            "n": self.n,
            "metric": self.metric,
            "decoder_strategy": "identity",  # every search reads bits as-is
            "group": self.group_kind,
            "mode": self.mode,
            "samples": self.samples,
            "mobs": _json_float(self.mobs),
            "converged": self.converged,
            "per_budget": [o.to_json() for o in self.outcomes],
        }

    def csv_row(self) -> str:
        mobs = self.mobs
        text = "inf" if np.isinf(mobs) else f"{mobs:.12g}"
        return f"{self.problem_name},{self.n},{text},{self.mode}"


def _outcome(budget, cv_energies, bf_energies, cv_rows, bf_rows, converged,
             rows=None, std_errors=None) -> BudgetOutcome:
    """One budget's outcome from both sides' profiles, entry for entry:
    the worst entry ratio and the ratio of the worst entries.  rows names
    the input row of each entry; None for a pair-weighted aggregate."""
    ratios = np.array([_ratio(b, c) for b, c in zip(bf_rows, cv_rows)])
    worst = int(np.argmax(ratios))
    cv_value, bf_value = float(np.max(cv_rows)), float(np.max(bf_rows))
    return BudgetOutcome(budget, cv_energies, bf_energies, cv_value, bf_value,
                         float(ratios[worst]), _ratio(bf_value, cv_value),
                         None if rows is None else int(rows[worst]), converged,
                         std_errors)


def _sampled_outcome(problem, table, budget, bf_energies, metric, group, samples,
                     rng) -> BudgetOutcome:
    # sampled mode skips the descent (each objective evaluation would be an
    # exact enumeration); the clairvoyant side plays its closed-form seed
    loss = _PER_INPUT_LOSS[metric]
    identity = IdentityGroup(problem.n)
    cv_energies = analytic_allocation(problem, budget)
    decoder = identity_decoder(table)
    probes = _probe_inputs(problem, rng)
    cv_est, bf_est, cv_se, bf_se = {}, {}, {}, {}
    for i in probes:
        cv_est[i], cv_se[str(i)] = monte_carlo_error(table, cv_energies, identity,
                                                     decoder, i, loss, samples, rng)
        bf_est[i], bf_se[str(i)] = monte_carlo_error(table, bf_energies, group,
                                                     decoder, i, loss, samples, rng)
    std = {"cv": cv_se, "bf": bf_se, "probes": probes}
    return _outcome(budget, cv_energies, bf_energies, list(cv_est.values()),
                    list(bf_est.values()), True, probes, std)


def _probe_inputs(problem: BooleanProblem, rng) -> list[int]:
    """Sampled-mode input rows: the two sign-extreme rows plus random ones."""
    size = 1 << problem.n
    probes = {0, size - 1}
    draw = as_rng(rng).integers(size, size=8)
    probes.update(int(d) for d in draw)
    return sorted(probes)


def mobs(problem: BooleanProblem, budget_grid=None, metric: str | None = None,
         group: PermutationGroup | None = None, mode: str = "exact",
         samples: int = 100_000, rng=None) -> MobsResult:
    """Price of blindfolding across a budget grid.

    Per-input metrics take the worst input-row ratio; pair-weighted metrics
    compare the scalar aggregates.  Exact mode enumerates; sampled mode
    estimates per-input errors on probe rows with standard errors attached.
    """
    if metric is None:
        metric = default_metric(problem)
    if metric not in METRIC_KINDS:
        raise ValueError(f"unknown metric {metric!r}; expected one of {METRIC_KINDS}")
    if group is None:
        group = FullSymmetricGroup(problem.n)
    if budget_grid is None:
        budget_grid = default_budget_grid(problem.n)
    budget_grid = [float(b) for b in budget_grid]
    # not 0 <= b < inf is true on NaN too
    if not budget_grid or any(not 0 <= b < np.inf for b in budget_grid):
        raise ValueError("budget grid must be nonempty with finite budgets >= 0")
    if mode not in ("exact", "monte_carlo"):
        raise ValueError(f"unknown mode {mode!r}; expected exact or monte_carlo")
    rng = as_rng(rng)

    per_input = metric in _PER_INPUT_LOSS
    sampled = per_input and mode == "monte_carlo"
    identity = IdentityGroup(problem.n)
    if sampled:
        table = truth_table(problem)
    else:
        profile = _profile_function(problem, metric)
        objective = error_objective(problem, metric, identity, profile=profile)
    rows = range(1 << problem.n) if per_input else None
    outcomes = []
    for budget in budget_grid:
        bf_energies = uniform_allocation(budget, problem.n)
        if sampled:
            outcomes.append(_sampled_outcome(problem, table, budget, bf_energies, metric,
                                             group, samples, rng))
            continue
        seeds = [bf_energies, analytic_allocation(problem, budget)]
        cv = coordinate_descent(objective, budget, problem.n, seeds)
        outcomes.append(_outcome(budget, cv.energies, bf_energies,
                                 profile(energy_rows(cv.energies), identity)[0],
                                 profile(energy_rows(bf_energies), group)[0],
                                 cv.converged, rows))
    used_mode = mode if per_input else "exact"
    return MobsResult(problem.name, problem.kind, problem.n, metric, group.kind,
                      used_mode, outcomes, samples if used_mode == "monte_carlo" else None)


def table2_rows(sizes=(4, 6, 8), comparison_widths=(2, 3, 4),
                sorting_shapes=((4, 2),), mode: str = "exact",
                samples: int = 100_000, rng=None) -> list[MobsResult]:
    """Desk-scale sweep over the canonical problem families.

    One result per (family, size); comparison and sorting run at their
    ladder budgets, the rest over the default grid.
    """
    from .problems import (binary_evaluation, comparison_problem, or_problem,
                           sorting_problem, unary_evaluation)

    rng = as_rng(rng)
    rows = []
    for n in sizes:
        for build in (or_problem, unary_evaluation, binary_evaluation):
            rows.append(mobs(build(n), mode=mode, samples=samples, rng=rng))
    for k in comparison_widths:
        problem = comparison_problem(k)
        rows.append(mobs(problem, budget_grid=[k * (k + 1) / 2.0], rng=rng))
    for count, width in sorting_shapes:
        problem = sorting_problem(count, width)
        rows.append(mobs(problem,
                         budget_grid=[count * width * (width + 1) / 4.0], rng=rng))
    return rows
