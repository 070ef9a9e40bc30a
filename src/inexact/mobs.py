"""Quality metrics and the blindfolded-vs-clairvoyant price ratio.

The headline number for a problem is the worst ratio, over energy budgets
and inputs, of the best blindfolded error to the best clairvoyant error.
The blindfolded side always plays the uniform allocation (non-uniform
vectors cannot improve any per-bit marginal once the adversary shuffles
them); the clairvoyant side is found by coordinate descent seeded with the
uniform vector and a kind-appropriate closed-form allocation.  Because the
clairvoyant search starts at the blindfolded champion's own vector, the
ratio can never sit below 1 (up to descent tolerance).

Every search (the descent here, the allocate subcommand, grid search) scores
energies through error_objective.  For per-input metrics it scores through
one profile function per problem and loss (one truth table); under the
identity decoder that function is one decoders.ErrorAnalysis, whose loss
matrix depends on neither the energies nor the group, so an evaluation is
one matrix-vector product.  mobs builds the profile function once and also
takes both champions' per-input profiles from it.  The pair-weighted
metrics call aggregate_error per evaluation.

Metrics:

* worst_correctness   -- worst-input wrong-output probability.
* expected_magnitude  -- worst-input expected |truth - decoded|.
* comparison_weighted -- worst pair (x != y) of |x - y| * P{compared wrong}.
* sorting_weighted    -- sum over pairs of |x_a - x_b| * P{ordered wrong},
                         on a chosen input instance.

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
from .noise import EnergyVector
from .adversary import FullSymmetricGroup, IdentityGroup, PermutationGroup
from .problems import BooleanProblem, truth_table
from .decoders import (
    ErrorAnalysis,
    build_decoder,
    error_profile,
    identity_decoder,
    monte_carlo_error,
)
from .allocators import (
    AllocationResult,
    analytic_allocation,
    coordinate_descent,
    uniform_allocation,
)

METRIC_KINDS = ("worst_correctness", "expected_magnitude",
                "comparison_weighted", "sorting_weighted")

# per-input metrics score each input row under a decoder loss; the other
# metrics are pair-weighted aggregates
_PER_INPUT_LOSS = {"worst_correctness": "exact", "expected_magnitude": "absolute"}

RATIO_TOLERANCE = 1e-9


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
    """Per-position terms of the most-significant-first scan.

    B[j] = P{every position above j reads correctly};
    A[j] = P{some tie above j misreads first AND breaks toward one fixed
           sign} (half the misread mass decides each way).
    """
    k = p.size
    B = np.empty(k)
    A = np.empty(k)
    B_next = 1.0
    A_next = 0.0
    for j in range(k - 1, -1, -1):
        B[j] = B_next
        A[j] = A_next
        A_next = A_next + B_next * (p[j] / 2.0)
        B_next = B_next * (1.0 - p[j])
    return A, B


def _pooled_probabilities(x_energies: np.ndarray, y_energies: np.ndarray) -> np.ndarray:
    return np.exp2(-(x_energies + y_energies))


def pair_wrong_probability(x: int, y: int, x_energies, y_energies) -> float:
    """P{the pooled scan orders x and y wrongly} for k-bit values.

    For x = y, "wrong" means any nonzero verdict.
    """
    p = _pooled_probabilities(np.asarray(x_energies, dtype=np.float64),
                              np.asarray(y_energies, dtype=np.float64))
    A, B = _scan_terms(p)
    if x == y:
        prod = float(np.prod(1.0 - p))
        return 1.0 - prod
    j = (x ^ y).bit_length() - 1
    return float(A[j] + B[j] * p[j])


def _split_comparison_energies(problem: BooleanProblem, energies: EnergyVector):
    k = problem.params["k"]
    if energies.n != 2 * k:
        raise ValueError(f"comparison over {2 * k} bits, energies have {energies.n}")
    return energies.entries[:k], energies.entries[k:]


def comparison_wrong_probability(problem: BooleanProblem, energies: EnergyVector,
                                 x: int, y: int) -> float:
    """Exact wrong-comparison probability for one operand pair."""
    if problem.kind != "comparison":
        raise ValueError("expected a comparison problem")
    k = problem.params["k"]
    if not (0 <= x < (1 << k) and 0 <= y < (1 << k)):
        raise ValueError(f"operands must be {k}-bit values")
    ex, ey = _split_comparison_energies(problem, energies)
    return pair_wrong_probability(x, y, ex, ey)


def _comparison_weighted_error_direct(problem: BooleanProblem,
                                      energies: EnergyVector) -> float:
    # P{wrong} depends only on the top differing position j; the widest
    # pair differing there has |x - y| = 2**(j+1) - 1
    ex, ey = _split_comparison_energies(problem, energies)
    p = _pooled_probabilities(ex, ey)
    A, B = _scan_terms(p)
    k = p.size
    weights = np.exp2(np.arange(1, k + 1)) - 1.0
    return float(np.max(weights * (A + B * p)))


def expensive_pairs_instance(count: int, width: int) -> tuple[int, ...]:
    """Half the numbers at 2**(width-1), half at 0 (count must be even)."""
    if count < 2 or count % 2 != 0:
        raise ValueError("count must be even and >= 2")
    high = 1 << (width - 1)
    return tuple([high] * (count // 2) + [0] * (count // 2))


def _sorting_weighted_error_direct(problem: BooleanProblem, energies: EnergyVector,
                                   instance) -> float:
    count, width = problem.params["count"], problem.params["width"]
    if energies.n != problem.n:
        raise ValueError(f"sorting over {problem.n} bits, energies have {energies.n}")
    values = tuple(int(v) for v in instance)
    if len(values) != count or any(not 0 <= v < (1 << width) for v in values):
        raise ValueError(f"instance must hold {count} values of {width} bits")
    slots = [energies.entries[m * width:(m + 1) * width] for m in range(count)]
    total = 0.0
    for a in range(count):
        for b in range(a + 1, count):
            gap = abs(values[a] - values[b])
            if gap == 0:
                continue
            total += gap * pair_wrong_probability(values[a], values[b],
                                                  slots[a], slots[b])
    return total


def _group_average(fn, group: PermutationGroup | None, energies: EnergyVector) -> float:
    """Average fn(permuted energies) over the group (exact)."""
    if group is None or isinstance(group, IdentityGroup):
        return fn(energies)
    if np.ptp(energies.entries) == 0.0:
        return fn(energies)  # uniform vectors are permutation-invariant
    elements = group.elements()  # may raise the enumeration guard
    return float(np.mean([fn(energies.permuted(sigma)) for sigma in elements]))


def aggregate_error(problem: BooleanProblem, energies: EnergyVector,
                    group: PermutationGroup | None = None, metric: str | None = None,
                    decoder_strategy: str = "identity", instance=None) -> float:
    """One scalar error for (problem, allocation, adversary) under a metric.

    This is the quantity the allocation search minimizes and the ratio in
    the symmetry-price computation is built from.
    """
    if metric is None:
        metric = default_metric(problem)
    if metric in _PER_INPUT_LOSS:
        g = group if group is not None else IdentityGroup(problem.n)
        profile = _profile_function(problem, metric, decoder_strategy)
        return float(profile(energies, g).max())
    if metric == "comparison_weighted":
        if problem.kind != "comparison":
            raise ValueError("comparison_weighted needs a comparison problem")
        return _group_average(lambda ev: _comparison_weighted_error_direct(problem, ev),
                              group, energies)
    if metric == "sorting_weighted":
        if problem.kind != "sorting":
            raise ValueError("sorting_weighted needs a sorting problem")
        if instance is None:
            instance = expensive_pairs_instance(problem.params["count"],
                                                problem.params["width"])
        return _group_average(
            lambda ev: _sorting_weighted_error_direct(problem, ev, instance),
            group, energies)
    raise ValueError(f"unknown metric {metric!r}; expected one of {METRIC_KINDS}")


def _profile_function(problem: BooleanProblem, metric: str, decoder_strategy: str):
    """(energies, group) -> per-input error profile of a per-input metric.

    One truth table serves every call.  Under the identity decoder every
    call also shares one ErrorAnalysis; MAP decoding rebuilds its decoder
    for each energy vector and group.
    """
    loss = _PER_INPUT_LOSS[metric]
    table = truth_table(problem)
    if decoder_strategy == "identity":
        return ErrorAnalysis(table, identity_decoder(table), loss).profile

    def profile(energies: EnergyVector, group: PermutationGroup) -> np.ndarray:
        decoder = build_decoder(decoder_strategy, table, energies, group)
        return error_profile(table, energies, group, decoder, loss)

    return profile


def error_objective(problem: BooleanProblem, metric: str | None = None,
                    group: PermutationGroup | None = None,
                    decoder_strategy: str = "identity", instance=None, profile=None):
    """energies -> aggregate_error(problem, energies, group, metric, ...).

    The objective of the clairvoyant descent and of AllocationObjective
    searches.  Per-input metrics score through one profile function (the
    given one, or one built here), so the truth table, and under the
    identity decoder the loss matrix, is built once per search; the value
    is bit for bit aggregate_error's.  Pair-weighted metrics call
    aggregate_error per evaluation.
    """
    if metric is None:
        metric = default_metric(problem)
    if metric in _PER_INPUT_LOSS:
        g = group if group is not None else IdentityGroup(problem.n)
        if profile is None:
            profile = _profile_function(problem, metric, decoder_strategy)
        return lambda evec: float(profile(evec, g).max())
    return lambda evec: aggregate_error(problem, evec, group, metric,
                                        decoder_strategy, instance)


def quality(problem: BooleanProblem, energies: EnergyVector,
            group: PermutationGroup | None = None, metric: str | None = None,
            decoder_strategy: str = "identity", instance=None) -> float:
    """Reciprocal aggregate error; +inf when the error is exactly 0."""
    err = aggregate_error(problem, energies, group, metric, decoder_strategy, instance)
    return float("inf") if err == 0.0 else 1.0 / err


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
# champions and the symmetry-price ratio

def blindfolded_champion(problem: BooleanProblem, budget: float) -> EnergyVector:
    return uniform_allocation(budget, problem.n)


def clairvoyant_champion(problem: BooleanProblem, budget: float,
                         metric: str | None = None,
                         decoder_strategy: str = "identity",
                         instance=None) -> AllocationResult:
    """Coordinate descent from the uniform and closed-form seeds."""
    objective = error_objective(problem, metric, IdentityGroup(problem.n),
                                decoder_strategy, instance)
    return _descend(problem, budget, objective)


def _descend(problem: BooleanProblem, budget: float, objective) -> AllocationResult:
    seeds = [uniform_allocation(budget, problem.n), analytic_allocation(problem, budget)]
    return coordinate_descent(objective, budget, problem.n, seeds)


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
    decoder_strategy: str
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
            "decoder_strategy": self.decoder_strategy,
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


def _exact_outcome(problem, budget, metric, decoder_strategy, group,
                   profile) -> BudgetOutcome:
    identity = IdentityGroup(problem.n)
    bf_vec = blindfolded_champion(problem, budget)
    cv = _descend(problem, budget,
                  error_objective(problem, metric, identity, decoder_strategy,
                                  profile=profile))
    cv_profile = profile(cv.energies, identity)
    bf_profile = profile(bf_vec, group)
    ratios = np.array([_ratio(b, c) for b, c in zip(bf_profile, cv_profile)])
    worst = int(np.argmax(ratios))
    return BudgetOutcome(budget, cv.energies, bf_vec,
                         float(cv_profile.max()), float(bf_profile.max()),
                         float(ratios[worst]),
                         _ratio(float(bf_profile.max()), float(cv_profile.max())),
                         worst, cv.converged)


def _sampled_outcome(problem, budget, metric, decoder_strategy, group,
                     samples, rng) -> BudgetOutcome:
    # sampled mode skips the descent (each objective evaluation would be an
    # exact enumeration); the clairvoyant side plays its closed-form seed
    loss = _PER_INPUT_LOSS[metric]
    bf_vec = blindfolded_champion(problem, budget)
    identity = IdentityGroup(problem.n)
    table = truth_table(problem)
    cv_energies = analytic_allocation(problem, budget)
    cv_decoder = build_decoder(decoder_strategy, table, cv_energies, identity)
    bf_decoder = build_decoder(decoder_strategy, table, bf_vec, group)
    probes = _probe_inputs(problem, rng)
    cv_est, bf_est, cv_se, bf_se = {}, {}, {}, {}
    for i in probes:
        cv_est[i], cv_se[i] = monte_carlo_error(table, cv_energies, identity,
                                                cv_decoder, i, loss, samples, rng)
        bf_est[i], bf_se[i] = monte_carlo_error(table, bf_vec, group,
                                                bf_decoder, i, loss, samples, rng)
    ratios = {i: _ratio(bf_est[i], cv_est[i]) for i in probes}
    worst = max(probes, key=lambda i: ratios[i])
    std = {"cv": {str(i): cv_se[i] for i in probes},
           "bf": {str(i): bf_se[i] for i in probes},
           "probes": [int(i) for i in probes]}
    return BudgetOutcome(budget, cv_energies, bf_vec,
                         max(cv_est.values()), max(bf_est.values()),
                         float(ratios[worst]),
                         _ratio(max(bf_est.values()), max(cv_est.values())),
                         int(worst), True, std)


def _probe_inputs(problem: BooleanProblem, rng) -> list[int]:
    """Sampled-mode input rows: the two sign-extreme rows plus random ones."""
    size = 1 << problem.n
    probes = {0, size - 1}
    draw = as_rng(rng).integers(size, size=8)
    probes.update(int(d) for d in draw)
    return sorted(probes)


def _aggregate_outcome(problem, budget, metric, decoder_strategy, group,
                       instance) -> BudgetOutcome:
    cv = clairvoyant_champion(problem, budget, metric, decoder_strategy, instance)
    bf_vec = blindfolded_champion(problem, budget)
    bf_value = aggregate_error(problem, bf_vec, group, metric, decoder_strategy, instance)
    ratio = _ratio(bf_value, cv.objective_value)
    return BudgetOutcome(budget, cv.energies, bf_vec, cv.objective_value, bf_value,
                         ratio, ratio, None, cv.converged)


def mobs(problem: BooleanProblem, budget_grid=None, metric: str | None = None,
         group: PermutationGroup | None = None, decoder_strategy: str = "identity",
         mode: str = "exact", samples: int = 100_000, rng=None,
         instance=None) -> MobsResult:
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
    if not budget_grid or any(b < 0 for b in budget_grid):
        raise ValueError("budget grid must be nonempty with budgets >= 0")
    if mode not in ("exact", "monte_carlo"):
        raise ValueError(f"unknown mode {mode!r}; expected exact or monte_carlo")
    rng = as_rng(rng)

    per_input = metric in _PER_INPUT_LOSS
    profile = (_profile_function(problem, metric, decoder_strategy)
               if per_input and mode == "exact" else None)
    outcomes = []
    for budget in budget_grid:
        if not per_input:
            outcomes.append(_aggregate_outcome(problem, budget, metric,
                                               decoder_strategy, group, instance))
        elif mode == "exact":
            outcomes.append(_exact_outcome(problem, budget, metric,
                                           decoder_strategy, group, profile))
        else:
            outcomes.append(_sampled_outcome(problem, budget, metric,
                                             decoder_strategy, group, samples, rng))
    used_mode = mode if per_input else "exact"
    return MobsResult(problem.name, problem.kind, problem.n, metric,
                      decoder_strategy, group.kind, used_mode, outcomes,
                      samples if used_mode == "monte_carlo" else None)


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
