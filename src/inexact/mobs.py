"""Quality metrics and the blindfolded-vs-clairvoyant price ratio.

The headline number for a problem is the worst ratio, over energy budgets
and inputs, of the best blindfolded error to the best clairvoyant error.
The blindfolded side always plays the uniform allocation.  Where _proof
applies, it is the blindfolded optimum too: under S_n each bit flips with
marginal mean(q), q = 2**-e, and both proven worst rows are least at the
uniform split.  Elsewhere it is an assumption: that no other vector does
better once the adversary shuffles it.  It fails for some many-valued
tables of the ones count alone (which descend), where the shuffled
objective is lower off the uniform split (the strict xfail
tests/test_mobs.py::test_a_many_valued_ones_count_table_prices_at_one).
The clairvoyant side plays champion's rule in every mode: _proof's closed
form, read off table facts a built-in kind gives with no table;
sorting_weighted's top_bit_split, by proof; comparison_weighted's
equalizer; else, exact, a coordinate descent from the uniform vector and
the kind's analytic allocation (tribes, comparison under a per-input
metric, sorting under expected_magnitude, custom tables), so the ratio
never sits below 1 (up to descent tolerance and rounding), and, sampled,
that allocation alone.  Where it
returns the uniform split, which every permutation fixes, both sides read
one law: mobs scores it once (exact, _proof's worst row where it applies,
so or and ue price at any n), and every ratio is 1.

Each metric is one profile function, (energy rows, group) -> errors, which
scores a (K, n) stack of energy rows at once, each row bit for bit as it
would score alone: a per-input metric one entry where _proof gives its
worst row, with no truth table, else every input row through one
decoders.ErrorAnalysis of the identity decoder (its loss matrix depends on
neither the energies nor the group: K moves cost K matrix-vector
products); a pair-weighted metric the worst position of its closed form,
averaged over the group's rewirings of each row.  Every search scores
through error_objective, the worst entry of each row (a per-input descent
once per class of twin rows: _twins_scored_once).  Exact mobs compares
both champions' profiles entry for entry; sampled mode on probe rows.

Metrics:

* worst_correctness   -- worst-input wrong-output probability.
* expected_magnitude  -- worst-input expected |truth - decoded|.
* comparison_weighted -- worst pair (x != y) of |x - y| * P{compared wrong}.
* sorting_weighted    -- sum over pairs of |x_a - x_b| * P{ordered wrong}
                         on the expensive-pairs instance (half the numbers
                         at 2**(width-1), half at 0; sorting_mobs_bound's),
                         which reads only the numbers' top-bit energies.

Comparison and sorting score position reads as pooled atomic events: the
two operand bits at position j share their energy (c_j = sum of both), a
read errs with probability 2**-c_j, an erring unequal position inverts its
verdict, an erring tie breaks either way with half that mass, and the
decision comes from the most significant position that reads nonzero.
"""

from __future__ import annotations

import functools
import math
from collections import namedtuple
from dataclasses import dataclass, field

import numpy as np

from .bits import ResourceLimitError, as_rng
from .noise import EnergyVector, energy_rows, energy_vector, flip_probability
from .adversary import FullSymmetricGroup, IdentityGroup, PermutationGroup
from .problems import (BooleanProblem, TruthTable, binary_evaluation, comparison_problem,
                       or_problem, sorting_problem, truth_table, unary_evaluation)
from .decoders import (
    ErrorAnalysis,
    _any_flip,
    _check_width,
    _classes,
    _lone_output,
    identity_decoder,
    monte_carlo_error,
)
from .allocators import analytic_allocation, coordinate_descent, uniform_allocation, water_fill

METRIC_KINDS = ("worst_correctness", "expected_magnitude",
                "comparison_weighted", "sorting_weighted")

# per-input metrics score each input row under a decoder loss; the other
# metrics are pair-weighted aggregates
_PER_INPUT_LOSS = {"worst_correctness": "exact", "expected_magnitude": "absolute"}
_Proof = namedtuple("_Proof", "champion worst_row")  # what _proof returns


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


def _split_comparison_energies(problem: BooleanProblem, entries: np.ndarray):
    k = problem.params["k"]
    if entries.shape[-1] != 2 * k:
        raise ValueError(f"comparison over {2 * k} bits, energies have {entries.shape[-1]}")
    return entries[..., :k], entries[..., k:]


def comparison_wrong_probability(problem: BooleanProblem, energies: EnergyVector,
                                 x: int, y: int) -> float:
    """Exact probability that the pooled scan compares one operand pair
    wrongly.  For x = y, "wrong" means any nonzero verdict."""
    if problem.kind != "comparison":
        raise ValueError("expected a comparison problem")
    k = problem.params["k"]
    if not (0 <= x < (1 << k) and 0 <= y < (1 << k)):
        raise ValueError(f"operands must be {k}-bit values")
    p = _pooled_probabilities(*_split_comparison_energies(problem, energies.entries))
    if x == y:
        return float(1.0 - np.prod(1.0 - p))
    A, B = _scan_terms(p)
    j = (x ^ y).bit_length() - 1
    return float(A[j] + B[j] * p[j])


def _comparison_weighted_error_direct(problem: BooleanProblem,
                                      rows: np.ndarray) -> np.ndarray:
    # one entry per top differing position j, which alone fixes P{wrong};
    # the widest pair differing there has |x - y| = 2**(j+1) - 1
    ex, ey = _split_comparison_energies(problem, rows)
    p = _pooled_probabilities(ex, ey)
    A, B = _scan_terms(p)
    weights = np.exp2(np.arange(1, p.shape[-1] + 1)) - 1.0
    return weights * (A + B * p)


def _equalized_pooled_sums(k: int, level: float) -> list[float] | None:
    """The pooled sums s_j that hold every entry of
    _comparison_weighted_error_direct at the level, set from the top
    position down: p_j = 2**-s_j solves w_j * (A_j + B_j * p_j) = level
    given the positions above, clipped to 1 (s_j = 0, its entry below the
    level; B_j = 0 below such a position, which spends nothing either).
    None where a sum leaves the float range (p_j underflows to 0)."""
    sums = [0.0] * k
    a, b = 0.0, 1.0
    for j in range(k - 1, -1, -1):
        # a <= level / w_{j+1} by the entry above, so the numerator is
        # positive in exact arithmetic
        p = 1.0 if b == 0.0 else min((level / ((2 << j) - 1) - a) / b, 1.0)
        if not p > 0.0:
            return None
        sums[j] = 0.0 - math.log2(p)  # +0.0 at p = 1
        a += b * p / 2.0
        b *= 1.0 - p
    return sums


def equalized_comparison(k: int, budget: float) -> EnergyVector:
    """Clairvoyant comparison_weighted champion at the budget, by top-down
    equalization: bisect on the level until the pooled sums of
    _equalized_pooled_sums spend the budget, and split each sum evenly
    between the two operands' bits.

    The top entry alone at the level costs log2(w_top / level), so the
    level lies above w_top * 2**-(budget + 1), where that entry alone
    overspends, and at most w_top, which spends nothing.  Bisection needs
    the budget spent to fall as the level rises, which is checked
    numerically, not proven.  The top position takes the ulps the float
    level leaves unspent, unless adding them rounds over the budget, so the
    sums are >= 0 and, summed exactly, at most the budget.  Where the level
    needed leaves the float range (budgets of about a thousand per
    position) the rule returns the uniform split, as the descent did there:
    no float level tells the optimum apart.
    """
    top = float((2 << (k - 1)) - 1)
    lo, hi = top * 2.0 ** -(budget + 1.0), top
    best = [0.0] * k
    while True:
        mid = (lo + hi) / 2.0
        if not lo < mid < hi:
            break
        sums = _equalized_pooled_sums(k, mid)
        if sums is not None and math.fsum(sums) <= budget:
            hi, best = mid, sums
        else:
            lo = mid
    if _equalized_pooled_sums(k, lo) is None:
        return uniform_allocation(budget, 2 * k)
    topped = best[:-1] + [best[-1] + max(budget - math.fsum(best), 0.0)]
    best = topped if math.fsum(topped) <= budget else best
    half = [s / 2.0 for s in best]
    return energy_vector(half + half)


def _check_even_count(count: int) -> None:
    if count < 2 or count % 2 != 0:
        raise ValueError("count must be even and >= 2")


def expensive_pairs_instance(count: int, width: int) -> tuple[int, ...]:
    """Half the numbers at 2**(width-1), half at 0 (count must be even)."""
    _check_even_count(count)
    high = 1 << (width - 1)
    return tuple([high] * (count // 2) + [0] * (count // 2))


def top_bit_split(count: int, width: int, budget: float) -> EnergyVector:
    """Clairvoyant sorting_weighted champion at the budget, by proof:
    budget / count on each number's top bit (index m * width + width - 1),
    0 on every other bit.  O(count * width); no table, no search.

    Let H be the count/2 = h high numbers of expensive_pairs_instance and
    L the h low ones, t the top-bit energies.  Each of the h**2 unequal
    pairs errs 2**-(t_a + t_b) with weight 2**(width-1), so the objective is
    2**(width-1) * S_H * S_L, S_X = sum_{a in X} 2**-t_a.  2**-t is convex,
    so by Jensen S_X >= h * 2**(-T_X / h), T_X the energy on X's top bits,
    and the objective is at least 2**(width-1) * h**2 * 2**(-B / h), since
    T_H + T_L <= B.  The even split over all top bits attains that bound.
    Any split of B between H and L that is even within each half does too;
    this one depends on no search path.
    """
    _check_even_count(count)
    entries = np.zeros(count * width)
    entries[width - 1::width] = budget / count
    return energy_vector(entries)


def _sorting_weighted_error_direct(problem: BooleanProblem, rows: np.ndarray) -> np.ndarray:
    # every unequal pair of the expensive-pairs instance differs first at the
    # top position, where the scan has read nothing above (A = 0, B = 1), so
    # it errs with the pooled probability of the two top-bit energies alone
    count, width = problem.params["count"], problem.params["width"]
    if rows.shape[1] != problem.n:
        raise ValueError(f"sorting over {problem.n} bits, energies have {rows.shape[1]}")
    values = expensive_pairs_instance(count, width)
    top = rows[:, width - 1::width]
    total = np.zeros(rows.shape[0])
    for a in range(count):
        for b in range(a + 1, count):
            if values[a] != values[b]:
                p = _pooled_probabilities(top[:, a], top[:, b])
                total += abs(values[a] - values[b]) * p
    return total


def _analysis(problem: BooleanProblem, metric: str) -> ErrorAnalysis:
    """The per-input metric's ErrorAnalysis of the identity decoder."""
    table = truth_table(problem)
    return ErrorAnalysis(table, identity_decoder(table), _PER_INPUT_LOSS[metric])


def _profile_function(problem: BooleanProblem, metric: str):
    """(energy rows, group) -> the metric's profile of each row of the (K, n)
    stack: _proof's worst row alone, a pair-weighted metric's worst position
    averaged over the group's rewirings, else one ErrorAnalysis' rows."""
    proof = _proof(problem, metric)
    if proof is None and metric in _PER_INPUT_LOSS:
        return _analysis(problem, metric).profile
    if metric == "comparison_weighted":
        if problem.kind != "comparison":
            raise ValueError("comparison_weighted needs a comparison problem")
        direct = lambda rows: _comparison_weighted_error_direct(problem, rows)
    elif metric == "sorting_weighted":
        if problem.kind != "sorting":
            raise ValueError("sorting_weighted needs a sorting problem")
        direct = lambda rows: _sorting_weighted_error_direct(problem, rows)
    elif proof is None:
        raise ValueError(f"unknown metric {metric!r}; expected one of {METRIC_KINDS}")

    def profile(rows, group):
        rows = energy_rows(rows)
        group.check_width(rows.shape[1])
        if proof is not None:
            _check_width(rows.shape[1], problem.n)
            return proof.worst_row(rows, group)[:, None]
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
    return float(error_objective(problem, metric, group)(energy_rows(energies))[0])


# ---------------------------------------------------------------------------
# analytic cross-checks

def sorting_mobs_bound(count: int, width: int) -> float:
    """Expensive-pair wrong-order probability ratio 2**((width-1)/2) between
    uniform play (2**-((width+1)/2)) and per-position ladder play (2**-width)."""
    _check_even_count(count)
    if width < 1:
        raise ValueError("width must be >= 1")
    return 2.0 ** ((width - 1) / 2.0)


# ---------------------------------------------------------------------------
# the symmetry-price ratio

def _ratio(bf, cv):
    """bf / cv entry for entry, IEEE division, except that 0/0 reads 1 and x/0 inf."""
    with np.errstate(all="ignore"):
        return np.where(cv == 0.0, np.where(bf == 0.0, 1.0, np.inf), np.divide(bf, cv))


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
    bf_rows = np.asarray(bf_rows, dtype=np.float64)
    cv_rows = np.asarray(cv_rows, dtype=np.float64)
    ratios = _ratio(bf_rows, cv_rows)
    worst = int(np.argmax(ratios))  # the first maximum
    cv_value, bf_value = float(np.max(cv_rows)), float(np.max(bf_rows))
    return BudgetOutcome(budget, cv_energies, bf_energies, cv_value, bf_value,
                         float(ratios[worst]), float(_ratio(bf_value, cv_value)),
                         None if rows is None else int(rows[worst]), converged,
                         std_errors)


def _twin_classes(table) -> list[list[int]]:
    """The table's bits in classes of twins, bits whose swap leaves it
    unchanged.  Twinship is an equivalence ((i k) = (i j)(j k)(i j)), so
    each bit is tested against the first bit of each class before it."""
    idx, classes = np.arange(1 << table.n), []
    for j in range(table.n):
        for c in classes:  # swapping bits c[0] and j moves the rows where they differ
            swapped = idx ^ ((idx >> c[0] ^ idx >> j) & 1) * (1 << c[0] | 1 << j)
            if np.array_equal(table.outputs[swapped], table.outputs):
                c.append(j)
                break
        else:
            classes.append([j])
    return classes


def _twins_scored_once(objective, table):
    """objective, the table's identity-group objective, but stack rows equal
    once sorted within each twin class (found on the first call) are scored
    by the first of them: a swap of twins permutes the profile's rows, so
    such rows agree up to rounding, far below IMPROVEMENT_EPS, and the walk
    takes the same moves and prints the same bytes."""
    classes = None

    def score(rows):
        nonlocal classes
        if classes is None:
            classes = _twin_classes(table)
        if len(rows) == 1 or len(classes) == table.n:  # no twins
            return objective(rows)
        keys = np.hstack([np.sort(rows[:, c], axis=1) for c in classes])
        _, first, back = np.unique(keys, axis=0, return_index=True, return_inverse=True)
        return objective(rows[first])[back.reshape(-1)]

    return score


def _has_lone_output(table) -> bool:
    """Whether some output value comes from exactly one input row."""
    return 1 in np.diff(_classes(table.outputs)[2], append=table.outputs.size)


def _linear_levels(table):
    """log2 w if outputs(i) = outputs(0) + sum_j w_j bit_j(i), every w_j > 0
    (rows [2**j, 2**(j+1)) are rows [0, 2**j) plus w_j), else None."""
    out = table.outputs
    w = out[1 << np.arange(table.n)] - out[0]
    steps = (np.array_equal(out[1 << j:2 << j], out[:1 << j] + w[j]) for j in range(table.n))
    return np.log2(w) if (w > 0).all() and all(steps) else None


def _table_facts(problem: BooleanProblem):
    """(_has_lone_output, |lone - other| of a two-valued table with a lone
    output (decoders._lone_output) else None, _linear_levels), off a custom
    table's column, else off the kind, with no table: or, ue, be and sorting
    give 0 at the all-zero row alone, tribes has a lone output as AND or OR
    only, comparison at k = 1 only (1 and -1), or, tribes and one-bit tables
    are 0/1; be, one-number sorts and one-bit tables have w_j = 2**j, ue 1."""
    n, kind, params = problem.n, problem.kind, problem.params
    if kind == "custom":
        table = TruthTable(n, params["outputs"])
        found = _lone_output(table.outputs)
        return (_has_lone_output(table), None if found is None else
                float(abs(int(found[1]) - int(found[2]))), _linear_levels(table))
    lone = (kind in ("or", "ue", "be", "sorting")
            or (kind == "tribes" and params["tribe_count"] in (1, n))
            or (kind == "comparison" and params["k"] == 1))
    levels = None
    if kind == "be" or n == 1 or (kind == "sorting" and params["count"] == 1):
        levels = np.arange(n, dtype=np.float64)
    elif kind == "ue":
        levels = np.zeros(n)
    return lone, 1.0 if lone and (kind in ("or", "tribes") or n == 1) else None, levels


def _proof(problem: BooleanProblem, metric: str):
    """champion's two proofs as code, off _table_facts, for a per-input
    metric (else None): _Proof(champion, budget -> (EnergyVector, True);
    worst_row, ((K, n) energy rows, group) -> each row's worst-row error,
    bit for bit as the row alone), under every group:

    * a linear table, f(i) = f(0) + sum_j w_j bit_j(i), every w_j > 0 (be:
      2**j, ue: 1), under expected_magnitude, checked first (a one-bit table
      errs w q, as its ramp row does): |f(i ^ d) - f(i)| = |sum_j w_j s_j
      d_j| <= sum_j w_j d_j (s_j = 1 - 2 bit_j(i)), so row 0 is the worst
      and errs sum_j w_j m_j, m = group.marginal(q); under the identity
      group sum_j w_j 2**-e_j, least exactly at water_fill(log2 w).
    * a lone output (or, ue, be, sorting) read right or wrong: under
      worst_correctness, or expected_magnitude on a two-valued table (w its
      spread, else 1), row i errs w P{f(i ^ d) != f(i)} <= w P{d != 0} =
      w (1 - prod_j (1 - q_j)) (decoders._any_flip), equal at the lone row;
      sum_j log(1 - 2**-e_j) is strictly concave and symmetric, so the
      uniform split is least.  Every table the law kernel reads through the
      identity decoder is here, so no search profiles one."""
    if metric not in _PER_INPUT_LOSS:
        return None
    lone, spread, levels = _table_facts(problem)
    if levels is not None and metric == "expected_magnitude":
        weights = np.exp2(levels)
        return _Proof(lambda budget: (water_fill(levels, budget), True),
                      lambda rows, group: np.array([(weights * group.marginal(q)).sum()
                                                    for q in flip_probability(rows)]))
    if (lone and metric == "worst_correctness") or spread is not None:
        w = 1.0 if metric == "worst_correctness" else spread
        return _Proof(lambda budget: (uniform_allocation(budget, problem.n), True),
                      lambda rows, group: w * _any_flip(flip_probability(rows)))
    return None


def champion(problem: BooleanProblem, metric: str, objective=None):
    """mobs' clairvoyant rule in every mode, budget -> (EnergyVector,
    converged); the first that applies: _proof's closed form (the uniform
    split, the water fill), by proof; for sorting under sorting_weighted,
    top_bit_split, by proof; for comparison under comparison_weighted,
    equalized_comparison, optimal by numerical evidence
    (tests/test_mobs.py), not by proof; else a coordinate descent on
    objective (the identity-group objective) from the uniform split and
    analytic_allocation, or with no objective (sampled mode, where each
    evaluation would be an exact enumeration) analytic_allocation itself.
    So only tribes, comparison under a per-input metric, sorting under
    expected_magnitude and custom tables without a proof descend."""
    n = problem.n
    proof = _proof(problem, metric)
    if proof is not None:
        return proof.champion
    if problem.kind == "sorting" and metric == "sorting_weighted":
        count, width = problem.params["count"], problem.params["width"]
        return lambda budget: (top_bit_split(count, width, budget), True)
    if problem.kind == "comparison" and metric == "comparison_weighted":
        return lambda budget: (equalized_comparison(problem.params["k"], budget), True)
    if objective is None:
        return lambda budget: (analytic_allocation(problem, budget), True)

    def descend(budget):
        cv = coordinate_descent(objective, budget, n, [uniform_allocation(budget, n),
                                                       analytic_allocation(problem, budget)])
        return cv.energies, cv.converged

    return descend


def _probe_inputs(problem: BooleanProblem, rng) -> list[int]:
    """Sampled-mode input rows: the two sign-extreme rows plus random ones."""
    size = 1 << problem.n
    probes = {0, size - 1}
    probes.update(as_rng(rng).integers(size, size=8).tolist())
    return sorted(probes)


def mobs(problem: BooleanProblem, budget_grid=None, metric: str | None = None,
         group: PermutationGroup | None = None, mode: str = "exact",
         samples: int = 100_000, rng=None) -> MobsResult:
    """Price of blindfolding across a budget grid.

    Per-input metrics take the worst input-row ratio (the first row of the
    largest ratio); pair-weighted metrics compare the scalar aggregates.
    The clairvoyant side plays champion's rule.  Exact mode enumerates
    through one ErrorAnalysis with exact rows, built where a side needs
    rows (not at a flat proven champion: _proof's worst row).  Sampled
    mode estimates per-input metrics only, on probe rows; only it reads rng.
    """
    if metric is None:
        metric = default_metric(problem)
    if metric not in METRIC_KINDS:
        raise ValueError(f"unknown metric {metric!r}; expected one of {METRIC_KINDS}")
    if group is None:
        group = FullSymmetricGroup(problem.n)
    group.check_width(problem.n)  # a flat champion's sides never meet the group
    if budget_grid is None:
        budget_grid = default_budget_grid(problem.n)
    budget_grid = [float(b) for b in budget_grid]
    # not 0 <= b < inf is true on NaN too
    if not budget_grid or any(not 0 <= b < np.inf for b in budget_grid):
        raise ValueError("budget grid must be nonempty with finite budgets >= 0")
    if mode not in ("exact", "monte_carlo"):
        raise ValueError(f"unknown mode {mode!r}; expected exact or monte_carlo")
    per_input = metric in _PER_INPUT_LOSS
    sampled = mode == "monte_carlo"
    if sampled and not per_input:
        raise ValueError(f"sampled mobs estimates per-input metrics only, not {metric}")

    identity = IdentityGroup(problem.n)
    objective = proof = None
    if sampled:
        # each side's probes decode one shared pattern stream, cv's draws first
        rng = as_rng(rng)  # exact mode draws nothing
        table = truth_table(problem)
        decoder, loss = identity_decoder(table), _PER_INPUT_LOSS[metric]
        score = lambda energies, g, probes: monte_carlo_error(table, energies, g, decoder, probes,
                                                               loss, samples, rng)
    elif per_input:  # the analysis built where a side needs rows
        proof = _proof(problem, metric)

        @functools.cache
        def analysis():  # xor's rows carry transform noise, too coarse to price
            built = _analysis(problem, metric)
            if built.kernel not in ("matrix", "law", "ramp"):
                raise ResourceLimitError(f"exact mobs reads a kept loss matrix, the law or the "
                                         f"ramp, not the {built.kernel} kernel ({problem.name})")
            return built
        score = lambda energies, g, probes: (analysis().profile(energies, g), None)
        if proof is None:  # champion descends on it
            objective = _twins_scored_once(error_objective(problem, metric, identity,
                                                           profile=analysis().profile),
                                           analysis().table)
    else:  # a pair-weighted metric reads its own kind, whose champion is closed form
        profile = _profile_function(problem, metric)
        score = lambda energies, g, probes: (profile(energy_rows(energies), g)[0], None)
    rule = champion(problem, metric, objective)
    rows = range(1 << problem.n) if per_input else None
    outcomes = []
    for budget in budget_grid:
        bf_energies = uniform_allocation(budget, problem.n)
        cv_energies, converged = rule(budget)
        probes = _probe_inputs(problem, rng) if sampled else rows
        # a flat vector, which every permutation fixes: both sides read one law
        flat = np.array_equal(cv_energies.entries, bf_energies.entries)
        if flat and proof is not None:  # and its worst row closed form: every ratio 1, row 0
            probes = [0]
            cv = bf = (proof.worst_row(energy_rows(cv_energies), identity), None)
        else:
            cv = score(cv_energies, identity, probes)
            bf = cv if flat else score(bf_energies, group, probes)
        std = {"cv": dict(zip(map(str, probes), cv[1].tolist())),
               "bf": dict(zip(map(str, probes), bf[1].tolist())),
               "probes": probes} if sampled else None
        outcomes.append(_outcome(budget, cv_energies, bf_energies, cv[0], bf[0], converged,
                                 probes, std))
    return MobsResult(problem.name, problem.kind, problem.n, metric, group.kind,
                      mode, outcomes, samples if sampled else None)


def table2_rows(sizes=(4, 6, 8), comparison_widths=(2, 3, 4),
                sorting_shapes=((4, 2),)) -> list[MobsResult]:
    """Desk-scale sweep over the canonical problem families, exact.

    One result per (family, size); comparison and sorting run at their
    ladder budgets, the rest over the default grid.
    """
    rows = []
    for n in sizes:
        for build in (or_problem, unary_evaluation, binary_evaluation):
            rows.append(mobs(build(n)))
    for k in comparison_widths:
        rows.append(mobs(comparison_problem(k), budget_grid=[k * (k + 1) / 2.0]))
    for count, width in sorting_shapes:
        rows.append(mobs(sorting_problem(count, width),
                         budget_grid=[count * width * (width + 1) / 4.0]))
    return rows
