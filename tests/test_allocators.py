import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from inexact.allocators import (
    AllocationResult,
    analytic_allocation,
    coordinate_descent,
    grid_search,
    sorting_allocation,
    ue_variance,
    uniform_allocation,
    water_fill,
)
from inexact.bits import ResourceLimitError
from inexact.mobs import error_objective
from inexact.noise import energy_vector
from inexact.problems import binary_evaluation, comparison_problem, or_problem, \
    sorting_problem, unary_evaluation


def ramp_cost(entries) -> float:
    # what the water-filled ramp minimizes
    e = np.asarray(entries, dtype=np.float64)
    return level_cost(np.arange(e.size), e)


def level_cost(levels, entries) -> float:
    # what water_fill(levels, budget) minimizes
    return float(np.sum(np.exp2(np.asarray(levels) - np.asarray(entries))))


def ramp(n: int, budget: float):
    return water_fill(np.arange(n, dtype=np.float64), budget)


def test_uniform_allocation():
    ev = uniform_allocation(6.0, 3)
    assert np.allclose(ev.entries, 2.0)
    assert ev.budget == pytest.approx(6.0)
    n = 5
    assert np.allclose(uniform_allocation(n * (n + 1) / 2, n).entries, (n + 1) / 2)
    with pytest.raises(ValueError):
        uniform_allocation(-1.0, 3)


def test_staircase_allocation():
    # the staircase e_j = j + 1 is the ramp at its canonical budget n(n+1)/2
    ev = ramp(3, 6)
    assert ev.entries.tolist() == [1.0, 2.0, 3.0]
    assert ev.budget == 6.0
    with pytest.raises(ValueError):
        water_fill([], 0)


def test_comparison_allocation():
    # the comparison ladder is the sorting ladder of two numbers
    ev = sorting_allocation(2, 2)
    assert ev.entries.tolist() == [0.5, 1.0, 0.5, 1.0]
    assert ev.budget == pytest.approx(3.0)
    # position j pools j+1 units across the two operands
    k = 7
    ev = sorting_allocation(2, k)
    assert ev.budget == pytest.approx(k * (k + 1) / 2)
    pooled = ev.entries[:k] + ev.entries[k:]
    assert np.allclose(pooled, np.arange(1, k + 1))
    with pytest.raises(ValueError):
        sorting_allocation(2, 0)


def test_sorting_allocation():
    ev = sorting_allocation(4, 2)
    assert ev.entries.tolist() == [0.5, 1.0] * 4
    assert ev.budget == pytest.approx(4 * 2 * 3 / 4)
    with pytest.raises(ValueError):
        sorting_allocation(0, 2)


def test_water_filled_ramp_equals_staircase_at_its_budget():
    for n in (1, 3, 6):
        staircase = ramp(n, n * (n + 1) / 2)
        assert np.allclose(staircase.entries, np.arange(1, n + 1), atol=1e-12)


def test_water_filled_ramp_clamps_small_budgets():
    ev = ramp(3, 0.5)
    assert np.allclose(ev.entries, [0.0, 0.0, 0.5], atol=1e-12)
    assert ramp(2, 0.0).entries.tolist() == [0.0, 0.0]
    with pytest.raises(ValueError):
        water_fill([], 1.0)
    for budget in (-1.0, float("nan")):
        with pytest.raises(ValueError):
            ramp(2, budget)


def _staircase_ramp(n: int, budget: float) -> np.ndarray:
    """Reference ramp written for the levels 0..n-1 alone: e_j = max(0, j + c),
    c spread over j = t..n-1 for the first t that fits."""
    j = np.arange(n, dtype=np.float64)
    for t in range(n):
        c = (budget - j[t:].sum()) / (n - t)
        if t + c >= 0:
            e = np.maximum(j + c, 0.0)
            e[:t] = 0.0
            return e


def test_water_fill_of_the_positions_is_the_ramp_byte_for_byte():
    for n in range(1, 17):
        for budget in (0.0, 0.5, float(n), n * (n + 1) / 2):
            got = water_fill(np.arange(n, dtype=np.float64), budget).entries
            assert got.tobytes() == _staircase_ramp(n, budget).tobytes(), (n, budget)


def test_water_fill_takes_its_levels_in_any_order():
    # a permutation of the levels permutes the fill and nothing else, ties
    # included (the levels are sorted stably)
    assert water_fill([2.0, 0.0, 1.0], 6.0).entries.tolist() == [3.0, 1.0, 2.0]
    rng = np.random.default_rng(37)
    for n in (1, 2, 5, 9):
        levels = np.round(rng.normal(0.0, 2.0, n), 1)
        levels[0] = levels[-1]
        for budget in (0.0, 0.3, float(n), 4.0 * n):
            fill = water_fill(levels, budget).entries
            perm = rng.permutation(n)
            assert np.array_equal(water_fill(levels[perm], budget).entries, fill[perm])
            assert fill.sum() == pytest.approx(budget, abs=1e-9)
            # the optimality conditions: e_j - l_j is one offset c on the
            # filled entries and at least c on the empty ones
            gap, filled = fill - levels, fill > 0
            if filled.any():
                assert np.ptp(gap[filled]) <= 1e-9
                assert (gap[~filled] >= gap[filled].max() - 1e-9).all()


@given(st.lists(st.floats(-4.0, 4.0, allow_nan=False), min_size=1, max_size=6),
       st.floats(0.0, 30.0, allow_nan=False), st.data())
@settings(max_examples=60, deadline=None)
def test_water_fill_beats_random_feasible_vectors(levels, budget, data):
    fill = water_fill(levels, budget)
    assert fill.budget == pytest.approx(budget, abs=1e-9)
    weights = data.draw(st.lists(st.floats(0.01, 1.0, allow_nan=False),
                                 min_size=len(levels), max_size=len(levels)))
    rival = np.array(weights) * (budget / np.sum(weights))
    assert level_cost(levels, fill.entries) <= level_cost(levels, rival) * (1 + 1e-12) + 1e-9


@given(st.integers(1, 6), st.floats(0.0, 30.0, allow_nan=False), st.data())
@settings(max_examples=60, deadline=None)
def test_water_filled_ramp_beats_random_feasible_vectors(n, budget, data):
    fill = ramp(n, budget)
    assert fill.budget == pytest.approx(budget, abs=1e-9)
    weights = data.draw(st.lists(st.floats(0.01, 1.0, allow_nan=False),
                                 min_size=n, max_size=n))
    rival = np.array(weights) * (budget / np.sum(weights))
    assert ramp_cost(fill.entries) <= ramp_cost(rival) + 1e-9


def test_analytic_allocation_kinds():
    assert np.allclose(analytic_allocation(binary_evaluation(3), 6.0).entries,
                       [1.0, 2.0, 3.0])
    comp = analytic_allocation(comparison_problem(2), 6.0)
    assert comp.budget == pytest.approx(6.0)
    assert np.allclose(comp.entries, [1.0, 2.0, 1.0, 2.0])
    sort = analytic_allocation(sorting_problem(2, 2), 3.0)
    assert sort.budget == pytest.approx(3.0)
    assert np.allclose(analytic_allocation(or_problem(4), 2.0).entries, 0.5)
    assert np.allclose(analytic_allocation(unary_evaluation(2), 5.0).entries, 2.5)


def test_ue_variance_examples():
    # one value per energy row of the stack
    one, zero, high, even, spread = ue_variance(
        np.array([[1.0, 1.0], [0.0, 0.0], [60.0, 60.0], [2.0, 2.0], [1.0, 3.0]]))
    assert one == pytest.approx(0.5, abs=1e-15)
    assert zero == 0.0
    assert high < 1e-15
    # the true landscape: spreading a pair apart LOWERS the variance once
    # both energies sit above 1
    assert even == pytest.approx(0.375, abs=1e-15)
    assert spread == pytest.approx(0.359375, abs=1e-15)
    assert spread < even


@pytest.mark.xfail(strict=True, reason="the ones-count variance is NOT minimized by "
                   "the uniform split: var(1,3)=0.359375 beats var(2,2)=0.375, and "
                   "the grid minimum sits at a corner")
def test_uniform_split_minimizes_ue_variance():
    uniform, spread = ue_variance(np.array([[2.0, 2.0], [1.0, 3.0]]))
    assert uniform <= spread + 1e-12
    grid = grid_search(ue_variance, 4.0, n=2, resolution=0.05)
    assert np.allclose(grid.energies.entries, 2.0, atol=1e-9)


@pytest.mark.xfail(strict=True, reason="averaging an energy pair can RAISE the "
                   "ones-count variance (witness (1,3) -> (2,2))")
def test_pairwise_averaging_reduces_ue_variance():
    averaged, spread = ue_variance(np.array([[2.0, 2.0], [1.0, 3.0]]))
    assert averaged <= spread + 1e-12


def test_ue_variance_grid_minimum_is_a_corner():
    result = grid_search(ue_variance, 4.0, n=2, resolution=0.05)
    assert result.method == "grid"
    assert result.converged
    top = np.sort(result.energies.entries)
    assert np.allclose(top, [0.0, 4.0], atol=1e-9)
    assert result.objective_value == pytest.approx(0.05859375, abs=1e-12)


def test_descent_walks_off_the_uniform_variance_plateau():
    result = coordinate_descent(ue_variance, 4.0, n=2)
    assert result.converged
    assert result.objective_value < ue_variance(np.array([[2.0, 2.0]]))[0] - 0.01
    assert np.allclose(np.sort(result.energies.entries), [0.0, 4.0], atol=1e-6)


def test_grid_matches_exhaustive_oracle():
    budget, n, resolution = 1.0, 2, 0.25
    ticks = int(round(budget / resolution))
    points = [
        (a * resolution, (ticks - a) * resolution) for a in range(ticks + 1)
    ]
    oracle = min(points, key=lambda p: ramp_cost(p))
    result = grid_search(lambda rows: np.array([ramp_cost(row) for row in rows]),
                         budget, n=n, resolution=resolution)
    assert result.objective_value == pytest.approx(ramp_cost(oracle), abs=1e-12)
    assert np.allclose(result.energies.entries, oracle, atol=1e-12)
    assert result.evaluations == len(points)


def test_grid_lattice_covers_simplex():
    result = grid_search(ue_variance, 0.3, n=3, resolution=0.1)
    # compositions of 3 ticks into 3 parts: C(5, 2) = 10
    assert result.evaluations == math.comb(5, 2)
    assert result.energies.budget == pytest.approx(0.3, abs=1e-12)


def test_grid_validation_and_caps():
    for resolution in (0.0, math.nan):
        with pytest.raises(ValueError, match="resolution must be positive"):
            grid_search(ue_variance, 1.0, n=2, resolution=resolution)
    with pytest.raises(ValueError):
        grid_search(ue_variance, 1.03, n=2, resolution=0.05)
    with pytest.raises(ResourceLimitError):
        grid_search(ue_variance, 50.0, n=6, resolution=0.05)
    with pytest.raises(ResourceLimitError):
        # under the vectorized cap but over the pointwise one
        grid_search(lambda rows: np.zeros(len(rows)), 10.0, n=4, resolution=0.05)


def test_or_worst_error_grid_minimum_is_uniform():
    # unlike the variance objective, the OR worst error really is best
    # split evenly: it equals 1 - prod(1 - 2**-e_j)
    objective = error_objective(or_problem(2), "worst_correctness")
    result = grid_search(objective, 4.0, 2, resolution=0.25)
    assert np.allclose(result.energies.entries, [2.0, 2.0], atol=1e-12)
    assert result.objective_value == pytest.approx(1 - 0.75 ** 2, abs=1e-12)


def test_descent_reaches_the_ramp_bound_for_be():
    objective = error_objective(binary_evaluation(3), "expected_magnitude")
    result = coordinate_descent(
        objective, 6.0, 3,
        seeds=[uniform_allocation(6.0, 3), analytic_allocation(binary_evaluation(3), 6.0)])
    assert result.converged
    assert result.objective_value <= 1.5 + 1e-9
    assert result.energies.budget <= 6.0 + 1e-9


def test_descent_stalls_at_uniform_for_symmetric_problems():
    for n in (3, 6):
        for build in (or_problem, unary_evaluation):
            objective = error_objective(build(n), "worst_correctness")
            result = coordinate_descent(objective, float(n), n)
            assert result.converged
            assert np.allclose(result.energies.entries, 1.0, atol=1e-9)


def be_asymmetry_factor(n: int) -> float:
    """Uniform vs ramp worst-input expected magnitude at budget n(n+1)/2."""
    from inexact.adversary import IdentityGroup
    from inexact.decoders import error_profile, identity_decoder

    be = binary_evaluation(n)
    budget = n * (n + 1) / 2
    dec = identity_decoder(be)
    g = IdentityGroup(n)
    flat = error_profile(be, uniform_allocation(budget, n), g, dec, "absolute").max()
    steep = error_profile(be, ramp(n, budget), g, dec, "absolute").max()
    return flat / steep


def test_be_ramp_beats_uniform_increasingly():
    factors = {n: be_asymmetry_factor(n) for n in (4, 6, 8, 10)}
    assert factors[4] == pytest.approx(1.326, abs=1e-3)
    assert 1.0 < factors[4] < factors[6] < factors[8] < factors[10]
    assert factors[8] >= 2.0
    assert factors[10] >= 2.0


@pytest.mark.xfail(strict=True, reason="the factor-2 gap between uniform and "
                   "optimized play opens only from n=8; at n=4 it is 1.326 and "
                   "at n=6 it is 1.856")
def test_be_ramp_beats_uniform_twofold_from_n4():
    assert be_asymmetry_factor(4) >= 2.0


def test_descent_seed_validation():
    with pytest.raises(ValueError):
        coordinate_descent(ue_variance, 4.0, n=2,
                           seeds=[uniform_allocation(4.0, 3)])
    with pytest.raises(ValueError):
        coordinate_descent(ue_variance, 4.0, n=2,
                           seeds=[uniform_allocation(8.0, 2)])
    with pytest.raises(TypeError):
        coordinate_descent(12345, 4.0, n=2)
    # refused before any evaluation, which would raise the TypeError above
    with pytest.raises(ValueError, match="at least one seed"):
        coordinate_descent(12345, 4.0, n=2, seeds=[])


@given(st.integers(2, 4), st.floats(0.5, 6.0, allow_nan=False))
@settings(max_examples=20, deadline=None)
def test_descent_respects_the_budget(n, budget):
    result = coordinate_descent(ue_variance, budget, n=n)
    assert np.all(result.energies.entries >= -1e-12)
    assert result.energies.budget <= budget + 1e-9


def test_searches_refuse_a_negative_or_infinite_budget():
    for search in (coordinate_descent, grid_search):
        for budget in (-2.0, math.inf, 1e400, math.nan):
            with pytest.raises(ValueError, match="budget must be finite"):
                search(ue_variance, budget, n=2)
    with pytest.raises(ValueError):
        objective = error_objective(or_problem(3), "worst_correctness")
        coordinate_descent(objective, 2.0, n=2)  # problem width disagrees


def test_allocation_result_json():
    result = grid_search(ue_variance, 1.0, n=2, resolution=0.5)
    body = result.to_json()
    assert set(body) == {"energies", "budget", "method", "converged",
                        "objective_value", "evaluations"}
    assert isinstance(body["energies"], list)
    assert body["method"] == "grid"
    assert AllocationResult(energy_vector([1.0]), 0.5, "grid", True, 3).converged
