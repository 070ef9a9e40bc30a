import importlib
import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from inexact.adversary import SYMMETRIC_ENUM_LIMIT, FullSymmetricGroup, GeneratedGroup, \
    IdentityGroup, average_pattern_probabilities
from inexact.allocators import analytic_allocation, coordinate_descent, grid_search, \
    sorting_allocation, ue_variance, uniform_allocation, water_filled_ramp
from inexact.bits import ResourceLimitError, popcount_table
from inexact.decoders import ErrorAnalysis, error_profile, map_decoder
from inexact.mobs import (
    aggregate_error,
    closed_form_champion,
    comparison_wrong_probability,
    default_budget_grid,
    default_metric,
    error_objective,
    expensive_pairs_instance,
    mobs,
    sorting_mobs_bound,
    table2_rows,
)
from inexact.noise import energy_vector
from inexact.problems import (
    binary_evaluation,
    build_problem,
    comparison_problem,
    custom_problem,
    or_problem,
    sorting_problem,
    tribes_problem,
    unary_evaluation,
)

from conftest import brute_descent, brute_pair_wrong, one_row_at_a_time


def test_default_metric_and_grid():
    assert default_metric(or_problem(3)) == "worst_correctness"
    assert default_metric(binary_evaluation(3)) == "expected_magnitude"
    assert default_metric(comparison_problem(2)) == "comparison_weighted"
    assert default_metric(sorting_problem(2, 2)) == "sorting_weighted"
    assert default_budget_grid(4) == [4.0, 5.0, 10.0, 20.0]


@given(st.integers(1, 4), st.data())
@settings(max_examples=60, deadline=None)
def test_pair_wrong_probability_matches_brute_walk(k, data):
    ex = data.draw(st.lists(st.floats(0, 5, allow_nan=False), min_size=k, max_size=k))
    ey = data.draw(st.lists(st.floats(0, 5, allow_nan=False), min_size=k, max_size=k))
    x = data.draw(st.integers(0, (1 << k) - 1))
    y = data.draw(st.integers(0, (1 << k) - 1))
    got = comparison_wrong_probability(comparison_problem(k), energy_vector(ex + ey), x, y)
    want = brute_pair_wrong(x, y, np.array(ex), np.array(ey))
    assert got == pytest.approx(want, abs=1e-12)
    assert 0.0 <= got <= 1.0


def test_comparison_closed_forms():
    for k in range(2, 7):
        problem = comparison_problem(k)
        budget = k * (k + 1) / 2.0
        x, y = 1 << (k - 1), 0
        flat = comparison_wrong_probability(problem, uniform_allocation(budget, 2 * k),
                                            x, y)
        assert flat == pytest.approx(2.0 ** (-(k + 1) / 2.0), abs=1e-15)
        ladder = comparison_wrong_probability(problem, sorting_allocation(2, k), x, y)
        assert ladder == pytest.approx(2.0 ** (-k), abs=1e-15)
        assert flat / ladder == pytest.approx(2.0 ** ((k - 1) / 2.0), rel=1e-12)


def test_equal_operands_err_on_any_nonzero_verdict():
    p = 2.0 ** -1.5
    got = comparison_wrong_probability(comparison_problem(2),
                                       energy_vector([0.5, 1.0] + [1.0, 0.5]), 2, 2)
    assert got == pytest.approx(1.0 - (1.0 - p) ** 2, abs=1e-15)


def test_comparison_wrong_probability_validation():
    problem = comparison_problem(2)
    with pytest.raises(ValueError):
        comparison_wrong_probability(problem, energy_vector([1.0, 1.0]), 1, 0)
    with pytest.raises(ValueError):
        comparison_wrong_probability(problem, uniform_allocation(4.0, 4), 4, 0)
    with pytest.raises(ValueError):
        comparison_wrong_probability(or_problem(2), uniform_allocation(4.0, 4), 1, 0)


def test_comparison_weighted_error_is_the_worst_weighted_pair():
    rng = np.random.default_rng(3)
    for k in (2, 3):
        problem = comparison_problem(k)
        for _ in range(8):
            ev = energy_vector(rng.random(2 * k) * 3.0)
            direct = aggregate_error(problem, ev, metric="comparison_weighted")
            brute = max(
                abs(x - y) * comparison_wrong_probability(problem, ev, x, y)
                for x in range(1 << k) for y in range(1 << k) if x != y)
            assert direct == pytest.approx(brute, rel=1e-12)


def test_sorting_weighted_error_examples():
    tiny = sorting_problem(2, 1)
    ev = energy_vector([1.0, 1.0])
    err = aggregate_error(tiny, ev, metric="sorting_weighted")  # instance (1, 0)
    assert err == pytest.approx(0.25, abs=1e-15)
    assert 1.0 / err == pytest.approx(4.0, abs=1e-12)

    rng = np.random.default_rng(8)
    problem = sorting_problem(4, 2)
    values = expensive_pairs_instance(4, 2)
    ev = energy_vector(rng.random(8) * 2.0)
    mobs_module = importlib.import_module("inexact.mobs")
    direct = mobs_module._sorting_weighted_error_direct(problem, ev.entries[None, :])[0]
    slots = [ev.entries[2 * m:2 * m + 2] for m in range(4)]
    brute = sum(
        abs(values[a] - values[b]) * brute_pair_wrong(values[a], values[b],
                                                      slots[a], slots[b])
        for a in range(4) for b in range(a + 1, 4))
    assert direct == pytest.approx(brute, abs=1e-12)


def _scan_top_sum(count, width, rows):
    """sorting_weighted by the full pooled scan: each unequal expensive pair's
    A + B * p at its top differing position, weighted by its gap and summed
    in (a, b) order."""
    mobs_module = importlib.import_module("inexact.mobs")
    values = expensive_pairs_instance(count, width)
    slots = [rows[:, m * width:(m + 1) * width] for m in range(count)]
    total = np.zeros(rows.shape[0])
    for a in range(count):
        for b in range(a + 1, count):
            if values[a] != values[b]:
                p = mobs_module._pooled_probabilities(slots[a], slots[b])
                A, B = mobs_module._scan_terms(p)
                j = (values[a] ^ values[b]).bit_length() - 1
                total += abs(values[a] - values[b]) * (A[:, j] + B[:, j] * p[:, j])
    return total


@pytest.mark.parametrize("count, width", [(2, 1), (2, 3), (4, 2), (6, 2), (2, 6)])
def test_sorting_weighted_closed_form_is_the_top_position_scan(count, width):
    # every unequal expensive pair differs first at the top position, so the
    # closed form reads top-bit energies alone and equals the scan bit for bit
    mobs_module = importlib.import_module("inexact.mobs")
    problem = sorting_problem(count, width)
    n = problem.n
    rng = np.random.default_rng(25 + n)
    rows = rng.random((6, n)) * 4.0
    rows[rng.random(rows.shape) < 0.25] = 0.0
    rows[0] = 0.0
    direct = mobs_module._sorting_weighted_error_direct(problem, rows)
    assert np.array_equal(direct, _scan_top_sum(count, width, rows))
    values = expensive_pairs_instance(count, width)
    for row, got in zip(rows, direct):
        slots = [row[m * width:(m + 1) * width] for m in range(count)]
        brute = sum(abs(values[a] - values[b])
                    * brute_pair_wrong(values[a], values[b], slots[a], slots[b])
                    for a in range(count) for b in range(a + 1, count))
        assert got == pytest.approx(brute, abs=1e-12)
    # S_n past the enumeration guard cannot average a moving row
    groups = [g for g in _groups(n) if g.kind != "symmetric" or n <= SYMMETRIC_ENUM_LIMIT]
    for group in groups:
        for row in rows:
            got = aggregate_error(problem, energy_vector(row), group, "sorting_weighted")
            rewired = row[group.elements()] if np.ptp(row) else row[None]
            assert got == np.mean(_scan_top_sum(count, width, rewired))


def test_expensive_pairs_instance():
    assert expensive_pairs_instance(4, 2) == (2, 2, 0, 0)
    assert expensive_pairs_instance(2, 3) == (4, 0)
    with pytest.raises(ValueError):
        expensive_pairs_instance(3, 2)
    with pytest.raises(ValueError):
        expensive_pairs_instance(0, 2)


def test_aggregate_error_validation():
    with pytest.raises(ValueError):
        aggregate_error(or_problem(2), energy_vector([1.0, 1.0]),
                        metric="comparison_weighted")
    with pytest.raises(ValueError):
        aggregate_error(or_problem(2), energy_vector([1.0, 1.0]), metric="entropy")
    with pytest.raises(ValueError):
        aggregate_error(comparison_problem(2), energy_vector([1.0, 1.0]))
    # a group of another width is refused whether or not the vector is uniform
    for ev in (uniform_allocation(4.0, 4), energy_vector([0.5, 1.5, 1.0, 2.0])):
        with pytest.raises(ValueError, match="group acts on 5 bits, energies have 4"):
            aggregate_error(comparison_problem(2), ev, FullSymmetricGroup(5),
                            "comparison_weighted")


def test_quality_examples():
    # quality is the reciprocal of the aggregate error
    n = 4
    be = binary_evaluation(n)
    assert 1.0 / aggregate_error(be, water_filled_ramp(n, n * (n + 1) / 2)) == \
        pytest.approx(2.0 / n, rel=1e-9)
    # noiseless play: energies high enough that 2**-e underflows to exactly 0
    comp = comparison_problem(1)
    assert aggregate_error(comp, energy_vector([1500.0, 1500.0])) == 0.0


def brute_group_comparison_weighted(k, ev, group):
    """The worst pair x != y of |x - y| times its wrong probability averaged
    over the group's rewirings of the energies, pair by pair."""
    rows = [ev.entries[np.asarray(s)] for s in group.elements()]
    return max(
        abs(x - y) * np.mean([brute_pair_wrong(x, y, row[:k], row[k:]) for row in rows])
        for x in range(1 << k) for y in range(1 << k) if x != y)


def test_blindfolded_aggregate_averages_over_the_group():
    problem = comparison_problem(2)
    ev = energy_vector([0.5, 1.5, 1.0, 2.0])
    flat = uniform_allocation(4.0, 4)
    # group.average of a stack: per row, the mean over the enumerated
    # rewirings in element order; a flat row is scored once
    score = lambda rows: rows @ np.array([1.0, 2.0, 4.0, 8.0]) + rows[:, 0] ** 2
    rows = np.array([ev.entries, flat.entries, [3.0, 0.0, 0.0, 1.0]])
    for group in (FullSymmetricGroup(4), GeneratedGroup(4, [(1, 2, 3, 0)]),
                  GeneratedGroup(4, [(2, 3, 0, 1), (1, 0, 2, 3)])):
        got = aggregate_error(problem, ev, group, "comparison_weighted")
        want = brute_group_comparison_weighted(2, ev, group)
        assert got == pytest.approx(want, rel=1e-12)
        assert aggregate_error(problem, flat, group, "comparison_weighted") == \
            pytest.approx(aggregate_error(problem, flat, None, "comparison_weighted"),
                          rel=1e-15)
        want = [np.mean([score(row[np.asarray(s)][None])[0] for s in group.elements()])
                for row in rows]
        assert np.array_equal(group.average(score, rows), want)
    # an identity-group adversary degenerates to the clairvoyant setting
    assert aggregate_error(problem, ev, IdentityGroup(4), "comparison_weighted") == \
        aggregate_error(problem, ev, None, "comparison_weighted")


def test_identity_average_scores_each_stack_once():
    # the clairvoyant pair-weighted descent pays one call per stack of moves
    calls = []

    def score(rows):
        calls.append(rows.shape)
        return rows.sum(axis=1)

    rows = np.array([[0.5, 1.5, 1.0, 2.0], [3.0, 0.0, 0.0, 1.0]])
    assert np.array_equal(IdentityGroup(4).average(score, rows), rows.sum(axis=1))
    assert calls == [(2, 4)]


def test_comparison_weighted_averages_each_pair_before_the_worst():
    # the adversary averages each pair's wrong probability; the worst pair
    # is taken after that, not per rewiring (a mean of maxes reads 1.96875
    # and 3.1576 on these two vectors)
    for k, entries, want in ((2, [3.0, 0.0, 0.0, 0.0], 1.6875),
                             (3, [1.0, 2.0, 3.0, 0.0, 0.0, 0.0], 2.7271)):
        ev = energy_vector(entries)
        group = FullSymmetricGroup(2 * k)
        brute = brute_group_comparison_weighted(k, ev, group)
        assert brute == pytest.approx(want, abs=1e-4)
        got = aggregate_error(comparison_problem(k), ev, group, "comparison_weighted")
        assert got == pytest.approx(brute, rel=1e-12)


def test_sorting_mobs_bound():
    assert sorting_mobs_bound(2, 3) == 2.0
    assert sorting_mobs_bound(2, 1) == 1.0
    assert sorting_mobs_bound(2, 9) == 16.0
    with pytest.raises(ValueError):
        sorting_mobs_bound(3, 2)
    with pytest.raises(ValueError):
        sorting_mobs_bound(2, 0)


def test_champions():
    outcome = mobs(or_problem(3), [6.0]).outcomes[0]
    assert np.allclose(outcome.bf_energies.entries, 2.0)
    assert outcome.converged
    assert np.allclose(outcome.cv_energies.entries, 2.0, atol=1e-9)


def test_descent_through_the_shared_analysis_matches_aggregate_error(monkeypatch):
    # the clairvoyant search mobs runs scores through one shared truth table
    # and loss matrix; it must take exactly the path of a search that calls
    # aggregate_error each time (be under expected_magnitude takes its
    # champion in closed form, so be descends here under worst_correctness)
    mobs_module = importlib.import_module("inexact.mobs")
    searches = []

    def recording(fn, budget, n, seeds):
        result = coordinate_descent(fn, budget, n, seeds)
        searches.append(result)
        return result

    monkeypatch.setattr(mobs_module, "coordinate_descent", recording)
    cases = [(build_problem(kind, n), None) for kind in ("or", "ue") for n in (4, 5, 6)]
    cases += [(tribes_problem(n), None) for n in (4, 6)]
    cases += [(binary_evaluation(n), "worst_correctness") for n in (4, 5, 6)]
    for problem, metric in cases:
        n = problem.n
        group = IdentityGroup(n)
        objective = one_row_at_a_time(
            lambda evec: aggregate_error(problem, evec, group, metric))
        for budget in default_budget_grid(n):
            searches.clear()
            mobs(problem, [budget], metric)
            (got,) = searches
            seeds = [uniform_allocation(budget, n), analytic_allocation(problem, budget)]
            want = coordinate_descent(objective, budget, n, seeds)
            assert np.array_equal(got.energies.entries, want.energies.entries), \
                (problem.name, metric, budget)
            assert got.objective_value == want.objective_value
            assert got.evaluations == want.evaluations
            assert got.converged == want.converged

    be = binary_evaluation(3)
    for metric in ("expected_magnitude", "worst_correctness"):
        got = grid_search(error_objective(be, metric), 3.0, 3, resolution=0.5)
        one_at_a_time = one_row_at_a_time(lambda ev: aggregate_error(be, ev, None, metric))
        want = grid_search(one_at_a_time, 3.0, 3, resolution=0.5)
        assert got.to_json() == want.to_json()


def _energy_stack(rng, n: int) -> np.ndarray:
    """Nine energy rows at budget n(n+1)/4: random splits, a flat row (every
    rewiring is the same vector), a row with empty bits (certain flips) and
    one with all of the budget on the top bit."""
    budget = n * (n + 1) / 4.0
    rows = budget * rng.dirichlet(np.ones(n), size=9)
    rows[0] = budget / n
    rows[1, :n // 2] = 0.0
    rows[2] = 0.0
    rows[2, -1] = budget
    return rows


def _groups(n):
    return (IdentityGroup(n), FullSymmetricGroup(n),
            GeneratedGroup(n, [tuple(range(1, n)) + (0,)]))


def test_stacked_rows_score_bit_for_bit_as_each_row_alone(monkeypatch):
    # a search scores a stack of candidate moves in one call: each row must
    # get exactly the profile, pattern law and objective value it gets
    # alone, under every group, every metric and every ErrorAnalysis kernel
    # (xor, blocks and ramp forced at small n, as the tile tests force
    # blocks; ramp on be, the one table here it fits)
    mobs_module = importlib.import_module("inexact.mobs")
    decoders = importlib.import_module("inexact.decoders")
    rng = np.random.default_rng(2026)
    per_input = [build_problem(kind, n) for n in range(3, 9)
                 for kind in ("or", "ue", "be", "tribes") if kind != "tribes" or n % 2 == 0]
    pair_weighted = [(comparison_problem(k), "comparison_weighted") for k in (2, 3, 4)]
    pair_weighted += [(sorting_problem(count, width), "sorting_weighted")
                      for count, width in ((2, 2), (2, 3), (4, 2), (2, 4))]
    is_ramp = decoders._is_ramp
    for kernel in ("matrix", "xor", "blocks", "ramp"):
        if kernel != "matrix":
            monkeypatch.setattr(decoders, "_CHUNK_ENTRIES", 0)  # L never kept whole
            monkeypatch.setattr(decoders, "_xor_is_cheaper",
                                lambda classes, n, xor=kernel == "xor": xor)
            monkeypatch.setattr(decoders, "_is_ramp",
                                is_ramp if kernel == "ramp" else lambda decoder, table: False)
        cases = [(p, metric) for p in per_input if kernel != "ramp" or p.kind == "be"
                 for metric in ("worst_correctness", "expected_magnitude")]
        if kernel == "matrix":
            cases += pair_weighted
        for problem, metric in cases:
            n = problem.n
            profile = mobs_module._profile_function(problem, metric)
            if metric in ("worst_correctness", "expected_magnitude"):
                assert profile.__self__.kernel == kernel, (problem.name, kernel)
            rows = _energy_stack(rng, n)
            for group in _groups(n):
                stacked = profile(rows, group)
                values = error_objective(problem, metric, group, profile=profile)(rows)
                assert stacked.shape[0] == values.shape[0] == len(rows)
                laws = average_pattern_probabilities(group, rows)
                for r, row in enumerate(rows):
                    where = (problem.name, metric, kernel, group.kind, r)
                    alone = profile(rows[r:r + 1], group)[0]
                    assert np.array_equal(stacked[r], alone), where
                    assert values[r] == stacked[r].max(), where
                    law = average_pattern_probabilities(group, energy_vector(row))
                    assert np.array_equal(laws[r], law), where
                    if metric in ("worst_correctness", "expected_magnitude"):
                        vector = profile(energy_vector(row), group)
                        assert np.array_equal(stacked[r], vector), where


def test_row_objectives_check_every_stack():
    # each stack is checked as an EnergyVector checks its entries, whatever
    # row holds the bad value, and for the width of the objective's problem
    objectives = [ue_variance,
                  error_objective(binary_evaluation(4), "expected_magnitude"),
                  error_objective(or_problem(4), "worst_correctness",
                                  FullSymmetricGroup(4)),
                  error_objective(comparison_problem(2), "comparison_weighted"),
                  error_objective(sorting_problem(2, 2), "sorting_weighted",
                                  FullSymmetricGroup(4))]
    for fn in objectives:
        for bad in (np.nan, -1.0, np.inf):
            rows = np.full((3, 4), 1.0)
            rows[2, 1] = bad
            with pytest.raises(ValueError, match="finite and >= 0"):
                fn(rows)
        with pytest.raises(ValueError, match="nonempty"):
            fn(np.ones(4))
        if fn is not ue_variance:
            with pytest.raises(ValueError, match="bits"):
                fn(np.ones((3, 5)))


def _counting(fn, scored):
    def counted(rows):
        scored.append(len(rows))
        return fn(rows)
    return counted


def test_descent_walks_exactly_as_one_move_at_a_time():
    # the descent scores each pass's moves as stacks and re-stacks after an
    # accepted move; its trajectory, value, evaluation count and verdict
    # must be those of the walk that scores one move at a time
    cases = [(build_problem(kind, n), group, default_budget_grid(n)[:2])
             for n in range(3, 8) for kind in ("be", "or", "ue", "tribes")
             if kind != "tribes" or n % 2 == 0
             for group in (IdentityGroup(n), FullSymmetricGroup(n))]
    # comparison and sorting at their ladder budgets; S_8 enumerates 40320
    # rewirings per row, so comparison k = 4 runs under the identity only
    cases += [(comparison_problem(k), group(2 * k), [k * (k + 1) / 2.0])
              for k in (2, 3, 4) for group in (IdentityGroup, FullSymmetricGroup)
              if k < 4 or group is IdentityGroup]
    cases += [(sorting_problem(4, 2), IdentityGroup(8), [6.0])]
    cases += [(unary_evaluation(n), None, default_budget_grid(n)) for n in (2, 4, 6)]
    for problem, group, budgets in cases:
        n = problem.n
        fn = ue_variance if group is None else error_objective(problem, None, group)
        for budget in budgets:
            seeds = [uniform_allocation(budget, n), analytic_allocation(problem, budget)]
            scored = []
            got = coordinate_descent(_counting(fn, scored), budget, n, seeds)
            energies, value, evaluations, converged = brute_descent(fn, budget, n, seeds)
            where = (problem.name, group and group.kind, budget)
            assert np.array_equal(got.energies.entries, energies), where
            assert got.objective_value == value, where
            assert got.evaluations == evaluations, where
            assert got.converged == converged, where
            if problem.kind == "be" and n >= 4:
                # some stack was cut short by a move accepted before its last row
                assert sum(scored) > got.evaluations, where


def test_a_repeated_seed_walks_once(monkeypatch):
    # or's closed-form seed is the uniform split, so mobs's search walks
    # one descent, not the same descent twice
    mobs_module = importlib.import_module("inexact.mobs")
    searches = []

    def recording(fn, budget, n, seeds):
        searches.append(coordinate_descent(fn, budget, n, seeds))
        return searches[-1]

    monkeypatch.setattr(mobs_module, "coordinate_descent", recording)
    problem = or_problem(6)
    uniform = uniform_allocation(10.5, 6)
    assert np.array_equal(analytic_allocation(problem, 10.5).entries, uniform.entries)
    mobs(problem, [10.5])
    (got,) = searches
    want = coordinate_descent(error_objective(problem), 10.5, 6, [uniform])
    assert got.evaluations == want.evaluations
    assert np.array_equal(got.energies.entries, want.energies.entries)


def test_uniform_split_is_the_blindfolded_champion():
    # mobs plays the uniform split on the blindfolded side without searching;
    # no random split of the same budget may do better under the full group
    rng = np.random.default_rng(2017)
    cases = [(kind, n) for kind in ("be", "or", "ue") for n in (2, 3, 4)]
    cases += [("tribes", 2), ("tribes", 4)]
    for kind, n in cases:
        problem = build_problem(kind, n)
        group = FullSymmetricGroup(n)
        for budget in default_budget_grid(n):
            floor = aggregate_error(problem, uniform_allocation(budget, n), group)
            for _ in range(100):
                draw = energy_vector(budget * rng.dirichlet(np.ones(n)))
                assert aggregate_error(problem, draw, group) >= floor - 1e-12, \
                    (kind, n, budget, draw.entries)


def test_descent_finds_nothing_below_the_uniform_split():
    # a real search of the blindfolded objective, started off uniform, ends
    # no lower than the uniform split mobs plays on that side
    for n in (6, 8):
        rng = np.random.default_rng(2017)
        for kind in ("be", "or", "ue", "tribes"):
            problem = build_problem(kind, n)
            objective = error_objective(problem, None, FullSymmetricGroup(n))
            for budget in default_budget_grid(n):
                floor = objective(uniform_allocation(budget, n).entries[None, :])[0]
                seeds = [water_filled_ramp(n, budget)]
                seeds += [energy_vector(budget * rng.dirichlet(np.full(n, 0.5)))
                          for _ in range(3)]
                result = coordinate_descent(objective, budget, n, seeds)
                assert result.converged, (kind, n, budget)
                assert result.objective_value >= floor * (1 - 1e-9), \
                    (kind, n, budget, result.energies.entries)


def test_map_error_is_not_monotone_in_energy():
    # why no search reads through MAP: an energy-0 bit flips with certainty
    # and MAP undoes the flip, so under S_4 the all-zero split of be 4 reads
    # without error, the uniform split of budget 4 reads the worst value
    # possible, and (0, 0, 4, 0) beats that uniform split
    be4 = binary_evaluation(4)
    group = FullSymmetricGroup(4)

    def worst(entries):
        ev = energy_vector(entries)
        return error_profile(be4, ev, group, map_decoder(be4, ev, group),
                             "absolute").max()

    assert worst([0.0, 0.0, 0.0, 0.0]) == 0.0
    assert worst([1.0, 1.0, 1.0, 1.0]) == 15.0
    assert worst([0.0, 0.0, 4.0, 0.0]) == 10.578125


def test_mobs_is_one_for_fully_symmetric_kinds():
    for problem in (or_problem(4), unary_evaluation(4)):
        result = mobs(problem)
        assert 1.0 - 1e-9 <= result.mobs <= 1.001
        assert result.converged
        assert result.mode == "exact"


def test_every_symmetric_boolean_function_has_no_symmetry_price():
    # any function of the ones-count is immune to bit shuffling, so the
    # blindfolded player loses nothing; exhaustive over all output-per-count
    # signatures up to n = 5
    for n in range(1, 6):
        pc = popcount_table(n)
        for sig in itertools.product((0, 1), repeat=n + 1):
            outputs = np.array(sig, dtype=np.int64)[pc]
            result = mobs(custom_problem(outputs))
            assert 1.0 - 1e-9 <= result.mobs <= 1.0 + 1e-3, (n, sig, result.mobs)


def test_tribes_is_symmetric_as_a_problem():
    # not symmetric as a Boolean function, yet carries no symmetry price
    for n, tribe_count in ((4, 2), (6, 2), (6, 3)):
        result = mobs(tribes_problem(n, tribe_count))
        assert 1.0 - 1e-9 <= result.mobs <= 1.0 + 1e-3


def test_mobs_never_dips_below_one():
    rng = np.random.default_rng(14)
    for _ in range(5):
        n = int(rng.integers(2, 4))
        problem = custom_problem(rng.integers(0, 3, size=1 << n))
        result = mobs(problem, budget_grid=[float(n), 2.0 * n])
        assert result.mobs >= 1.0 - 1e-9


def test_mobs_be_frozen_values_and_growth():
    small = mobs(binary_evaluation(2))
    assert small.mobs == pytest.approx(1.10466738707, abs=1e-6)

    mid = mobs(binary_evaluation(4))
    assert mid.mobs == pytest.approx(1.755443, abs=1e-3)
    worst = max(mid.outcomes, key=lambda o: o.error_ratio)
    assert worst.budget == 5.0
    assert worst.worst_input == 1
    assert mid.metric == "expected_magnitude"

    big = mobs(binary_evaluation(6))
    assert big.mobs == pytest.approx(2.654156, abs=1e-3)
    assert small.mobs < mid.mobs < big.mobs


def test_mobs_be_first_exact_price_above_11_bits():
    # at n = 12 and 14 the analysis scores be by its top-flipped-bit
    # moments and the clairvoyant champion is the ramp, so a whole default
    # grid prices in milliseconds with no descent
    result = mobs(binary_evaluation(12))
    assert result.mobs == pytest.approx(9.155975152866473, rel=1e-12)
    assert max(result.outcomes, key=lambda o: o.error_ratio).budget == 39.0
    assert result.converged
    result = mobs(binary_evaluation(14))
    assert result.mobs == pytest.approx(14.698399916347949, rel=1e-12)
    assert result.converged


def test_no_descent_beats_the_ramp_on_be():
    # the closed-form be champion: many-seed descents on the identity-group
    # objective never find a better point than water_filled_ramp
    rng = np.random.default_rng(22)
    for n in range(2, 9):
        be = binary_evaluation(n)
        assert closed_form_champion(be)
        objective = error_objective(be, "expected_magnitude", IdentityGroup(n))
        for budget in default_budget_grid(n):
            ramp = water_filled_ramp(n, budget)
            seeds = [uniform_allocation(budget, n), ramp]
            seeds += [energy_vector(budget * rng.dirichlet(np.ones(n))) for _ in range(8)]
            ramp_value = objective(ramp.entries[None])[0]
            for seed in seeds:
                found = coordinate_descent(objective, budget, n, [seed])
                assert found.objective_value >= ramp_value * (1 - 1e-12), \
                    (n, budget, seed.entries, found.objective_value, ramp_value)


def test_mobs_plays_the_ramp_on_be_without_a_search(monkeypatch):
    mobs_module = importlib.import_module("inexact.mobs")

    def refusing(*args, **kwargs):
        raise AssertionError("be under expected_magnitude needs no descent")

    monkeypatch.setattr(mobs_module, "coordinate_descent", refusing)
    for n in range(2, 11):
        result = mobs(binary_evaluation(n))
        assert result.converged
        for outcome in result.outcomes:
            want = water_filled_ramp(n, outcome.budget).entries
            assert np.array_equal(outcome.cv_energies.entries, want), (n, outcome.budget)
    # every other (problem, metric) pair keeps its descent
    assert not closed_form_champion(binary_evaluation(4), "worst_correctness")
    assert not closed_form_champion(or_problem(4), "expected_magnitude")
    with pytest.raises(AssertionError, match="no descent"):
        mobs(binary_evaluation(4), [4.0], "worst_correctness")


def test_mobs_comparison_and_sorting_frozen_values():
    comp = mobs(comparison_problem(2), budget_grid=[3.0])
    assert comp.mobs == pytest.approx(1.76776686646, abs=1e-6)
    assert comp.metric == "comparison_weighted"
    assert comp.outcomes[0].worst_input is None

    sort = mobs(sorting_problem(4, 2), budget_grid=[6.0])
    assert sort.mobs == pytest.approx(2.0 ** 1.5, abs=1e-6)
    assert sort.mobs >= sorting_mobs_bound(4, 2) - 1e-9


def test_be_quality_ratio_across_sizes():
    # the blindfolded-vs-clairvoyant quality gap on the worst input
    # overtakes 2 only once the word is wide enough
    small = mobs(binary_evaluation(4), budget_grid=[4.0])
    assert max(o.quality_ratio for o in small.outcomes) == \
        pytest.approx(1.3016, abs=1e-3)
    assert all(o.quality_ratio < 2.0 for o in small.outcomes)
    big = mobs(binary_evaluation(8), budget_grid=[36.0])
    assert max(o.quality_ratio for o in big.outcomes) == \
        pytest.approx(2.8174, abs=1e-3)


def test_mobs_monte_carlo_smoke(monkeypatch):
    mobs_module = importlib.import_module("inexact.mobs")
    real = mobs_module.monte_carlo_error
    calls = []

    def recording(table, energies, group, decoder, i, loss, samples, rng):
        est, se = real(table, energies, group, decoder, i, loss, samples, rng)
        calls.append((table, energies, group, decoder, i, loss, samples, est))
        return est, se

    monkeypatch.setattr(mobs_module, "monte_carlo_error", recording)
    result = mobs(binary_evaluation(12), mode="monte_carlo", samples=20_000, rng=0)
    assert result.mode == "monte_carlo"
    assert result.samples == 20_000
    # the pin follows the seeded stream (12.0521739130 before the identity
    # draws went to one uniform per block of 8 bits); the exact worst-probe
    # ratios at budgets 12/39/78/156 are 4.815/8.611/8.228/7.549, so it is
    # last-budget noise
    assert result.mobs == pytest.approx(11.9619706137, abs=1e-6)
    outcome = result.outcomes[0]
    assert outcome.std_errors is not None
    assert outcome.converged
    assert len(outcome.std_errors["probes"]) >= 2
    # whatever the stream, each probe estimate sits within 4 standard errors
    # of its exact mean, the error taken from the exact loss variance
    assert len(calls) == 2 * sum(len(o.std_errors["probes"]) for o in result.outcomes)
    for table, energies, group, decoder, i, loss, samples, est in calls:
        avg = average_pattern_probabilities(group, energies)
        decoded = decoder.decode_map[i ^ np.arange(avg.size)]
        truth = table.outputs[i]
        vals = (decoded != truth) if loss == "exact" else np.abs(decoded - truth)
        vals = vals.astype(np.float64)
        mean = avg @ vals
        var = max(avg @ (vals * vals) - mean * mean, 0.0)
        assert abs(est - mean) <= 4 * np.sqrt(var / samples) + 1e-12
    again = mobs(binary_evaluation(12), mode="monte_carlo", samples=20_000, rng=0)
    assert again.mobs == result.mobs


def test_sampled_mobs_builds_each_clairvoyant_table_once(monkeypatch):
    # the probe rows of a budget share its clairvoyant energies, so one
    # table per block serves them all; the blindfolded side (S_12) draws
    # through no tables
    adversary = importlib.import_module("inexact.adversary")
    real, sizes = adversary._alias_table, []

    def counting(law):
        sizes.append(law.size)
        return real(law)

    monkeypatch.setattr(adversary, "_alias_table", counting)
    result = mobs(binary_evaluation(12), [39.0], mode="monte_carlo", samples=200, rng=0)
    assert len(result.outcomes[0].std_errors["probes"]) == 10
    assert sizes == [256, 16]


def test_mobs_builds_one_truth_table_per_call(monkeypatch):
    mobs_module = importlib.import_module("inexact.mobs")
    built = []
    real = mobs_module.truth_table

    def counting(problem):
        built.append(problem.name)
        return real(problem)

    monkeypatch.setattr(mobs_module, "truth_table", counting)
    sampled = mobs(unary_evaluation(18), mode="monte_carlo", samples=500, rng=3)
    assert len(sampled.outcomes) == 4
    assert built == ["ue"]
    built.clear()
    mobs(or_problem(4))
    assert built == ["or"]


def _refusing(what):
    def refuse(*args, **kwargs):
        raise AssertionError(f"{what} ran")
    return refuse


def test_exact_mobs_refuses_a_descent_without_the_loss_matrix(monkeypatch):
    # past 11 bits a per-input analysis keeps no loss matrix, and a descent on
    # the transform's rows would compare rounding noise; mobs refuses up
    # front, before any profile or descent
    mobs_module = importlib.import_module("inexact.mobs")
    monkeypatch.setattr(mobs_module, "coordinate_descent", _refusing("the descent"))
    monkeypatch.setattr(ErrorAnalysis, "profile", _refusing("a profile"))
    for problem in (or_problem(12), unary_evaluation(12), tribes_problem(12, 2)):
        with pytest.raises(ResourceLimitError, match="kept loss matrix"):
            mobs(problem, mode="exact")
    with pytest.raises(ResourceLimitError, match="kept loss matrix"):
        mobs(binary_evaluation(12), [39.0], "worst_correctness")


def test_exact_mobs_scores_the_blindfolded_side_before_any_descent(monkeypatch):
    # S_8 on 11 bits is over the generated group's exact guard; the refusal
    # comes from its law, not after a descent
    mobs_module = importlib.import_module("inexact.mobs")
    monkeypatch.setattr(mobs_module, "coordinate_descent", _refusing("the descent"))
    s8 = GeneratedGroup(11, [[1, 0, *range(2, 11)], [*range(1, 8), 0, 8, 9, 10]])
    with pytest.raises(ResourceLimitError, match="exact guard"):
        mobs(or_problem(11), [11.0], group=s8)


@pytest.mark.parametrize("problem", [comparison_problem(2), sorting_problem(2, 2)],
                         ids=lambda p: p.name)
def test_sampled_mobs_refuses_pair_weighted_metrics(problem):
    with pytest.raises(ValueError, match="per-input metrics only"):
        mobs(problem, mode="monte_carlo", samples=50, rng=3)
    assert mobs(problem).mode == "exact"


def test_mobs_validation():
    with pytest.raises(ValueError):
        mobs(or_problem(2), metric="entropy")
    with pytest.raises(ValueError):
        mobs(or_problem(2), budget_grid=[])
    for budget in (-1.0, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="budget grid"):
            mobs(or_problem(2), budget_grid=[budget])
    with pytest.raises(ValueError):
        mobs(or_problem(2), mode="approximate")


def test_mobs_json_and_csv_shapes():
    result = mobs(or_problem(2), budget_grid=[2.0])
    body = result.to_json()
    assert body["problem"] == "or"
    assert body["kind"] == "or"
    assert body["group"] == "symmetric"
    assert body["samples"] is None
    outcome = body["per_budget"][0]
    assert set(outcome) >= {"budget", "cv_energies", "bf_energies", "cv_value",
                            "bf_value", "error_ratio", "quality_ratio", "converged"}
    assert "worst_input" in outcome
    assert result.csv_row().startswith("or,2,")
    assert result.csv_row().endswith(",exact")


def test_table2_rows_tiny():
    rows = table2_rows(sizes=(2,), comparison_widths=(2,), sorting_shapes=((2, 1),))
    assert len(rows) == 5
    kinds = [r.kind for r in rows]
    assert kinds == ["or", "ue", "be", "comparison", "sorting"]
    for r in rows:
        assert r.mobs >= 1.0 - 1e-9
        assert r.csv_row().count(",") == 3
