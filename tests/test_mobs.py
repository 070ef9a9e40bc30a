import dataclasses
import importlib
import itertools
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from inexact.adversary import SYMMETRIC_ENUM_LIMIT, FullSymmetricGroup, GeneratedGroup, \
    IdentityGroup, average_pattern_probabilities
from inexact.allocators import analytic_allocation, coordinate_descent, grid_search, \
    sorting_allocation, ue_variance, uniform_allocation, water_fill
from inexact.bits import MAX_PACK_BITS, ResourceLimitError, popcount_table
from inexact.decoders import ErrorAnalysis, _lone_output, error_profile, identity_decoder, \
    map_decoder, per_input_error, ramp_profile
from inexact.mobs import (
    aggregate_error,
    champion,
    comparison_wrong_probability,
    default_budget_grid,
    default_metric,
    error_objective,
    expensive_pairs_instance,
    mobs,
    sorting_mobs_bound,
    table2_rows,
    top_bit_split,
)
from inexact.noise import energy_rows, energy_vector
from inexact.problems import (
    binary_evaluation,
    build_problem,
    comparison_problem,
    custom_problem,
    or_problem,
    sorting_problem,
    tribes_problem,
    truth_table,
    unary_evaluation,
)

from conftest import brute_descent, brute_pair_wrong, one_row_at_a_time


def _rule(problem, metric=None):
    """champion's rule for the problem under the metric (its default if
    None), descending, where it descends, on the identity-group objective."""
    metric = metric or default_metric(problem)
    return champion(problem, metric, error_objective(problem, metric, IdentityGroup(problem.n)))


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


def test_mobs_refuses_a_group_of_another_width():
    # at a flat champion both sides read one law and never score under the
    # group, so mobs checks its width up front (or 4 priced 1 under S_5)
    for problem in (or_problem(4), binary_evaluation(4), tribes_problem(4, 2)):
        for mode in ("exact", "monte_carlo"):
            with pytest.raises(ValueError, match="group acts on 5 bits, energies have 4"):
                mobs(problem, group=FullSymmetricGroup(5), mode=mode, samples=100, rng=0)


def test_quality_examples():
    # quality is the reciprocal of the aggregate error
    n = 4
    be = binary_evaluation(n)
    assert 1.0 / aggregate_error(be, water_fill(np.arange(n), n * (n + 1) / 2)) == \
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
    # aggregate_error each time (or, ue and be take their champions in
    # closed form, so parity and majority descend here, and comparison,
    # whose walk leaves the uniform split, under worst_correctness)
    mobs_module = importlib.import_module("inexact.mobs")
    searches = []

    def recording(fn, budget, n, seeds):
        result = coordinate_descent(fn, budget, n, seeds)
        searches.append(result)
        return result

    monkeypatch.setattr(mobs_module, "coordinate_descent", recording)
    cases = [(problem, metric) for n in (4, 5, 6) for problem, metric in
             zip(_ones_count_tables(n).values(), ("worst_correctness", "expected_magnitude"))]
    cases += [(tribes_problem(n), None) for n in (4, 6)]
    cases += [(comparison_problem(k), "worst_correctness") for k in (2, 3)]
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


def _closed_form_matches(closed, profile, rows, group, where):
    """The closed-form profile scores one entry per row, bit for bit as the
    row alone, the stacked kernel profile's worst entry within 1e-14."""
    stacked = closed(rows, group)
    assert stacked.shape == (len(rows), 1), where
    for r, row in enumerate(rows):
        assert np.array_equal(stacked[r], closed(rows[r:r + 1], group)[0]), (*where, r)
        assert np.array_equal(stacked[r], closed(energy_vector(row), group)[0]), (*where, r)
    assert np.allclose(stacked[:, 0], profile.max(axis=1), rtol=1e-14, atol=0), where


def _named(name, outputs):
    """custom_problem of the outputs, named apart from the other custom tables."""
    return dataclasses.replace(custom_problem(outputs), name=name)


def _spread_lone_tables(n):
    """Custom two-valued tables of n bits with a lone output off 0/1: 0
    at row 0 and 2 elsewhere, 3 at the last row and 4 elsewhere."""
    rows = np.arange(1 << n)
    return [_named("lone0of2", np.where(rows == 0, 0, 2)),
            _named("lone3of4", np.where(rows == rows[-1], 3, 4))]


def test_stacked_rows_score_bit_for_bit_as_each_row_alone(monkeypatch):
    # a search scores a stack of candidate moves in one call: each row must
    # get exactly the profile, pattern law and objective value it gets
    # alone, under every group, every metric and every ErrorAnalysis kernel
    # (the ramp refused outside its own pass, on be, the one table here it
    # fits; the law refused outside its own pass, on or and tribes as AND,
    # the ones here with a lone output in a two-valued table; xor and
    # blocks forced at small n, as the tile tests force blocks).  Where
    # _proof gives the worst row in closed form (or, ue, be, tribes as AND
    # and two-valued lone tables off 0/1 under both per-input metrics; the
    # spread w scales the any-flip row), the search's profile is that one
    # entry, bit for bit as each row alone and within 1e-14 of every
    # kernel's worst entry, zero-energy bits included, at n <= 11
    mobs_module = importlib.import_module("inexact.mobs")
    decoders = importlib.import_module("inexact.decoders")
    rng = np.random.default_rng(2026)
    per_input = [build_problem(kind, n) for n in range(3, 9)
                 for kind in ("or", "ue", "be", "tribes") if kind != "tribes" or n % 2 == 0]
    per_input += [tribes_problem(n, 1) for n in (3, 6)]
    pair_weighted = [(comparison_problem(k), "comparison_weighted") for k in (2, 3, 4)]
    pair_weighted += [(sorting_problem(count, width), "sorting_weighted")
                      for count, width in ((2, 2), (2, 3), (4, 2), (2, 4))]
    proven = 0
    for n in (1, 2, 9, 10, 11):  # each table's own kernel
        for problem in (or_problem(n), unary_evaluation(n), binary_evaluation(n),
                        tribes_problem(n, 1), *_spread_lone_tables(n)):
            rows = _energy_stack(rng, n)
            for metric in ("worst_correctness", "expected_magnitude"):
                closed = mobs_module._profile_function(problem, metric)
                analysis = mobs_module._analysis(problem, metric)
                for group in _groups(n):
                    _closed_form_matches(closed, analysis.profile(rows, group), rows, group,
                                         (problem.name, n, metric, analysis.kernel, group.kind))
                    proven += 1
    is_ramp, law_rule = decoders._is_ramp, decoders._law_rule
    for kernel in ("matrix", "xor", "blocks", "ramp", "law"):
        monkeypatch.setattr(decoders, "_is_ramp",
                            is_ramp if kernel == "ramp" else lambda decoder, table: False)
        monkeypatch.setattr(decoders, "_law_rule",
                            law_rule if kernel == "law" else lambda decoder, table, fn: None)
        if kernel != "matrix":
            monkeypatch.setattr(decoders, "_CHUNK_ENTRIES", 0)  # L never kept whole
            monkeypatch.setattr(decoders, "_xor_is_cheaper",
                                lambda classes, n, xor=kernel == "xor": xor)
        fits = {"ramp": ("be",), "law": ("or", "tribes1")}
        cases = [(p, metric) for p in per_input if p.name in fits.get(kernel, (p.name,))
                 for metric in ("worst_correctness", "expected_magnitude")]
        if kernel == "matrix":
            cases += pair_weighted
        for problem, metric in cases:
            n = problem.n
            per_row = metric in ("worst_correctness", "expected_magnitude")
            if per_row:
                profile = mobs_module._analysis(problem, metric).profile
                assert profile.__self__.kernel == kernel, (problem.name, kernel)
                proof = mobs_module._proof(problem, metric)
            else:
                profile = mobs_module._profile_function(problem, metric)
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
                    if per_row:
                        vector = profile(energy_vector(row), group)
                        assert np.array_equal(stacked[r], vector), where
                if per_row and proof is not None:
                    closed = mobs_module._profile_function(problem, metric)
                    _closed_form_matches(closed, stacked, rows, group,
                                         (problem.name, metric, kernel, group.kind))
                    proven += 1
    assert proven > 200


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
    # a custom table's closed-form seed is the uniform split, so mobs's
    # search on parity walks one descent, not the same descent twice
    mobs_module = importlib.import_module("inexact.mobs")
    searches = []

    def recording(fn, budget, n, seeds):
        searches.append(coordinate_descent(fn, budget, n, seeds))
        return searches[-1]

    monkeypatch.setattr(mobs_module, "coordinate_descent", recording)
    problem = custom_problem(popcount_table(6) % 2)
    uniform = uniform_allocation(10.5, 6)
    assert np.array_equal(analytic_allocation(problem, 10.5).entries, uniform.entries)
    mobs(problem, [10.5], "expected_magnitude")
    (got,) = searches
    want = coordinate_descent(error_objective(problem, "expected_magnitude"), 10.5, 6,
                              [uniform])
    assert got.evaluations == want.evaluations
    assert np.array_equal(got.energies.entries, want.energies.entries)


def _unwrapped(monkeypatch):
    """Make mobs descend on the plain objective, every row of every stack
    scored: the reference walk."""
    mobs_module = importlib.import_module("inexact.mobs")
    monkeypatch.setattr(mobs_module, "_twins_scored_once", lambda objective, table: objective)


def _rows_per_profile_call(monkeypatch) -> list:
    """The number of energy rows each ErrorAnalysis.profile call gets, in
    call order, from here on."""
    calls = []
    real = ErrorAnalysis.profile

    def counting(self, energies, group):
        calls.append(energy_rows(energies).shape[0])
        return real(self, energies, group)

    monkeypatch.setattr(ErrorAnalysis, "profile", counting)
    return calls


def _price_and_rows(problem, metric=None, group=None):
    with pytest.MonkeyPatch.context() as patch:
        calls = _rows_per_profile_call(patch)
        result = mobs(problem, metric=metric, group=group)
    return json.dumps(result.to_json()), calls


def _ones_count_tables(n):
    """Parity and majority of n bits: 0/1 tables of the ones count alone
    with no lone output (n >= 3), so they descend under both per-input
    metrics."""
    pc = popcount_table(n)
    return {"parity": custom_problem(pc % 2),
            "majority": custom_problem((2 * pc > n).astype(np.int64))}


def _planted_twins(seed: int, n: int, values: int = 2):
    """A seeded custom table of the ones counts within each class of a random
    partition of the n bits, so the bits of a class are twins (classes may
    merge where the drawn values allow)."""
    rng = np.random.default_rng(seed)
    label = rng.integers(0, max(1, n // 2), size=n)
    bits = (np.arange(1 << n)[:, None] >> np.arange(n)) & 1
    counts = np.stack([bits[:, label == c].sum(axis=1) for c in range(label.max() + 1)], 1)
    key = counts @ ((n + 1) ** np.arange(counts.shape[1]))
    return custom_problem(rng.integers(0, values, size=key.max() + 1)[key])


def _brute_twins(problem) -> set:
    """The pairs (i, j) of bits whose swap leaves the table unchanged."""
    outputs, idx = truth_table(problem).outputs, np.arange(1 << problem.n)
    twins = set()
    for i, j in itertools.product(range(problem.n), repeat=2):
        bit_i, bit_j = (idx >> i) & 1, (idx >> j) & 1
        swapped = idx & ~((1 << i) | (1 << j)) | (bit_i << j) | (bit_j << i)
        if np.array_equal(outputs[swapped], outputs):
            twins.add((i, j))
    return twins


def test_twin_classes_are_the_brute_force_swaps():
    mobs_module = importlib.import_module("inexact.mobs")
    rng = np.random.default_rng(43)
    problems = [custom_problem(rng.integers(0, values, size=1 << n))
                for n in range(1, 7) for values in (2, 3) for _ in range(4)]
    problems += [_planted_twins(seed, n, values) for seed in range(6) for n in range(2, 7)
                 for values in (2, 5)]
    problems += [tribes_problem(6, 2), tribes_problem(6, 3), or_problem(5),
                 unary_evaluation(4), binary_evaluation(4), comparison_problem(3),
                 custom_problem((np.arange(64) % 3 == 0).astype(int))]
    sizes = set()
    for problem in problems:
        classes = mobs_module._twin_classes(truth_table(problem))
        assert sorted(itertools.chain(*classes)) == list(range(problem.n))
        label = {j: c for c, members in enumerate(classes) for j in members}
        same = {(i, j) for i in range(problem.n) for j in range(problem.n)
                if label[i] == label[j]}
        assert same == _brute_twins(problem), classes
        sizes.update(len(c) for c in classes)
    assert {1, 2, 3} <= sizes  # the cases include classes of several sizes


@pytest.mark.parametrize("metric", ["worst_correctness", "expected_magnitude"])
def test_the_objective_is_invariant_under_twin_permutations(metric):
    # a swap of twins is an automorphism of the table, so it permutes the
    # identity-group profile's rows and keeps their worst
    mobs_module = importlib.import_module("inexact.mobs")
    rng = np.random.default_rng(7)
    problems = [tribes_problem(6, 2), tribes_problem(6, 3), _ones_count_tables(5)["parity"],
                custom_problem(np.array([0, 5, 2, 2, 1])[popcount_table(4)])]
    problems += [_planted_twins(seed, n, 5) for seed in range(4) for n in (4, 5, 6)]
    for problem in problems:
        classes = mobs_module._twin_classes(truth_table(problem))
        objective = error_objective(problem, metric)
        rows = rng.uniform(0.0, 3.0, size=(6, problem.n))
        moved = rows.copy()
        for row in moved:
            for c in classes:
                row[c] = row[rng.permutation(c)]
        assert not np.array_equal(moved, rows) or all(len(c) == 1 for c in classes)
        np.testing.assert_allclose(objective(moved), objective(rows), rtol=1e-12, atol=0)


def _twin_tables(tables: str):
    if tables == "many_valued":
        # its descent under expected_magnitude leaves the uniform split;
        # under worst_correctness its lone output takes the closed form
        return [custom_problem(np.array([0, 5, 2, 2, 1])[popcount_table(4)])]
    if tables == "tribes":
        return [tribes_problem(n, t) for n, t in ((4, 2), (6, 2), (6, 3), (8, 2))]
    if tables == "planted":
        return [_planted_twins(seed, n) for seed, n in ((1, 5), (2, 6), (3, 6), (4, 7))]
    return [_ones_count_tables(n)[tables] for n in range(3, 10)]


@pytest.mark.parametrize("metric, tables", [
    (metric, tables) for metric in ("worst_correctness", "expected_magnitude")
    for tables in ("parity", "majority", "many_valued", "tribes", "planted")
    if metric == "expected_magnitude" or tables != "many_valued"])
@pytest.mark.parametrize("group", [FullSymmetricGroup, IdentityGroup])
def test_scoring_a_rearranged_stack_once_leaves_the_price_unchanged(monkeypatch, group,
                                                                    metric, tables):
    # these tables have twin bits, so the clairvoyant descent scores each
    # class of twin rows of a stack by its first row; the price must be the
    # one the descent that scores every row finds, byte for byte
    mobs_module = importlib.import_module("inexact.mobs")
    problems = _twin_tables(tables)
    wrapped = []
    real = mobs_module._twins_scored_once
    monkeypatch.setattr(mobs_module, "_twins_scored_once",
                        lambda objective, table: wrapped.append(1) or real(objective, table))
    for problem in problems:
        n = problem.n
        assert any(len(c) > 1 for c in mobs_module._twin_classes(truth_table(problem)))
        got = json.dumps(mobs(problem, metric=metric, group=group(n)).to_json())
        with monkeypatch.context() as patch:
            _unwrapped(patch)
            want = json.dumps(mobs(problem, metric=metric, group=group(n)).to_json())
        assert got == want, (tables, n, metric, group.__name__)
    # every table reached the shortcut, none a closed form
    assert len(wrapped) == len(problems)


def test_a_count_symmetric_table_is_scored_one_row_per_call(monkeypatch):
    # from the uniform split, parity 8's descent under expected_magnitude
    # rejects every move of all 21 step sizes at each of the 4 default
    # budgets: 56 rows a call unwrapped, one wrapped (4 * (1 + 21 * 56) =
    # 4,708 objective rows, plus one profile per budget, which both sides
    # read since both play the uniform split)
    parity = custom_problem(popcount_table(8) % 2)
    price, calls = _price_and_rows(parity, "expected_magnitude")
    _unwrapped(monkeypatch)
    full_price, full_calls = _price_and_rows(parity, "expected_magnitude")
    assert price == full_price
    assert sum(full_calls) == 4_708 + 4
    assert calls == [1] * len(full_calls)


@pytest.mark.parametrize("n, tribes, rows, full_rows", [
    (8, 2, 340, 4_708), (9, 3, 760, 6_052), (10, 2, 340, None), (10, 5, 2_104, None)])
def test_tribes_descents_score_one_row_per_class_of_twin_rows(monkeypatch, n, tribes, rows,
                                                               full_rows):
    # at the default budgets these descents never leave the uniform split;
    # they hand the objective one row per class of twin rows of each stack
    # (the walk that scores every row hands it 7,564 at n = 10, too slow
    # to run here), plus one profile per budget that both sides read
    price, calls = _price_and_rows(tribes_problem(n, tribes))
    assert sum(calls) == rows + 4
    assert json.loads(price)["mobs"] == 1.0
    if full_rows is not None:
        _unwrapped(monkeypatch)
        full_price, full_calls = _price_and_rows(tribes_problem(n, tribes))
        assert price == full_price
        assert sum(full_calls) == full_rows + 4


def test_twin_rows_are_scored_once_only_where_the_table_has_twins(monkeypatch):
    mobs_module = importlib.import_module("inexact.mobs")
    pc = popcount_table(6)
    # parity and majority, a many-valued count table whose descent leaves
    # the uniform split at budget 4, so later stacks mix rows, tribes, and
    # i mod 3 == 0, whose even and odd bits are twins (2**j mod 3 is 1, 2)
    twins = [(custom_problem(pc % 2), None), (custom_problem((pc > 3).astype(int)), None),
             (custom_problem(np.array([0, 5, 2, 2, 1])[popcount_table(4)]),
              "expected_magnitude"),
             (tribes_problem(6, 2), None),
             (custom_problem((np.arange(64) % 3 == 0).astype(int)), None)]
    rng = np.random.default_rng(2)
    lone = [(comparison_problem(3), "worst_correctness"),
            (custom_problem(rng.integers(0, 2, size=64)), None)]
    for problem, _ in twins + [(or_problem(5), None), (unary_evaluation(5), None)]:
        assert max(map(len, mobs_module._twin_classes(truth_table(problem)))) > 1, problem.name
    for problem, _ in lone:
        assert len(mobs_module._twin_classes(truth_table(problem))) == problem.n, problem.name
    shortcut = [_price_and_rows(problem, metric) for problem, metric in twins + lone]
    _unwrapped(monkeypatch)
    full = [_price_and_rows(problem, metric) for problem, metric in twins + lone]
    # the tables with twins take the shortcut and price byte for byte the same
    for (price, calls), (full_price, full_calls) in zip(shortcut, full[:len(twins)]):
        assert price == full_price
        assert len(calls) == len(full_calls) and sum(calls) < sum(full_calls)
    moved = json.loads(full[2][0])["per_budget"][0]["cv_energies"]  # the many-valued table
    assert np.ptp(moved) > 0.1
    # the others hand the objective exactly the rows the unwrapped descent
    # hands it
    assert shortcut[len(twins):] == full[len(twins):]


def test_only_rows_equal_up_to_twins_are_scored_once():
    mobs_module = importlib.import_module("inexact.mobs")
    problem = tribes_problem(4, 2)  # twin classes {0, 1} and {2, 3}
    plain = error_objective(problem, "worst_correctness")
    scored = []
    objective = mobs_module._twins_scored_once(_counting(plain, scored),
                                               truth_table(problem))
    rows = np.array([[1.0, 2.0, 3.0, 4.0], [2.0, 1.0, 3.0, 4.0], [1.0, 2.0, 4.0, 3.0],
                     [3.0, 4.0, 1.0, 2.0], [2.0, 1.0, 4.0, 3.0], [4.0, 3.0, 2.0, 1.0]])
    # rows 0, 1, 2 and 4 are one class, rows 3 and 5 (tribes swapped) another
    assert np.array_equal(objective(rows), plain(rows[[0, 0, 0, 3, 0, 3]]))
    assert scored == [2]
    assert objective(rows[1:2]).tolist() == plain(rows[1:2]).tolist()
    assert scored == [2, 1]
    # a table with no twins hands every row on
    be = binary_evaluation(4)
    objective = mobs_module._twins_scored_once(
        _counting(error_objective(be, "worst_correctness"), scored), truth_table(be))
    objective(rows)
    assert scored == [2, 1, 6]


def test_twin_classes_are_found_once_and_only_for_a_descent(monkeypatch):
    # the closed-form champions never score a stack, so they never pay for
    # the scan; a descent finds the classes once, with or without twins
    mobs_module = importlib.import_module("inexact.mobs")
    scans = []
    real = mobs_module._twin_classes
    monkeypatch.setattr(mobs_module, "_twin_classes",
                        lambda table: scans.append(table.n) or real(table))
    for problem in (or_problem(6), unary_evaluation(6), binary_evaluation(6),
                    custom_problem(np.arange(16) + 3)):
        for metric in ("worst_correctness", "expected_magnitude"):
            mobs(problem, metric=metric)
    assert scans == []
    mobs(tribes_problem(6, 2))
    mobs(comparison_problem(2), metric="worst_correctness")
    assert scans == [6, 4]


def test_uniform_split_is_the_blindfolded_champion():
    # mobs plays the uniform split on the blindfolded side without searching;
    # no random split of the same budget may do better under the full group
    # (a fact, by champion's proofs, for the seeded lone-output tables under
    # worst_correctness and the linear ones under expected_magnitude)
    rng = np.random.default_rng(2017)
    cases = [(build_problem(kind, n), None) for kind in ("be", "or", "ue") for n in (2, 3, 4)]
    cases += [(tribes_problem(2), None), (tribes_problem(4), None)]
    for n in (2, 3, 4):
        cases += [(problem, "worst_correctness") for problem in _lone_output_tables(n, n)
                  if problem.kind == "custom"]
        cases += [(problem, "expected_magnitude") for problem, _ in _linear_tables(n, n)
                  if problem.kind == "custom"]
    for problem, metric in cases:
        n = problem.n
        objective = error_objective(problem, metric, FullSymmetricGroup(n))
        for budget in default_budget_grid(n):
            floor = objective(uniform_allocation(budget, n).entries[None])[0]
            draws = budget * rng.dirichlet(np.ones(n), size=100)
            values = objective(draws)
            assert (values >= floor - 1e-12).all(), \
                (problem.name, n, budget, draws[np.argmin(values)])


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
                seeds = [water_fill(np.arange(n), budget)]
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


@pytest.mark.xfail(strict=True, reason=(
    "under S_n mobs pins the blindfolded side to the uniform split, which is not the "
    "blindfolded optimum of every many-valued ones-count table: outputs (0, 5, 2, 2, 1) by "
    "ones count at n = 4 under expected_magnitude, budget 4, report quality_ratio 1.0033 "
    "and error_ratio 1.371, the descent reaching worst row 2.5542 at (0.762, 1.238, 1.238, "
    "0.762) against 2.5625 at the uniform split"))
def test_a_many_valued_ones_count_table_prices_at_one():
    outputs = np.array([0, 5, 2, 2, 1], dtype=np.int64)[popcount_table(4)]
    result = mobs(custom_problem(outputs), budget_grid=[4.0], metric="expected_magnitude")
    (outcome,) = result.outcomes
    assert outcome.quality_ratio <= 1.0 + 1e-9
    assert result.mobs <= 1.0 + 1e-3


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
    # at n = 12 and 14 both sides' rows come from product-law top-bit
    # moments and the clairvoyant champion is the ramp, so a whole default
    # grid prices in milliseconds with no descent
    result = mobs(binary_evaluation(12))
    assert result.mobs == pytest.approx(9.155975152866473, rel=1e-12)
    assert max(result.outcomes, key=lambda o: o.error_ratio).budget == 39.0
    assert result.converged
    result = mobs(binary_evaluation(14))
    assert result.mobs == pytest.approx(14.698399916347949, rel=1e-12)
    assert result.converged


def _analysis_route(n, group, analysis):
    """Per budget of be's default grid: (clairvoyant rows, blindfolded rows)
    as analysis scores them, the clairvoyant side playing the water-filled
    ramp under the identity group."""
    return [(analysis.profile(water_fill(np.arange(n), budget), IdentityGroup(n)),
             analysis.profile(uniform_allocation(budget, n), group))
            for budget in default_budget_grid(n)]


def test_ramp_prices_match_the_matrix_route(monkeypatch):
    # exact mobs on be takes the ramp kernel, which reads no loss matrix
    # and no group law, yet gives the kept loss matrix's price, worst input
    # and both sides' rows within 1e-14 relative (the matrix forced at
    # n <= 11, where it fits; above, the ramp route itself), under every
    # group kind, with no descent; under worst_correctness both sides play
    # one product law, so every ratio is exactly 1
    mobs_module = importlib.import_module("inexact.mobs")
    decoders = importlib.import_module("inexact.decoders")
    sizes = range(2, 15)
    routes = {}
    for n in sizes:
        table = truth_table(binary_evaluation(n))
        with monkeypatch.context() as patch:
            if n <= 11:
                patch.setattr(decoders, "_is_ramp", lambda decoder, table: False)
            analysis = ErrorAnalysis(table, identity_decoder(table), "absolute")
        assert analysis.kernel == ("matrix" if n <= 11 else "ramp"), n
        routes[n] = [_analysis_route(n, group, analysis) for group in _groups(n)]
    monkeypatch.setattr(mobs_module, "coordinate_descent", _refusing("coordinate_descent"))
    for n in sizes:
        for group, route in zip(_groups(n), routes[n]):
            result = mobs(binary_evaluation(n), group=group)
            assert result.mode == "exact" and result.converged
            for outcome, (cv_rows, bf_rows) in zip(result.outcomes, route):
                where = (n, group.kind, outcome.budget)
                ratios = bf_rows / cv_rows
                worst = int(np.argmax(ratios))
                assert outcome.worst_input == worst, where
                assert outcome.error_ratio == pytest.approx(ratios[worst], rel=1e-14), where
                assert outcome.cv_value == pytest.approx(cv_rows.max(), rel=1e-14), where
                assert outcome.bf_value == pytest.approx(bf_rows.max(), rel=1e-14), where
            ours = _ramp_rows(result, group)
            for (cv, bf), (cv_rows, bf_rows) in zip(ours, route):
                assert np.allclose(cv, cv_rows, rtol=1e-14, atol=0), (n, group.kind)
                assert np.allclose(bf, bf_rows, rtol=1e-14, atol=0), (n, group.kind)
            result = mobs(binary_evaluation(n), metric="worst_correctness", group=group)
            assert [o.error_ratio for o in result.outcomes] == [1.0] * 4, (n, group.kind)
            assert result.outcomes[0].worst_input == 0


def _ramp_rows(result, group):
    """Both sides' rows of each outcome of an exact be result under
    expected_magnitude, as mobs scores them."""
    identity = IdentityGroup(result.n)
    return [(ramp_profile(o.cv_energies, identity, "absolute"),
             ramp_profile(o.bf_energies, group, "absolute")) for o in result.outcomes]


def test_be_prices_exactly_to_twenty_bits(monkeypatch):
    # from n = 16 on the price peaks at budget n(n+1)/2, on a row with
    # alternating low bits and zero high bits; past 20 bits mobs refuses
    mobs_module = importlib.import_module("inexact.mobs")
    monkeypatch.setattr(mobs_module, "coordinate_descent", _refusing("coordinate_descent"))
    for n, want in ((16, 24.39979056200752), (18, 43.01089446506435), (20, 76.89275860124846)):
        result = mobs(binary_evaluation(n))
        assert result.mobs == pytest.approx(want, rel=1e-12), n
        worst = max(result.outcomes, key=lambda o: o.error_ratio)
        assert worst.budget == n * (n + 1) / 2
        assert worst.worst_input in (341, 1365), n
    with pytest.raises(ResourceLimitError):
        mobs(binary_evaluation(21))
    # rows that are not flat score under a group as the kept loss matrix does
    table = truth_table(binary_evaluation(4))
    analysis = ErrorAnalysis(table, identity_decoder(table), "absolute")
    rows = energy_rows(water_fill(np.arange(4), 10.0))
    for group in _groups(4)[1:]:
        assert np.allclose(ramp_profile(rows, group, "absolute"), analysis.profile(rows, group),
                           rtol=1e-14, atol=0), group.kind


def test_no_descent_beats_the_ramp_on_be():
    # the closed-form be champion: many-seed descents on the identity-group
    # objective never find a better point than the ramp, the water fill of
    # the bit positions
    rng = np.random.default_rng(22)
    for n in range(2, 9):
        be = binary_evaluation(n)
        objective = error_objective(be, "expected_magnitude", IdentityGroup(n))
        for budget in default_budget_grid(n):
            ramp = water_fill(np.arange(n), budget)
            seeds = [uniform_allocation(budget, n), ramp]
            seeds += [energy_vector(budget * rng.dirichlet(np.ones(n))) for _ in range(8)]
            ramp_value = objective(ramp.entries[None])[0]
            for seed in seeds:
                found = coordinate_descent(objective, budget, n, [seed])
                assert found.objective_value >= ramp_value * (1 - 1e-12), \
                    (n, budget, seed.entries, found.objective_value, ramp_value)


def test_mobs_plays_the_ramp_on_be_without_a_search(monkeypatch):
    mobs_module = importlib.import_module("inexact.mobs")
    monkeypatch.setattr(mobs_module, "coordinate_descent", _refusing("the descent"))
    for n in range(2, 11):
        result = mobs(binary_evaluation(n))
        assert result.converged
        for outcome in result.outcomes:
            want = water_fill(np.arange(n), outcome.budget).entries
            assert np.array_equal(outcome.cv_energies.entries, want), (n, outcome.budget)
    # or (a 0/1 table with a lone output) and ue (linear, every weight 1)
    # take the uniform split under expected_magnitude too
    for problem in (or_problem(4), unary_evaluation(4)):
        result = mobs(problem, [4.0, 9.0], "expected_magnitude")
        for outcome in result.outcomes:
            want = uniform_allocation(outcome.budget, 4).entries
            assert np.array_equal(outcome.cv_energies.entries, want), problem.name
    # parity keeps its descent
    with pytest.raises(AssertionError, match="the descent ran"):
        mobs(custom_problem(popcount_table(4) % 2), [4.0], "expected_magnitude")


def _linear_tables(n, seed):
    """(problem, weights) for ue, be and three seeded random linear tables
    of n bits, outputs(i) = offset + sum_j w_j bit_j(i), the weights
    positive and in no order, the offset of either sign."""
    rng = np.random.default_rng(seed)
    tables = [(unary_evaluation(n), np.ones(n)), (binary_evaluation(n), np.exp2(np.arange(n)))]
    bits = (np.arange(1 << n)[:, None] >> np.arange(n)) & 1
    for _ in range(3):
        weights = rng.integers(1, 40, size=n)
        tables.append((custom_problem(int(rng.integers(-9, 10)) + bits @ weights), weights))
    return tables


def test_linear_tables_are_read_as_their_weights():
    mobs_module = importlib.import_module("inexact.mobs")
    for n in range(1, 9):
        for problem, weights in _linear_tables(n, seed=n):
            levels = mobs_module._linear_levels(truth_table(problem))
            assert np.array_equal(levels, np.log2(weights)), (problem.name, n)
    for problem in _near_linear_tables() + [custom_problem(popcount_table(4) % 2)]:
        assert mobs_module._linear_levels(truth_table(problem)) is None, problem.params


def _near_linear_tables():
    """Tables of 4 bits one step from linear: weights (3, 1, 4, 2) with one
    entry raised by 1, and weights with a zero and with a negative entry."""
    bits = (np.arange(16)[:, None] >> np.arange(4)) & 1
    perturbed = bits @ np.array([3, 1, 4, 2])
    perturbed[5] += 1
    return [custom_problem(outputs) for outputs in
            (perturbed, bits @ np.array([3, 0, 4, 2]), bits @ np.array([3, -1, 4, 2]))]


def test_no_grid_point_beats_the_water_fill_on_a_linear_table():
    # the water fill of log2 w is a linear table's expected_magnitude
    # champion by proof (see mobs.champion); a lattice over the whole budget
    # simplex checks it
    for n, ticks in ((2, 400), (3, 90), (4, 36)):
        for problem, weights in _linear_tables(n, seed=n):
            objective = error_objective(problem, "expected_magnitude")
            for budget in default_budget_grid(n):
                value = objective(water_fill(np.log2(weights), budget).entries[None])[0]
                found = grid_search(objective, budget, n, budget / ticks)
                assert found.objective_value >= value * (1 - 1e-12), \
                    (problem.name, n, budget, found.energies.entries)


def test_no_descent_beats_the_water_fill_on_a_linear_table():
    rng = np.random.default_rng(37)
    for n in (5, 6):
        for problem, weights in _linear_tables(n, seed=n):
            objective = error_objective(problem, "expected_magnitude")
            for budget in default_budget_grid(n):
                value = objective(water_fill(np.log2(weights), budget).entries[None])[0]
                for _ in range(6):
                    seed = energy_vector(budget * rng.dirichlet(np.ones(n)))
                    found = coordinate_descent(objective, budget, n, [seed])
                    assert found.objective_value >= value * (1 - 1e-12), \
                        (problem.name, n, budget, seed.entries, found.objective_value)


def test_mobs_plays_the_water_fill_on_a_linear_table_without_a_search(monkeypatch):
    mobs_module = importlib.import_module("inexact.mobs")
    monkeypatch.setattr(mobs_module, "coordinate_descent", _refusing("the descent"))
    for n in range(2, 9):
        for problem, weights in _linear_tables(n, seed=n):
            result = mobs(problem, metric="expected_magnitude", group=IdentityGroup(n))
            assert result.converged
            for outcome in result.outcomes:
                want = water_fill(np.log2(weights), outcome.budget).entries
                assert np.array_equal(outcome.cv_energies.entries, want), \
                    (problem.name, outcome.budget)
            # scored under one law, the water fill is no worse than the
            # uniform split
            assert result.mobs >= 1.0 - 1e-12, problem.name
    # a custom table equal to be's is priced as be, through the product-law
    # ramp rows at n = 12
    custom = mobs(custom_problem(np.arange(4096)), [39.0], "expected_magnitude").to_json()
    be = mobs(binary_evaluation(12), [39.0]).to_json()
    assert (custom.pop("problem"), custom.pop("kind")) == ("custom", "custom")
    assert (be.pop("problem"), be.pop("kind")) == ("be", "be")
    assert custom == be and custom["mode"] == "exact"


def test_tables_near_linear_still_descend(monkeypatch):
    # one entry off a linear table, or a zero or negative weight, and the
    # proof no longer holds: mobs descends once per budget
    mobs_module = importlib.import_module("inexact.mobs")
    searches = []

    def recording(fn, budget, n, seeds):
        searches.append(coordinate_descent(fn, budget, n, seeds))
        return searches[-1]

    monkeypatch.setattr(mobs_module, "coordinate_descent", recording)
    for problem in _near_linear_tables():
        searches.clear()
        result = mobs(problem, [4.0, 8.0], "expected_magnitude")
        assert len(searches) == 2, problem.params
        for outcome, search in zip(result.outcomes, searches):
            assert np.array_equal(outcome.cv_energies.entries, search.energies.entries)


def _lone_output_tables(n, seed):
    """Tables of n bits with a lone output (a value exactly one input row
    gives): or, ue, be, sorting 2x2 at n = 4, and three seeded random
    custom tables, each with one row's value made unique."""
    rng = np.random.default_rng(seed)
    tables = [build_problem(kind, n) for kind in ("or", "ue", "be")]
    tables += [sorting_problem(2, 2)] if n == 4 else []
    for _ in range(3):
        outputs = rng.integers(0, 3, size=1 << n)
        outputs[rng.integers(1 << n)] = 3
        tables.append(custom_problem(outputs))
    return tables


def _lone_cases(n, seed):
    """(problem, metric, the objective over every input row, not _proof's
    closed form) for each table whose champion is the uniform split by
    proof: lone-output tables under worst_correctness and two-valued lone
    tables off 0/1 under expected_magnitude."""
    mobs_module = importlib.import_module("inexact.mobs")
    cases = [(p, "worst_correctness") for p in _lone_output_tables(n, seed)]
    cases += [(p, "expected_magnitude") for p in _spread_lone_tables(n)]
    return [(p, metric, error_objective(p, metric, profile=mobs_module._analysis(p, metric).profile))
            for p, metric in cases]


def test_no_grid_point_beats_the_uniform_split_on_a_lone_output_table():
    # the uniform split is the champion by proof (see mobs._proof); a
    # lattice over the whole budget simplex checks it on every row
    for n, ticks in ((2, 400), (3, 90), (4, 36)):
        for problem, metric, objective in _lone_cases(n, seed=n):
            for budget in default_budget_grid(n):
                value = objective(uniform_allocation(budget, n).entries[None])[0]
                found = grid_search(objective, budget, n, budget / ticks)
                assert found.objective_value >= value * (1 - 1e-12), \
                    (problem.name, metric, n, budget, found.energies.entries)


def test_no_descent_beats_the_uniform_split_on_a_lone_output_table():
    rng = np.random.default_rng(36)
    for n in (5, 6):
        for problem, metric, objective in _lone_cases(n, seed=n):
            for budget in default_budget_grid(n):
                value = objective(uniform_allocation(budget, n).entries[None])[0]
                for _ in range(6):
                    seed = energy_vector(budget * rng.dirichlet(np.ones(n)))
                    found = coordinate_descent(objective, budget, n, [seed])
                    assert found.objective_value >= value * (1 - 1e-12), \
                        (problem.name, metric, n, budget, seed.entries, found.objective_value)


def test_mobs_plays_the_uniform_split_on_a_lone_output_table_without_a_search(monkeypatch):
    mobs_module = importlib.import_module("inexact.mobs")
    monkeypatch.setattr(mobs_module, "coordinate_descent", _refusing("the descent"))
    cases = [(problem, metric, group) for n in range(2, 9)
             for problem, metric in [(p, "worst_correctness") for p in _lone_output_tables(n, n)]
             + [(p, "expected_magnitude") for p in _spread_lone_tables(n)]
             for group in (FullSymmetricGroup(n), IdentityGroup(n))]
    for problem, metric, group in cases:
        assert mobs_module._has_lone_output(truth_table(problem)), problem.name
        result = mobs(problem, metric=metric, group=group)
        assert result.converged
        for outcome in result.outcomes:
            want = uniform_allocation(outcome.budget, problem.n).entries
            assert np.array_equal(outcome.cv_energies.entries, want), \
                (problem.name, outcome.budget)
        # both sides play the uniform split, whose law no rewiring changes
        assert result.mobs == pytest.approx(1.0, abs=1e-12), (problem.name, group.kind)


def test_tables_without_a_lone_output_still_descend(monkeypatch):
    mobs_module = importlib.import_module("inexact.mobs")
    searches = []

    def recording(fn, budget, n, seeds):
        searches.append(coordinate_descent(fn, budget, n, seeds))
        return searches[-1]

    monkeypatch.setattr(mobs_module, "coordinate_descent", recording)
    parity = custom_problem(popcount_table(4) % 2)
    for problem in (tribes_problem(4), tribes_problem(6), parity, comparison_problem(2)):
        assert not mobs_module._has_lone_output(truth_table(problem)), problem.name
        searches.clear()
        result = mobs(problem, [float(problem.n), 2.0 * problem.n], "worst_correctness")
        assert len(searches) == 2, problem.name
        for outcome, search in zip(result.outcomes, searches):
            assert np.array_equal(outcome.cv_energies.entries, search.energies.entries)


def _comparison_budgets(k):
    return default_budget_grid(2 * k) + [k * (k + 1) / 2.0]


def _pooled_objective(k):
    # the comparison objective read through the k pooled sums, each split
    # evenly between the operands' bits
    objective = error_objective(comparison_problem(k), "comparison_weighted")
    return lambda sums: objective(np.hstack([sums / 2.0, sums / 2.0]))


def test_no_grid_point_beats_the_equalizer_on_comparison():
    # the equalizer is backed numerically, not by proof: every point of a
    # fine lattice over the pooled sums scores at least its value
    for k, ticks in ((2, 4000), (3, 400)):
        objective = error_objective(comparison_problem(k), "comparison_weighted")
        for budget in _comparison_budgets(k):
            champion, _ = _rule(comparison_problem(k))(budget)
            value = objective(champion.entries[None])[0]
            found = grid_search(_pooled_objective(k), budget, k, budget / ticks)
            assert found.objective_value >= value * (1 - 1e-12), \
                (k, budget, found.energies.entries, found.objective_value, value)


def test_no_descent_beats_the_equalizer_on_comparison():
    # many-seed descents over all 2k energies, the equalizer among the seeds
    rng = np.random.default_rng(35)
    for k in range(1, 5):
        n = 2 * k
        problem = comparison_problem(k)
        objective = error_objective(problem, "comparison_weighted")
        for budget in _comparison_budgets(k):
            champion, _ = _rule(problem)(budget)
            value = objective(champion.entries[None])[0]
            seeds = [uniform_allocation(budget, n), analytic_allocation(problem, budget),
                     champion]
            seeds += [energy_vector(budget * rng.dirichlet(np.ones(n))) for _ in range(8)]
            for seed in seeds:
                found = coordinate_descent(objective, budget, n, [seed])
                assert found.objective_value >= value * (1 - 1e-12), \
                    (k, budget, seed.entries, found.objective_value, value)


def test_the_equalizer_at_edge_budgets():
    # past the float range (5000 spreads 625 to 2500 per position) every
    # entry reads 0 or the level underflows; the price must not dip below 1
    mobs_module = importlib.import_module("inexact.mobs")
    for k in range(1, 5):
        objective = error_objective(comparison_problem(k), "comparison_weighted")
        for budget in (0.0, 0.25, 1.0, 2.0, 300.0, 1500.0, 5000.0):
            with np.errstate(divide="raise", over="raise", invalid="raise"):
                champion, converged = _rule(comparison_problem(k))(budget)
                result = mobs(comparison_problem(k), [budget])
            entries = champion.entries
            where = (k, budget)
            assert converged, where
            assert entries.min() >= 0.0 and not np.signbit(entries).any(), where
            assert math.fsum(entries) <= budget, where
            assert math.fsum(entries) >= budget * (1 - 1e-12), where
            assert np.array_equal(entries[:k], entries[k:]), where
            outcome = result.outcomes[0]
            assert np.array_equal(outcome.cv_energies.entries, entries), where
            assert np.isfinite([outcome.cv_value, outcome.bf_value]).all(), where
            assert outcome.quality_ratio >= 1 - 1e-12, where
            assert outcome.cv_value == objective(entries[None])[0], where
            if budget == 0.0:
                # every read errs: each position below the top is reached
                # with probability 0, and spends nothing
                _, B = mobs_module._scan_terms(np.exp2(-(entries[:k] + entries[k:])))
                assert (B[:-1] == 0.0).all() and (entries == 0.0).all(), where


def test_the_equalizer_spends_at_most_the_budget_up_to_k_8():
    # the top position takes what the bisection's level leaves unspent, but
    # never so much that the sums, added exactly, pass the budget
    for k in range(1, 9):
        budgets = _comparison_budgets(k) + [0.0, 0.1, 0.25, 0.3, 1.0, 2.0, 7.7, 300.0,
                                            1500.0, 5000.0]
        for budget in budgets:
            entries = _rule(comparison_problem(k))(budget)[0].entries
            assert math.fsum(entries) <= budget, (k, budget)
            assert math.fsum(entries) >= budget * (1 - 1e-12), (k, budget)


def test_one_position_comparison_prices_exactly_one():
    # at k = 1 the equalizer and the uniform split pool the same sum, so the
    # price is 1 to the last bit; the bisection's level alone left the
    # pooled sum 0.2499999999999999 and both ratios 0.9999999999999999
    result = mobs(comparison_problem(1), [0.25])
    (outcome,) = result.outcomes
    assert np.array_equal(outcome.cv_energies.entries, [0.125, 0.125])
    assert outcome.error_ratio == outcome.quality_ratio == 1.0
    assert result.mobs == 1.0


def test_the_equalizer_level_to_budget_map_never_rises():
    # bisection on the level is sound only if the budget its sums spend
    # never rises with the level
    mobs_module = importlib.import_module("inexact.mobs")
    for k in range(1, 9):
        top = float((2 << (k - 1)) - 1)
        levels = top * np.exp2(-np.linspace(80.0, 0.0, 20_001))
        spent = [math.fsum(mobs_module._equalized_pooled_sums(k, float(t))) for t in levels]
        assert (np.diff(spent) <= 0.0).all(), k
        assert spent[-1] == 0.0 and spent[0] >= 80.0, k


def test_mobs_plays_the_equalizer_on_comparison_without_a_search(monkeypatch):
    mobs_module = importlib.import_module("inexact.mobs")
    monkeypatch.setattr(mobs_module, "coordinate_descent", _refusing("the descent"))
    for k in range(1, 7):
        result = mobs(comparison_problem(k), _comparison_budgets(k))
        assert result.converged
        for outcome in result.outcomes:
            want = mobs_module.equalized_comparison(k, outcome.budget).entries
            assert np.array_equal(outcome.cv_energies.entries, want), (k, outcome.budget)
    # other metrics on comparison problems keep their descent
    with pytest.raises(AssertionError, match="the descent"):
        mobs(comparison_problem(2), [3.0], "worst_correctness")


def _sorting_budgets(count, width):
    return [0.0, count * width * (width + 1) / 4.0] + default_budget_grid(count * width)


def _jensen_bound(count, width, budget):
    # 2**(w-1) * m**2 * 2**(-B/m), m = count / 2: top_bit_split's proof
    m = count // 2
    return 2.0 ** (width - 1) * m * m * 2.0 ** (-budget / m)


def test_the_top_bit_split_attains_the_jensen_bound():
    for count in range(2, 17, 2):
        for width in range(1, 7):
            m, n = count // 2, count * width
            for budget in _sorting_budgets(count, width):
                entries = top_bit_split(count, width, budget).entries
                where = (count, width, budget)
                top = np.arange(width - 1, n, width)
                assert entries.shape == (n,), where
                assert (entries[top] == budget / count).all(), where
                assert (np.delete(entries, top) == 0.0).all(), where
                # the objective 2**(w-1) * S_H * S_L, the high numbers first
                q = np.exp2(-entries[top])
                value = 2.0 ** (width - 1) * q[:m].sum() * q[m:].sum()
                want = _jensen_bound(count, width, budget)
                assert value == pytest.approx(want, rel=1e-12, abs=0.0), where
                if n <= MAX_PACK_BITS:  # a sorting problem packs its output in int64
                    problem = sorting_problem(count, width)
                    champ, converged = _rule(problem)(budget)
                    assert converged and np.array_equal(champ.entries, entries), where
                    got = error_objective(problem, "sorting_weighted")(entries[None])[0]
                    assert got == pytest.approx(want, rel=1e-12, abs=0.0), where
    for count in (0, 1, 3, 7):
        with pytest.raises(ValueError, match="count must be even and >= 2"):
            top_bit_split(count, 2, 4.0)


def test_no_descent_or_random_vector_beats_the_top_bit_split():
    # the proof's bound, checked against searches that know nothing of it
    rng = np.random.default_rng(51)
    for count in range(2, 9, 2):
        for width in range(1, 5):
            problem = sorting_problem(count, width)
            n = problem.n
            objective = error_objective(problem, "sorting_weighted")
            for budget in _sorting_budgets(count, width)[1:]:
                champ = top_bit_split(count, width, budget)
                value = objective(champ.entries[None])[0]
                floor = value * (1 - 1e-12)
                where = (count, width, budget)
                seeds = [uniform_allocation(budget, n), analytic_allocation(problem, budget),
                         champ]
                seeds += [energy_vector(budget * rng.dirichlet(np.ones(n))) for _ in range(8)]
                for seed in seeds:
                    found = coordinate_descent(objective, budget, n, [seed])
                    assert found.objective_value >= floor, (where, seed.entries)
                rows = budget * rng.dirichlet(np.ones(n), size=1000)
                assert objective(rows).min() >= floor, where


def test_sorting_ladder_prices_are_two_to_the_half_of_w_squared_minus_one():
    for count in range(2, 9, 2):
        for width in range(1, 5):
            result = mobs(sorting_problem(count, width), [count * width * (width + 1) / 4.0])
            assert result.converged
            assert result.mobs == pytest.approx(2.0 ** ((width * width - 1) / 2.0),
                                                rel=1e-12, abs=0.0), (count, width)


def test_mobs_plays_the_top_bit_split_on_sorting_without_a_search_or_table(monkeypatch):
    mobs_module = importlib.import_module("inexact.mobs")
    with monkeypatch.context() as patch:
        patch.setattr(mobs_module, "coordinate_descent", _refusing("the descent"))
        patch.setattr(mobs_module, "truth_table", _refusing("truth_table"))
        for count, width in ((2, 1), (2, 2), (4, 2), (2, 3), (8, 2), (4, 4), (10, 6)):
            result = mobs(sorting_problem(count, width))
            assert result.converged
            for outcome in result.outcomes:
                want = top_bit_split(count, width, outcome.budget).entries
                assert np.array_equal(outcome.cv_energies.entries, want), (count, width)
                assert outcome.cv_value == pytest.approx(
                    _jensen_bound(count, width, outcome.budget), rel=1e-12, abs=0.0)
    # sorting under a per-input metric without a proof keeps its descent
    monkeypatch.setattr(mobs_module, "coordinate_descent", _refusing("the descent"))
    with pytest.raises(AssertionError, match="the descent"):
        mobs(sorting_problem(2, 2), [3.0], "expected_magnitude")


@pytest.mark.xfail(strict=True, reason=(
    "coordinate descent on a max of smooth functions can stall short of the minimum "
    "(Tseng, JOTA 109, 2001): on sorting 4x2 at budget 72 it stops at 2.33e-10, twice "
    "the proven optimum 2**-33, with 1 unit on two low bits, and reports converged"))
def test_the_descent_reaches_the_top_bit_split_on_sorting():
    problem = sorting_problem(4, 2)
    objective = error_objective(problem, "sorting_weighted")
    found = coordinate_descent(objective, 72.0, 8, [uniform_allocation(72.0, 8),
                                                    analytic_allocation(problem, 72.0)])
    best = objective(top_bit_split(4, 2, 72.0).entries[None])[0]
    assert best == 2.0 ** -33
    assert found.objective_value == pytest.approx(best, rel=1e-9, abs=0.0)


def test_mobs_comparison_and_sorting_frozen_values():
    # the equalized champion's exact ladder price 5*sqrt(2)/4: clairvoyant
    # 0.6 against blindfolded 3*sqrt(2)/4
    comp = mobs(comparison_problem(2), budget_grid=[3.0])
    assert comp.mobs == pytest.approx(5.0 * np.sqrt(2.0) / 4.0, abs=1e-12)
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

    def recording(table, energies, group, decoder, rows, loss, samples, rng):
        est, se = real(table, energies, group, decoder, rows, loss, samples, rng)
        calls.append((table, energies, group, decoder, rows, loss, samples, est))
        return est, se

    monkeypatch.setattr(mobs_module, "monte_carlo_error", recording)
    result = mobs(binary_evaluation(12), mode="monte_carlo", samples=20_000, rng=0)
    assert result.mode == "monte_carlo"
    assert result.samples == 20_000
    # the pin follows the seeded stream (12.0521739130 before the identity
    # draws went to one uniform per block of 8 bits, 11.9619706137 before
    # each side drew one stream for all its probes); the exact worst-probe
    # ratios at budgets 12/39/78/156 are 4.815/8.611/8.228/7.549, so it is
    # last-budget noise
    assert result.mobs == pytest.approx(11.3801498127, abs=1e-6)
    outcome = result.outcomes[0]
    assert outcome.std_errors is not None
    assert outcome.converged
    assert len(outcome.std_errors["probes"]) >= 2
    # one call per side and budget, over all the budget's probes
    assert len(calls) == 2 * len(result.outcomes)
    for o, cv, bf in zip(result.outcomes, calls[::2], calls[1::2]):
        assert cv[4] == bf[4] == o.std_errors["probes"]
        assert cv[2].kind == "identity" and bf[2].kind == "symmetric"
    # whatever the stream, each probe estimate sits within 4 standard errors
    # of its exact mean, the error taken from the exact loss variance
    for table, energies, group, decoder, rows, loss, samples, est in calls:
        avg = average_pattern_probabilities(group, energies)
        assert est.shape == (len(rows),)
        for i, e in zip(rows, est):
            decoded = decoder.decode_map[i ^ np.arange(avg.size)]
            truth = table.outputs[i]
            vals = (decoded != truth) if loss == "exact" else np.abs(decoded - truth)
            vals = vals.astype(np.float64)
            mean = avg @ vals
            var = max(avg @ (vals * vals) - mean * mean, 0.0)
            assert abs(e - mean) <= 4 * np.sqrt(var / samples) + 1e-12
    again = mobs(binary_evaluation(12), mode="monte_carlo", samples=20_000, rng=0)
    assert again.mobs == result.mobs


def test_sampled_mobs_plays_a_custom_linear_tables_water_fill():
    # a custom linear table with unequal weights (1 x 11, 4) at n = 12 has
    # 16 output values, so exact mobs refuses (the xor kernel) and it
    # samples; its clairvoyant side is champion's water fill of log2 w, not
    # the uniform split analytic_allocation gives a custom kind
    weights = np.array([1] * 11 + [4])
    problem = custom_problem(((np.arange(4096)[:, None] >> np.arange(12)) & 1) @ weights)
    result = mobs(problem, [12.0], "expected_magnitude", mode="monte_carlo",
                  samples=2_000, rng=0)
    outcome = result.outcomes[0]
    fill = water_fill(np.log2(weights), 12.0)
    assert outcome.cv_energies.entries.tolist() == fill.entries.tolist()
    assert outcome.bf_energies.entries.tolist() == [1.0] * 12
    # row 0 is the worst row and errs sum_j w_j m_j: 15 / 2 under the
    # uniform split, 6.7348 under the fill
    table = truth_table(problem)
    decoder = identity_decoder(table)
    bf = per_input_error(table, outcome.bf_energies, FullSymmetricGroup(12), decoder, 0,
                         "absolute")
    cv = per_input_error(table, fill, IdentityGroup(12), decoder, 0, "absolute")
    assert bf == pytest.approx(7.5, rel=1e-12)
    assert cv == pytest.approx(6.7348, abs=5e-5)


def test_sampled_mobs_plays_the_ramp_tables_closed_forms():
    # be and the custom table 0..4095 have a lone output read right or
    # wrong under worst_correctness, so the clairvoyant side plays the
    # uniform split, as exact mode's champion does (it played the water-
    # filled ramp and priced 0.7365, below 1); under expected_magnitude it
    # keeps the ramp, the bytes analytic_allocation gives be
    for problem in (binary_evaluation(12), custom_problem(np.arange(4096))):
        result = mobs(problem, [39.0], "worst_correctness", mode="monte_carlo",
                      samples=2_000, rng=0)
        outcome = result.outcomes[0]
        assert outcome.cv_energies.entries.tolist() == [3.25] * 12
        assert outcome.bf_energies.entries.tolist() == [3.25] * 12
        # one law on both sides: every probe's ratio is noise about 1
        assert 0.9 < result.mobs < 1.1
        result = mobs(problem, [39.0], "expected_magnitude", mode="monte_carlo",
                      samples=200, rng=0)
        want = analytic_allocation(binary_evaluation(12), 39.0).entries
        assert result.outcomes[0].cv_energies.entries.tobytes() == want.tobytes()


def _built_ins():
    """Every built-in kind at its edges: or, ue and be at n = 1-10, tribes
    at every divisor (AND and OR among them), comparison at k = 1-5, and
    sorting with one number, with one-bit numbers and in a few other
    shapes."""
    problems = [build_problem(kind, n) for kind in ("or", "ue", "be") for n in range(1, 11)]
    problems += [tribes_problem(n, t) for n in range(1, 11) for t in range(1, n + 1)
                 if n % t == 0]
    problems += [comparison_problem(k) for k in range(1, 6)]
    problems += [sorting_problem(1, width) for width in range(1, 11)]
    problems += [sorting_problem(count, 1) for count in range(2, 11)]
    return problems + [sorting_problem(c, w) for c, w in ((2, 2), (2, 3), (3, 2), (2, 4))]


def test_table_facts_of_every_built_in_are_the_column_facts():
    # a built-in kind's facts are read off the kind with no table; they must
    # be the facts its truth table's column gives
    mobs_module = importlib.import_module("inexact.mobs")
    for problem in _built_ins():
        table = truth_table(problem)
        lone, spread, levels = mobs_module._table_facts(problem)
        column = mobs_module._linear_levels(table)
        found = _lone_output(table.outputs)
        where = (problem.name, problem.n)
        assert lone == mobs_module._has_lone_output(table), where
        assert spread == (None if found is None else abs(found[1] - found[2])), where
        assert (levels is None) == (column is None), where
        if column is not None:
            assert levels.tobytes() == column.tobytes(), where


def test_sampled_mobs_plays_the_exact_champion_wherever_it_is_a_closed_form(monkeypatch):
    # one rule serves both modes: wherever exact mobs plays a closed form
    # (no descent), sampled mobs plays its bytes; sorting under
    # worst_correctness has a lone output (only the all-zero input sorts
    # to 0), so both play the uniform split, not the per-position ladder
    mobs_module = importlib.import_module("inexact.mobs")
    monkeypatch.setattr(mobs_module, "coordinate_descent", _refusing("the descent"))
    problems = [p for p in _built_ins() if p.n <= 8]
    for n in range(1, 9):
        rng = np.random.default_rng(n)
        problems += [custom_problem(rng.integers(-2, 3, size=1 << n)) for _ in range(2)]
        problems += _lone_output_tables(n, n)[3:] + [p for p, _ in _linear_tables(n, n)[2:]]
    played = set()
    for problem in problems:
        budgets = [float(problem.n), problem.n * (problem.n + 1) / 2.0]
        for metric in ("worst_correctness", "expected_magnitude"):
            try:
                exact = mobs(problem, budgets, metric)
            except AssertionError as refused:  # a descent, which sampled mode does not run
                assert "the descent ran" in str(refused)
                continue
            sampled = mobs(problem, budgets, metric, mode="monte_carlo", samples=20, rng=0)
            for want, got in zip(exact.outcomes, sampled.outcomes):
                assert got.cv_energies.entries.tobytes() == want.cv_energies.entries.tobytes(), \
                    (problem.name, problem.n, metric, want.budget)
            played.add((problem.kind, metric))
    assert {("sorting", "worst_correctness"), ("custom", "expected_magnitude")} <= played
    result = mobs(sorting_problem(4, 4), [40.0], "worst_correctness", mode="monte_carlo",
                  samples=2_000, rng=0)
    assert result.outcomes[0].cv_energies.entries.tolist() == [2.5] * 16


def test_sampled_mobs_reads_no_column_facts_of_a_built_in(monkeypatch):
    # or and ue have their facts off the kind; at n = 20 reading the column
    # would cost more than the whole sampled call
    mobs_module = importlib.import_module("inexact.mobs")
    decoders = importlib.import_module("inexact.decoders")
    for name in ("_has_lone_output", "_linear_levels", "_classes"):
        monkeypatch.setattr(mobs_module, name, _refusing(name))
    monkeypatch.setattr(decoders, "_classes", _refusing("_classes"))
    for problem in (or_problem(20), unary_evaluation(20)):
        for metric in ("worst_correctness", "expected_magnitude"):
            result = mobs(problem, [20.0], metric, mode="monte_carlo", samples=50, rng=0)
            assert result.outcomes[0].cv_energies.entries.tolist() == [1.0] * 20


def test_exact_mobs_builds_no_generator(monkeypatch):
    # exact mode draws nothing, so it seeds no generator from OS entropy
    mobs_module = importlib.import_module("inexact.mobs")
    monkeypatch.setattr(mobs_module, "as_rng", _refusing("as_rng"))
    for problem in (binary_evaluation(6), or_problem(4), comparison_problem(2)):
        assert mobs(problem).mode == "exact"
    with pytest.raises(AssertionError, match="as_rng ran"):
        mobs(or_problem(4), [4.0], mode="monte_carlo", samples=10)


@given(st.lists(st.tuples(st.sampled_from([0.0, -0.0, 1.0, 2.0, 5e-324, 1e300, math.inf]),
                          st.sampled_from([0.0, -0.0, 1.0, 3.0, 5e-324, 1e-300, math.inf])),
                min_size=1, max_size=12))
@settings(max_examples=200, deadline=None)
def test_outcome_ratios_are_the_scalar_rule_entry_for_entry(pairs):
    # the array division keeps the scalar rule (0/0 reads 1, x/0 inf, IEEE
    # division otherwise) for every entry and for the worst entries, and
    # picks the first row of the largest ratio
    def ratio(b, c):
        if c == 0.0:
            return 1.0 if b == 0.0 else math.inf
        return b / c

    mobs_module = importlib.import_module("inexact.mobs")
    bf, cv = (np.array(side) for side in zip(*pairs))
    ev = energy_vector([1.0])
    outcome = mobs_module._outcome(1.0, ev, ev, cv, bf, True, range(len(pairs)))
    ratios = [ratio(b, c) for b, c in pairs]
    worst = int(np.argmax(np.array(ratios)))
    assert outcome.worst_input == worst
    quality = ratio(float(np.max(bf)), float(np.max(cv)))
    assert np.array([outcome.error_ratio, outcome.quality_ratio]).tobytes() == \
        np.array([ratios[worst], quality]).tobytes()


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
    # or and ue play a flat proven champion, whose worst row needs no table
    for problem, want in ((or_problem(4), []), (unary_evaluation(4), []),
                          (tribes_problem(4, 2), ["tribes2"])):
        built.clear()
        mobs(problem)
        assert built == want, problem.name


# the guard table past the 14-bit decode limit: the built-ins whose search
# objective scores one closed-form entry per row, by metric, at each n;
# every other built-in refuses.  Of the custom tables beside them, the two
# lone-output ones and the offset ramp are closed forms and the many-valued
# one refuses, under both metrics
_CLOSED_FORM_OBJECTIVES = {
    "worst_correctness": {
        15: {"or", "ue", "be", "tribes1", "tribes15", "sorting1x15", "sorting3x5", "sorting5x3"},
        16: {"or", "ue", "be", "tribes1", "tribes16", "sorting1x16", "sorting2x8", "sorting4x4",
             "sorting8x2"},
        20: {"or", "ue", "be", "tribes1", "tribes20", "sorting1x20", "sorting2x10", "sorting4x5"},
    },
    "expected_magnitude": {
        15: {"or", "ue", "be", "tribes1", "tribes15", "sorting1x15"},
        16: {"or", "ue", "be", "tribes1", "tribes16", "sorting1x16"},
        20: {"or", "ue", "be", "tribes1", "tribes20", "sorting1x20"},
    },
}


def test_search_objectives_past_the_decode_limit_are_closed_forms_or_refusals(monkeypatch):
    # at n = 15, 16 and 20 error_objective either scores one closed-form
    # entry per row, with no truth table, or raises ResourceLimitError; it
    # never scores a (K, 2**n) profile.  A guard change shows here as a
    # change of _CLOSED_FORM_OBJECTIVES.  Custom tables reach 20 bits, as
    # every truth table does, and take the same guards
    mobs_module = importlib.import_module("inexact.mobs")
    real_table = mobs_module.truth_table
    built = []
    monkeypatch.setattr(mobs_module, "truth_table",
                        lambda problem: built.append(problem.name) or real_table(problem))
    monkeypatch.setattr(ErrorAnalysis, "profile", _refusing("a profile"))
    shapes = {15: ((1, 15), (3, 5), (5, 3)), 16: ((1, 16), (2, 8), (4, 4), (8, 2)),
              20: ((1, 20), (2, 10), (4, 5))}
    for n, sorts in shapes.items():
        problems = [or_problem(n), unary_evaluation(n), binary_evaluation(n)]
        problems += [tribes_problem(n, t) for t in range(1, n + 1) if n % t == 0]
        problems += [sorting_problem(count, width) for count, width in sorts]
        problems += [comparison_problem(n // 2)] if n % 2 == 0 else []
        problems += _spread_lone_tables(n)  # the law kernel's, read by their proof
        problems += [_named("offsetramp", np.arange(1 << n) + 5),  # the ramp kernel's
                     _named("mod400", np.arange(1 << n) % 400)]  # the dense kernels'
        rows = np.vstack([np.full(n, 2.0), np.arange(n, dtype=np.float64), np.zeros(n)])
        for metric, closed in _CLOSED_FORM_OBJECTIVES.items():
            found = set()
            for problem in problems:
                built.clear()
                try:
                    values = error_objective(problem, metric, FullSymmetricGroup(n))(rows)
                except ResourceLimitError:
                    assert built == [problem.name], (problem.name, metric)
                    continue
                assert built == [] and values.shape == (3,), (problem.name, metric)
                profile = mobs_module._profile_function(problem, metric)
                assert profile(rows, IdentityGroup(n)).shape == (3, 1)
                found.add(problem.name)
            assert found == closed[n] | {"lone0of2", "lone3of4", "offsetramp"}, (n, metric)


def test_or_and_ue_price_exactly_one_at_any_n(monkeypatch):
    # both sides play the uniform split, proven optimal, whose worst row is
    # closed form: exact mobs builds no truth table, profile or descent, so
    # or and ue price exactly 1 at 12, 20 and 64 bits under every group
    mobs_module = importlib.import_module("inexact.mobs")
    for name in ("truth_table", "coordinate_descent"):
        monkeypatch.setattr(mobs_module, name, _refusing(name))
    for n in (12, 20, 64):
        groups = (IdentityGroup(n), FullSymmetricGroup(n),
                  GeneratedGroup(n, [tuple(range(1, n)) + (0,)]))
        for problem, metric, group in itertools.product(
                (or_problem(n), unary_evaluation(n)),
                ("worst_correctness", "expected_magnitude"), groups):
            result = mobs(problem, metric=metric, group=group, mode="exact")
            where = (problem.name, n, metric, group.kind)
            assert result.csv_row() == f"{problem.name},{n},1,exact", where
            for o in result.outcomes:
                assert (o.error_ratio, o.quality_ratio, o.worst_input) == (1.0, 1.0, 0), where
                assert o.cv_value == o.bf_value > 0.0, where


def _refusing(what):
    def refuse(*args, **kwargs):
        raise AssertionError(f"{what} ran")
    return refuse


def test_exact_mobs_refuses_a_descent_without_the_loss_matrix(monkeypatch):
    # past 11 bits a per-input analysis keeps no loss matrix, and the xor
    # transform's rows carry rounding noise, too coarse for a descent or a
    # closed form's price; mobs refuses up front, before any profile or
    # descent.  be, or and ue play the uniform split under worst_correctness
    # (a lone output) and or and ue under expected_magnitude too (a 0/1
    # table, a linear one of equal weights), whose worst row is closed
    # form, so they price exactly 1 with no profile.
    mobs_module = importlib.import_module("inexact.mobs")
    monkeypatch.setattr(mobs_module, "coordinate_descent", _refusing("the descent"))
    with monkeypatch.context() as patch:
        patch.setattr(ErrorAnalysis, "profile", _refusing("a profile"))
        for problem in (tribes_problem(12, 2), tribes_problem(12, 3)):
            with pytest.raises(ResourceLimitError, match="kept loss matrix"):
                mobs(problem, mode="exact")
        for problem, metric in ((binary_evaluation(12), "worst_correctness"),
                                (or_problem(12), "worst_correctness"),
                                (or_problem(14), "expected_magnitude"),
                                (unary_evaluation(12), "worst_correctness"),
                                (unary_evaluation(12), "expected_magnitude")):
            result = mobs(problem, [39.0], metric)
            assert result.mode == "exact" and result.converged
            assert result.csv_row() == f"{problem.name},{problem.n},1,exact"


def test_exact_mobs_scores_the_blindfolded_side_before_any_descent(monkeypatch):
    # S_8 on 11 bits is over the generated group's exact guard; the refusal
    # comes from its law, not after a descent.  The linear table of weights
    # 1 .. 11 takes its water fill, which is not flat, so the blindfolded
    # side reads the group's law; or's champion is the uniform split, which
    # every permutation fixes, so both sides read one profile under the
    # identity group and or prices exactly 1
    mobs_module = importlib.import_module("inexact.mobs")
    monkeypatch.setattr(mobs_module, "coordinate_descent", _refusing("the descent"))
    s8 = GeneratedGroup(11, [[1, 0, *range(2, 11)], [*range(1, 8), 0, 8, 9, 10]])
    bits = (np.arange(1 << 11)[:, None] >> np.arange(11)) & 1
    linear = custom_problem(bits @ np.arange(1, 12))
    with pytest.raises(ResourceLimitError, match="exact guard"):
        mobs(linear, [11.0], "expected_magnitude", group=s8)
    assert mobs(or_problem(11), [11.0], group=s8).csv_row() == "or,11,1,exact"


@pytest.mark.parametrize("mode", ["exact", "monte_carlo"])
def test_a_flat_champion_is_scored_once_for_both_sides(monkeypatch, mode):
    # where champion returns the blindfolded uniform split, which every
    # permutation fixes, both sides read one law: one profile (exact) or one
    # estimate (sampled) stands for both, so every ratio is exactly 1, first
    # reached at row 0
    mobs_module = importlib.import_module("inexact.mobs")
    estimates = []
    real = mobs_module.monte_carlo_error
    monkeypatch.setattr(mobs_module, "monte_carlo_error",
                        lambda *args: estimates.append(1) or real(*args))
    problems = [or_problem(5), unary_evaluation(5), tribes_problem(6, 2), tribes_problem(6, 3),
                _ones_count_tables(5)["parity"]]
    for problem, group, metric in itertools.product(
            problems, ("identity", "symmetric", "generated"),
            ("worst_correctness", "expected_magnitude")):
        group = dict(zip(("identity", "symmetric", "generated"), _groups(problem.n)))[group]
        estimates.clear()
        result = mobs(problem, metric=metric, group=group, mode=mode, samples=300, rng=4)
        where = (problem.name, group.kind, metric)
        for o in result.outcomes:
            assert np.array_equal(o.cv_energies.entries, o.bf_energies.entries), where
            assert (o.error_ratio, o.quality_ratio, o.worst_input) == (1.0, 1.0, 0), where
            assert o.cv_value == o.bf_value, where
            if mode == "monte_carlo":
                assert o.std_errors["bf"] == o.std_errors["cv"], where
        assert len(estimates) == (4 if mode == "monte_carlo" else 0), where
    # S_9's law is over the exact guard, but the blindfolded side never reads it
    s9 = GeneratedGroup(10, [[1, 0, *range(2, 10)], [*range(1, 9), 0, 9]])
    with pytest.raises(ResourceLimitError, match="exact guard"):
        average_pattern_probabilities(s9, uniform_allocation(10.0, 10))
    assert mobs(or_problem(10), group=s9, mode=mode, samples=300, rng=4).mobs == 1.0


def test_one_number_sorts_and_offset_ramps_take_the_ramp_route(monkeypatch):
    # their linear levels are 0 .. n - 1, the ramp's, and under the identity
    # decoder the offset f(0) cancels, so they price as be does, through
    # the ramp kernel (the law at one bit, or closed form), with no descent
    mobs_module = importlib.import_module("inexact.mobs")
    want = {(n, metric): mobs(binary_evaluation(n), metric=metric).to_json()["per_budget"]
            for n in (1, 3, 6) for metric in ("worst_correctness", "expected_magnitude")}
    monkeypatch.setattr(mobs_module, "coordinate_descent", _refusing("coordinate_descent"))
    for (n, metric), per_budget in want.items():
        for problem in (sorting_problem(1, n), custom_problem(np.arange(1 << n) + 5),
                        or_problem(1), tribes_problem(1, 1), unary_evaluation(1)):
            if problem.n == n:
                got = mobs(problem, metric=metric).to_json()["per_budget"]
                assert got == per_budget, (problem.name, n, metric)
    result = mobs(sorting_problem(1, 16), metric="expected_magnitude")
    assert result.csv_row() == "sorting1x16,16,24.399790562,exact"


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
