import itertools

import numpy as np
import pytest
from scipy.stats import chi2
from hypothesis import given, settings, strategies as st

import inexact.adversary as adversary
from inexact.adversary import (
    FullSymmetricGroup,
    GeneratedGroup,
    IdentityGroup,
    amgm_bound,
    average_pattern_probabilities,
    build_group,
    marginal_flip_probability,
    sample_energy_assignments,
)
from inexact.bits import ResourceLimitError
from inexact.noise import energy_vector, flip_probability, pattern_probabilities

from conftest import brute_pattern_probabilities, brute_pattern_probability


def test_identity_group_basics():
    g = IdentityGroup(5)
    assert g.order() == 1
    assert g.elements().tolist() == [[0, 1, 2, 3, 4]]
    assert np.array_equal(g.sample(3, rng=1),
                          np.tile(np.arange(5), (3, 1)))


def test_symmetric_group_enumeration():
    g = FullSymmetricGroup(3)
    elements = g.elements()
    assert len(elements) == 6
    assert len({tuple(e) for e in elements}) == 6
    with pytest.raises(ResourceLimitError):
        FullSymmetricGroup(10).elements()
    # enumerated once per group, in itertools order, and shared read-only
    g = FullSymmetricGroup(5)
    first = g.elements()
    assert g.elements() is first and not first.flags.writeable
    assert first.tolist() == [list(p) for p in itertools.permutations(range(5))]
    with pytest.raises(ValueError):
        first[0, 0] = 1


def test_symmetric_sampling_is_uniform():
    g = FullSymmetricGroup(3)
    draws = g.sample(600_000, rng=5)
    keys = draws @ np.array([9, 3, 1])
    _, counts = np.unique(keys, return_counts=True)
    assert len(counts) == 6
    assert np.all(np.abs(counts / 600_000 - 1 / 6) < 0.003)


def test_generated_cycle_group():
    g = GeneratedGroup(3, [(1, 2, 0)])
    assert g.order() == 3
    rotations = {tuple(e) for e in g.elements()}
    assert rotations == {(0, 1, 2), (1, 2, 0), (2, 0, 1)}
    draws = g.sample(90_000, rng=11)
    keys = draws @ np.array([9, 3, 1])
    _, counts = np.unique(keys, return_counts=True)
    assert len(counts) == 3
    assert np.all(np.abs(counts / 90_000 - 1 / 3) < 0.01)


def test_generated_transposition_group():
    g = GeneratedGroup(2, [(1, 0)])
    assert g.order() == 2
    assert GeneratedGroup(2, [np.array([1, 0])]).order() == 2  # numpy ints are integers


@pytest.mark.parametrize("generator", [(1.7, 0.2), (1.0, 0.0), ("1", "0"), (1, 0.5)])
def test_generated_group_refuses_non_integral_entries(generator):
    # an entry must be an integer, not something int() would truncate to one
    with pytest.raises(TypeError):
        GeneratedGroup(2, [generator])


def test_generated_group_closure_properties():
    for g in (GeneratedGroup(4, [(1, 2, 3, 0)]),
              GeneratedGroup(4, [(1, 0, 2, 3), (0, 1, 3, 2)]),
              GeneratedGroup(3, [(1, 2, 0), (1, 0, 2)])):
        elements = {tuple(e) for e in g.elements()}
        assert tuple(range(g.n)) in elements
        for a in elements:
            inverse = tuple(np.argsort(a))
            assert inverse in elements
            for b in elements:
                composed = tuple(a[b[j]] for j in range(g.n))
                assert composed in elements


def test_generated_group_order_guard(monkeypatch):
    monkeypatch.setattr(adversary, "GENERATED_ORDER_LIMIT", 10)
    with pytest.raises(ResourceLimitError):
        GeneratedGroup(4, [(1, 2, 3, 0), (1, 0, 2, 3)])  # all of S_4, order 24


def test_build_group_dispatch():
    assert isinstance(build_group("identity", 3), IdentityGroup)
    assert isinstance(build_group("symmetric", 3), FullSymmetricGroup)
    assert build_group("generated", 3, [(1, 2, 0)]).order() == 3
    with pytest.raises(ValueError):
        build_group("generated", 3)
    with pytest.raises(ValueError):
        build_group("dihedral", 3)


def test_marginal_flip_probability_examples():
    ev = energy_vector([1.0, 3.0])
    m = marginal_flip_probability(FullSymmetricGroup(2), ev)
    assert np.allclose(m, [0.3125, 0.3125], atol=0)

    uniform = energy_vector([2.0, 2.0, 2.0])
    for g in (IdentityGroup(3), FullSymmetricGroup(3), GeneratedGroup(3, [(1, 2, 0)])):
        assert np.allclose(marginal_flip_probability(g, uniform), 0.25, atol=0)

    assert marginal_flip_probability(IdentityGroup(2), ev)[0] == 0.5


def test_amgm_bound_examples():
    assert amgm_bound(energy_vector([1.0, 1.0])) == 0.5
    assert amgm_bound(energy_vector([0.0, 0.0])) == 1.0
    assert amgm_bound(energy_vector([3.0] * 5)) == 0.125  # budget n(n+1)/2 at n=5


def test_blindfolding_floor_battery():
    rng = np.random.default_rng(42)
    for n in range(2, 11):
        g = FullSymmetricGroup(n)
        for _ in range(100):
            ev = energy_vector(rng.random(n) * 4.0)
            marginal = marginal_flip_probability(g, ev)[0]
            assert marginal >= amgm_bound(ev) - 1e-12
        uniform = energy_vector(np.full(n, 1.7))
        assert marginal_flip_probability(g, uniform)[0] == pytest.approx(
            amgm_bound(uniform), abs=1e-12)
        lopsided = energy_vector(np.full(n, 1.7) + np.eye(n)[0] * 0.5)
        assert marginal_flip_probability(g, lopsided)[0] > amgm_bound(lopsided) + 1e-12


@given(st.integers(2, 6), st.data())
@settings(max_examples=40, deadline=None)
def test_symmetric_marginal_is_position_independent(n, data):
    entries = data.draw(st.lists(st.floats(0, 6, allow_nan=False),
                                 min_size=n, max_size=n))
    m = marginal_flip_probability(FullSymmetricGroup(n), energy_vector(entries))
    assert np.ptp(m) == 0.0
    assert m[0] == pytest.approx(float(np.mean(flip_probability(np.array(entries)))),
                                 abs=1e-15)


def test_marginal_of_generated_group_averages_orbit():
    ev = energy_vector([1.0, 2.0, 4.0])
    g = GeneratedGroup(3, [(1, 2, 0)])
    expected = np.mean([flip_probability(ev.entries[np.array(s)]) for s in g.elements()],
                       axis=0)
    assert np.allclose(marginal_flip_probability(g, ev), expected, atol=1e-15)


def test_identity_average_patterns_reduce_to_the_channel():
    ev = energy_vector([0.3, 1.1, 2.6])
    avg = average_pattern_probabilities(IdentityGroup(3), ev)
    assert np.allclose(avg, pattern_probabilities(ev), atol=0)
    for d in range(8):
        assert avg[d] == pytest.approx(brute_pattern_probability(ev.entries, d),
                                       abs=1e-15)


@given(st.integers(2, 6), st.data())
@settings(max_examples=30, deadline=None)
def test_symmetric_average_patterns_match_enumeration(n, data):
    entries = data.draw(st.lists(st.floats(0, 5, allow_nan=False),
                                 min_size=n, max_size=n))
    ev = energy_vector(entries)
    g = FullSymmetricGroup(n)
    closed = average_pattern_probabilities(g, ev)
    brute = np.zeros(1 << n)
    for sigma in g.elements():
        for d in range(1 << n):
            brute[d] += brute_pattern_probability(ev.entries[np.asarray(sigma)], d)
    brute /= g.order()
    assert np.allclose(closed, brute, atol=1e-13)
    assert abs(closed.sum() - 1.0) < 1e-12


def test_generated_average_patterns_match_enumeration():
    ev = energy_vector([0.5, 1.5, 3.0])
    g = GeneratedGroup(3, [(1, 2, 0)])
    avg = average_pattern_probabilities(g, ev)
    brute = np.zeros(8)
    for sigma in g.elements():
        for d in range(8):
            brute[d] += brute_pattern_probability(ev.entries[np.asarray(sigma)], d)
    brute /= 3
    assert np.allclose(avg, brute, atol=1e-15)


def _cycle(n: int) -> tuple:
    return tuple((j + 1) % n for j in range(n))


def _swap(n: int, a: int, b: int) -> tuple:
    perm = list(range(n))
    perm[a], perm[b] = b, a
    return tuple(perm)


@pytest.mark.parametrize("n, generators", [
    (3, [_cycle(3)]),
    (5, [_swap(5, 0, 4)]),
    (4, [_swap(4, 0, 1), _cycle(4)]),       # all of S_4, 24 elements
    (9, [_cycle(9)]),                       # past the 8-bit table
    (12, [_swap(12, 2, 11), _swap(12, 0, 5)]),
    (16, [_cycle(16)]),                     # 16 elements, several batches
])
def test_generated_average_is_the_per_element_loop(n, generators):
    # batched rows of q[elements], summed in element order, bit for bit
    g = GeneratedGroup(n, generators)
    rng = np.random.default_rng(n)
    entries = rng.random(n) * 4.0
    entries[rng.integers(n)] = 0.0
    ev = energy_vector(entries)
    total = np.zeros(1 << n)
    for sigma in g.elements():
        total += brute_pattern_probabilities(ev.permuted(sigma))
    assert np.array_equal(average_pattern_probabilities(g, ev), total / g.order())


def test_uniform_vector_is_group_invariant():
    ev = energy_vector([1.5] * 4)
    reference = average_pattern_probabilities(IdentityGroup(4), ev)
    for g in (FullSymmetricGroup(4), GeneratedGroup(4, [(1, 2, 3, 0)])):
        assert np.allclose(average_pattern_probabilities(g, ev), reference, atol=1e-14)


def test_sample_energy_assignments():
    ev = energy_vector([1.0, 2.0, 4.0])
    rows = sample_energy_assignments(FullSymmetricGroup(3), ev, 2000, rng=3)
    assert rows.shape == (2000, 3)
    assert np.allclose(np.sort(rows, axis=1), np.array([1.0, 2.0, 4.0]))
    again = sample_energy_assignments(FullSymmetricGroup(3), ev, 2000, rng=3)
    assert np.array_equal(rows, again)
    with pytest.raises(ValueError):
        sample_energy_assignments(FullSymmetricGroup(4), ev, 5, rng=0)


def test_symmetric_flip_patterns_follow_the_exact_law():
    # e = 0 flips its bit always, so pattern 0 has probability 0 and 31
    # cells remain; seeded, so the statistic is fixed
    ev = energy_vector([0.0, 0.4, 1.3, 2.0, 3.7])
    g = FullSymmetricGroup(5)
    draws = 400_000
    expected = average_pattern_probabilities(g, ev) * draws
    patterns = g.sample_patterns(flip_probability(ev), draws, np.random.default_rng(21))
    observed = np.bincount(patterns, minlength=32)
    assert observed.size == 32 and observed.sum() == draws
    live = expected > 0
    assert live.sum() == 31 and observed[~live].sum() == 0
    stat = (((observed - expected) ** 2)[live] / expected[live]).sum()
    assert chi2.sf(stat, live.sum() - 1) > 1e-3


@pytest.mark.parametrize("entries", [
    [0.0, 1.0, 0.0, 2.0, 0.5],        # q = 1: counts 0 and 1 have weight 0
    [1100.0, 1.0, 0.0, 1100.0, 0.5],  # q = 0 twice: counts 4 and 5 too
])
def test_symmetric_sampler_never_draws_impossible_patterns(entries):
    ev = energy_vector(entries)
    g = FullSymmetricGroup(5)
    possible = average_pattern_probabilities(g, ev) > 0
    assert not possible.all()
    patterns = g.sample_patterns(flip_probability(ev), 200_000, np.random.default_rng(4))
    assert possible[patterns].all()


def test_dimension_mismatch_is_rejected():
    with pytest.raises(ValueError):
        marginal_flip_probability(FullSymmetricGroup(3), energy_vector([1.0, 2.0]))
    with pytest.raises(ValueError):
        average_pattern_probabilities(IdentityGroup(3), energy_vector([1.0]))
