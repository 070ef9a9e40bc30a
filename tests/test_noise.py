import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad
from scipy.special import erfc

import inexact
from inexact.bits import bits_to_index
from inexact.noise import (
    EnergyVector,
    cmos_correctness_probability,
    energy_vector,
    equivalent_energy,
    flip_probability,
    observation_distribution,
    pattern_probabilities,
    sample_observation,
    sample_observations,
)

from conftest import brute_pattern_probabilities

energies_strategy = st.lists(
    st.floats(0.0, 8.0, allow_nan=False, allow_infinity=False), min_size=1, max_size=6)


def test_flip_probability_values():
    assert flip_probability(1.0) == 0.5
    assert flip_probability(0.0) == 1.0  # zero energy flips with certainty
    assert flip_probability(10.0) == 2.0 ** -10


def test_flip_probability_rejects_bad_energy():
    with pytest.raises(ValueError):
        flip_probability(-0.5)
    with pytest.raises(ValueError):
        flip_probability(float("nan"))
    with pytest.raises(ValueError):
        flip_probability([1.0, float("nan")])
    assert flip_probability(float("inf")) == 0.0
    with pytest.raises(ValueError):
        energy_vector([1.0, float("nan")])
    with pytest.raises(ValueError):
        energy_vector([1.0, float("inf")])
    with pytest.raises(ValueError):
        energy_vector([1.0, -2.0])


def test_flip_probability_is_strictly_decreasing():
    grid = np.linspace(0.0, 20.0, 200)
    p = flip_probability(grid)
    assert np.all(np.diff(p) < 0)


_BIG = np.finfo(np.float64).max


@pytest.mark.parametrize("entries, accepted", [
    ([], False),
    ([[1.0, 2.0]], False),
    (1.0, False),
    ([1.0, float("nan")], False),
    ([float("nan")], False),
    ([1.0, float("inf")], False),
    ([float("-inf"), 1.0], False),
    ([-0.0, 1.0], True),
    ([0.0], True),
    ([1.0, -2.0], False),
    ([-5e-324], False),
    ([_BIG, _BIG], True),   # finite, though their sum overflows
    ([1e300, 0.0, 3.5], True),
])
def test_energy_vector_validation_table(entries, accepted):
    if accepted:
        ev = EnergyVector(entries)
        assert np.array_equal(ev.entries, np.asarray(entries, dtype=np.float64))
        assert not ev.entries.flags.writeable
    else:
        with pytest.raises(ValueError):
            EnergyVector(entries)


def test_energy_vector_copies_its_input():
    raw = np.array([1.0, 2.0])
    ev = EnergyVector(raw)
    raw[0] = 9.0
    assert ev.entries.tolist() == [1.0, 2.0]


def _kernel_energies(n: int, rng) -> list:
    """Zero, tiny, very large (flip probability underflows to 0 or to a
    subnormal) and ordinary energies, alone and mixed."""
    cases = [np.zeros(n), np.full(n, 1e-300), np.full(n, 1e-9), np.full(n, 2000.0),
             np.full(n, 1074.5), rng.random(n) * 6.0]
    mixed = rng.choice([0.0, 1e-300, 1e-9, 0.3, 1.0, 7.5, 60.0, 1074.5, 2000.0], size=n)
    cases.append(mixed)
    return [energy_vector(e) for e in cases]


@pytest.mark.parametrize("n", range(1, 17))
def test_pattern_kernel_matches_doubling_recursion(n):
    # n = 1..16 covers both sides of the low-bit table boundary
    rng = np.random.default_rng(1000 + n)
    for ev in _kernel_energies(n, rng):
        assert np.array_equal(pattern_probabilities(ev), brute_pattern_probabilities(ev))


def test_energy_vector_budget_and_permutation():
    ev = energy_vector([1.0, 3.0, 0.5])
    assert ev.n == 3
    assert ev.budget == pytest.approx(4.5, abs=0)
    permuted = ev.permuted([2, 0, 1])  # bit j receives entry sigma[j]
    assert permuted.entries.tolist() == [0.5, 1.0, 3.0]
    with pytest.raises(ValueError):
        ev.permuted([0, 0, 1])


def test_zero_energy_read_is_a_certain_flip():
    ev = energy_vector([0.0, 0.0, 0.0, 0.0])
    bits = np.array([0, 1, 0, 1], dtype=np.uint8)
    for seed in range(50):
        out = sample_observation(bits, ev, seed)
        assert out.tolist() == [1, 0, 1, 0]


def test_huge_energy_read_is_clean():
    ev = energy_vector([1000.0] * 5)
    bits = np.array([1, 0, 1, 1, 0], dtype=np.uint8)
    for seed in range(10_000):
        assert np.array_equal(sample_observation(bits, ev, seed), bits)


def test_sampling_matches_a_coin_pair():
    # bits 00 at one unit each: observing 00 needs two correct reads
    ev = energy_vector([1.0, 1.0])
    rows = sample_observations([0, 0], ev, 1_000_000, rng=7)
    freq = np.mean((rows == 0).all(axis=1))
    assert abs(freq - 0.25) < 0.002


def test_sampling_is_seed_deterministic():
    ev = energy_vector([1.0, 2.0, 0.7])
    a = sample_observations([1, 0, 1], ev, 64, rng=123)
    b = sample_observations([1, 0, 1], ev, 64, rng=123)
    assert np.array_equal(a, b)


def test_observation_distribution_examples():
    d1 = observation_distribution([0], energy_vector([1.0]))
    assert np.allclose(d1, [0.5, 0.5], atol=0)

    d2 = observation_distribution([0, 0], energy_vector([1.0, 1.0]))
    assert np.allclose(d2, [0.25] * 4, atol=0)

    d3 = observation_distribution([0, 0], energy_vector([1.0, 2.0]))
    assert d3[0] == pytest.approx(0.375, abs=1e-15)
    assert abs(d3.sum() - 1.0) < 1e-12


@given(energies_strategy, st.data())
@settings(max_examples=80, deadline=None)
def test_distribution_marginals_factorize(entries, data):
    ev = energy_vector(entries)
    n = ev.n
    bits = np.array(data.draw(st.lists(st.integers(0, 1), min_size=n, max_size=n)),
                    dtype=np.uint8)
    dist = observation_distribution(bits, ev)
    idx = np.arange(1 << n)
    for j in range(n):
        flipped_mass = dist[((idx >> j) & 1) != bits[j]].sum()
        assert flipped_mass == pytest.approx(flip_probability(float(ev.entries[j])),
                                             abs=1e-12)


@given(energies_strategy)
@settings(max_examples=60, deadline=None)
def test_pattern_probabilities_are_a_distribution(entries):
    probs = pattern_probabilities(energy_vector(entries))
    assert np.all(probs >= 0)
    assert abs(probs.sum() - 1.0) < 1e-12


def test_empirical_frequencies_match_distribution():
    ev = energy_vector([0.8, 1.5, 2.5])
    bits = np.array([1, 0, 1], dtype=np.uint8)
    dist = observation_distribution(bits, ev)
    samples = 1_000_000
    rows = sample_observations(bits, ev, samples, rng=99)
    packed = rows @ (1 << np.arange(3))
    counts = np.bincount(packed, minlength=8)
    for o in range(8):
        se = np.sqrt(dist[o] * (1 - dist[o]) / samples)
        assert abs(counts[o] / samples - dist[o]) <= 4 * se + 1e-9


def _erfc_oracle(x: float) -> float:
    # finite upper limit keeps quad's error estimate honest; the integrand
    # underflows long before u=40, so the cut tail is exactly 0
    value, err = quad(lambda u: (2 / np.sqrt(np.pi)) * np.exp(-u * u), x, 40.0,
                      epsabs=1e-14, epsrel=1e-14)
    assert err < 1e-13
    return value


def test_cmos_curve_values():
    assert cmos_correctness_probability(0.0) == 0.5
    assert cmos_correctness_probability(100.0, 1.0) >= 1 - 1e-12
    sigma = 1.3
    vdd = 2 * np.sqrt(2) * sigma
    expected = 1 - 0.5 * _erfc_oracle(1.0)
    assert cmos_correctness_probability(vdd, sigma) == pytest.approx(expected, abs=1e-12)
    # a 0-d input gives a float, an array keeps its shape
    assert type(cmos_correctness_probability(np.float64(1.5))) is float
    assert type(cmos_correctness_probability(np.array(1.5))) is float
    square = cmos_correctness_probability(np.full((2, 3), 1.5))
    assert square.shape == (2, 3)
    assert np.all(square == cmos_correctness_probability(1.5))
    # math.erfc against scipy's on the curve command's default grid
    grid = np.linspace(0.0, 10.0, 101)
    reference = 1.0 - 0.5 * erfc(grid / (2.0 * np.sqrt(2.0)))
    assert np.max(np.abs(cmos_correctness_probability(grid) - reference)) <= 2.3e-16


def test_the_package_imports_without_scipy():
    # the test process has scipy loaded already, so look from a fresh one
    code = "import sys, inexact, inexact.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    env = {**os.environ, "PYTHONPATH": str(Path(inexact.__file__).parents[1])}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out == "[]\n"


def test_cmos_curve_is_strictly_increasing():
    grid = np.linspace(0.0, 10.0, 300)
    p = cmos_correctness_probability(grid, 1.0)
    assert np.all(np.diff(p) > 0)


def test_cmos_rejects_bad_sigma():
    with pytest.raises(ValueError):
        cmos_correctness_probability(1.0, 0.0)
    with pytest.raises(ValueError):
        cmos_correctness_probability(-1.0, 1.0)


def test_equivalent_energy_inverts_flip_probability():
    for e in (0.0, 0.5, 3.0, 12.0):
        assert equivalent_energy(1.0 - flip_probability(e)) == pytest.approx(e, abs=1e-9)


def test_cmos_and_equivalent_energy_reject_nan():
    # NaN fails every comparison, so the range checks must be phrased as
    # "is in range", not "is out of range"
    with pytest.raises(ValueError):
        cmos_correctness_probability(1.0, float("nan"))
    with pytest.raises(ValueError):
        cmos_correctness_probability(np.array([1.0, np.nan]), 1.0)
    with pytest.raises(ValueError):
        equivalent_energy(float("nan"))
    with pytest.raises(ValueError):
        equivalent_energy(np.array([0.5, np.nan]))


def test_observation_distribution_oracle_by_pattern():
    # independent recomputation of one cell: P(observe 5 | input 3)
    ev = energy_vector([0.7, 1.9, 2.2])
    bits = np.array([1, 1, 0], dtype=np.uint8)
    q = flip_probability(ev)
    pattern = bits_to_index(bits) ^ 5
    expected = 1.0
    for j in range(3):
        expected *= q[j] if (pattern >> j) & 1 else 1 - q[j]
    dist = observation_distribution(bits, ev)
    assert dist[5] == pytest.approx(expected, abs=1e-15)
