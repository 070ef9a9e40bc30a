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
from inexact.adversary import IdentityGroup
from inexact.noise import (
    EnergyVector,
    cmos_correctness_probability,
    energy_vector,
    flip_probability,
    pattern_probabilities,
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


def test_energy_vector_width_and_budget():
    ev = energy_vector([1.0, 3.0, 0.5])
    assert ev.n == 3
    assert ev.budget == pytest.approx(4.5, abs=0)


def test_zero_energy_read_is_a_certain_flip():
    # input 1010 read at no energy is observed as 0101 on every draw
    q = flip_probability(energy_vector([0.0, 0.0, 0.0, 0.0]))
    for seed in range(50):
        d = IdentityGroup(4).sample_patterns(q, 8, np.random.default_rng(seed))
        assert (0b1010 ^ d).tolist() == [0b0101] * 8


def test_huge_energy_read_is_clean():
    q = flip_probability(energy_vector([1000.0] * 5))
    d = IdentityGroup(5).sample_patterns(q, 10_000, np.random.default_rng(0))
    assert not d.any()


def test_observation_distribution_examples():
    # the observations of input 0 follow the pattern law itself
    d1 = pattern_probabilities(energy_vector([1.0]))
    assert np.allclose(d1, [0.5, 0.5], atol=0)

    d2 = pattern_probabilities(energy_vector([1.0, 1.0]))
    assert np.allclose(d2, [0.25] * 4, atol=0)

    d3 = pattern_probabilities(energy_vector([1.0, 2.0]))
    assert d3[0] == pytest.approx(0.375, abs=1e-15)
    assert abs(d3.sum() - 1.0) < 1e-12


@given(energies_strategy)
@settings(max_examples=80, deadline=None)
def test_distribution_marginals_factorize(entries):
    # the patterns that flip bit j carry its flip probability in total
    ev = energy_vector(entries)
    probs = pattern_probabilities(ev)
    idx = np.arange(1 << ev.n)
    for j in range(ev.n):
        flipped_mass = probs[((idx >> j) & 1) == 1].sum()
        assert flipped_mass == pytest.approx(flip_probability(float(ev.entries[j])),
                                             abs=1e-12)


@given(energies_strategy)
@settings(max_examples=60, deadline=None)
def test_pattern_probabilities_are_a_distribution(entries):
    probs = pattern_probabilities(energy_vector(entries))
    assert np.all(probs >= 0)
    assert abs(probs.sum() - 1.0) < 1e-12


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


def test_cmos_rejects_nan():
    # NaN fails every comparison, so the range checks must be phrased as
    # "is in range", not "is out of range"
    with pytest.raises(ValueError):
        cmos_correctness_probability(1.0, float("nan"))
    with pytest.raises(ValueError):
        cmos_correctness_probability(np.array([1.0, np.nan]), 1.0)


def test_observation_distribution_oracle_by_pattern():
    # independent recomputation of one cell: input 3 is observed as 5 when
    # flip pattern 3 XOR 5 occurs
    ev = energy_vector([0.7, 1.9, 2.2])
    q = flip_probability(ev)
    pattern = 3 ^ 5
    expected = 1.0
    for j in range(3):
        expected *= q[j] if (pattern >> j) & 1 else 1 - q[j]
    assert pattern_probabilities(ev)[pattern] == pytest.approx(expected, abs=1e-15)
