"""Acceptance battery: one test per shipping criterion, one scorecard line each.

Every test prints a single summary line straight to the terminal (capture
bypassed) so a plain pytest run ends with a readable scorecard.  Two targets
are contradicted by measurement; those tests print FAIL with the measured
values and are marked strict xfail so the suite stays green while the
disagreement stays visible.
"""

import math
import time

import numpy as np
import pytest
from scipy import integrate

from inexact import (
    FullSymmetricGroup,
    GeneratedGroup,
    IdentityGroup,
    amgm_bound,
    binary_evaluation,
    build_problem,
    cmos_correctness_probability,
    comparison_problem,
    comparison_wrong_probability,
    custom_problem,
    energy_vector,
    error_profile,
    identity_decoder,
    map_decoder,
    marginal_flip_probability,
    monte_carlo_error,
    per_input_error,
    sorting_allocation,
    table2_rows,
    truth_table,
    ue_variance,
    uniform_allocation,
    water_fill,
)
from inexact.allocators import coordinate_descent, grid_search
from inexact.cli import main

from conftest import brute_pair_wrong

REFERENCE_TABLES = {
    "or": [0, 1, 1, 1, 1, 1, 1, 1],
    "ue": [0, 1, 1, 2, 1, 2, 2, 3],
    "be": [0, 1, 2, 3, 4, 5, 6, 7],
}


def verdict(ok: bool) -> str:
    return "PASS" if ok else "FAIL"


def announce(capsys, text: str) -> None:
    # bypass capture so the scorecard survives piping pytest through tee
    with capsys.disabled():
        print(text, flush=True)


def test_criterion_1_reference_truth_tables(capsys):
    start = time.monotonic()
    for kind, expected in REFERENCE_TABLES.items():
        assert truth_table(build_problem(kind, 3)).outputs.tolist() == expected
        for i, want in enumerate(expected):
            bits = format(i, "03b")
            assert main(["eval", "--problem", kind, "--n", "3", "--bits", bits]) == 0
            assert capsys.readouterr().out.strip() == str(want)
    elapsed = time.monotonic() - start
    ok = elapsed < 1.0
    announce(capsys, f"acceptance 1 reference truth tables: {verdict(ok)} "
                     f"(24/24 cells, library and CLI agree, {elapsed:.2f}s)")
    assert ok


def test_criterion_2_blindfolding_floor(capsys):
    start = time.monotonic()
    rng = np.random.default_rng(20260814)
    checked = 0
    for n in range(2, 11):
        group = FullSymmetricGroup(n)
        batch = rng.random((1000, n)) * 5.0
        batch[::100] = batch[::100, :1]  # plant exactly-uniform rows
        for row in batch:
            vec = energy_vector(row)
            marginal = float(marginal_flip_probability(group, vec)[0])
            floor = amgm_bound(vec)
            assert marginal >= floor - 1e-12
            if np.ptp(row) == 0.0:
                assert abs(marginal - floor) <= 1e-12
            else:
                assert marginal - floor > 1e-12
            checked += 1
    elapsed = time.monotonic() - start
    ok = checked == 9000 and elapsed < 10.0
    announce(capsys, f"acceptance 2 blindfolded marginal floor: {verdict(ok)} "
                     f"({checked} vectors, n 2..10, equality only at uniform, "
                     f"{elapsed:.2f}s)")
    assert ok


@pytest.mark.xfail(strict=True, reason=(
    "read-count variance at a fixed budget is minimized at simplex corners, not "
    "at the uniform split (n=2, E=3: variance 0.109375 at (0,3) vs 0.457106 at "
    "(1.5,1.5)); coordinate descent walks off the uniform plateau the same way"))
def test_criterion_3_ue_uniform_optimality(capsys):
    start = time.monotonic()
    where = []
    all_uniform = True
    for n in (2, 3, 4):
        budget = n * (n + 1) / 2.0
        grid = grid_search(ue_variance, budget, n=n, resolution=0.05)
        walked = coordinate_descent(ue_variance, budget, n)
        grid_uniform = bool(np.all(np.abs(grid.energies.entries - budget / n) <= 0.05))
        walk_uniform = bool(np.all(np.abs(walked.energies.entries - budget / n) <= 0.05))
        all_uniform = all_uniform and grid_uniform and walk_uniform
        where.append(f"n={n} argmin {np.round(grid.energies.entries, 2).tolist()}")
    elapsed = time.monotonic() - start
    ok = all_uniform and elapsed < 60.0
    status = "PASS" if ok else "FAIL (expected: minimum sits at corners)"
    announce(capsys, f"acceptance 3 ue variance uniform optimality: {status} "
                     f"({'; '.join(where)}, {elapsed:.1f}s)")
    assert elapsed < 60.0
    assert all_uniform


def test_criterion_4_be_analytic_values(capsys):
    start = time.monotonic()
    for n in range(2, 13):
        problem = binary_evaluation(n)
        decoder = identity_decoder(problem)
        group = IdentityGroup(n)
        ramp = error_profile(problem, water_fill(np.arange(n), n * (n + 1) / 2), group,
                             decoder, "absolute").max()
        assert abs(ramp - n / 2.0) <= 1e-9
        flat = uniform_allocation(n * (n + 1) / 2.0, n)
        # row 0 has a clear top bit
        top_clear = per_input_error(problem, flat, group, decoder, 0,
                                    loss="absolute")
        assert top_clear >= 2.0 ** ((n - 3) / 2.0)
    elapsed = time.monotonic() - start
    ok = elapsed < 30.0
    announce(capsys, f"acceptance 4 be analytic values: {verdict(ok)} "
                     f"(ramp worst magnitude = n/2 and flat floor 2^((n-3)/2), "
                     f"n 2..12, {elapsed:.1f}s)")
    assert ok


@pytest.fixture(scope="module")
def desk_scale_rows():
    start = time.monotonic()
    rows = table2_rows(sizes=(4, 6, 8))
    return rows, time.monotonic() - start


def test_criterion_5_symmetry_price_bands(desk_scale_rows, capsys):
    rows, elapsed = desk_scale_rows
    price = {(row.kind, row.n): row.mobs for row in rows}
    for n in (4, 6, 8):
        assert 1.0 <= price[("or", n)] <= 1.001
        assert 1.0 <= price[("ue", n)] <= 1.001
    assert price[("be", 4)] < price[("be", 6)] < price[("be", 8)]
    ok = elapsed < 300.0
    announce(capsys, f"acceptance 5 symmetry price bands: {verdict(ok)} "
                     f"(or/ue in [1, 1.001]; be {price[('be', 4)]:.3f} -> "
                     f"{price[('be', 6)]:.3f} -> {price[('be', 8)]:.3f}, "
                     f"{elapsed:.1f}s)")
    assert ok


@pytest.mark.xfail(strict=True, reason=(
    "measured be growth is mobs(6)/mobs(4) = 1.5120 and mobs(8)/mobs(6) = "
    "1.4472; a 1.8 step ratio is not reached at these sizes"))
def test_criterion_5_be_growth_ratio(desk_scale_rows, capsys):
    rows, _ = desk_scale_rows
    be = {row.n: row.mobs for row in rows if row.kind == "be"}
    first, second = be[6] / be[4], be[8] / be[6]
    announce(capsys, f"acceptance 5 be growth ratio >= 1.8: FAIL (expected: "
                     f"measured {first:.4f} and {second:.4f})")
    assert first >= 1.8
    assert second >= 1.8


def test_criterion_6_comparison_bounds(capsys):
    start = time.monotonic()
    for k in range(2, 7):
        x, y = 1 << (k - 1), 0  # the expensive pair at width k
        budget = k * (k + 1) / 2.0
        flat = uniform_allocation(budget, 2 * k).entries
        ladder = sorting_allocation(2, k).entries
        p_flat = brute_pair_wrong(x, y, flat[:k], flat[k:])
        p_ladder = brute_pair_wrong(x, y, ladder[:k], ladder[k:])
        assert p_flat >= 2.0 ** (-(k + 1) / 2.0) - 1e-12
        assert p_ladder <= 2.0 * 2.0 ** (-k) + 1e-12
        ratio = p_flat / p_ladder
        target = 2.0 ** ((k - 1) / 2.0)
        assert target / 2.0 <= ratio <= target * 2.0
        # the closed form must agree with the enumeration it summarizes
        problem = comparison_problem(k)
        for entries, enumerated in ((flat, p_flat), (ladder, p_ladder)):
            closed = comparison_wrong_probability(problem, energy_vector(entries),
                                                  x, y)
            assert abs(closed - enumerated) <= 1e-12
    elapsed = time.monotonic() - start
    ok = elapsed < 120.0
    announce(capsys, f"acceptance 6 comparison pair bounds: {verdict(ok)} "
                     f"(k 2..6 enumerated, flat floor, ladder ceiling c=1, "
                     f"ratio on target, {elapsed:.2f}s)")
    assert ok


def test_criterion_7_supply_voltage_curve(capsys, tmp_path):
    start = time.monotonic()
    out = tmp_path / "curve.csv"
    assert main(["curve", "--sigma", "1.0", "--output", str(out)]) == 0
    capsys.readouterr()
    body = [line for line in out.read_text().splitlines()
            if line and not line.startswith("#")]
    assert body[0] == "vdd,sigma,p"
    points = [line.split(",") for line in body[1:]]
    vdd = [float(col[0]) for col in points]
    p = [float(col[2]) for col in points]
    assert len(p) == 101 and vdd[0] == 0.0 and vdd[-1] == 10.0
    assert p[0] == 0.5
    assert all(b > a for a, b in zip(p, p[1:]))

    # independent oracle: erfc(1) by adaptive quadrature of its own integral
    # (the integrand underflows long before u=40, so the cut tail is exactly 0)
    tail, quad_err = integrate.quad(
        lambda u: (2.0 / math.sqrt(math.pi)) * math.exp(-u * u), 1.0, 40.0,
        epsabs=1e-14, epsrel=1e-14)
    assert quad_err < 1e-13
    got = cmos_correctness_probability(2.0 * math.sqrt(2.0), 1.0)
    assert abs(got - (1.0 - 0.5 * tail)) <= 1e-10
    elapsed = time.monotonic() - start
    ok = elapsed < 1.0
    announce(capsys, f"acceptance 7 supply-voltage curve: {verdict(ok)} "
                     f"(p(0)=0.5 exact, strictly rising over [0, 10*sigma], "
                     f"quadrature match at 2*sqrt(2)*sigma, {elapsed:.2f}s)")
    assert ok


def test_criterion_8_monte_carlo_matches_exact(capsys):
    start = time.monotonic()
    rng = np.random.default_rng(2026)
    hits = 0
    worst = 0.0
    for _ in range(50):
        n = int(rng.integers(2, 9))
        kind = ["or", "ue", "be", "custom"][int(rng.integers(0, 4))]
        if kind == "custom":
            problem = custom_problem(rng.integers(0, 4, size=1 << n))
        else:
            problem = build_problem(kind, n)
        vec = energy_vector(0.2 + 2.8 * rng.random(n))
        pick = int(rng.integers(0, 3))
        if pick == 0:
            group = IdentityGroup(n)
        elif pick == 1:
            group = FullSymmetricGroup(n)
        else:
            group = GeneratedGroup(n, [tuple(np.roll(np.arange(n), 1))])
        strategy = ("identity", "map")[int(rng.integers(0, 2))]
        decoder = map_decoder(problem, vec, group) if strategy == "map" \
            else identity_decoder(problem)
        row = int(rng.integers(0, 1 << n))
        exact = per_input_error(problem, vec, group, decoder, row)
        estimate, stderr = monte_carlo_error(problem, vec, group, decoder, row,
                                             samples=1_000_000, rng=rng)
        if stderr == 0.0:
            # every draw read alike; the exact sum may round a few ulps off
            hit = abs(estimate - exact) <= 4 * np.spacing(max(abs(estimate), abs(exact)))
        else:
            gap = abs(estimate - exact) / stderr
            worst = max(worst, gap)
            hit = gap <= 4.0
        hits += hit
    elapsed = time.monotonic() - start
    ok = hits >= 48 and elapsed < 300.0
    announce(capsys, f"acceptance 8 exact vs monte carlo: {verdict(ok)} "
                     f"({hits}/50 within 4 standard errors at 1e6 samples, "
                     f"worst gap {worst:.2f} se, {elapsed:.0f}s)")
    assert ok


def test_criterion_9_reruns_are_byte_identical(capsys, tmp_path):
    start = time.monotonic()
    out = tmp_path / "artifact"
    configs = [
        ["eval", "--problem", "be", "--n", "3", "--bits", "101",
         "--format", "json"],
        ["curve", "--sigma", "0.8", "--steps", "11", "--format", "csv"],
        ["simulate", "--problem", "or", "--n", "3", "--energies", "1,2,0.5",
         "--group", "symmetric", "--mode", "monte_carlo", "--samples", "20000",
         "--seed", "7", "--format", "json"],
        ["simulate", "--problem", "ue", "--n", "3", "--allocation", "uniform",
         "--budget", "3", "--format", "csv"],
        ["allocate", "--problem", "ue", "--n", "2", "--budget", "1",
         "--method", "grid", "--resolution", "0.25", "--format", "json"],
        ["mobs", "--problem", "be", "--n", "12", "--mode", "monte_carlo",
         "--samples", "2000", "--seed", "3", "--budgets", "12,24",
         "--format", "json"],
        ["table2", "--sizes", "2", "--comparison-widths", "2",
         "--sorting-shapes", "2x1", "--format", "csv"],
    ]
    for argv in configs:
        full = argv + ["--output", str(out)]
        assert main(full) == 0
        first = out.read_bytes()
        assert main(full) == 0
        assert out.read_bytes() == first
        capsys.readouterr()
    elapsed = time.monotonic() - start
    announce(capsys, f"acceptance 9 seeded reruns byte-identical: PASS "
                     f"({len(configs)} configs x 2 runs each, {elapsed:.1f}s)")
