import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import inexact.decoders as decoders

from inexact.adversary import FullSymmetricGroup, GeneratedGroup, IdentityGroup
from inexact.allocators import staircase_allocation
from inexact.bits import ResourceLimitError, parse_bits
from inexact.decoders import (
    Decoder,
    ErrorAnalysis,
    build_decoder,
    error_profile,
    error_report,
    expected_error,
    identity_decoder,
    map_decoder,
    monte_carlo_error,
    per_input_error,
    setting_name,
    uniform_prior,
    worst_case_quality,
    worst_input_error,
)
from inexact.noise import energy_vector
from inexact.problems import (
    binary_evaluation,
    comparison_problem,
    custom_problem,
    or_problem,
    tribes_problem,
    truth_table,
    unary_evaluation,
)

from conftest import brute_error, brute_map_decode


def test_identity_decoder_reads_bits_literally():
    assert identity_decoder(or_problem(3)).decode(parse_bits("010")) == 1
    assert identity_decoder(binary_evaluation(3)).decode(parse_bits("101")) == 5
    assert identity_decoder(unary_evaluation(3)).decode(parse_bits("000")) == 0
    dec = identity_decoder(or_problem(4))
    assert dec.n == 4
    assert dec.name == "identity"


def test_decoder_map_must_cover_all_rows():
    with pytest.raises(ValueError):
        Decoder("broken", np.array([0, 1, 1]))
    with pytest.raises(ValueError):
        Decoder("broken", np.array([], dtype=np.int64))


def test_map_decoder_trusts_clean_reads():
    be = binary_evaluation(3)
    clean = map_decoder(be, energy_vector([50.0, 50.0, 50.0]))
    assert np.array_equal(clean.decode_map, identity_decoder(be).decode_map)


def test_map_decoder_inverts_certain_flips():
    # e=0 on every bit reads the exact complement, so the best guess for
    # observation o is f(~o)
    table = truth_table(or_problem(2))
    dec = map_decoder(table, energy_vector([0.0, 0.0]))
    assert dec.decode(parse_bits("11")) == 0
    expected = table.outputs[np.arange(4) ^ 3]
    assert np.array_equal(dec.decode_map, expected)


def test_map_decoder_with_uninformative_channel_plays_the_prior_mode():
    # e=1 per bit means q=1/2: observations carry nothing, so a skewed
    # prior wins every row
    prior = np.array([0.97, 0.01, 0.01, 0.01])
    dec = map_decoder(or_problem(2), energy_vector([1.0, 1.0]), prior=prior)
    assert np.array_equal(dec.decode_map, np.zeros(4, dtype=np.int64))


def test_prior_validation():
    ev = energy_vector([1.0, 1.0])
    with pytest.raises(ValueError):
        map_decoder(or_problem(2), ev, prior=np.array([0.5, 0.5, 0.25, -0.25]))
    with pytest.raises(ValueError):
        map_decoder(or_problem(2), ev, prior=np.array([0.5, 0.5]))
    with pytest.raises(ValueError):
        map_decoder(or_problem(2), ev, prior=np.full(4, 0.3))
    assert uniform_prior(2).sum() == 1.0


def test_map_decoder_matches_brute_posterior():
    rng = np.random.default_rng(77)
    for n in (2, 3):
        table = truth_table(binary_evaluation(n))
        or_table = truth_table(or_problem(n))
        for _ in range(12):
            ev = energy_vector(rng.random(n) * 3.0)
            for group in (IdentityGroup(n), FullSymmetricGroup(n)):
                for tab in (table, or_table):
                    dec = map_decoder(tab, ev, group)
                    for o in range(1 << n):
                        best, margin = brute_map_decode(tab, ev, group, o)
                        if margin < 1e-12:
                            continue  # float near-tie, either pick defensible
                        assert dec.decode_map[o] == best


def test_map_decoder_guard():
    with pytest.raises(ResourceLimitError):
        map_decoder(or_problem(15), energy_vector(np.ones(15)))


def test_build_decoder_dispatch():
    p = or_problem(2)
    assert build_decoder("identity", p).name == "identity"
    assert build_decoder("map", p, energy_vector([1.0, 1.0])).name == "map"
    with pytest.raises(ValueError):
        build_decoder("map", p)
    with pytest.raises(ValueError):
        build_decoder("majority", p)


def test_or2_error_profile_by_hand():
    p = or_problem(2)
    ev = energy_vector([1.0, 1.0])
    g = IdentityGroup(2)
    dec = identity_decoder(p)
    profile = error_profile(p, ev, g, dec)
    assert np.allclose(profile, [0.75, 0.25, 0.25, 0.25], atol=1e-15)
    assert per_input_error(p, ev, g, dec, 0) == pytest.approx(0.75, abs=1e-15)
    assert per_input_error(p, ev, g, dec, 1) == pytest.approx(0.25, abs=1e-15)
    assert worst_input_error(p, ev, g, dec) == pytest.approx(0.75, abs=1e-15)
    assert expected_error(p, ev, g, dec) == pytest.approx(0.375, abs=1e-15)
    assert expected_error(p, ev, g, dec, prior=np.array([0.0, 0.0, 0.0, 1.0])) == \
        pytest.approx(0.25, abs=1e-15)


def _every_kind():
    outputs = np.random.default_rng(31).integers(0, 5, size=1 << 5)
    return [or_problem(6), unary_evaluation(5), binary_evaluation(6),
            tribes_problem(6, 2), comparison_problem(2), custom_problem(outputs)]


def _groups(n):
    return (IdentityGroup(n), FullSymmetricGroup(n),
            GeneratedGroup(n, [tuple(range(1, n)) + (0,)]))


def _brute_cases():
    """(problem, group) pairs: or and be at n <= 4, then every kind at
    n = 5, 6 under the identity, full symmetric and a cyclic group."""
    cases = []
    for n, group in ((2, IdentityGroup(2)),
                     (3, FullSymmetricGroup(3)),
                     (3, GeneratedGroup(3, [(1, 2, 0)])),
                     (4, FullSymmetricGroup(4))):
        cases += [(or_problem(n), group), (binary_evaluation(n), group)]
    for problem in _every_kind():
        cases += [(problem, group) for group in _groups(problem.n)]
    return cases


def test_error_profile_matches_brute_definition():
    rng = np.random.default_rng(19)
    for problem, group in _brute_cases():
        n = problem.n
        table = truth_table(problem)
        ev = energy_vector(rng.random(n) * 4.0)
        # the brute sum over the full group costs n! * 4**n; probe the
        # extreme rows there, every row elsewhere
        rows = [0, (1 << n) - 1] if len(group.elements()) > 120 else range(1 << n)
        # at n = 5, 6 each sum adds up to 720 * 64 terms as large as 63, and
        # the brute and vectorized sums round apart by up to 2e-12
        tol = 1e-12 if n <= 4 else 1e-11
        for dec in (identity_decoder(table), map_decoder(table, ev, group)):
            for loss in ("exact", "absolute"):
                profile = error_profile(table, ev, group, dec, loss)
                for i in rows:
                    want = brute_error(table, ev, group, dec, i, loss)
                    assert profile[i] == pytest.approx(want, abs=tol), \
                        (problem.name, group.kind, dec.name, loss, i)


def test_error_analysis_reuse_matches_a_fresh_error_profile():
    # one analysis scores many energy vectors and groups; each profile must
    # equal a fresh error_profile bit for bit
    rng = np.random.default_rng(41)
    for problem in _every_kind():
        table = truth_table(problem)
        dec = identity_decoder(table)
        for loss in ("exact", "absolute"):
            analysis = ErrorAnalysis(table, dec, loss)
            for group in _groups(problem.n):
                ev = energy_vector(rng.random(problem.n) * 4.0)
                assert np.array_equal(analysis.profile(ev, group),
                                      error_profile(table, ev, group, dec, loss))


def test_error_analysis_row_blocks_match_the_whole_matrix(monkeypatch):
    problem = binary_evaluation(4)
    dec = identity_decoder(problem)
    ev = energy_vector([0.5, 1.0, 2.0, 3.0])
    group = FullSymmetricGroup(4)
    whole = ErrorAnalysis(problem, dec, "absolute")
    want = whole.profile(ev, group)
    assert whole._matrix is not None
    monkeypatch.setattr(decoders, "_CHUNK_ENTRIES", 48)  # three rows per block
    blocked = ErrorAnalysis(problem, dec, "absolute")
    got = blocked.profile(ev, group)
    assert blocked._matrix is None
    assert np.allclose(got, want, rtol=0, atol=1e-15)


def test_expected_magnitude_examples():
    # staircase play makes every flipped bit j cost 2**j with chance
    # 2**-(j+1); the all-zeros input has no cancellation, totalling n/2
    for n in (2, 5, 8):
        be = binary_evaluation(n)
        ev = staircase_allocation(n)
        dec = identity_decoder(be)
        worst = worst_input_error(be, ev, IdentityGroup(n), dec, "absolute")
        assert worst == pytest.approx(n / 2, abs=1e-9)

    be2 = binary_evaluation(2)
    quiet = worst_input_error(be2, energy_vector([60.0, 60.0]), IdentityGroup(2),
                              identity_decoder(be2), "absolute")
    assert quiet < 1e-12

    be3 = binary_evaluation(3)
    flat = per_input_error(be3, energy_vector([1.0, 1.0, 1.0]), IdentityGroup(3),
                           identity_decoder(be3), 0, "absolute")
    assert flat == pytest.approx(3.5, abs=1e-15)


def test_worst_case_quality():
    p = or_problem(2)
    ev = energy_vector([1.0, 1.0])
    assert worst_case_quality(p, ev, IdentityGroup(2), identity_decoder(p)) == \
        pytest.approx(1 / 0.75, abs=1e-12)

    constant = custom_problem(np.full(4, 7), name="always7")
    assert worst_case_quality(constant, ev, IdentityGroup(2),
                              identity_decoder(constant)) == float("inf")

    dead = energy_vector([0.0, 0.0])
    profile = error_profile(p, dead, IdentityGroup(2), identity_decoder(p))
    assert profile[3] == 1.0  # input 11 always reads 00 and answers 0
    assert worst_case_quality(p, dead, IdentityGroup(2), identity_decoder(p)) == 1.0


def test_map_decoding_is_bayes_optimal():
    rng = np.random.default_rng(5)
    for _ in range(15):
        n = int(rng.integers(2, 5))
        outputs = rng.integers(0, 4, size=1 << n)
        table = truth_table(custom_problem(outputs))
        ev = energy_vector(rng.random(n) * 3.0)
        prior = rng.random(1 << n)
        prior /= prior.sum()
        group = FullSymmetricGroup(n) if rng.random() < 0.5 else IdentityGroup(n)
        best = expected_error(table, ev, group, map_decoder(table, ev, group, prior),
                              prior=prior)
        rivals = [identity_decoder(table)]
        rivals += [Decoder("rand", rng.integers(0, 4, size=1 << n)) for _ in range(5)]
        for rival in rivals:
            other = expected_error(table, ev, group, rival, prior=prior)
            assert best <= other + 1e-12


@pytest.mark.xfail(strict=True, reason="raising one bit's energy can raise another "
                   "input's error: OR(2) input 10 goes from 0.25 at e=(1,1) to "
                   "0.484375 at e=(5,1)")
def test_per_input_error_never_rises_with_energy():
    p = or_problem(2)
    dec = identity_decoder(p)
    g = IdentityGroup(2)
    low = per_input_error(p, energy_vector([1.0, 1.0]), g, dec, 2)
    high = per_input_error(p, energy_vector([5.0, 1.0]), g, dec, 2)
    assert high <= low + 1e-12


def test_or_worst_error_is_monotone_in_energy():
    # the per-input claim fails, but the worst input of OR is always the
    # all-zeros row (1 - prod(1-q)), and that does fall as energy rises
    rng = np.random.default_rng(23)
    p = or_problem(3)
    dec = identity_decoder(p)
    g = IdentityGroup(3)
    for _ in range(30):
        e = rng.random(3) * 4.0
        bump = np.zeros(3)
        bump[rng.integers(0, 3)] = rng.random() * 2.0
        low = worst_input_error(p, energy_vector(e), g, dec)
        high = worst_input_error(p, energy_vector(e + bump), g, dec)
        assert high <= low + 1e-12
        q = np.exp2(-e)
        assert low == pytest.approx(1.0 - np.prod(1.0 - q), abs=1e-12)


def test_uniform_energies_erase_the_group():
    p = or_problem(4)
    ev = energy_vector([1.5] * 4)
    dec = identity_decoder(p)
    base = error_profile(p, ev, IdentityGroup(4), dec)
    for g in (FullSymmetricGroup(4), GeneratedGroup(4, [(1, 2, 3, 0)])):
        assert np.allclose(error_profile(p, ev, g, dec), base, atol=1e-14)


def test_error_profile_guard_and_shape_checks():
    big = or_problem(15)
    with pytest.raises(ResourceLimitError):
        error_profile(big, energy_vector(np.ones(15)), IdentityGroup(15),
                      identity_decoder(big))
    with pytest.raises(ValueError):
        error_profile(or_problem(3), energy_vector([1.0] * 3), IdentityGroup(3),
                      identity_decoder(or_problem(2)))
    with pytest.raises(TypeError):
        error_profile("or", energy_vector([1.0]), IdentityGroup(1), None)


def test_monte_carlo_matches_exact():
    p = or_problem(3)
    ev = energy_vector([1.0, 1.5, 0.7])
    g = FullSymmetricGroup(3)
    dec = identity_decoder(p)
    exact = per_input_error(p, ev, g, dec, 0)
    est, se = monte_carlo_error(p, ev, g, dec, 0, samples=200_000, rng=123)
    assert se > 0
    assert abs(est - exact) <= 4 * se

    be = binary_evaluation(3)
    exact_abs = per_input_error(be, ev, g, identity_decoder(be), 5, "absolute")
    est_abs, se_abs = monte_carlo_error(be, ev, g, identity_decoder(be), 5,
                                        "absolute", samples=200_000, rng=9)
    assert abs(est_abs - exact_abs) <= 4 * se_abs


def test_monte_carlo_determinism_and_validation():
    p = or_problem(2)
    ev = energy_vector([1.0, 2.0])
    g = IdentityGroup(2)
    dec = identity_decoder(p)
    a = monte_carlo_error(p, ev, g, dec, 1, samples=5_000, rng=42)
    b = monte_carlo_error(p, ev, g, dec, 1, samples=5_000, rng=42)
    assert a == b
    c = monte_carlo_error(p, ev, g, dec, 1, samples=5_000, rng=43)
    assert a != c
    with pytest.raises(ValueError):
        monte_carlo_error(p, ev, g, dec, 1, samples=0)
    with pytest.raises(ValueError):
        monte_carlo_error(p, ev, g, dec, 1, loss="squared", samples=10)


def test_unknown_loss_is_rejected_before_any_work(monkeypatch):
    p = or_problem(3)
    ev = energy_vector([1.0, 2.0, 0.5])
    g = FullSymmetricGroup(3)
    dec = identity_decoder(p)

    def no_work(*args, **kwargs):
        raise AssertionError("work started before the loss name was checked")

    monkeypatch.setattr(decoders, "average_pattern_probabilities", no_work)
    monkeypatch.setattr(decoders, "sample_energy_assignments", no_work)
    with pytest.raises(ValueError, match="unknown loss"):
        error_profile(p, ev, g, dec, "squared")
    with pytest.raises(ValueError, match="unknown loss"):
        per_input_error(p, ev, g, dec, 0, "squared")
    rng = np.random.default_rng(8)
    state = rng.bit_generator.state
    with pytest.raises(ValueError, match="unknown loss"):
        monte_carlo_error(p, ev, g, dec, 0, "squared", samples=10, rng=rng)
    assert rng.bit_generator.state == state


def test_row_index_is_checked_before_any_work(monkeypatch):
    p = binary_evaluation(3)
    ev = energy_vector([1.0, 2.0, 3.0])
    g = IdentityGroup(3)
    dec = identity_decoder(p)

    def no_work(*args, **kwargs):
        raise AssertionError("work started before the row index was checked")

    monkeypatch.setattr(decoders, "average_pattern_probabilities", no_work)
    monkeypatch.setattr(decoders, "sample_energy_assignments", no_work)
    rng = np.random.default_rng(8)
    state = rng.bit_generator.state
    for i in (-1, -8, 8, 1 << 40):
        with pytest.raises(ValueError, match="out of range"):
            per_input_error(p, ev, g, dec, i)
        with pytest.raises(ValueError, match="out of range"):
            monte_carlo_error(p, ev, g, dec, i, samples=10, rng=rng)
    assert rng.bit_generator.state == state


def test_error_report_shapes():
    p = or_problem(2)
    ev = energy_vector([1.0, 1.0])
    dec = identity_decoder(p)

    exact = error_report(p, ev, IdentityGroup(2), dec)
    assert exact.setting == "clairvoyant"
    assert exact.mode == "exact"
    assert exact.std_err is None
    assert exact.worst() == pytest.approx(0.75, abs=1e-15)
    body = exact.to_json()
    assert body["per_input"][0] == {"row": 0, "p_err": 0.75}
    assert "samples" not in body

    sampled = error_report(p, ev, FullSymmetricGroup(2), dec, mode="monte_carlo",
                           samples=2_000, rng=1)
    assert sampled.setting == "blindfolded:symmetric"
    assert sampled.std_err is not None and sampled.samples == 2_000
    assert "std_err" in sampled.to_json()["per_input"][0]

    with pytest.raises(ValueError):
        error_report(p, ev, IdentityGroup(2), dec, mode="guess")
    assert setting_name(GeneratedGroup(2, [(1, 0)])) == "blindfolded:generated"


def test_full_monte_carlo_report_work_guard(monkeypatch):
    monkeypatch.setattr(decoders, "MC_REPORT_WORK_LIMIT", 1000)
    p = or_problem(3)
    ev = energy_vector([1.0, 1.0, 1.0])
    g = IdentityGroup(3)
    dec = identity_decoder(p)
    # 8 rows x 200 samples = 1600 decodes, over the shrunken cap
    with pytest.raises(ResourceLimitError):
        error_report(p, ev, g, dec, mode="monte_carlo", samples=200, rng=0)
    # 8 rows x 100 samples fits under it and runs
    report = error_report(p, ev, g, dec, mode="monte_carlo", samples=100, rng=0)
    assert report.samples == 100


@given(st.integers(2, 4), st.data())
@settings(max_examples=25, deadline=None)
def test_profile_rows_are_probabilities(n, data):
    entries = data.draw(st.lists(st.floats(0, 8, allow_nan=False),
                                 min_size=n, max_size=n))
    p = or_problem(n)
    profile = error_profile(p, energy_vector(entries), FullSymmetricGroup(n),
                            identity_decoder(p))
    assert np.all(profile >= -1e-15)
    assert np.all(profile <= 1 + 1e-15)
