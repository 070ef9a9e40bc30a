import hashlib
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import inexact.adversary as adversary
import inexact.decoders as decoders

from inexact.adversary import FullSymmetricGroup, GeneratedGroup, IdentityGroup
from inexact.allocators import water_fill
from inexact.bits import ResourceLimitError, bits_to_index, parse_bits
from inexact.decoders import (
    Decoder,
    ErrorAnalysis,
    error_profile,
    error_report,
    identity_decoder,
    map_decoder,
    monte_carlo_error,
    per_input_error,
    ramp_profile,
)
from inexact.noise import energy_vector, flip_probability
from inexact.problems import (
    TruthTable,
    binary_evaluation,
    comparison_problem,
    custom_problem,
    or_problem,
    sorting_problem,
    tribes_problem,
    truth_table,
    unary_evaluation,
)

from conftest import brute_error, brute_map_scores, brute_monte_carlo_error


def test_identity_decoder_reads_bits_literally():
    assert identity_decoder(or_problem(3)).decode_map[bits_to_index(parse_bits("010"))] == 1
    assert identity_decoder(binary_evaluation(3)).decode_map[bits_to_index(parse_bits("101"))] == 5
    assert identity_decoder(unary_evaluation(3)).decode_map[bits_to_index(parse_bits("000"))] == 0
    dec = identity_decoder(or_problem(4))
    assert dec.n == 4
    assert np.array_equal(dec.decode_map, truth_table(or_problem(4)).outputs)


def test_decoder_map_must_cover_all_rows():
    with pytest.raises(ValueError):
        Decoder(np.array([0, 1, 1]))
    with pytest.raises(ValueError):
        Decoder(np.array([], dtype=np.int64))


def test_map_decoder_trusts_clean_reads():
    be = binary_evaluation(3)
    clean = map_decoder(be, energy_vector([50.0, 50.0, 50.0]))
    assert np.array_equal(clean.decode_map, identity_decoder(be).decode_map)


def test_map_decoder_inverts_certain_flips():
    # e=0 on every bit reads the exact complement, so the best guess for
    # observation o is f(~o)
    table = truth_table(or_problem(2))
    dec = map_decoder(table, energy_vector([0.0, 0.0]))
    assert dec.decode_map[bits_to_index(parse_bits("11"))] == 0
    expected = table.outputs[np.arange(4) ^ 3]
    assert np.array_equal(dec.decode_map, expected)


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
                        # values within a relative 1e-12 of the top tie,
                        # and the smallest tied value wins
                        scores = brute_map_scores(tab, ev, group, o)
                        top = max(scores.values())
                        tied = [v for v, s in scores.items() if s >= top - 1e-12 * top]
                        assert dec.decode_map[o] == min(tied), (n, o, scores)


def test_map_ties_break_toward_the_smaller_value(monkeypatch):
    # swapping the operands maps input i to one at the same distance from
    # an equal-operand observation and negates the verdict, so under the
    # symmetric group such rows tie exactly between -1 and +1; n = 6 runs
    # the dense kernel, and the transform is forced for a second pass
    table = truth_table(comparison_problem(3))
    group = FullSymmetricGroup(6)
    ev = energy_vector(np.random.default_rng(1).dirichlet(np.ones(6)) * 10.5)
    dense = map_decoder(table, ev, group).decode_map
    monkeypatch.setattr(decoders, "_xor_is_cheaper", lambda classes, n: True)
    xor = map_decoder(table, ev, group).decode_map
    tied_rows = 0
    for o in (9, 27, 54, 5):
        scores = brute_map_scores(table, ev, group, o)
        top = max(scores.values())
        tied = [v for v, s in scores.items() if s >= top - 1e-12 * top]
        tied_rows += len(tied) > 1
        assert dense[o] == xor[o] == min(tied), (o, scores)
    assert tied_rows == 3


def test_map_kernels_give_the_same_decode_map(monkeypatch):
    # the transform and the dense row blocks round apart; the tie rule must
    # absorb that, including at comparison's exact ties
    cases = [(problem, seed) for problem in (or_problem(8), tribes_problem(8, 2),
                                             comparison_problem(4), unary_evaluation(8))
             for seed in range(3)]
    cases += [(comparison_problem(6), seed) for seed in range(2)]
    maps = []
    for problem, seed in cases:
        n = problem.n
        table = truth_table(problem)
        ev = energy_vector(np.random.default_rng(seed).dirichlet(np.ones(n)) * n * (n + 1) / 4)
        groups = _groups(n)[1:] if n == 12 else _groups(n)
        maps += [(table, ev, group, map_decoder(table, ev, group).decode_map)
                 for group in groups]
    monkeypatch.setattr(decoders, "_xor_is_cheaper", lambda classes, n: False)
    for table, ev, group, xor_map in maps:
        assert np.array_equal(map_decoder(table, ev, group).decode_map, xor_map), \
            (table.n, group.kind)


def _untiled_map(table, ev, group):
    """The dense MAP kernel in one pass over all 4**n (observation, row)
    pairs: scores summed per output class, ties to the smaller value."""
    avg = decoders.average_pattern_probabilities(group, ev)
    classes, class_index = np.unique(table.outputs, return_inverse=True)
    order = np.argsort(class_index, kind="stable")
    starts = np.searchsorted(class_index[order], np.arange(classes.size))
    idx = np.arange(1 << table.n, dtype=np.int64)
    like = avg[idx[:, None] ^ order[None, :]]
    return classes[decoders._first_near_top(np.add.reduceat(like, starts, axis=1))]


def test_dense_map_tiles_match_one_untiled_pass():
    # many-class problems keep the dense MAP path at n >= 8; its row tiles
    # (128 rows at n = 9, 64 at n = 10) must decode exactly as one pass
    # over every row does
    rng = np.random.default_rng(8)
    for problem in (binary_evaluation(9), sorting_problem(3, 3),
                    custom_problem(rng.integers(0, 120, 1 << 10))):
        n = problem.n
        table = truth_table(problem)
        assert not decoders._xor_is_cheaper(np.unique(table.outputs).size, n)
        assert decoders._tile_rows(1 << n) < 1 << n
        for group in _groups(n):
            ev = energy_vector(rng.dirichlet(np.ones(n)) * n * (n + 1) / 4)
            want = _untiled_map(table, ev, group)
            got = map_decoder(table, ev, group).decode_map
            assert np.array_equal(got, want), (problem.name, group.kind)


# sha256 of three seeded dense-path MAP decode maps per case (energies on the
# budget simplex, or all 0), as little-endian int64: many-class tables at
# n <= 10 under each group kind, and a two-class table below the transform's
# floor whose every bit flips with certainty
DENSE_MAP_PINS = [
    (binary_evaluation(6), FullSymmetricGroup(6), 10.5,
     "6ee064114ef8d6bfd96f0e0422d9bf80fee7318232dba02833e056953c671fed"),
    (sorting_problem(3, 3), GeneratedGroup(9, [tuple(range(1, 9)) + (0,)]), 22.5,
     "e28ceeca1c9fd1d76a1648343328955f1b9b385af31f7746c400733cec1d5c17"),
    (custom_problem(np.random.default_rng(120).integers(0, 120, 1 << 10)),
     IdentityGroup(10), 27.5,
     "e8cc3a2735255c8c29f2848fc7e63ff5a54205cd1e57d5ddfa7771c888743eb6"),
    (or_problem(4), IdentityGroup(4), 0.0,
     "b159912c3571a7e7ae8b195aee261e8f647cc045a009ec4128f00fd97b1d808a"),
]


@pytest.mark.parametrize("problem, group, budget, digest", DENSE_MAP_PINS,
                         ids=lambda case: getattr(case, "name", None))
def test_dense_map_decode_maps_are_pinned(problem, group, budget, digest):
    n = problem.n
    table = truth_table(problem)
    assert not decoders._xor_is_cheaper(np.unique(table.outputs).size, n)
    rng = np.random.default_rng(n)
    maps = [map_decoder(table, energy_vector(rng.dirichlet(np.ones(n)) * budget),
                        group).decode_map for _ in range(3)]
    data = np.concatenate(maps).astype("<i8").tobytes()
    assert hashlib.sha256(data).hexdigest() == digest


def test_exact_analysis_leaves_numpy_ma_unloaded():
    # np.unique imports numpy.ma (about 13 ms) on numpy 2.x; the decoders
    # find output classes without it.  A fresh process runs an exact n = 12
    # few-output report and MAP decodes through both of its kernels, and
    # numpy.ma must be loaded after them only if importing numpy loaded it
    # (numpy 1.x does)
    code = """if True:
        import sys
        import numpy
        print("numpy.ma" in sys.modules)
        from inexact.adversary import FullSymmetricGroup
        from inexact.allocators import uniform_allocation
        from inexact.decoders import error_report, identity_decoder, map_decoder
        from inexact.problems import or_problem
        p, e, g = or_problem(12), uniform_allocation(39.0, 12), FullSymmetricGroup(12)
        error_report(p, e, g, identity_decoder(p))
        map_decoder(p, e, g)
        map_decoder(or_problem(6), uniform_allocation(6.0, 6))
        print("numpy.ma" in sys.modules)
    """
    env = {**os.environ, "PYTHONPATH": str(Path(decoders.__file__).parents[1])}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out in ("False\nFalse\n", "True\nTrue\n")


def test_cli_reports_leave_numpy_ma_unloaded(tmp_path):
    # the CLI formats a report's numbers once per distinct value, found by
    # np.unique with index and inverse returns, which leaves numpy.ma
    # unloaded where a bare np.unique loads it.  A fresh process writes a
    # full n = 12 report (MAP under S_12, two distinct values) in JSON and
    # in CSV through cli.main
    code = """if True:
        import sys
        import numpy
        print("numpy.ma" in sys.modules)
        from inexact.cli import main
        argv = ["simulate", "--problem", "or", "--n", "12", "--decoder", "map",
                "--group", "symmetric", "--allocation", "uniform", "--budget", "39"]
        for fmt in ("json", "csv"):
            assert main(argv + ["--format", fmt, "--output", sys.argv[1] + "." + fmt]) == 0
        print("numpy.ma" in sys.modules)
    """
    env = {**os.environ, "PYTHONPATH": str(Path(decoders.__file__).parents[1])}
    out = subprocess.run([sys.executable, "-c", code, str(tmp_path / "report")], env=env,
                         capture_output=True, text=True, check=True).stdout
    assert out in ("False\nFalse\n", "True\nTrue\n")
    assert (tmp_path / "report.json").stat().st_size > 4096 * 40
    assert len((tmp_path / "report.csv").read_text().splitlines()) == 4 + 4096


def test_map_decoder_guard():
    with pytest.raises(ResourceLimitError):
        map_decoder(or_problem(15), energy_vector(np.ones(15)))


def test_or2_error_profile_by_hand():
    p = or_problem(2)
    ev = energy_vector([1.0, 1.0])
    g = IdentityGroup(2)
    dec = identity_decoder(p)
    profile = error_profile(p, ev, g, dec)
    assert np.allclose(profile, [0.75, 0.25, 0.25, 0.25], atol=1e-15)
    assert per_input_error(p, ev, g, dec, 0) == pytest.approx(0.75, abs=1e-15)
    assert per_input_error(p, ev, g, dec, 1) == pytest.approx(0.25, abs=1e-15)
    assert profile.max() == pytest.approx(0.75, abs=1e-15)
    assert np.full(4, 0.25) @ profile == pytest.approx(0.375, abs=1e-15)
    assert np.array([0.0, 0.0, 0.0, 1.0]) @ profile == pytest.approx(0.25, abs=1e-15)


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
        for strategy, dec in (("identity", identity_decoder(table)),
                              ("map", map_decoder(table, ev, group))):
            for loss in ("exact", "absolute"):
                profile = error_profile(table, ev, group, dec, loss)
                for i in rows:
                    want = brute_error(table, ev, group, dec, i, loss)
                    assert profile[i] == pytest.approx(want, abs=tol), \
                        (problem.name, group.kind, strategy, loss, i)


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
    problem = sorting_problem(2, 2)
    dec = identity_decoder(problem)
    ev = energy_vector([0.5, 1.0, 2.0, 3.0])
    group = FullSymmetricGroup(4)
    whole = ErrorAnalysis(problem, dec, "absolute")
    want = whole.profile(ev, group)
    assert whole._matrix is not None
    monkeypatch.setattr(decoders, "_CHUNK_ENTRIES", 48)  # L no longer fits: blocks
    # three rows per tile and a last tile of one row; gemv may round rows
    # of such short tiles by another path, hence allclose
    monkeypatch.setattr(decoders, "_TILE_ENTRIES", 48)
    monkeypatch.setattr(decoders, "_TILE_MIN_ROWS", 1)
    blocked = ErrorAnalysis(problem, dec, "absolute")
    assert blocked.kernel == "blocks" and decoders._tile_rows(16) == 3
    got = blocked.profile(ev, group)
    assert blocked._matrix is None
    assert np.allclose(got, want, rtol=0, atol=1e-15)


def test_production_tiles_match_the_whole_matrix_bit_for_bit(monkeypatch):
    # at n = 10 the matrix kernel runs one gemv over all 1024 rows; forced
    # onto blocks, the same rows go through 64-row tiles and must not round
    # apart: a shuffled ramp (1024 values, absolute), sorting and a
    # many-class custom problem
    n = 10
    rng = np.random.default_rng(7)
    problems = [(custom_problem(rng.permutation(1 << n)), "absolute"),
                (sorting_problem(2, 5), "absolute"),
                (custom_problem(rng.integers(0, 300, 1 << n)), "exact")]
    rng = np.random.default_rng(10)
    settings = [(g, energy_vector(rng.dirichlet(np.ones(n)) * 27.5)) for g in _groups(n)]
    whole = []
    for problem, loss in problems:
        table = truth_table(problem)
        analysis = ErrorAnalysis(table, identity_decoder(table), loss)
        assert analysis.kernel == "matrix"
        whole.append([analysis.profile(ev, g) for g, ev in settings])
    monkeypatch.setattr(decoders, "_CHUNK_ENTRIES", 1 << 19)
    assert decoders._tile_rows(1 << n) == 64
    for (problem, loss), want in zip(problems, whole):
        table = truth_table(problem)
        analysis = ErrorAnalysis(table, identity_decoder(table), loss)
        assert analysis.kernel == "blocks", problem.name
        for (g, ev), profile in zip(settings, want):
            assert np.array_equal(analysis.profile(ev, g), profile), (problem.name, g.kind)


def test_blocks_profile_memory_is_a_few_tiles():
    # sorting 2x6 (2,080 values) at n = 12 runs 4**12 entries through tiles
    # of 2**16; the three reused tile buffers take 1.5 MB, where whole
    # 1024-row blocks of int64 and float64 temporaries once took about 100 MB
    table = truth_table(sorting_problem(2, 6))
    analysis = ErrorAnalysis(table, identity_decoder(table), "absolute")
    assert analysis.kernel == "blocks"
    ev, group = energy_vector(np.linspace(1.0, 5.0, 12)), FullSymmetricGroup(12)
    tracemalloc.start()
    try:
        analysis.profile(ev, group)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 << 20, peak


def test_xor_convolution_matches_a_double_loop():
    rng = np.random.default_rng(3)
    for n in range(1, 7):
        size = 1 << n
        avg = rng.random(size)
        columns = rng.random((3, size)) - 0.5
        kept = avg.copy(), columns.copy()
        want = [[sum(avg[d] * columns[c, i ^ d] for d in range(size)) for i in range(size)]
                for c in range(3)]
        assert np.allclose(decoders._xor_convolve(avg, columns), want, rtol=0, atol=1e-14)
        assert np.array_equal(avg, kept[0]) and np.array_equal(columns, kept[1])


def test_error_analysis_picks_its_kernel():
    def kernel(problem, loss="exact"):
        return ErrorAnalysis(problem, identity_decoder(problem), loss).kernel

    assert kernel(or_problem(8)) == "matrix"
    # the MAP decoder, with no matrix to keep, takes the transform from n = 8
    assert not decoders._xor_is_cheaper(2, 7) and decoders._xor_is_cheaper(2, 8)
    for problem in (or_problem(12), tribes_problem(12, 2), comparison_problem(6),
                    unary_evaluation(12)):
        assert kernel(problem) == "xor", problem.name
    assert kernel(unary_evaluation(12), "absolute") == "xor"
    # the identity decoder on a ramp table f(0) + i: be, a custom ramp or
    # an offset one, under either loss, from n = 10 up, past the 4**n guard
    # too; below, where a stack costs one gemv a row, the kept matrix
    assert decoders._RAMP_MIN_BITS == 10
    for n in range(1, 21):
        offset = TruthTable(n, np.arange(1 << n) + 5)
        for table in (truth_table(binary_evaluation(n)), offset):
            for loss in ("exact", "absolute"):
                want = "ramp" if n >= 10 else "matrix"
                assert kernel(table, loss) == want, (n, table.outputs[0], loss)
    assert kernel(custom_problem(np.arange(1 << 12) - 7)) == "ramp"
    # a shifted decoder is not the identity decoder: the matrix, then
    # blocks, and past the 14-bit guard (the 20-bit offset ramp) a refusal
    for n, want in ((8, "matrix"), (12, "blocks")):
        table = truth_table(binary_evaluation(n))
        shifted = Decoder(np.roll(table.outputs, 1))
        assert ErrorAnalysis(table, shifted, "absolute").kernel == want
    with pytest.raises(ResourceLimitError):
        ErrorAnalysis(offset, Decoder(np.roll(offset.outputs, 1)), "absolute")
    # many values that are not the ramp: sorting 2x6 has 2,080; 400 classes
    # fit one block at n = 12 but cost 400 * 12 > 2**12 transforms
    assert kernel(sorting_problem(2, 6), "absolute") == "blocks"
    assert kernel(custom_problem(np.arange(1 << 12) % 400)) == "blocks"
    with pytest.raises(AttributeError):
        ErrorAnalysis(or_problem(2), identity_decoder(or_problem(2))).kernel = "xor"


def _dense_profiles(table, decoder, settings, losses):
    """loss -> the row-block kernel's profile under each (group, energies)."""
    avgs = np.stack([decoders.average_pattern_probabilities(g, ev) for g, ev in settings],
                    axis=1)
    size = 1 << table.n
    chunk = decoders._CHUNK_ENTRIES // size
    idx = np.arange(size, dtype=np.int64)
    out = {loss: np.empty((size, len(settings))) for loss in losses}
    for lo in range(0, size, chunk):
        rows = idx[lo:lo + chunk]
        decoded = decoder.decode_map[rows[:, None] ^ idx[None, :]]
        for loss in losses:
            weights = decoders._loss_kernel(loss)(decoded, table.outputs[rows][:, None])
            out[loss][rows] = weights @ avgs
    return {loss: profiles.T for loss, profiles in out.items()}


def test_few_output_profiles_match_the_dense_blocks():
    # n = 12 is the smallest size where the xor kernel replaces row blocks;
    # or covers the MAP decoder under every group, ue both losses
    rng = np.random.default_rng(12)
    settings = [(g, energy_vector(rng.dirichlet(np.ones(12)) * 39.0)) for g in _groups(12)]
    or_table, ue_table = truth_table(or_problem(12)), truth_table(unary_evaluation(12))
    both = ("exact", "absolute")
    cases = [(or_table, "identity", identity_decoder(or_table), settings, ("exact",))]
    cases += [(or_table, "map", map_decoder(or_table, ev, g), [(g, ev)], ("exact",))
              for g, ev in settings]
    cases += [(ue_table, "identity", identity_decoder(ue_table), settings, both),
              (ue_table, "map", map_decoder(ue_table, settings[1][1], settings[1][0]),
               settings[1:2], both)]
    for table, strategy, dec, where, losses in cases:
        dense = _dense_profiles(table, dec, where, losses)
        for loss in losses:
            analysis = ErrorAnalysis(table, dec, loss)
            assert analysis.kernel == "xor"
            for (g, ev), want in zip(where, dense[loss]):
                got = analysis.profile(ev, g)
                assert np.allclose(got, want, rtol=0, atol=1e-13), (g.kind, strategy, loss)
                if g.kind == "identity" and table is or_table:
                    for i in (0, 1, 4095):
                        assert got[i] == pytest.approx(
                            brute_error(table, ev, g, dec, i, loss), abs=1e-12)
    # errors far below the transform's rounding (about 1e-17 here) read 0,
    # never negative
    quiet = energy_vector(10.0 + 0.5 * np.arange(12))
    profile = ErrorAnalysis(or_table, identity_decoder(or_table)).profile(quiet, IdentityGroup(12))
    assert profile.min() == 0.0


def test_ramp_profiles_match_brute_definition(monkeypatch):
    # forced at small n (below its 10 bits), the top-flipped-bit moments
    # must give the definition's sum under every group and both losses:
    # every row at n <= 5, the extreme rows and a few others at n = 8,
    # where S_8's 40,320 elements put the brute sum out of reach
    monkeypatch.setattr(decoders, "_RAMP_MIN_BITS", 1)
    rng = np.random.default_rng(23)
    for n in (3, 5, 8):
        table = truth_table(binary_evaluation(n))
        dec = identity_decoder(table)
        groups = _groups(n)[::2] if n == 8 else _groups(n)
        rows = (0, 1, 77, 128, 200, 255) if n == 8 else range(1 << n)
        for group in groups:
            ev = energy_vector(rng.random(n) * 4.0)
            for loss in ("exact", "absolute"):
                analysis = ErrorAnalysis(table, dec, loss)
                assert analysis.kernel == "ramp"
                profile = analysis.profile(ev, group)
                for i in rows:
                    want = brute_error(table, ev, group, dec, i, loss)
                    assert profile[i] == pytest.approx(want, rel=1e-12, abs=1e-12), \
                        (n, group.kind, loss, i)


def test_ramp_profiles_match_the_dense_blocks():
    # at n = 12, the smallest size that picks it, the ramp kernel agrees
    # with the dense row sums under every group and both losses
    rng = np.random.default_rng(4)
    settings = [(g, energy_vector(rng.dirichlet(np.ones(12)) * 39.0)) for g in _groups(12)]
    table = truth_table(binary_evaluation(12))
    dec = identity_decoder(table)
    dense = _dense_profiles(table, dec, settings, ("exact", "absolute"))
    for loss, wants in dense.items():
        analysis = ErrorAnalysis(table, dec, loss)
        assert analysis.kernel == "ramp"
        for (g, ev), want in zip(settings, wants):
            got = analysis.profile(ev, g)
            assert np.allclose(got, want, rtol=1e-12, atol=0), (g.kind, loss)


def _ramp_energies(n, rng):
    """Energy vectors for the ramp rows: random ones, all zero (every bit
    flips), very large ones (only single flips keep any mass) and a mix of
    zero and very large entries."""
    mixed = np.where(np.arange(n) % 2 == 0, 0.0, 1000.0)
    return [rng.random(n) * 4.0, rng.dirichlet(np.ones(n)) * n * (n + 1) / 4.0,
            np.zeros(n), np.full(n, 60.0), np.full(n, 1000.0), mixed]


def test_ramp_rows_match_brute_definition():
    # every row of the ramp table under the identity group's product law,
    # from the flip vector alone, against the definition's sum over patterns
    rng = np.random.default_rng(40)
    for n in range(1, 7):
        table = truth_table(binary_evaluation(n))
        dec = identity_decoder(table)
        for entries in _ramp_energies(n, rng):
            ev = energy_vector(entries)
            for loss in ("exact", "absolute"):
                got = ramp_profile(ev, IdentityGroup(n), loss)
                want = [brute_error(table, ev, IdentityGroup(n), dec, i, loss)
                        for i in range(1 << n)]
                assert np.allclose(got, want, rtol=1e-14, atol=0), (n, entries, loss)


def test_ramp_rows_match_the_matrix_kernel_under_every_group(monkeypatch):
    # against ErrorAnalysis' kept loss matrix of be (n <= 11) under the
    # identity, full symmetric and a cyclic group, extreme energies
    # included; rows i and 2**n - 1 - i come out as the same float
    rng = np.random.default_rng(41)
    for n in range(1, 12):
        table = truth_table(binary_evaluation(n))
        dec = identity_decoder(table)
        energies = np.array(_ramp_energies(n, rng))
        for loss in ("exact", "absolute"):
            with monkeypatch.context() as patch:  # the kept loss matrix, as a reference
                patch.setattr(decoders, "_is_ramp", lambda decoder, table: False)
                analysis = ErrorAnalysis(table, dec, loss)
            assert analysis.kernel == "matrix"
            for group in _groups(n):
                got = ramp_profile(energies, group, loss)
                want = analysis.profile(energies, group)
                for entries, row, want_row in zip(energies, got, want):
                    where = (n, group.kind, loss, entries)
                    assert np.allclose(row, want_row, rtol=1e-14, atol=0), where
                    assert np.array_equal(row, row[::-1]), where


def test_ramp_rows_read_no_pattern_law_up_to_twenty_bits(monkeypatch):
    # at n = 12 to 20 every group's rows come from its top-bit moments:
    # with the 2**n law refused everywhere, the exact loss reads
    # 1 - prod_j (1 - q_j), and the mean of the absolute rows is
    # sum_t 2**t P{top flipped bit = t} (the signed sums average out),
    # where P{top bit <= t} is the mass with no flip above t: a product
    # over those bits, its mean over a cyclic group's rotations, and under
    # S_n sum_k a[k] C(t + 1, k) / C(n, k); rows i and 2**n - 1 - i come
    # out as the same float
    def refusing(*args, **kwargs):
        raise AssertionError("a 2**n pattern law was computed")

    monkeypatch.setattr(decoders, "average_pattern_probabilities", refusing)
    monkeypatch.setattr(adversary, "_flip_patterns", refusing)
    for cls in (IdentityGroup, FullSymmetricGroup, GeneratedGroup):
        monkeypatch.setattr(cls, "law", refusing)
    rng = np.random.default_rng(42)
    for n in range(12, 21):
        ev = energy_vector(rng.random(n) * 3.0)
        q = flip_probability(ev)
        stay = [math.prod(1.0 - q[k] for k in range(t + 1, n)) for t in range(n)]
        rotations = [np.roll(q, -r) for r in range(n)]
        counts = adversary._mismatch_count_weights(q)
        below = {  # P{no bit above t flips}
            "identity": stay,
            "generated": [math.fsum(math.prod(1.0 - v[k] for k in range(t + 1, n))
                                    for v in rotations) / n for t in range(n)],
            "symmetric": [math.fsum(counts[k] * math.comb(t + 1, k) / math.comb(n, k)
                                    for k in range(t + 2)) for t in range(n)],
        }
        for group in _groups(n):
            assert ramp_profile(ev, group, "exact")[0] == pytest.approx(
                1.0 - math.prod(1.0 - q), rel=1e-14)
            rows = ramp_profile(ev, group, "absolute")
            # P{top bit = t}; no bit flips with mass prod_j (1 - q_j) under every group
            top = np.diff([math.prod(1.0 - q)] + below[group.kind])
            assert np.array_equal(rows, rows[::-1]), (n, group.kind)
            assert rows.min() > 0.0
            assert math.fsum(rows) / rows.size == pytest.approx(
                float(top @ np.exp2(np.arange(n))), rel=1e-12), (n, group.kind)


def test_flat_ramp_rows_are_the_identity_groups_under_every_group():
    # every permutation fixes a flat row (mobs' blindfolded uniform split),
    # so every group scores it through the product law, byte for byte
    for n in range(1, 21):
        flat = np.array([np.full(n, b / n) for b in (n, n * (n + 1) / 4, n * (n + 1))])
        want = ramp_profile(flat, IdentityGroup(n), "absolute")
        for group in _groups(n)[1:]:
            assert np.array_equal(ramp_profile(flat, group, "absolute"), want), (n, group.kind)


def test_ramp_rows_of_a_generated_group_are_the_mean_of_its_elements():
    # S_6 acting on the low 6 of 12 bits: each row is the math.fsum mean of
    # the product-law rows of the 720 rewired energy vectors
    n = 12
    group = GeneratedGroup(n, [(1, 0) + tuple(range(2, n)),
                               (1, 2, 3, 4, 5, 0) + tuple(range(6, n))])
    assert group.order() == 720
    ev = energy_vector(np.random.default_rng(43).random(n) * 4.0)
    rows = ramp_profile(ev.entries[group.elements()], IdentityGroup(n), "absolute")
    want = [math.fsum(column) / group.order() for column in rows.T]
    got = ramp_profile(ev, group, "absolute")
    assert np.allclose(got, want, rtol=1e-14, atol=0)


def test_ramp_rows_guards():
    with pytest.raises(ValueError, match="unknown loss"):
        ramp_profile(energy_vector(np.ones(3)), IdentityGroup(3), "squared")
    with pytest.raises(ValueError, match="nonempty"):
        ramp_profile(np.zeros((1, 0)), IdentityGroup(1))
    with pytest.raises(ValueError, match="group acts on"):
        ramp_profile(energy_vector(np.ones(3)), IdentityGroup(4))
    n = decoders.RAMP_BITS_LIMIT + 1
    with pytest.raises(ResourceLimitError):
        ramp_profile(energy_vector(np.ones(n)), IdentityGroup(n), "absolute")


def test_identity_decoder_shares_the_read_only_table_column():
    # a truth table holds one read-only 2**n column, and the identity
    # decoder keeps it as given; a writable map is copied and frozen
    for problem in (or_problem(6), unary_evaluation(6), binary_evaluation(6),
                    tribes_problem(6, 2), comparison_problem(3), sorting_problem(2, 3),
                    custom_problem(np.arange(64) % 5)):
        table = truth_table(problem)
        assert not table.outputs.flags.writeable, problem.name
        assert identity_decoder(table).decode_map is table.outputs, problem.name
    column = np.arange(8)
    decoder = Decoder(column)
    assert decoder.decode_map is not column and not decoder.decode_map.flags.writeable
    column[0] = 5
    assert decoder.decode_map[0] == 0


def test_expected_magnitude_examples():
    # staircase play makes every flipped bit j cost 2**j with chance
    # 2**-(j+1); the all-zeros input has no cancellation, totalling n/2
    for n in (2, 5, 8):
        be = binary_evaluation(n)
        ev = water_fill(np.arange(n), n * (n + 1) / 2)
        dec = identity_decoder(be)
        worst = error_profile(be, ev, IdentityGroup(n), dec, "absolute").max()
        assert worst == pytest.approx(n / 2, abs=1e-9)

    be2 = binary_evaluation(2)
    quiet = error_profile(be2, energy_vector([60.0, 60.0]), IdentityGroup(2),
                          identity_decoder(be2), "absolute").max()
    assert quiet < 1e-12

    be3 = binary_evaluation(3)
    flat = per_input_error(be3, energy_vector([1.0, 1.0, 1.0]), IdentityGroup(3),
                           identity_decoder(be3), 0, "absolute")
    assert flat == pytest.approx(3.5, abs=1e-15)


def test_worst_case_quality():
    # worst-case quality is the reciprocal of the worst wrong-output probability
    p = or_problem(2)
    ev = energy_vector([1.0, 1.0])
    worst = error_profile(p, ev, IdentityGroup(2), identity_decoder(p)).max()
    assert 1.0 / worst == pytest.approx(1 / 0.75, abs=1e-12)

    constant = custom_problem(np.full(4, 7))
    assert error_profile(constant, ev, IdentityGroup(2),
                         identity_decoder(constant)).max() == 0.0

    dead = energy_vector([0.0, 0.0])
    profile = error_profile(p, dead, IdentityGroup(2), identity_decoder(p))
    assert profile[3] == 1.0  # input 11 always reads 00 and answers 0
    assert 1.0 / profile.max() == 1.0


def test_map_decoding_is_bayes_optimal():
    rng = np.random.default_rng(5)
    for _ in range(15):
        n = int(rng.integers(2, 5))
        outputs = rng.integers(0, 4, size=1 << n)
        table = truth_table(custom_problem(outputs))
        ev = energy_vector(rng.random(n) * 3.0)
        prior = np.full(1 << n, 1.0 / (1 << n))  # the uniform prior MAP reads
        group = FullSymmetricGroup(n) if rng.random() < 0.5 else IdentityGroup(n)
        best = prior @ error_profile(table, ev, group, map_decoder(table, ev, group))
        rivals = [identity_decoder(table)]
        rivals += [Decoder(rng.integers(0, 4, size=1 << n)) for _ in range(5)]
        for rival in rivals:
            other = prior @ error_profile(table, ev, group, rival)
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
        low = error_profile(p, energy_vector(e), g, dec).max()
        high = error_profile(p, energy_vector(e + bump), g, dec).max()
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


def test_per_input_error_is_the_brute_row_past_the_analysis_guard():
    # one row costs one 2**n law and one gather, so it needs no 14-bit guard
    rng = np.random.default_rng(16)
    ev = energy_vector(rng.dirichlet(np.ones(16)) * 16.0)
    for problem, loss in ((unary_evaluation(16), "exact"), (binary_evaluation(16), "absolute")):
        table, row = truth_table(problem), int(rng.integers(1 << 16))
        dec, g = identity_decoder(table), IdentityGroup(16)
        want = brute_error(table, ev, g, dec, row, loss)
        assert per_input_error(table, ev, g, dec, row, loss) == pytest.approx(want, rel=1e-12)


def test_be_reports_run_exact_past_the_analysis_guard():
    # the ramp kernel has its own limit, so a be report at n = 16 is exact
    # under every group: ramp_profile's rows, and the brute rows where checked
    n = 16
    rng = np.random.default_rng(45)
    table = truth_table(binary_evaluation(n))
    dec = identity_decoder(table)
    ev = energy_vector(rng.dirichlet(np.ones(n)) * 40.0)
    for loss in ("exact", "absolute"):
        for group in _groups(n):
            report = error_report(table, ev, group, dec, loss)
            assert report.mode == "exact"
            assert np.array_equal(report.per_input, ramp_profile(ev, group, loss)), group.kind
            if group.kind == "identity":
                row = int(rng.integers(1 << n))
                want = brute_error(table, ev, group, dec, row, loss)
                assert report.per_input[row] == pytest.approx(want, rel=1e-12), (loss, row)


def test_per_input_error_reads_a_ramp_row_from_ramp_profile(monkeypatch):
    # be under the identity decoder: the row is ramp_profile's, bit for bit,
    # and builds no 2**n law, so S_8 on 12 bits (over the exact guard) reads
    # exactly; elsewhere it is the law's row to rounding
    rng = np.random.default_rng(42)
    cases = []
    for n in (3, 6, 9, 12):
        groups = (IdentityGroup(n), FullSymmetricGroup(n),
                  GeneratedGroup(n, [[1, 0, *range(2, n)], [*range(1, min(n, 8)), 0,
                                                             *range(min(n, 8), n)]]))
        table = truth_table(binary_evaluation(n))
        ev = energy_vector(rng.dirichlet(np.ones(n)) * n)
        rows = rng.integers(1 << n, size=4).tolist()
        cases += [(table, ev, group, rows) for group in groups]
    laws = {}
    for table, ev, group, rows in cases:
        if table.n < 12:
            laws[id(group)] = [per_input_error(table, ev, group, identity_decoder(table), row,
                                               loss) for row in rows
                               for loss in ("exact", "absolute")]
    table, ev, s8, rows = cases[-1]
    with pytest.raises(ResourceLimitError, match="exact guard"):
        decoders.average_pattern_probabilities(s8, ev)
    monkeypatch.setattr(decoders, "average_pattern_probabilities", None)
    for table, ev, group, rows in cases:
        got = [per_input_error(table, ev, group, identity_decoder(table), row, loss)
               for row in rows for loss in ("exact", "absolute")]
        want = [ramp_profile(ev, group, loss)[row] for row in rows
                for loss in ("exact", "absolute")]
        assert got == want, (table.n, group.kind)
        if id(group) in laws:
            assert np.allclose(got, laws[id(group)], rtol=1e-13, atol=0), (table.n, group.kind)


@pytest.mark.parametrize("n", [16, 20])
@pytest.mark.parametrize("kind", ["symmetric", "rotation"])
def test_per_input_error_past_the_analysis_guard_matches_monte_carlo(n, kind):
    rng = np.random.default_rng([n, len(kind)])
    ev = energy_vector(rng.dirichlet(np.ones(n)) * n)
    group = FullSymmetricGroup(n) if kind == "symmetric" else \
        GeneratedGroup(n, [[(j + 1) % n for j in range(n)]])
    for problem, loss in ((unary_evaluation(n), "exact"), (binary_evaluation(n), "absolute")):
        dec, row = identity_decoder(problem), int(rng.integers(1 << n))
        exact = per_input_error(problem, ev, group, dec, row, loss)
        est, se = monte_carlo_error(problem, ev, group, dec, row, loss, 200_000, rng)
        assert se > 0
        assert abs(est - exact) <= 4 * se, (problem.name, est, exact, se)


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
    with pytest.raises(ValueError, match="at least one input row"):
        monte_carlo_error(p, ev, g, dec, [], samples=10)


@pytest.mark.parametrize("group", [
    IdentityGroup(5),
    FullSymmetricGroup(5),
    GeneratedGroup(5, [(1, 2, 3, 4, 0), (1, 0, 2, 3, 4)]),
    # at the unranking low width: every bit gathered, no walk
    FullSymmetricGroup(15),
    FullSymmetricGroup(16),
    # two alias blocks, the second one short
    IdentityGroup(13),
    GeneratedGroup(13, [[(j + 1) % 13 for j in range(13)]]),
    # 16 elements times 2 * 2**8 table entries, past the patched cap: coins
    GeneratedGroup(16, [[(j + 1) % 16 for j in range(16)]]),
    # above the unranking low width: a walk over one and two high bits,
    # then the gather
    FullSymmetricGroup(17),
    FullSymmetricGroup(18),
])
@pytest.mark.parametrize("loss", ["exact", "absolute"])
def test_monte_carlo_is_the_per_batch_sampler(monkeypatch, group, loss):
    _check_per_batch_sampler(monkeypatch, group, loss, np.random.PCG64)


def _check_per_batch_sampler(monkeypatch, group, loss, bit_generator):
    """monte_carlo_error equals the brute per-batch sampler at ==, both
    drawing from bit_generator seeded at 17: one call over row 0, a middle
    row, the last row and the middle row again, every row decoded from each
    batch's shared patterns."""
    # batch 333 leaves a partial last batch of 1,000 - 3 * 333 = 1 draw
    monkeypatch.setattr(decoders, "_MC_BATCH", 333)
    monkeypatch.setattr(adversary, "ALIAS_ENTRIES_LIMIT", 4096)
    n = group.n
    p = binary_evaluation(n)
    table = truth_table(p)
    dec = identity_decoder(p)
    # a bit of energy 0 flips on every trial, which would make every
    # exact-loss trial an error
    entries = [0.0, 0.4, 1.3, 2.0, 3.7] if loss == "absolute" else [4.0, 2.5, 6.0, 3.3, 8.0]
    ev = energy_vector(np.resize(entries, n))
    rows = [0, 13, (1 << n) - 1, 13]
    est, se = monte_carlo_error(p, ev, group, dec, rows, loss, samples=1_000,
                                rng=np.random.Generator(bit_generator(17)))
    want = brute_monte_carlo_error(table, ev, group, dec, rows, loss, 1_000,
                                   np.random.Generator(bit_generator(17)), 333)
    assert (est.tolist(), se.tolist()) == want
    assert (se > 0.0).all()  # each row's trials disagree
    assert est[1] == est[3] and se[1] == se[3]


@pytest.mark.parametrize("group", [
    IdentityGroup(9),
    FullSymmetricGroup(9),
    GeneratedGroup(9, [[(j + 1) % 9 for j in range(9)]]),
    FullSymmetricGroup(18),
])
@pytest.mark.parametrize("loss", ["exact", "absolute"])
def test_each_row_of_a_rows_call_is_its_estimate_alone(group, loss):
    # the rows share every batch's patterns, and a one-row call draws the
    # same patterns from the same seed, so each row reads as it does alone;
    # 150,000 draws take three batches, the last one partial
    n = group.n
    p = binary_evaluation(n)
    dec = identity_decoder(p)
    ev = energy_vector(np.resize([0.3, 1.1, 2.6, 1.7, 0.9, 3.2], n))
    rows = [0, 5, 300, (1 << n) - 1]
    est, se = monte_carlo_error(p, ev, group, dec, rows, loss, 150_000, 29)
    assert est.shape == se.shape == (len(rows),)
    for i, e, s in zip(rows, est.tolist(), se.tolist()):
        assert monte_carlo_error(p, ev, group, dec, i, loss, 150_000, 29) == (e, s)


# the integer alias draws read the 64-bit words every 64-bit bit generator's
# random() reads, so they are the brute sampler's float rule for each
@pytest.mark.parametrize("bit_generator", [np.random.SFC64, np.random.Philox],
                         ids=["SFC64", "Philox"])
@pytest.mark.parametrize("group", [
    IdentityGroup(5),
    GeneratedGroup(5, [(1, 2, 3, 4, 0), (1, 0, 2, 3, 4)]),
    IdentityGroup(13),
    GeneratedGroup(13, [[(j + 1) % 13 for j in range(13)]]),
])
@pytest.mark.parametrize("loss", ["exact", "absolute"])
def test_alias_draws_are_the_float_rule_of_every_64_bit_generator(monkeypatch, bit_generator,
                                                                  group, loss):
    _check_per_batch_sampler(monkeypatch, group, loss, bit_generator)


@pytest.mark.parametrize("order, entries, built", [
    (1, np.linspace(0.5, 4.0, 13), [256, 32]),
    (13, np.linspace(0.5, 4.0, 13), [256] * 13 + [32] * 13),
    # every rotation of a flat vector has the same block laws
    (13, np.full(13, 2.0), [256, 32]),
])
def test_a_sampled_row_builds_each_table_once(monkeypatch, order, entries, built):
    # 200,000 draws take four batches; 13 bits make a block of 8 and one of 5
    real, sizes = adversary._alias_table, []

    def counting(law):
        sizes.append(law.size)
        return real(law)

    monkeypatch.setattr(adversary, "_alias_table", counting)
    group = IdentityGroup(13) if order == 1 else \
        GeneratedGroup(13, [[(j + 1) % 13 for j in range(13)]])
    p = binary_evaluation(13)
    monte_carlo_error(p, energy_vector(entries), group, identity_decoder(p), 5, "absolute",
                      200_000, 0)
    assert sizes == built


def test_unknown_loss_is_rejected_before_any_work(monkeypatch):
    p = or_problem(3)
    ev = energy_vector([1.0, 2.0, 0.5])
    g = FullSymmetricGroup(3)
    dec = identity_decoder(p)

    def no_work(*args, **kwargs):
        raise AssertionError("work started before the loss name was checked")

    monkeypatch.setattr(decoders, "average_pattern_probabilities", no_work)
    monkeypatch.setattr(decoders, "flip_probability", no_work)
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
    monkeypatch.setattr(decoders, "flip_probability", no_work)
    rng = np.random.default_rng(8)
    state = rng.bit_generator.state
    for i in (-1, -8, 8, 1 << 40):
        with pytest.raises(ValueError, match="out of range"):
            per_input_error(p, ev, g, dec, i)
        with pytest.raises(ValueError, match="out of range"):
            monte_carlo_error(p, ev, g, dec, i, samples=10, rng=rng)
        with pytest.raises(ValueError, match="out of range"):
            monte_carlo_error(p, ev, g, dec, [0, 7, i], samples=10, rng=rng)
    assert rng.bit_generator.state == state


def test_decoder_width_is_checked_before_any_work(monkeypatch):
    p = binary_evaluation(2)
    ev = energy_vector([1.0, 2.0])
    g = IdentityGroup(2)

    def no_work(*args, **kwargs):
        raise AssertionError("work started before the decoder width was checked")

    monkeypatch.setattr(decoders, "average_pattern_probabilities", no_work)
    monkeypatch.setattr(decoders, "flip_probability", no_work)
    for width in (1, 3):
        dec = identity_decoder(unary_evaluation(width))
        message = f"decoder covers {width} bits, table has 2"
        with pytest.raises(ValueError, match=message):
            error_profile(p, ev, g, dec, "absolute")
        with pytest.raises(ValueError, match=message):
            per_input_error(p, ev, g, dec, 3, "absolute")
        with pytest.raises(ValueError, match=message):
            monte_carlo_error(p, ev, g, dec, 3, "absolute", samples=10, rng=0)


@pytest.mark.parametrize("width, group", [
    (5, IdentityGroup(5)),
    (3, FullSymmetricGroup(3)),
    (5, GeneratedGroup(5, [(1, 2, 3, 4, 0)])),
])
def test_energy_width_is_checked_before_any_work(monkeypatch, width, group):
    p = or_problem(4)
    ev = energy_vector(np.linspace(0.5, 2.5, width))
    dec = identity_decoder(p)

    def no_work(*args, **kwargs):
        raise AssertionError("work started before the energy width was checked")

    monkeypatch.setattr(decoders, "average_pattern_probabilities", no_work)
    monkeypatch.setattr(decoders, "flip_probability", no_work)
    message = f"energies have {width} bits, table has 4"
    rng = np.random.default_rng(8)
    state = rng.bit_generator.state
    with pytest.raises(ValueError, match=message):
        monte_carlo_error(p, ev, group, dec, 0, samples=10, rng=rng)
    assert rng.bit_generator.state == state
    with pytest.raises(ValueError, match=message):
        error_profile(p, ev, group, dec)
    with pytest.raises(ValueError, match=message):
        ErrorAnalysis(p, dec).profile(ev, group)
    with pytest.raises(ValueError, match=message):
        per_input_error(p, ev, group, dec, 0)
    with pytest.raises(ValueError, match=message):
        map_decoder(p, ev, group)


def test_monte_carlo_refuses_a_group_of_another_width(monkeypatch):
    # the energies match the table, the group does not: refused before any draw
    p = or_problem(4)
    ev = energy_vector([0.5, 1.0, 1.5, 2.0])
    dec = identity_decoder(p)

    def no_work(*args, **kwargs):
        raise AssertionError("work started before the group width was checked")

    monkeypatch.setattr(decoders, "flip_probability", no_work)
    rng = np.random.default_rng(8)
    state = rng.bit_generator.state
    for group in (IdentityGroup(3), FullSymmetricGroup(5), GeneratedGroup(3, [(1, 2, 0)])):
        with pytest.raises(ValueError, match=f"group acts on {group.n} bits, energies have 4"):
            monte_carlo_error(p, ev, group, dec, 0, samples=10, rng=rng)
    assert rng.bit_generator.state == state


def test_error_report_shapes():
    p = or_problem(2)
    ev = energy_vector([1.0, 1.0])
    dec = identity_decoder(p)

    exact = error_report(p, ev, IdentityGroup(2), dec)
    assert exact.setting == "clairvoyant"
    assert exact.mode == "exact"
    assert exact.std_err is None
    assert exact.per_input.max() == pytest.approx(0.75, abs=1e-15)
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
    assert GeneratedGroup(2, [(1, 0)]).setting == "blindfolded:generated"
    assert IdentityGroup(2).setting == "clairvoyant"


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
