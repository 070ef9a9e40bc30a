import contextlib
import dataclasses
import hashlib
import importlib
import inspect
import io
import json
import shlex
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from inexact import __version__
from inexact.adversary import FullSymmetricGroup, IdentityGroup
from inexact.cli import (_COMMANDS, _FLAGS, _csv_numbers, _csv_rows, _json_number, _json_numbers,
                         _read_plain, build_parser, config_hash, emit_json, fmt, jsonable,
                         main)
from inexact.decoders import (ErrorReport, error_profile, error_report, identity_decoder,
                              map_decoder)
from inexact.mobs import table2_rows
from inexact.noise import energy_vector
from inexact.problems import (TruthTable, binary_evaluation, or_problem, table_to_csv,
                              truth_table)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def csv_body(text):
    """(preamble comments, header, data lines) of a CSV emission."""
    lines = text.strip().split("\n")
    comments = [l for l in lines if l.startswith("#")]
    rest = [l for l in lines if not l.startswith("#")]
    return comments, rest[0], rest[1:]


def test_fmt_policy():
    assert fmt(0.75) == "0.75"
    assert fmt(float("inf")) == "inf"
    assert fmt(float("-inf")) == "-inf"
    assert fmt(3) == "3"
    assert fmt(1.0) == "1"
    # tail-sensitive values refuse to round into 0 or 1
    assert fmt(1 - 2.0 ** -50) == "0.9999999999999991"
    assert fmt(2.0 ** -60) == "8.67361737988e-19"


def test_jsonable_policy():
    tree = jsonable({"a": np.float64(0.25), "b": [np.int64(3), (1, 2)],
                     "c": float("inf"), "d": None, "e": -np.inf})
    assert tree == {"a": 0.25, "b": [3, [1, 2]], "c": "inf", "d": None, "e": "-inf"}
    assert _json_number(-np.inf) == '"-inf"'
    with pytest.raises(TypeError):
        jsonable(object())


def test_eval_prints_the_value(capsys):
    code, out, _ = run(capsys, "eval", "--problem", "be", "--n", "3",
                       "--bits", "101")
    assert code == 0
    assert out == "5\n"


def test_eval_json_envelope(capsys):
    code, out, _ = run(capsys, "eval", "--problem", "or", "--n", "2",
                       "--bits", "10", "--format", "json")
    assert code == 0
    body = json.loads(out)
    assert set(body) == {"version", "config", "config_sha256", "result"}
    assert body["result"]["value"] == 1
    assert body["config"]["command"] == "eval"
    assert body["config_sha256"] == config_hash(body["config"])


def test_eval_usage_errors(capsys):
    code, _, err = run(capsys, "eval", "--problem", "be", "--n", "3")
    assert code == 2 and "error" in err
    code, _, err = run(capsys, "eval", "--problem", "be", "--n", "3",
                       "--bits", "01")
    assert code == 2  # wrong width
    code, out, err = run(capsys, "eval", "--problem", "tribes", "--n", "4",
                         "--tribe-count", "0", "--bits", "1100")
    assert (code, out) == (2, "") and "tribe_count" in err
    with pytest.raises(SystemExit) as exc:
        main(["eval", "--problem", "nand", "--n", "2", "--bits", "01"])
    assert exc.value.code == 2


@pytest.mark.parametrize("bits", [101, True, [1, 0, 1]])
def test_config_file_bits_must_be_a_bit_string(capsys, tmp_path, bits):
    # a JSON value that is not text is refused by its key, not parsed
    (tmp_path / "run.json").write_text(json.dumps({"bits": bits}))
    argv = ["eval", "--problem", "or", "--n", "3", "--config", str(tmp_path / "run.json")]
    assert run(capsys, *argv) == (2, "", f"error: config key 'bits' must be a bit string, "
                                         f"got {bits!r}\n")


# each text flag that is not a list key, with a run that reads it
TEXT_KEY_RUNS = {
    "table": (["eval", "--problem", "custom", "--bits", "01"], "a file path"),
    "output": (["eval", "--problem", "or", "--n", "2", "--bits", "01"], "a file path"),
    "input": (["simulate", "--problem", "or", "--n", "3", "--energies", "1,1,1"],
              "a bit string"),
    "bits": (["eval", "--problem", "or", "--n", "3"], "a bit string"),
}


@pytest.mark.parametrize("key", sorted(TEXT_KEY_RUNS))
@pytest.mark.parametrize("value", [101, 7.5, True, [1, 0, 1], {"path": "x"}])
def test_config_file_text_values_must_be_text(capsys, tmp_path, key, value):
    # a JSON value that is not text is refused by its key, not read as the
    # text it prints as (input 101 would run row 5) or handed to open()
    argv, kind = TEXT_KEY_RUNS[key]
    (tmp_path / "run.json").write_text(json.dumps({key: value}))
    assert run(capsys, *argv, "--config", str(tmp_path / "run.json")) == \
        (2, "", f"error: config key {key!r} must be {kind}, got {value!r}\n")


def test_every_text_flag_is_text_or_a_list_key():
    # a text flag added later must say whether a config file may list it
    from inexact.cli import _TEXT_KEYS

    commands = next(a for a in build_parser()._actions if a.dest == "command")
    text_flags = {action.dest for sub in commands.choices.values() for action in sub._actions
                  if action.type is None and not action.choices and action.nargs is None
                  and action.dest not in ("help", "config")}
    list_keys = {"energies", "generators", "budgets", "sizes", "comparison_widths",
                 "sorting_shapes"}
    assert text_flags == set(_TEXT_KEYS) | list_keys


@pytest.mark.parametrize("argv, named", [
    (["eval", "--problem", "comparison", "--k", "2", "--n", "6", "--bits", "0101"], "n=6"),
    (["eval", "--problem", "or", "--n", "3", "--width", "7", "--count", "3", "--bits", "010"],
     "['count', 'width']"),
    (["mobs", "--problem", "sorting", "--count", "2", "--width", "2", "--n", "9",
      "--budgets", "3"], "n=9"),
    (["eval", "--problem", "be", "--n", "2", "--table", "be2.csv", "--bits", "01"], "--table"),
    (["eval", "--problem", "custom", "--table", "be2.csv", "--n", "3", "--bits", "01"], "n=3"),
    (["eval", "--problem", "custom", "--table", "be2.csv", "--k", "1", "--bits", "01"], "['k']"),
])
def test_problem_flags_the_kind_does_not_read_exit_2(capsys, tmp_path, monkeypatch, argv,
                                                     named):
    monkeypatch.chdir(tmp_path)
    table_to_csv(truth_table(binary_evaluation(2)), "be2.csv")
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "") and named in err


def test_problem_flags_that_agree_run(capsys, tmp_path):
    # an n that is the problem's own is accepted, and comparison derives k from it
    table_to_csv(truth_table(binary_evaluation(2)), tmp_path / "be2.csv")
    for argv, value in [(["--problem", "comparison", "--k", "2", "--n", "4", "--bits", "0001"], 1),
                        (["--problem", "comparison", "--n", "4", "--bits", "0100"], -1),
                        (["--problem", "custom", "--table", str(tmp_path / "be2.csv"), "--n",
                          "2", "--bits", "10"], 2)]:
        assert run(capsys, "eval", *argv) == (0, f"{value}\n", "")


def test_unknown_subcommand_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["transmogrify"])
    assert exc.value.code == 2


def test_version_flag():
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0


def test_curve_single_point(capsys):
    code, out, _ = run(capsys, "curve", "--vdd", "0")
    assert code == 0
    comments, header, lines = csv_body(out)
    assert header == "vdd,sigma,p"
    assert lines == ["0,1,0.5"]
    assert comments[0].startswith("# version=")
    assert comments[1].startswith("# config_sha256=")
    assert comments[2].startswith("# config=")


def test_curve_grid_is_monotone(capsys):
    code, out, _ = run(capsys, "curve", "--sigma", "2.0", "--steps", "51")
    assert code == 0
    _, _, lines = csv_body(out)
    assert len(lines) == 51
    ps = [float(l.split(",")[2]) for l in lines]
    assert ps[0] == 0.5
    assert all(b > a for a, b in zip(ps, ps[1:]))
    assert ps[-1] > 1 - 1e-6


@pytest.mark.parametrize("flags", [["--sigma", "nan", "--vdd", "1"],
                                   ["--vdd", "nan"],
                                   ["--vdd-max", "inf"]])
def test_curve_rejects_nan_instead_of_emitting_it(capsys, flags):
    code, out, err = run(capsys, "curve", *flags, "--format", "json")
    assert code == 2 and out == ""
    assert err.startswith("error: ")


@pytest.mark.parametrize("flags, named", [(["--vdd-max", "inf"], "--vdd-max"),
                                          (["--vdd-min", "inf", "--vdd-max", "1"],
                                           "--vdd-min"),
                                          (["--sigma", "inf"], "--sigma")])
def test_curve_rejects_an_infinite_grid_end_before_building_the_grid(capsys, flags,
                                                                    named):
    # an infinite end would reach np.linspace, which warns and yields NaN
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(capsys, "curve", *flags)
    assert code == 2 and out == ""
    assert err == f"error: {named} must be finite for a vdd grid, got inf\n"
    assert "RuntimeWarning" not in err


def test_simulate_exact_csv_matches_profile(capsys):
    code, out, _ = run(capsys, "simulate", "--problem", "or", "--n", "2",
                       "--energies", "1,1", "--format", "csv")
    assert code == 0
    _, header, lines = csv_body(out)
    assert header == "row,p_err"
    got = {int(l.split(",")[0]): float(l.split(",")[1]) for l in lines}
    p = or_problem(2)
    want = error_profile(p, energy_vector([1.0, 1.0]), IdentityGroup(2),
                         identity_decoder(p))
    assert got == {i: pytest.approx(want[i], abs=1e-12) for i in range(4)}


def test_simulate_single_input(capsys):
    code, out, _ = run(capsys, "simulate", "--problem", "or", "--n", "2",
                       "--energies", "1,1", "--input", "10", "--format", "json")
    assert code == 0
    body = json.loads(out)
    assert body["result"]["row"] == 2
    assert body["result"]["p_err"] == 0.25
    assert body["result"]["mode"] == "exact"


def test_simulate_monte_carlo_is_seed_deterministic(capsys, tmp_path):
    out = tmp_path / "run.json"
    argv = ["simulate", "--problem", "or", "--n", "2", "--energies", "1,2",
            "--group", "symmetric", "--mode", "monte_carlo",
            "--samples", "2000", "--output", str(out), "--seed"]
    assert main(argv + ["5"]) == 0
    first = out.read_bytes()
    assert main(argv + ["5"]) == 0
    assert out.read_bytes() == first
    assert main(argv + ["6"]) == 0
    assert out.read_bytes() != first
    body = json.loads(first)
    assert body["result"]["samples"] == 2000
    assert len(body["result"]["per_input"]) == 4


# sha256 of seeded single-row Monte Carlo reports (100,000 samples, two
# draw batches) under the identity group, which draws each block of 8 bits
# through its alias table, and a generated group, which draws an element,
# then each block of 8 bits through that element's alias table of the
# block's rewired law.  These streams stay fixed: moving them changes every
# seeded identity- or generated-group output.  The identity digest was
# re-recorded when its draws went from a coin per bit to one uniform per
# block (the row reads 9.76499 +- 0.02929 against an exact 9.72453), and
# the generated one when its draws did the same (18.78139 +- 0.04050 with
# a coin per bit, 18.76099 +- 0.04046 by blocks, against an exact
# 18.73003).
# Symmetric-group draws (a flip count, then a subset) are pinned in
# SYMMETRIC_STREAMS below.  Both digests, simulate-be-16's and the four
# report digests below were re-recorded when simulate lost --energies-file:
# only the config preamble moved, the result bodies are the same bytes.
PINNED_STREAMS = {
    "identity":
        ((), "023814185abc438e921cd4b2cb89ae1a58d02e791fc4c66c6cac92092e5b7541"),
    "generated":
        (("--generators", "1,2,3,4,5,0"),
         "77ade80e61a28d88b17760a243bf5aa88da3d9b29e0bf13ebf7f91645a371334"),
}


@pytest.mark.parametrize("group", sorted(PINNED_STREAMS))
def test_seeded_monte_carlo_streams_are_pinned(capsys, group):
    extra, digest = PINNED_STREAMS[group]
    code, out, _ = run(capsys, "simulate", "--problem", "be", "--n", "6",
                       "--energies", "0.3,1.1,0.0,2.5,1.7,3.2", "--group", group,
                       *extra, "--loss", "absolute", "--mode", "monte_carlo",
                       "--samples", "100000", "--seed", "11", "--input", "101101",
                       "--format", "json")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# sha256 of seeded Monte Carlo outputs under the full symmetric group, whose
# draws (a flip count, then the rank of a subset of that size) unrank the
# bits above the low width and gather the rest from a table: a single-row
# report at n = 16 and a sampled mobs run at n = 20, budget 20 giving every
# bit a flip probability of 1/2 and budget 105 one of 2**-5.25.  The
# sampler itself is checked against tests/conftest.py's oracle up to n = 16.
# The mobs run also samples its clairvoyant side under the identity group,
# from the same generator, so its digest was re-recorded when the identity
# draws went to one uniform per block of 8 bits.  Both digests were
# re-recorded when the subset rank became the high word of a 64-bit draw
# times the subset count (in place of rng.integers with one bound per
# trial), and the mobs run's again because each side now draws one pattern
# stream shared by all its probe rows: simulate-be-16 read 18116.64257 +-
# 41.79922 and reads 18169.864 +- 41.86637 against an exact 18080.77232;
# the mobs price read 73.6020564133 and reads 57.7138931855.
SYMMETRIC_STREAMS = {
    "simulate-be-16":
        (("simulate", "--problem", "be", "--n", "16", "--energies",
          "0.0,0.37,0.74,1.11,1.48,1.85,2.22,2.59,2.96,0.23,0.6,0.97,1.34,1.71,2.08,2.45",
          "--group", "symmetric", "--loss", "absolute", "--mode", "monte_carlo",
          "--samples", "100000", "--seed", "11", "--input", "1011010011100101"),
         "9a2ebc3eabc60f18a3717c7aef65f07264d272129652564d6f91d0e3963cf75c"),
    "mobs-be-20":
        (("mobs", "--problem", "be", "--n", "20", "--mode", "monte_carlo",
          "--samples", "20000", "--seed", "13", "--budgets", "20,105"),
         "0dc4496dc1dfa45483fc5e676a4c56189942961f623760aca3ba38f38840fdfb"),
}


@pytest.mark.parametrize("stream", sorted(SYMMETRIC_STREAMS))
def test_seeded_symmetric_streams_are_pinned(capsys, stream):
    argv, digest = SYMMETRIC_STREAMS[stream]
    code, out, _ = run(capsys, *argv, "--format", "json")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# sha256 of exact n = 12 reports whose per_input rows emit_json encodes
# without the json module: be under the absolute loss (the top-flipped-bit
# ramp kernel) and or's MAP decoder under the symmetric group (the
# XOR-convolution kernels).  These two and the CSV be-absolute digest were
# re-recorded when explicit --mode exact stopped recording the samples and
# seed it does not read: the bytes from "result" on (CSV rows) are the same.
# Both be-absolute digests were re-recorded when the ramp rows came to be
# built from the product law's closed-form moments in place of the 2**n
# law's: rows 894 and 3201 read 1285.3771110750001 and now read
# 1285.377111075, the double nearest the exact sum at those flip
# probabilities, 1285.37711107499991..., one ulp below the old float, so
# they print 1285.37711107 where they printed 1285.37711108.
PINNED_REPORTS = {
    "be-absolute":
        (("--problem", "be", "--loss", "absolute"),
         "6048b1551e7a94bc6c5416f9d71bd7412ba36d56e91bfcb9bd2d1a3e29aa6996"),
    "or-map-symmetric":
        (("--problem", "or", "--group", "symmetric", "--decoder", "map"),
         "240b20eb64615e839c1f59950b01f7e14bdcbee1fb4cc507e7f9e0d278a97e38"),
}


@pytest.mark.parametrize("report", sorted(PINNED_REPORTS))
def test_exact_reports_are_pinned(capsys, report):
    extra, digest = PINNED_REPORTS[report]
    code, out, _ = run(capsys, "simulate", *extra, "--n", "12",
                       "--energies", "0.4,2.9,1.3,0.0,5.2,3.3,0.9,4.1,2.2,1.7,6.0,0.6",
                       "--mode", "exact", "--format", "json")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# sha256 of full CSV reports, whose p_err and std_err columns are formatted
# in bulk: the exact be report above and a seeded sampled or report at n = 8
# under the symmetric group (rows of 0 and 1 with a std_err of 0).  The
# sampled digest was re-recorded when the report's rows came to share one
# pattern stream, each row reading what --input would print for it at the
# same seed, and its subset ranks came from 64-bit words: row 1 read
# 0.00333333333333 +- 0.001052334266 and reads 0.00233333333333 +-
# 0.000880887599506.
PINNED_CSV_REPORTS = {
    "be-absolute":
        (("--problem", "be", "--n", "12", "--energies",
          "0.4,2.9,1.3,0.0,5.2,3.3,0.9,4.1,2.2,1.7,6.0,0.6", "--loss", "absolute",
          "--mode", "exact"),
         "469b03e425db028b490e375f743c265346ff77735f48a944cb5d85e4f78d7eeb"),
    "or-sampled-symmetric":
        (("--problem", "or", "--n", "8", "--energies", "0.3,1.1,0.0,2.5,1.7,3.2,0.8,4.0",
          "--group", "symmetric", "--mode", "monte_carlo", "--samples", "3000",
          "--seed", "11"),
         "441340a73a47d2071004d3705c0beab59fcf9f9f7da82f43f95d794e5772b863"),
}


@pytest.mark.parametrize("report", sorted(PINNED_CSV_REPORTS))
def test_csv_reports_are_pinned(capsys, report):
    argv, digest = PINNED_CSV_REPORTS[report]
    code, out, _ = run(capsys, "simulate", *argv, "--format", "csv")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize("group", ["identity", "symmetric", "generated"])
def test_sampled_report_rows_are_their_input_runs(capsys, group):
    # a full sampled report's rows share the draws a single row makes from
    # the same seed, so each row prints the text --input prints for it
    generators = ["--generators", "1,2,3,4,5,6,7,0"] if group == "generated" else []
    argv = ["simulate", "--problem", "or", "--n", "8", "--energies",
            "0.3,1.1,0.0,2.5,1.7,3.2,0.8,4.0", "--group", group, *generators,
            "--mode", "monte_carlo", "--samples", "3000", "--seed", "11", "--format", "csv"]
    code, out, _ = run(capsys, *argv)
    assert code == 0
    _, _, rows = csv_body(out)
    assert len(rows) == 256
    for row in (0, 37, 164, 255):
        code, one, _ = run(capsys, *argv, "--input", format(row, "08b"))
        assert code == 0
        assert csv_body(one)[2] == [rows[row]]


# values whose text takes each branch of the policy: 12 significant digits,
# full precision near 0 and 1, "inf", json's own NaN, signed zero, exponents;
# the boundaries of the bulk path: whole numbers, where "%g" and repr
# part between positional and exponent form (1e11 to 1e16, 1e-4), a
# subnormal that is not the smallest, and a small negative; and both sides
# of the margins of its masks: 1e-11 and 1e-12 about magnitude 1 (-1 + 1e-14
# prints "-1"), 9.9e10, 1e11 - 1, the smallest normal and 1.001 times it
TINY = float(np.finfo(np.float64).tiny)
EDGE_VALUES = [0.0, 1.0, 1 - 1e-14, 1e-300, 5e-324, float("inf"), -float("inf"),
               float("nan"), -0.0, 0.75, 1e-5, 2.0 ** -60, 1 - 2.0 ** -50, 3.0,
               123456789012.5, 1e20, 0.1 + 0.2,
               -2.0, 16000.0, 3.0000000000004,
               99999999999.9, 999999999999.5, 1e12, 123456789012345.0, 1e16,
               9.99999999999995e-05, 2.5e-310, -1e-5,
               1 + 1e-11, 1 - 1e-11, 1 + 1e-12, 1 - 1e-12, -1 + 1e-14, -1 - 1e-12,
               -1 + 1e-11, 1 - 4e-13, 9.9e10, float(np.nextafter(9.9e10, 0)), 1e11 - 1,
               TINY, -TINY, 1.001 * TINY, float(np.nextafter(1.001 * TINY, 0)),
               float(np.nextafter(TINY, 0))]
# a pool that repeats: the bulk path formats each distinct value once, keyed
# by its bytes, so signed zeros and NaN payloads must not share a text
NAN_PAYLOAD = float(np.array([0x7FF8000000000001], dtype=np.int64).view(np.float64)[0])
REPEATED_POOL = [0.0, -0.0, float("nan"), -float("nan"), NAN_PAYLOAD, float("inf"),
                 -float("inf"), 1.0, 1 + 1e-11, 1 - 1e-11, 1 + 1e-12, 1 - 1e-12, 9.9e10,
                 1e11 - 1, TINY, 1.001 * TINY, 2.5e-310, 1e-5, 16000.0]


@settings(max_examples=300, deadline=None)
@given(st.lists(st.floats(allow_nan=True, allow_infinity=True), max_size=40))
@example(EDGE_VALUES)
def test_bulk_numbers_are_the_scalar_texts(xs):
    assert _json_numbers(xs) == [_json_number(x) for x in xs]
    assert _csv_numbers(xs) == [fmt(x) for x in xs]


@settings(max_examples=300, deadline=None)
@given(st.lists(st.sampled_from(REPEATED_POOL), max_size=60))
@example(REPEATED_POOL * 3)
def test_bulk_numbers_of_repeated_values_are_the_scalar_texts(xs):
    assert _json_numbers(xs) == [_json_number(x) for x in xs]
    assert _csv_numbers(xs) == [fmt(x) for x in xs]


def _encoded(result, config) -> str:
    """The envelope emit_json writes, laid out whole by json.dumps."""
    envelope = {"version": __version__, "config": jsonable(config),
                "config_sha256": config_hash(config), "result": jsonable(result.to_json())}
    return json.dumps(envelope, indent=2, sort_keys=True) + "\n"


def _reports() -> list[ErrorReport]:
    """Reports whose rows take each path of the bulk formatting: exact and
    sampled, every value distinct and few distinct values repeated (MAP
    under S_n, interleaved signed zeros and NaNs), and the edge values."""
    ev = energy_vector([0.0, 0.5, 1.0, 2.0, 8.0])
    reports = []
    for problem, loss in ((binary_evaluation(5), "absolute"), (or_problem(5), "exact")):
        for group in (IdentityGroup(5), FullSymmetricGroup(5)):
            reports.append(error_report(problem, ev, group, identity_decoder(problem), loss))
    sampled = error_report(or_problem(3), energy_vector([0.0, 1.0, 3.0]), IdentityGroup(3),
                           identity_decoder(or_problem(3)), mode="monte_carlo",
                           samples=300, rng=5)
    assert sampled.std_err is not None and sampled.samples == 300
    or8, s8 = or_problem(8), FullSymmetricGroup(8)
    ev8 = energy_vector([0.3, 1.1, 0.0, 2.5, 1.7, 3.2, 0.8, 4.0])
    map8 = error_report(or8, ev8, s8, map_decoder(or8, ev8, s8))
    assert len(set(map8.per_input.tolist())) == 2  # 0.0 in every row but one
    mixed = np.tile([0.0, -0.0, np.nan, 0.25, -np.nan, 0.0], 8)
    edges = np.array(EDGE_VALUES)
    return reports + [sampled, map8,
                      ErrorReport("blindfolded:symmetric", "monte_carlo", "absolute",
                                  mixed, np.roll(mixed, 1), 9),
                      ErrorReport("clairvoyant", "exact", "exact", edges),
                      ErrorReport("blindfolded:symmetric", "monte_carlo", "absolute",
                                  edges, edges[::-1].copy(), 7)]


def test_emitted_report_rows_are_the_json_encoders_bytes(capsys):
    config = {"command": "simulate", "problem": "be", "n": 5, "energies": "1,2",
              "budget": 2.5, "output": None, "per_input": [], "note": '"per_input": []'}
    for report in _reports():
        emit_json(report, config, None)
        assert capsys.readouterr().out == _encoded(report, config), report.setting


def test_csv_report_rows_are_the_scalar_texts():
    for report in _reports():
        columns = [report.per_input] + ([] if report.std_err is None else [report.std_err])
        expected = [",".join([str(i)] + [fmt(c[i]) for c in columns])
                    for i in range(len(report.per_input))]
        assert list(_csv_rows(*columns)) == expected, report.setting


def test_simulate_rejects_mismatched_energies(capsys):
    code, _, err = run(capsys, "simulate", "--problem", "or", "--n", "3",
                       "--energies", "1,1")
    assert code == 2 and "3-bit" in err


def test_simulate_allocation_flags(capsys):
    code, out, _ = run(capsys, "simulate", "--problem", "be", "--n", "3",
                       "--allocation", "analytic", "--budget", "6",
                       "--input", "000", "--loss", "absolute", "--format", "json")
    assert code == 0
    body = json.loads(out)
    assert body["result"]["p_err"] == 1.5  # staircase ramp at its own budget


def test_allocate_grid_lands_on_the_corner(capsys):
    code, out, _ = run(capsys, "allocate", "--problem", "ue", "--n", "2",
                       "--budget", "4", "--method", "grid")
    assert code == 0
    body = json.loads(out)
    assert sorted(body["result"]["energies"]) == [0.0, 4.0]
    assert body["result"]["objective_value"] == 0.05859375
    assert body["result"]["converged"] is True


@pytest.mark.parametrize("kind", ["be", "or", "ue"])
def test_allocate_runs_past_the_decode_limit(capsys, kind):
    # the worst row of a linear or lone-output table is closed form, so a
    # search on it builds no 2**n profile and runs at 20 bits, where it
    # exited 3; be's descent ends on the water fill of the bit positions
    code, out, err = run(capsys, "allocate", "--problem", kind, "--n", "20", "--metric",
                         "expected_magnitude", "--budget", "105", "--format", "json")
    assert (code, err) == (0, "")
    result = json.loads(out)["result"]
    assert result["converged"] is True
    if kind == "be":
        assert result["energies"] == [0.0] * 6 + [float(e) for e in range(1, 15)]
        assert result["objective_value"] == 511.0
    else:
        assert result["energies"] == [5.25] * 20


def test_allocate_requires_budget(capsys):
    code, _, err = run(capsys, "allocate", "--problem", "ue", "--n", "2")
    assert code == 2 and "budget" in err


@pytest.mark.parametrize("method", ["coordinate_descent", "grid"])
@pytest.mark.parametrize("budget", ["inf", "1e400", "nan"])
def test_allocate_rejects_a_budget_it_cannot_split(capsys, method, budget):
    code, out, err = run(capsys, "allocate", "--problem", "ue", "--n", "2",
                         "--budget", budget, "--method", method)
    assert code == 2 and out == ""
    assert "budget must be finite" in err


CONFIG_RUNS = {
    "eval": ["--problem", "be", "--n", "3", "--bits", "101", "--format", "json"],
    "simulate": ["--problem", "or", "--n", "2", "--energies", "1,1"],
    "allocate": ["--problem", "ue", "--n", "2", "--budget", "2"],
    "mobs": ["--problem", "or", "--n", "2", "--budgets", "2"],
    "curve": ["--vdd", "1", "--format", "json"],
    "table2": ["--sizes", "2", "--comparison-widths", "2", "--sorting-shapes", "2x1",
               "--format", "json"],
}


@pytest.mark.parametrize("command", sorted(CONFIG_RUNS))
def test_emitted_config_holds_every_flag(capsys, command):
    # the resolved config names every flag of the subcommand, set or not
    code, out, _ = run(capsys, command, *CONFIG_RUNS[command])
    assert code == 0
    dests = set(vars(build_parser().parse_args([command])))
    assert set(json.loads(out)["config"]) == dests - {"config"}


@pytest.mark.parametrize("command", sorted(CONFIG_RUNS))
def test_subcommand_help_renders(capsys, command):
    with pytest.raises(SystemExit) as exc:
        main([command, "--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith(f"usage: inexact {command}")


def test_main_calls_share_one_parser(capsys, tmp_path):
    # a plain call, a config file's too, is read from the flag declaration
    # and builds no argparse parser; the first call argparse must read (an
    # abbreviation) builds it, and later ones share it
    (tmp_path / "run.json").write_text('{"n": 3}')
    build_parser.cache_clear()
    for _ in range(2):
        assert run(capsys, "eval", *CONFIG_RUNS["eval"])[0] == 0
        assert run(capsys, "mobs", "--problem", "or", "--budgets", "2",
                   "--config", str(tmp_path / "run.json"))[0] == 0
    assert build_parser.cache_info().misses == 0
    for _ in range(2):
        assert run(capsys, "mobs", "--prob", "or", "--n", "2", "--budgets", "2")[0] == 0
    assert (build_parser.cache_info().misses, build_parser.cache_info().hits) == (1, 1)


def _main_outcome(argv, output):
    """(exit code, stdout, stderr, --output file text) of one main call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = exc.code
    written = output.read_text() if output.exists() else None
    output.unlink(missing_ok=True)
    return code, out.getvalue(), err.getvalue(), written


# the values a drawn flag without choices may take, by its type: ones the
# type reads and ones it refuses
_DRAWN_VALUES = {int: ["0", "1", "2", "x", "2.5", " 2"], float: ["0", "2.5", "nan", "inf", "x"],
                 None: ["1,2", "01", "1,0", "2x1", "", "x"]}


@st.composite
def _command_lines(draw, files):
    """Command lines over the declared flags: half of them plain (a known
    command, a run of CONFIG_RUNS, then flags each with a value), the rest
    mixing in unknown commands, abbreviations, --flag=value, help, odd
    token counts and values that start with "-"."""
    plain = draw(st.booleans())
    command = draw(st.sampled_from(list(_FLAGS) if plain else
                                   [*_FLAGS, "nope", "mob", "-h", "--version"]))
    flags = _FLAGS.get(command, _FLAGS["mobs"])[1]
    argv = [command, *CONFIG_RUNS[command]] if plain else [command]
    for _ in range(draw(st.integers(0, 3 if plain else 5))):
        text = draw(st.sampled_from(sorted(flags)))
        flag = flags[text]
        values = [*(flag.choices or _DRAWN_VALUES[flag.type]), "bogus"]
        if not plain:
            values += ["-1", "-x"]
        value = draw(st.sampled_from(files.get(flag.dest) or values))  # no stray files
        form = "pair" if plain else draw(st.sampled_from(
            ["pair", "pair", "prefix", "equals", "flag", "value", "-h", "--version", "--bogus"]))
        argv += {"pair": [text, value], "prefix": [text[:-1], value],
                 "equals": [f"{text}={value}"], "flag": [text],
                 "value": [value]}.get(form, [form])
    return argv


@pytest.fixture(scope="module")
def drawn_files(tmp_path_factory):
    """Files the drawn --table, --config and --output values name."""
    root = tmp_path_factory.mktemp("drawn")
    table_to_csv(truth_table(or_problem(2)), root / "or2.csv")
    (root / "run.json").write_text('{"n": 2, "problem": "ue"}')
    return {"table": [str(root / "or2.csv")],
            "config": [str(root / "run.json"), str(root / "absent.json")],
            "output": [str(root / "out.txt")]}


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_plain_reader_is_argparse(drawn_files, data):
    # wherever the direct reader answers, it answers as argparse, key order
    # included; everywhere main exits, prints and writes as it does with
    # argparse reading every command line
    argv = data.draw(_command_lines(drawn_files))
    plain = _read_plain(argv)
    if plain is not None:
        parsed = build_parser().parse_args(argv)
        assert repr(list(vars(plain).items())) == repr(list(vars(parsed).items()))  # nan too
    output = Path(drawn_files["output"][0])
    outcome = _main_outcome(argv, output)
    with mock.patch("inexact.cli._read_plain", return_value=None):
        assert _main_outcome(argv, output) == outcome


def test_mobs_csv_row(capsys):
    code, out, _ = run(capsys, "mobs", "--problem", "or", "--n", "4",
                       "--format", "csv")
    assert code == 0
    _, header, lines = csv_body(out)
    assert header == "problem,n,mobs,mode"
    assert lines == ["or,4,1,exact"]


@pytest.mark.parametrize("budget", ["nan", "inf"])
def test_mobs_rejects_a_budget_that_is_not_finite(capsys, budget):
    code, out, err = run(capsys, "mobs", "--problem", "be", "--n", "4",
                         "--budgets", budget)
    assert code == 2 and out == ""
    assert err == "error: budget grid must be nonempty with finite budgets >= 0\n"


# sha256 of JSON mobs outputs through each branch of the per-budget price
# step: a per-input metric under the symmetric group, a pair-weighted metric,
# a pair-weighted metric under a generated group, and seeded Monte Carlo
# probes under a generated group (re-recorded when the clairvoyant side's
# identity draws went to one uniform per block of 8 bits, and again when the
# generated draws did; the sides share the generator, so both sides'
# estimates moved each time: the price read 4 with generated coins and
# reads inf now, where the exact price is 1, as a 2,000-sample ratio on
# rows whose errors are rare reads noise).  comparison-3 was re-recorded when
# its clairvoyant side became the top-down equalizer in place of a descent:
# the price moved from 2.51111298996 to 2.51111929956.  The Monte Carlo
# digest was re-recorded when each side came to draw one pattern stream per
# budget shared by all its probe rows: the price still reads inf (the last
# budget's clairvoyant probes see no error), and the finite error ratios
# moved from 1.4, 3, 2 to 1.375, 2.66666666667, 1.21212121212.  It was
# re-recorded again when both sides came to read one estimate where they
# play one vector (or's champion is the uniform split, which every
# permutation fixes): every ratio reads 1 at row 0, and the price 1.0.
# sorting-2x2-generated was re-recorded when its clairvoyant side became the
# proven top-bit split in place of a descent: only cv_energies moved, at
# budgets 1, 3 and 5 from (0.75, 0.25), (2.25, 0.75) and (3.75, 1.25) on the
# two top bits to (0.5, 0.5), (1.5, 1.5) and (2.5, 2.5), both splits optimal;
# the values and the price 5.65685424949 stayed put.
PINNED_PRICES = {
    "be-6":
        (("--problem", "be", "--n", "6"),
         "1a0e15e0b4819012206864c433f360ec9b06d38253b66311a0b3191900e82d67"),
    "comparison-3":
        (("--problem", "comparison", "--k", "3"),
         "cee7670a78b9f59adffb3bf03ee4b3ebce650d79d4abda9d0c681fd11d13d18d"),
    "sorting-2x2-generated":
        (("--problem", "sorting", "--count", "2", "--width", "2", "--budgets", "1,3,5",
          "--group", "generated", "--generators", "1,0,3,2"),
         "a12126fb9d69fa433a057f63ddff5558fa61b747a2ddb8b7824dee37723d5ff2"),
    "or-6-generated-monte-carlo":
        (("--problem", "or", "--n", "6", "--group", "generated",
          "--generators", "1,2,3,4,5,0", "--mode", "monte_carlo", "--samples", "2000",
          "--seed", "2"),
         "40c9e9715dde7b59b392b89e4a9c5dd2c848e7c39d5eb765eeca96ba5c7a5ba3"),
}


@pytest.mark.parametrize("price", sorted(PINNED_PRICES))
def test_price_outputs_are_pinned(capsys, price):
    extra, digest = PINNED_PRICES[price]
    code, out, _ = run(capsys, "mobs", *extra, "--format", "json")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# sha256 of JSON mobs outputs for or and ue at n = 10 and 11 under both
# per-input metrics, recorded on the descent that scored every row of every
# stack (up to about 15 s a run on a 2-vCPU VM); both now take the uniform
# split in closed form.  All eight were re-recorded when both sides came to
# read one profile where they play one vector, the uniform split, which
# every permutation fixes: the prices read 1.0 where seven read
# 1.0000000000000002 or 1.0000000000000004 (the S_n count law's sums against
# the identity law's), and every worst_input 0.
PINNED_SYMMETRIC_PRICES = {
    "or-10-worst-correctness":
        (("--problem", "or", "--n", "10", "--metric", "worst_correctness"),
         "4f33094683171d5eec75b575b900cc5e17f224300775d0c6f212a595296af991"),
    "or-10-expected-magnitude":
        (("--problem", "or", "--n", "10", "--metric", "expected_magnitude"),
         "b548018e47284f44a1d998926e9affb5bbf2bfaf96560a4d981b715446b9e897"),
    "or-11-worst-correctness":
        (("--problem", "or", "--n", "11", "--metric", "worst_correctness"),
         "55f0ce75ce40cd578dd44a14f11654f3e2ecc37a178482a9633ab1b721fdc478"),
    "or-11-expected-magnitude":
        (("--problem", "or", "--n", "11", "--metric", "expected_magnitude"),
         "6b3c192cc9d92db230f19d65a8f2c6d7e00a467f4c2b5e0d5b5ed56ab55702dd"),
    "ue-10-worst-correctness":
        (("--problem", "ue", "--n", "10", "--metric", "worst_correctness"),
         "cd2915f77691fc6f35c9f501458dd4508d937897d5bca38fab39046bf808ac22"),
    "ue-10-expected-magnitude":
        (("--problem", "ue", "--n", "10", "--metric", "expected_magnitude"),
         "4025523521962fb028f2421d9abd2260743b7fc98b0a5fc5e36d44e11e55ce93"),
    "ue-11-worst-correctness":
        (("--problem", "ue", "--n", "11", "--metric", "worst_correctness"),
         "6db6098f3ba9c02456774f59d3c777349fa17c47cfbb6b2f4d06f8494ba96e9d"),
    "ue-11-expected-magnitude":
        (("--problem", "ue", "--n", "11", "--metric", "expected_magnitude"),
         "30f9890168c88ae4cf7a234935f3bb66382bedb19d576f92a2acc7f306c23840"),
}


@pytest.mark.parametrize("price", sorted(PINNED_SYMMETRIC_PRICES))
def test_symmetric_price_outputs_are_pinned(capsys, price):
    extra, digest = PINNED_SYMMETRIC_PRICES[price]
    code, out, _ = run(capsys, "mobs", *extra, "--format", "json")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# sha256 of JSON allocate outputs, which record the energies found and the
# evaluations the search counted: the ones-count variance, a per-input
# metric, a pair-weighted metric under the symmetric group, and the grid.
# The variance digest was re-recorded when its config line's metric went
# from null to "ue_variance"; the bytes from "result" on are the same.
PINNED_ALLOCATIONS = {
    "ue-4-variance":
        (("--problem", "ue", "--n", "4", "--budget", "6"),
         "1c0a00a82ccbd09d3f5ea44a832279d76125cc4a4b642756fb61e747481fb2da"),
    "be-5-expected-magnitude":
        (("--problem", "be", "--n", "5", "--metric", "expected_magnitude",
          "--budget", "7.5"),
         "e004fbd9604d287a0fcd23e0c99e4d70e3e6778fb977f65673bdf322db998d41"),
    "comparison-3-symmetric":
        (("--problem", "comparison", "--k", "3", "--metric", "comparison_weighted",
          "--group", "symmetric", "--budget", "6"),
         "d9014de557bf6029fcba3a881126b044ed33d4de590bb523f7d1cf9705457557"),
    "be-3-grid":
        (("--problem", "be", "--n", "3", "--metric", "expected_magnitude",
          "--budget", "4.5", "--method", "grid", "--resolution", "0.25"),
         "72fe7e22d4b3cff46c9155170ed6fbb315c2a073a7f6d192e098927260476b2f"),
}


@pytest.mark.parametrize("allocation", sorted(PINNED_ALLOCATIONS))
def test_allocate_outputs_are_pinned(capsys, allocation):
    extra, digest = PINNED_ALLOCATIONS[allocation]
    code, out, _ = run(capsys, "allocate", *extra, "--format", "json")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# flags that could not change a price, gone: searches read bits through the
# identity decoder (MAP error is not monotone in energy,
# test_mobs.py::test_map_error_is_not_monotone_in_energy), and table2 runs
# exact mobs, which draws nothing
REMOVED_FLAGS = [("mobs", "decoder", "identity"), ("allocate", "decoder", "map"),
                 ("table2", "mode", "exact"), ("table2", "samples", "10"),
                 ("table2", "seed", "1"), ("simulate", "energies_file", "energies.json")]


@pytest.mark.parametrize("command, key, value", REMOVED_FLAGS)
def test_removed_flags_exit_2(capsys, command, key, value):
    flag = f"--{key.replace('_', '-')}"
    with pytest.raises(SystemExit) as exc:
        main([command, *CONFIG_RUNS[command], flag, value])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {flag}" in capsys.readouterr().err


@pytest.mark.parametrize("command, key, value", REMOVED_FLAGS)
def test_removed_config_keys_exit_2(capsys, tmp_path, command, key, value):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({key: value}))
    code, out, err = run(capsys, command, *CONFIG_RUNS[command], "--config", str(cfg))
    assert code == 2 and out == ""
    assert err == f"error: unknown config keys: [{key!r}]\n"


@pytest.mark.parametrize("command, key, value, choices", [
    ("mobs", "problem", "zz", ["or", "ue", "be", "tribes", "comparison", "sorting", "custom"]),
    ("eval", "format", "csv", ["plain", "json"]),
    ("curve", "format", "plain", ["csv", "json"]),
    ("allocate", "metric", "x", ["ue_variance", "worst_correctness", "expected_magnitude",
                                 "comparison_weighted", "sorting_weighted"]),
    ("simulate", "mode", "fast", ["exact", "monte_carlo"]),
])
def test_config_file_values_outside_their_flag_choices_exit_2(capsys, tmp_path, command, key,
                                                              value, choices):
    # a file value is held to the choices its subcommand's flag declares
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({key: value}))
    assert run(capsys, command, "--config", str(cfg)) == \
        (2, "", f"error: config key {key!r} must be one of {choices}, got {value!r}\n")


def test_energies_config_file_prints_the_energies_flag_rows(capsys, tmp_path):
    # a {"energies": [...]} file read as --config stands where --energies-file stood
    cfg = tmp_path / "energies.json"
    cfg.write_text(json.dumps({"energies": [1, 1]}))
    argv = ["simulate", "--problem", "or", "--n", "2", "--format", "csv"]
    code, from_file, _ = run(capsys, *argv, "--config", str(cfg))
    assert code == 0
    code, from_flag, _ = run(capsys, *argv, "--energies", "1,1")
    assert code == 0
    rows = [line for line in from_file.splitlines() if not line.startswith("#")]
    assert rows == ["row,p_err", "0,0.75", "1,0.25", "2,0.25", "3,0.25"]
    assert rows == [line for line in from_flag.splitlines() if not line.startswith("#")]


@pytest.mark.parametrize("group", ["identity", "symmetric"])
def test_generators_need_a_generated_group(capsys, group):
    # a group that reads no generators would run as if none were given
    code, out, err = run(capsys, "mobs", "--problem", "or", "--n", "3", "--group", group,
                         "--generators", "1,0,2")
    assert (code, out) == (2, "")
    assert err == f"error: {group} groups take no generators\n"


# a run of each subcommand that declares conditional settings
DECLARED_RUNS = {"eval": {"problem": "or", "n": 2, "bits": "01"}, "curve": {},
                 "simulate": {"problem": "or", "n": 2, "energies": "1,1", "input": "01"},
                 "allocate": {"problem": "be", "n": 2, "budget": 2.0},
                 "mobs": {"problem": "or", "n": 2, "budgets": "2"}}
# governing setting -> each value it is tried at (every value a declaration
# lists, and one it does not) -> the flags that set it where the run does
# not, and that a run there needs; None unsets a flag of the run
GOVERNING = {
    "problem": {"or": {"problem": "or"}, "custom": {"problem": "custom"}},
    "mode": {None: {}, "exact": {"mode": "exact"}, "monte_carlo": {"mode": "monte_carlo"}},
    "energies": {None: {"energies": None, "allocation": "uniform", "budget": 2.0}, "1,1": {}},
    "metric": {"ue_variance": {}, "worst_correctness": {"metric": "worst_correctness"},
               "expected_magnitude": {"metric": "expected_magnitude"},
               "comparison_weighted": {"metric": "comparison_weighted", "problem": "comparison",
                                       "n": None, "k": 1},
               "sorting_weighted": {"metric": "sorting_weighted", "problem": "sorting",
                                    "n": None, "count": 2, "width": 1}},
    "method": {"coordinate_descent": {}, "grid": {"method": "grid"}},
    "vdd": {None: {}, 0.5: {"vdd": 0.5}},
}
# declared setting -> a value to give it, and what else a run that reads it needs
GIVEN = {"table": ("be2.csv", {}), "samples": (200, {}), "seed": (3, {}),
         "allocation": ("analytic", {"budget": 2.0}), "budget": (3.0, {"allocation": "uniform"}),
         "group": ("symmetric", {}), "generators": ("1,0", {"group": "generated"}),
         "resolution": (0.5, {}), "vdd_min": (0.2, {}), "vdd_max": (3.0, {}), "steps": (7, {})}
DECLARED = [(command, key, governor, value) for command, (_, _, reads) in _COMMANDS.items()
            for key, (governor, _) in reads.items() for value in GOVERNING[governor]]


def _flags(settings: dict) -> list[str]:
    return [text for key, value in settings.items() if value is not None
            for text in (f"--{key.replace('_', '-')}", str(value))]


# a setting that a subcommand reads only under certain values of another is
# refused elsewhere, from a flag and from a config file alike, and recorded
# as null there; where it is read, it runs and its default is recorded
@pytest.mark.parametrize("command, key, governor, value", DECLARED,
                         ids=[f"{c}-{k}-{g}={v}" for c, k, g, v in DECLARED])
def test_declared_settings_are_refused_where_unread(capsys, tmp_path, monkeypatch, command, key,
                                                    governor, value):
    _, defaults, reads = _COMMANDS[command]
    tried, listed = set(GOVERNING[governor]), set(reads[key][1])
    assert listed <= tried and tried - listed  # every listed value, and one more
    monkeypatch.chdir(tmp_path)
    table_to_csv(truth_table(binary_evaluation(2)), "be2.csv")
    run_flags = {**DECLARED_RUNS[command], **GOVERNING[governor][value], "format": "json"}
    given, needs = GIVEN[key]
    read = value in listed
    if read:
        code, out, err = run(capsys, command, *_flags({**run_flags, **needs, key: given}))
        assert (code, err) == (0, "")
        assert json.loads(out)["config"][key] == given
        if key not in defaults:  # the run without it needs it, or gets it from run_flags
            return
    else:
        Path("run.json").write_text(json.dumps({key: given}))
        refusal = f"error: --{key.replace('_', '-')} is not read under --{governor} {value}\n"
        for argv in (_flags({**run_flags, key: given}),
                     [*_flags(run_flags), "--config", "run.json"]):
            assert run(capsys, command, *argv) == (2, "", refusal)
    code, out, err = run(capsys, command, *_flags(run_flags))
    assert (code, err) == (0, "")
    assert json.loads(out)["config"][key] == (defaults[key] if read else None)


# --energies and an allocation each give the energies: --allocation and
# --budget are read only without --energies, so the pair is refused, from
# flags and from a config file alike
@pytest.mark.parametrize("extra", [{"allocation": "uniform", "budget": 9},
                                   {"allocation": "uniform"}, {"budget": 9}])
def test_energies_take_no_allocation_or_budget(capsys, tmp_path, extra):
    argv = ["simulate", "--problem", "or", "--n", "2", "--format", "csv"]
    flags = [text for key, value in extra.items() for text in (f"--{key}", str(value))]
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"energies": [1, 1], **extra}))
    for given in ([*argv, "--energies", "1,1", *flags], [*argv, "--config", str(cfg)]):
        code, out, err = run(capsys, *given)
        assert (code, out) == (2, "")
        assert err == f"error: --{next(iter(extra))} is not read under --energies 1,1\n"


# allocate reads --group and --generators only under an error metric, and
# --resolution only under --method grid: a value given elsewhere would be
# dropped, so it is refused, from flags and from a config file alike
@pytest.mark.parametrize("extra, key, setting", [
    ({"group": "generated"}, "group", "--metric ue_variance"),
    ({"group": "identity"}, "group", "--metric ue_variance"),
    ({"generators": "1,0,2"}, "generators", "--metric ue_variance"),
    ({"resolution": 0.1}, "resolution", "--method coordinate_descent"),
    ({"metric": "expected_magnitude", "resolution": 0.1}, "resolution",
     "--method coordinate_descent"),
], ids=["group", "default-group", "generators", "resolution", "resolution-error-metric"])
def test_allocate_refuses_values_it_does_not_read(capsys, tmp_path, extra, key, setting):
    argv = ["allocate", "--problem", "be", "--n", "3", "--budget", "6", "--format", "csv"]
    flags = [text for name, value in extra.items() for text in (f"--{name}", str(value))]
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps(extra))
    for given in ([*argv, *flags], [*argv, "--config", str(cfg)]):
        code, out, err = run(capsys, *given)
        assert (code, out) == (2, "")
        assert err == f"error: --{key} is not read under {setting}\n"


# an explicit --mode exact draws nothing, so --samples and --seed given
# there would be dropped: refused from flags and a config file alike
@pytest.mark.parametrize("key, value", [("samples", 500), ("seed", 3), ("seed", 0)],
                         ids=["samples", "seed", "default-seed"])
@pytest.mark.parametrize("argv", [
    ["mobs", "--problem", "or", "--n", "3", "--budgets", "3"],
    ["simulate", "--problem", "or", "--n", "3", "--allocation", "uniform", "--budget", "3"],
], ids=["mobs", "simulate"])
def test_exact_mode_refuses_sampling_values(capsys, tmp_path, argv, key, value):
    argv = [*argv, "--mode", "exact", "--format", "csv"]
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({key: value}))
    for given in ([*argv, f"--{key}", str(value)], [*argv, "--config", str(cfg)]):
        code, out, err = run(capsys, *given)
        assert (code, out) == (2, "")
        assert err == f"error: --{key} is not read under --mode exact\n"


@pytest.mark.parametrize("mode", [None, "exact"])
@pytest.mark.parametrize("argv", [
    ["mobs", "--problem", "or", "--n", "3", "--budgets", "3"],
    ["simulate", "--problem", "or", "--n", "3", "--allocation", "uniform", "--budget", "3"],
], ids=["mobs", "simulate"])
def test_sampling_defaults_are_recorded_and_auto_mode_reads_them(capsys, argv, mode):
    extra = [] if mode is None else ["--mode", mode]
    code, out, _ = run(capsys, *argv, *extra, "--format", "json")
    assert code == 0
    config = json.loads(out)["config"]
    # an explicit --mode exact reads neither, so records neither
    assert (config["samples"], config["seed"]) == ((100_000, 0) if mode is None else (None, None))
    if mode is None:  # auto mode takes both, whichever mode then runs
        code, out, _ = run(capsys, *argv, "--samples", "500", "--seed", "3", "--format", "json")
        assert code == 0
        config = json.loads(out)["config"]
        assert (config["samples"], config["seed"], config["mode"]) == (500, 3, "exact")


@pytest.mark.parametrize("extra, group, resolution", [
    ((), None, None),
    (("--method", "grid"), None, 0.05),
    (("--metric", "expected_magnitude"), "identity", None),
    (("--metric", "expected_magnitude", "--method", "grid"), "identity", 0.05),
], ids=["variance", "variance-grid", "error-metric", "error-metric-grid"])
def test_allocate_records_a_default_only_where_read(capsys, extra, group, resolution):
    code, out, _ = run(capsys, "allocate", "--problem", "be", "--n", "3", "--budget", "6",
                       *extra, "--format", "json")
    assert code == 0
    config = json.loads(out)["config"]
    assert (config["group"], config["resolution"]) == (group, resolution)


def test_removed_names_are_gone():
    from inexact import cli
    for name in ("_refuse_map_search", "EXACT_AUTO_LIMIT", "_auto_mode",
                 "closed_form_champion", "DECODE_BITS_LIMIT"):
        assert not hasattr(cli, name), name
    for module, name in (("noise", "load_energies"), ("noise", "save_energies"),
                         ("mobs", "pair_wrong_probability"), ("bits", "_BYTE_ONES"),
                         ("noise", "sample_observation"), ("noise", "sample_observations"),
                         ("noise", "observation_distribution"),
                         ("noise", "equivalent_energy"), ("bits", "format_bits"),
                         ("decoders", "build_decoder"), ("allocators", "optimize_allocation"),
                         ("problems", "comparison_values"), ("problems", "sorting_values"),
                         ("problems", "unpack_sorting_output"),
                         ("allocators", "staircase_allocation"),
                         ("allocators", "comparison_allocation"),
                         ("mobs", "be_analytic_bounds"), ("mobs", "closed_form_champion"),
                         ("allocators", "water_filled_ramp")):
        assert not hasattr(importlib.import_module(f"inexact.{module}"), name), name
    package = importlib.import_module("inexact")
    assert not hasattr(package.EnergyVector, "permuted")
    for name in ("sample_observation", "observation_distribution", "optimize_allocation",
                 "staircase_allocation", "comparison_allocation", "be_analytic_bounds",
                 "water_filled_ramp"):
        assert not hasattr(package, name), name
    assert not hasattr(package.TruthTable, "output")
    assert not hasattr(package.Decoder, "decode")
    assert [f.name for f in dataclasses.fields(package.Decoder)] == ["decode_map"]
    assert list(inspect.signature(package.custom_problem).parameters) == ["outputs"]
    assert "output_bound" not in {f.name for f in dataclasses.fields(package.BooleanProblem)}
    assert not hasattr(package.GeneratedGroup(2, [(1, 0)]), "generators")
    assert list(inspect.signature(table2_rows).parameters) == \
        ["sizes", "comparison_widths", "sorting_shapes"]


def test_mobs_json_has_budget_outcomes(capsys):
    code, out, _ = run(capsys, "mobs", "--problem", "be", "--n", "2",
                       "--budgets", "2,3")
    assert code == 0
    body = json.loads(out)["result"]
    assert body["metric"] == "expected_magnitude"
    assert [o["budget"] for o in body["per_budget"]] == [2.0, 3.0]
    assert body["mobs"] >= 1.0


def test_exact_mode_resource_guard_exits_3(capsys):
    # ue's kernels cost 4**n, so an exact report refuses past 14 bits
    code, _, err = run(capsys, "simulate", "--problem", "ue", "--n", "16",
                       "--allocation", "uniform", "--budget", "16",
                       "--mode", "exact")
    assert code == 3 and "resource limit" in err


def test_auto_monte_carlo_report_guard_exits_3(capsys):
    # without --mode, ue at n=16 falls back to monte carlo; the full sweep
    # must refuse up front instead of launching 2**16 rows x 1e5 samples
    code, _, err = run(capsys, "simulate", "--problem", "ue", "--n", "16",
                       "--allocation", "uniform", "--budget", "16")
    assert code == 3 and "resource limit" in err


S8_ON_12_BITS = "1,0,2,3,4,5,6,7,8,9,10,11;1,2,3,4,5,6,7,0,8,9,10,11"


def test_offset_ramp_reports_exactly_as_the_ramp(capsys, tmp_path):
    # the identity decoder cancels a ramp's offset, so the table 5 .. 4100
    # takes the ramp kernel: under S_8 on the low 8 bits its report runs
    # exact (its law is over the generated group's guard and a sampled
    # report over the cap), its rows are those of 0 .. 4095, and one row
    # read alone is the report's row
    reports = []
    for offset in (5, 0):
        path = tmp_path / f"ramp{offset}.csv"
        table_to_csv(TruthTable(12, np.arange(1 << 12) + offset), path)
        argv = ("simulate", "--problem", "custom", "--table", str(path), "--loss", "absolute",
                "--allocation", "uniform", "--budget", "39", "--group", "generated",
                "--generators", S8_ON_12_BITS, "--format", "csv")
        code, out, _ = run(capsys, *argv)
        comments, header, lines = csv_body(out)
        assert code == 0 and '"mode":"exact"' in comments[2]
        reports.append(lines)
        code, out, _ = run(capsys, *argv, "--input", "001101111110")
        assert code == 0 and csv_body(out)[2] == [lines[894]]
    assert reports[0] == reports[1] and len(reports[0]) == 1 << 12


def test_custom_tables_past_the_decode_limit_take_the_built_in_guards(capsys, tmp_path):
    # a custom table has the 20-bit bound of every truth table, so at 16
    # bits it runs what a built-in table of its shape runs: the offset ramp
    # prices exactly as be (the water fill, through the ramp rows), the 0/2
    # lone table at 1 by proof, and a many-valued table refuses its exact
    # report past the 14-bit guard of the dense kernels, while one of its
    # rows, one law and one gather, runs exact
    rows = np.arange(1 << 16)
    paths = {}
    for name, outputs in (("ramp", rows + 5), ("lone", np.where(rows == 0, 0, 2)),
                          ("mod400", rows % 400)):
        paths[name] = tmp_path / f"{name}.csv"
        table_to_csv(TruthTable(16, outputs), paths[name])
    prices = []
    for problem in (("--problem", "custom", "--table", str(paths["ramp"])),
                    ("--problem", "be", "--n", "16")):
        code, out, _ = run(capsys, "mobs", *problem, "--metric", "expected_magnitude",
                           "--format", "json")
        assert code == 0
        prices.append({k: v for k, v in json.loads(out)["result"].items()
                       if k not in ("problem", "kind")})
    assert prices[0] == prices[1]
    code, out, _ = run(capsys, "mobs", "--problem", "custom", "--table", str(paths["ramp"]),
                       "--metric", "expected_magnitude", "--budgets", "40", "--format", "csv")
    assert code == 0 and csv_body(out)[2] == ["custom,16,16.370564431,exact"]
    code, out, _ = run(capsys, "mobs", "--problem", "custom", "--table", str(paths["lone"]),
                       "--format", "csv")
    assert code == 0 and csv_body(out)[2] == ["custom,16,1,exact"]
    report = ("simulate", "--problem", "custom", "--table", str(paths["mod400"]),
              "--allocation", "uniform", "--budget", "40", "--format", "csv")
    code, out, err = run(capsys, *report, "--mode", "exact")
    assert code == 3 and out == "" and "n <= 14" in err
    code, out, err = run(capsys, *report, "--input", "0000000110010000")
    comments, header, lines = csv_body(out)
    assert (code, err) == (0, "") and '"mode":"exact"' in comments[2]
    assert header == "row,p_err" and len(lines) == 1 and lines[0].startswith("400,")


def test_custom_outputs_past_the_int64_bound_exit_2(capsys, tmp_path):
    # every difference of two outputs must fit in int64, so a table holding
    # 2**64 is refused as malformed input, not as a traceback
    path = tmp_path / "big.csv"
    path.write_text("b_0,output\n0,0\n1,18446744073709551616\n")
    code, _, err = run(capsys, "mobs", "--problem", "custom", "--table", str(path))
    assert code == 2 and "2**62" in err
    path.write_text(f"b_0,output\n0,{2**63 - 1}\n1,{-2**63}\n")
    code, _, err = run(capsys, "simulate", "--problem", "custom", "--table", str(path),
                       "--loss", "absolute", "--energies", "1")
    assert code == 2 and "2**62" in err


def test_malformed_and_oversized_csv_tables_exit_2_and_3(capsys, tmp_path):
    # a bit cell of -1 or 256 is malformed input like 2 (not a traceback
    # from a narrow cast), and a header over 20 bits is a resource limit,
    # refused before the rows are read
    path = tmp_path / "table.csv"
    for cell in (2, -1, 256):
        path.write_text(f"b_1,b_0,output\n0,0,3\n0,1,4\n1,0,5\n1,{cell},6\n")
        code, out, err = run(capsys, "mobs", "--problem", "custom", "--table", str(path))
        assert (code, out) == (2, "") and "must be 0 or 1" in err, cell
    path.write_text(",".join(f"b_{j}" for j in range(20, -1, -1)) + ",output\n")
    code, out, err = run(capsys, "mobs", "--problem", "custom", "--table", str(path))
    assert (code, out) == (3, "") and "n <= 20" in err


def test_auto_mode_prices_be_exactly_up_to_twenty_bits(capsys):
    # be's clairvoyant champion is closed form under both per-input metrics
    # (the ramp, and the uniform split, every output being lone), and both
    # sides' rows come from product laws through the ramp kernel (at the
    # uniform split, the worst row's closed form), so without
    # --mode its price is exact through n = 20, under the S_8 group on 12
    # bits too (whose exact law is over the generated group's guard); at
    # n = 21 the exact attempt and Monte Carlo both refuse
    for extra, want in ((("--n", "12"), "be,12,9.15597515287,exact"),
                        (("--n", "12", "--metric", "worst_correctness"), "be,12,1,exact"),
                        (("--n", "12", "--budgets", "39", "--group", "generated",
                          "--generators", S8_ON_12_BITS), "be,12,9.15597515287,exact"),
                        (("--n", "15"), "be,15,18.7190272342,exact"),
                        (("--n", "20"), "be,20,76.8927586012,exact")):
        code, out, _ = run(capsys, "mobs", "--problem", "be", *extra, "--format", "csv")
        assert code == 0
        comments, header, lines = csv_body(out)
        assert lines == [want]
        assert '"mode":"exact"' in comments[2]
    code, out, err = run(capsys, "mobs", "--problem", "be", "--n", "21", "--samples", "200",
                         "--format", "csv")
    assert code == 3 and out == "" and "resource limit" in err


def test_auto_mode_reports_be_exactly_under_a_group_past_the_law_guard(capsys):
    # S_8's exact law over 2**12 patterns is over the generated group's
    # guard, and a full sampled report over the Monte Carlo report cap, but
    # be's ramp rows read the group's top-bit moments and no law, so the
    # auto report runs exact
    code, out, err = run(capsys, "simulate", "--problem", "be", "--n", "12", "--loss",
                         "absolute", "--allocation", "analytic", "--budget", "39",
                         "--group", "generated", "--generators", S8_ON_12_BITS,
                         "--format", "csv")
    assert (code, err) == (0, "")
    comments, header, lines = csv_body(out)
    assert '"mode":"exact"' in comments[2]
    assert len(lines) == 4096
    # a single row reads ramp_profile too, so it runs exact and prints the
    # report's row (it sampled 90.2567 +- 1.0227 off the 2**12 law's guard)
    code, one, err = run(capsys, "simulate", "--problem", "be", "--n", "12", "--loss",
                         "absolute", "--allocation", "analytic", "--budget", "39",
                         "--group", "generated", "--generators", S8_ON_12_BITS,
                         "--input", "001101111110", "--format", "csv")
    assert (code, err) == (0, "")
    comments, header, row = csv_body(one)
    assert '"mode":"exact"' in comments[2]
    assert row == [lines[894]] == ["894,90.6863867935"]


@pytest.mark.parametrize("n", ["11", "12"])
def test_auto_mode_reports_exactly_where_the_exact_path_runs(capsys, n):
    # an n = 12 auto report exited 3 on the Monte Carlo report cap, and an
    # n = 11 one sampled for seconds; both are the exact report now
    argv = ("simulate", "--problem", "or", "--n", n, "--allocation", "uniform",
            "--budget", n, "--format", "csv")
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert '"mode":"exact"' in csv_body(out)[0][2]
    code, exact, err = run(capsys, *argv, "--mode", "exact")
    assert (code, err) == (0, "")
    auto, exact = out.split("\n"), exact.split("\n")
    # all but the config lines (its sha256, then the config) are the same
    assert auto[:1] + auto[3:] == exact[:1] + exact[3:]
    auto, exact = (json.loads(lines[2][len("# config="):]) for lines in (auto, exact))
    # explicit exact mode reads, so records, no sampling values
    assert {key for key in auto if auto[key] != exact[key]} == {"samples", "seed"}


@pytest.mark.parametrize("argv, mode", [
    (("mobs", "--problem", "ue", "--n", "12", "--budgets", "39"), "exact"),
    (("simulate", "--problem", "ue", "--n", "12", "--allocation", "uniform", "--budget", "12",
      "--input", "000000000111"), "monte_carlo"),
], ids=["mobs-ue-12", "simulate-ue-12-input"])
def test_auto_mode_samples_where_the_group_guard_refuses(capsys, monkeypatch, argv, mode):
    # S_8's exact average over 2**12 patterns is over the generated group's
    # guard, so the exact row refuses, with no descent, and sampling runs
    # (be reads no group law: its rows come from the group's top-bit
    # moments).  ue's price reads no group law either: both sides play the
    # uniform split, whose worst row is closed form, so it runs exact
    mobs_module = importlib.import_module("inexact.mobs")

    def refusing(*args, **kwargs):
        raise AssertionError("the exact attempt descended")

    monkeypatch.setattr(mobs_module, "coordinate_descent", refusing)
    code, out, _ = run(capsys, *argv, "--group", "generated", "--generators", S8_ON_12_BITS,
                       "--samples", "200", "--format", "csv")
    assert code == 0
    comments, _, lines = csv_body(out)
    assert f'"mode":"{mode}"' in comments[2]
    if argv[0] == "mobs":
        assert lines == ["ue,12,1,exact"]


def test_auto_mobs_that_falls_back_builds_one_truth_table_per_attempt(capsys, monkeypatch):
    # the exact attempt builds its table, then ErrorAnalysis refuses past
    # the decode limit, and the sampled run builds its own
    mobs_module = importlib.import_module("inexact.mobs")
    built = []
    real = mobs_module.truth_table

    def counting(problem):
        built.append(problem.name)
        return real(problem)

    monkeypatch.setattr(mobs_module, "truth_table", counting)
    code, out, _ = run(capsys, "mobs", "--problem", "tribes", "--n", "16", "--budgets", "68",
                       "--samples", "100", "--format", "csv")
    assert code == 0 and csv_body(out)[2][0].endswith(",monte_carlo")
    assert built == ["tribes2", "tribes2"]


@pytest.mark.parametrize("argv, sampled", [
    (("mobs", "--problem", "be", "--n", "6"), False),
    (("mobs", "--problem", "or", "--n", "4", "--mode", "exact"), False),
    (("mobs", "--problem", "tribes", "--n", "16", "--budgets", "68", "--samples", "100"), True),
    (("mobs", "--problem", "or", "--n", "6", "--mode", "monte_carlo", "--samples", "100"), True),
    (("simulate", "--problem", "or", "--n", "6", "--allocation", "uniform", "--budget", "6"),
     False),
    (("simulate", "--problem", "or", "--n", "6", "--allocation", "uniform", "--budget", "6",
      "--mode", "monte_carlo", "--samples", "100"), True),
], ids=["mobs-auto-exact", "mobs-exact", "mobs-auto-sampled", "mobs-sampled",
        "simulate-auto-exact", "simulate-sampled"])
def test_only_a_sampled_run_builds_a_generator(capsys, monkeypatch, argv, sampled):
    # exact runs draw nothing; a sampled one, auto-mode fallback included,
    # builds one generator from the seed when it starts
    cli = importlib.import_module("inexact.cli")
    built = []
    real = cli._rng_from

    def counting(cfg):
        built.append(cfg["seed"])
        return real(cfg)

    monkeypatch.setattr(cli, "_rng_from", counting)
    code, _, _ = run(capsys, *argv, "--format", "csv")
    assert code == 0
    assert built == ([0] if sampled else [])


def test_exact_mobs_without_the_loss_matrix_exits_3(capsys):
    code, out, err = run(capsys, "mobs", "--problem", "tribes", "--n", "12", "--mode", "exact")
    assert code == 3 and out == ""
    assert "kept loss matrix" in err


def test_or_reports_and_prices_exactly_through_the_pattern_law(capsys):
    # or's lone output takes the law kernel: exact rows up to 20 bits, one
    # row read alone prints the report's row, and exact mobs prices it
    # where it sampled or refused past 11 bits
    argv = ("simulate", "--problem", "or", "--n", "12", "--allocation", "uniform",
            "--budget", "78", "--format", "csv")
    code, out, _ = run(capsys, *argv)
    lines = csv_body(out)[2]
    assert code == 0 and lines[3966] == "3966,2.65094202937e-20"
    for bits, i in (("111101111110", 3966), ("000000000000", 0)):
        code, one, _ = run(capsys, *argv, "--input", bits)
        assert code == 0 and csv_body(one)[2] == [lines[i]]
    code, out, err = run(capsys, "simulate", "--problem", "or", "--n", "20", "--allocation",
                         "uniform", "--budget", "40", "--format", "csv")
    comments, _, lines = csv_body(out)
    assert (code, err) == (0, "") and '"mode":"exact"' in comments[2]
    assert len(lines) == 1 << 20
    for n in ("12", "14"):
        code, out, _ = run(capsys, "mobs", "--problem", "or", "--n", n, "--format", "csv")
        assert code == 0 and csv_body(out)[2] == [f"or,{n},1,exact"]


def test_sampled_pair_weighted_mobs_exits_2(capsys):
    code, out, err = run(capsys, "mobs", "--problem", "comparison", "--k", "2",
                         "--mode", "monte_carlo", "--samples", "50", "--seed", "3")
    assert code == 2 and out == ""
    assert "per-input metrics only" in err
    # auto and exact mode still price it exactly
    for extra in ((), ("--mode", "exact")):
        code, out, _ = run(capsys, "mobs", "--problem", "comparison", "--k", "2",
                           "--budgets", "3", *extra, "--format", "csv")
        assert code == 0 and csv_body(out)[2] == ["comparison2,4,1.76776695297,exact"]


def test_config_file_round_trip(capsys, tmp_path):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"problem": "be", "n": 3, "bits": "101"}))
    code, out, _ = run(capsys, "eval", "--config", str(cfg))
    assert code == 0 and out == "5\n"
    # explicit flags override the file
    code, out, _ = run(capsys, "eval", "--config", str(cfg), "--bits", "111")
    assert code == 0 and out == "7\n"


# (subcommand, its other flags, integer config key)
INTEGER_KEYS = [
    ("eval", ["--bits", "101", "--problem", "be", "--format", "json"], "n"),
    ("simulate", ["--problem", "or", "--n", "2", "--energies", "1,1", "--input", "01",
                  "--mode", "monte_carlo", "--samples", "100"], "seed"),
    ("mobs", ["--problem", "or", "--n", "3", "--budgets", "3", "--mode", "monte_carlo",
              "--seed", "1"], "samples"),
    ("curve", ["--format", "json"], "steps"),
]


@pytest.mark.parametrize("command, argv, key", INTEGER_KEYS)
def test_config_file_integers_are_whole(capsys, tmp_path, command, argv, key):
    # an int, an integral float and integer text read alike; a fraction,
    # other text or a boolean is refused by its key before any output
    cfg = tmp_path / "run.json"
    results = []
    for value in (3, 3.0, "3"):
        cfg.write_text(json.dumps({key: value}))
        code, out, err = run(capsys, command, *argv, "--config", str(cfg))
        assert (code, err) == (0, "")
        results.append(json.loads(out)["result"])
    assert results[0] == results[1] == results[2]
    for value in (3.9, 2.5, "3.0", "three", True, [3]):
        cfg.write_text(json.dumps({key: value}))
        code, out, err = run(capsys, command, *argv, "--config", str(cfg))
        assert (code, out) == (2, "")
        assert f"config key {key!r} must be an integer" in err


# float key, its subcommand and a config file that gives a JSON boolean under
# the key, alone or as a list item
BOOLEAN_ITEMS = [
    pytest.param("budgets", "mobs", {"problem": "or", "n": 2, "budgets": [True]},
                 id="budgets"),
    pytest.param("energies", "simulate", {"problem": "or", "n": 2, "energies": [True, 1],
                                          "input": "01"}, id="energies"),
    pytest.param("budget", "simulate", {"problem": "or", "n": 2, "allocation": "uniform",
                                        "budget": True}, id="budget-simulate"),
    pytest.param("budget", "allocate", {"problem": "or", "n": 2, "budget": True},
                 id="budget-allocate"),
    pytest.param("resolution", "allocate", {"problem": "or", "n": 2, "budget": 2,
                                            "resolution": True}, id="resolution"),
    pytest.param("sigma", "curve", {"sigma": True}, id="sigma"),
    pytest.param("vdd", "curve", {"vdd": True}, id="vdd"),
    pytest.param("vdd_min", "curve", {"vdd_min": True}, id="vdd_min"),
    pytest.param("vdd_max", "curve", {"vdd_max": True}, id="vdd_max"),
]


@pytest.mark.parametrize("key, command, body", BOOLEAN_ITEMS)
def test_config_file_float_items_refuse_booleans(capsys, tmp_path, key, command, body):
    # float() reads true as 1.0; a boolean value or item is refused by its
    # key, not run
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps(body))
    code, out, err = run(capsys, command, "--config", str(cfg))
    assert (code, out) == (2, "")
    assert f"config key {key!r} must be a number, got True" in err


# float key, its subcommand and argv that gives text or a list that is not a
# number under the key, in a config file or a flag
NOT_NUMBERS = [
    pytest.param("budget", ["simulate", "--problem", "or", "--n", "2", "--allocation", "uniform"],
                 {"budget": "abc"}, id="budget-text"),
    pytest.param("budget", ["simulate", "--problem", "or", "--n", "2", "--allocation", "uniform"],
                 {"budget": [3]}, id="budget-list"),
    pytest.param("budget", ["allocate", "--problem", "or", "--n", "2"], {"budget": {}},
                 id="budget-object"),
    pytest.param("budgets", ["mobs", "--problem", "or", "--n", "2"], {"budgets": ["x"]},
                 id="budgets-item"),
    pytest.param("energies", ["simulate", "--problem", "or", "--n", "2", "--energies", "1,x"],
                 None, id="energies-flag"),
]


@pytest.mark.parametrize("key, argv, body", NOT_NUMBERS)
def test_float_values_that_are_not_numbers_name_their_key(capsys, tmp_path, key, argv, body):
    if body is not None:
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps(body))
        argv = [*argv, "--config", str(cfg)]
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert f"config key {key!r} must be a number, got " in err


def test_config_file_values_echo_as_their_flags_give_them(capsys, tmp_path):
    # each file value is read by its flag's type, so the config lines (and
    # their sha256) are the ones the same flags write
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"budget": 3, "n": 3.0, "seed": "0"}))
    argv = ["simulate", "--problem", "or", "--allocation", "uniform", "--format", "csv"]
    code, from_file, _ = run(capsys, *argv, "--config", str(cfg))
    assert code == 0
    code, from_flags, _ = run(capsys, *argv, "--budget", "3", "--n", "3", "--seed", "0")
    assert code == 0
    assert from_file == from_flags
    assert all(f in from_file for f in ('"budget":3.0,', '"n":3,', '"seed":0,'))


def test_config_file_rejects_unknown_keys(capsys, tmp_path):
    cfg = tmp_path / "run.json"
    # nor may a file name another config file or the subcommand it runs under
    for key, value in (("fuzziness", 3), ("config", "other.json"), ("command", "mobs")):
        cfg.write_text(json.dumps({"problem": "be", "n": 3, "bits": "101", key: value}))
        code, out, err = run(capsys, "eval", "--config", str(cfg))
        assert (code, out) == (2, "") and f"unknown config keys: [{key!r}]" in err

    cfg.write_text("[1, 2]")
    code, _, _ = run(capsys, "eval", "--config", str(cfg))
    assert code == 2

    code, _, _ = run(capsys, "eval", "--config", str(tmp_path / "missing.json"))
    assert code == 2


# list flag -> (subcommand, its other flags, the flag's text, the same as a JSON list)
LIST_FLAGS = {
    "budgets": ("mobs", ["--problem", "be", "--n", "3"], "2,4.5", [2, 4.5]),
    "energies": ("simulate", ["--problem", "be", "--n", "3"], "0.5,1,2", [0.5, 1, 2]),
    "generators": ("mobs", ["--problem", "or", "--n", "3", "--group", "generated"],
                   "1,2,0;0,2,1", [[1, 2, 0], [0, 2, 1]]),
    "sizes": ("table2", ["--comparison-widths", "2", "--sorting-shapes", "2x1"],
              "2,3", [2, 3]),
    "comparison_widths": ("table2", ["--sizes", "2", "--sorting-shapes", "2x1"],
                          "1,2", [1, 2]),
    "sorting_shapes": ("table2", ["--sizes", "2", "--comparison-widths", "2"],
                       "2x1;2x2", [[2, 1], [2, 2]]),
}


@pytest.mark.parametrize("key", sorted(LIST_FLAGS))
def test_config_file_lists_read_as_the_comma_text(capsys, tmp_path, key):
    command, argv, text, listed = LIST_FLAGS[key]
    code, out, _ = run(capsys, command, *argv, f"--{key.replace('_', '-')}", text,
                       "--format", "json")
    assert code == 0
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({key: listed}))
    code, from_file, _ = run(capsys, command, *argv, "--config", str(cfg),
                             "--format", "json")
    assert code == 0
    assert json.loads(from_file)["config"][key] == listed
    assert json.loads(from_file)["result"] == json.loads(out)["result"]


# integer list key -> a config file that lists one fraction under it
FRACTIONAL_ITEMS = {
    "sizes": ("table2", {"sizes": [2.7], "comparison_widths": [2],
                         "sorting_shapes": [[2, 1]]}),
    "comparison_widths": ("table2", {"sizes": [2], "comparison_widths": [2.5],
                                     "sorting_shapes": [[2, 1]]}),
    "sorting_shapes": ("table2", {"sizes": [2], "comparison_widths": [2],
                                  "sorting_shapes": [[2, 1.5]]}),
    "generators": ("simulate", {"problem": "or", "n": 2, "energies": [1, 1], "input": "01",
                                "group": "generated", "generators": [[1.5, 0]]}),
}


@pytest.mark.parametrize("key", sorted(FRACTIONAL_ITEMS))
def test_config_file_list_items_are_whole(capsys, tmp_path, key):
    # list items follow the integer keys' rule: a fraction is refused, not truncated
    command, body = FRACTIONAL_ITEMS[key]
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps(body))
    code, out, err = run(capsys, command, "--config", str(cfg))
    assert (code, out) == (2, "")
    assert f"config key {key!r} must be an integer" in err


def test_config_file_values_obey_the_flag_choices(capsys, tmp_path):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"mode": "bogus"}))
    code, out, err = run(capsys, "simulate", "--problem", "or", "--n", "2",
                         "--energies", "1,1", "--input", "01", "--samples", "100",
                         "--format", "csv", "--config", str(cfg))
    assert code == 2 and out == ""
    assert "'mode'" in err and "'bogus'" in err


def test_config_file_null_format_falls_back_to_the_default(capsys, tmp_path):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"format": None}))
    code, out, _ = run(capsys, "mobs", *CONFIG_RUNS["mobs"], "--config", str(cfg))
    assert code == 0
    assert json.loads(out)["config"]["format"] == "json"
    assert (code, out) == run(capsys, "mobs", *CONFIG_RUNS["mobs"])[:2]


def test_config_file_null_seed_falls_back_to_the_default(capsys, tmp_path):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"seed": None}))
    code, out, err = run(capsys, "mobs", *CONFIG_RUNS["mobs"], "--config", str(cfg))
    assert (code, err) == (0, "")
    assert json.loads(out)["config"]["seed"] == 0
    assert out == run(capsys, "mobs", *CONFIG_RUNS["mobs"])[1]


@pytest.mark.parametrize("command", sorted(CONFIG_RUNS))
def test_config_file_format_must_be_one_the_subcommand_writes(capsys, tmp_path,
                                                              command):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"format": "xml"}))
    argv = CONFIG_RUNS[command]
    if "--format" in argv:
        argv = argv[:argv.index("--format")] + argv[argv.index("--format") + 2:]
    code, out, err = run(capsys, command, *argv, "--config", str(cfg))
    assert code == 2 and out == ""
    assert "'format'" in err and "'xml'" in err


@pytest.mark.parametrize("command, unwritten", [("mobs", "plain"), ("eval", "csv")])
def test_format_flag_offers_only_what_the_subcommand_writes(command, unwritten):
    with pytest.raises(SystemExit) as exc:
        main([command, *CONFIG_RUNS[command], "--format", unwritten])
    assert exc.value.code == 2


def test_table2_tiny_run(capsys):
    code, out, _ = run(capsys, "table2", "--sizes", "2",
                       "--comparison-widths", "2", "--sorting-shapes", "2x1")
    assert code == 0
    _, header, lines = csv_body(out)
    assert header == "problem,n,mobs,mode"
    assert len(lines) == 5
    assert lines[2] == "be,2,1.10466738707,exact"
    assert lines[3].startswith("comparison2,4,")
    assert lines[4].startswith("sorting2x1,2,")


def test_outputs_are_byte_identical_across_reruns(tmp_path):
    out = tmp_path / "run.json"
    argv = ["mobs", "--problem", "be", "--n", "2", "--budgets", "3",
            "--seed", "0", "--output", str(out)]
    assert main(argv) == 0
    first = out.read_bytes()
    assert main(argv) == 0
    assert out.read_bytes() == first


def _readme_cli_tour():
    """(argv, expected output lines) of each `$ inexact ...` command in the
    README's CLI tour; a `...` line stands for the provenance preamble."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    tour = readme.split("## CLI tour", 1)[1].split("\n## ", 1)[0]
    commands = []
    for block in tour.split("```")[1::2]:
        for line in block.strip("\n").split("\n"):
            if line.startswith("$ inexact "):
                commands.append((shlex.split(line[len("$ inexact "):]), []))
            elif line and line != "...":
                commands[-1][1].append(line)
    return commands


def test_readme_cli_tour_runs_as_shown(capsys):
    commands = _readme_cli_tour()
    assert len(commands) == 6
    for argv, expected in commands:
        code, out, _ = run(capsys, *argv)
        assert code == 0, argv
        shown = [line for line in out.split("\n") if line and not
                 line.startswith(("# version=", "# config_sha256=", "# config="))]
        assert shown == expected, argv
