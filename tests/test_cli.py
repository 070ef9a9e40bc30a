import hashlib
import json
import shlex
import warnings
from pathlib import Path

import numpy as np
import pytest

from inexact import __version__
from inexact.adversary import FullSymmetricGroup, IdentityGroup
from inexact.cli import build_parser, config_hash, emit_json, fmt, jsonable, main
from inexact.decoders import ErrorReport, error_profile, error_report, identity_decoder
from inexact.noise import energy_vector
from inexact.problems import binary_evaluation, or_problem


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
    assert fmt(3) == "3"
    assert fmt(1.0) == "1"
    # tail-sensitive values refuse to round into 0 or 1
    assert fmt(1 - 2.0 ** -50) == "0.9999999999999991"
    assert fmt(2.0 ** -60) == "8.67361737988e-19"


def test_jsonable_policy():
    tree = jsonable({"a": np.float64(0.25), "b": [np.int64(3), (1, 2)],
                     "c": float("inf"), "d": None})
    assert tree == {"a": 0.25, "b": [3, [1, 2]], "c": "inf", "d": None}
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
# draw batches) under the groups that flip each possibly rewired bit against
# its own coin.  These streams stay fixed: moving them changes every seeded
# identity- or generated-group output.  Symmetric-group draws (a flip count,
# then a subset) are checked against the oracle in tests/conftest.py instead.
PINNED_STREAMS = {
    "identity":
        ((), "0d949112a9e78c82903cec6139a1ea6a76cd09f07c339856f1326b1acb7f9c6f"),
    "generated":
        (("--generators", "1,2,3,4,5,0"),
         "3abc3b24fc80940691dbe35e70af2db85919433d5ebbfb0eb787d0a54a1f13c6"),
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


# sha256 of exact n = 12 reports whose per_input rows emit_json encodes
# without the json module: be under the absolute loss (the row-tile kernel)
# and or's MAP decoder under the symmetric group (the XOR-convolution kernels)
PINNED_REPORTS = {
    "be-absolute":
        (("--problem", "be", "--loss", "absolute"),
         "4aadc13c90a80c0cce2a369c5c9e45e762538a2132f65e88c10d34af5f6003df"),
    "or-map-symmetric":
        (("--problem", "or", "--group", "symmetric", "--decoder", "map"),
         "d73fda4c9d0715fc693dc0d77c59496d3a581219fdfd97288e12167c69a266f4"),
}


@pytest.mark.parametrize("report", sorted(PINNED_REPORTS))
def test_exact_reports_are_pinned(capsys, report):
    extra, digest = PINNED_REPORTS[report]
    code, out, _ = run(capsys, "simulate", *extra, "--n", "12",
                       "--energies", "0.4,2.9,1.3,0.0,5.2,3.3,0.9,4.1,2.2,1.7,6.0,0.6",
                       "--mode", "exact", "--format", "json")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# values whose text takes each branch of the policy: 12 significant digits,
# full precision near 0 and 1, "inf", json's own NaN, signed zero, exponents
EDGE_VALUES = [0.0, 1.0, 1 - 1e-14, 1e-300, 5e-324, float("inf"), -float("inf"),
               float("nan"), -0.0, 0.75, 1e-5, 2.0 ** -60, 1 - 2.0 ** -50, 3.0,
               123456789012.5, 1e20, 0.1 + 0.2]


def _encoded(result, config) -> str:
    """The envelope emit_json writes, laid out whole by json.dumps."""
    envelope = {"version": __version__, "config": jsonable(config),
                "config_sha256": config_hash(config), "result": jsonable(result.to_json())}
    return json.dumps(envelope, indent=2, sort_keys=True) + "\n"


def test_emitted_report_rows_are_the_json_encoders_bytes(capsys):
    config = {"command": "simulate", "problem": "be", "n": 5, "energies": "1,2",
              "budget": 2.5, "output": None, "per_input": [], "note": '"per_input": []'}
    ev = energy_vector([0.0, 0.5, 1.0, 2.0, 8.0])
    reports = []
    for problem, loss in ((binary_evaluation(5), "absolute"), (or_problem(5), "exact")):
        for group in (IdentityGroup(5), FullSymmetricGroup(5)):
            reports.append(error_report(problem, ev, group, identity_decoder(problem), loss))
    sampled = error_report(or_problem(3), energy_vector([0.0, 1.0, 3.0]), IdentityGroup(3),
                           identity_decoder(or_problem(3)), mode="monte_carlo",
                           samples=300, rng=5)
    assert sampled.std_err is not None and sampled.samples == 300
    edges = np.array(EDGE_VALUES)
    reports += [sampled, ErrorReport("clairvoyant", "exact", "exact", edges),
                ErrorReport("blindfolded:symmetric", "monte_carlo", "absolute",
                            edges, edges[::-1].copy(), 7)]
    for report in reports:
        emit_json(report, config, None)
        assert capsys.readouterr().out == _encoded(report, config), report.setting


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


def test_main_calls_share_one_parser(capsys):
    build_parser.cache_clear()
    for _ in range(2):
        assert run(capsys, "eval", *CONFIG_RUNS["eval"])[0] == 0
    assert build_parser.cache_info().misses == 1


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
# probes under a generated group
PINNED_PRICES = {
    "be-6":
        (("--problem", "be", "--n", "6"),
         "dd6e29c9e87040334b76db81f40054d2e9405b0e0dd30bfc5e51ce443ab30f58"),
    "comparison-3":
        (("--problem", "comparison", "--k", "3"),
         "7294623df5591292785e1b7f43ae9465a156ceec3e9525c0a0e69af72f39e812"),
    "sorting-2x2-generated":
        (("--problem", "sorting", "--count", "2", "--width", "2", "--budgets", "1,3,5",
          "--group", "generated", "--generators", "1,0,3,2"),
         "1f11d17f43bfc5f1bc333305314df9ec81f2e751a229c66c4b81bfb8820f9667"),
    "or-6-generated-monte-carlo":
        (("--problem", "or", "--n", "6", "--group", "generated",
          "--generators", "1,2,3,4,5,0", "--mode", "monte_carlo", "--samples", "2000",
          "--seed", "2"),
         "e36c0ff6c74735cf6861837e63740fe8c69b921fb8e165fa72896481dca7298c"),
}


@pytest.mark.parametrize("price", sorted(PINNED_PRICES))
def test_price_outputs_are_pinned(capsys, price):
    extra, digest = PINNED_PRICES[price]
    code, out, _ = run(capsys, "mobs", *extra, "--format", "json")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# sha256 of JSON allocate outputs, which record the energies found and the
# evaluations the search counted: the ones-count variance, a per-input
# metric, a pair-weighted metric under the symmetric group, and the grid
PINNED_ALLOCATIONS = {
    "ue-4-variance":
        (("--problem", "ue", "--n", "4", "--budget", "6"),
         "793dab04bef69947c781cd097507e6e537261dfcc41b575e5732b564fb681d96"),
    "be-5-expected-magnitude":
        (("--problem", "be", "--n", "5", "--metric", "expected_magnitude",
          "--budget", "7.5"),
         "daeda7877daf026bcc28607d9dc9dc8c09b7ca78b2a052be29c66ed4b3c0563f"),
    "comparison-3-symmetric":
        (("--problem", "comparison", "--k", "3", "--metric", "comparison_weighted",
          "--group", "symmetric", "--budget", "6"),
         "ff09064da2a2c2520d43ea3111a5f60339cbaadd056c655ae9a1a8295e3c5c9a"),
    "be-3-grid":
        (("--problem", "be", "--n", "3", "--metric", "expected_magnitude",
          "--budget", "4.5", "--method", "grid", "--resolution", "0.25"),
         "33c7c172b315e040be3b7a7f19af4945f707e04313f1c2cf9cc16414fd14d4df"),
}


@pytest.mark.parametrize("allocation", sorted(PINNED_ALLOCATIONS))
def test_allocate_outputs_are_pinned(capsys, allocation):
    extra, digest = PINNED_ALLOCATIONS[allocation]
    code, out, _ = run(capsys, "allocate", *extra, "--format", "json")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize("command", ["mobs", "allocate"])
@pytest.mark.parametrize("source", ["flag", "config"])
def test_searches_refuse_the_map_decoder(capsys, tmp_path, command, source):
    # MAP error is not monotone in energy, so a search through it would
    # report plateau artifacts (test_mobs.py::test_map_error_is_not_monotone_in_energy)
    argv = [command, *CONFIG_RUNS[command]]
    if source == "flag":
        argv += ["--decoder", "map"]
    else:
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"decoder": "map"}))
        argv += ["--config", str(cfg)]
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith("error: --decoder map cannot drive a search")
    assert "not monotone in energy" in err and "use simulate" in err


def test_mobs_json_has_budget_outcomes(capsys):
    code, out, _ = run(capsys, "mobs", "--problem", "be", "--n", "2",
                       "--budgets", "2,3")
    assert code == 0
    body = json.loads(out)["result"]
    assert body["metric"] == "expected_magnitude"
    assert [o["budget"] for o in body["per_budget"]] == [2.0, 3.0]
    assert body["mobs"] >= 1.0


def test_exact_mode_resource_guard_exits_3(capsys):
    code, _, err = run(capsys, "simulate", "--problem", "be", "--n", "16",
                       "--allocation", "uniform", "--budget", "16",
                       "--mode", "exact")
    assert code == 3 and "resource limit" in err


def test_auto_monte_carlo_report_guard_exits_3(capsys):
    # without --mode, n=16 auto-picks monte carlo; the full sweep must refuse
    # up front instead of launching 2**16 rows x 1e5 samples
    code, _, err = run(capsys, "simulate", "--problem", "be", "--n", "16",
                       "--allocation", "uniform", "--budget", "16")
    assert code == 3 and "resource limit" in err


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
