"""Command-line experiment harness.

Subcommands: eval, simulate, allocate, mobs, curve, table2.  Every run can
load a JSON config file (--config) whose keys match the long flag names;
explicit flags override the file.  Outputs embed the effective config and
its sha256 so runs are reproducible, and identical config+seed yields
byte-identical bytes.

Exit codes: 0 success, 2 usage or invalid config, 3 resource limit,
4 numerical non-convergence.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .bits import ResourceLimitError, parse_bits
from .problems import (
    PROBLEM_KINDS,
    BooleanProblem,
    build_problem,
    evaluate,
    table_from_csv,
    truth_table,
)
from .noise import EnergyVector, cmos_correctness_probability, energy_vector, load_energies
from .adversary import GROUP_KINDS, build_group
from .decoders import (
    ErrorReport,
    build_decoder,
    error_report,
    monte_carlo_error,
    per_input_error,
)
from .allocators import (
    analytic_allocation,
    optimize_allocation,
    ue_variance,
    uniform_allocation,
)
from .mobs import METRIC_KINDS, error_objective, mobs, table2_rows

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_RESOURCE = 3
EXIT_NONCONVERGED = 4

EXACT_AUTO_LIMIT = 10  # auto-picked exact mode boundary
DEFAULT_SAMPLES = 100_000


# ---------------------------------------------------------------------------
# formatting and output plumbing

def fmt(x) -> str:
    """12-significant-digit text; probabilities keep their tails.

    Values that would round to 0 or 1 without being exactly 0 or 1 fall
    back to full precision, since downstream ratios are tail-sensitive.
    """
    if isinstance(x, (float, np.floating)):
        x = float(x)
        if math.isinf(x):
            return "inf"
        text = f"{x:.12g}"
        if float(text) in (0.0, 1.0) and x != float(text):
            return repr(x)
        return text
    return str(x)


def _policy_value(x: float):
    """The JSON value of one float: "inf" for infinities, else 12
    significant digits, or full precision where those would round a value
    into 0 or 1 (see fmt)."""
    if math.isinf(x):
        return "inf"
    rounded = float(f"{x:.12g}")
    if rounded in (0.0, 1.0) and x != rounded:
        return x
    return rounded


def jsonable(obj):
    """Recursively apply the numeric formatting policy to a JSON tree."""
    if isinstance(obj, (float, np.floating)):
        return _policy_value(float(obj))
    if isinstance(obj, (int, np.integer, bool, str)) or obj is None:
        return int(obj) if isinstance(obj, np.integer) else obj
    if isinstance(obj, dict):
        return {str(k): jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple, np.ndarray)):
        return [jsonable(v) for v in obj]
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def config_hash(config: dict) -> str:
    canonical = json.dumps(jsonable(config), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


def _write(text: str, output: str | None) -> None:
    if output:
        Path(output).write_text(text)
    else:
        sys.stdout.write(text)


def _json_number(x: float) -> str:
    """json.dumps(jsonable(x)) for one float, without the encoder."""
    value = _policy_value(x)
    if isinstance(value, float) and math.isfinite(value):
        return float.__repr__(value)
    return json.dumps(value)


# one per_input entry of an ErrorReport as json.dumps(..., indent=2,
# sort_keys=True) lays it out inside the envelope's "result"
_ROW = '      {\n        "p_err": %s,\n        "row": %d\n      }'
_SAMPLED_ROW = '      {\n        "p_err": %s,\n        "row": %d,\n        "std_err": %s\n      }'


def _report_rows(report: ErrorReport) -> str:
    """The per_input entries of report.to_json(), encoded, one format string
    a row."""
    p_err = map(_json_number, np.asarray(report.per_input, dtype=np.float64).tolist())
    if report.std_err is None:
        return ",\n".join(_ROW % (p, i) for i, p in enumerate(p_err))
    std_err = map(_json_number, np.asarray(report.std_err, dtype=np.float64).tolist())
    return ",\n".join(_SAMPLED_ROW % (p, i, s)
                      for i, (p, s) in enumerate(zip(p_err, std_err)))


def emit_json(result, config: dict, output: str | None) -> None:
    """The JSON envelope of a result: version, config, its sha256 and the
    result, keys sorted, indented by 2.  An ErrorReport's per_input rows,
    the bulk of a report, are encoded by _report_rows and spliced in: the
    bytes json.dumps gives, without walking 2**n row dicts through jsonable
    and the pure-Python indenting encoder."""
    rows = None
    if isinstance(result, ErrorReport):
        rows = _report_rows(result)
        result = dataclasses.replace(result, per_input=result.per_input[:0]).to_json()
    envelope = {
        "version": __version__,
        "config": jsonable(config),
        "config_sha256": config_hash(config),
        "result": jsonable(result),
    }
    text = json.dumps(envelope, indent=2, sort_keys=True)
    if rows:
        # keys sort "result" after "config", and nothing after per_input in
        # the result holds a list, so the last such text is the report's
        head, _, tail = text.rpartition('"per_input": []')
        text = head + '"per_input": [\n' + rows + '\n    ]' + tail
    _write(text + "\n", output)


def emit_csv(header: str, lines: list[str], config: dict, output: str | None) -> None:
    preamble = [
        f"# version={__version__}",
        f"# config_sha256={config_hash(config)}",
        f"# config={json.dumps(jsonable(config), sort_keys=True, separators=(',', ':'))}",
    ]
    _write("\n".join(preamble + [header] + lines) + "\n", output)


# ---------------------------------------------------------------------------
# config assembly

def _merge_config(args: argparse.Namespace, defaults: dict) -> dict:
    """defaults < config file < explicit flags.  Every flag is a key, None
    (the parser's default) unless the handler's defaults say otherwise.  A
    file value must be one its flag would accept, and null leaves it unset."""
    flags = {k: v for k, v in vars(args).items() if k not in ("command", "config")}
    cli = {k: v for k, v in flags.items() if v is not None}
    file_cfg = {}
    if getattr(args, "config", None):
        file_cfg = json.loads(Path(args.config).read_text())
        if not isinstance(file_cfg, dict):
            raise ValueError("config file must hold a JSON object")
        unknown = set(file_cfg) - set(vars(args))
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        commands = next(a for a in build_parser()._actions if a.dest == "command")
        for flag in commands.choices[args.command]._actions:
            if flag.choices and file_cfg.get(flag.dest) not in (None, *flag.choices):
                raise ValueError(f"config key {flag.dest!r} must be one of "
                                 f"{list(flag.choices)}, got {file_cfg[flag.dest]!r}")
        file_cfg = {k: v for k, v in file_cfg.items() if v is not None}  # null: unset
    return {**dict.fromkeys(flags), **defaults, **file_cfg, **cli}


def _refuse_map_search(cfg: dict) -> None:
    """Searches read bits through the identity decoder only."""
    if cfg["decoder"] == "map":
        raise ValueError("--decoder map cannot drive a search: MAP error is not "
                         "monotone in energy (an energy-0 bit flips with certainty "
                         "and MAP undoes the flip), so a search lands on plateau "
                         "artifacts; use simulate for MAP error at given energies")


def _problem_from(cfg: dict) -> BooleanProblem:
    kind = cfg.get("problem")
    if kind not in PROBLEM_KINDS:
        raise ValueError(f"--problem must be one of {PROBLEM_KINDS}, got {kind!r}")
    if kind == "custom":
        path = cfg.get("table")
        if not path:
            raise ValueError("custom problems need --table pointing at a truth-table CSV")
        table = table_from_csv(path)
        return build_problem("custom", outputs=table.outputs, name="custom")
    params = {}
    if kind == "tribes":
        params["tribe_count"] = int(cfg.get("tribe_count") or 2)
    if kind == "comparison" and cfg.get("k") is not None:
        params["k"] = int(cfg["k"])
    if kind == "sorting":
        if cfg.get("count") is None or cfg.get("width") is None:
            raise ValueError("sorting problems need --count and --width")
        params["count"], params["width"] = int(cfg["count"]), int(cfg["width"])
    n = cfg.get("n")
    return build_problem(kind, int(n) if n is not None else None, **params)


def _energies_from(cfg: dict, problem: BooleanProblem) -> EnergyVector:
    listed = cfg.get("energies")
    if listed is not None:
        if isinstance(listed, str):
            listed = [float(tok) for tok in listed.split(",") if tok.strip()]
        return energy_vector(listed)
    if cfg.get("energies_file"):
        return load_energies(cfg["energies_file"])
    allocation = cfg.get("allocation")
    if allocation:
        budget = cfg.get("budget")
        if budget is None:
            raise ValueError("--allocation needs --budget")
        budget = float(budget)
        if allocation == "uniform":
            return uniform_allocation(budget, problem.n)
        if allocation == "analytic":
            return analytic_allocation(problem, budget)
        raise ValueError(f"unknown allocation {allocation!r}; expected uniform or analytic")
    raise ValueError("no energies given; use --energies, --energies-file, or --allocation")


def _group_from(cfg: dict, n: int):
    kind = cfg.get("group") or "identity"
    if kind not in GROUP_KINDS:
        raise ValueError(f"--group must be one of {GROUP_KINDS}, got {kind!r}")
    generators = None
    if kind == "generated":
        raw = cfg.get("generators")
        if not raw:
            raise ValueError("generated groups need --generators like '1,2,0;0,2,1'")
        if isinstance(raw, str):
            generators = [[int(tok) for tok in part.split(",")]
                          for part in raw.split(";") if part.strip()]
        else:
            generators = raw
    return build_group(kind, n, generators)


def _budget_list(raw) -> list[float] | None:
    if raw is None:
        return None
    if isinstance(raw, str):
        return [float(tok) for tok in raw.split(",") if tok.strip()]
    return [float(b) for b in raw]


# ---------------------------------------------------------------------------
# subcommand handlers

def _cmd_eval(args) -> int:
    defaults = {"format": "plain"}
    cfg = _merge_config(args, defaults)
    problem = _problem_from(cfg)
    if not cfg.get("bits"):
        raise ValueError("--bits is required")
    bits = parse_bits(cfg["bits"], problem.n)
    value = evaluate(problem, bits)
    cfg["command"] = "eval"
    if cfg["format"] == "json":
        emit_json({"problem": problem.name, "bits": cfg["bits"], "value": value},
                  cfg, cfg.get("output"))
    else:
        _write(f"{value}\n", cfg.get("output"))
    return EXIT_OK


def _cmd_simulate(args) -> int:
    defaults = {"group": "identity", "decoder": "identity", "loss": "exact",
                "samples": DEFAULT_SAMPLES, "seed": 0, "format": "json"}
    cfg = _merge_config(args, defaults)
    problem = _problem_from(cfg)
    energies = _energies_from(cfg, problem)
    if energies.n != problem.n:
        raise ValueError(f"{problem.n}-bit problem with {energies.n} energies")
    group = _group_from(cfg, problem.n)
    mode = cfg.get("mode") or ("exact" if problem.n <= EXACT_AUTO_LIMIT else "monte_carlo")
    rng = np.random.default_rng(int(cfg["seed"]))
    table = truth_table(problem)
    decoder = build_decoder(cfg["decoder"], table, energies, group)
    cfg["command"] = "simulate"
    cfg["mode"] = mode

    if cfg.get("input") is not None:
        from .bits import bits_to_index

        row = int(bits_to_index(parse_bits(str(cfg["input"]), problem.n)))
        if mode == "exact":
            p = per_input_error(table, energies, group, decoder, row, cfg["loss"])
            result = {"row": row, "p_err": p, "mode": mode, "loss": cfg["loss"]}
        else:
            p, se = monte_carlo_error(table, energies, group, decoder, row,
                                      cfg["loss"], int(cfg["samples"]), rng)
            result = {"row": row, "p_err": p, "std_err": se, "mode": mode,
                      "loss": cfg["loss"], "samples": int(cfg["samples"])}
        if cfg["format"] == "csv":
            header = "row,p_err" + (",std_err" if "std_err" in result else "")
            line = f"{row},{fmt(result['p_err'])}"
            if "std_err" in result:
                line += f",{fmt(result['std_err'])}"
            emit_csv(header, [line], cfg, cfg.get("output"))
        else:
            emit_json(result, cfg, cfg.get("output"))
        return EXIT_OK

    report = error_report(table, energies, group, decoder, cfg["loss"], mode,
                          int(cfg["samples"]), rng)
    if cfg["format"] == "csv":
        if report.std_err is None:
            header = "row,p_err"
            lines = [f"{i},{fmt(p)}" for i, p in enumerate(report.per_input)]
        else:
            header = "row,p_err,std_err"
            lines = [f"{i},{fmt(p)},{fmt(s)}"
                     for i, (p, s) in enumerate(zip(report.per_input, report.std_err))]
        emit_csv(header, lines, cfg, cfg.get("output"))
    else:
        emit_json(report, cfg, cfg.get("output"))
    return EXIT_OK


def _cmd_allocate(args) -> int:
    defaults = {"decoder": "identity", "group": "identity",
                "method": "coordinate_descent", "resolution": 0.05, "format": "json"}
    cfg = _merge_config(args, defaults)
    _refuse_map_search(cfg)
    problem = _problem_from(cfg)
    if cfg.get("budget") is None:
        raise ValueError("--budget is required")
    budget = float(cfg["budget"])
    metric = cfg.get("metric") or "ue_variance"
    if metric == "ue_variance":
        fn = ue_variance
    elif metric in METRIC_KINDS:
        fn = error_objective(problem, metric, _group_from(cfg, problem.n))
    else:
        raise ValueError(f"--metric must be ue_variance or one of {METRIC_KINDS}")
    result = optimize_allocation(fn, budget, problem.n,
                                 method=cfg["method"],
                                 resolution=float(cfg["resolution"]))
    cfg["command"] = "allocate"
    if cfg["format"] == "csv":
        header = "j,energy"
        lines = [f"{j},{fmt(e)}" for j, e in enumerate(result.energies.entries)]
        lines.append(f"# objective_value={fmt(result.objective_value)}")
        lines.append(f"# converged={result.converged}")
        emit_csv(header, lines, cfg, cfg.get("output"))
    else:
        emit_json(result.to_json(), cfg, cfg.get("output"))
    if not result.converged:
        print("allocation search did not converge within its pass cap", file=sys.stderr)
        return EXIT_NONCONVERGED
    return EXIT_OK


def _cmd_mobs(args) -> int:
    defaults = {"decoder": "identity", "group": "symmetric",
                "samples": DEFAULT_SAMPLES, "seed": 0, "format": "json"}
    cfg = _merge_config(args, defaults)
    _refuse_map_search(cfg)
    problem = _problem_from(cfg)
    group = _group_from(cfg, problem.n)
    mode = cfg.get("mode") or ("exact" if problem.n <= EXACT_AUTO_LIMIT else "monte_carlo")
    rng = np.random.default_rng(int(cfg["seed"]))
    result = mobs(problem, _budget_list(cfg.get("budgets")), cfg.get("metric"),
                  group, mode, int(cfg["samples"]), rng)
    cfg["command"] = "mobs"
    cfg["mode"] = mode
    if cfg["format"] == "csv":
        emit_csv("problem,n,mobs,mode", [result.csv_row()], cfg, cfg.get("output"))
    else:
        emit_json(result.to_json(), cfg, cfg.get("output"))
    if not result.converged:
        print("a clairvoyant search did not converge within its pass cap", file=sys.stderr)
        return EXIT_NONCONVERGED
    return EXIT_OK


def _cmd_curve(args) -> int:
    defaults = {"sigma": 1.0, "vdd_min": 0.0, "steps": 101, "format": "csv"}
    cfg = _merge_config(args, defaults)
    sigma = float(cfg["sigma"])
    if cfg.get("vdd") is not None:
        grid = [float(cfg["vdd"])]
    else:
        bottom, top, top_flag = float(cfg["vdd_min"]), 10.0 * sigma, "--sigma"
        if cfg.get("vdd_max") is not None:
            top, top_flag = float(cfg["vdd_max"]), "--vdd-max"
        for flag, end in (("--vdd-min", bottom), (top_flag, top)):
            if not math.isfinite(end):  # np.linspace would warn and yield NaN
                raise ValueError(f"{flag} must be finite for a vdd grid, got {end}")
        steps = int(cfg["steps"])
        if steps < 1:
            raise ValueError("--steps must be >= 1")
        grid = np.linspace(bottom, top, steps).tolist()
    cfg["command"] = "curve"
    rows = [(v, sigma, float(cmos_correctness_probability(v, sigma))) for v in grid]
    if cfg["format"] == "json":
        emit_json([{"vdd": v, "sigma": s, "p": p} for v, s, p in rows],
                  cfg, cfg.get("output"))
    else:
        lines = [f"{fmt(v)},{fmt(s)},{fmt(p)}" for v, s, p in rows]
        emit_csv("vdd,sigma,p", lines, cfg, cfg.get("output"))
    return EXIT_OK


def _cmd_table2(args) -> int:
    defaults = {"sizes": "4,6,8", "comparison_widths": "2,3,4",
                "sorting_shapes": "4x2", "mode": "exact",
                "samples": DEFAULT_SAMPLES, "seed": 0, "format": "csv"}
    cfg = _merge_config(args, defaults)
    sizes = [int(tok) for tok in str(cfg["sizes"]).split(",") if tok.strip()]
    widths = [int(tok) for tok in str(cfg["comparison_widths"]).split(",") if tok.strip()]
    shapes = []
    for part in str(cfg["sorting_shapes"]).split(";"):
        part = part.strip()
        if part:
            count, width = part.split("x")
            shapes.append((int(count), int(width)))
    rng = np.random.default_rng(int(cfg["seed"]))
    rows = table2_rows(sizes, widths, shapes, cfg["mode"], int(cfg["samples"]), rng)
    cfg["command"] = "table2"
    if cfg["format"] == "json":
        emit_json([r.to_json() for r in rows], cfg, cfg.get("output"))
    else:
        emit_csv("problem,n,mobs,mode", [r.csv_row() for r in rows],
                 cfg, cfg.get("output"))
    if not all(r.converged for r in rows):
        print("a clairvoyant search did not converge within its pass cap", file=sys.stderr)
        return EXIT_NONCONVERGED
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser

def _add_common(sub, formats, *names):
    if "problem" in names:
        sub.add_argument("--problem", choices=PROBLEM_KINDS)
        sub.add_argument("--n", type=int)
        sub.add_argument("--tribe-count", type=int, dest="tribe_count")
        sub.add_argument("--k", type=int)
        sub.add_argument("--count", type=int)
        sub.add_argument("--width", type=int)
        sub.add_argument("--table")
    if "energies" in names:
        sub.add_argument("--energies")
        sub.add_argument("--energies-file", dest="energies_file")
        sub.add_argument("--allocation", choices=["uniform", "analytic"])
        sub.add_argument("--budget", type=float)
    if "group" in names:
        sub.add_argument("--group", choices=GROUP_KINDS)
        sub.add_argument("--generators")
    sub.add_argument("--config")
    sub.add_argument("--format", choices=formats)
    sub.add_argument("--output")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="inexact",
        description="Energy/error tradeoff experiments for noisy Boolean evaluation")
    parser.add_argument("--version", action="version", version=f"inexact {__version__}")
    commands = parser.add_subparsers(dest="command", required=True)

    p = commands.add_parser("eval", help="apply a problem to one input")
    _add_common(p, ["plain", "json"], "problem")
    p.add_argument("--bits", help="input bits, most significant first")

    p = commands.add_parser("simulate", help="per-input error report")
    _add_common(p, ["csv", "json"], "problem", "energies", "group")
    p.add_argument("--decoder", choices=["identity", "map"])
    p.add_argument("--loss", choices=["exact", "absolute"])
    p.add_argument("--mode", choices=["exact", "monte_carlo"])
    p.add_argument("--samples", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--input", help="restrict to one input row (bits, MSB first)")

    p = commands.add_parser("allocate", help="search for an energy allocation")
    _add_common(p, ["csv", "json"], "problem", "group")
    p.add_argument("--metric")
    p.add_argument("--decoder", choices=["identity", "map"])
    p.add_argument("--budget", type=float)
    p.add_argument("--method", choices=["coordinate_descent", "grid"])
    p.add_argument("--resolution", type=float)

    p = commands.add_parser("mobs", help="blindfolded-vs-clairvoyant price")
    _add_common(p, ["csv", "json"], "problem", "group")
    p.add_argument("--metric", choices=list(METRIC_KINDS))
    p.add_argument("--decoder", choices=["identity", "map"])
    p.add_argument("--budgets", help="comma-separated energy budgets")
    p.add_argument("--mode", choices=["exact", "monte_carlo"])
    p.add_argument("--samples", type=int)
    p.add_argument("--seed", type=int)

    p = commands.add_parser("curve", help="supply-voltage correctness curve")
    p.add_argument("--sigma", type=float)
    p.add_argument("--vdd", type=float)
    p.add_argument("--vdd-min", type=float, dest="vdd_min")
    p.add_argument("--vdd-max", type=float, dest="vdd_max")
    p.add_argument("--steps", type=int)
    p.add_argument("--config")
    p.add_argument("--format", choices=["csv", "json"])
    p.add_argument("--output")

    p = commands.add_parser("table2", help="summary sweep over problem families")
    p.add_argument("--sizes", help="comma-separated n values")
    p.add_argument("--comparison-widths", dest="comparison_widths")
    p.add_argument("--sorting-shapes", dest="sorting_shapes",
                   help="semicolon-separated countxwidth shapes")
    p.add_argument("--mode", choices=["exact", "monte_carlo"])
    p.add_argument("--samples", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--config")
    p.add_argument("--format", choices=["csv", "json"])
    p.add_argument("--output")
    return parser


_HANDLERS = {
    "eval": _cmd_eval,
    "simulate": _cmd_simulate,
    "allocate": _cmd_allocate,
    "mobs": _cmd_mobs,
    "curve": _cmd_curve,
    "table2": _cmd_table2,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _HANDLERS[args.command](args)
    except ResourceLimitError as exc:
        print(f"resource limit: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except (ValueError, TypeError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
