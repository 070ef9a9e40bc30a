"""Command-line experiment harness.

Subcommands: eval, simulate, allocate, mobs, curve, table2.  Every run can
load a JSON config file (--config) whose keys match the long flag names;
explicit flags override the file.  Outputs embed the effective config and
its sha256 so runs are reproducible, and identical config+seed yields
byte-identical bytes.  Without --mode, simulate and mobs run exact, and
sample only where a guard of the exact path refuses (config records which).

Exit codes: 0 success, 2 usage or invalid config, 3 resource limit,
4 numerical non-convergence.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import hashlib
import itertools
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .bits import ResourceLimitError, bits_to_index, parse_bits
from .problems import (
    PROBLEM_KINDS,
    BooleanProblem,
    build_problem,
    evaluate,
    table_from_csv,
    truth_table,
)
from .noise import EnergyVector, cmos_correctness_probability, energy_vector
from .adversary import GROUP_KINDS, build_group
from .decoders import (
    ErrorReport,
    error_report,
    identity_decoder,
    map_decoder,
    monte_carlo_error,
    per_input_error,
)
from .allocators import (
    analytic_allocation,
    coordinate_descent,
    grid_search,
    ue_variance,
    uniform_allocation,
)
from .mobs import METRIC_KINDS, error_objective, mobs, table2_rows

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_RESOURCE = 3
EXIT_NONCONVERGED = 4

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
            return "inf" if x > 0 else "-inf"
        text = f"{x:.12g}"
        if float(text) in (0.0, 1.0) and x != float(text):
            return repr(x)
        return text
    return str(x)


def _policy_value(x: float):
    """The JSON value of one float: the string "inf" or "-inf" for an
    infinity, else 12 significant digits, or full precision where those
    would round a value into 0 or 1 (see fmt)."""
    if math.isinf(x):
        return fmt(x)
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


def _digits(values):
    """(floats, "%.12g" texts, the texts parsed back, scalar mask) of
    values, the texts made by one format pass.  The mask marks what needs
    the one-value path in either format: non-finite values, and values that
    round to 0 or 1 without being 0 or 1 (fmt's tail rule)."""
    x = np.asarray(values, dtype=np.float64).ravel()
    xs = x.tolist()
    texts = ("%.12g " * len(xs) % tuple(xs)).split()
    rounded = np.fromiter(map(float, texts), np.float64, len(texts))  # as _policy_value parses
    scalar = ~np.isfinite(x) | (((rounded == 0.0) | (rounded == 1.0)) & (x != rounded))
    return xs, texts, rounded, scalar


def _csv_numbers(values) -> list[str]:
    """[fmt(v) for v in values] for floats, built in bulk."""
    xs, texts, _, scalar = _digits(values)
    for i in np.flatnonzero(scalar).tolist():
        texts[i] = fmt(xs[i])
    return texts


def _csv_rows(*columns):
    """CSV lines (row, value, ...) of float columns, formatted on first
    use: a handler's CSV lines are only read when the format is csv."""
    rows = map(str, range(len(columns[0])))
    yield from map(",".join, zip(rows, *map(_csv_numbers, columns)))


def _json_numbers(values) -> list[str]:
    """[_json_number(v) for v in values], built in bulk.

    A rounded value's repr is its "%.12g" text plus ".0" where it is whole:
    a decimal of at most 15 digits round-trips through a normal double, so
    the shortest repr has exactly those digits, and both forms turn to
    exponents below 1e-4 with the same layout.  Left to _json_number are
    the entries fmt's policy treats apart, |rounded| >= 1e11 (repr stays
    positional up to 1e16, "%g" only up to 1e12) and nonzero subnormals
    (whose repr may be shorter than 12 digits).
    """
    xs, texts, rounded, scalar = _digits(values)
    magnitude = np.abs(rounded)
    scalar |= (magnitude >= 1e11) | ((magnitude < np.finfo(np.float64).tiny) & (rounded != 0.0))
    for i in np.flatnonzero(scalar).tolist():
        texts[i] = _json_number(xs[i])
    for i in np.flatnonzero(~scalar & (rounded == np.trunc(rounded))).tolist():
        texts[i] += ".0"
    return texts


# one per_input entry of an ErrorReport as json.dumps(..., indent=2,
# sort_keys=True) lays it out inside the envelope's "result"
_ROW = '      {\n        "p_err": %s,\n        "row": %d\n      }'
_SAMPLED_ROW = '      {\n        "p_err": %s,\n        "row": %d,\n        "std_err": %s\n      }'


def _report_rows(report: ErrorReport) -> str:
    """The per_input entries of report.to_json(), encoded, all rows laid
    out by one % over the repeated row template."""
    size = len(report.per_input)
    columns = [_json_numbers(report.per_input), range(size)]
    template = _ROW
    if report.std_err is not None:
        columns.append(_json_numbers(report.std_err))
        template = _SAMPLED_ROW
    fields = [None] * (len(columns) * size)
    for c, column in enumerate(columns):
        fields[c::len(columns)] = column
    return ",\n".join([template] * size) % tuple(fields)


def emit_json(result, config: dict, output: str | None) -> None:
    """The JSON envelope of a result: version, config, its sha256 and the
    result, keys sorted, indented by 2.  An ErrorReport's per_input rows,
    the bulk of a report, are spliced in as _report_rows lays them out: the
    bytes json.dumps gives, without walking 2**n row dicts through jsonable
    and the pure-Python indenting encoder.  Their numbers are formatted in
    bulk by _json_numbers, one "%.12g" pass and one parse back for all
    rows; only non-finite values, values near 0 or 1 that keep full
    precision, magnitudes of 1e11 and above and subnormals go through
    _json_number one at a time."""
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
    file value is read as its flag reads it (an int flag's by _whole, a float
    flag's by _real) and must be one its flag would accept; null leaves it
    unset."""
    flags = {k: v for k, v in vars(args).items() if k not in ("command", "config")}
    cli = {k: v for k, v in flags.items() if v is not None}
    file_cfg = {}
    if args.config:
        file_cfg = json.loads(Path(args.config).read_text())
        if not isinstance(file_cfg, dict):
            raise ValueError("config file must hold a JSON object")
        unknown = set(file_cfg) - set(flags)
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        commands = next(a for a in build_parser()._actions if a.dest == "command")
        read = {int: _whole, float: _real}
        for flag in commands.choices[args.command]._actions:
            value = file_cfg.get(flag.dest)
            if value is None:
                continue
            if flag.type in read:
                file_cfg[flag.dest] = read[flag.type](value, flag.dest)
            if flag.choices and value not in flag.choices:
                raise ValueError(f"config key {flag.dest!r} must be one of "
                                 f"{list(flag.choices)}, got {value!r}")
        file_cfg = {k: v for k, v in file_cfg.items() if v is not None}  # null: unset
    return {**dict.fromkeys(flags), **defaults, **file_cfg, **cli}


def _listed(cfg: dict, key: str, item, *seps):
    """The values of a list key: its flag text split on the first of seps
    (default ","), blank pieces skipped, or a JSON list from a config file.
    Each further separator splits the pieces again, into a list of lists.
    Each item is read by item(piece, key), _whole or _real.  None stays
    None."""
    def split(raw, seps):
        if not isinstance(raw, list):
            raw = [piece for piece in str(raw).split(seps[0]) if piece.strip()]
        if len(seps) > 1:
            return [split(piece, seps[1:]) for piece in raw]
        return [item(piece, key) for piece in raw]

    return None if cfg.get(key) is None else split(cfg[key], seps or (",",))


def _whole(value, key: str) -> int:
    """A value of config key as an int: an int, an integral float or integer
    text (a config file may give any of them); anything else is refused by
    key."""
    if isinstance(value, float) and value.is_integer():
        return int(value)
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    if isinstance(value, str):
        try:
            return int(value)
        except ValueError:
            pass
    raise ValueError(f"config key {key!r} must be an integer, got {value!r}")


def _real(value, key: str) -> float:
    """A value of config key as a float: a number or number text.  Anything
    else is refused by key, a JSON boolean too (float() reads it as 0 or 1)."""
    if not isinstance(value, bool):
        try:
            return float(value)
        except (TypeError, ValueError):
            pass
    raise ValueError(f"config key {key!r} must be a number, got {value!r}")


def _problem_from(cfg: dict) -> BooleanProblem:
    """The problem the flags name; build_problem supplies the defaults of
    the parameters left unset, checks the ones given and refuses those its
    kind does not read."""
    kind = cfg.get("problem")
    if kind not in PROBLEM_KINDS:
        raise ValueError(f"--problem must be one of {PROBLEM_KINDS}, got {kind!r}")
    params = {key: cfg[key] for key in ("n", "tribe_count", "k", "count", "width")
              if cfg.get(key) is not None}
    if kind == "custom":
        path = cfg.get("table")
        if not path:
            raise ValueError("custom problems need --table pointing at a truth-table CSV")
        params["outputs"] = table_from_csv(path).outputs
    elif cfg.get("table") is not None:
        raise ValueError(f"{kind} problems do not read --table")
    return build_problem(kind, **params)


def _energies_from(cfg: dict, problem: BooleanProblem) -> EnergyVector:
    if cfg.get("energies") is not None:
        if cfg.get("allocation") is not None or cfg.get("budget") is not None:
            raise ValueError("--energies takes no --allocation or --budget")
        return energy_vector(_listed(cfg, "energies", _real))
    if cfg.get("allocation"):
        if cfg.get("budget") is None:
            raise ValueError("--allocation needs --budget")
        budget = cfg["budget"]
        if cfg["allocation"] == "uniform":
            return uniform_allocation(budget, problem.n)
        return analytic_allocation(problem, budget)
    raise ValueError("no energies given; use --energies or --allocation")


def _group_from(cfg: dict, n: int):
    if cfg["group"] == "generated" and not cfg.get("generators"):
        raise ValueError("generated groups need --generators like '1,2,0;0,2,1'")
    return build_group(cfg["group"], n, _listed(cfg, "generators", _whole, ";", ","))


def _sampling_from(cfg: dict) -> tuple[int, np.random.Generator]:
    """--samples and a generator seeded by --seed.  An explicit --mode exact
    reads neither, so a value given there is refused, not dropped; the
    defaults are filled, and recorded in the config, under every mode."""
    for key, default in (("samples", DEFAULT_SAMPLES), ("seed", 0)):
        if cfg.get(key) is None:
            cfg[key] = default
        elif cfg.get("mode") == "exact":
            raise ValueError(f"--{key} is not read under --mode exact")
    return cfg["samples"], np.random.default_rng(cfg["seed"])


def _exact_else_sampled(cfg: dict, run):
    """run(--mode); without it run("exact"), and run("monte_carlo") only where
    a guard of the exact path refuses.  The config records the mode that ran."""
    if cfg.get("mode"):
        return run(cfg["mode"])
    try:
        cfg["mode"] = "exact"
        return run("exact")
    except ResourceLimitError:
        cfg["mode"] = "monte_carlo"
        return run("monte_carlo")


# ---------------------------------------------------------------------------
# subcommand handlers
#
# Each takes the merged config and returns (JSON body, CSV header, CSV rows,
# converged); main writes the format the config chose.  Rows may be a lazy
# iterable: JSON runs never build them.

def _cmd_eval(cfg: dict):
    problem = _problem_from(cfg)
    if not cfg.get("bits"):
        raise ValueError("--bits is required")
    bits = parse_bits(cfg["bits"], problem.n)
    value = evaluate(problem, bits)
    return ({"problem": problem.name, "bits": cfg["bits"], "value": value},
            None, [f"{value}"], True)


def _cmd_simulate(cfg: dict):
    # exact analysis draws nothing, so a fallback samples from the seed's start
    samples, rng = _sampling_from(cfg)
    problem = _problem_from(cfg)
    energies = _energies_from(cfg, problem)
    if energies.n != problem.n:
        raise ValueError(f"{problem.n}-bit problem with {energies.n} energies")
    group = _group_from(cfg, problem.n)
    loss = cfg["loss"]
    table = truth_table(problem)
    decoder = map_decoder(table, energies, group) if cfg["decoder"] == "map" \
        else identity_decoder(table)
    row = None if cfg.get("input") is None else \
        int(bits_to_index(parse_bits(str(cfg["input"]), problem.n)))

    def run(mode):
        if row is None:
            report = error_report(table, energies, group, decoder, loss, mode, samples, rng)
            if report.std_err is None:
                return report, "row,p_err", _csv_rows(report.per_input), True
            return report, "row,p_err,std_err", _csv_rows(report.per_input, report.std_err), True
        if mode == "exact":
            p = per_input_error(table, energies, group, decoder, row, loss)
            return ({"row": row, "p_err": p, "mode": mode, "loss": loss},
                    "row,p_err", [f"{row},{fmt(p)}"], True)
        p, se = monte_carlo_error(table, energies, group, decoder, row, loss, samples, rng)
        return ({"row": row, "p_err": p, "std_err": se, "mode": mode, "loss": loss,
                 "samples": samples}, "row,p_err,std_err", [f"{row},{fmt(p)},{fmt(se)}"], True)

    return _exact_else_sampled(cfg, run)


def _cmd_allocate(cfg: dict):
    problem = _problem_from(cfg)
    if cfg.get("budget") is None:
        raise ValueError("--budget is required")
    budget = cfg["budget"]
    metric = cfg.get("metric") or "ue_variance"
    if metric != "ue_variance" and metric not in METRIC_KINDS:
        raise ValueError(f"--metric must be ue_variance or one of {METRIC_KINDS}")
    # a value given where the run reads none is refused, not dropped
    grid = cfg["method"] == "grid"
    unread = [] if grid else [("resolution", f"--method {cfg['method']}")]
    if metric == "ue_variance":
        unread += [("group", "--metric ue_variance"), ("generators", "--metric ue_variance")]
    for key, setting in unread:
        if cfg.get(key) is not None:
            raise ValueError(f"--{key} is not read under {setting}")
    # defaults are filled, and so recorded in the config, only where read
    if metric != "ue_variance" and cfg.get("group") is None:
        cfg["group"] = "identity"
    if grid and cfg.get("resolution") is None:
        cfg["resolution"] = 0.05
    fn = ue_variance if metric == "ue_variance" else \
        error_objective(problem, metric, _group_from(cfg, problem.n))
    result = grid_search(fn, budget, problem.n, cfg["resolution"]) if grid \
        else coordinate_descent(fn, budget, problem.n)
    rows = itertools.chain((f"{j},{fmt(e)}" for j, e in enumerate(result.energies.entries)),
                           (f"# objective_value={fmt(result.objective_value)}",
                            f"# converged={result.converged}"))
    return result.to_json(), "j,energy", rows, result.converged


def _cmd_mobs(cfg: dict):
    samples, rng = _sampling_from(cfg)  # exact mobs draws nothing
    problem = _problem_from(cfg)
    group = _group_from(cfg, problem.n)
    budgets = _listed(cfg, "budgets", _real)

    def run(mode):
        result = mobs(problem, budgets, cfg.get("metric"), group, mode, samples, rng)
        return result.to_json(), "problem,n,mobs,mode", [result.csv_row()], result.converged

    return _exact_else_sampled(cfg, run)


def _cmd_curve(cfg: dict):
    sigma = cfg["sigma"]
    if cfg.get("vdd") is not None:
        grid = [cfg["vdd"]]
    else:
        bottom, top, top_flag = cfg["vdd_min"], 10.0 * sigma, "--sigma"
        if cfg.get("vdd_max") is not None:
            top, top_flag = cfg["vdd_max"], "--vdd-max"
        for flag, end in (("--vdd-min", bottom), (top_flag, top)):
            if not math.isfinite(end):  # np.linspace would warn and yield NaN
                raise ValueError(f"{flag} must be finite for a vdd grid, got {end}")
        steps = cfg["steps"]
        if steps < 1:
            raise ValueError("--steps must be >= 1")
        grid = np.linspace(bottom, top, steps).tolist()
    points = [(v, sigma, float(cmos_correctness_probability(v, sigma))) for v in grid]
    return ([{"vdd": v, "sigma": s, "p": p} for v, s, p in points], "vdd,sigma,p",
            (f"{fmt(v)},{fmt(s)},{fmt(p)}" for v, s, p in points), True)


def _cmd_table2(cfg: dict):
    shapes = [(count, width) for count, width
              in _listed(cfg, "sorting_shapes", _whole, ";", "x")]
    results = table2_rows(_listed(cfg, "sizes", _whole), _listed(cfg, "comparison_widths", _whole),
                          shapes)
    return ([r.to_json() for r in results], "problem,n,mobs,mode",
            (r.csv_row() for r in results), all(r.converged for r in results))


# subcommand -> (handler, the defaults a config file and flags override)
_COMMANDS = {
    "eval": (_cmd_eval, {"format": "plain"}),
    "simulate": (_cmd_simulate, {"group": "identity", "decoder": "identity",
                                 "loss": "exact", "format": "json"}),
    "allocate": (_cmd_allocate, {"method": "coordinate_descent", "format": "json"}),
    "mobs": (_cmd_mobs, {"group": "symmetric", "format": "json"}),
    "curve": (_cmd_curve, {"sigma": 1.0, "vdd_min": 0.0, "steps": 101, "format": "csv"}),
    "table2": (_cmd_table2, {"sizes": "4,6,8", "comparison_widths": "2,3,4",
                             "sorting_shapes": "4x2", "format": "csv"}),
}


# ---------------------------------------------------------------------------
# parser

def _add_common(sub, formats, *names):
    """The flag groups sub shares with other subcommands, then --config,
    --format (one of formats) and --output, which every subcommand takes."""
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
        sub.add_argument("--allocation", choices=["uniform", "analytic"])
        sub.add_argument("--budget", type=float)
    if "group" in names:
        sub.add_argument("--group", choices=GROUP_KINDS)
        sub.add_argument("--generators")
    if "sampling" in names:
        sub.add_argument("--mode", choices=["exact", "monte_carlo"])
        sub.add_argument("--samples", type=int)
        sub.add_argument("--seed", type=int)
    sub.add_argument("--config")
    sub.add_argument("--format", choices=formats)
    sub.add_argument("--output")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built on first use and shared by every later call."""
    parser = argparse.ArgumentParser(
        prog="inexact",
        description="Energy/error tradeoff experiments for noisy Boolean evaluation")
    parser.add_argument("--version", action="version", version=f"inexact {__version__}")
    commands = parser.add_subparsers(dest="command", required=True)

    p = commands.add_parser("eval", help="apply a problem to one input")
    _add_common(p, ["plain", "json"], "problem")
    p.add_argument("--bits", help="input bits, most significant first")

    p = commands.add_parser("simulate", help="per-input error report")
    _add_common(p, ["csv", "json"], "problem", "energies", "group", "sampling")
    p.add_argument("--decoder", choices=["identity", "map"])
    p.add_argument("--loss", choices=["exact", "absolute"])
    p.add_argument("--input", help="restrict to one input row (bits, MSB first)")

    p = commands.add_parser("allocate", help="search for an energy allocation")
    _add_common(p, ["csv", "json"], "problem", "group")
    p.add_argument("--metric")
    p.add_argument("--budget", type=float)
    p.add_argument("--method", choices=["coordinate_descent", "grid"])
    p.add_argument("--resolution", type=float)

    p = commands.add_parser("mobs", help="blindfolded-vs-clairvoyant price")
    _add_common(p, ["csv", "json"], "problem", "group", "sampling")
    p.add_argument("--metric", choices=list(METRIC_KINDS))
    p.add_argument("--budgets", help="comma-separated energy budgets")

    p = commands.add_parser("curve", help="supply-voltage correctness curve")
    _add_common(p, ["csv", "json"])
    p.add_argument("--sigma", type=float)
    p.add_argument("--vdd", type=float)
    p.add_argument("--vdd-min", type=float, dest="vdd_min")
    p.add_argument("--vdd-max", type=float, dest="vdd_max")
    p.add_argument("--steps", type=int)

    p = commands.add_parser("table2", help="summary sweep over problem families")
    _add_common(p, ["csv", "json"])
    p.add_argument("--sizes", help="comma-separated n values")
    p.add_argument("--comparison-widths", dest="comparison_widths")
    p.add_argument("--sorting-shapes", dest="sorting_shapes",
                   help="semicolon-separated countxwidth shapes")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    handler, defaults = _COMMANDS[args.command]
    try:
        cfg = _merge_config(args, defaults)
        cfg["command"] = args.command
        body, header, rows, converged = handler(cfg)
        if cfg["format"] == "json":
            emit_json(body, cfg, cfg.get("output"))
        elif cfg["format"] == "csv":
            emit_csv(header, list(rows), cfg, cfg.get("output"))
        else:  # plain: the bare rows
            _write("\n".join(rows) + "\n", cfg.get("output"))
    except ResourceLimitError as exc:
        print(f"resource limit: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except (ValueError, TypeError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    if not converged:
        search = "allocation search" if args.command == "allocate" else "a clairvoyant search"
        print(f"{search} did not converge within its pass cap", file=sys.stderr)
        return EXIT_NONCONVERGED
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
