"""Command-line experiment harness.

Subcommands: eval, simulate, allocate, mobs, curve, table2.  Every run can
load a JSON config file (--config) whose keys match the long flag names;
explicit flags override the file.  Outputs embed the effective config and
its sha256 so runs are reproducible, and identical config+seed yields
byte-identical bytes.  Without --mode, simulate and mobs run exact, and
sample only where a guard of the exact path refuses (config records which).

_COMMANDS declares each subcommand's defaults and the settings it reads only
under certain values of another (--resolution only under --method grid, say).
Such a setting given elsewhere, from a flag or a config file, exits 2 rather
than go unread, and its default is filled, so recorded, only where it is read.

_FLAGS declares each subcommand's flags once: text, key, type, choices and
help.  Three readers use it.  build_parser builds the argparse parser from
it, once per process.  _merge_config reads and checks config file values by
it.  _read_plain reads a plain command line, CMD --flag value ..., whose
flags are exact flags of CMD and whose values do not start with "-", into
the Namespace argparse would give, without building argparse (the build and
parse cost more than a small command's own work).  Every other argv goes to
argparse and only there: help, --version, abbreviated flags, --flag=value,
values that start with "-", odd token counts, and values the flag's type or
choices refuse.  So help, usage and error texts are argparse's alone.

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
from typing import NamedTuple

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


def _canonical(tree) -> str:
    """The text a config's sha256 is taken over: its jsonable tree, keys
    sorted, compact."""
    return json.dumps(tree, sort_keys=True, separators=(",", ":"))


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def config_hash(config: dict) -> str:
    return _sha256(_canonical(jsonable(config)))


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


# below this magnitude "%.12g" may round into the subnormals
_NEAR_SUBNORMAL = 1.001 * np.finfo(np.float64).tiny


def _digits(values, in_json: bool) -> list[str]:
    """The texts of the floats of values: fmt's in CSV, _json_number's in
    JSON, built in bulk, each distinct value formatted once.

    Values are keyed by their bytes, so -0.0 and 0.0 stay apart and so do
    NaN payloads.  The distinct values take one "%.12g" pass, and their
    texts come back in row order through the inverse index, with no gather
    where every value is distinct.

    Masks read off the floats send some values to the one-value path.  It
    is the reference, so the masks take a margin: a value it need not take
    prints the same.  It takes non-finite values and values within 1e-11
    of magnitude 1 (fmt's tail rule: a value that rounds to 0 or 1 without
    being it keeps full precision, and only 0 rounds to 0).  In JSON it
    also takes magnitudes of 9.9e10 and above (repr stays positional up to
    1e16, "%g" only up to 1e12) and nonzero magnitudes below 1.001 times
    the smallest normal (a subnormal's repr may be shorter than 12 digits).

    Any other JSON text is the value's repr once ".0" is added where it is
    whole: a decimal of at most 15 digits round-trips through a normal
    double, and both forms turn to exponents below 1e-4 with the same
    layout.  Only 0 and magnitudes of 1 and above can print whole there,
    and their texts hold no exponent, so a text without "." is whole.
    """
    x = np.asarray(values, dtype=np.float64).ravel()
    # equal keys are equal bytes, so the sorted keys stand for their values:
    # one sort (no stable argsort) and a neighbour compare, as
    # decoders._classes finds classes, then each key's place among them
    keys = x.view(np.int64)
    ranked = np.sort(keys)
    first = np.ones(x.size, dtype=bool)
    np.not_equal(ranked[1:], ranked[:-1], out=first[1:])
    repeated = not first.all()
    if repeated:
        distinct = ranked[first]
        inverse = np.searchsorted(distinct, keys)
        x = distinct.view(np.float64)
    xs = x.tolist()
    texts = ("%.12g " * len(xs) % tuple(xs)).split()
    magnitude = np.abs(x)
    scalar = ~np.isfinite(x) | ((np.abs(magnitude - 1.0) < 1e-11) & (magnitude != 1.0))
    one = fmt
    if in_json:
        one = _json_number
        scalar |= (magnitude >= 9.9e10) | ((magnitude < _NEAR_SUBNORMAL) & (x != 0.0))
        for i in np.flatnonzero(~scalar & ((x == 0.0) | (magnitude >= 1.0))).tolist():
            if "." not in texts[i]:
                texts[i] += ".0"
    for i in np.flatnonzero(scalar).tolist():
        texts[i] = one(xs[i])
    if repeated:
        return np.array(texts, dtype=object)[inverse].tolist()
    return texts


def _csv_numbers(values) -> list[str]:
    """[fmt(v) for v in values] for floats, built in bulk by _digits."""
    return _digits(values, in_json=False)


def _csv_rows(*columns):
    """CSV lines (row, value, ...) of float columns, formatted on first
    use: a handler's CSV lines are only read when the format is csv."""
    rows = map(str, range(len(columns[0])))
    yield from map(",".join, zip(rows, *map(_csv_numbers, columns)))


def _json_numbers(values) -> list[str]:
    """[_json_number(v) for v in values] for floats, built in bulk by
    _digits."""
    return _digits(values, in_json=True)


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
    bulk by _json_numbers, one "%.12g" pass over the distinct values,
    whose masks are read off the floats; only non-finite values, values
    within 1e-11 of magnitude 1, magnitudes of 9.9e10 and above and those
    near the subnormals go through _json_number, once per distinct value."""
    rows = None
    if isinstance(result, ErrorReport):
        rows = _report_rows(result)
        result = dataclasses.replace(result, per_input=result.per_input[:0]).to_json()
    tree = jsonable(config)
    envelope = {
        "version": __version__,
        "config": tree,
        "config_sha256": _sha256(_canonical(tree)),
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
    text = _canonical(jsonable(config))
    preamble = [f"# version={__version__}", f"# config_sha256={_sha256(text)}",
                f"# config={text}"]
    _write("\n".join(preamble + [header] + lines) + "\n", output)


# ---------------------------------------------------------------------------
# config assembly

# text flags whose config file value must be text too; the other text flags
# are list keys, which also take a JSON list (see _listed)
_TEXT_KEYS = {"table": "a file path", "output": "a file path",
              "bits": "a bit string", "input": "a bit string"}


def _merge_config(args: argparse.Namespace) -> dict:
    """defaults < config file < explicit flags.  Every flag is a key, None
    (the parser's default) unless the subcommand's defaults say otherwise.  A
    file value is read as its flag reads it (an int flag's by _whole, a float
    flag's by _real, a _TEXT_KEYS flag's from text only) and must be one its
    flag would accept; null leaves it unset.  A setting the subcommand reads
    only under certain values of another is refused where that one holds any
    other value, and keeps no default there."""
    _, defaults, reads = _COMMANDS[args.command]
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
        read = {int: _whole, float: _real}
        for flag in _FLAGS[args.command][1].values():
            value = file_cfg.get(flag.dest)
            if value is None:
                continue
            if flag.dest in _TEXT_KEYS and not isinstance(value, str):
                raise ValueError(f"config key {flag.dest!r} must be {_TEXT_KEYS[flag.dest]}, "
                                 f"got {value!r}")
            if flag.type in read:
                file_cfg[flag.dest] = read[flag.type](value, flag.dest)
            if flag.choices and value not in flag.choices:
                raise ValueError(f"config key {flag.dest!r} must be one of "
                                 f"{list(flag.choices)}, got {value!r}")
        file_cfg = {k: v for k, v in file_cfg.items() if v is not None}  # null: unset
    cfg = {**dict.fromkeys(flags), **defaults, **file_cfg, **cli}
    for key, (governor, values) in reads.items():
        if cfg[governor] not in values:
            if key in file_cfg or key in cli:
                given = cfg[governor]  # a file's list is named as its flag text
                if isinstance(given, list):
                    given = ",".join(map(str, given))
                raise ValueError(f"--{key.replace('_', '-')} is not read under "
                                 f"--{governor} {given}")
            cfg[key] = None
    return cfg


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
    """The problem the flags name; build_problem refuses an unknown kind,
    supplies the defaults of the parameters left unset, checks the ones
    given and refuses those its kind does not read."""
    params = {key: cfg[key] for key in ("n", "tribe_count", "k", "count", "width")
              if cfg.get(key) is not None}
    if cfg.get("problem") == "custom":
        if not cfg.get("table"):
            raise ValueError("custom problems need --table pointing at a truth-table CSV")
        params["outputs"] = table_from_csv(cfg["table"]).outputs
    return build_problem(cfg.get("problem"), **params)


def _energies_from(cfg: dict, problem: BooleanProblem) -> EnergyVector:
    if cfg.get("energies") is not None:
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
    return build_group(cfg["group"], n, _listed(cfg, "generators", _whole, ";", ","))


def _rng_from(cfg: dict) -> np.random.Generator | None:
    """A generator seeded by --seed, none where the seed is not read."""
    return None if cfg["seed"] is None else np.random.default_rng(cfg["seed"])


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
    text = cfg.get("bits")
    if not text:
        raise ValueError("--bits is required")
    value = evaluate(problem, parse_bits(text, problem.n))
    return ({"problem": problem.name, "bits": text, "value": value},
            None, [f"{value}"], True)


def _cmd_simulate(cfg: dict):
    samples = cfg["samples"]
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
        int(bits_to_index(parse_bits(cfg["input"], problem.n)))

    def run(mode):
        # exact analysis draws nothing, so a sampled run starts from the seed
        rng = _rng_from(cfg) if mode == "monte_carlo" else None
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
    fn = ue_variance if cfg["metric"] == "ue_variance" else \
        error_objective(problem, cfg["metric"], _group_from(cfg, problem.n))
    result = grid_search(fn, budget, problem.n, cfg["resolution"]) if cfg["method"] == "grid" \
        else coordinate_descent(fn, budget, problem.n)
    rows = itertools.chain((f"{j},{fmt(e)}" for j, e in enumerate(result.energies.entries)),
                           (f"# objective_value={fmt(result.objective_value)}",
                            f"# converged={result.converged}"))
    return result.to_json(), "j,energy", rows, result.converged


def _cmd_mobs(cfg: dict):
    problem = _problem_from(cfg)
    group = _group_from(cfg, problem.n)
    budgets = _listed(cfg, "budgets", _real)

    def run(mode):
        # exact mobs draws nothing, so a sampled run starts from the seed
        rng = _rng_from(cfg) if mode == "monte_carlo" else None
        result = mobs(problem, budgets, cfg.get("metric"), group, mode, cfg["samples"], rng)
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


# settings read only under certain values of another:
# setting -> (governing setting, the values under which it is read)
_TABLE = {"table": ("problem", ("custom",))}
# auto mode (None) samples where the exact path refuses, so it reads both
_SAMPLING = dict.fromkeys(("samples", "seed"), ("mode", (None, "monte_carlo")))

# subcommand -> (handler, the defaults a config file and flags override,
# its settings read only under certain values of another)
_COMMANDS = {
    "eval": (_cmd_eval, {"format": "plain"}, _TABLE),
    "simulate": (_cmd_simulate, {"group": "identity", "decoder": "identity", "loss": "exact",
                                 "samples": 100_000, "seed": 0, "format": "json"},
                 {**_TABLE, **_SAMPLING, **dict.fromkeys(("allocation", "budget"),
                                                          ("energies", (None,)))}),
    "allocate": (_cmd_allocate, {"metric": "ue_variance", "group": "identity",
                                 "method": "coordinate_descent", "resolution": 0.05,
                                 "format": "json"},
                 {**_TABLE, **dict.fromkeys(("group", "generators"), ("metric", METRIC_KINDS)),
                  "resolution": ("method", ("grid",))}),
    "mobs": (_cmd_mobs, {"group": "symmetric", "samples": 100_000, "seed": 0, "format": "json"},
             {**_TABLE, **_SAMPLING}),
    "curve": (_cmd_curve, {"sigma": 1.0, "vdd_min": 0.0, "steps": 101, "format": "csv"},
              dict.fromkeys(("vdd_min", "vdd_max", "steps"), ("vdd", (None,)))),
    "table2": (_cmd_table2, {"sizes": "4,6,8", "comparison_widths": "2,3,4",
                             "sorting_shapes": "4x2", "format": "csv"}, {}),
}


# ---------------------------------------------------------------------------
# flags, and the two readers of a command line

class _Flag(NamedTuple):
    """How a flag's value is read, by argparse, a config file and _read_plain
    alike: its key, its type (int or float; None keeps the text), the values
    it may take (None for any) and its help."""

    dest: str
    type: type | None
    choices: tuple | None
    help: str | None


def _flag(text: str, type=None, choices=None, help=None) -> tuple[str, _Flag]:
    """(text, _Flag) for a subcommand's flag dict; the key is argparse's dest
    for the text."""
    return text, _Flag(text[2:].replace("-", "_"), type, choices, help)


_PROBLEM_FLAGS = (_flag("--problem", choices=PROBLEM_KINDS), _flag("--n", int),
                  _flag("--tribe-count", int), _flag("--k", int), _flag("--count", int),
                  _flag("--width", int), _flag("--table"))
_ENERGY_FLAGS = (_flag("--energies"), _flag("--allocation", choices=("uniform", "analytic")),
                 _flag("--budget", float))
_GROUP_FLAGS = (_flag("--group", choices=GROUP_KINDS), _flag("--generators"))
_SAMPLING_FLAGS = (_flag("--mode", choices=("exact", "monte_carlo")), _flag("--samples", int),
                   _flag("--seed", int))


def _output_flags(*formats) -> tuple:
    """--config, --format (one of formats) and --output, which every
    subcommand takes after the groups it shares."""
    return _flag("--config"), _flag("--format", choices=formats), _flag("--output")


# subcommand -> (its help, {flag text: _Flag} in the order help lists them)
_FLAGS = {
    "eval": ("apply a problem to one input", dict([
        *_PROBLEM_FLAGS, *_output_flags("plain", "json"),
        _flag("--bits", help="input bits, most significant first")])),
    "simulate": ("per-input error report", dict([
        *_PROBLEM_FLAGS, *_ENERGY_FLAGS, *_GROUP_FLAGS, *_SAMPLING_FLAGS,
        *_output_flags("csv", "json"), _flag("--decoder", choices=("identity", "map")),
        _flag("--loss", choices=("exact", "absolute")),
        _flag("--input", help="restrict to one input row (bits, MSB first)")])),
    "allocate": ("search for an energy allocation", dict([
        *_PROBLEM_FLAGS, *_GROUP_FLAGS, *_output_flags("csv", "json"),
        _flag("--metric", choices=("ue_variance", *METRIC_KINDS)), _flag("--budget", float),
        _flag("--method", choices=("coordinate_descent", "grid")),
        _flag("--resolution", float)])),
    "mobs": ("blindfolded-vs-clairvoyant price", dict([
        *_PROBLEM_FLAGS, *_GROUP_FLAGS, *_SAMPLING_FLAGS, *_output_flags("csv", "json"),
        _flag("--metric", choices=METRIC_KINDS),
        _flag("--budgets", help="comma-separated energy budgets")])),
    "curve": ("supply-voltage correctness curve", dict([
        *_output_flags("csv", "json"), _flag("--sigma", float), _flag("--vdd", float),
        _flag("--vdd-min", float), _flag("--vdd-max", float), _flag("--steps", int)])),
    "table2": ("summary sweep over problem families", dict([
        *_output_flags("csv", "json"), _flag("--sizes", help="comma-separated n values"),
        _flag("--comparison-widths"),
        _flag("--sorting-shapes", help="semicolon-separated countxwidth shapes")])),
}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's argparse parser, built from _FLAGS on first use and shared by
    every later call."""
    parser = argparse.ArgumentParser(
        prog="inexact",
        description="Energy/error tradeoff experiments for noisy Boolean evaluation")
    parser.add_argument("--version", action="version", version=f"inexact {__version__}")
    commands = parser.add_subparsers(dest="command", required=True)
    for command, (summary, flags) in _FLAGS.items():
        sub = commands.add_parser(command, help=summary)
        for text, flag in flags.items():
            sub.add_argument(text, dest=flag.dest, type=flag.type, choices=flag.choices,
                             help=flag.help)
    return parser


def _read_plain(argv: list) -> argparse.Namespace | None:
    """The Namespace argparse gives a plain command line, CMD --flag value ...:
    a known command, then pairs of an exact flag of it and one value that
    does not start with "-", which the flag's type reads and its choices
    hold.  None for any other argv, which argparse reads.  As argparse's,
    the Namespace holds the command, then every key of the command in
    declaration order, None unless given; a repeated flag keeps its last."""
    if not argv or len(argv) % 2 == 0 or argv[0] not in _FLAGS:
        return None
    flags = _FLAGS[argv[0]][1]
    values = dict.fromkeys(flag.dest for flag in flags.values())
    for text, value in zip(argv[1::2], argv[2::2]):
        flag = flags.get(text)
        if flag is None or value.startswith("-"):
            return None
        if flag.type is not None:
            try:
                value = flag.type(value)
            except ValueError:
                return None
        if flag.choices is not None and value not in flag.choices:
            return None
        values[flag.dest] = value
    return argparse.Namespace(command=argv[0], **values)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = _read_plain(argv)
    if args is None:  # help, --version, abbreviations, --flag=value, errors
        args = build_parser().parse_args(argv)
    try:
        cfg = _merge_config(args)
        cfg["command"] = args.command
        body, header, rows, converged = _COMMANDS[args.command][0](cfg)
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
