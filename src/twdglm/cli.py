"""Batch command-line front end.

Subcommands: ``simulate`` (synthetic data + graph + oracle), ``fit``,
``tune`` (hold-out grid search), ``predict`` and ``report``. Every
output is delimited text; the effective configuration is echoed to the
output directory as JSON and can be fed back via ``--config`` to
reproduce a run. Failures print a single machine-parsable line
``error[CODE]: message`` and exit nonzero.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import operator
import os
import shutil
import sys
from typing import NamedTuple

import numpy as np

from .errors import (CalibrationError, ConfigError, DomainError, SchemaError,
                     SingularSystemError, TwdglmError, read_lines,
                     utf8_error_at)
from .family import Approx, FamilySpec, check_support, validate_links
from .graph import ArealGraph, PenaltyMode, assemble_penalty
from .inference import alpha_summary, fisher_information, wald_table
from .likelihood import Coefficients, Dataset
from .links import LinkPair, link_eval
from .optimizer import FitConfig, fit
from .simgen import SimConfig, make_dataset
from .tuning import GridSpec, grid_search, weighted_deviance

_ALL = ("simulate", "fit", "tune", "predict", "report")
_MODEL = ("fit", "tune", "predict")
_FIT = ("fit", "tune")


class _Option(NamedTuple):
    default: object
    kind: type | tuple      # float, int, str, bool or the allowed values
    commands: tuple         # the subcommands that read the option
    help: str | None = None


# every option of the command line; the parser, the checks of a config
# file and the echo all come from this table
_OPTIONS = {
    "family": _Option("cpg", str, _MODEL),
    "p": _Option(None, float, ("simulate",) + _MODEL),
    "p_grid": _Option(None, str, _FIT,
                      "lo:hi:step profile grid for the index parameter"),
    "mean_link": _Option(None, str, _MODEL),
    "disp_link": _Option("log", str, _MODEL),
    "penalty": _Option("spatial", ("spatial", "spatial+ridge"), _FIT),
    "lambda1": _Option(1.0, float, ("fit",)),
    "lambda2": _Option(1.0, float, ("fit",)),
    "grid": _Option("-5:5:20,-5:5:20", str, ("tune",),
                    "l1lo:l1hi:n1,l2lo:l2hi:n2 in log-lambda units"),
    "graph": _Option(None, str, _MODEL),
    "data": _Option(None, str, _MODEL),
    "train_frac": _Option(0.6, float, ("tune",)),
    "seed": _Option(0, int, ("simulate", "tune")),
    "out": _Option(None, str, _ALL),
    "approx": _Option("series", ("series", "saddlepoint"), _FIT),
    "expand": _Option(False, bool, _MODEL,
                      "expand categorical covariate columns to dummies, "
                      "dropping the last level"),
    "pattern": _Option("block", ("block", "smooth", "hotspot", "structured"),
                       ("simulate",)),
    "lattice": _Option("5x5", str, ("simulate",), "ROWSxCOLS, e.g. 5x5"),
    "n": _Option(10000, int, ("simulate",)),
    "zero_prop": _Option(0.15, float, ("simulate",)),
    "amplitude": _Option(1.0, float, ("simulate",)),
    "fit_dir": _Option(None, str, ("predict", "report")),
    "oracle": _Option(None, str, ("report",)),
    "coefficients": _Option(None, str, ("predict",)),
}

_JSON_TYPES = {float: "a number", int: "an integer", str: "a string",
               bool: "true or false"}


def _error(code: str, message: str) -> int:
    sys.stderr.write(f"error[{code}]: {message}\n")
    return 1 if code not in ("E_CONFIG", "E_SCHEMA") else 2


class _Parser(argparse.ArgumentParser):
    """An argument parser whose errors raise ConfigError, so that a bad
    command line ends in one ``error[E_CONFIG]`` line."""

    def error(self, message):
        raise ConfigError(f"{self.prog}: {message}")


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: parsing leaves
    it unchanged, so every command shares it. Each subcommand takes the
    options of ``_OPTIONS`` that it reads, and ``--config``."""
    parser = _Parser(prog="twdglm",
                     description="Spatially penalized Tweedie double GLMs")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, run in _COMMANDS.items():
        cmd = sub.add_parser(command, help=run.__doc__)
        for key, opt in _OPTIONS.items():
            if command in opt.commands:
                kind = ({"action": "store_true"} if opt.kind is bool
                        else {"choices": opt.kind}
                        if isinstance(opt.kind, tuple) else {"type": opt.kind})
                cmd.add_argument("--" + key.replace("_", "-"), default=None,
                                 help=opt.help, **kind)
        cmd.add_argument("--config",
                         help="JSON file of option values; flags override it")
    return parser


def _effective_options(args: argparse.Namespace) -> dict:
    """The options of ``args.command``: defaults, overridden for
    ``predict`` by the fit directory's model options and then its
    fitted p, then by the config file, then by flags. A null in the
    config file leaves the option unset; a key that only other commands
    read is ignored."""
    opts = {key: opt.default for key, opt in _OPTIONS.items()
            if args.command in opt.commands}
    given = {}
    if args.config:
        for key, val in _read_config(args.config).items():
            # "threads" and "max_block" are echoed by earlier versions
            if key == "max_block" and val is not None:
                raise ConfigError(
                    f"{args.config}: config key 'max_block' is no longer "
                    "supported: the approximate Laplacian was removed and "
                    "every fit solves the exact penalized system")
            if key in ("command", "threads", "max_block"):
                continue
            if key not in _OPTIONS:
                raise ConfigError(
                    f"{args.config}: unknown config key {key!r}")
            if val is not None:
                _check_value(args.config, key, val)
                if args.command in _OPTIONS[key].commands:
                    given[key] = val
    given.update((key, getattr(args, key)) for key in opts
                 if getattr(args, key) is not None)
    if args.command == "predict" and given.get("fit_dir"):
        opts.update(_fit_dir_options(given["fit_dir"]))
    opts.update(given)
    return opts


def _check_value(path, key, val) -> None:
    """Raise ConfigError, naming the file and the key, unless ``val``
    has the JSON type of option ``key`` or is one of its allowed
    values."""
    kind = _OPTIONS[key].kind
    if isinstance(kind, tuple):
        ok, want = val in kind, "one of " + ", ".join(map(json.dumps, kind))
    else:
        # bool is a subclass of int, and an integer is a number
        ok = type(val) in ((int, float) if kind is float else (kind,))
        want = _JSON_TYPES[kind]
    if not ok:
        raise ConfigError(f"{path}: config key {key!r} expects {want}, "
                          f"got {json.dumps(val)}")


# the options of a fit that ``predict --fit-dir`` takes from it
_FIT_DIR_KEYS = ("family", "p", "mean_link", "disp_link", "graph")


def _fit_dir_options(fit_dir) -> dict:
    """The model options echoed to a fit directory, with p replaced by
    the fitted p_hat of its summary."""
    opts = {}
    cfg_path = os.path.join(fit_dir, "effective_config.json")
    if os.path.exists(cfg_path):
        fit_cfg = _read_config(cfg_path)
        for key in _FIT_DIR_KEYS:
            if fit_cfg.get(key) is not None:
                _check_value(cfg_path, key, fit_cfg[key])
                opts[key] = fit_cfg[key]
    summary = os.path.join(fit_dir, "summary.tsv")
    if os.path.exists(summary):
        for lineno, (key, value) in _read_table(summary, _SUMMARY,
                                                "summary"):
            if key == "p_hat":
                opts["p"] = _finite(summary, lineno, value, "p_hat value")
    return opts


def _read_config(path) -> dict:
    """The JSON object in a configuration file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            cfg = json.load(fh)
    except UnicodeDecodeError:
        raise ConfigError(f"cannot read config {path}: "
                          f"{utf8_error_at(path)}") from None
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None
    if not isinstance(cfg, dict):
        raise ConfigError(f"cannot read config {path}: expected a JSON "
                          "object")
    return cfg


def _parse_lambda_grid(opts: dict):
    try:
        part1, part2 = opts["grid"].split(",")
        l1lo, l1hi, n1 = part1.split(":")
        l2lo, l2hi, n2 = part2.split(":")
        ax1 = np.linspace(float(l1lo), float(l1hi), int(n1))
        ax2 = np.linspace(float(l2lo), float(l2hi), int(n2))
    except ValueError:
        raise ConfigError("--grid expects l1lo:l1hi:n1,l2lo:l2hi:n2")
    return ax1, ax2


def _parse_lattice(opts: dict):
    try:
        rows, cols = (int(v) for v in opts["lattice"].lower().split("x"))
    except ValueError:
        raise ConfigError("--lattice expects ROWSxCOLS, e.g. 5x5")
    return rows, cols


def _require(opts: dict, key: str, flag: str):
    if opts.get(key) in (None, ""):
        raise ConfigError(f"{flag} is required for this command")
    return opts[key]


def _echo_config(out: str, command: str, opts: dict) -> None:
    payload = {"command": command, **opts}
    with open(os.path.join(out, "effective_config.json"), "w",
              encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _fmt(x: float) -> str:
    return f"{x:.17g}"


# ---------------------------------------------------------------------------
# Dataset loading
# ---------------------------------------------------------------------------

def _expand_categorical(name, values):
    """Dummy columns for a string-valued covariate, dropping the last
    sorted level."""
    levels, codes = np.unique(np.array(values, dtype=object),
                              return_inverse=True)
    if levels.size < 2:
        raise SchemaError(f"column {name!r} has a single level; nothing "
                          "to expand")
    return ([(codes == j).astype(float) for j in range(levels.size - 1)],
            [f"{name}[{lev}]" for lev in levels[:-1]])


def load_dataset(path: str, spec: FamilySpec, graph: ArealGraph,
                 expand: bool = False):
    """Typed dataset from a headered CSV.

    Required columns ``y`` and ``vertex``; optional ``exposure``
    (default 1); mean covariates are an intercept and the
    ``x_``-prefixed columns, dispersion covariates an intercept (none
    for Poisson) and the ``z_``-prefixed ones. Vertex labels must
    exist in the graph. Returns (Dataset, beta_names, gamma_names).

    Cells are checked column by column: of several bad cells the first
    in the order of README "Dataset CSV" is reported (row widths, y,
    exposure, vertex, x_ then z_ columns in header order, support).

    The file is first parsed in one pass by numpy's C reader, whose
    result is kept only when every check passes. The column-wise parser
    of Python's ``csv`` module and ``float()`` reads every other input,
    so it is the one source of the parsing contract and of every error
    message. It also reads each input on which the two parsers could
    disagree:
    - a file that is not UTF-8, or whose header holds a quote;
    - a blank line, which ``csv`` reads as a zero-width row and
      ``loadtxt`` skips;
    - a ``\\r`` that does not end a line, which ``loadtxt`` rejects;
    - a line longer than the ``csv`` field size limit, which
      ``loadtxt`` lacks, or a quoted line end, which lets a field
      outgrow its line;
    - a row of the wrong width;
    - a number ``float()`` reads and ``loadtxt`` does not, such as
      ``1_000`` or one written in non-ASCII digits;
    - a categorical ``x_`` or ``z_`` column.
    """
    loaded = _load_fast(path, spec, graph)
    if loaded is None:
        loaded = _load_columnwise(path, spec, graph, expand)
    return loaded


def _load_fast(path, spec, graph):
    """``load_dataset`` by one pass of ``np.loadtxt``, or None for an
    input the column-wise path must read."""
    lines = _line_layout(path)
    if lines is None:
        return None
    first, n_rows = lines
    header = [h.strip() for h in first.split(",")]
    try:
        col = _header_columns(path, spec, header)
    except TwdglmError:
        return None
    dtype = [(f"c{j}", float if name in ("y", "exposure")
              or name.startswith(("x_", "z_")) else object)
             for j, name in enumerate(header)]
    try:
        table = np.loadtxt(path, dtype=dtype, delimiter=",", comments=None,
                           quotechar='"', skiprows=1, encoding="utf-8",
                           ndmin=1)
    except ValueError:
        return None
    # a quoted line end joins two lines into one row
    if table.size != n_rows:
        return None

    def cells(name):
        return table[f"c{col[name]}"]

    try:
        return _assemble(path, spec, graph, col, floats=cells, cells=cells,
                         expand=False)
    except TwdglmError:
        return None


_LF, _CR = ord("\n"), ord("\r")


def _line_layout(path):
    """(header line, number of data lines) of a file whose lines
    ``csv`` and ``np.loadtxt`` split alike: a UTF-8 header without
    quotes, at least one data line, no blank line, every ``\\r``
    before a ``\\n``, and no line longer than the ``csv`` field size
    limit. None for any other file."""
    try:
        with open(path, "rb") as fh:
            content = fh.read()
    except OSError:
        return None
    raw = np.frombuffer(content, np.uint8)
    ends = np.flatnonzero(raw == _LF)
    if ends.size == 0 or raw.size == ends[0] + 1:
        return None
    starts = np.concatenate(([0], ends[:-1] + 1))
    widths = ends - starts
    blank = (widths == 0) | ((widths == 1) & (raw[starts] == _CR))
    if (blank.any()
            or np.count_nonzero(raw == _CR)
            != np.count_nonzero(raw[ends - 1] == _CR)
            or max(widths.max(), raw.size - ends[-1] - 1)
            > csv.field_size_limit()):
        return None
    try:
        first = content[:ends[0]].decode("utf-8").rstrip("\r")
    except UnicodeDecodeError:
        return None
    if '"' in first:
        return None
    return first, ends.size - (raw[-1] == _LF)


def _load_columnwise(path, spec, graph, expand):
    """``load_dataset`` by Python's ``csv`` module and ``float()``, one
    column at a time."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
            rows = list(reader)
        except StopIteration:
            raise SchemaError(f"{path}: empty file")
        except UnicodeDecodeError:
            raise SchemaError(f"{path}: {utf8_error_at(path)}") from None
        except csv.Error as exc:
            raise SchemaError(f"{path}: line {reader.line_num}: {exc}")
    header = [h.strip() for h in header]
    col = _header_columns(path, spec, header)
    n = len(rows)
    if n == 0:
        raise SchemaError(f"{path}: no data rows")
    widths = np.fromiter(map(len, rows), int, n)
    ragged = np.flatnonzero(widths != len(header))
    if ragged.size:
        i = int(ragged[0])
        raise SchemaError(f"{path}: row {i + 1}: expected {len(header)} "
                          f"fields, got {widths[i]}")

    def cells(name):
        return map(operator.itemgetter(col[name]), rows)

    def floats(name):
        try:
            return np.fromiter(map(float, cells(name)), float, n)
        except ValueError:
            return None

    return _assemble(path, spec, graph, col, floats, cells, expand)


def _header_columns(path, spec, header):
    """{name: position} of the stripped header names, after checking
    that none repeats, the required columns are present and a Poisson
    model has no dispersion columns."""
    col = {}
    for j, name in enumerate(header):
        if name in col:
            raise SchemaError(f"{path}: duplicate column {name!r}")
        col[name] = j
    for required in ("y", "vertex"):
        if required not in col:
            raise SchemaError(f"{path}: missing required column "
                              f"{required!r}")
    if not spec.has_dispersion and any(h.startswith("z_") for h in header):
        raise ConfigError(
            "constant dispersion member: Poisson admits no dispersion "
            "covariates")
    return col


def _assemble(path, spec, graph, col, floats, cells, expand):
    """(Dataset, beta_names, gamma_names) from a parsed file, with the
    cell checks after the row widths in the order of README "Dataset
    CSV". ``floats(name)`` is a column as floats, or None if a cell is
    not a number; ``cells(name)`` is the column as read."""

    def check_column(name, ok, what):
        """Reject the first cell of a parsed column where ok is False."""
        if not ok.all():
            i = int(np.argmin(ok))
            raise SchemaError(f"{path}: row {i + 1}, column {name!r}: "
                              f"{what} value {list(cells(name))[i]!r}")

    def numbers(name, design=False):
        """The column as finite floats; None for a categorical design
        column when expanding."""
        vals = floats(name)
        if vals is None:
            if design and expand:
                return None
            for i, cell in enumerate(cells(name), start=1):
                try:
                    float(cell)
                except ValueError:
                    break
            value = "(use --expand for categorical columns)" if design \
                else repr(cell)
            raise SchemaError(f"{path}: row {i}, column {name!r}: "
                              f"non-numeric value {value}")
        check_column(name, np.isfinite(vals), "non-finite")
        return vals

    y = numbers("y")
    n = y.size
    w = np.ones(n)
    if "exposure" in col:
        w = numbers("exposure")
        check_column("exposure", w > 0, "non-positive")
    label_to_idx = graph.label_index()
    labels = list(map(str.strip, cells("vertex")))
    try:
        vertex = np.fromiter(map(label_to_idx.__getitem__, labels), int, n)
    except KeyError as exc:     # raised at the first unknown label
        label = exc.args[0]
        raise SchemaError(f"{path}: row {labels.index(label) + 1}: unknown "
                          f"vertex label {label!r}")

    def build_design(prefix):
        mats, names = [], []
        for name in col:
            if not name.startswith(prefix):
                continue
            vals = numbers(name, design=True)
            if vals is None:
                dummies, dnames = _expand_categorical(name,
                                                      list(cells(name)))
                mats.extend(dummies)
                names.extend(dnames)
            else:
                mats.append(vals)
                names.append(name)
        return mats, names

    x_mats, beta_names = build_design("x_")
    z_mats, gamma_names = build_design("z_")
    x_mats.insert(0, np.ones(n))
    beta_names.insert(0, "(intercept)")
    if spec.has_dispersion:
        z_mats.insert(0, np.ones(n))
        gamma_names.insert(0, "(intercept)")
    X = np.column_stack(x_mats)
    Z = np.column_stack(z_mats) if z_mats else np.zeros((n, 0))

    data = Dataset(y, w, vertex, X, Z, graph)
    try:
        check_support(spec, data.ystar, what="y/exposure")
    except DomainError as exc:
        raise DomainError(f"{path}: row {exc.row + 1}: {exc}")
    return data, beta_names, gamma_names


# ---------------------------------------------------------------------------
# Tables
# ---------------------------------------------------------------------------

# the header of a coefficients file and of a summary
_COEFFICIENTS = ("block", "name", "value")
_SUMMARY = ("key", "value")


def _write_table(path, header, *columns) -> None:
    """Write a tab-separated table: the ``header`` names, then one line
    per row holding that row's entry of each column. A float is written
    by ``_fmt``, any other entry by ``str``; a column passed twice is
    formatted once."""
    text = {}
    for col in columns:
        if id(col) not in text:
            entries = col.tolist() if isinstance(col, np.ndarray) else col
            text[id(col)] = [_fmt(v) if isinstance(v, float) else str(v)
                             for v in entries]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\t".join(header) + "\n")
        fh.writelines("\t".join(row) + "\n"
                      for row in zip(*(text[id(col)] for col in columns)))


def _read_table(path, header, what):
    """(line number, fields) of each line after the header of a table
    that ``_write_table`` wrote with ``header``; SchemaError names the
    file when its first line is not ``header``, and the line when one
    has another number of fields."""
    lines = read_lines(path)
    if not lines or lines[0].rstrip("\r\n").split("\t") != list(header):
        raise SchemaError(f"{path}: not a {what} file")
    for lineno, line in enumerate(lines[1:], start=2):
        fields = line.rstrip("\r\n").split("\t")
        if len(fields) != len(header):
            raise SchemaError(f"{path}: line {lineno}: expected "
                              f"{len(header)} fields")
        yield lineno, fields


def _finite(path, lineno, text, what="value") -> float:
    """The finite number a table cell holds; SchemaError names the file
    and the line otherwise."""
    try:
        value = float(text)
    except ValueError:
        raise SchemaError(f"{path}: line {lineno}: bad {what}") from None
    if not np.isfinite(value):
        raise SchemaError(f"{path}: line {lineno}: non-finite {what}")
    return value


def _write_coefficients(path, theta: Coefficients, beta_names, gamma_names,
                        labels):
    blocks = {"beta": beta_names, "alpha": labels, "gamma": gamma_names}
    _write_table(path, _COEFFICIENTS,
                 [block for block, names in blocks.items() for _ in names],
                 [name for names in blocks.values() for name in names],
                 theta.as_vector())


def read_coefficients(path):
    """Inverse of the coefficients writer; returns (theta, beta_names,
    gamma_names, alpha_labels)."""
    blocks = {"beta": ([], []), "alpha": ([], []), "gamma": ([], [])}
    for lineno, (block, name, value) in _read_table(path, _COEFFICIENTS,
                                                    "coefficients"):
        value = _finite(path, lineno, value)
        if block not in blocks:
            raise SchemaError(f"{path}: line {lineno}: unknown block "
                              f"{block!r}")
        blocks[block][0].append(value)
        blocks[block][1].append(name)
    (beta, beta_names), (alpha, labels), (gamma, gamma_names) = \
        blocks.values()
    theta = Coefficients(np.array(beta), np.array(alpha), np.array(gamma))
    return theta, beta_names, gamma_names, labels


def write_wald_table(path, rows) -> None:
    """The Wald rows of ``inference.wald_table``, one per coefficient."""
    _write_table(path, ("effect", "level", "estimate", "std_error", "z",
                        "p_value"),
                 *zip(*((r.name, "--", r.estimate, r.std_error, r.z,
                         r.p_value) for r in rows)))


def export_surface(path, surface) -> None:
    """The deviance surface of ``tuning.grid_search``, one row per
    cell in traversal order."""
    _write_table(path, ("log_lambda1", "log_lambda2", "holdout_deviance",
                        "converged", "iters", "error"),
                 *zip(*((c.log_lambda1, c.log_lambda2, c.deviance,
                         int(c.converged), c.iters, c.error)
                        for c in surface)))


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def _cmd_simulate(opts) -> int:
    """generate a synthetic instance"""
    out = _require(opts, "out", "--out")
    rows, cols = _parse_lattice(opts)
    spec = FamilySpec.compound_poisson_gamma(
        1.5 if opts["p"] is None else float(opts["p"]))
    sim = SimConfig(amplitude=float(opts["amplitude"]))
    data, oracle = make_dataset(opts["n"], rows, cols, opts["pattern"], spec,
                                float(opts["zero_prop"]), opts["seed"],
                                sim=sim)
    os.makedirs(out, exist_ok=True)
    g = data.graph
    with open(os.path.join(out, "graph.tsv"), "w", encoding="utf-8") as fh:
        fh.write("# edge list\n")
        fh.writelines(f"{g.labels[a]}\t{g.labels[b]}\n" for a, b in g.edges)
    with open(os.path.join(out, "data.csv"), "w", encoding="utf-8",
              newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["y", "exposure", "vertex"]
                        + [f"x_{j}" for j in range(1, 5)]
                        + [f"z_{j}" for j in range(1, 5)])
        y, w, *xz = (map(_fmt, c) for c in np.column_stack(
            [data.y, data.w, data.X[:, 1:], data.Z[:, 1:]]).T.tolist())
        writer.writerows(zip(y, w, map(g.labels.__getitem__,
                                        data.vertex.tolist()), *xz))
    beta_names = ["(intercept)"] + [f"x_{j}" for j in range(1, 5)]
    gamma_names = ["(intercept)"] + [f"z_{j}" for j in range(1, 5)]
    _write_coefficients(os.path.join(out, "oracle.tsv"), oracle,
                        beta_names, gamma_names, g.labels)
    _echo_config(out, "simulate", opts)
    print(f"simulate: wrote {data.n_rows} rows over {g.n_vertices} "
          f"vertices to {out}")
    return 0


def _prepare_model(opts):
    """The family, links, index grid, graph and dataset of the options.
    The index grid (None for a command without ``--p-grid``) is checked
    before any file is read."""
    spec = FamilySpec.named(opts["family"], opts["p"],
                            Approx(opts.get("approx", Approx.SERIES)))
    mean = opts["mean_link"]
    links = LinkPair.of(spec.default_link if mean is None else mean,
                        opts["disp_link"])
    validate_links(spec, links)
    p_grid = _index_grid(opts, spec) if "p_grid" in opts else None
    graph = ArealGraph.from_edge_list_file(_require(opts, "graph", "--graph"))
    data, beta_names, gamma_names = load_dataset(
        _require(opts, "data", "--data"), spec, graph, expand=opts["expand"])
    return spec, links, p_grid, graph, data, beta_names, gamma_names


def _index_grid(opts, spec) -> np.ndarray:
    """The fit's index grid: a given p is fixed unless ``--p-grid`` is
    set, and the member checks the grid."""
    raw = opts["p_grid"]
    grid = [] if opts["p"] is None else [spec.p]
    if raw is not None:
        try:
            lo, hi, step = (float(v) for v in raw.split(":"))
        except ValueError:
            raise ConfigError("--p-grid expects lo:hi:step")
        if not np.all(np.isfinite([lo, hi, step])):
            raise ConfigError("--p-grid expects finite lo, hi and step")
        if step <= 0 or hi < lo:
            raise ConfigError("--p-grid expects lo <= hi and step > 0")
        grid = np.round(np.arange(lo, hi + step / 2.0, step), 12)
    return spec.index_grid(grid)[1]


def _fit_config(opts, data, p_grid, lambda1, lambda2) -> FitConfig:
    """The fit's penalty and index grid."""
    penalty = assemble_penalty(PenaltyMode.from_name(opts["penalty"]),
                               lambda1, lambda2, data.k_beta, data.graph,
                               data.k_gamma)
    return FitConfig(penalty=penalty, p_grid=p_grid)


def _write_fit_outputs(out, spec, links, data, beta_names, gamma_names,
                       result, extra_summary):
    labels = data.graph.labels
    _write_coefficients(os.path.join(out, "coefficients.tsv"),
                        result.theta_hat, beta_names, gamma_names, labels)
    trace = result.objective_trace
    _write_table(os.path.join(out, "trace.tsv"), ("iteration", "objective"),
                 range(trace.size), trace)
    spec_hat = spec.with_p(result.p_hat)
    info = fisher_information(data, result.theta_hat, spec_hat, links)
    try:
        rows = wald_table(result.theta_hat, info, beta_names, gamma_names)
        write_wald_table(os.path.join(out, "wald.tsv"), rows)
    except SingularSystemError as exc:
        with open(os.path.join(out, "wald.tsv"), "w",
                  encoding="utf-8") as fh:
            fh.write(f"# unavailable: {exc}\n")
    summ = alpha_summary(result.theta_hat.alpha)
    nll = weighted_deviance(data, result.theta_hat.eta, spec_hat, links.mean)
    items = [
        ("converged", int(result.converged)),
        ("iterations", result.iters),
        ("p_hat", float(result.p_hat)),
        ("final_objective", float(result.objective_trace[-1])),
        ("train_weighted_deviance", nll),
        ("n_rows", data.n_rows),
        ("n_vertices", data.graph.n_vertices),
        ("alpha_mean", summ["mean"]),
        ("alpha_median", summ["median"]),
        ("alpha_sd", summ["sd"]),
        ("alpha_range", summ["range"]),
    ] + extra_summary
    _write_table(os.path.join(out, "summary.tsv"), _SUMMARY, *zip(*items))


def _cmd_fit(opts) -> int:
    """fit one model"""
    out = _require(opts, "out", "--out")
    spec, links, p_grid, graph, data, beta_names, gamma_names = \
        _prepare_model(opts)
    cfg = _fit_config(opts, data, p_grid, float(opts["lambda1"]),
                      float(opts["lambda2"]))
    os.makedirs(out, exist_ok=True)
    result = fit(data, spec, links, cfg)
    _write_fit_outputs(
        out, spec, links, data, beta_names, gamma_names, result,
        extra_summary=[("lambda1", float(opts["lambda1"])),
                       ("lambda2", float(opts["lambda2"]))])
    _echo_config(out, "fit", opts)
    print(f"fit: converged={result.converged} iters={result.iters} "
          f"p_hat={result.p_hat:g} out={out}")
    return 0


def _cmd_tune(opts) -> int:
    """grid-search the penalty multipliers"""
    out = _require(opts, "out", "--out")
    ax1, ax2 = _parse_lambda_grid(opts)
    spec, links, p_grid, graph, data, beta_names, gamma_names = \
        _prepare_model(opts)
    grid = GridSpec(ax1, ax2, float(opts["train_frac"]), opts["seed"])
    # grid_search replaces the penalty in every cell, so the template
    # is that of the largest cell: its entries are the largest, and an
    # exp that overflows gives inf, which assemble_penalty rejects
    with np.errstate(over="ignore"):
        top1, top2 = np.exp(ax1.max()), np.exp(ax2.max())
    cfg = _fit_config(opts, data, p_grid, float(top1), float(top2))
    result = grid_search(data, spec, links, cfg, grid)
    os.makedirs(out, exist_ok=True)
    export_surface(os.path.join(out, "surface.tsv"), result.surface)
    with open(os.path.join(out, "holdout_rows.txt"), "w",
              encoding="utf-8") as fh:
        fh.writelines(f"{idx}\n" for idx in result.holdout_index)
    train = data.subset(result.train_index)
    dev = result.best_deviance
    _write_fit_outputs(
        out, spec, links, train, beta_names, gamma_names, result.best_fit,
        extra_summary=[("lambda1", result.best_lambda1),
                       ("lambda2", result.best_lambda2),
                       ("holdout_weighted_deviance", dev)])
    _echo_config(out, "tune", opts)
    print(f"tune: best lambda1={result.best_lambda1:g} "
          f"lambda2={result.best_lambda2:g} holdout_deviance={dev:.6g} "
          f"out={out}")
    return 0


def _cmd_predict(opts) -> int:
    """score new rows with a fit"""
    out = _require(opts, "out", "--out")
    coef_path = opts.get("coefficients")
    if coef_path is None:
        fit_dir = _require(opts, "fit_dir", "--fit-dir or --coefficients")
        coef_path = os.path.join(fit_dir, "coefficients.tsv")
    theta, beta_names, gamma_names, labels = read_coefficients(coef_path)
    spec, links, _, graph, data, data_beta, data_gamma = \
        _prepare_model(opts)
    alpha = np.empty(graph.n_vertices)
    alpha[_positions(coef_path, "alpha", labels, graph.labels,
                     "graph")] = theta.alpha
    # the design columns are put in the order of the coefficients, in
    # row-major copies like the loader's, so that each product sums its
    # terms as it did for the data the fit read
    data = Dataset(
        data.y, data.w, data.vertex,
        np.take(data.X, _positions(coef_path, "beta", beta_names,
                                   data_beta, "data design"), axis=1),
        np.take(data.Z, _positions(coef_path, "gamma", gamma_names,
                                   data_gamma, "data design"), axis=1),
        graph)
    theta = Coefficients(theta.beta, alpha, theta.gamma)
    os.makedirs(out, exist_ok=True)
    t = data.X @ theta.beta + theta.alpha[data.vertex]
    mu = link_eval(links.mean, t)
    s = data.Z @ theta.gamma if data.k_gamma else np.zeros(data.n_rows)
    phi = link_eval(links.disp, s)
    _write_table(os.path.join(out, "predictions.tsv"),
                 ("row", "vertex", "mu_hat", "phi_hat",
                  "expected_per_exposure", "expected_total"),
                 range(data.n_rows),
                 map(graph.labels.__getitem__, data.vertex.tolist()),
                 mu, phi, mu, mu * data.w)
    dev = weighted_deviance(data, theta.eta, spec, links.mean)
    _write_table(os.path.join(out, "predict_summary.tsv"), _SUMMARY,
                 ("n_rows", "total_weighted_deviance",
                  "mean_expected_per_exposure"),
                 (data.n_rows, dev, float(mu.mean())))
    _echo_config(out, "predict", opts)
    print(f"predict: scored {data.n_rows} rows, weighted deviance "
          f"{dev:.6g}, out={out}")
    return 0


def _positions(path, block, names, model_names, model) -> list:
    """The position in ``model_names`` of each coefficient name of one
    block, read from ``path``; ConfigError when a name is missing on
    either side or repeats."""
    where = {name: i for i, name in enumerate(model_names)}
    seen = set()
    for name in names:
        if name not in where:
            raise ConfigError(f"{path}: {block} coefficient {name!r} is "
                              f"not in the {model}")
        if name in seen:
            raise ConfigError(f"{path}: {block} coefficient {name!r} "
                              "appears twice")
        seen.add(name)
    for name in model_names:
        if name not in seen:
            raise ConfigError(f"{path}: no {block} coefficient for "
                              f"{name!r} of the {model}")
    return [where[name] for name in names]


def _cmd_report(opts) -> int:
    """emit plot-ready delimited text"""
    out = _require(opts, "out", "--out")
    fit_dir = _require(opts, "fit_dir", "--fit-dir")
    theta, beta_names, gamma_names, labels = read_coefficients(
        os.path.join(fit_dir, "coefficients.tsv"))
    header, columns = ("vertex", "alpha_hat"), [labels, theta.alpha]
    if opts.get("oracle"):
        o_theta, _, _, o_labels = read_coefficients(opts["oracle"])
        lookup = dict(zip(o_labels, o_theta.alpha.tolist()))
        header += ("alpha_oracle",)
        columns.append([lookup.get(lab, np.nan) for lab in labels])
    os.makedirs(out, exist_ok=True)
    _write_table(os.path.join(out, "alpha_vs_pattern.tsv"), header,
                 *columns)
    surface_src = os.path.join(fit_dir, "surface.tsv")
    if os.path.exists(surface_src):
        shutil.copyfile(surface_src, os.path.join(out, "report_surface.tsv"))
    _echo_config(out, "report", opts)
    print(f"report: wrote plot data to {out}")
    return 0


_COMMANDS = {
    "simulate": _cmd_simulate,
    "fit": _cmd_fit,
    "tune": _cmd_tune,
    "predict": _cmd_predict,
    "report": _cmd_report,
}


def run_command(argv) -> int:
    """Parse argv and execute one subcommand; returns the exit code.

    Each command checks its options and reads its inputs before it
    creates ``--out``, so a command that fails there leaves none.
    """
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:   # --help
        return int(exc.code or 0)
    except ConfigError as exc:
        return _error("E_CONFIG", str(exc))
    try:
        opts = _effective_options(args)
        return _COMMANDS[args.command](opts)
    except (ConfigError, SchemaError) as exc:
        code = "E_SCHEMA" if isinstance(exc, SchemaError) else "E_CONFIG"
        return _error(code, str(exc))
    except DomainError as exc:
        return _error("E_SUPPORT", str(exc))
    except SingularSystemError as exc:
        return _error("E_SINGULAR", str(exc))
    except CalibrationError as exc:
        return _error("E_CALIBRATION", str(exc))
    except TwdglmError as exc:
        return _error("E_RUNTIME", str(exc))
    except OSError as exc:
        return _error("E_IO", str(exc))
    except MemoryError as exc:
        return _error("E_RUNTIME", f"out of memory: {exc}")


def main() -> None:
    sys.exit(run_command(sys.argv[1:]))


if __name__ == "__main__":
    main()
