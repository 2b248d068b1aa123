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
import json
import operator
import os
import sys

import numpy as np

from . import inference, tuning
from .errors import (CalibrationError, ConfigError, DomainError, SchemaError,
                     SingularSystemError, TwdglmError)
from .family import Approx, FamilySpec, Member, check_support
from .graph import ArealGraph, PenaltyMode, assemble_penalty, lattice_graph
from .inference import alpha_summary, fisher_information, wald_table
from .likelihood import Coefficients, Dataset
from .links import LinkKind, LinkPair, link_eval, validate_links
from .optimizer import FitConfig, default_p_grid, fit
from .simgen import PatternKind, SimConfig, make_dataset
from .tuning import GridSpec, export_surface, grid_search, weighted_deviance

_FAMILY_NAMES = {
    "normal": Member.NORMAL,
    "poisson": Member.POISSON,
    "cpg": Member.COMPOUND_POISSON_GAMMA,
    "compound-poisson-gamma": Member.COMPOUND_POISSON_GAMMA,
    "gamma": Member.GAMMA,
    "inverse-gaussian": Member.INVERSE_GAUSSIAN,
}

_DEFAULTS = {
    "family": "cpg",
    "p": None,
    "p_grid": None,
    "mean_link": None,
    "disp_link": "log",
    "penalty": "spatial",
    "lambda1": 1.0,
    "lambda2": 1.0,
    "grid": "-5:5:20,-5:5:20",
    "graph": None,
    "data": None,
    "train_frac": 0.6,
    "seed": 0,
    "out": None,
    "approx": "series",
    "expand": False,
    # simulate extras
    "pattern": "block",
    "lattice": "5x5",
    "n": 10000,
    "zero_prop": 0.15,
    "amplitude": 1.0,
    # predict/report extras
    "fit_dir": None,
    "oracle": None,
    "coefficients": None,
}


def _error(code: str, message: str) -> int:
    sys.stderr.write(f"error[{code}]: {message}\n")
    return 1 if code not in ("E_CONFIG", "E_SCHEMA") else 2


def _add_common(p: argparse.ArgumentParser):
    p.add_argument("--family", type=str, default=None)
    p.add_argument("--p", type=float, default=None)
    p.add_argument("--p-grid", dest="p_grid", type=str, default=None,
                   help="lo:hi:step profile grid for the index parameter")
    p.add_argument("--mean-link", dest="mean_link", type=str, default=None)
    p.add_argument("--disp-link", dest="disp_link", type=str, default=None)
    p.add_argument("--penalty", type=str, default=None,
                   choices=[None, "spatial", "spatial+ridge"])
    p.add_argument("--lambda1", type=float, default=None)
    p.add_argument("--lambda2", type=float, default=None)
    p.add_argument("--grid", type=str, default=None,
                   help="l1lo:l1hi:n1,l2lo:l2hi:n2 in log-lambda units")
    p.add_argument("--graph", type=str, default=None)
    p.add_argument("--data", type=str, default=None)
    p.add_argument("--train-frac", dest="train_frac", type=float,
                   default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", type=str, default=None)
    p.add_argument("--approx", type=str, default=None,
                   choices=[None, "series", "saddlepoint"])
    p.add_argument("--expand", action="store_true", default=None,
                   help="expand categorical covariate columns to dummies, "
                        "dropping the last level")
    p.add_argument("--config", type=str, default=None,
                   help="JSON file of option values; flags override it")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="twdglm",
        description="Spatially penalized Tweedie double GLMs")
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="generate a synthetic instance")
    _add_common(sim)
    sim.add_argument("--pattern", type=str, default=None,
                     choices=[None, "block", "smooth", "hotspot",
                              "structured"])
    sim.add_argument("--lattice", type=str, default=None,
                     help="ROWSxCOLS, e.g. 5x5")
    sim.add_argument("--n", type=int, default=None)
    sim.add_argument("--zero-prop", dest="zero_prop", type=float,
                     default=None)
    sim.add_argument("--amplitude", type=float, default=None)

    for name, helptext in (("fit", "fit one model"),
                           ("tune", "grid-search the penalty multipliers")):
        cmd = sub.add_parser(name, help=helptext)
        _add_common(cmd)

    pred = sub.add_parser("predict", help="score new rows with a fit")
    _add_common(pred)
    pred.add_argument("--fit-dir", dest="fit_dir", type=str, default=None)
    pred.add_argument("--coefficients", type=str, default=None)

    rep = sub.add_parser("report", help="emit plot-ready delimited text")
    _add_common(rep)
    rep.add_argument("--fit-dir", dest="fit_dir", type=str, default=None)
    rep.add_argument("--oracle", type=str, default=None)
    return parser


def _effective_options(args: argparse.Namespace) -> dict:
    """Defaults, overridden by the config file, overridden by flags."""
    opts = dict(_DEFAULTS)
    cfg_path = getattr(args, "config", None)
    if cfg_path:
        try:
            with open(cfg_path, "r", encoding="utf-8") as fh:
                file_opts = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read config {cfg_path}: {exc}")
        for key, val in file_opts.items():
            # "threads" and "max_block" are echoed by earlier versions
            if key in ("command", "threads"):
                continue
            if key == "max_block":
                if val is not None:
                    raise ConfigError(
                        "config key 'max_block' is no longer supported: "
                        "the approximate Laplacian was removed and every "
                        "fit solves the exact penalized system")
                continue
            if key not in opts:
                raise ConfigError(f"unknown config key {key!r}")
            opts[key] = val
    for key in opts:
        flag_val = getattr(args, key, None)
        if flag_val is not None:
            opts[key] = flag_val
    return opts


def _family_from_options(opts: dict) -> FamilySpec:
    name = str(opts["family"]).lower()
    if name not in _FAMILY_NAMES:
        raise ConfigError(f"unknown family {name!r}")
    member = _FAMILY_NAMES[name]
    approx = Approx(opts["approx"])
    fixed = {Member.NORMAL: 0.0, Member.POISSON: 1.0, Member.GAMMA: 2.0,
             Member.INVERSE_GAUSSIAN: 3.0}
    if member in fixed:
        p = fixed[member]
        if opts["p"] is not None and opts["p"] != p:
            raise ConfigError(
                f"family {name} has fixed index parameter {p}")
    else:
        p = opts["p"] if opts["p"] is not None else 1.5
    return FamilySpec(member, float(p), approx=approx)


def _links_from_options(opts: dict, spec: FamilySpec) -> LinkPair:
    from .links import default_links
    mean = opts["mean_link"]
    disp = opts["disp_link"] or "log"
    if mean is None:
        pair = default_links(spec)
        mean = pair.mean.kind.value
    links = LinkPair.of(mean, disp)
    validate_links(spec, links)
    return links


def _parse_p_grid(opts: dict, spec: FamilySpec) -> np.ndarray:
    raw = opts["p_grid"]
    if raw is None:
        if spec.member is Member.COMPOUND_POISSON_GAMMA \
                and opts["p"] is not None:
            return np.array([float(opts["p"])])
        return default_p_grid(spec)
    try:
        lo, hi, step = (float(v) for v in str(raw).split(":"))
    except ValueError:
        raise ConfigError("--p-grid expects lo:hi:step")
    if step <= 0 or hi < lo:
        raise ConfigError("--p-grid expects lo <= hi and step > 0")
    return np.round(np.arange(lo, hi + step / 2.0, step), 12)


def _parse_lambda_grid(opts: dict):
    raw = str(opts["grid"])
    try:
        part1, part2 = raw.split(",")
        l1lo, l1hi, n1 = part1.split(":")
        l2lo, l2hi, n2 = part2.split(":")
        ax1 = np.linspace(float(l1lo), float(l1hi), int(n1))
        ax2 = np.linspace(float(l2lo), float(l2hi), int(n2))
    except ValueError:
        raise ConfigError("--grid expects l1lo:l1hi:n1,l2lo:l2hi:n2")
    return ax1, ax2


def _parse_lattice(opts: dict):
    raw = str(opts["lattice"]).lower()
    try:
        rows, cols = (int(v) for v in raw.split("x"))
    except ValueError:
        raise ConfigError("--lattice expects ROWSxCOLS, e.g. 5x5")
    return rows, cols


def _require(opts: dict, key: str, flag: str):
    if opts.get(key) in (None, ""):
        raise ConfigError(f"{flag} is required for this command")
    return opts[key]


def _echo_config(out: str, command: str, opts: dict) -> None:
    payload = {"command": command}
    payload.update({k: opts[k] for k in sorted(opts)})
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
    """
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise SchemaError(f"{path}: empty file")
        rows = list(reader)
    header = [h.strip() for h in header]
    col = {}
    for j, name in enumerate(header):
        if name in col:
            raise SchemaError(f"{path}: duplicate column {name!r}")
        col[name] = j
    for required in ("y", "vertex"):
        if required not in col:
            raise SchemaError(f"{path}: missing required column "
                              f"{required!r}")
    x_cols = [h for h in header if h.startswith("x_")]
    z_cols = [h for h in header if h.startswith("z_")]
    if spec.member is Member.POISSON and z_cols:
        raise ConfigError(
            "constant dispersion member: Poisson admits no dispersion "
            "covariates")
    n = len(rows)
    if n == 0:
        raise SchemaError(f"{path}: no data rows")
    widths = np.fromiter(map(len, rows), int, n)
    ragged = np.flatnonzero(widths != len(header))
    if ragged.size:
        i = int(ragged[0])
        raise SchemaError(f"{path}: row {i + 1}: expected {len(header)} "
                          f"fields, got {widths[i]}")

    def column(name):
        return map(operator.itemgetter(col[name]), rows)

    def check_column(name, ok, what):
        """Reject the first cell of a parsed column where ok is False."""
        if not ok.all():
            i = int(np.argmin(ok))
            raise SchemaError(f"{path}: row {i + 1}, column {name!r}: "
                              f"{what} value {rows[i][col[name]]!r}")

    def floats(name, design=False):
        """The column as finite floats; None for a categorical design
        column when expanding."""
        try:
            vals = np.fromiter(map(float, column(name)), float, n)
        except ValueError:
            if design and expand:
                return None
            for i, cell in enumerate(column(name), start=1):
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

    y = floats("y")
    w = np.ones(n)
    if "exposure" in col:
        w = floats("exposure")
        check_column("exposure", w > 0, "non-positive")
    label_to_idx = graph.label_index()
    labels = list(map(str.strip, column("vertex")))
    try:
        vertex = np.fromiter(map(label_to_idx.__getitem__, labels), int, n)
    except KeyError as exc:     # raised at the first unknown label
        label = exc.args[0]
        raise SchemaError(f"{path}: row {labels.index(label) + 1}: unknown "
                          f"vertex label {label!r}")

    def build_design(colnames):
        mats, names = [], []
        for name in colnames:
            vals = floats(name, design=True)
            if vals is None:
                dummies, dnames = _expand_categorical(name,
                                                      list(column(name)))
                mats.extend(dummies)
                names.extend(dnames)
            else:
                mats.append(vals)
                names.append(name)
        return mats, names

    x_mats, beta_names = build_design(x_cols)
    z_mats, gamma_names = build_design(z_cols)
    x_mats.insert(0, np.ones(n))
    beta_names.insert(0, "(intercept)")
    if spec.member is not Member.POISSON:
        z_mats.insert(0, np.ones(n))
        gamma_names.insert(0, "(intercept)")
    X = np.column_stack(x_mats)
    Z = np.column_stack(z_mats) if z_mats else np.zeros((n, 0))

    try:
        data = Dataset(y, w, vertex, X, Z, graph)
        check_support(spec, data.ystar, what="y/exposure")
    except DomainError as exc:
        bad = _first_bad_support(spec, y / w)
        raise DomainError(f"{path}: row {bad}: {exc}")
    return data, beta_names, gamma_names


def _first_bad_support(spec: FamilySpec, ystar: np.ndarray) -> int:
    for i, val in enumerate(ystar, start=1):
        try:
            check_support(spec, float(val))
        except DomainError:
            return i
    return 0


# ---------------------------------------------------------------------------
# Output writers / readers
# ---------------------------------------------------------------------------

def _write_coefficients(path, theta: Coefficients, beta_names, gamma_names,
                        labels):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("block\tname\tvalue\n")
        for block, names, vals in (("beta", beta_names, theta.beta),
                                   ("alpha", labels, theta.alpha),
                                   ("gamma", gamma_names, theta.gamma)):
            fh.writelines(f"{block}\t{name}\t{v}\n"
                          for name, v in zip(names, map(_fmt, vals.tolist())))


def read_coefficients(path):
    """Inverse of the coefficients writer; returns (theta, beta_names,
    gamma_names, alpha_labels)."""
    beta, alpha, gamma = [], [], []
    beta_names, gamma_names, labels = [], [], []
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline()
        if not header.startswith("block\t"):
            raise SchemaError(f"{path}: not a coefficients file")
        for lineno, line in enumerate(fh, start=2):
            parts = line.rstrip("\n").split("\t")
            if len(parts) != 3:
                raise SchemaError(f"{path}: line {lineno}: expected 3 "
                                  "fields")
            block, name, value = parts
            try:
                val = float(value)
            except ValueError:
                raise SchemaError(f"{path}: line {lineno}: bad value")
            if block == "beta":
                beta.append(val)
                beta_names.append(name)
            elif block == "alpha":
                alpha.append(val)
                labels.append(name)
            elif block == "gamma":
                gamma.append(val)
                gamma_names.append(name)
            else:
                raise SchemaError(f"{path}: line {lineno}: unknown block "
                                  f"{block!r}")
    theta = Coefficients(np.array(beta), np.array(alpha), np.array(gamma))
    return theta, beta_names, gamma_names, labels


def _write_trace(path, trace):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("iteration\tobjective\n")
        fh.writelines(f"{i}\t{_fmt(v)}\n" for i, v in enumerate(trace))


def _write_summary(path, items):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("key\tvalue\n")
        for key, val in items:
            if isinstance(val, float):
                val = _fmt(val)
            fh.write(f"{key}\t{val}\n")


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def _cmd_simulate(opts) -> int:
    out = _require(opts, "out", "--out")
    rows, cols = _parse_lattice(opts)
    spec = _family_from_options(opts)
    if spec.member is not Member.COMPOUND_POISSON_GAMMA:
        raise ConfigError("simulate generates compound-poisson-gamma data")
    sim = SimConfig(amplitude=float(opts["amplitude"]))
    os.makedirs(out, exist_ok=True)
    data, oracle = make_dataset(int(opts["n"]), rows, cols,
                                str(opts["pattern"]), spec,
                                float(opts["zero_prop"]),
                                int(opts["seed"]), sim=sim)
    g = data.graph
    with open(os.path.join(out, "graph.tsv"), "w", encoding="utf-8") as fh:
        fh.write("# edge list\n")
        isolated = set(range(g.n_vertices))
        for a, b in g.edges:
            isolated.discard(a)
            isolated.discard(b)
            fh.write(f"{g.labels[a]}\t{g.labels[b]}\n")
        for v in sorted(isolated):
            fh.write(f"{g.labels[v]}\n")
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
    spec = _family_from_options(opts)
    links = _links_from_options(opts, spec)
    graph_path = _require(opts, "graph", "--graph")
    graph = ArealGraph.from_edge_list_file(graph_path)
    data_path = _require(opts, "data", "--data")
    data, beta_names, gamma_names = load_dataset(
        data_path, spec, graph, expand=bool(opts["expand"]))
    return spec, links, graph, data, beta_names, gamma_names


def _fit_config(opts, data) -> FitConfig:
    spec = _family_from_options(opts)
    penalty = assemble_penalty(PenaltyMode.from_name(str(opts["penalty"])),
                               float(opts["lambda1"]),
                               float(opts["lambda2"]),
                               data.k_beta, data.graph, data.k_gamma)
    return FitConfig(penalty=penalty, p_grid=_parse_p_grid(opts, spec))


def _write_fit_outputs(out, opts, spec, links, data, beta_names,
                       gamma_names, result, extra_summary=()):
    labels = data.graph.labels
    _write_coefficients(os.path.join(out, "coefficients.tsv"),
                        result.theta_hat, beta_names, gamma_names, labels)
    _write_trace(os.path.join(out, "trace.tsv"), result.objective_trace)
    spec_hat = spec.with_p(result.p_hat)
    info = fisher_information(data, result.theta_hat, result.p_hat, spec,
                              links)
    try:
        rows = wald_table(result.theta_hat, info, beta_names, gamma_names)
        inference.write_wald_table(os.path.join(out, "wald.tsv"), rows)
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
    ] + list(extra_summary)
    _write_summary(os.path.join(out, "summary.tsv"), items)


def _cmd_fit(opts) -> int:
    out = _require(opts, "out", "--out")
    spec, links, graph, data, beta_names, gamma_names = _prepare_model(opts)
    cfg = _fit_config(opts, data)
    os.makedirs(out, exist_ok=True)
    result = fit(data, spec, links, cfg)
    _write_fit_outputs(out, opts, spec, links, data, beta_names,
                       gamma_names, result,
                       extra_summary=[("lambda1", float(opts["lambda1"])),
                                      ("lambda2", float(opts["lambda2"]))])
    _echo_config(out, "fit", opts)
    print(f"fit: converged={result.converged} iters={result.iters} "
          f"p_hat={result.p_hat:g} out={out}")
    return 0


def _cmd_tune(opts) -> int:
    out = _require(opts, "out", "--out")
    spec, links, graph, data, beta_names, gamma_names = _prepare_model(opts)
    cfg = _fit_config(opts, data)
    ax1, ax2 = _parse_lambda_grid(opts)
    grid = GridSpec(ax1, ax2, float(opts["train_frac"]), int(opts["seed"]))
    os.makedirs(out, exist_ok=True)
    result = grid_search(data, spec, links, cfg, grid)
    export_surface(os.path.join(out, "surface.tsv"), result.surface)
    with open(os.path.join(out, "holdout_rows.txt"), "w",
              encoding="utf-8") as fh:
        fh.writelines(f"{idx}\n" for idx in result.holdout_index)
    train = data.subset(result.train_index)
    best = result.best_fit
    hold = data.subset(result.holdout_index)
    dev = weighted_deviance(hold, best.theta_hat.eta,
                            spec.with_p(best.p_hat), links.mean)
    _write_fit_outputs(out, opts, spec, links, train, beta_names,
                       gamma_names, best,
                       extra_summary=[("lambda1", result.best_lambda1),
                                      ("lambda2", result.best_lambda2),
                                      ("holdout_weighted_deviance", dev)])
    _echo_config(out, "tune", opts)
    print(f"tune: best lambda1={result.best_lambda1:g} "
          f"lambda2={result.best_lambda2:g} holdout_deviance={dev:.6g} "
          f"out={out}")
    return 0


def _cmd_predict(opts) -> int:
    out = _require(opts, "out", "--out")
    fit_dir = opts.get("fit_dir")
    coef_path = opts.get("coefficients")
    if coef_path is None:
        if fit_dir is None:
            raise ConfigError("--fit-dir or --coefficients is required")
        coef_path = os.path.join(fit_dir, "coefficients.tsv")
        cfg_path = os.path.join(fit_dir, "effective_config.json")
        if os.path.exists(cfg_path):
            with open(cfg_path, "r", encoding="utf-8") as fh:
                fit_cfg = json.load(fh)
            for key in ("family", "p", "mean_link", "disp_link", "approx",
                        "graph"):
                if opts.get(key) in (None, _DEFAULTS.get(key)) \
                        and fit_cfg.get(key) is not None:
                    opts[key] = fit_cfg[key]
    theta, beta_names, gamma_names, labels = read_coefficients(coef_path)
    # fitted p may differ from the configured one; prefer the summary
    if fit_dir and os.path.exists(os.path.join(fit_dir, "summary.tsv")):
        with open(os.path.join(fit_dir, "summary.tsv"),
                  encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("p_hat\t"):
                    opts["p"] = float(line.split("\t")[1])
    spec = _family_from_options(opts)
    links = _links_from_options(opts, spec)
    graph = ArealGraph.from_edge_list_file(_require(opts, "graph",
                                                    "--graph"))
    data, _, _ = load_dataset(_require(opts, "data", "--data"), spec, graph,
                              expand=bool(opts["expand"]))
    if data.k_beta != theta.beta.size or data.k_gamma != theta.gamma.size:
        raise ConfigError("coefficient blocks do not match the data design")
    os.makedirs(out, exist_ok=True)
    t = data.X @ theta.beta + theta.alpha[data.vertex]
    mu = link_eval(links.mean, t, 0)
    s = data.Z @ theta.gamma if data.k_gamma else np.zeros(data.n_rows)
    phi = link_eval(links.disp, s, 0)
    with open(os.path.join(out, "predictions.tsv"), "w",
              encoding="utf-8") as fh:
        fh.write("row\tvertex\tmu_hat\tphi_hat\texpected_per_exposure\t"
                 "expected_total\n")
        fh.writelines(
            f"{i}\t{lab}\t{m}\t{ph}\t{m}\t{tot}\n"
            for i, lab, m, ph, tot in zip(
                range(data.n_rows),
                map(graph.labels.__getitem__, data.vertex.tolist()),
                map(_fmt, mu.tolist()), map(_fmt, phi.tolist()),
                map(_fmt, (mu * data.w).tolist())))
    dev = weighted_deviance(data, theta.eta, spec, links.mean)
    _write_summary(os.path.join(out, "predict_summary.tsv"),
                   [("n_rows", data.n_rows),
                    ("total_weighted_deviance", dev),
                    ("mean_expected_per_exposure", float(mu.mean()))])
    _echo_config(out, "predict", opts)
    print(f"predict: scored {data.n_rows} rows, weighted deviance "
          f"{dev:.6g}, out={out}")
    return 0


def _cmd_report(opts) -> int:
    out = _require(opts, "out", "--out")
    fit_dir = _require(opts, "fit_dir", "--fit-dir")
    theta, beta_names, gamma_names, labels = read_coefficients(
        os.path.join(fit_dir, "coefficients.tsv"))
    oracle_alpha = None
    if opts.get("oracle"):
        o_theta, _, _, o_labels = read_coefficients(opts["oracle"])
        lookup = dict(zip(o_labels, o_theta.alpha))
        oracle_alpha = [lookup.get(lab) for lab in labels]
    os.makedirs(out, exist_ok=True)
    with open(os.path.join(out, "alpha_vs_pattern.tsv"), "w",
              encoding="utf-8") as fh:
        if oracle_alpha is None:
            fh.write("vertex\talpha_hat\n")
            for lab, a in zip(labels, theta.alpha):
                fh.write(f"{lab}\t{_fmt(a)}\n")
        else:
            fh.write("vertex\talpha_hat\talpha_oracle\n")
            for lab, a, o in zip(labels, theta.alpha, oracle_alpha):
                oval = "nan" if o is None else _fmt(o)
                fh.write(f"{lab}\t{_fmt(a)}\t{oval}\n")
    surface_src = os.path.join(fit_dir, "surface.tsv")
    if os.path.exists(surface_src):
        with open(surface_src, "r", encoding="utf-8") as src, \
                open(os.path.join(out, "report_surface.tsv"), "w",
                     encoding="utf-8") as dst:
            dst.write(src.read())
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
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
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


def main() -> None:
    sys.exit(run_command(sys.argv[1:]))


if __name__ == "__main__":
    main()
