"""Spans at the calls between twdglm's modules, and the per-layer metrics
made from them.

Tracing wraps module and class attributes from outside the package: a
call that one module makes into another goes through a wrapper that
records a span (name, start, end, parent, operation, count). Nothing in
the package changes, and an untraced run installs no wrapper at all.
Spans are kept in memory and written out when the run ends.

A span's self time is its duration minus the durations of its direct
children. Every ``*_s`` layer metric below but the index profile is a sum
of self times, so those layer times of one operation add up to at most
its wall time.
"""

from __future__ import annotations

import functools
import inspect
import json
import statistics
import time
from types import SimpleNamespace


class Tracer:
    """In-memory span recorder."""

    def __init__(self):
        # each span: [name, start, end, parent index, op label, count]
        self.spans: list[list] = []
        self._stack = [-1]
        self.op = "setup"

    def wrap(self, name, fn, count=None):
        """Return fn wrapped to record a span called ``name``.

        ``count(result, args, kwargs)`` gives the span's count when the
        call returns; a call that raises records a count of 0.
        """
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1], self.op, 0]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[2] = time.perf_counter()
                stack.pop()
            if count is not None:
                rec[5] = count(out, args, kwargs)
            return out

        return traced

    def write(self, path, extra) -> None:
        payload = dict(extra)
        payload["span_fields"] = ["name", "start", "end", "parent", "op",
                                  "count"]
        payload["spans"] = self.spans
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh)


def _one(*_):
    return 1


def _rows(out, args, kwargs):
    return len(args[0])


def _iters(out, args, kwargs):
    return out.iters


def _rows_loaded(out, args, kwargs):
    return out[0].n_rows


# (owner, attribute, span name, count). A name imported with
# ``from .x import f`` is a separate attribute of the importing module,
# so each such call site is wrapped where the caller looks it up.
def _targets():
    from twdglm import cli, family, graph, likelihood, optimizer, tuning
    return [
        (family, "_series_logsums", "family._series_logsums", _rows),
        (likelihood, "neg_log_lik", "likelihood.neg_log_lik", None),
        (likelihood, "grad_mean", "likelihood.grad_mean", None),
        (likelihood, "hess_mean", "likelihood.hess_mean", None),
        (likelihood, "grad_disp", "likelihood.grad_disp", None),
        (likelihood, "hess_disp", "likelihood.hess_disp", None),
        (optimizer, "solve_mean_step", "optimizer.solve_mean_step", None),
        (optimizer, "solve_disp_step", "optimizer.solve_disp_step", None),
        (optimizer, "update_index", "optimizer.update_index", None),
        (optimizer, "_scaled_step", "optimizer._scaled_step", _one),
        (tuning, "fit", "optimizer.fit@tuning", _iters),
        (cli, "fit", "optimizer.fit", _iters),
        (tuning, "assemble_penalty", "graph.assemble_penalty", None),
        (cli, "assemble_penalty", "graph.assemble_penalty", None),
        (graph.PenaltyConfig, "eta_matrix", "graph.eta_matrix", None),
        (graph.PenaltyConfig, "alpha_penalty_matrix",
         "graph.alpha_penalty_matrix", None),
        (graph.ArealGraph, "from_edge_list_file",
         "graph.from_edge_list_file", None),
        (tuning, "weighted_deviance", "tuning.weighted_deviance", None),
        (cli, "weighted_deviance", "tuning.weighted_deviance", None),
        (cli, "load_dataset", "cli.load_dataset", _rows_loaded),
        (cli, "fisher_information", "inference.fisher_information", None),
        (cli, "make_dataset", "simgen.make_dataset", None),
    ]


def install(tracer: Tracer) -> None:
    """Wrap every call site in the table above."""
    for owner, attr, name, count in _targets():
        raw = inspect.getattr_static(owner, attr)
        if isinstance(raw, classmethod):
            setattr(owner, attr,
                    classmethod(tracer.wrap(name, raw.__func__, count)))
        else:
            setattr(owner, attr, tracer.wrap(name, raw, count))


# A fit called by grid_search is one tuning cell.
FIT_SPANS = ["optimizer.fit", "optimizer.fit@tuning"]

# Per-layer metric -> (unit, better, span names it sums, what it sums).
# "self" sums self time, "calls" counts spans, "count" sums span counts,
# "total" sums whole span durations. The index profile is a total: its
# own code is a loop, and its cost is the likelihood passes under it.
LAYER_METRICS = {
    "family.series_s": ("s", "lower", ["family._series_logsums"], "self"),
    "family.series_calls": ("count", "lower", ["family._series_logsums"],
                            "calls"),
    "family.series_rows": ("count", "lower", ["family._series_logsums"],
                           "count"),
    "likelihood.nll_s": ("s", "lower", ["likelihood.neg_log_lik"], "self"),
    "likelihood.nll_calls": ("count", "lower", ["likelihood.neg_log_lik"],
                             "calls"),
    "likelihood.mean_deriv_s": ("s", "lower", ["likelihood.grad_mean",
                                               "likelihood.hess_mean"],
                                "self"),
    "likelihood.mean_deriv_calls": ("count", "lower",
                                    ["likelihood.grad_mean",
                                     "likelihood.hess_mean"], "calls"),
    "likelihood.disp_deriv_s": ("s", "lower", ["likelihood.grad_disp",
                                               "likelihood.hess_disp"],
                                "self"),
    "likelihood.disp_deriv_calls": ("count", "lower",
                                    ["likelihood.grad_disp",
                                     "likelihood.hess_disp"], "calls"),
    "optimizer.mean_solve_s": ("s", "lower", ["optimizer.solve_mean_step"],
                               "self"),
    "optimizer.mean_solve_calls": ("count", "lower",
                                   ["optimizer.solve_mean_step"], "calls"),
    "optimizer.disp_solve_s": ("s", "lower", ["optimizer.solve_disp_step"],
                               "self"),
    "optimizer.disp_solve_calls": ("count", "lower",
                                   ["optimizer.solve_disp_step"], "calls"),
    "optimizer.index_profile_s": ("s", "lower", ["optimizer.update_index"],
                                  "total"),
    "optimizer.index_profile_calls": ("count", "lower",
                                      ["optimizer.update_index"], "calls"),
    "optimizer.doubling_s": ("s", "lower", ["optimizer._scaled_step"],
                             "self"),
    "optimizer.iters": ("count", "lower", FIT_SPANS, "count"),
    "optimizer.solve_attempts": ("count", "lower",
                                 ["optimizer.solve_mean_step",
                                  "optimizer.solve_disp_step"], "calls"),
    "graph.penalty_s": ("s", "lower", ["graph.assemble_penalty",
                                       "graph.eta_matrix",
                                       "graph.alpha_penalty_matrix"], "self"),
    "graph.eta_matrix_calls": ("count", "lower", ["graph.eta_matrix"],
                               "calls"),
    "graph.load_s": ("s", "lower", ["graph.from_edge_list_file"], "self"),
    "tuning.cells": ("count", "lower", ["optimizer.fit@tuning"], "calls"),
    "tuning.deviance_s": ("s", "lower", ["tuning.weighted_deviance"],
                          "self"),
    "cli.load_dataset_s": ("s", "lower", ["cli.load_dataset"], "self"),
    "cli.rows_loaded": ("count", "lower", ["cli.load_dataset"], "count"),
    "cli.self_s": ("s", "lower", ["cli.run_command"], "self"),
    "inference.fisher_s": ("s", "lower", ["inference.fisher_information"],
                           "self"),
}

# Set-up figures, read from the "setup" spans rather than per operation.
SETUP_METRICS = {
    "package.import_s": ("s", "lower", ["package.import"]),
    "simgen.make_dataset_s": ("s", "lower", ["simgen.make_dataset"]),
}

# Accepted block steps over solve attempts; its base is
# optimizer.solve_attempts.
RATIO_METRIC = ("optimizer.step_accept_ratio", "ratio", "higher")


def self_times(spans) -> list[float]:
    """Each span's duration minus its direct children's durations."""
    own = [rec[2] - rec[1] for rec in spans]
    for rec in spans:
        if rec[3] >= 0:
            own[rec[3]] -= rec[2] - rec[1]
    return own


NO_SPANS = (0.0, 0, 0, 0.0)


def per_op_totals(spans, ops):
    """For each op label in ``ops``:
    {span name: [self s, calls, count, total s]}."""
    own = self_times(spans)
    totals = {op: {} for op in ops}
    for rec, t in zip(spans, own):
        bucket = totals.get(rec[4])
        if bucket is None:
            continue
        acc = bucket.setdefault(rec[0], [0.0, 0, 0, 0.0])
        acc[0] += t
        acc[1] += 1
        acc[2] += rec[5]
        acc[3] += rec[2] - rec[1]
    return totals


def layer_metrics(spans, ops) -> dict:
    """Per-layer metrics: the median over the timed operations ``ops`` of
    each operation's total, plus the set-up figures."""
    totals = per_op_totals(spans, list(ops) + ["setup"])
    field = {"self": 0, "calls": 1, "count": 2, "total": 3}
    out = {}
    for metric, (unit, _, names, kind) in LAYER_METRICS.items():
        per_op = [sum(totals[op].get(n, NO_SPANS)[field[kind]]
                      for n in names) for op in ops]
        out[metric] = {"value": statistics.median(per_op), "unit": unit}
    for metric, (unit, _, names) in SETUP_METRICS.items():
        out[metric] = {"value": sum(totals["setup"].get(n, NO_SPANS)[0]
                                    for n in names), "unit": unit}
    accepted = statistics.median(
        [totals[op].get("optimizer._scaled_step", NO_SPANS)[2]
         for op in ops])
    attempts = out["optimizer.solve_attempts"]["value"]
    name, unit, _ = RATIO_METRIC
    out[name] = {"value": accepted / attempts if attempts else 0.0,
                 "unit": unit}
    return out


def metric_directions() -> dict:
    """{metric: (unit, better)} for every per-layer metric."""
    out = {m: (u, b) for m, (u, b, *_) in LAYER_METRICS.items()}
    out.update({m: (u, b) for m, (u, b, _) in SETUP_METRICS.items()})
    out[RATIO_METRIC[0]] = RATIO_METRIC[1:]
    return out


def entry_points(tracer: Tracer | None = None) -> SimpleNamespace:
    """The package entry points the workloads call, wrapped in spans when
    a tracer is given."""
    import twdglm
    from twdglm import cli
    api = SimpleNamespace(fit=twdglm.fit, grid_search=twdglm.grid_search,
                          run_command=cli.run_command,
                          make_dataset=twdglm.make_dataset)
    if tracer is not None:
        api.fit = tracer.wrap("optimizer.fit", api.fit, _iters)
        api.grid_search = tracer.wrap("tuning.grid_search", api.grid_search)
        api.run_command = tracer.wrap("cli.run_command", api.run_command)
        api.make_dataset = tracer.wrap("simgen.make_dataset",
                                       api.make_dataset)
    return api
