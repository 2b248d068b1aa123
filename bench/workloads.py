"""The benchmark's four workloads.

Each workload makes its inputs from a seed in ``setup``, runs one
operation per call of ``operation`` and checks that operation's outputs
in ``check``, against the independent computations in ``reference`` or
against properties the method must have. ``check`` returns a list of
failure messages; an empty list means the outputs are correct.
``fingerprint`` gives the figures printed with every run so that a later
change can show it left the fit unchanged; nothing compares them with a
stored copy. The worker takes an operation's fingerprint before its
check, which may remove the operation's output files.

The package's entry points reach a workload through ``api`` (see
``spans.entry_points``), so a traced run can time the calls.
"""

from __future__ import annotations

import csv
import math
import os
import shutil

import numpy as np

import twdglm
import reference as ref

LINKS = twdglm.LinkPair.of("log", "log")
P_GEN = 1.5
# The criterion-6 index grid: 19 points from 1.05 to 1.95.
P_GRID = np.round(np.arange(1.05, 1.951, 0.05), 10)
LAMBDA1 = LAMBDA2 = 1.0

# Tolerances and thresholds of the checks.
OBJECTIVE_RTOL = 1e-9
DEVIANCE_RTOL = 1e-9
P_HAT_TOL = 0.1
DEVIANCE_RATIO_RANGE = (0.95, 1.10)
GRADIENT_RATIO_MAX = 1e-6
ALPHA_CORR_MIN = 0.9
MU_RTOL = 1e-12


def _spatial_penalty(data):
    return twdglm.assemble_penalty(twdglm.PenaltyMode.SPATIAL_ONLY, LAMBDA1,
                                   LAMBDA2, data.k_beta, data.graph,
                                   data.k_gamma)


def _lattice_edges_checked(data, rows, cols):
    """The benchmark's own lattice edges, after checking that the
    program's graph has exactly these edges."""
    edges = ref.lattice_edges(rows, cols)
    if set(map(tuple, edges.tolist())) != set(data.graph.edges):
        raise RuntimeError("lattice graph edges differ from rook adjacency")
    if not np.all(data.w == 1.0):
        raise RuntimeError("synthetic exposures are not all 1")
    return edges


def non_increasing(trace) -> list[str]:
    steps = np.diff(np.asarray(trace, dtype=float))
    if np.any(steps > 0):
        k = int(np.argmax(steps))
        return [f"objective rose by {steps[k]:.3e} at iteration {k + 1}"]
    return []


def relative_mismatch(what, got, want, rtol) -> list[str]:
    if not abs(got - want) <= rtol * abs(want):
        return [f"{what} {got!r} differs from the reference {want!r} "
                f"(relative {abs(got - want) / abs(want):.2e} > {rtol:g})"]
    return []


class Workload:
    """Inputs from ``seed``, package calls through ``api``, files (if
    any) under the directory ``work``."""

    def __init__(self, api, seed, work):
        self.api, self.seed, self.work = api, seed, work


def fit_fingerprint(res) -> dict:
    return {"final_objective": float(res.objective_trace[-1]),
            "p_hat": float(res.p_hat), "iters": int(res.iters)}


class IndexSeries(Workload):
    """One criterion-6 fit: series normalizer, 19-point index grid,
    5x5 lattice, smooth pattern, 5 000 rows, generating p = 1.5."""

    name = "index-series"
    n, rows, cols = 5000, 5, 5

    def setup(self):
        spec = twdglm.FamilySpec.compound_poisson_gamma(P_GEN)
        data, self.oracle = self.api.make_dataset(
            self.n, self.rows, self.cols, "smooth", spec, 0.3, seed=self.seed)
        self.edges = _lattice_edges_checked(data, self.rows, self.cols)
        self.data, self.spec = data, spec
        self.config = twdglm.FitConfig(penalty=_spatial_penalty(data),
                                       p_grid=P_GRID)

    def operation(self):
        return self.api.fit(self.data, self.spec, LINKS, self.config)

    def check(self, res) -> list[str]:
        bad = non_increasing(res.objective_trace)
        if not abs(res.p_hat - P_GEN) <= P_HAT_TOL:
            bad.append(f"p_hat {res.p_hat} is not within {P_HAT_TOL} of "
                       f"{P_GEN}")
        d, th = self.data, res.theta_hat
        want = (ref.cpg_series_nll(d.y, d.X, d.Z, d.vertex, th.beta,
                                   th.alpha, th.gamma, res.p_hat)
                + ref.spatial_penalty(th.alpha, self.edges, LAMBDA1,
                                      LAMBDA2))
        bad += relative_mismatch("final objective",
                                 float(res.objective_trace[-1]), want,
                                 OBJECTIVE_RTOL)
        return bad

    fingerprint = staticmethod(fit_fingerprint)


class TuneSaddle(Workload):
    """One criterion-5 grid search: 5x5 log-lambda grid on [-5, 5]^2,
    saddlepoint normalizer, 20x20 lattice, block pattern, 10 000 rows,
    0.6 training share."""

    name = "tune-saddle"
    n, rows, cols = 10_000, 20, 20
    axis = np.linspace(-5.0, 5.0, 5)

    def setup(self):
        gen = twdglm.FamilySpec.compound_poisson_gamma(P_GEN)
        sim = twdglm.SimConfig(gamma0=(math.log(2.0), 0.2, -0.1, 0.3, -0.3))
        data, self.oracle = self.api.make_dataset(
            self.n, self.rows, self.cols, "block", gen, 0.15, seed=self.seed,
            sim=sim)
        _lattice_edges_checked(data, self.rows, self.cols)
        self.data = data
        self.spec = twdglm.FamilySpec.compound_poisson_gamma(
            P_GEN, approx=twdglm.Approx.SADDLEPOINT)
        self.config = twdglm.FitConfig(penalty=_spatial_penalty(data),
                                       p_grid=np.array([P_GEN]))
        self.grid = twdglm.GridSpec(self.axis, self.axis, 0.6, self.seed)

    def operation(self):
        return self.api.grid_search(self.data, self.spec, LINKS, self.config,
                                    self.grid)

    def check(self, res) -> list[str]:
        bad = []
        failed = [c for c in res.surface if c.failed]
        if failed:
            bad.append(f"{len(failed)} grid cells failed")
        devs = np.array([c.deviance for c in res.surface])
        if len(res.surface) != self.axis.size ** 2 or not np.all(
                np.isfinite(devs)):
            return bad + ["surface incomplete or not finite"]
        best = res.surface[int(np.argmin(devs))]
        if not np.allclose([math.log(res.best_lambda1),
                            math.log(res.best_lambda2)],
                           [best.log_lambda1, best.log_lambda2],
                           rtol=0.0, atol=1e-12):
            bad.append("reported best cell is not the surface argmin")
        hold = np.asarray(res.holdout_index)
        train = np.asarray(res.train_index)
        n = self.data.n_rows
        if not np.array_equal(np.union1d(hold, train), np.arange(n)) or \
                hold.size + train.size != n:
            bad.append("train and hold-out rows do not partition the data")
        d, th = self.data, res.best_fit.theta_hat
        args = (d.y[hold], d.X[hold], d.vertex[hold])
        dev = ref.total_deviance(*args, th.beta, th.alpha, res.best_fit.p_hat)
        bad += relative_mismatch("best hold-out deviance", best.deviance, dev,
                                 DEVIANCE_RTOL)
        ratio = dev / ref.total_deviance(*args, self.oracle.beta,
                                         self.oracle.alpha, P_GEN)
        lo, hi = DEVIANCE_RATIO_RANGE
        if not lo <= ratio <= hi:
            bad.append(f"deviance ratio {ratio:.4f} outside [{lo}, {hi}]")
        return bad

    @staticmethod
    def fingerprint(res) -> dict:
        best = res.best_fit
        return {"best_lambda1": res.best_lambda1,
                "best_lambda2": res.best_lambda2,
                "final_objective": float(best.objective_trace[-1]),
                "p_hat": float(best.p_hat), "iters": int(best.iters)}


class LargeLattice(Workload):
    """One saddlepoint fit with p fixed at 1.5 on a 60x60 lattice,
    smooth pattern, 72 000 rows."""

    name = "large-lattice"
    n, rows, cols = 72_000, 60, 60

    def setup(self):
        gen = twdglm.FamilySpec.compound_poisson_gamma(P_GEN)
        data, self.oracle = self.api.make_dataset(
            self.n, self.rows, self.cols, "smooth", gen, 0.15, seed=self.seed)
        self.edges = _lattice_edges_checked(data, self.rows, self.cols)
        self.data = data
        self.spec = twdglm.FamilySpec.compound_poisson_gamma(
            P_GEN, approx=twdglm.Approx.SADDLEPOINT)
        self.config = twdglm.FitConfig(penalty=_spatial_penalty(data),
                                       p_grid=np.array([P_GEN]))
        start = data.initial_coefficients(self.spec, LINKS)
        self.grad_start = np.linalg.norm(self._gradient(start))

    def _gradient(self, th):
        d = self.data
        return ref.saddlepoint_gradient(d.y, d.X, d.Z, d.vertex, th.beta,
                                        th.alpha, th.gamma, P_GEN,
                                        self.edges, LAMBDA1, LAMBDA2)

    def operation(self):
        return self.api.fit(self.data, self.spec, LINKS, self.config)

    def check(self, res) -> list[str]:
        bad = non_increasing(res.objective_trace)
        ratio = np.linalg.norm(self._gradient(res.theta_hat)) / self.grad_start
        if not ratio <= GRADIENT_RATIO_MAX:
            bad.append(f"penalized gradient at the fit is {ratio:.2e} of the "
                       f"gradient at the start (> {GRADIENT_RATIO_MAX:g})")
        corr = float(np.corrcoef(res.theta_hat.alpha, self.oracle.alpha)[0, 1])
        if not corr >= ALPHA_CORR_MIN:
            bad.append(f"spatial effect correlates {corr:.3f} with the "
                       f"oracle (< {ALPHA_CORR_MIN})")
        return bad

    fingerprint = staticmethod(fit_fingerprint)


class CliIO(Workload):
    """CLI fit then predict on a simulated CSV of 50 000 rows over a
    10x10 lattice, saddlepoint normalizer, --p 1.5.

    Set-up writes the CSV with ``simulate`` and makes the warm-up fit
    from flags. Every timed fit re-runs from the warm-up's
    effective_config.json, so each operation also checks that the
    config echo reproduces coefficients.tsv byte for byte.
    """

    name = "cli-io"
    n, lattice = 50_000, "10x10"

    def __init__(self, api, seed, work):
        super().__init__(api, seed, work)
        self.sim = os.path.join(work, "sim")
        self.data_csv = os.path.join(self.sim, "data.csv")
        self.graph_tsv = os.path.join(self.sim, "graph.tsv")
        self.reference_rows = None
        self.count = 0

    def _run(self, *argv) -> int:
        return self.api.run_command([str(a) for a in argv])

    def setup(self):
        rc = self._run("simulate", "--out", self.sim, "--n", self.n,
                       "--lattice", self.lattice, "--p", P_GEN, "--seed",
                       self.seed)
        if rc != 0:
            raise RuntimeError(f"simulate exited {rc}")
        self.warm = os.path.join(self.work, "warm-fit")
        rc = self._run("fit", "--data", self.data_csv, "--graph",
                       self.graph_tsv, "--family", "cpg", "--p", P_GEN,
                       "--approx", "saddlepoint", "--out", self.warm)
        if rc != 0:
            raise RuntimeError(f"warm-up fit exited {rc}")
        with open(os.path.join(self.warm, "coefficients.tsv"), "rb") as fh:
            self.warm_coefficients = fh.read()

    def operation(self):
        self.count += 1
        fit_dir = os.path.join(self.work, f"fit-{self.count}")
        pred_dir = os.path.join(self.work, f"predict-{self.count}")
        rc_fit = self._run("fit", "--config",
                           os.path.join(self.warm, "effective_config.json"),
                           "--out", fit_dir)
        rc_pred = self._run("predict", "--data", self.data_csv, "--graph",
                            self.graph_tsv, "--fit-dir", fit_dir, "--out",
                            pred_dir)
        return {"rc": (rc_fit, rc_pred), "fit": fit_dir, "predict": pred_dir}

    def _data_rows(self):
        """(vertex labels, design with intercept, beta names) parsed from
        data.csv, independently of the package's loader."""
        if self.reference_rows is None:
            with open(self.data_csv, newline="", encoding="utf-8") as fh:
                reader = csv.reader(fh)
                header = next(reader)
                rows = list(reader)
            vcol = header.index("vertex")
            xcols = [i for i, h in enumerate(header) if h.startswith("x_")]
            labels = [r[vcol] for r in rows]
            x = np.array([[1.0] + [float(r[i]) for i in xcols]
                          for r in rows])
            self.reference_rows = (labels, x, ["(intercept)"]
                                   + [header[i] for i in xcols])
        return self.reference_rows

    def check(self, out) -> list[str]:
        try:
            return self._check(out)
        finally:
            shutil.rmtree(out["fit"], ignore_errors=True)
            shutil.rmtree(out["predict"], ignore_errors=True)

    def _check(self, out) -> list[str]:
        if out["rc"] != (0, 0):
            return [f"fit/predict exited {out['rc']}"]
        bad = []
        with open(os.path.join(out["fit"], "coefficients.tsv"), "rb") as fh:
            coef_bytes = fh.read()
        if coef_bytes != self.warm_coefficients:
            bad.append("fit --config did not reproduce coefficients.tsv")
        beta, alpha = read_coefficients(coef_bytes.decode("utf-8"))
        labels, x, names = self._data_rows()
        pred = read_predictions(os.path.join(out["predict"],
                                             "predictions.tsv"))
        if len(pred) != len(labels):
            return bad + [f"predictions.tsv has {len(pred)} rows for "
                          f"{len(labels)} data rows"]
        mu = np.exp(x @ np.array([beta[n] for n in names])
                    + np.array([alpha[lab] for lab in labels]))
        got = np.array([float(r[2]) for r in pred])
        if [r[1] for r in pred] != labels or not np.allclose(
                got, mu, rtol=MU_RTOL, atol=0.0):
            bad.append("mu_hat differs from exp(x'beta + alpha_vertex)")
        return bad

    @staticmethod
    def fingerprint(out) -> dict:
        path = os.path.join(out["fit"], "summary.tsv")
        if not os.path.exists(path):
            return None
        s = read_summary(path)
        return {"final_objective": float(s["final_objective"]),
                "p_hat": float(s["p_hat"]), "iters": int(s["iterations"])}


def read_coefficients(text: str):
    """{beta name: value}, {alpha label: value} from coefficients.tsv."""
    beta, alpha = {}, {}
    lines = text.splitlines()
    for line in lines[1:]:
        block, name, value = line.split("\t")
        if block == "beta":
            beta[name] = float(value)
        elif block == "alpha":
            alpha[name] = float(value)
    return beta, alpha


def read_predictions(path):
    with open(path, encoding="utf-8") as fh:
        next(fh)
        return [line.rstrip("\n").split("\t") for line in fh]


def read_summary(path) -> dict:
    with open(path, encoding="utf-8") as fh:
        next(fh)
        return dict(line.rstrip("\n").split("\t") for line in fh)


WORKLOADS = {w.name: w for w in (IndexSeries, TuneSaddle, LargeLattice,
                                 CliIO)}
