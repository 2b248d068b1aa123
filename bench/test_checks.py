"""Tests of the benchmark's checks and reference computations.

Each workload check must pass on a true result and fail on a corrupted
one, and each reference computation must agree with an independent
derivation on a small case. Workloads run here at reduced sizes. These
tests are outside the package's test suite:

    python3 -m pytest -q bench/test_checks.py
"""

import math
import os
import sys
from dataclasses import replace

import numpy as np
import pytest
from scipy import integrate

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import reference as ref  # noqa: E402
import spans  # noqa: E402
import workloads as wl  # noqa: E402

API = spans.entry_points()


# ---------------------------------------------------------------------------
# Reference computations
# ---------------------------------------------------------------------------

def _dense_laplacian(rows, cols):
    n = rows * cols
    lap = np.zeros((n, n))
    for r in range(rows):
        for c in range(cols):
            for dr, dc in ((0, 1), (1, 0), (0, -1), (-1, 0)):
                if 0 <= r + dr < rows and 0 <= c + dc < cols:
                    lap[r * cols + c, (r + dr) * cols + c + dc] = -1.0
                    lap[r * cols + c, r * cols + c] += 1.0
    return lap


def test_laplacian_matches_dense_lattice_laplacian():
    rng = np.random.default_rng(0)
    alpha = rng.normal(size=12)
    edges = ref.lattice_edges(3, 4)
    lap = _dense_laplacian(3, 4)
    assert np.allclose(ref.laplacian_apply(alpha, edges), lap @ alpha)
    assert math.isclose(ref.laplacian_quadratic(alpha, edges),
                        alpha @ lap @ alpha, rel_tol=1e-12)


@pytest.mark.parametrize("mu,phi,p", [(1.0, 1.0, 1.5), (2.5, 0.4, 1.3),
                                      (0.6, 2.0, 1.8)])
def test_series_density_has_unit_mass_and_mean_mu(mu, phi, p):
    """P(Y = 0) + int f = 1 and E[Y] = mu under the reference series."""

    def density(y):
        ll = (y * mu ** (1 - p) / (1 - p) - mu ** (2 - p) / (2 - p)) / phi
        return math.exp(ll + ref.cpg_log_series(np.array([y]),
                                                np.array([phi]), p)[0])

    atom = math.exp(-mu ** (2 - p) / (phi * (2 - p)))
    mass, _ = integrate.quad(density, 0.0, np.inf, limit=200)
    mean, _ = integrate.quad(lambda y: y * density(y), 0.0, np.inf,
                             limit=200)
    assert abs(atom + mass - 1.0) < 1e-7
    assert abs(mean - mu) < 1e-6 * max(mu, 1.0)


def test_unit_deviance_is_the_defining_integral():
    p = 1.6
    for y, mu in ((0.0, 1.3), (0.7, 2.0), (3.0, 0.5)):
        integral, _ = integrate.quad(lambda u: (y - u) / u ** p, y, mu)
        assert math.isclose(ref.unit_deviance(y, mu, p), -2.0 * integral,
                            rel_tol=1e-9)


def test_saddlepoint_gradient_matches_finite_differences():
    rng = np.random.default_rng(1)
    n, rows, cols, p = 60, 2, 3, 1.4
    X = np.column_stack([np.ones(n), rng.normal(size=n)])
    Z = np.column_stack([np.ones(n), rng.normal(size=n)])
    vertex = rng.integers(0, rows * cols, n)
    y = np.where(rng.random(n) < 0.3, 0.0, rng.gamma(2.0, 1.0, n))
    edges = ref.lattice_edges(rows, cols)
    theta = rng.normal(scale=0.3, size=2 + rows * cols + 2)

    def objective(v):
        beta, alpha, gamma = v[:2], v[2:2 + rows * cols], v[2 + rows * cols:]
        mu = np.exp(X @ beta + alpha[vertex])
        phi = np.exp(Z @ gamma)
        nll = np.sum(0.5 * np.log(phi) + ref.unit_deviance(y, mu, p)
                     / (2.0 * phi))
        return nll + ref.spatial_penalty(alpha, edges, 0.7, 1.3)

    grad = ref.saddlepoint_gradient(y, X, Z, vertex, theta[:2],
                                    theta[2:2 + rows * cols],
                                    theta[2 + rows * cols:], p, edges, 0.7,
                                    1.3)
    h = 1e-6
    fd = np.array([(objective(theta + h * e) - objective(theta - h * e))
                   / (2 * h) for e in np.eye(theta.size)])
    assert np.allclose(grad, fd, rtol=1e-6, atol=1e-6)


# ---------------------------------------------------------------------------
# Workload checks on true and corrupted results
# ---------------------------------------------------------------------------

def _shift_beta(theta, by):
    out = theta.copy()
    out.beta[0] += by
    return out


class SmallIndexSeries(wl.IndexSeries):
    n, rows, cols = 1500, 3, 3


@pytest.fixture(scope="module")
def index_series():
    w = SmallIndexSeries(API, 3, None)
    w.setup()
    return w, w.operation()


def test_index_series_check_passes_on_true_fit(index_series):
    w, res = index_series
    assert w.check(res) == []


def test_index_series_check_catches_objective_off_by_1e_6(index_series):
    w, res = index_series
    trace = res.objective_trace.copy()
    trace[-1] *= 1.0 - 1e-6 * math.copysign(1.0, trace[-1])
    bad = w.check(replace(res, objective_trace=trace))
    assert any("final objective" in b for b in bad)


def test_index_series_check_catches_shifted_coefficients(index_series):
    w, res = index_series
    bad = w.check(replace(res, theta_hat=_shift_beta(res.theta_hat, 1e-3)))
    assert any("final objective" in b for b in bad)


def test_index_series_check_catches_rising_trace_and_far_p(index_series):
    w, res = index_series
    trace = res.objective_trace.copy()
    trace[1] = trace[0] + 1.0
    assert any("rose" in b for b in w.check(replace(res,
                                                    objective_trace=trace)))
    assert any("p_hat" in b for b in w.check(replace(res, p_hat=1.65)))


class SmallTuneSaddle(wl.TuneSaddle):
    n, rows, cols = 3000, 6, 6
    axis = np.linspace(-3.0, 3.0, 3)


@pytest.fixture(scope="module")
def tune_saddle():
    w = SmallTuneSaddle(API, 4, None)
    w.setup()
    return w, w.operation()


def test_tune_saddle_check_passes_on_true_search(tune_saddle):
    w, res = tune_saddle
    assert w.check(res) == []


def test_tune_saddle_check_catches_shifted_coefficients(tune_saddle):
    w, res = tune_saddle
    best = replace(res.best_fit,
                   theta_hat=_shift_beta(res.best_fit.theta_hat, 1e-4))
    bad = w.check(replace(res, best_fit=best))
    assert any("hold-out deviance" in b for b in bad)


def test_tune_saddle_check_catches_wrong_argmin_and_failed_cell(tune_saddle):
    w, res = tune_saddle
    bad = w.check(replace(res, best_lambda1=res.best_lambda1 * math.e))
    assert any("argmin" in b for b in bad)
    surface = list(res.surface)
    surface[0] = replace(surface[0], failed=True)
    assert any("failed" in b for b in w.check(replace(res, surface=surface)))


class SmallLargeLattice(wl.LargeLattice):
    n, rows, cols = 4000, 8, 8


@pytest.fixture(scope="module")
def large_lattice():
    w = SmallLargeLattice(API, 5, None)
    w.setup()
    return w, w.operation()


def test_large_lattice_check_passes_on_true_fit(large_lattice):
    w, res = large_lattice
    assert w.check(res) == []


def test_large_lattice_check_catches_shifted_coefficients(large_lattice):
    w, res = large_lattice
    bad = w.check(replace(res, theta_hat=_shift_beta(res.theta_hat, 1e-4)))
    assert any("gradient" in b for b in bad)


def test_large_lattice_check_catches_scrambled_spatial_effect(large_lattice):
    w, res = large_lattice
    theta = res.theta_hat.copy()
    theta.alpha = np.random.default_rng(0).permutation(theta.alpha)
    bad = w.check(replace(res, theta_hat=theta))
    assert any("correlates" in b for b in bad)


class SmallCliIO(wl.CliIO):
    n, lattice = 3000, "4x4"


@pytest.fixture
def cli_io(tmp_path, capsys):
    w = SmallCliIO(API, 6, str(tmp_path))
    w.setup()
    return w, w.operation()


def _rewrite(path, edit):
    with open(path, encoding="utf-8") as fh:
        lines = fh.readlines()
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(edit(lines))


def test_cli_io_check_passes_on_true_outputs(cli_io):
    w, out = cli_io
    assert w.fingerprint(out)["iters"] >= 1
    assert w.check(out) == []


def test_cli_io_check_catches_dropped_prediction_row(cli_io):
    w, out = cli_io
    _rewrite(os.path.join(out["predict"], "predictions.tsv"),
             lambda lines: lines[:-1])
    assert any("rows" in b for b in w.check(out))


def test_cli_io_check_catches_wrong_mu_hat(cli_io):
    w, out = cli_io

    def edit(lines):
        parts = lines[5].split("\t")
        parts[2] = repr(float(parts[2]) * (1 + 1e-9))
        return lines[:5] + ["\t".join(parts)] + lines[6:]

    _rewrite(os.path.join(out["predict"], "predictions.tsv"), edit)
    assert any("mu_hat" in b for b in w.check(out))


def test_cli_io_check_catches_changed_coefficients(cli_io):
    w, out = cli_io

    def edit(lines):
        block, name, value = lines[1].rstrip("\n").split("\t")
        return [lines[0], f"{block}\t{name}\t{float(value) + 1e-6!r}\n"] \
            + lines[2:]

    _rewrite(os.path.join(out["fit"], "coefficients.tsv"), edit)
    bad = w.check(out)
    assert any("reproduce" in b for b in bad)
    assert any("mu_hat" in b for b in bad)


def test_cli_io_check_catches_failed_command(cli_io):
    w, out = cli_io
    assert w.check(dict(out, rc=(0, 2))) != []
