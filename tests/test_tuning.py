"""Hold-out grid search, deviance scoring, warm starts."""

from unittest import mock

import numpy as np
import pytest

from conftest import spec_for
from twdglm import tuning
from twdglm.cli import export_surface
from twdglm.errors import ConfigError, DomainError, ScalingError
from twdglm.family import Approx, FamilySpec, Member, unit_deviance
from twdglm.graph import PenaltyMode, assemble_penalty, lattice_graph
from twdglm.likelihood import Dataset
from twdglm.links import LinkPair
from twdglm.optimizer import FitConfig, fit, fit_ridge
from twdglm.simgen import make_dataset
from twdglm.tuning import (GridSpec, deviance_ratio, grid_search,
                           split_train_holdout, weighted_deviance)


def _cpg_instance(n=1200, seed=1, zero=0.2):
    gen = FamilySpec.compound_poisson_gamma(1.5)
    data, oracle = make_dataset(n, 3, 3, "block", gen, zero, seed=seed)
    spec = FamilySpec.compound_poisson_gamma(1.5, approx=Approx.SADDLEPOINT)
    pen = assemble_penalty(PenaltyMode.SPATIAL_ONLY, 1.0, 1.0, data.k_beta,
                           data.graph, data.k_gamma)
    cfg = FitConfig(penalty=pen, p_grid=np.array([1.5]))
    return data, oracle, spec, LinkPair.of("log", "log"), cfg


class TestWeightedDeviance:
    def test_saturated_fit_scores_zero(self):
        g = lattice_graph(1, 4)
        y = np.array([1.0, 2.0, 3.0, 4.0])
        w = np.array([1.0, 2.0, 1.0, 0.5])
        data = Dataset(y * w, w, np.arange(4), np.zeros((4, 0)),
                       np.zeros((4, 0)), g)
        spec = FamilySpec.compound_poisson_gamma(1.5)
        eta = np.log(y)     # alpha = log(y/w) reproduces each row exactly
        links = LinkPair.of("log", "log")
        assert weighted_deviance(data, eta, spec, links.mean) == \
            pytest.approx(0.0, abs=1e-12)

    def test_unit_exposure_reduces_to_unit_deviance_sum(self):
        data, oracle, spec, links, _ = _cpg_instance(n=400)
        dev = weighted_deviance(data, oracle.eta, spec, links.mean)
        mu = np.exp(data.X @ oracle.beta + oracle.alpha[data.vertex])
        assert dev == pytest.approx(
            float(np.sum(unit_deviance(spec, data.y, mu))), rel=1e-12)

    def test_linear_in_exposure(self):
        data, oracle, spec, links, _ = _cpg_instance(n=300)
        base = weighted_deviance(data, oracle.eta, spec, links.mean)
        doubled = Dataset(2.0 * data.y, 2.0 * data.w, data.vertex, data.X,
                          data.Z, data.graph)
        assert weighted_deviance(doubled, oracle.eta, spec, links.mean) == \
            pytest.approx(2.0 * base, rel=1e-12)


class TestDevianceRatio:
    def test_identity_gives_one(self):
        data, oracle, spec, links, _ = _cpg_instance(n=300, seed=5)
        assert deviance_ratio(data, oracle.eta, oracle.eta, spec,
                              links.mean) == 1.0

    def test_gross_misfit_far_above_one(self):
        data, oracle, spec, links, _ = _cpg_instance(n=300, seed=6)
        bad = oracle.eta.copy()
        bad[data.k_beta:] += 5.0
        assert deviance_ratio(data, bad, oracle.eta, spec,
                              links.mean) > 10.0


class TestSplit:
    def test_deterministic_and_disjoint(self):
        data, *_ = _cpg_instance(n=500, seed=2)
        tr1, ho1 = split_train_holdout(data, 0.6, seed=3)
        tr2, ho2 = split_train_holdout(data, 0.6, seed=3)
        np.testing.assert_array_equal(tr1, tr2)
        np.testing.assert_array_equal(ho1, ho2)
        assert len(set(tr1) & set(ho1)) == 0
        assert len(tr1) + len(ho1) == data.n_rows
        assert len(tr1) == round(0.6 * data.n_rows)


class TestGridSearch:
    def test_degenerate_grid_returns_that_cell(self):
        data, oracle, spec, links, cfg = _cpg_instance(n=600, seed=7)
        grid = GridSpec(np.array([0.3]), np.array([-0.2]), 0.6, seed=7)
        res = grid_search(data, spec, links, cfg, grid)
        assert res.best_lambda1 == pytest.approx(np.exp(0.3))
        assert res.best_lambda2 == pytest.approx(np.exp(-0.2))
        assert len(res.surface) == 1

    def test_surface_deterministic(self):
        data, oracle, spec, links, cfg = _cpg_instance(n=600, seed=8)
        grid = GridSpec(np.linspace(-2, 2, 3), np.linspace(-2, 2, 3), 0.6,
                        seed=8)
        r1 = grid_search(data, spec, links, cfg, grid)
        r2 = grid_search(data, spec, links, cfg, grid)
        d1 = [c.deviance for c in r1.surface]
        d2 = [c.deviance for c in r2.surface]
        np.testing.assert_array_equal(d1, d2)
        assert all(np.isfinite(c.deviance) for c in r1.surface
                   if not c.failed)

    def test_best_deviance_is_the_best_cells_holdout_score(self):
        """The result carries the hold-out deviance of its best cell: the
        surface's minimum, and the best fit scored on the hold-out rows."""
        data, oracle, spec, links, cfg = _cpg_instance(n=500, seed=8)
        grid = GridSpec(np.linspace(-2, 2, 2), np.linspace(-2, 2, 2), 0.6,
                        seed=8)
        res = grid_search(data, spec, links, cfg, grid)
        assert res.best_deviance == min(c.deviance for c in res.surface)
        assert res.best_deviance == weighted_deviance(
            data.subset(res.holdout_index), res.best_fit.theta_hat.eta,
            spec.with_p(res.best_fit.p_hat), links.mean)

    def test_traversal_row_major_and_warm_start_chain(self):
        data, oracle, spec, links, cfg = _cpg_instance(n=500, seed=9)
        grid = GridSpec(np.array([-1.0, 1.0]), np.array([-1.0, 1.0]), 0.6,
                        seed=9)
        real_fit = tuning.fit
        calls = []

        def spy(train, spec_cell, links, cfg, init=None):
            res = real_fit(train, spec_cell, links, cfg, init=init)
            calls.append((cfg.penalty, init, res))
            return res

        with mock.patch.object(tuning, "fit", spy):
            res = grid_search(data, spec, links, cfg, grid)
        coords = [(c.log_lambda1, c.log_lambda2) for c in res.surface]
        assert coords == [(-1.0, -1.0), (-1.0, 1.0), (1.0, -1.0),
                          (1.0, 1.0)]
        assert [(pen.lambda1, pen.lambda2) for pen, _, _ in calls] == \
            [(float(np.exp(a)), float(np.exp(b))) for a, b in coords]
        assert calls[0][1] is None
        for (_, _, prev), (_, init, _) in zip(calls, calls[1:]):
            assert init is prev.theta_hat

    def test_each_design_ranked_once(self):
        """Every cell's fit checks that X and Z have full column rank on
        the same training rows, so each is ranked (an SVD) only once."""
        data, oracle, spec, links, cfg = _cpg_instance(n=500, seed=9)
        grid = GridSpec(np.array([-1.0, 1.0]), np.array([-1.0, 0.0, 1.0]),
                        0.6, seed=9)
        with mock.patch.object(np.linalg, "matrix_rank",
                               wraps=np.linalg.matrix_rank) as rank:
            res = grid_search(data, spec, links, cfg, grid)
        assert not any(cell.failed for cell in res.surface)
        ranked = [call.args[0] for call in rank.call_args_list]
        assert len(ranked) == 2
        assert {mat.shape[1] for mat in ranked} <= {data.k_beta,
                                                    data.k_gamma}
        assert ranked[0] is not ranked[1]

    def test_warm_vs_cold_on_convex_instance(self):
        rng = np.random.default_rng(12)
        g = lattice_graph(2, 3)
        n = 400
        vertex = rng.integers(0, 6, n)
        X = rng.normal(0, 1, (n, 2))
        alpha0 = rng.normal(0, 0.5, 6)
        y = X @ [0.8, -0.4] + alpha0[vertex] + rng.normal(0, 0.6, n)
        data = Dataset(y, np.ones(n), vertex, X, np.ones((n, 1)), g)
        spec = spec_for(Member.NORMAL)
        links = LinkPair.of("identity", "log")
        pen = assemble_penalty(PenaltyMode.SPATIAL_ONLY, 1.0, 1.0,
                               data.k_beta, data.graph, data.k_gamma)
        cfg = FitConfig(penalty=pen)
        grid = GridSpec(np.linspace(-2, 2, 3), np.linspace(-2, 2, 3), 0.6,
                        seed=12)
        warm = grid_search(data, spec, links, cfg, grid)
        best_pen = assemble_penalty(PenaltyMode.SPATIAL_ONLY,
                                    warm.best_lambda1, warm.best_lambda2,
                                    data.k_beta, data.graph, data.k_gamma)
        cold = fit(data.subset(warm.train_index), spec, links,
                   FitConfig(penalty=best_pen))
        f_w = warm.best_fit.objective_trace[-1]
        f_c = cold.objective_trace[-1]
        assert abs(f_w - f_c) / abs(f_c) < 1e-6

    def test_ridge_line_is_grid_with_zero_lambda2(self):
        data, oracle, spec, links, cfg = _cpg_instance(n=600, seed=10)
        line = GridSpec(np.array([0.5]), np.array([-np.inf]), 0.6, seed=10)
        res = grid_search(data, spec, links, cfg, line)
        assert res.best_lambda2 == 0.0
        tr = data.subset(res.train_index)
        direct = fit_ridge(tr, spec, links, cfg, lambda1=float(np.exp(0.5)))
        np.testing.assert_allclose(res.best_fit.theta_hat.as_vector(),
                                   direct.theta_hat.as_vector(), atol=1e-12)

    def test_nonempty_grid_required(self):
        with pytest.raises(ConfigError):
            GridSpec(np.array([]), np.array([0.0]), 0.6, 0)


class TestSurfaceExport:
    def test_round_trip_text(self, tmp_path):
        data, oracle, spec, links, cfg = _cpg_instance(n=400, seed=11)
        grid = GridSpec(np.array([-1.0, 0.0]), np.array([0.0]), 0.6,
                        seed=11)
        res = grid_search(data, spec, links, cfg, grid)
        path = tmp_path / "surface.tsv"
        export_surface(path, res.surface)
        lines = path.read_text().strip().split("\n")
        assert lines[0] == ("log_lambda1\tlog_lambda2\tholdout_deviance"
                            "\tconverged\titers\terror")
        assert len(lines) == 3

    def test_failed_cell_records_its_error(self, tmp_path, monkeypatch):
        """A cell whose fit raises is kept on the surface with the
        error's class name and no iterations; the cells that fit carry
        their iteration counts and an empty error."""
        data, oracle, spec, links, cfg = _cpg_instance(n=400, seed=11)
        grid = GridSpec(np.array([-1.0, 0.0]), np.array([0.0, 1.0]), 0.6,
                        seed=11)
        calls, raw = [], tuning.fit

        def second_cell_fails(*args, **kwargs):
            calls.append(1)
            if len(calls) == 2:
                raise ScalingError("no majorization constant found",
                                   reason="no-decrease")
            return raw(*args, **kwargs)

        monkeypatch.setattr(tuning, "fit", second_cell_fails)
        res = grid_search(data, spec, links, cfg, grid)
        bad = res.surface[1]
        assert [c.failed for c in res.surface] == [False, True, False, False]
        assert bad.error == "ScalingError" and bad.iters == 0
        assert np.isnan(bad.deviance) and not bad.converged
        fitted = [c for c in res.surface if not c.failed]
        assert all(c.error == "" and c.iters >= 1 for c in fitted)
        path = tmp_path / "surface.tsv"
        export_surface(path, res.surface)
        rows = [line.split("\t") for line in path.read_text().splitlines()]
        assert rows[0][-2:] == ["iters", "error"]
        assert [r[-2:] for r in rows[1:]] == \
            [[str(c.iters), c.error] for c in res.surface]

    def test_scoring_failure_keeps_the_fit(self, monkeypatch):
        """A cell whose fit converged but whose hold-out scoring raised
        keeps the fit's iteration count and convergence flag, and warm-
        starts the next cell as a cell that scored does."""
        data, oracle, spec, links, cfg = _cpg_instance(n=400, seed=11)
        grid = GridSpec(np.array([-1.0, 0.0]), np.array([0.0]), 0.6,
                        seed=11)
        fits, scores = [], []
        raw_fit, raw_score = tuning.fit, tuning.weighted_deviance

        def record_fit(*args, **kwargs):
            fits.append((kwargs["init"], raw_fit(*args, **kwargs)))
            return fits[-1][1]

        def first_score_fails(*args):
            scores.append(1)
            if len(scores) == 1:
                raise DomainError("inverse-squared link inverse requires "
                                  "t > 0")
            return raw_score(*args)

        monkeypatch.setattr(tuning, "fit", record_fit)
        monkeypatch.setattr(tuning, "weighted_deviance", first_score_fails)
        res = grid_search(data, spec, links, cfg, grid)
        bad, good = res.surface
        first = fits[0][1]
        assert bad.failed and bad.error == "DomainError"
        assert np.isnan(bad.deviance)
        assert (bad.iters, bad.converged) == (first.iters, first.converged)
        assert bad.iters >= 1 and bad.converged
        assert fits[1][0] is first.theta_hat
        assert not good.failed and res.best_lambda1 == 1.0

    @pytest.mark.parametrize("stage", ["fitting", "hold-out scoring"])
    def test_all_cells_failed_says_where(self, monkeypatch, stage):
        """When no cell scores, the error counts where the cells failed
        and quotes the first error's class and text."""
        data, oracle, spec, links, cfg = _cpg_instance(n=400, seed=11)
        grid = GridSpec(np.array([-1.0, 0.0]), np.array([0.0]), 0.6,
                        seed=11)

        def fails(*args, **kwargs):
            raise DomainError("outside the domain")

        target = "fit" if stage == "fitting" else "weighted_deviance"
        monkeypatch.setattr(tuning, target, fails)
        with pytest.raises(ConfigError) as err:
            grid_search(data, spec, links, cfg, grid)
        assert str(err.value) == (
            f"every grid cell failed ({stage} raised in 2 of 2); first: "
            "DomainError: outside the domain")
