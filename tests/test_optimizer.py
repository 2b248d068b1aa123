"""Coordinate descent: steps, scaling, descent guarantees, comparators."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from conftest import (dense_mean_matrix, dense_mean_step, make_instance,
                      scan_update_index)
from twdglm import family as fam
from twdglm import likelihood as lik
from twdglm.errors import ConfigError, SingularSystemError
from twdglm.family import Approx, FamilySpec, Member
from twdglm.graph import (ArealGraph, PenaltyMode, assemble_penalty,
                          lattice_graph)
from twdglm.likelihood import (Coefficients, Dataset, MeanHessian,
                               grad_disp, grad_mean, hess_disp, hess_mean)
from twdglm.links import LinkPair
from twdglm.optimizer import (FitConfig, _scaled_step, _sparse_schur_solve,
                              fit, fit_ridge, fit_unpenalized, objective,
                              solve_disp_step, solve_mean_step, update_index)
from twdglm.simgen import make_dataset


def _zero_penalty(data):
    return assemble_penalty(PenaltyMode.SPATIAL_ONLY, 0.0, 0.0,
                            data.k_beta, data.graph, data.k_gamma)


def _normal_instance(n=300, seed=3, with_intercept=False):
    """Normal data over a 2x3 lattice; full-rank stacked design."""
    rng = np.random.default_rng(seed)
    g = lattice_graph(2, 3)
    vertex = rng.integers(0, 6, n)
    cols = [np.ones(n)] if with_intercept else []
    cols += [rng.normal(0, 1, n), rng.normal(0, 1, n)]
    X = np.column_stack(cols)
    alpha0 = rng.normal(0, 0.5, 6)
    beta0 = np.array(([0.4] if with_intercept else []) + [1.0, -0.5])
    y = X @ beta0 + alpha0[vertex] + rng.normal(0, 0.7, n)
    Z = np.ones((n, 1))
    data = Dataset(y, np.ones(n), vertex, X, Z, g)
    return data, LinkPair.of("identity", "log")


class TestSolveMeanStep:
    def test_stationary_point_is_fixed(self):
        data, links = _normal_instance()
        spec = FamilySpec.normal()
        pen = _zero_penalty(data)
        cfg = FitConfig(penalty=pen)
        res = fit(data, spec, links, cfg)
        pen_tiny = assemble_penalty(PenaltyMode.SPATIAL_ONLY, 1e-10, 0.0,
                                    data.k_beta, data.graph, data.k_gamma)
        eta_star = solve_mean_step(data, res.theta_hat, spec, links,
                                   pen_tiny, c1=1.0)
        np.testing.assert_allclose(eta_star, res.theta_hat.eta, atol=1e-7)

    def test_single_step_is_least_squares(self):
        data, links = _normal_instance()
        spec = FamilySpec.normal()
        theta = Coefficients(np.zeros(data.k_beta),
                             np.zeros(6), np.zeros(1))
        eta_star = solve_mean_step(data, theta, spec, links,
                                   _zero_penalty(data), c1=1.0)
        design = np.zeros((data.n_rows, data.k_beta + 6))
        design[:, :data.k_beta] = data.X
        design[np.arange(data.n_rows), data.k_beta + data.vertex] = 1.0
        ols, *_ = np.linalg.lstsq(design, data.y, rcond=None)
        np.testing.assert_allclose(eta_star, ols, atol=1e-9)

    @pytest.mark.parametrize("mode", list(PenaltyMode))
    @pytest.mark.parametrize("seed", range(3))
    def test_block_solve_matches_dense(self, mode, seed):
        data, theta, spec, links = make_instance(
            Member.COMPOUND_POISSON_GAMMA, "log", n=120, rows=2, cols=5,
            k_beta=3, seed=seed)
        pen = assemble_penalty(mode, 0.8, 1.3, data.k_beta, data.graph,
                               data.k_gamma)
        dense = dense_mean_step(data, theta, spec, links, pen, c1=2.0)
        block = solve_mean_step(data, theta, spec, links, pen, c1=2.0)
        assert np.max(np.abs(dense - block)) < 1e-8

    def test_not_positive_definite_raises(self):
        data, theta, spec, links = make_instance(
            Member.COMPOUND_POISSON_GAMMA, "log", n=120, rows=2, cols=5,
            seed=0)
        pen = assemble_penalty(PenaltyMode.SPATIAL_ONLY, 1e-3, 0.0,
                               data.k_beta, data.graph, data.k_gamma)
        with pytest.raises(SingularSystemError, match="not positive"):
            solve_mean_step(data, theta, spec, links, pen, c1=-1.0)


@st.composite
def mean_systems(draw):
    """A mean-step system on a random small graph: possibly disconnected,
    with isolated vertices and vertices that no row reaches. Negative row
    weights make the Hessian indefinite."""
    nv = draw(st.integers(1, 8))
    pairs = [(i, j) for i in range(nv) for j in range(i + 1, nv)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)) \
        if pairs else []
    graph = ArealGraph.from_edges(nv, edges)
    kb = draw(st.integers(0, 3))
    n = draw(st.integers(0, 12))
    vertex = draw(arrays(np.int64, n, elements=st.integers(0, nv - 1)))
    x = draw(arrays(np.float64, (n, kb), elements=st.floats(-2, 2)))
    w = draw(arrays(np.float64, n, elements=st.floats(-3, 3)))
    indicators = np.zeros((n, nv))
    indicators[np.arange(n), vertex] = 1.0
    hess = MeanHessian(x.T @ (w[:, None] * x),
                       x.T @ (w[:, None] * indicators),
                       np.bincount(vertex, weights=w, minlength=nv))
    pen = assemble_penalty(draw(st.sampled_from(list(PenaltyMode))),
                           draw(st.floats(0.01, 3)), draw(st.floats(0, 3)),
                           kb, graph, 0)
    c1 = draw(st.floats(0.5, 4))
    rhs = draw(arrays(np.float64, kb + nv, elements=st.floats(-2, 2)))
    return hess, pen, c1, rhs


class TestSparseSolveProperties:
    # eigenvalues within this share of the spectral radius of zero are
    # left alone: there the sign is decided by rounding
    MARGIN = 1e-6

    @settings(max_examples=300)
    @given(mean_systems())
    def test_matches_dense_oracle_or_rejects(self, system):
        hess, pen, c1, rhs = system
        mat = dense_mean_matrix(hess, pen, c1)
        eigs = np.linalg.eigvalsh(mat)
        tol = self.MARGIN * max(1.0, float(np.abs(eigs).max()))
        got = _sparse_schur_solve(hess, pen, c1, rhs)
        if eigs.min() > tol:
            assert got is not None
            want = np.linalg.solve(mat, rhs)
            assert np.max(np.abs(got - want)) <= \
                1e-8 * max(1.0, float(np.abs(want).max()))
        elif eigs.min() < -tol:
            assert got is None


class TestSolveDispStep:
    def test_stationary_gamma_is_fixed(self):
        data, links = _normal_instance()
        spec = FamilySpec.normal()
        res = fit(data, spec, links, FitConfig(penalty=_zero_penalty(data)))
        gamma_star = solve_disp_step(data, res.theta_hat, spec, links,
                                     _zero_penalty(data), c2=1.0)
        np.testing.assert_allclose(gamma_star, res.theta_hat.gamma,
                                   atol=1e-6)

    def test_scalar_newton_formula(self):
        data, links = _normal_instance(seed=9)
        spec = FamilySpec.normal()
        theta = Coefficients(np.zeros(data.k_beta), np.zeros(6),
                             np.array([0.4]))
        c2 = 3.0
        got = solve_disp_step(data, theta, spec, links,
                              _zero_penalty(data), c2=c2)
        g = grad_disp(data, theta, spec, links)[0]
        h = hess_disp(data, theta, spec, links)[0, 0]
        assert got[0] == pytest.approx(theta.gamma[0] - g / (c2 * h))

    @pytest.mark.parametrize("mode", list(PenaltyMode))
    def test_indefinite_hessian_uses_absolute_eigenvalues(self, mode):
        data, theta, spec, links = make_instance(
            Member.COMPOUND_POISSON_GAMMA, "log", k_gamma=2, seed=3)
        pen = assemble_penalty(mode, 0.5, 1.0, data.k_beta, data.graph,
                               data.k_gamma)
        g = np.array([1.0, -2.0])
        h = np.array([[1.0, 2.0], [2.0, 1.0]])      # eigenvalues 3, -1
        h_abs = np.array([[2.0, 1.0], [1.0, 2.0]])  # eigenvalues 3, 1
        got = solve_disp_step(data, theta, spec, links, pen, 4.0, (g, h))
        lam = pen.gamma_ridge()
        if lam > 0:
            want = np.linalg.solve(lam * np.eye(2) + 4.0 * h_abs,
                                   4.0 * h_abs @ theta.gamma - g)
        else:
            want = theta.gamma - np.linalg.solve(h_abs, g) / 4.0
        np.testing.assert_allclose(got, want, rtol=1e-12)

    def test_huge_ridge_shrinks_gamma_to_zero(self):
        data, links = _normal_instance(seed=4)
        spec = FamilySpec.normal()
        theta = Coefficients(np.zeros(data.k_beta), np.zeros(6),
                             np.array([0.8]))
        pen = assemble_penalty(PenaltyMode.SPATIAL_PLUS_RIDGE, 1e12, 0.0,
                               data.k_beta, data.graph, data.k_gamma)
        got = solve_disp_step(data, theta, spec, links, pen, c2=1.0)
        assert abs(got[0]) < 1e-6


class TestChooseScaling:
    def test_convex_quadratic_accepts_unit_scale(self):
        data, links = _normal_instance()
        spec = FamilySpec.normal()
        pen = _zero_penalty(data)
        theta = data.initial_coefficients(spec, links)
        f0 = objective(data, theta, spec, links, pen)
        c1, *_ = _scaled_step("mean", data, theta, spec, links, pen, f0,
                              2.0)
        assert c1 == 1.0

    def test_accepted_scale_makes_system_psd(self):
        data, theta, spec, links = make_instance(
            Member.COMPOUND_POISSON_GAMMA, "log", n=150, seed=12)
        pen = assemble_penalty(PenaltyMode.SPATIAL_ONLY, 0.5, 0.7,
                               data.k_beta, data.graph, data.k_gamma)
        f0 = objective(data, theta, spec, links, pen)
        c1, *_ = _scaled_step("mean", data, theta, spec, links, pen, f0,
                              2.0)
        mat = (pen.eta_matrix().toarray()
               + c1 * hess_mean(data, theta, spec, links).to_dense())
        assert np.linalg.eigvalsh(mat).min() >= -1e-8

    def test_accepted_step_never_increases_objective(self):
        data, theta, spec, links = make_instance(
            Member.GAMMA, "log", n=100, seed=2)
        pen = assemble_penalty(PenaltyMode.SPATIAL_ONLY, 1.0, 1.0,
                               data.k_beta, data.graph, data.k_gamma)
        f0 = objective(data, theta, spec, links, pen)
        _, cand, f_new, *_ = _scaled_step("mean", data, theta, spec, links,
                                          pen, f0, 2.0)
        assert f_new <= f0

    @pytest.mark.parametrize("kind", ["mean", "disp"])
    def test_returns_the_candidates_normalizer_terms(self, kind):
        data, theta, spec, links = make_instance(
            Member.COMPOUND_POISSON_GAMMA, "log", n=200, seed=5)
        pen = assemble_penalty(PenaltyMode.SPATIAL_ONLY, 1.0, 1.0,
                               data.k_beta, data.graph, data.k_gamma)
        f0 = objective(data, theta, spec, links, pen)
        terms = lik.lognorm_terms(data, theta, spec, links)
        _, cand, _, nll, got = _scaled_step(kind, data, theta, spec, links,
                                            pen, f0, 2.0, terms)
        want = lik.lognorm_terms(data, cand, spec, links)
        for a, b in zip(got, want):
            np.testing.assert_array_equal(a, b)
        assert nll == lik.neg_log_lik(data, cand, spec, links)

    def test_rejects_unknown_step_kind(self):
        data, links = _normal_instance()
        with pytest.raises(ConfigError):
            _scaled_step("index", data, None, FamilySpec.normal(), links,
                         _zero_penalty(data), 0.0, 2.0)


class TestUpdateIndex:
    def test_fixed_p_member_unchanged(self):
        data, theta, spec, links = make_instance(Member.GAMMA, "log", seed=1)
        assert update_index(data, theta, spec, links,
                            np.array([1.1, 1.5]))[0] == 2.0

    def test_single_point_grid(self):
        data, theta, spec, links = make_instance(
            Member.COMPOUND_POISSON_GAMMA, "log", seed=1)
        assert update_index(data, theta, spec, links,
                            np.array([1.3]))[0] == 1.3

    @settings(max_examples=300)
    @given(st.data())
    def test_walk_matches_scan_on_unimodal_profiles(self, draw):
        """Profiles fall strictly to a flat bottom of one or more equal
        values, then rise strictly; integer steps make values on the two
        sides tie too."""
        data = draw.draw
        n = data(st.integers(1, 19))
        grid = np.round(1.05 + 0.05 * np.arange(n), 10)
        bottom = data(st.integers(0, n - 1))
        width = data(st.integers(1, n - bottom))
        steps = st.integers(1, 3)
        low = float(data(st.integers(-5, 5)))
        left = low + np.cumsum([data(steps) for _ in range(bottom)])[::-1]
        right = low + np.cumsum([data(steps)
                                 for _ in range(n - bottom - width)])
        values = np.concatenate([left, np.full(width, low), right])
        start = data(st.integers(0, n - 1))
        spec = FamilySpec.compound_poisson_gamma(float(grid[start]))
        known = data(st.booleans())
        current = (values[start], "terms") if known else None
        profile = dict(zip(grid.tolist(), values.tolist()))
        seen = []

        def nll_at(data, theta, spec, links, p=None, terms=None):
            seen.append(p)
            return profile[float(p)]

        with mock.patch.object(lik, "nll_or_inf", nll_at), \
                mock.patch.object(lik, "lognorm_terms",
                                  lambda *a, **k: "terms"):
            got = update_index(None, None, spec, None, grid, current)
            n_walk = len(seen)
            want = scan_update_index(None, None, spec, None, grid,
                                     current and current[0])
        assert got[:2] == want
        walked = seen[:n_walk]
        assert len(set(walked)) == len(walked)
        assert not known or grid[start] not in walked

    def test_walk_matches_scan_on_the_likelihood(self):
        gen = FamilySpec.compound_poisson_gamma(1.5)
        data, _ = make_dataset(2000, 3, 3, "smooth", gen, 0.3, seed=44)
        links = LinkPair.of("log", "log")
        theta = data.initial_coefficients(gen, links)
        grid = np.round(np.arange(1.05, 1.951, 0.05), 10)
        for p0 in (1.05, 1.3, 1.5, 1.95):
            spec = gen.with_p(p0)
            nll = lik.neg_log_lik(data, theta, spec, links)
            current = (nll, lik.lognorm_terms(data, theta, spec, links))
            p, got, terms = update_index(data, theta, spec, links, grid,
                                         current)
            assert (p, got) == scan_update_index(data, theta, spec, links,
                                                 grid, nll)
            want = lik.lognorm_terms(data, theta, spec, links, p)
            for a, b in zip(terms, want):
                np.testing.assert_array_equal(a, b)

    def test_series_passes_per_iteration(self, monkeypatch):
        """A criterion-6 fit sums the series once at the start, then per
        iteration once for the dispersion candidate and twice for the
        walk's neighbours."""
        gen = FamilySpec.compound_poisson_gamma(1.5)
        data, _ = make_dataset(5000, 5, 5, "smooth", gen, 0.3, seed=200)
        pen = assemble_penalty(PenaltyMode.SPATIAL_ONLY, 1.0, 1.0,
                               data.k_beta, data.graph, data.k_gamma)
        calls = []
        raw = fam._series_logsums
        monkeypatch.setattr(fam, "_series_logsums",
                            lambda *a: calls.append(1) or raw(*a))
        res = fit(data, gen, LinkPair.of("log", "log"),
                  FitConfig(penalty=pen,
                            p_grid=np.round(np.arange(1.05, 1.951, 0.05),
                                            10)))
        assert res.iters >= 3
        assert len(calls) <= 3 * res.iters + 1

    def test_recovers_generating_index_roughly(self):
        links = LinkPair.of("log", "log")
        hits = 0
        for seed in range(3):
            gen = FamilySpec.compound_poisson_gamma(1.5)
            data, oracle = make_dataset(2000, 3, 3, "smooth", gen, 0.3,
                                        seed=40 + seed)
            pen = assemble_penalty(PenaltyMode.SPATIAL_ONLY, 1.0, 1.0,
                                   data.k_beta, data.graph, data.k_gamma)
            res = fit(data, gen, links,
                      FitConfig(penalty=pen,
                                p_grid=np.arange(1.05, 1.951, 0.05)))
            hits += abs(res.p_hat - 1.5) <= 0.15
        assert hits >= 2


class TestFit:
    def test_matches_least_squares_and_moment_dispersion(self):
        data, links = _normal_instance(seed=21)
        spec = FamilySpec.normal()
        res = fit(data, spec, links, FitConfig(penalty=_zero_penalty(data)))
        design = np.zeros((data.n_rows, data.k_beta + 6))
        design[:, :data.k_beta] = data.X
        design[np.arange(data.n_rows), data.k_beta + data.vertex] = 1.0
        ols, *_ = np.linalg.lstsq(design, data.y, rcond=None)
        np.testing.assert_allclose(res.theta_hat.eta, ols, atol=1e-6)
        resid = data.y - design @ ols
        phi_hat = np.exp(res.theta_hat.gamma[0])
        assert phi_hat == pytest.approx(np.mean(resid ** 2), rel=1e-6)
        assert res.converged

    @pytest.mark.parametrize("mode", list(PenaltyMode))
    def test_trace_is_monotone(self, mode):
        gen = FamilySpec.compound_poisson_gamma(1.5, approx=Approx.SADDLEPOINT)
        data, _ = make_dataset(1500, 4, 4, "block", FamilySpec
                               .compound_poisson_gamma(1.5), 0.2, seed=17)
        pen = assemble_penalty(mode, 0.8, 1.2, data.k_beta, data.graph,
                               data.k_gamma)
        res = fit(data, gen, LinkPair.of("log", "log"),
                  FitConfig(penalty=pen, p_grid=np.array([1.5])))
        assert np.all(np.diff(res.objective_trace) <= 1e-10)

    @settings(max_examples=40)
    @given(seed=st.integers(0, 2 ** 16), p0=st.floats(1.01, 1.99),
           lam=st.sampled_from([0.1, 1.0, 10.0]),
           mode=st.sampled_from(list(PenaltyMode)))
    def test_series_trace_non_increasing(self, seed, p0, lam, mode):
        """Criterion-6-shaped instances (smooth pattern, zero share 0.3,
        generating p = 1.5) fitted with the series normalizer and the
        index walk from any starting p. The last value of the trace,
        built from reused normalizer terms, is also the objective
        recomputed from scratch at the fit."""
        data, _ = make_dataset(400, 3, 3, "smooth",
                               FamilySpec.compound_poisson_gamma(1.5), 0.3,
                               seed=seed)
        pen = assemble_penalty(mode, lam, lam, data.k_beta, data.graph,
                               data.k_gamma)
        links = LinkPair.of("log", "log")
        res = fit(data, FamilySpec.compound_poisson_gamma(p0), links,
                  FitConfig(penalty=pen,
                            p_grid=np.round(np.arange(1.05, 1.951, 0.05),
                                            10)))
        assert np.all(np.diff(res.objective_trace) <= 0.0)
        assert res.objective_trace[-1] == objective(
            data, res.theta_hat, FamilySpec.compound_poisson_gamma(res.p_hat),
            links, pen)

    @pytest.mark.parametrize("seed, p0, mode", [
        (31672, 1.0625, PenaltyMode.SPATIAL_ONLY),
        (52448, 1.041, PenaltyMode.SPATIAL_PLUS_RIDGE)])
    def test_fits_from_the_low_grid_edge(self, seed, p0, mode):
        """From p = 1.05 these fits once stopped: the first with an
        indefinite dispersion Hessian, the second at a dispersion
        candidate whose series could not be summed."""
        data, _ = make_dataset(400, 3, 3, "smooth",
                               FamilySpec.compound_poisson_gamma(1.5), 0.3,
                               seed=seed)
        pen = assemble_penalty(mode, 0.1, 0.1, data.k_beta, data.graph,
                               data.k_gamma)
        links = LinkPair.of("log", "log")
        res = fit(data, FamilySpec.compound_poisson_gamma(p0), links,
                  FitConfig(penalty=pen,
                            p_grid=np.round(np.arange(1.05, 1.951, 0.05),
                                            10)))
        assert res.converged
        assert np.all(np.diff(res.objective_trace) <= 0.0)
        assert res.objective_trace[-1] == objective(
            data, res.theta_hat, FamilySpec.compound_poisson_gamma(res.p_hat),
            links, pen)

    def test_warm_start_from_truth_on_noiseless_normal(self):
        rng = np.random.default_rng(8)
        g = lattice_graph(2, 3)
        n = 120
        vertex = rng.integers(0, 6, n)
        X = rng.normal(0, 1, (n, 2))
        beta0 = np.array([1.0, -0.5])
        alpha0 = rng.normal(0, 0.5, 6)
        y = X @ beta0 + alpha0[vertex]          # no noise
        data = Dataset(y, np.ones(n), vertex, X, np.zeros((n, 0)), g)
        init = Coefficients(beta0, alpha0, np.zeros(0))
        res = fit(data, FamilySpec.normal(), LinkPair.of("identity", "log"),
                  FitConfig(penalty=_zero_penalty(data)), init=init)
        assert res.converged and res.iters <= 2

    def test_permutation_invariance(self):
        gen = FamilySpec.compound_poisson_gamma(1.5, approx=Approx.SADDLEPOINT)
        data, _ = make_dataset(600, 3, 3, "hotspot",
                               FamilySpec.compound_poisson_gamma(1.5), 0.2,
                               seed=23)
        links = LinkPair.of("log", "log")
        pen = assemble_penalty(PenaltyMode.SPATIAL_ONLY, 1.0, 1.0,
                               data.k_beta, data.graph, data.k_gamma)
        cfg = FitConfig(penalty=pen, p_grid=np.array([1.5]))
        res = fit(data, gen, links, cfg)

        rng = np.random.default_rng(99)
        perm = rng.permutation(data.graph.n_vertices)   # new id of old v
        g2 = ArealGraph.from_edges(
            data.graph.n_vertices,
            [(int(perm[a]), int(perm[b])) for a, b in data.graph.edges],
            tuple(np.array(data.graph.labels)[np.argsort(perm)]))
        data2 = Dataset(data.y, data.w, perm[data.vertex], data.X, data.Z,
                        g2)
        pen2 = assemble_penalty(PenaltyMode.SPATIAL_ONLY, 1.0, 1.0,
                                data2.k_beta, g2, data2.k_gamma)
        res2 = fit(data2, gen, links,
                   FitConfig(penalty=pen2, p_grid=np.array([1.5])))
        np.testing.assert_allclose(res2.theta_hat.beta, res.theta_hat.beta,
                                   atol=1e-10)
        np.testing.assert_allclose(res2.theta_hat.gamma,
                                   res.theta_hat.gamma, atol=1e-10)
        np.testing.assert_allclose(res2.theta_hat.alpha[perm],
                                   res.theta_hat.alpha, atol=1e-10)
        assert res2.p_hat == res.p_hat
        np.testing.assert_allclose(res2.objective_trace,
                                   res.objective_trace, atol=1e-10)

    def test_descent_margin_spatial_only(self):
        gen = FamilySpec.compound_poisson_gamma(1.5, approx=Approx.SADDLEPOINT)
        data, _ = make_dataset(1200, 4, 4, "block",
                               FamilySpec.compound_poisson_gamma(1.5), 0.25,
                               seed=31)
        lam1 = 1.7
        pen = assemble_penalty(PenaltyMode.SPATIAL_ONLY, lam1, 0.9,
                               data.k_beta, data.graph, data.k_gamma)
        cfg = FitConfig(penalty=pen, p_grid=np.array([1.5]),
                        keep_history=True)
        res = fit(data, gen, LinkPair.of("log", "log"), cfg)
        trace = res.objective_trace
        for k in range(len(res.history) - 1):
            d_alpha = res.history[k + 1].alpha - res.history[k].alpha
            assert trace[k] - trace[k + 1] >= \
                0.5 * lam1 * float(d_alpha @ d_alpha) - 1e-8


class TestComparators:
    def test_ridge_at_zero_equals_unpenalized(self):
        data, links = _normal_instance(seed=14, with_intercept=False)
        spec = FamilySpec.normal()
        cfg = FitConfig(penalty=_zero_penalty(data))
        a = fit_ridge(data, spec, links, cfg, lambda1=0.0)
        b = fit_unpenalized(data, spec, links, cfg)
        np.testing.assert_array_equal(a.objective_trace, b.objective_trace)
        np.testing.assert_array_equal(a.theta_hat.as_vector(),
                                      b.theta_hat.as_vector())

    def test_huge_ridge_kills_alpha(self):
        data, links = _normal_instance(seed=15, with_intercept=True)
        spec = FamilySpec.normal()
        cfg = FitConfig(penalty=_zero_penalty(data))
        res = fit_ridge(data, spec, links, cfg, lambda1=1e8)
        assert np.max(np.abs(res.theta_hat.alpha)) < 1e-4

    def test_unpenalized_handles_intercept_collinearity(self):
        # intercept column + full vertex indicators: singular system,
        # minimum-norm fallback must still converge
        data, links = _normal_instance(seed=16, with_intercept=True)
        spec = FamilySpec.normal()
        res = fit_unpenalized(data, spec, links,
                              FitConfig(penalty=_zero_penalty(data)))
        assert res.converged
        design = np.zeros((data.n_rows, data.k_beta + 6))
        design[:, :data.k_beta] = data.X
        design[np.arange(data.n_rows), data.k_beta + data.vertex] = 1.0
        min_norm_ols, *_ = np.linalg.lstsq(design, data.y, rcond=None)
        np.testing.assert_allclose(res.theta_hat.eta, min_norm_ols,
                                   atol=1e-6)

    def test_convergence_bound_at_termination(self):
        gen = FamilySpec.compound_poisson_gamma(1.5, approx=Approx.SADDLEPOINT)
        data, _ = make_dataset(1000, 3, 3, "smooth",
                               FamilySpec.compound_poisson_gamma(1.5), 0.2,
                               seed=51)
        eps0 = 1e-8
        pen = assemble_penalty(PenaltyMode.SPATIAL_ONLY, 1.0, 1.0,
                               data.k_beta, data.graph, data.k_gamma)
        res = fit(data, gen, LinkPair.of("log", "log"),
                  FitConfig(penalty=pen, p_grid=np.array([1.5]),
                            eps_converge=eps0))
        assert res.converged
        diff = res.theta_hat.as_vector() - res.theta_prev.as_vector()
        assert float(diff @ diff) <= 2.0 * eps0 / 1.0
