"""Coordinate descent: steps, scaling, descent guarantees, comparators."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from conftest import (MEAN_LINKS_BY_MEMBER, blocks, dense_hessian,
                      dense_joint_matrix, dense_joint_step,
                      dense_mean_matrix, dense_mean_step, make_instance,
                      min_norm_mean_solve, min_norm_mean_step, nll_at,
                      penalty_mask, scan_update_index, spec_for,
                      step_derivs, with_eta, with_gamma)
from twdglm import family as fam
from twdglm import graph as graph_mod
from twdglm import likelihood as lik
from twdglm import optimizer as opt
from twdglm import tuning
from twdglm.errors import (ConfigError, DomainError, ScalingError,
                           SingularSystemError)
from twdglm.family import Approx, FamilySpec, Member
from twdglm.graph import (ArealGraph, PenaltyMode, assemble_penalty,
                          lattice_graph)
from twdglm.inference import fisher_information
from twdglm.likelihood import (Coefficients, Dataset, MeanHessian,
                               grad_disp, hess_disp, hess_mean)
from twdglm.links import LinkPair
from twdglm.optimizer import (FitConfig, _scaled_step, _sparse_schur_solve,
                              fit, fit_ridge, fit_unpenalized, objective,
                              solve_disp_step, solve_mean_step, update_index)
from twdglm.simgen import SimConfig, make_dataset
from twdglm.tuning import GridSpec, grid_search


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
        spec = spec_for(Member.NORMAL)
        pen = _zero_penalty(data)
        cfg = FitConfig(penalty=pen)
        res = fit(data, spec, links, cfg)
        pen_tiny = assemble_penalty(PenaltyMode.SPATIAL_ONLY, 1e-10, 0.0,
                                    data.k_beta, data.graph, data.k_gamma)
        eta_star = solve_mean_step(res.theta_hat, pen_tiny, 1.0, step_derivs(
            "mean", data, res.theta_hat, spec, links))
        np.testing.assert_allclose(eta_star, res.theta_hat.eta, atol=1e-7)

    def test_single_step_is_least_squares(self):
        data, links = _normal_instance()
        spec = spec_for(Member.NORMAL)
        theta = Coefficients(np.zeros(data.k_beta),
                             np.zeros(6), np.zeros(1))
        eta_star = solve_mean_step(theta, _zero_penalty(data), 1.0,
                                   step_derivs("mean", data, theta, spec,
                                               links))
        design = np.zeros((data.n_rows, data.k_beta + 6))
        design[:, :data.k_beta] = data.X
        design[np.arange(data.n_rows), data.k_beta + data.vertex] = 1.0
        ols, *_ = np.linalg.lstsq(design, data.y, rcond=None)
        np.testing.assert_allclose(eta_star, ols, atol=1e-9)

    @pytest.mark.parametrize("mode", list(PenaltyMode))
    @pytest.mark.parametrize("seed", range(3))
    def test_block_solve_matches_dense(self, mode, seed):
        _block_step_matches_dense("mean", mode, seed)

    def test_not_positive_definite_raises(self):
        _block_step_not_positive_definite_raises("mean")

    @pytest.mark.parametrize("lambda2", [0.0, 1.0])
    def test_zero_lambda1_rowless_component_comes_back_zero(self, lambda2):
        """Vertices 2 and 3 form a component without Hessian entries:
        the system restricted to it is lambda2 * Laplacian, singular.
        Whatever alpha the step starts from there, the step's
        right-hand side there is -lambda2 * L alpha, consistent, and the
        minimum-norm result there is 0."""
        graph = ArealGraph.from_edges(4, [(0, 1), (2, 3)])
        hess = MeanHessian(np.array([[2.0]]), np.array([[1.0, 1.0, 0, 0]]),
                           np.array([1.0, 1.0, 0, 0]))
        pen = assemble_penalty(PenaltyMode.SPATIAL_ONLY, 0.0, lambda2, 1,
                               graph, 0)
        base = np.array([0.3, -0.2, 0.4, 0.7, -1.1])
        grad = np.array([-2.0, -1.0, -1.0, 0.0, 0.0])
        rhs = -(grad + pen.gradient(base))
        got = _sparse_schur_solve(hess, pen, 1.0, rhs, base, None)
        want = min_norm_mean_solve(
            hess, pen, 1.0, dense_mean_matrix(hess, pen, 1.0) @ base + rhs)
        np.testing.assert_allclose(got, want, atol=1e-12)
        assert np.all(got[3:] == 0.0)


def _block_step_matches_dense(kind, mode, seed):
    """One block step by ``solve_mean_step``, on (beta, alpha) for the
    mean step and on (beta, alpha, gamma) for the joint one, against the
    dense Cholesky oracle of its system."""
    data, theta, spec, links = make_instance(
        Member.COMPOUND_POISSON_GAMMA, "log", n=120, rows=2, cols=5,
        k_beta=3, seed=seed)
    pen = assemble_penalty(mode, 0.8, 1.3, data.k_beta, data.graph,
                           data.k_gamma)
    oracle = dense_mean_step if kind == "mean" else dense_joint_step
    dense = oracle(data, theta, spec, links, pen, 2.0)
    block = solve_mean_step(theta, pen, 2.0, step_derivs(kind, data, theta,
                                                         spec, links))
    assert dense is not None
    assert np.max(np.abs(dense - block)) < 1e-8


def _block_step_not_positive_definite_raises(kind):
    data, theta, spec, links = make_instance(
        Member.COMPOUND_POISSON_GAMMA, "log", n=120, rows=2, cols=5, seed=0)
    pen = assemble_penalty(PenaltyMode.SPATIAL_ONLY, 1e-3, 0.0,
                           data.k_beta, data.graph, data.k_gamma)
    with pytest.raises(SingularSystemError, match="not positive"):
        solve_mean_step(theta, pen, -1.0, step_derivs(kind, data, theta,
                                                      spec, links))


def _shuffled(draw, nv, edges):
    perm = draw(st.permutations(range(nv)))
    return [(perm[a], perm[b]) for a, b in edges]


@st.composite
def _component(draw, max_vertices):
    """(vertex count, edges) of one graph shape with shuffled vertex
    numbers: a random graph on at most 8 vertices, a rook lattice,
    whose narrow band the ordering must find, or a star or wheel, whose
    hub makes the band as wide as the graph."""
    shape = draw(st.sampled_from(["random", "lattice", "hub"]))
    if shape == "random":
        nv = draw(st.integers(1, min(8, max_vertices)))
        pairs = [(i, j) for i in range(nv) for j in range(i + 1, nv)]
        edges = draw(st.lists(st.sampled_from(pairs), unique=True)) \
            if pairs else []
    elif shape == "lattice":
        rows = draw(st.integers(1, min(6, max_vertices)))
        cols = draw(st.integers(1, max(1, min(7, max_vertices // rows))))
        nv = rows * cols
        edges = list(lattice_graph(rows, cols).edges)
    else:
        nv = draw(st.integers(2, max(2, max_vertices)))
        edges = [(0, i) for i in range(1, nv)]
        if draw(st.booleans()):            # wheel: close the rim
            edges += [(i, i % (nv - 1) + 1) for i in range(1, nv)
                      if i != i % (nv - 1) + 1]
    return nv, _shuffled(draw, nv, edges)


@st.composite
def spatial_graphs(draw):
    """One shape of ``_component`` or several side by side with isolated
    vertices, all vertices shuffled together; about 40 vertices at
    most."""
    if draw(st.booleans()):
        nv, edges = draw(_component(40))
        return ArealGraph.from_edges(nv, edges)
    nv, edges = draw(st.integers(0, 3)), []
    for _ in range(draw(st.integers(2, 4))):
        size, part = draw(_component(12))
        edges += [(a + nv, b + nv) for a, b in part]
        nv += size
    return ArealGraph.from_edges(nv, _shuffled(draw, nv, edges))


@st.composite
def mean_systems(draw):
    """A mean-step system on a random graph of up to about 40 vertices:
    possibly disconnected, with isolated vertices and vertices that no
    row reaches. Negative row weights make the Hessian indefinite. With
    lambda1 = 0 the right-hand side is J'u for J = [X, vertex
    indicators], in the range of J' as in a fit."""
    graph = draw(spatial_graphs())
    nv = graph.n_vertices
    kb = draw(st.integers(0, 3))
    n = draw(st.integers(0, 60))
    vertex = draw(arrays(np.int64, n, elements=st.integers(0, nv - 1)))
    lambda1 = draw(st.one_of(st.floats(0.01, 3), st.just(0.0)))
    values, weights = st.floats(-2, 2), st.floats(-3, 3)
    if lambda1 == 0:
        # X and the row weights on a grid of quarters, so that the
        # Hessian's entries are exact and its only near-null directions
        # are null ones; the weights positive, as in a compound
        # Poisson-gamma fit, or of both signs
        values = st.integers(-8, 8).map(lambda k: k / 4)
        weights = draw(st.sampled_from([st.integers(1, 12),
                                        st.integers(-12, 12).filter(bool)])
                       ).map(lambda k: k / 4)
    x = draw(arrays(np.float64, (n, kb), elements=values))
    w = draw(arrays(np.float64, n, elements=weights))
    indicators = np.zeros((n, nv))
    indicators[np.arange(n), vertex] = 1.0
    hess = MeanHessian(x.T @ (w[:, None] * x),
                       x.T @ (w[:, None] * indicators),
                       np.bincount(vertex, weights=w, minlength=nv))
    if lambda1 == 0:
        # as in a fit, every vertex that a row reaches has a nonzero
        # Hessian entry; where none has, J'u has no solution
        touched = (hess.h_aa_diag != 0) | np.any(hess.h_ba != 0, axis=0)
        assume(np.all(touched[vertex]))
    # lambda2 covers [0, 3]; one draw of floats(0, 3) is 0 in about
    # half the examples, so the bulk, the small end and 0 are drawn apart.
    # With lambda1 = 0 the small end starts at 1e-3: a far smaller
    # lambda2 ties a rowless vertex to a reached one by a direction that
    # the solve takes exactly and lstsq rounds away as null.
    small = st.floats(1e-3 if lambda1 == 0 else 0, 0.01)
    lambda2 = draw(st.one_of(st.floats(0.01, 3), small, st.just(0.0)))
    pen = assemble_penalty(draw(st.sampled_from(list(PenaltyMode))),
                           lambda1, lambda2, kb, graph, 0)
    c1 = draw(st.floats(0.5, 4))
    if lambda1 == 0:
        u = draw(arrays(np.float64, n, elements=st.floats(-2, 2)))
        rhs = np.concatenate([x.T @ u, indicators.T @ u])
    else:
        rhs = draw(arrays(np.float64, kb + nv, elements=st.floats(-2, 2)))
    return hess, pen, c1, rhs


class TestSparseSolveProperties:
    # eigenvalues within this share of the spectral radius (taken as at
    # least 1 when lambda1 > 0) of zero are left alone: there the sign
    # is decided by rounding
    MARGIN = 1e-6
    # with lambda1 = 0 an eigenvalue within this share of it of zero is
    # a null direction of the system, and the lstsq oracle takes it as one
    NULL = 1e-10

    @settings(max_examples=500)
    @given(mean_systems())
    def test_matches_dense_oracle_or_rejects(self, system):
        hess, pen, c1, rhs = system
        mat = dense_mean_matrix(hess, pen, c1)
        eigs = np.linalg.eigvalsh(mat)
        scale = float(np.abs(eigs).max())
        if pen.lambda1 > 0:
            scale = max(1.0, scale)
        near_zero = np.abs(eigs) <= self.MARGIN * scale
        got = _sparse_schur_solve(hess, pen, c1, rhs, np.zeros(rhs.size),
                                  None)
        if eigs.min() < -self.MARGIN * scale:
            assert got is None
            return
        if pen.lambda1 > 0 and not near_zero.any():
            want = np.linalg.solve(mat, rhs)
        elif pen.lambda1 == 0 and np.all(
                np.abs(eigs[near_zero]) <= self.NULL * scale):
            want = min_norm_mean_solve(hess, pen, c1, rhs, rcond=self.NULL)
        else:
            return
        assert got is not None
        assert np.max(np.abs(got - want)) <= \
            1e-8 * max(1.0, float(np.abs(want).max()))


@st.composite
def joint_systems(draw):
    """A joint-step system over (beta, alpha, gamma) on a graph drawn as
    in ``mean_systems``: the mean part is built from row weights as
    there, and one to three dispersion columns Z are coupled to it and
    to themselves by two more row weights, as in a fit's Hessian.
    Negative weights make it indefinite. With lambda1 = 0 the right-hand
    side is the system applied to a vector that is 0 at every vertex no
    row reaches, so it is consistent and 0 there, as in a fit."""
    graph = draw(spatial_graphs())
    nv = graph.n_vertices
    kb, kg = draw(st.integers(0, 3)), draw(st.integers(1, 3))
    n = draw(st.integers(0, 60))
    vertex = draw(arrays(np.int64, n, elements=st.integers(0, nv - 1)))
    lambda1 = draw(st.one_of(st.floats(0.01, 3), st.just(0.0)))
    values, weights = st.floats(-2, 2), st.floats(-3, 3)
    if lambda1 == 0:
        # on a grid of quarters, as in mean_systems
        values = st.integers(-8, 8).map(lambda k: k / 4)
        weights = draw(st.sampled_from([st.integers(1, 12),
                                        st.integers(-12, 12).filter(bool)])
                       ).map(lambda k: k / 4)
    x = draw(arrays(np.float64, (n, kb), elements=values))
    z = draw(arrays(np.float64, (n, kg), elements=values))
    q, r = (draw(arrays(np.float64, n, elements=weights)) for _ in "qr")
    w = draw(arrays(np.float64, n, elements=values))
    indicators = np.zeros((n, nv))
    indicators[np.arange(n), vertex] = 1.0
    hess = MeanHessian(x.T @ (q[:, None] * x),
                       x.T @ (q[:, None] * indicators),
                       np.bincount(vertex, weights=q, minlength=nv))
    # a positive diagonal keeps the gamma block from being singular, as
    # a fit's rank check on Z does
    d = draw(arrays(np.float64, kg,
                    elements=st.integers(1, 12).map(lambda k: k / 4)))
    gamma_block = (z.T @ (r[:, None] * z) + np.diag(d),
                   z.T @ (w[:, None] * x), z.T @ (w[:, None] * indicators))
    if lambda1 == 0:
        touched = ((hess.h_aa_diag != 0) | np.any(hess.h_ba != 0, axis=0)
                   | np.any(gamma_block[2] != 0, axis=0))
        assume(np.all(touched[vertex]))
    small = st.floats(1e-3 if lambda1 == 0 else 0, 0.01)
    lambda2 = draw(st.one_of(st.floats(0.01, 3), small, st.just(0.0)))
    pen = assemble_penalty(draw(st.sampled_from(list(PenaltyMode))),
                           lambda1, lambda2, kb, graph, kg)
    c = draw(st.floats(0.5, 4))
    u = draw(arrays(np.float64, kb + nv + kg, elements=st.floats(-2, 2)))
    if lambda1 == 0:
        u[kb:kb + nv][np.bincount(vertex, minlength=nv) == 0] = 0.0
        rhs = dense_joint_matrix(hess, gamma_block, pen, c) @ u
    else:
        rhs = u
    return hess, gamma_block, pen, c, rhs


class TestJointSolveProperties:
    """The joint solve against the dense oracle over the whole system,
    with the eigenvalue rules and tolerance of the mean-step test."""

    MARGIN = TestSparseSolveProperties.MARGIN
    NULL = TestSparseSolveProperties.NULL

    @settings(max_examples=300)
    @given(joint_systems())
    def test_matches_dense_oracle_or_rejects(self, system):
        hess, gamma_block, pen, c, rhs = system
        mat = dense_joint_matrix(hess, gamma_block, pen, c)
        eigs = np.linalg.eigvalsh(mat)
        scale = float(np.abs(eigs).max())
        if pen.lambda1 > 0:
            scale = max(1.0, scale)
        near_zero = np.abs(eigs) <= self.MARGIN * scale
        got = _sparse_schur_solve(hess, pen, c, rhs, np.zeros(rhs.size),
                                  gamma_block)
        if eigs.min() < -self.MARGIN * scale:
            assert got is None
            return
        if pen.lambda1 > 0 and not near_zero.any():
            want = np.linalg.solve(mat, rhs)
        elif pen.lambda1 == 0 and np.all(
                np.abs(eigs[near_zero]) <= self.NULL * scale):
            want, *_ = np.linalg.lstsq(mat, rhs, rcond=self.NULL)
        else:
            return
        assert got is not None
        assert np.max(np.abs(got - want)) <= \
            1e-8 * max(1.0, float(np.abs(want).max()))


    def test_zero_lambda1_vertex_coupled_only_through_gamma(self):
        """Vertex 1's rows cancel in its mean Hessian entry but not in
        its cross entry with gamma: it is not a rowless vertex, and the
        system, with a zero diagonal entry in a nonzero row, is
        indefinite."""
        graph = ArealGraph.from_edges(2, [])
        hess = MeanHessian(np.zeros((0, 0)), np.zeros((0, 2)),
                           np.array([1.0, 0.0]))
        gamma_block = (np.array([[2.0]]), np.zeros((1, 0)),
                       np.array([[0.5, 1.0]]))
        pen = assemble_penalty(PenaltyMode.SPATIAL_ONLY, 0.0, 0.0, 0, graph,
                               1)
        assert np.linalg.eigvalsh(
            dense_joint_matrix(hess, gamma_block, pen, 1.0)).min() < 0
        assert _sparse_schur_solve(hess, pen, 1.0, np.array([1.0, 0.0, 1.0]),
                                   np.zeros(3), gamma_block) is None


class TestSolveJointStep:
    """The joint step is the mean step's solve with a gamma block."""

    @pytest.mark.parametrize("mode", list(PenaltyMode))
    @pytest.mark.parametrize("seed", range(3))
    def test_block_solve_matches_dense(self, mode, seed):
        _block_step_matches_dense("joint", mode, seed)

    def test_not_positive_definite_raises(self):
        _block_step_not_positive_definite_raises("joint")

    @pytest.mark.parametrize("mode", list(PenaltyMode))
    def test_margin_is_the_sum_of_the_block_margins(self, mode):
        data, theta, spec, links = make_instance(
            Member.GAMMA, "log", n=60, seed=3)
        pen = assemble_penalty(mode, 0.7, 1.0, data.k_beta, data.graph,
                               data.k_gamma)
        moved = Coefficients(theta.beta + 0.1, theta.alpha - 0.2,
                             theta.gamma + 0.3)
        want = (opt._descent_margin(pen, theta, with_eta(theta, moved.eta))
                + opt._descent_margin(pen, theta,
                                      with_gamma(theta, moved.gamma)))
        assert want > 0
        assert opt._descent_margin(pen, theta, moved) == pytest.approx(
            want, rel=1e-14)


@st.composite
def block_displacements(draw):
    """A penalty of either mode on a small lattice, a start theta, and
    a displacement of it confined to one block: the mean, the
    dispersion or the whole vector."""
    kb, kg = draw(st.integers(0, 3)), draw(st.integers(0, 3))
    graph = lattice_graph(draw(st.integers(1, 3)), draw(st.integers(1, 3)))
    nv = graph.n_vertices
    pen = assemble_penalty(draw(st.sampled_from(list(PenaltyMode))),
                           draw(st.floats(0, 5)), draw(st.floats(0, 5)),
                           kb, graph, kg)
    values = st.floats(-10, 10)
    start = draw(arrays(np.float64, kb + nv + kg, elements=values))
    step = draw(arrays(np.float64, kb + nv + kg, elements=values))
    block = draw(st.sampled_from(["mean", "disp", "joint"]))
    if block == "mean":
        step[kb + nv:] = 0.0
    elif block == "disp":
        step[:kb + nv] = 0.0
    return pen, start, step


class TestDescentMargin:
    @settings(max_examples=300)
    @given(block_displacements())
    def test_margin_is_the_ridge_norm_of_the_displacement(self, case):
        """The margin takes no step kind: for a displacement confined
        to any block it is l1/2 times the displacement's squared norm
        over the coefficients the ridge term penalizes."""
        pen, start, step = case
        kb, nv = pen.k_beta, pen.n_vertices

        def unpack(vec):
            return Coefficients(*np.split(vec, [kb, kb + nv]))

        moved = start + step
        d = (moved - start) * penalty_mask(pen)
        got = opt._descent_margin(pen, unpack(start), unpack(moved))
        assert got == pytest.approx(0.5 * pen.lambda1 * float(d @ d),
                                    rel=1e-12, abs=1e-300)


class TestJointStepInFit:
    @staticmethod
    def _kinds(monkeypatch):
        kinds, raw = [], opt._scaled_step

        def spy(kind, *args):
            kinds.append(kind)
            return raw(kind, *args)

        monkeypatch.setattr(opt, "_scaled_step", spy)
        return kinds

    def _instance(self):
        gen = FamilySpec.compound_poisson_gamma(1.5)
        data, _ = make_dataset(1500, 3, 4, "smooth", gen, 0.2, seed=61)
        spec = FamilySpec.compound_poisson_gamma(1.5,
                                                 approx=Approx.SADDLEPOINT)
        pen = assemble_penalty(PenaltyMode.SPATIAL_ONLY, 1.0, 1.0,
                               data.k_beta, data.graph, data.k_gamma)
        return data, spec, LinkPair.of("log", "log"), FitConfig(
            penalty=pen, p_grid=np.array([1.5]))

    def test_tried_from_the_second_iteration(self, monkeypatch):
        """The first iteration sweeps; each later one tries the joint
        step first, and sweeps only when it is rejected."""
        kinds = self._kinds(monkeypatch)
        res = fit(*self._instance())
        assert res.converged and res.iters >= 3
        assert kinds[:3] == ["mean", "disp", "joint"]
        assert kinds.count("joint") == res.iters - 1
        swept = kinds.count("mean")
        assert kinds.count("disp") == swept >= 1

    def test_rejected_joint_step_falls_back_to_the_sweep(self,
                                                         monkeypatch):
        raw = opt.solve_mean_step

        def indefinite(theta, penalty, c, derivs):
            if derivs[2] is not None:
                raise SingularSystemError("mean-step system not positive "
                                          "definite")
            return raw(theta, penalty, c, derivs)

        data, spec, links, cfg = self._instance()
        want = fit(data, spec, links, cfg)
        monkeypatch.setattr(opt, "solve_mean_step", indefinite)
        kinds = self._kinds(monkeypatch)
        res = fit(data, spec, links, cfg)
        assert res.converged and res.iters > want.iters
        assert kinds.count("mean") == kinds.count("disp") == res.iters
        assert kinds.count("joint") == res.iters - 1
        np.testing.assert_allclose(res.objective_trace[-1],
                                   want.objective_trace[-1], rtol=1e-10)

    @staticmethod
    def _steps(monkeypatch):
        """The block steps and index walks of the fits that follow, in
        order: ("walk", None) for a walk, and for a step (kind, model)
        with model, for a rejected joint step, the decrease
        -1/2 (g + P theta)' delta that its Newton model predicts, by the
        dense oracle from the point it started at, else None."""
        events, raw_step, raw_walk = [], opt._scaled_step, opt.update_index

        def step(kind, data, point, links, penalty):
            try:
                out = raw_step(kind, data, point, links, penalty)
            except ScalingError:
                model = None
                theta, spec = point.theta, point.spec
                star = dense_joint_step(data, theta, spec, links, penalty,
                                        1.0)
                if kind == "joint" and star is not None:
                    vec = theta.as_vector()
                    g = step_derivs("joint", data, theta, spec, links)[0]
                    model = -0.5 * float((g + penalty.gradient(vec))
                                         @ (star - vec))
                events.append((kind, model))
                raise
            events.append((kind, None))
            return out

        def walk(*args):
            events.append(("walk", None))
            return raw_walk(*args)

        monkeypatch.setattr(opt, "_scaled_step", step)
        monkeypatch.setattr(opt, "update_index", walk)
        return events

    @staticmethod
    def _after_rejected_joint(events):
        """What followed each rejected joint step: the steps after one
        whose model decrease is below EPS_CONVERGE, and after one whose
        model decrease is not."""
        flat, steep = [], []
        for (kind, model), (after, _) in zip(events, events[1:]):
            if kind == "joint" and model is not None:
                (flat if model < opt.EPS_CONVERGE else steep).append(after)
        return flat, steep

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_no_sweep_after_a_flat_joint_step(self, monkeypatch, seed):
        """On the criterion-5 instance's warm-started 5x5 grid, rounding
        rejects joint steps whose Newton model predicts a decrease far
        below EPS_CONVERGE; the index walk follows each at once, every
        trace is non-increasing, and the grid picks the cell it picks
        when such a step is followed by the sweep, with hold-out
        deviances that agree to far inside what the fits' stopping rule
        (an objective decrease below 1e-8) pins down."""
        gen = FamilySpec.compound_poisson_gamma(1.5)
        sim = SimConfig(gamma0=(np.log(2.0), 0.2, -0.1, 0.3, -0.3))
        data, _ = make_dataset(10_000, 20, 20, "block", gen, 0.15,
                               seed=seed, sim=sim)
        spec = FamilySpec.compound_poisson_gamma(1.5,
                                                 approx=Approx.SADDLEPOINT)
        cfg = FitConfig(penalty=assemble_penalty(
            PenaltyMode.SPATIAL_ONLY, 1.0, 1.0, data.k_beta, data.graph,
            data.k_gamma), p_grid=np.array([1.5]))
        axis = np.linspace(-5.0, 5.0, 5)

        def search():
            return grid_search(data, spec, LinkPair.of("log", "log"), cfg,
                               GridSpec(axis, axis, 0.6, seed))

        with monkeypatch.context() as patched:
            events = self._steps(patched)
            traces, raw_fit = [], tuning.fit

            def traced(*args, **kwargs):
                res = raw_fit(*args, **kwargs)
                traces.append(res.objective_trace)
                return res

            patched.setattr(tuning, "fit", traced)
            res = search()
        flat, steep = self._after_rejected_joint(events)
        assert flat and set(flat) == {"walk"}
        assert set(steep) <= {"mean"}
        assert len(traces) == len(res.surface)
        assert all(np.all(np.diff(t) <= 0) for t in traces)

        raw_step = opt._scaled_step

        def sweep_after_flat(kind, *args):
            try:
                return raw_step(kind, *args)
            except ScalingError as err:
                raise ScalingError(str(err)) from None

        monkeypatch.setattr(opt, "_scaled_step", sweep_after_flat)
        swept = search()
        assert (swept.best_lambda1, swept.best_lambda2) == \
            (res.best_lambda1, res.best_lambda2)
        np.testing.assert_allclose([c.deviance for c in res.surface],
                                   [c.deviance for c in swept.surface],
                                   rtol=1e-7)

    def test_rejected_steep_joint_step_still_sweeps(self, monkeypatch):
        """An identity-link Gamma fit whose joint Newton step overshoots:
        rejected with a model decrease far above EPS_CONVERGE, it is
        followed by the mean-then-dispersion sweep, and the trace stays
        non-increasing."""
        data, _, spec, links = make_instance(Member.GAMMA, "identity", n=60,
                                             rows=2, cols=3, seed=4)
        pen = assemble_penalty(PenaltyMode.SPATIAL_ONLY, 0.01, 0.1,
                               data.k_beta, data.graph, data.k_gamma)
        events = self._steps(monkeypatch)
        res = fit(data, spec, links, FitConfig(penalty=pen))
        flat, steep = self._after_rejected_joint(events)
        assert steep and set(steep) == {"mean"}
        assert np.all(np.diff(res.objective_trace) <= 0)

    def test_never_tried_without_a_dispersion_model(self, monkeypatch):
        data, theta, spec, links = make_instance(Member.POISSON, "log",
                                                 n=200, seed=7)
        pen = assemble_penalty(PenaltyMode.SPATIAL_ONLY, 1.0, 1.0,
                               data.k_beta, data.graph, data.k_gamma)
        kinds = self._kinds(monkeypatch)
        res = fit(data, spec, links, FitConfig(penalty=pen))
        assert res.iters >= 2 and set(kinds) == {"mean"}


class TestBandLayout:
    """The spatial band is laid out once per graph and reused by every
    mean-step solve made with a penalty on it, whatever its positive
    multipliers."""

    @staticmethod
    def _count(call):
        with mock.patch.object(graph_mod, "lower_band",
                               wraps=graph_mod.lower_band) as layouts, \
                mock.patch.object(opt, "_sparse_schur_solve",
                                  wraps=opt._sparse_schur_solve) as solves:
            out = call()
        return out, layouts.call_count, solves.call_count

    def _instance(self):
        gen = FamilySpec.compound_poisson_gamma(1.5)
        data, _ = make_dataset(600, 3, 4, "block", gen, 0.2, seed=5)
        spec = FamilySpec.compound_poisson_gamma(1.5,
                                                 approx=Approx.SADDLEPOINT)
        pen = assemble_penalty(PenaltyMode.SPATIAL_ONLY, 1.0, 1.0,
                               data.k_beta, data.graph, data.k_gamma)
        cfg = FitConfig(penalty=pen, p_grid=np.array([1.5]))
        return data, spec, LinkPair.of("log", "log"), cfg

    def test_fit(self):
        data, spec, links, cfg = self._instance()
        res, layouts, solves = self._count(
            lambda: fit(data, spec, links, cfg))
        assert res.iters > 1 and solves >= res.iters
        assert layouts == 1

    def test_grid_search(self):
        data, spec, links, cfg = self._instance()
        grid = GridSpec(np.array([-1.0, 1.0]), np.array([-1.0, 0.0, 1.0]),
                        0.6, seed=5)
        res, layouts, solves = self._count(
            lambda: grid_search(data, spec, links, cfg, grid))
        assert not any(cell.failed for cell in res.surface)
        assert solves > 2 * len(res.surface)
        assert layouts == 1


class TestSolveDispStep:
    def test_stationary_gamma_is_fixed(self):
        data, links = _normal_instance()
        spec = spec_for(Member.NORMAL)
        res = fit(data, spec, links, FitConfig(penalty=_zero_penalty(data)))
        gamma_star = solve_disp_step(
            res.theta_hat, _zero_penalty(data), 1.0,
            step_derivs("disp", data, res.theta_hat, spec, links))
        np.testing.assert_allclose(gamma_star, res.theta_hat.gamma,
                                   atol=1e-6)

    def test_scalar_newton_formula(self):
        data, links = _normal_instance(seed=9)
        spec = spec_for(Member.NORMAL)
        theta = Coefficients(np.zeros(data.k_beta), np.zeros(6),
                             np.array([0.4]))
        c2 = 3.0
        held = blocks(data, theta, spec, links)
        got = solve_disp_step(theta, _zero_penalty(data), c2,
                              step_derivs("disp", data, theta, spec, links))
        g = grad_disp(data, *held)[0]
        h = hess_disp(data, *held)[0, 0]
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
        got = solve_disp_step(theta, pen, 4.0, (g, h))
        lam = pen.ridge
        if lam > 0:
            want = np.linalg.solve(lam * np.eye(2) + 4.0 * h_abs,
                                   4.0 * h_abs @ theta.gamma - g)
        else:
            want = theta.gamma - np.linalg.solve(h_abs, g) / 4.0
        np.testing.assert_allclose(got, want, rtol=1e-12)

    def test_huge_ridge_shrinks_gamma_to_zero(self):
        data, links = _normal_instance(seed=4)
        spec = spec_for(Member.NORMAL)
        theta = Coefficients(np.zeros(data.k_beta), np.zeros(6),
                             np.array([0.8]))
        pen = assemble_penalty(PenaltyMode.SPATIAL_PLUS_RIDGE, 1e12, 0.0,
                               data.k_beta, data.graph, data.k_gamma)
        got = solve_disp_step(theta, pen, 1.0,
                              step_derivs("disp", data, theta, spec, links))
        assert abs(got[0]) < 1e-6


def _held(data, theta, spec, links, pen):
    """The fit's held point at theta under spec."""
    return opt._evaluate(data, theta, spec, links,
                         pen.value(theta.as_vector()))


class TestChooseScaling:
    @pytest.mark.parametrize("approx", list(Approx))
    def test_infinite_dispersion_candidate_is_rejected(self, approx):
        """A candidate whose dispersion overflows (z'gamma = 1e300 * 1e10)
        is rejected like any point outside the domain, not raised."""
        g = lattice_graph(1, 2)
        data = Dataset([1.0, 0.0], [1.0, 1.0], [0, 1], np.ones((2, 1)),
                       np.full((2, 1), 1e300), g)
        cand = Coefficients([0.0], np.zeros(2), [1e10])
        spec = FamilySpec.compound_poisson_gamma(1.5, approx=approx)
        with np.errstate(over="ignore"):
            got = opt._evaluate_or_reject(data, cand, spec,
                                          LinkPair.of("log", "log"), 0.0)
        assert got is None

    def test_convex_quadratic_accepts_unit_scale(self):
        data, links = _normal_instance()
        spec = spec_for(Member.NORMAL)
        pen = _zero_penalty(data)
        theta = data.initial_coefficients(spec, links)
        point = _held(data, theta, spec, links, pen)
        c1, _ = _scaled_step("mean", data, point, links, pen)
        assert c1 == 1.0

    def test_accepted_scale_makes_system_psd(self):
        data, theta, spec, links = make_instance(
            Member.COMPOUND_POISSON_GAMMA, "log", n=150, seed=12)
        pen = assemble_penalty(PenaltyMode.SPATIAL_ONLY, 0.5, 0.7,
                               data.k_beta, data.graph, data.k_gamma)
        point = _held(data, theta, spec, links, pen)
        c1, _ = _scaled_step("mean", data, point, links, pen)
        mat = (pen.eta_matrix().toarray()
               + c1 * dense_hessian(hess_mean(data, *blocks(
                   data, theta, spec, links))))
        assert np.linalg.eigvalsh(mat).min() >= -1e-8

    def test_accepted_step_never_increases_objective(self):
        data, theta, spec, links = make_instance(
            Member.GAMMA, "log", n=100, seed=2)
        pen = assemble_penalty(PenaltyMode.SPATIAL_ONLY, 1.0, 1.0,
                               data.k_beta, data.graph, data.k_gamma)
        f0 = objective(data, theta, spec, links, pen)
        point = _held(data, theta, spec, links, pen)
        assert point.f == f0
        _, new = _scaled_step("mean", data, point, links, pen)
        assert new.f <= f0

    @pytest.mark.parametrize("kind", ["mean", "disp", "joint"])
    def test_returns_the_candidates_normalizer_terms(self, kind):
        data, theta, spec, links = make_instance(
            Member.COMPOUND_POISSON_GAMMA, "log", n=200, seed=5)
        pen = assemble_penalty(PenaltyMode.SPATIAL_ONLY, 1.0, 1.0,
                               data.k_beta, data.graph, data.k_gamma)
        point = _held(data, theta, spec, links, pen)
        _, new = _scaled_step(kind, data, point, links, pen)
        cand = new.theta
        np.testing.assert_array_equal(
            new.terms, lik.dispersion_terms(data, cand, spec, links))
        np.testing.assert_array_equal(
            new.exponent, lik.exponent_terms(data, cand, spec, links))
        assert new.nll == nll_at(data, cand, spec, links)
        assert new.spec == point.spec
        assert new.f == objective(data, cand, spec, links, pen)

    def test_rejects_unknown_step_kind(self):
        data, links = _normal_instance()
        with pytest.raises(ConfigError):
            _scaled_step("index", data, None, links, _zero_penalty(data))


class TestUpdateIndex:
    def test_fixed_p_member_unchanged(self):
        data, theta, spec, links = make_instance(Member.GAMMA, "log", seed=1)
        point = _held(data, theta, spec, links, _zero_penalty(data))
        assert update_index(data, point, links,
                            np.array([1.1, 1.5])) is point

    def test_single_point_grid(self):
        data, theta, spec, links = make_instance(
            Member.COMPOUND_POISSON_GAMMA, "log", seed=1)
        spec = spec.with_p(1.3)
        point = _held(data, theta, spec, links, _zero_penalty(data))
        assert update_index(data, point, links,
                            np.array([1.3])) is point

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
        held = opt._Point(None, spec, float(values[start]), 0.0, "terms",
                          "exponent")
        profile = dict(zip(grid.tolist(), values.tolist()))
        seen = []

        def profile_at(terms, exponent):
            # the mocked dispersion terms are the grid point's p
            seen.append(terms)
            return profile[terms]

        with mock.patch.object(lik, "neg_log_lik", profile_at), \
                mock.patch.object(lik, "dispersion_terms",
                                  lambda data, theta, spec, links: spec.p), \
                mock.patch.object(lik, "exponent_terms",
                                  lambda *a: "exponent"):
            got = update_index(None, held, None, grid)
            n_walk = len(seen)
            want = scan_update_index(None, None, spec, None, grid, held.nll)
        assert (got.spec.p, got.nll) == want
        walked = seen[:n_walk]
        assert len(set(walked)) == len(walked)
        assert grid[start] not in walked
        assert got is held or got.spec.p in walked

    def test_walk_matches_scan_on_the_likelihood(self):
        gen = FamilySpec.compound_poisson_gamma(1.5)
        data, _ = make_dataset(2000, 3, 3, "smooth", gen, 0.3, seed=44)
        links = LinkPair.of("log", "log")
        theta = data.initial_coefficients(gen, links)
        pen = _zero_penalty(data)
        grid = np.round(np.arange(1.05, 1.951, 0.05), 10)
        for p0 in (1.05, 1.3, 1.5, 1.95):
            spec = gen.with_p(p0)
            held = _held(data, theta, spec, links, pen)
            got = update_index(data, held, links, grid)
            assert (got.spec.p, got.nll) == scan_update_index(
                data, theta, spec, links, grid, held.nll)
            assert got.theta is theta and got.pen == held.pen
            np.testing.assert_array_equal(
                got.terms,
                lik.dispersion_terms(data, theta, got.spec, links))
            np.testing.assert_array_equal(
                got.exponent,
                lik.exponent_terms(data, theta, got.spec, links))

    def test_series_passes_per_iteration(self, monkeypatch):
        """A criterion-6 fit sums the series once at the start, then per
        iteration once for the dispersion or joint candidate and twice
        for the walk's neighbours."""
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

    def test_mean_exponent_passes_per_candidate(self, monkeypatch):
        """A fixed-p saddlepoint fit evaluates the mean exponent once at
        the start and once per mean-step or joint-step candidate: the
        mean and dispersion derivatives and the dispersion candidates
        reuse that of the accepted eta."""
        gen = FamilySpec.compound_poisson_gamma(1.5)
        data, _ = make_dataset(2000, 4, 4, "smooth", gen, 0.2, seed=201)
        spec = FamilySpec.compound_poisson_gamma(1.5,
                                                 approx=Approx.SADDLEPOINT)
        pen = assemble_penalty(PenaltyMode.SPATIAL_ONLY, 1.0, 1.0,
                               data.k_beta, data.graph, data.k_gamma)
        passes = []
        raw = lik._mean_exponent
        monkeypatch.setattr(lik, "_mean_exponent",
                            lambda *a: passes.append(1) or raw(*a))
        with mock.patch.object(opt, "solve_mean_step",
                               wraps=opt.solve_mean_step) as candidates:
            res = fit(data, spec, LinkPair.of("log", "log"),
                      FitConfig(penalty=pen, p_grid=np.array([1.5])))
        assert res.iters >= 3
        # mean-step and joint-step candidates alike
        assert len(passes) <= candidates.call_count + 1

    @pytest.mark.parametrize("approx, p_grid", [
        (Approx.SERIES, np.round(np.arange(1.05, 1.951, 0.05), 10)),
        (Approx.SADDLEPOINT, np.array([1.5]))], ids=["walk", "fixed-p"])
    def test_dispersion_scale_once_per_block(self, monkeypatch, approx,
                                             p_grid):
        """The rows u = w/h2(z'gamma) are computed once per dispersion-side
        block, where the block is built, and the derivatives and the
        likelihood read them from it. At fixed p a block is built at the
        start and per dispersion-step or joint-step candidate only."""
        gen = FamilySpec.compound_poisson_gamma(1.5)
        data, _ = make_dataset(2000, 4, 4, "smooth", gen, 0.2, seed=202)
        pen = assemble_penalty(PenaltyMode.SPATIAL_ONLY, 1.0, 1.0,
                               data.k_beta, data.graph, data.k_gamma)
        scales, built = [], []
        raw_scale, raw_terms = lik._dispersion_scale, lik.dispersion_terms
        monkeypatch.setattr(lik, "_dispersion_scale",
                            lambda *a: scales.append(1) or raw_scale(*a))
        monkeypatch.setattr(lik, "dispersion_terms",
                            lambda *a: built.append(1) or raw_terms(*a))
        with mock.patch.object(opt, "solve_disp_step",
                               wraps=opt.solve_disp_step) as candidates, \
                mock.patch.object(opt, "solve_mean_step",
                                  wraps=opt.solve_mean_step) as block:
            res = fit(data, FamilySpec.compound_poisson_gamma(
                1.5, approx=approx), LinkPair.of("log", "log"),
                FitConfig(penalty=pen, p_grid=p_grid))
        assert res.iters >= 3
        assert len(scales) == len(built)
        # a joint candidate is a mean-step solve whose derivs have a
        # gamma block
        joint = sum(call.args[3][2] is not None
                    for call in block.call_args_list)
        if approx is Approx.SADDLEPOINT:
            assert len(built) <= candidates.call_count + joint + 1

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


class TestFitChecks:
    """Inputs that ``fit`` and ``FitConfig`` refuse before iterating."""

    def test_grid_not_ascending(self):
        data, _ = _normal_instance()
        with pytest.raises(ConfigError) as err:
            FitConfig(penalty=_zero_penalty(data), p_grid=[1.5, 1.3])
        assert str(err.value) == "p_grid must be strictly ascending"

    def test_empty_dataset(self):
        g = lattice_graph(1, 4)
        data = Dataset(np.zeros(0), np.zeros(0), np.zeros(0, dtype=int),
                       np.zeros((0, 1)), np.zeros((0, 1)), g)
        with pytest.raises(ConfigError) as err:
            fit(data, spec_for(Member.NORMAL), LinkPair.of("identity", "log"),
                FitConfig(penalty=_zero_penalty(data)))
        assert str(err.value) == "cannot fit an empty dataset"

    @pytest.mark.parametrize("block", ["beta", "alpha", "gamma"])
    def test_init_of_the_wrong_size(self, block):
        data, links = _normal_instance()
        theta = data.initial_coefficients(spec_for(Member.NORMAL), links)
        parts = {name: getattr(theta, name)
                 for name in ("beta", "alpha", "gamma")}
        parts[block] = np.append(parts[block], 0.0)
        with pytest.raises(ConfigError) as err:
            fit(data, spec_for(Member.NORMAL), links,
                FitConfig(penalty=_zero_penalty(data)),
                init=Coefficients(**parts))
        assert str(err.value) == "init has wrong block sizes for this dataset"


class TestFit:
    def test_matches_least_squares_and_moment_dispersion(self):
        data, links = _normal_instance(seed=21)
        spec = spec_for(Member.NORMAL)
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

    @settings(max_examples=100)
    @given(seed=st.integers(0, 2 ** 16),
           member=st.sampled_from(list(Member)),
           approx=st.sampled_from(list(Approx)),
           p_gen=st.floats(1.1, 1.9), p0=st.floats(1.01, 1.99),
           zero=st.floats(0.05, 0.6), lam=st.sampled_from([0.1, 1.0, 10.0]),
           mode=st.sampled_from(list(PenaltyMode)), data=st.data())
    def test_trace_non_increasing_any_member(self, seed, member, approx,
                                             p_gen, p0, zero, lam, mode,
                                             data):
        """Every member and mean link, the compound one under either
        normalizer on draws of any generating p and zero share, fitted
        from any starting p. The trace never rises, and its last value,
        built from the held normalizer terms and mean exponent, is the
        objective recomputed from scratch at the fit."""
        if member is Member.COMPOUND_POISSON_GAMMA:
            inst, _ = make_dataset(300, 3, 3, "smooth",
                                   FamilySpec.compound_poisson_gamma(p_gen),
                                   zero, seed=seed)
            spec = FamilySpec.compound_poisson_gamma(p0, approx=approx)
            links = LinkPair.of("log", "log")
        else:
            mean_link = data.draw(st.sampled_from(
                MEAN_LINKS_BY_MEMBER[member]))
            inst, _, spec, links = make_instance(member, mean_link, n=120,
                                                 rows=2, cols=3, seed=seed)
        pen = assemble_penalty(mode, lam, lam, inst.k_beta, inst.graph,
                               inst.k_gamma)
        res = fit(inst, spec, links, FitConfig(penalty=pen))
        assert np.all(np.diff(res.objective_trace) <= 0.0)
        assert len(res.history) == len(res.objective_trace) == res.iters + 1
        assert res.history[-1] is res.theta_hat
        spec_hat = spec if res.p_hat == spec.p else spec.with_p(res.p_hat)
        assert res.objective_trace[-1] == objective(
            inst, res.theta_hat, spec_hat, links, pen)
        if member is not Member.COMPOUND_POISSON_GAMMA:
            for f_k, theta_k in zip(res.objective_trace, res.history):
                assert f_k == objective(inst, theta_k, spec, links, pen)

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

    def test_starts_at_the_grid_point_nearest_p0(self):
        """A compound fit from p = 1.52 starts at 1.5 on the default
        grid: its first objective is F there, and p_hat is a grid
        point."""
        data, _ = make_dataset(400, 3, 3, "smooth",
                               FamilySpec.compound_poisson_gamma(1.5), 0.3,
                               seed=5)
        spec = FamilySpec.compound_poisson_gamma(1.52)
        pen = assemble_penalty(PenaltyMode.SPATIAL_ONLY, 1.0, 1.0,
                               data.k_beta, data.graph, data.k_gamma)
        links = LinkPair.of("log", "log")
        res = fit(data, spec, links, FitConfig(penalty=pen))
        assert res.objective_trace[0] == objective(
            data, res.history[0], spec.with_p(1.5), links, pen)
        assert res.p_hat in fam.default_p_grid(spec)

    def test_single_point_grid_pins_p(self):
        """From p = 1.3 with the grid [1.5] the fit snaps to 1.5 and
        never evaluates another p."""
        data, _ = make_dataset(400, 3, 3, "smooth",
                               FamilySpec.compound_poisson_gamma(1.5), 0.3,
                               seed=6)
        pen = assemble_penalty(PenaltyMode.SPATIAL_ONLY, 1.0, 1.0,
                               data.k_beta, data.graph, data.k_gamma)
        with mock.patch.object(lik, "dispersion_terms",
                               wraps=lik.dispersion_terms) as terms, \
                mock.patch.object(lik, "exponent_terms",
                                  wraps=lik.exponent_terms) as exponent:
            res = fit(data, FamilySpec.compound_poisson_gamma(1.3),
                      LinkPair.of("log", "log"),
                      FitConfig(penalty=pen, p_grid=np.array([1.5])))
        assert res.p_hat == 1.5
        assert terms.call_count >= 1 and exponent.call_count >= 1
        calls = terms.call_args_list + exponent.call_args_list
        assert {call.args[2].p for call in calls} == {1.5}

    def test_checks_the_support_once(self, monkeypatch):
        """The fit checks the response against the member once; its
        candidates and the walk's grid points do not again."""
        data, _ = make_dataset(400, 3, 3, "smooth",
                               FamilySpec.compound_poisson_gamma(1.5), 0.3,
                               seed=7)
        pen = assemble_penalty(PenaltyMode.SPATIAL_ONLY, 1.0, 1.0,
                               data.k_beta, data.graph, data.k_gamma)
        calls = []
        raw = fam.check_support
        monkeypatch.setattr(fam, "check_support",
                            lambda *a, **k: calls.append(1) or raw(*a, **k))
        res = fit(data, FamilySpec.compound_poisson_gamma(1.3),
                  LinkPair.of("log", "log"), FitConfig(penalty=pen))
        assert res.iters >= 2
        assert len(calls) == 1

    def test_response_outside_the_support_is_a_domain_error(self):
        data, _ = make_dataset(400, 3, 3, "smooth",
                               FamilySpec.compound_poisson_gamma(1.5), 0.3,
                               seed=7)
        y = data.y.copy()
        y[0] = -1.0
        bad = Dataset(y, data.w, data.vertex, data.X, data.Z, data.graph)
        pen = assemble_penalty(PenaltyMode.SPATIAL_ONLY, 1.0, 1.0,
                               bad.k_beta, bad.graph, bad.k_gamma)
        with pytest.raises(DomainError, match="nonnegative"):
            fit(bad, FamilySpec.compound_poisson_gamma(1.5),
                LinkPair.of("log", "log"), FitConfig(penalty=pen))

    @pytest.mark.parametrize("entry", ["fit", "objective",
                                       "fisher_information"])
    def test_entry_points_check_the_data(self, entry):
        """Each entry point that takes a raw dataset checks it against
        the member before it builds a likelihood block: a response
        outside the support is a DomainError, and a Poisson dataset with
        a dispersion design a ConfigError."""
        data, theta, spec, links = make_instance(Member.GAMMA, "log", seed=2)
        pen = assemble_penalty(PenaltyMode.SPATIAL_ONLY, 1.0, 1.0,
                               data.k_beta, data.graph, data.k_gamma)
        calls = {
            "fit": lambda d, s: fit(d, s, links, FitConfig(penalty=pen)),
            "objective": lambda d, s: objective(d, theta, s, links, pen),
            "fisher_information": lambda d, s: fisher_information(
                d, theta, s, links),
        }
        y = data.y.copy()
        y[3] = -1.0
        bad = Dataset(y, data.w, data.vertex, data.X, data.Z, data.graph)
        with pytest.raises(DomainError, match="y/w"):
            calls[entry](bad, spec)
        counts = Dataset(np.round(data.y), data.w, data.vertex, data.X,
                         data.Z, data.graph)
        with pytest.raises(ConfigError, match="constant dispersion"):
            calls[entry](counts, spec_for(Member.POISSON))

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
        res = fit(data, spec_for(Member.NORMAL),
                  LinkPair.of("identity", "log"),
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
        cfg = FitConfig(penalty=pen, p_grid=np.array([1.5]))
        res = fit(data, gen, LinkPair.of("log", "log"), cfg)
        trace = res.objective_trace
        for k in range(len(res.history) - 1):
            d_alpha = res.history[k + 1].alpha - res.history[k].alpha
            assert trace[k] - trace[k + 1] >= \
                0.5 * lam1 * float(d_alpha @ d_alpha) - 1e-8


class TestComparators:
    def test_ridge_at_zero_equals_unpenalized(self):
        data, links = _normal_instance(seed=14, with_intercept=False)
        spec = spec_for(Member.NORMAL)
        cfg = FitConfig(penalty=_zero_penalty(data))
        a = fit_ridge(data, spec, links, cfg, lambda1=0.0)
        b = fit_unpenalized(data, spec, links, cfg)
        np.testing.assert_array_equal(a.objective_trace, b.objective_trace)
        np.testing.assert_array_equal(a.theta_hat.as_vector(),
                                      b.theta_hat.as_vector())

    def test_huge_ridge_kills_alpha(self):
        data, links = _normal_instance(seed=15, with_intercept=True)
        spec = spec_for(Member.NORMAL)
        cfg = FitConfig(penalty=_zero_penalty(data))
        res = fit_ridge(data, spec, links, cfg, lambda1=1e8)
        assert np.max(np.abs(res.theta_hat.alpha)) < 1e-4

    def test_unpenalized_handles_intercept_collinearity(self):
        # intercept column + full vertex indicators: singular system,
        # minimum-norm fallback must still converge
        data, links = _normal_instance(seed=16, with_intercept=True)
        spec = spec_for(Member.NORMAL)
        res = fit_unpenalized(data, spec, links,
                              FitConfig(penalty=_zero_penalty(data)))
        assert res.converged
        design = np.zeros((data.n_rows, data.k_beta + 6))
        design[:, :data.k_beta] = data.X
        design[np.arange(data.n_rows), data.k_beta + data.vertex] = 1.0
        min_norm_ols, *_ = np.linalg.lstsq(design, data.y, rcond=None)
        np.testing.assert_allclose(res.theta_hat.eta, min_norm_ols,
                                   atol=1e-6)

    @pytest.mark.parametrize("lambda2", [0.0, 1.0])
    def test_zero_lambda1_fit_matches_min_norm_oracle(self, lambda2):
        """A 2x4 lattice whose last vertex lost its rows to an isolated
        vertex, plus an isolated vertex and a 3-vertex path that no row
        reaches; an intercept makes the system singular as well."""
        gen = FamilySpec.compound_poisson_gamma(1.5)
        base, _ = make_dataset(600, 2, 4, "block", gen, 0.2, seed=5)
        lattice = list(base.graph.edges)
        graph = ArealGraph.from_edges(13, lattice + [(10, 11), (11, 12)])
        vertex = np.where(base.vertex == 7, 8, base.vertex)
        data = Dataset(base.y, base.w, vertex, base.X, base.Z, graph)
        rowless = np.setdiff1d(np.arange(13), vertex)
        assert rowless.tolist() == [7, 9, 10, 11, 12]
        spec = FamilySpec.compound_poisson_gamma(1.5,
                                                 approx=Approx.SADDLEPOINT)
        links = LinkPair.of("log", "log")
        pen = assemble_penalty(PenaltyMode.SPATIAL_ONLY, 0.0, lambda2,
                               data.k_beta, graph, data.k_gamma)
        cfg = FitConfig(penalty=pen, p_grid=np.array([1.5]))
        res = fit(data, spec, links, cfg)
        with mock.patch.object(opt, "solve_mean_step", min_norm_mean_step):
            want = fit(data, spec, links, cfg)
        assert res.converged and res.iters == want.iters
        np.testing.assert_allclose(res.theta_hat.as_vector(),
                                   want.theta_hat.as_vector(), rtol=0,
                                   atol=1e-8)
        np.testing.assert_allclose(res.objective_trace,
                                   want.objective_trace, rtol=0, atol=1e-8)
        unreached = [9, 10, 11, 12] if lambda2 else rowless
        assert np.all(res.theta_hat.alpha[unreached] == 0.0)

    def test_convergence_bound_at_termination(self):
        gen = FamilySpec.compound_poisson_gamma(1.5, approx=Approx.SADDLEPOINT)
        data, _ = make_dataset(1000, 3, 3, "smooth",
                               FamilySpec.compound_poisson_gamma(1.5), 0.2,
                               seed=51)
        pen = assemble_penalty(PenaltyMode.SPATIAL_ONLY, 1.0, 1.0,
                               data.k_beta, data.graph, data.k_gamma)
        res = fit(data, gen, LinkPair.of("log", "log"),
                  FitConfig(penalty=pen, p_grid=np.array([1.5])))
        assert res.converged
        diff = res.theta_hat.as_vector() - res.history[-2].as_vector()
        assert float(diff @ diff) <= 2.0 * opt.EPS_CONVERGE / 1.0
