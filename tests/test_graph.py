"""Graphs, Laplacians and penalty assembly."""

import numpy as np
import pytest
from scipy import sparse
from scipy.sparse import csgraph

from conftest import (band_solve, c_order_band_factor, c_order_band_solve,
                      identity_block, laplacian_block, penalty_mask)
from twdglm.errors import ConfigError, SchemaError
from twdglm.graph import (ArealGraph, PenaltyMode, assemble_penalty,
                          build_laplacian, lattice_graph, lower_band)


def path_graph(n):
    return ArealGraph.from_edges(n, [(i, i + 1) for i in range(n - 1)])


class TestLaplacian:
    def test_three_path(self):
        lap = build_laplacian(path_graph(3)).toarray()
        np.testing.assert_array_equal(
            lap, [[1, -1, 0], [-1, 2, -1], [0, -1, 1]])

    def test_single_vertex(self):
        lap = build_laplacian(ArealGraph.from_edges(1, [])).toarray()
        np.testing.assert_array_equal(lap, [[0.0]])

    def test_complete_graph_k3(self):
        lap = build_laplacian(
            ArealGraph.from_edges(3, [(0, 1), (0, 2), (1, 2)])).toarray()
        np.testing.assert_array_equal(
            lap, [[2, -1, -1], [-1, 2, -1], [-1, -1, 2]])

    @pytest.mark.parametrize("seed", range(5))
    def test_structural_invariants(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(4, 13))
        edges = [(i, j) for i in range(n) for j in range(i + 1, n)
                 if rng.random() < 0.4]
        g = ArealGraph.from_edges(n, edges)
        lap = build_laplacian(g).toarray()
        np.testing.assert_array_equal(lap, lap.T)
        np.testing.assert_allclose(lap.sum(axis=1), 0.0, atol=1e-12)
        off = lap[~np.eye(n, dtype=bool)]
        assert set(np.unique(off)).issubset({0.0, -1.0})
        eigs = np.linalg.eigvalsh(lap)
        assert eigs.min() >= -1e-10
        n_zero = int(np.sum(np.abs(eigs) < 1e-8))
        n_components, _ = csgraph.connected_components(build_laplacian(g),
                                                       directed=False)
        assert n_zero == n_components

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_edge_loop(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 25))
        edges = [(i, j) for i in range(n) for j in range(i + 1, n)
                 if rng.random() < 0.2]
        dense = np.zeros((n, n))
        for a, b in edges:
            dense[a, b] = dense[b, a] = -1.0
            dense[a, a] += 1.0
            dense[b, b] += 1.0
        want = sparse.csr_matrix(dense)        # no stored zeros
        lap = build_laplacian(ArealGraph.from_edges(n, edges))
        assert lap.format == "csr" and lap.has_canonical_format
        for attr in ("indptr", "indices", "data"):
            np.testing.assert_array_equal(getattr(lap, attr),
                                          getattr(want, attr))

    def test_rejects_self_loops_and_duplicates(self):
        with pytest.raises(ConfigError):
            ArealGraph(2, ((0, 0),), ("a", "b"))
        with pytest.raises(ConfigError):
            ArealGraph(3, ((0, 1), (0, 1)), ("a", "b", "c"))


def shuffled_lattice(rows, cols, seed):
    rng = np.random.default_rng(seed)
    perm = rng.permutation(rows * cols)
    return ArealGraph.from_edges(
        rows * cols,
        [(perm[a], perm[b]) for a, b in lattice_graph(rows, cols).edges])


def band_to_dense(ab):
    n = ab.shape[1]
    out = np.zeros((n, n))
    for d in range(ab.shape[0]):
        k = np.arange(n - d)
        out[k + d, k] = out[k, k + d] = ab[d, :n - d]
    return out


class TestLowerBand:
    @pytest.mark.parametrize("rows,cols", [(1, 7), (2, 9), (5, 8), (6, 6),
                                           (7, 4), (12, 12)])
    def test_shuffled_lattice(self, rows, cols):
        g = shuffled_lattice(rows, cols, seed=rows * 100 + cols)
        pen = assemble_penalty(PenaltyMode.SPATIAL_ONLY, 0.7, 1.3, 2, g, 1)
        band = pen.alpha_band
        n = g.n_vertices
        # the reverse Cuthill-McKee order undoes the shuffle's spread
        assert band.ab.shape[0] - 1 <= min(rows, cols) + 1
        np.testing.assert_array_equal(band.inverse[band.order],
                                      np.arange(n))
        perm = np.ix_(band.order, band.order)
        np.testing.assert_array_equal(
            band_to_dense(band.ab), pen.alpha_penalty_matrix().toarray()[perm])
        # entries past the matrix's corner are padding
        d = np.arange(band.ab.shape[0])
        assert np.all(band.ab[d[:, None] + np.arange(n) >= n] == 0)

    def test_ridge_only_is_diagonal(self):
        g = shuffled_lattice(4, 5, seed=1)
        pen = assemble_penalty(PenaltyMode.SPATIAL_ONLY, 0.5, 0.0, 1, g, 1)
        np.testing.assert_array_equal(pen.alpha_band.ab, np.full((1, 20), 0.5))

    def test_star_and_isolated_vertices(self):
        g = ArealGraph.from_edges(9, [(4, i) for i in (0, 2, 6, 7, 8)])
        pen = assemble_penalty(PenaltyMode.SPATIAL_PLUS_RIDGE, 1.0, 2.0, 0, g,
                               0)
        band = pen.alpha_band
        perm = np.ix_(band.order, band.order)
        np.testing.assert_array_equal(
            band_to_dense(band.ab), pen.alpha_penalty_matrix().toarray()[perm])

    @pytest.mark.parametrize("lambda1,lambda2", [(0.7, 1.3), (2.0, 1e-3),
                                                 (1e-3, 5.0), (0.0, 0.7)])
    def test_graph_layout_equals_own_layout(self, lambda1, lambda2):
        """With lambda2 positive (lambda1 = 0 included), the penalty's
        band is the graph's Laplacian band scaled: bit for bit the band
        and order it would lay out itself, on a shuffled lattice and on
        a star with isolated vertices."""
        for g in (shuffled_lattice(6, 7, seed=4),
                  ArealGraph.from_edges(9, [(4, i) for i in (0, 2, 6, 7, 8)])):
            pen = assemble_penalty(PenaltyMode.SPATIAL_ONLY, lambda1, lambda2,
                                   1, g, 1)
            own = lower_band(pen.alpha_penalty_matrix())
            assert pen.alpha_band.ab.flags.f_contiguous
            np.testing.assert_array_equal(pen.alpha_band.order, own.order)
            np.testing.assert_array_equal(pen.alpha_band.ab, own.ab)
            other = assemble_penalty(PenaltyMode.SPATIAL_PLUS_RIDGE, 1.0, 1.0,
                                     1, g, 1)
            assert other.alpha_band.order is pen.alpha_band.order

    @pytest.mark.parametrize("lambda1", [0.0, 0.5])
    def test_ridge_only_band_solves_as_own_layout(self, lambda1):
        """With lambda2 = 0 the band is lambda1*I in vertex order, and
        its solves equal bit for bit those of the layout the penalty
        would make itself, on both graphs of the test above."""
        rng = np.random.default_rng(5)
        for g in (shuffled_lattice(6, 7, seed=4),
                  ArealGraph.from_edges(9, [(4, i) for i in (0, 2, 6, 7, 8)])):
            pen = assemble_penalty(PenaltyMode.SPATIAL_ONLY, lambda1, 0.0, 1,
                                   g, 1)
            own = lower_band(pen.alpha_penalty_matrix())
            n = g.n_vertices
            np.testing.assert_array_equal(pen.alpha_band.order, np.arange(n))
            diag, cols = rng.uniform(0.1, 2.0, n), rng.normal(size=(n, 3))
            assert np.array_equal(band_solve(pen.alpha_band, diag, cols),
                                  band_solve(own, diag, cols))

    def test_solve_in_vertex_order(self):
        g = shuffled_lattice(4, 5, seed=2)
        pen = assemble_penalty(PenaltyMode.SPATIAL_ONLY, 0.5, 1.0, 0, g, 0)
        rng = np.random.default_rng(3)
        diag, cols = rng.uniform(0, 2, 20), rng.normal(size=(20, 3))
        mat = pen.alpha_penalty_matrix().toarray() + np.diag(diag)
        np.testing.assert_allclose(band_solve(pen.alpha_band, diag, cols),
                                   np.linalg.solve(mat, cols), rtol=1e-12,
                                   atol=1e-12)
        # the forward half alone carries the Gram products of a Schur
        # complement: F'F = cols' (M + diag)^{-1} cols
        fwd = pen.alpha_band.factor(diag).forward(cols)
        np.testing.assert_allclose(fwd.T @ fwd,
                                   cols.T @ np.linalg.solve(mat, cols),
                                   rtol=1e-12, atol=1e-12)
        # e_7' (M + diag) e_7 < 0, and a NaN passes LAPACK's pivot test
        for bad in (-10.0, np.nan):
            diag[7] = bad
            assert pen.alpha_band.factor(diag) is None
        # the solves left the band as laid out
        np.testing.assert_array_equal(
            band_to_dense(pen.alpha_band.ab),
            pen.alpha_penalty_matrix().toarray()[np.ix_(
                pen.alpha_band.order, pen.alpha_band.order)])

    @pytest.mark.parametrize("rows,cols,lambda1,lambda2", [
        (1, 7, 0.7, 1.3), (5, 8, 0.7, 1.3), (12, 12, 0.0, 1.3),
        (60, 60, 1.0, 1.0), (4, 5, 0.5, 0.0)])
    def test_solve_matches_c_order_solve_exactly(self, rows, cols, lambda1,
                                                 lambda2):
        """The column-major band factored in place hands LAPACK the same
        numbers as a C-ordered copy that scipy's wrapper copies again,
        so the factors are equal bit for bit, and so is each refusal;
        forward then back makes the same triangular solves, column by
        column, as ``cho_solve_banded``, so the solutions are equal bit
        for bit too. With lambda2 = 0 the band is one row, both C- and
        F-ordered."""
        g = shuffled_lattice(rows, cols, seed=rows * 100 + cols)
        pen = assemble_penalty(PenaltyMode.SPATIAL_ONLY, lambda1, lambda2, 2,
                               g, 1)
        band = pen.alpha_band
        assert band.ab.flags.f_contiguous
        laid_out = band.ab.copy()
        rng = np.random.default_rng(rows + cols)
        n = g.n_vertices
        diag, rhs = rng.uniform(0.1, 2, n), rng.normal(size=(n, 4))
        assert np.array_equal(band.factor(diag).ab,
                              c_order_band_factor(band, diag).ab)
        assert np.array_equal(band_solve(band, diag, rhs),
                              c_order_band_solve(band, diag, rhs))
        diag[n // 2] = -1e3
        assert band.factor(diag) is None
        assert c_order_band_factor(band, diag) is None
        np.testing.assert_array_equal(band.ab, laid_out)


class TestEdgeListFile:
    def test_parse(self, tmp_path):
        path = tmp_path / "g.tsv"
        path.write_text("# comment\n06001\t06002\n06002\t06003\n06009\n",
                        encoding="utf-8")
        g = ArealGraph.from_edge_list_file(path)
        assert g.n_vertices == 4
        assert g.labels == ("06001", "06002", "06003", "06009")
        assert len(g.edges) == 2
        assert g.degrees()[3] == 0

    def test_self_loop_rejected(self, tmp_path):
        path = tmp_path / "g.tsv"
        path.write_text("a\ta\n", encoding="utf-8")
        with pytest.raises(SchemaError):
            ArealGraph.from_edge_list_file(path)

    def test_too_many_fields(self, tmp_path):
        path = tmp_path / "g.tsv"
        path.write_text("a\tb\tc\n", encoding="utf-8")
        with pytest.raises(SchemaError):
            ArealGraph.from_edge_list_file(path)


class TestPenaltyAssembly:
    def test_zero_multipliers_vanish(self):
        g = path_graph(3)
        pen = assemble_penalty(PenaltyMode.SPATIAL_ONLY, 0.0, 0.0, 2, g, 2)
        rng = np.random.default_rng(0)
        for _ in range(10):
            assert pen.value(rng.normal(0, 1, pen.dim)) == 0.0

    def test_unit_alpha_ridge(self):
        g = path_graph(3)
        pen = assemble_penalty(PenaltyMode.SPATIAL_ONLY, 1.0, 0.0, 2, g, 2)
        vec = np.zeros(pen.dim)
        vec[:2] = [4.0, -3.0]       # beta arbitrary, unpenalized
        vec[2] = 1.0                # alpha = e1
        vec[5:] = [2.0, 2.0]        # gamma arbitrary
        assert pen.value(vec) == pytest.approx(0.5)

    def test_laplacian_quadratic_on_path(self):
        g = path_graph(3)
        pen = assemble_penalty(PenaltyMode.SPATIAL_ONLY, 0.0, 1.0, 1, g, 1)
        vec = np.zeros(pen.dim)
        vec[1:4] = [1.0, 0.0, 0.0]
        assert pen.value(vec) == pytest.approx(0.5)

    def test_rejects_negative_multipliers(self):
        with pytest.raises(ConfigError):
            assemble_penalty(PenaltyMode.SPATIAL_ONLY, -1.0, 0.0, 1,
                             path_graph(3), 1)

    def test_mask_layout(self):
        # the penalty ignores exactly the coefficients outside the mask
        g = path_graph(4)
        pen_s = assemble_penalty(PenaltyMode.SPATIAL_ONLY, 1.0, 1.0, 2, g, 3)
        np.testing.assert_array_equal(penalty_mask(pen_s),
                                      [0, 0, 1, 1, 1, 1, 0, 0, 0])
        pen_r = assemble_penalty(PenaltyMode.SPATIAL_PLUS_RIDGE, 1.0, 1.0,
                                 2, g, 3)
        np.testing.assert_array_equal(penalty_mask(pen_r), np.ones(9))
        rng = np.random.default_rng(3)
        for pen in (pen_s, pen_r):
            mask = penalty_mask(pen)
            v = rng.normal(0, 1, pen.dim)
            for i in range(pen.dim):
                w = v.copy()
                w[i] += 1.0
                assert (pen.value(w) != pen.value(v)) == bool(mask[i])

    def test_quadratic_form_nonnegative(self):
        g = lattice_graph(3, 3)
        rng = np.random.default_rng(42)
        for mode in PenaltyMode:
            pen = assemble_penalty(mode, 0.7, 1.3, 2, g, 2)
            for _ in range(500):
                assert pen.value(rng.normal(0, 3, pen.dim)) >= 0.0

    def test_value_matches_matrix_form(self):
        g = lattice_graph(2, 3)
        rng = np.random.default_rng(1)
        for mode in PenaltyMode:
            pen = assemble_penalty(mode, 0.4, 1.7, 3, g, 2)
            big = 0.4 * identity_block(pen) + 1.7 * laplacian_block(pen)
            a_mask = np.diag(penalty_mask(pen))
            for _ in range(20):
                v = rng.normal(0, 1, pen.dim)
                expected = 0.5 * (a_mask @ v) @ big @ (a_mask @ v)
                assert pen.value(v) == pytest.approx(expected)

    def test_gradient_matches_matrix_form(self):
        """The gradient is (l1*I0 + l2*W0) theta, on a graph with an
        isolated vertex."""
        g = ArealGraph.from_edges(5, [(0, 1), (1, 2), (2, 3)])
        rng = np.random.default_rng(2)
        for mode in PenaltyMode:
            pen = assemble_penalty(mode, 0.4, 1.7, 3, g, 2)
            big = 0.4 * identity_block(pen) + 1.7 * laplacian_block(pen)
            for _ in range(20):
                v = rng.normal(0, 1, pen.dim)
                np.testing.assert_allclose(pen.gradient(v), big @ v,
                                           rtol=1e-13, atol=1e-13)

    @pytest.mark.parametrize("k_beta", [0, 3])
    def test_eta_matrix_matches_blocks(self, k_beta):
        g = ArealGraph.from_edges(5, [(0, 1), (1, 2), (3, 4)])
        for mode in PenaltyMode:
            pen = assemble_penalty(mode, 0.4, 1.7, k_beta, g, 2)
            m = k_beta + g.n_vertices
            expected = (0.4 * identity_block(pen)
                        + 1.7 * laplacian_block(pen))[:m, :m]
            np.testing.assert_array_equal(pen.eta_matrix().toarray(),
                                          expected)
