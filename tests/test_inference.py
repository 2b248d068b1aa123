"""Observed information, Wald rows, and the p-value convention."""

import numpy as np
import pytest

from conftest import (blocks, dense_fisher_information, dense_hessian,
                      make_instance, spec_for)
from twdglm import likelihood as lik
from twdglm.errors import SingularSystemError
from twdglm.family import Member
from twdglm.graph import lattice_graph
from twdglm.inference import (alpha_summary, fisher_information,
                              p_value_from_z, wald_table)
from twdglm.likelihood import Coefficients, Dataset, hess_mean
from twdglm.links import LinkPair

# (z, p) pairs printed in the reference Wald tables; every
# finite-standard-error row with a distinctive value.
_REFERENCE_PAIRS = [
    (-0.0317, 0.4874),
    (-0.0006, 0.4998),
    (0.0009, 0.4996),
    (0.0262, 0.4895),
    (0.0000, 0.5000),
    (0.0207, 0.4917),
    (-0.2981, 0.3828),
    (-0.1397, 0.4445),
    (0.1307, 0.4480),
    (0.2180, 0.4137),
    (0.1389, 0.4448),
    (0.2518, 0.4006),
    (-2.0783, 0.0188),
    (-1.6254968, 0.0520),
]


class TestPValueConvention:
    def test_table_rows(self):
        assert p_value_from_z(-2.0783) == pytest.approx(0.0188, abs=5e-4)
        assert p_value_from_z(-0.0317) == pytest.approx(0.4874, abs=5e-4)

    def test_zero_statistic(self):
        assert p_value_from_z(0.0) == 0.5

    @pytest.mark.parametrize("z,p", _REFERENCE_PAIRS)
    def test_reference_pairs(self, z, p):
        assert p_value_from_z(z) == pytest.approx(p, abs=5e-4)

    def test_monotone_decreasing_in_magnitude(self):
        zs = np.linspace(0.0, 6.0, 200)
        ps = [p_value_from_z(z) for z in zs]
        assert all(a >= b for a, b in zip(ps, ps[1:]))
        assert all(p_value_from_z(z) == p_value_from_z(-z)
                   for z in (0.3, 1.7, 4.2))


def _plain_normal_data(n=80, k=3, seed=0):
    """Single-vertex Normal data: no spatial confounding, phi = 1."""
    rng = np.random.default_rng(seed)
    g = lattice_graph(1, 1)
    X = np.column_stack([np.ones(n)]
                        + [rng.normal(0, 1, n) for _ in range(k - 1)])
    beta0 = rng.normal(0, 0.5, k)
    y = X @ beta0 + rng.normal(0, 1.0, n)
    data = Dataset(y, np.ones(n), np.zeros(n, dtype=int), X,
                   np.zeros((n, 0)), g)
    theta = Coefficients(beta0, np.zeros(1), np.zeros(0))
    return data, theta


class TestFisherInformation:
    def test_classical_linear_model_block(self):
        data, theta = _plain_normal_data()
        info = fisher_information(data, theta, spec_for(Member.NORMAL),
                                  LinkPair.of("identity", "log"))
        np.testing.assert_allclose(info[0], data.X.T @ data.X,
                                   rtol=1e-12)

    def test_psd_at_minimum(self):
        data, theta, spec, links = make_instance(Member.GAMMA, "log",
                                                 seed=3)
        from twdglm.graph import PenaltyMode, assemble_penalty
        from twdglm.optimizer import FitConfig, fit
        pen = assemble_penalty(PenaltyMode.SPATIAL_ONLY, 0.5, 0.5,
                               data.k_beta, data.graph, data.k_gamma)
        res = fit(data, spec, links, FitConfig(penalty=pen))
        spec_hat = spec.with_p(res.p_hat)
        mean = dense_hessian(hess_mean(data, *blocks(data, res.theta_hat,
                                                     spec_hat, links)))
        assert np.linalg.eigvalsh(mean).min() >= -1e-8
        info = fisher_information(data, res.theta_hat, spec_hat, links)
        assert np.linalg.eigvalsh(info[1]).min() >= -1e-8

    def test_additive_over_rows(self):
        data, theta, spec, links = make_instance(Member.NORMAL, "identity",
                                                 seed=5)
        info = fisher_information(data, theta, spec, links)
        doubled = Dataset(np.tile(data.y, 2), np.tile(data.w, 2),
                          np.tile(data.vertex, 2), np.tile(data.X, (2, 1)),
                          np.tile(data.Z, (2, 1)), data.graph)
        info2 = fisher_information(doubled, theta, spec, links)
        for block, block2 in zip(info, info2):
            np.testing.assert_allclose(block2, 2.0 * block, rtol=1e-9,
                                       atol=1e-9)

    @pytest.mark.parametrize("member", [Member.GAMMA, Member.POISSON,
                                        Member.COMPOUND_POISSON_GAMMA],
                             ids=lambda m: m.value)
    def test_blocks_of_the_dense_information(self, member):
        data, theta, spec, links = make_instance(member, "log", seed=7)
        info = fisher_information(data, theta, spec, links)
        dense = dense_fisher_information(data, theta, spec, links)
        kb, m = data.k_beta, data.k_beta + data.graph.n_vertices
        np.testing.assert_array_equal(info[0], dense[:kb, :kb])
        np.testing.assert_array_equal(info[1], dense[m:, m:])

    @pytest.mark.parametrize("member", [Member.GAMMA, Member.POISSON,
                                        Member.COMPOUND_POISSON_GAMMA],
                             ids=lambda m: m.value)
    def test_one_mean_exponent_pass(self, member, monkeypatch):
        """Both blocks read the mean exponent at the fit from one pass."""
        data, theta, spec, links = make_instance(member, "log", seed=7)
        passes = []
        raw = lik._mean_exponent
        monkeypatch.setattr(lik, "_mean_exponent",
                            lambda *a: passes.append(1) or raw(*a))
        fisher_information(data, theta, spec, links)
        assert len(passes) == 1


class TestWaldTable:
    def test_z_and_pvalue_wiring(self):
        data, theta = _plain_normal_data(seed=2)
        info = fisher_information(data, theta, spec_for(Member.NORMAL),
                                  LinkPair.of("identity", "log"))
        rows = wald_table(theta, info, beta_names=["a", "b", "c"])
        cov = np.linalg.inv(info[0])
        for j, row in enumerate(rows):
            assert row.std_error == pytest.approx(np.sqrt(cov[j, j]))
            assert row.z == pytest.approx(row.estimate / row.std_error)
            assert row.p_value == pytest.approx(p_value_from_z(row.z))
            assert 0.0 <= row.p_value <= 0.5

    def test_singular_block_raises_with_hint(self):
        data, theta = _plain_normal_data(seed=4)
        X = np.column_stack([data.X, data.X[:, 1]])     # exact collinearity
        data2 = Dataset(data.y, data.w, data.vertex, X, data.Z, data.graph)
        theta2 = Coefficients(np.concatenate([theta.beta, [0.0]]),
                              theta.alpha, theta.gamma)
        info = fisher_information(data2, theta2, spec_for(Member.NORMAL),
                                  LinkPair.of("identity", "log"))
        with pytest.raises(SingularSystemError, match="smallest pivot"):
            wald_table(theta2, info)

    def test_alpha_summary(self):
        summ = alpha_summary(np.array([-1.0, 0.0, 1.0, 2.0]))
        assert summ["mean"] == pytest.approx(0.5)
        assert summ["median"] == pytest.approx(0.5)
        assert summ["range"] == pytest.approx(3.0)
        assert summ["sd"] == pytest.approx(np.sqrt(1.25))
