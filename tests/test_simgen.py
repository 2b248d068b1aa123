"""Synthetic patterns, covariates, the compound sampler, calibration."""

import math

import numpy as np
import pytest

from twdglm.errors import CalibrationError, ConfigError
from twdglm.family import FamilySpec
from twdglm.simgen import (BETA_SLOPES, GP_SIGMA2, PatternKind, PatternSpec,
                           SimConfig, draw_gp, gen_covariates, gp_covariance,
                           make_dataset, make_pattern, sample_cpg, sse)


class TestPatterns:
    def test_block_has_exactly_two_levels(self):
        alpha = make_pattern(PatternSpec(PatternKind.BLOCK, 4, 4,
                                         amplitude=1.0))
        assert sorted(set(alpha.tolist())) == [-1.0, 1.0]

    def test_smooth_spans_amplitude_range(self):
        alpha = make_pattern(PatternSpec(PatternKind.SMOOTH, 5, 5,
                                         amplitude=2.0))
        assert alpha.min() == -2.0 and alpha.max() == 2.0
        # constant along each row of the lattice
        assert np.ptp(alpha.reshape(5, 5), axis=1).max() == 0.0

    def test_hotspot_levels(self):
        alpha = make_pattern(PatternSpec(PatternKind.HOTSPOT, 5, 5,
                                         amplitude=1.0))
        assert set(np.unique(alpha)) == {-0.5, 1.0}

    def test_gp_centered_to_zero_mean(self):
        alpha = make_pattern(PatternSpec(PatternKind.STRUCTURED_GP, 4, 4,
                                         seed=3))
        assert abs(alpha.mean()) < 1e-12

    def test_gp_draw_covariance_matches_kernel(self):
        # Monte-Carlo covariance oracle over 2,000 draws; entries whose
        # kernel value is a meaningful fraction of the sill (weaker ones
        # drown in sampling noise at this draw count)
        spec = PatternSpec(PatternKind.STRUCTURED_GP, 3, 3, seed=0)
        rng = np.random.default_rng(9)
        draws = np.array([draw_gp(spec, rng) for _ in range(2000)])
        emp = np.cov(draws.T, bias=True)
        kernel = gp_covariance(spec)
        mask = np.abs(kernel) > 0.3 * GP_SIGMA2
        rel = np.abs(emp[mask] - kernel[mask]) / np.abs(kernel[mask])
        assert rel.max() < 0.10

    def test_lattice_minimum_size(self):
        with pytest.raises(ConfigError):
            PatternSpec(PatternKind.BLOCK, 1, 3)


class TestCovariates:
    def test_supports(self):
        X, Z = gen_covariates(500, seed=0)
        assert set(np.unique(X[:, 0])).issubset({0.0, 1.0})
        assert set(np.unique(X[:, 1])).issubset(set(map(float, range(5))))

    def test_binomial_mean(self):
        n = 100_000
        X, _ = gen_covariates(n, seed=1)
        se = math.sqrt(0.25 / n)
        assert abs(X[:, 0].mean() - 0.5) < 3 * se

    def test_mean_and_dispersion_draws_independent(self):
        n = 100_000
        X, Z = gen_covariates(n, seed=2)
        for j in range(4):
            r = np.corrcoef(X[:, j], Z[:, j])[0, 1]
            assert abs(r) < 3.0 / math.sqrt(n)

    def test_normal_columns_have_variance_point_one(self):
        X, _ = gen_covariates(100_000, seed=3)
        assert X[:, 2].var() == pytest.approx(0.1, rel=0.05)


class TestSampler:
    def test_zero_mass(self):
        n = 1_000_000
        y = sample_cpg(np.ones(n), 1.0, 1.5, seed=4)
        p0 = math.exp(-2.0)     # exp(-mu**(2-p)/(phi*(2-p)))
        se = math.sqrt(p0 * (1 - p0) / n)
        assert abs(np.mean(y == 0.0) - p0) < 3 * se

    def test_first_two_moments(self):
        n = 1_000_000
        mu, phi, p = 1.3, 0.8, 1.5
        y = sample_cpg(np.full(n, mu), phi, p, seed=5)
        assert abs(y.mean() - mu) / mu < 0.02
        assert abs(y.var() - phi * mu ** p) / (phi * mu ** p) < 0.05

    def test_scalar_form_and_determinism(self):
        a = sample_cpg(1.0, 1.0, 1.5, seed=6)
        b = sample_cpg(1.0, 1.0, 1.5, seed=6)
        c = sample_cpg(1.0, 1.0, 1.5, seed=7)
        assert a == b
        assert isinstance(a, float)
        assert a != c or a == 0.0

    def test_parameter_validation(self):
        with pytest.raises(ConfigError):
            sample_cpg(1.0, 1.0, 2.5, seed=0)
        with pytest.raises(ConfigError):
            sample_cpg(-1.0, 1.0, 1.5, seed=0)


class TestMakeDataset:
    def test_zero_proportion_calibrated(self):
        spec = FamilySpec.compound_poisson_gamma(1.5)
        data, oracle = make_dataset(10_000, 5, 5, "block", spec, 0.15,
                                    seed=0)
        assert abs(np.mean(data.y == 0.0) - 0.15) <= 0.01

    def test_every_vertex_covered(self):
        spec = FamilySpec.compound_poisson_gamma(1.5)
        data, _ = make_dataset(10_000, 5, 5, "smooth", spec, 0.3, seed=1)
        assert np.bincount(data.vertex, minlength=25).min() >= 1

    def test_oracle_blocks_recorded(self):
        spec = FamilySpec.compound_poisson_gamma(1.5)
        sim = SimConfig()
        data, oracle = make_dataset(2_000, 4, 4, "block", spec, 0.2, seed=2,
                                    sim=sim)
        np.testing.assert_array_equal(oracle.beta[1:], BETA_SLOPES)
        np.testing.assert_array_equal(oracle.gamma, sim.gamma0)
        assert oracle.alpha.size == 16
        assert sse(oracle, oracle).total == 0.0

    def test_unreachable_target_raises(self):
        # even at the lowest intercept, -INTERCEPT_BOUND, the mean zero
        # probability stays below a share this close to 1
        spec = FamilySpec.compound_poisson_gamma(1.5)
        with pytest.raises(CalibrationError, match="unreachable"):
            make_dataset(500, 3, 3, "block", spec, 0.999999, seed=3)

    def test_seed_determinism(self):
        spec = FamilySpec.compound_poisson_gamma(1.5)
        d1, o1 = make_dataset(800, 3, 3, "hotspot", spec, 0.25, seed=9)
        d2, o2 = make_dataset(800, 3, 3, "hotspot", spec, 0.25, seed=9)
        d3, _ = make_dataset(800, 3, 3, "hotspot", spec, 0.25, seed=10)
        np.testing.assert_array_equal(d1.y, d2.y)
        np.testing.assert_array_equal(d1.X, d2.X)
        assert not np.array_equal(d1.y, d3.y)


class TestSse:
    def test_single_coordinate_perturbation(self):
        from twdglm.likelihood import Coefficients
        a = Coefficients(np.zeros(2), np.zeros(5), np.zeros(2))
        b = Coefficients(np.zeros(2), np.eye(5)[0], np.zeros(2))
        parts = sse(a, b)
        assert parts.spatial_part == 1.0
        assert parts.total == 1.0

    def test_total_is_sum_of_parts(self):
        from twdglm.likelihood import Coefficients
        rng = np.random.default_rng(3)
        a = Coefficients(rng.normal(0, 1, 3), rng.normal(0, 1, 6),
                         rng.normal(0, 1, 2))
        b = Coefficients(rng.normal(0, 1, 3), rng.normal(0, 1, 6),
                         rng.normal(0, 1, 2))
        parts = sse(a, b)
        assert parts.total == parts.mean_part + parts.spatial_part \
            + parts.disp_part

    def test_dimension_mismatch(self):
        from twdglm.likelihood import Coefficients
        a = Coefficients(np.zeros(2), np.zeros(5), np.zeros(2))
        b = Coefficients(np.zeros(3), np.zeros(5), np.zeros(2))
        with pytest.raises(ConfigError):
            sse(a, b)
