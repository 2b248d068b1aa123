"""Likelihood values and the four partitioned derivative objects."""

import gc
import math
import weakref
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (MEAN_LINKS_BY_MEMBER, blocks, c_order_band_factor,
                      dense_hessian, fd_gradient, fd_jacobian, link_inverse,
                      make_instance, mean_exponent_generic, nll_at,
                      predictors, rel_err, rowmajor_disp_derivatives,
                      rowmajor_hess_mean, spec_for, unheld_dispersion_terms,
                      with_eta, with_gamma)
from twdglm import graph as graph_mod
from twdglm import likelihood as lik
from twdglm.errors import ConfigError, DomainError
from twdglm.family import Approx, FamilySpec, Member, log_density
from twdglm.graph import assemble_penalty, lattice_graph
from twdglm.likelihood import (Coefficients, Dataset, disp_derivatives,
                               dispersion_terms, exponent_terms, grad_disp,
                               grad_mean, hess_disp, hess_mean)
from twdglm.likelihood import _mean_exponent
from twdglm.links import LinkPair, link_eval
from twdglm.optimizer import FitConfig, fit
from twdglm.simgen import make_dataset

DISP_MEMBERS = [Member.NORMAL, Member.GAMMA, Member.INVERSE_GAUSSIAN,
                Member.COMPOUND_POISSON_GAMMA]

# every permitted (member, mean link, dispersion link, normalizer, unit
# exposure): Poisson has no dispersion model, and only the compound
# member reads the normalizer
EVERY_MODEL = [
    (member, mean_link, disp_link, approx, unit)
    for member, mean_links in MEAN_LINKS_BY_MEMBER.items()
    for mean_link in mean_links
    for disp_link in (("log",) if member is Member.POISSON
                      else ("log", "identity"))
    for approx in (list(Approx) if member is Member.COMPOUND_POISSON_GAMMA
                   else [Approx.SERIES])
    for unit in (True, False)]


def _nll_eta(data, theta, spec, links):
    return lambda eta: nll_at(data, with_eta(theta, eta), spec, links)


def _nll_gamma(data, theta, spec, links):
    return lambda ga: nll_at(data, with_gamma(theta, ga), spec, links)


class TestDatasetChecks:
    """Each malformed input to ``Dataset`` raises ConfigError with its
    own message."""

    @staticmethod
    def _build(**change):
        g = lattice_graph(1, 4)
        parts = dict(y=[1.0, 2.0, 3.0], w=[1.0, 1.0, 1.0], vertex=[0, 1, 3],
                     X=np.ones((3, 2)), Z=np.ones((3, 1)), graph=g)
        parts.update(change)
        return Dataset(**parts)

    @pytest.mark.parametrize("change, message", [
        (dict(X=np.ones((2, 2))),
         "design matrices must have one row per observation"),
        (dict(Z=np.ones((4, 1))),
         "design matrices must have one row per observation"),
        (dict(w=[1.0, 1.0]), "y, w and vertex must have equal length"),
        (dict(vertex=[0, 1]), "y, w and vertex must have equal length"),
        (dict(w=[1.0, 0.0, 1.0]), "exposures must be strictly positive"),
        (dict(vertex=[0, 1, 4]), "vertex index out of range for the graph"),
        (dict(vertex=[0, -1, 2]), "vertex index out of range for the graph"),
        (dict(X=np.array([[1.0, np.nan]] * 3)), "non-finite entries in X"),
        (dict(Z=np.array([[np.inf]] * 3)), "non-finite entries in Z"),
        (dict(y=[1.0, np.nan, 3.0]), "non-finite responses"),
    ], ids=["X-rows", "Z-rows", "w-length", "vertex-length", "exposure",
            "vertex-high", "vertex-negative", "X-nan", "Z-inf", "y-nan"])
    def test_rejects(self, change, message):
        self._build()       # the unchanged parts are a valid dataset
        with pytest.raises(ConfigError) as err:
            self._build(**change)
        assert str(err.value) == message


class TestValues:
    def test_empty_dataset(self):
        g = lattice_graph(1, 4)
        data = Dataset(np.zeros(0), np.zeros(0), np.zeros(0, dtype=int),
                       np.zeros((0, 2)), np.zeros((0, 1)), g)
        theta = Coefficients(np.zeros(2), np.zeros(4), np.zeros(1))
        assert nll_at(data, theta, spec_for(Member.NORMAL),
                      LinkPair.of("identity", "log")) == 0.0

    def test_single_standard_normal_row(self):
        g = lattice_graph(1, 4)
        data = Dataset([0.0], [1.0], [0], np.ones((1, 1)), np.ones((1, 1)),
                       g)
        theta = Coefficients([0.0], np.zeros(4), [0.0])
        got = nll_at(data, theta, spec_for(Member.NORMAL),
                     LinkPair.of("identity", "log"))
        assert got == pytest.approx(0.5 * math.log(2.0 * math.pi))

    def test_single_cpg_zero_row(self):
        g = lattice_graph(1, 4)
        data = Dataset([0.0], [1.0], [0], np.ones((1, 1)), np.ones((1, 1)),
                       g)
        theta = Coefficients([0.0], np.zeros(4), [0.0])
        got = nll_at(data, theta, FamilySpec.compound_poisson_gamma(1.5),
                     LinkPair.of("log", "log"))
        assert got == pytest.approx(2.0)

    def test_matches_rowwise_log_density(self):
        """The fit's likelihood is minus the row sum of the public
        density, for every permitted (member, mean link), dispersion
        link and normalizer, with unit and non-unit exposure. The
        exposure rule: y/w enters with dispersion phi/w, and a Poisson
        row is the count y ~ Poisson(w*mu)."""
        for member, mean_link, disp_link, approx, unit in EVERY_MODEL:
            data, theta, spec, links = make_instance(
                member, mean_link, disp_link, seed=4, approx=approx)
            rng = np.random.default_rng(9)
            poisson = member is Member.POISSON
            if unit:
                w = np.ones(data.n_rows)
            elif poisson:   # y/w stays a count under an integer exposure
                w = rng.integers(1, 4, data.n_rows).astype(float)
            else:
                w = rng.uniform(0.5, 2.0, data.n_rows)
            data_w = Dataset(data.y * w, w, data.vertex, data.X, data.Z,
                             data.graph)
            t, s = predictors(data_w, theta)
            mu = link_eval(links.mean, t)
            rows = (log_density(spec, data_w.y, w * mu) if poisson
                    else log_density(spec, data_w.ystar, mu,
                                     link_eval(links.disp, s) / w))
            assert nll_at(data_w, theta, spec, links) == \
                pytest.approx(-np.sum(rows), rel=1e-12), \
                (member, mean_link, disp_link, approx, unit)

    @pytest.mark.parametrize("disp_link", ["log", "identity"])
    @pytest.mark.parametrize("approx", list(Approx))
    def test_infinite_dispersion_is_domain_error(self, approx, disp_link):
        """z'gamma = 1e300 * 1e10 overflows, and so does h2."""
        g = lattice_graph(1, 2)
        data = Dataset([1.0, 0.0], [1.0, 1.0], [0, 1], np.ones((2, 1)),
                       np.full((2, 1), 1e300), g)
        theta = Coefficients([0.0], np.zeros(2), [1e10])
        spec = FamilySpec.compound_poisson_gamma(1.5, approx=approx)
        with np.errstate(over="ignore"):
            with pytest.raises(DomainError):
                nll_at(data, theta, spec, LinkPair.of("log", disp_link))

    def test_reports_offending_row(self):
        from twdglm.errors import NonFiniteError
        g = lattice_graph(1, 2)
        data = Dataset([1.0, 1.0], [1.0, 1.0], [0, 1],
                       np.array([[1.0], [3000.0]]), np.ones((2, 1)), g)
        theta = Coefficients([2.0], np.zeros(2), [0.0])
        with pytest.raises(NonFiniteError) as err:
            nll_at(data, theta, FamilySpec.compound_poisson_gamma(
                1.5, approx=Approx.SADDLEPOINT), LinkPair.of("log", "log"))
        assert err.value.row == 1


class TestGradMean:
    def test_dataless_vertex_slot_is_zero(self):
        data, theta, spec, links = make_instance(Member.NORMAL, "identity",
                                                 seed=1)
        data = Dataset(data.y, data.w, np.zeros(data.n_rows, dtype=int),
                       data.X, data.Z, data.graph)
        g = grad_mean(data, *blocks(data, theta, spec, links))
        np.testing.assert_array_equal(g[data.k_beta + 1:], 0.0)

    def test_single_normal_row(self):
        g = lattice_graph(1, 2)
        data = Dataset([1.0], [1.0], [0], np.ones((1, 1)), np.ones((1, 1)),
                       g)
        theta = Coefficients([0.0], np.zeros(2), [0.0])
        grad = grad_mean(data, *blocks(data, theta, spec_for(Member.NORMAL),
                                       LinkPair.of("identity", "log")))
        assert grad[0] == pytest.approx(-1.0)

    @pytest.mark.parametrize("member", list(Member),
                             ids=lambda m: m.value)
    def test_matches_finite_differences(self, member):
        for mean_link in MEAN_LINKS_BY_MEMBER[member]:
            for seed in (0, 1):
                data, theta, spec, links = make_instance(member, mean_link,
                                                         seed=seed)
                g = grad_mean(data, *blocks(data, theta, spec, links))
                fd = fd_gradient(_nll_eta(data, theta, spec, links),
                                 theta.eta)
                assert rel_err(g, fd) < 1e-5, (member, mean_link, seed)


class TestHessMean:
    def test_alpha_block_is_diagonal(self):
        data, theta, spec, links = make_instance(
            Member.COMPOUND_POISSON_GAMMA, "log", seed=3)
        h = hess_mean(data, *blocks(data, theta, spec, links))
        dense = dense_hessian(h)
        kb = data.k_beta
        alpha_block = dense[kb:, kb:]
        np.testing.assert_array_equal(
            alpha_block - np.diag(np.diag(alpha_block)), 0.0)

    def test_normal_identity_gram_matrix(self):
        data, theta, spec, links = make_instance(Member.NORMAL, "identity",
                                                 k_gamma=0, seed=5)
        h = dense_hessian(hess_mean(data, *blocks(data, theta, spec,
                                                  links)))
        design = np.zeros((data.n_rows, data.k_beta + 5))
        design[:, :data.k_beta] = data.X
        design[np.arange(data.n_rows), data.k_beta + data.vertex] = 1.0
        np.testing.assert_allclose(h, design.T @ design, rtol=1e-12)

    @pytest.mark.parametrize("member", list(Member),
                             ids=lambda m: m.value)
    def test_matches_finite_differences_of_gradient(self, member):
        mean_link = MEAN_LINKS_BY_MEMBER[member][0]
        data, theta, spec, links = make_instance(member, mean_link, seed=2)
        h = dense_hessian(hess_mean(data, *blocks(data, theta, spec,
                                                  links)))

        def grad_at(eta):
            return grad_mean(data, *blocks(data, with_eta(theta, eta),
                                           spec, links))

        fd = fd_jacobian(grad_at, theta.eta)
        assert rel_err(h, fd, floor=1e-6) < 1e-4


class TestDispDerivatives:
    def test_poisson_rejected(self):
        data, theta, spec, links = make_instance(Member.POISSON, "log",
                                                 seed=0)
        with pytest.raises(ConfigError, match="constant dispersion"):
            grad_disp(data, *blocks(data, theta, spec, links))

    @pytest.mark.parametrize("member", DISP_MEMBERS,
                             ids=lambda m: m.value)
    @pytest.mark.parametrize("disp_link", ["log", "identity"])
    def test_gradient_matches_finite_differences(self, member, disp_link):
        mean_link = MEAN_LINKS_BY_MEMBER[member][0]
        for seed in (0, 1):
            data, theta, spec, links = make_instance(
                member, mean_link, disp_link=disp_link, seed=seed)
            g = grad_disp(data, *blocks(data, theta, spec, links))
            fd = fd_gradient(_nll_gamma(data, theta, spec, links),
                             theta.gamma)
            assert rel_err(g, fd) < 1e-5, (member, disp_link, seed)

    @pytest.mark.parametrize("member", DISP_MEMBERS,
                             ids=lambda m: m.value)
    def test_hessian_matches_finite_differences(self, member):
        mean_link = MEAN_LINKS_BY_MEMBER[member][0]
        data, theta, spec, links = make_instance(member, mean_link, seed=1)
        h = hess_disp(data, *blocks(data, theta, spec, links))
        np.testing.assert_array_equal(h, h.T)

        def grad_at(ga):
            return grad_disp(data, *blocks(data, with_gamma(theta, ga),
                                           spec, links))

        fd = fd_jacobian(grad_at, theta.gamma)
        assert rel_err(h, fd, floor=1e-6) < 1e-4

    def test_scalar_dispersion_second_derivative(self):
        data, theta, spec, links = make_instance(Member.NORMAL, "identity",
                                                 k_gamma=1, seed=8)
        h = hess_disp(data, *blocks(data, theta, spec, links))
        assert h.shape == (1, 1)
        fd = fd_jacobian(
            lambda ga: grad_disp(data, *blocks(data, with_gamma(theta, ga),
                                               spec, links)),
            theta.gamma)
        assert rel_err(h, fd, floor=1e-6) < 1e-4

    def test_no_dispersion_columns(self):
        """A dispersion design with no columns has an empty gradient and
        Hessian."""
        data, theta, spec, links = make_instance(Member.GAMMA, "log",
                                                 k_gamma=0, seed=1)
        g, h = disp_derivatives(data, *blocks(data, theta, spec, links))
        assert g.shape == (0,) and h.shape == (0, 0)

    def test_series_and_saddlepoint_agree_at_small_dispersion(self):
        # data drawn at phi = 0.1 (where the saddlepoint is accurate),
        # scores compared away from the root so they are O(n)
        from twdglm.simgen import sample_cpg
        data, theta, spec, links = make_instance(
            Member.COMPOUND_POISSON_GAMMA, "log", n=200, seed=6)
        gamma_gen = np.zeros_like(theta.gamma)
        gamma_gen[0] = math.log(0.1)
        theta = with_gamma(theta, gamma_gen)
        t, s = predictors(data, theta)
        y = sample_cpg(np.exp(t), np.exp(s), 1.5, seed=13)
        data = Dataset(y, data.w, data.vertex, data.X, data.Z, data.graph)
        gamma_eval = gamma_gen.copy()
        gamma_eval[0] -= 0.4
        theta = with_gamma(theta, gamma_eval)
        spec_saddle = FamilySpec.compound_poisson_gamma(
            1.5, approx=Approx.SADDLEPOINT)
        g_series = grad_disp(data, *blocks(data, theta, spec, links))
        g_saddle = grad_disp(data, *blocks(data, theta, spec_saddle, links))
        assert np.max(np.abs(g_series - g_saddle)
                      / (1e-8 + np.abs(g_series))) < 0.05


# every member/mean-link pair with a dispersion model, the compound
# member under both normalizers
CROSS_CASES = [(m, link, a) for m in DISP_MEMBERS
               for link in MEAN_LINKS_BY_MEMBER[m]
               for a in (list(Approx) if m is Member.COMPOUND_POISSON_GAMMA
                         else [Approx.SERIES])]


class TestHessCross:
    @pytest.mark.parametrize(
        "member, mean_link, approx", CROSS_CASES,
        ids=lambda v: v.value if hasattr(v, "value") else v)
    @pytest.mark.parametrize("disp_link", ["log", "identity"])
    def test_matches_finite_differences_of_mean_gradient(
            self, member, mean_link, approx, disp_link):
        """h_gb and h_ga are the gamma-derivatives of grad_mean's beta
        and alpha parts; the lattice has a vertex without rows, whose
        column is zero."""
        data, theta, spec, links = make_instance(
            member, mean_link, disp_link=disp_link, n=40, cols=6, seed=4,
            approx=approx)
        data = Dataset(data.y, data.w, data.vertex % 5, data.X, data.Z,
                       data.graph)
        h_gb, h_ga = lik.hess_cross(data, *blocks(data, theta, spec, links))
        assert h_gb.shape == (data.k_gamma, data.k_beta)
        assert h_ga.shape == (data.k_gamma, data.graph.n_vertices)
        assert np.all(h_ga[:, 5] == 0.0)

        def grad_at(ga):
            return grad_mean(data, *blocks(data, with_gamma(theta, ga),
                                           spec, links))

        fd = fd_jacobian(grad_at, theta.gamma)
        kb = data.k_beta
        assert rel_err(h_gb, fd[:kb].T, floor=1e-6) < 1e-4
        assert rel_err(h_ga, fd[kb:].T, floor=1e-6) < 1e-4


class TestClosedFormVsGeneric:
    @pytest.mark.parametrize("member", list(Member),
                             ids=lambda m: m.value)
    def test_all_link_combinations(self, member):
        for mean_link in MEAN_LINKS_BY_MEMBER[member]:
            data, theta, spec, links = make_instance(member, mean_link,
                                                     seed=9)
            t, _ = predictors(data, theta)
            fast = _mean_exponent(data, spec, links, t)
            generic = mean_exponent_generic(data, spec, links.mean, t)
            for a, b in zip(fast, generic):
                np.testing.assert_allclose(a, b, rtol=1e-10, atol=1e-14,
                                           err_msg=f"{member} {mean_link}")


@st.composite
def held_row_instances(draw, shapes=st.just((50, 3, 2))):
    """A random member (the compound one under either normalizer), mean
    and dispersion links, exposures and a 2x4 lattice whose vertices
    past the first ``used`` have no rows; (rows, k_beta, k_gamma) are
    drawn from ``shapes``. Poisson keeps the log dispersion link: its
    fixed dispersion is h2(0), which the identity link puts at 0."""
    member = draw(st.sampled_from(list(Member)))
    approx = draw(st.sampled_from(list(Approx)))
    mean_link = draw(st.sampled_from(MEAN_LINKS_BY_MEMBER[member]))
    disp_link = "log" if member is Member.POISSON else draw(
        st.sampled_from(["log", "identity"]))
    seed = draw(st.integers(0, 2 ** 16))
    n, k_beta, k_gamma = draw(shapes)
    data, theta, spec, links = make_instance(
        member, mean_link, disp_link=disp_link, n=n, rows=2, cols=4,
        k_beta=k_beta, k_gamma=k_gamma, seed=seed, approx=approx)
    used = draw(st.integers(1, data.graph.n_vertices))
    w = np.random.default_rng([seed, 1]).uniform(0.5, 2.0, data.n_rows)
    data = Dataset(data.ystar * w, w, data.vertex % used, data.X, data.Z,
                   data.graph)
    return data, theta, spec, links


class TestHeldRows:
    """The two blocks a fit holds: each depends only on its own side of
    theta, so a block built at one theta serves every theta that shares
    that side; the rows of u equal w/h2 and its derivatives through the
    dispersion link; and the likelihood and its derivatives summed over
    the blocks agree with the oracles."""

    @settings(max_examples=200)
    @given(held_row_instances())
    def test_held_rows_match_fresh_and_oracles(self, instance):
        data, theta, spec, links = instance
        terms, exponent = blocks(data, theta, spec, links)
        other = Coefficients(theta.beta + 0.01, theta.alpha - 0.01,
                             theta.gamma * 1.01)
        np.testing.assert_array_equal(
            terms, dispersion_terms(data, with_eta(theta, other.eta), spec,
                                    links))
        np.testing.assert_array_equal(
            exponent, exponent_terms(data, with_gamma(theta, other.gamma),
                                     spec, links))

        s = predictors(data, theta)[1]
        h2, d1, d2 = (link_inverse(links.disp, s, k) for k in range(3))
        u_rows = (data.w / h2, -data.w * d1 / h2 ** 2,
                  data.w * (2.0 * d1 ** 2 / h2 ** 3 - d2 / h2 ** 2))
        for got, want in zip(terms[1::2], u_rows):
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0)
        assert len(terms) == (2 if spec.member is Member.POISSON else 6)

        t = predictors(data, theta)[0]
        for got, want in zip(exponent, mean_exponent_generic(
                data, spec, links.mean, t)):
            np.testing.assert_allclose(got, want, rtol=1e-10, atol=1e-14)
        assert rel_err(grad_mean(data, terms, exponent),
                       fd_gradient(_nll_eta(data, theta, spec, links),
                                   theta.eta)) < 1e-5
        assert rel_err(dense_hessian(hess_mean(data, terms, exponent)),
                       fd_jacobian(lambda eta: grad_mean(data, *blocks(
                           data, with_eta(theta, eta), spec, links)),
                           theta.eta), floor=1e-6) < 1e-4

        if spec.member is Member.POISSON:
            return
        g, h = disp_derivatives(data, terms, exponent)
        np.testing.assert_array_equal(g, grad_disp(data, terms, exponent))
        np.testing.assert_array_equal(h, hess_disp(data, terms, exponent))
        assert rel_err(g, fd_gradient(_nll_gamma(data, theta, spec, links),
                                      theta.gamma)) < 1e-5
        assert rel_err(h, fd_jacobian(
            lambda ga: grad_disp(data, *blocks(data, with_gamma(theta, ga),
                                               spec, links)),
            theta.gamma), floor=1e-6) < 1e-4


class TestHeldLayouts:
    """The kernels that read the dataset's held arrays (the transposes
    Xt and Zt, log w and the saddlepoint rows) add the same terms in the
    same order as the kernels that rebuilt them on every call."""

    @settings(max_examples=200)
    @given(held_row_instances(st.tuples(st.sampled_from([1, 7, 50, 3000]),
                                        st.integers(1, 6),
                                        st.integers(1, 6))))
    def test_kernels_match_unheld_oracles_exactly(self, instance):
        data, theta, spec, links = instance
        other = with_gamma(theta, theta.gamma * 0.9)
        # the second call reads the rows the first one held
        for at in (theta, other):
            terms, exponent = blocks(data, at, spec, links)
            assert np.array_equal(
                terms, unheld_dispersion_terms(data, at, spec, links))
            got, want = (hess_mean(data, terms, exponent),
                         rowmajor_hess_mean(data, terms, exponent))
            for name in ("h_bb", "h_ba", "h_aa_diag"):
                assert np.array_equal(getattr(got, name),
                                      getattr(want, name)), name
            if spec.member is not Member.POISSON:
                for a, b in zip(disp_derivatives(data, terms, exponent),
                                rowmajor_disp_derivatives(data, terms,
                                                          exponent)):
                    assert np.array_equal(a, b)

    def test_rows_of_one_spec_at_a_time(self):
        data, theta, _, links = make_instance(
            Member.COMPOUND_POISSON_GAMMA, "log", approx=Approx.SADDLEPOINT)
        at13, at15 = (FamilySpec.compound_poisson_gamma(
            p, approx=Approx.SADDLEPOINT) for p in (1.3, 1.5))
        dispersion_terms(data, theta, at13, links)
        gone = [weakref.ref(row) for row in data.saddle_rows(at13)]
        dispersion_terms(data, theta, at15, links)
        gc.collect()
        assert all(ref() is None for ref in gone)
        held = data.saddle_rows(at15)
        for a, b in zip(held, lik._saddle_rows(at15, data.ystar)):
            assert np.array_equal(a, b)
        assert all(a is b for a, b in zip(held, data.saddle_rows(at15)))

    def test_subset_builds_its_own(self):
        data, theta, spec, links = make_instance(
            Member.COMPOUND_POISSON_GAMMA, "log", approx=Approx.SADDLEPOINT)
        w = np.random.default_rng(5).uniform(0.5, 2.0, data.n_rows)
        data = Dataset(data.y * w, w, data.vertex, data.X, data.Z,
                       data.graph)
        blocks(data, theta, spec, links)
        parent = (data.Xt, data.Zt, data.log_w, *data.saddle_rows(spec))
        for idx in (np.arange(data.n_rows), np.arange(0, data.n_rows, 3)):
            sub = data.subset(idx)
            terms, exponent = blocks(sub, theta, spec, links)
            held = (sub.Xt, sub.Zt, sub.log_w, *sub.saddle_rows(spec))
            want = (data.X[idx].T, data.Z[idx].T, np.log(w[idx]),
                    *lik._saddle_rows(spec, sub.ystar))
            for mine, theirs, fresh in zip(held, parent, want):
                assert not np.shares_memory(mine, theirs)
                assert np.array_equal(mine, fresh)
            assert np.array_equal(
                terms, unheld_dispersion_terms(sub, theta, spec, links))
            assert np.array_equal(
                hess_mean(sub, terms, exponent).h_bb,
                rowmajor_hess_mean(sub, terms, exponent).h_bb)

    def test_subset_holds_its_own_positive_rows(self):
        """The series normalizer's rows of a subset are built from that
        subset, share no memory with the parent's and give the block
        that the unheld kernels give."""
        data, theta, spec, links = make_instance(
            Member.COMPOUND_POISSON_GAMMA, "log", n=300, approx=Approx.SERIES)
        w = np.random.default_rng(6).uniform(0.5, 2.0, data.n_rows)
        data = Dataset(data.y * w, w, data.vertex, data.X, data.Z,
                       data.graph)
        blocks(data, theta, spec, links)
        parent = data.positive_rows
        assert parent[0].size < data.n_rows  # the instance has zero rows
        for idx in (np.arange(data.n_rows), np.arange(1, data.n_rows, 3)):
            sub = data.subset(idx)
            terms, _ = blocks(sub, theta, spec, links)
            held = sub.positive_rows
            rows = np.flatnonzero(sub.ystar > 0)
            for mine, theirs, fresh in zip(
                    held, parent, (rows, sub.ystar[rows], w[idx][rows])):
                assert not np.shares_memory(mine, theirs)
                assert np.array_equal(mine, fresh)
            assert sub.positive_rows is held
            assert np.array_equal(
                terms, unheld_dispersion_terms(sub, theta, spec, links))

    def test_series_fit_matches_unheld_fit_exactly(self):
        """A series fit over a 19-point index grid, whose passes read the
        positive rows the dataset holds, equals bit for bit the fit whose
        dispersion kernel selects them afresh on each call."""
        gen = FamilySpec.compound_poisson_gamma(1.5)
        data, _ = make_dataset(3000, 5, 5, "smooth", gen, 0.3, seed=4)
        links = LinkPair.of("log", "log")
        config = FitConfig(
            penalty=assemble_penalty("spatial", 1.0, 1.0, data.k_beta,
                                     data.graph, data.k_gamma),
            p_grid=np.round(np.linspace(1.05, 1.95, 19), 10))

        def run():
            return fit(data.subset(np.arange(data.n_rows)), gen, links,
                       config)

        held = run()
        with mock.patch.object(lik, "dispersion_terms",
                               side_effect=unheld_dispersion_terms) as oracle:
            unheld = run()
        assert oracle.call_count >= held.iters
        assert held.p_hat == unheld.p_hat and held.iters == unheld.iters
        assert np.array_equal(held.objective_trace, unheld.objective_trace)
        assert np.array_equal(held.theta_hat.as_vector(),
                              unheld.theta_hat.as_vector())

    def test_index_walk_fit_matches_unheld_fit_exactly(self):
        """A saddlepoint fit over a 19-point index grid, which rebuilds
        the held rows at each p it visits, equals bit for bit the fit
        whose kernels rebuild every row on each call and whose mean and
        joint steps factor a C-ordered band by scipy's wrapper. Each
        fit runs on its own copy of the dataset, so the second holds
        nothing the first built."""
        gen = FamilySpec.compound_poisson_gamma(1.5)
        data, _ = make_dataset(3000, 5, 5, "smooth", gen, 0.15, seed=3)
        # three mean and two dispersion columns: Gram products of those
        # widths round differently with the operands' roles swapped
        data = Dataset(data.y, data.w, data.vertex, data.X[:, :3],
                       data.Z[:, :2], data.graph)
        spec = FamilySpec.compound_poisson_gamma(1.5,
                                                 approx=Approx.SADDLEPOINT)
        links = LinkPair.of("log", "log")
        config = FitConfig(
            penalty=assemble_penalty("spatial", 1.0, 1.0, data.k_beta,
                                     data.graph, data.k_gamma),
            p_grid=np.round(np.linspace(1.05, 1.95, 19), 10))

        def run():
            return fit(data.subset(np.arange(data.n_rows)), spec, links,
                       config)

        held = run()
        with mock.patch.object(lik, "dispersion_terms",
                               unheld_dispersion_terms), \
                mock.patch.object(lik, "hess_mean", rowmajor_hess_mean), \
                mock.patch.object(lik, "disp_derivatives",
                                  rowmajor_disp_derivatives), \
                mock.patch.object(graph_mod.SpatialBand, "factor",
                                  autospec=True,
                                  side_effect=c_order_band_factor) as factor:
            unheld = run()
        assert factor.call_count >= held.iters
        assert held.p_hat == unheld.p_hat and held.iters == unheld.iters
        assert np.array_equal(held.objective_trace, unheld.objective_trace)
        assert np.array_equal(held.theta_hat.as_vector(),
                              unheld.theta_hat.as_vector())
