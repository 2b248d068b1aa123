"""Link inverses, derivatives, and the canonical-parameter composition."""

import math

import numpy as np
import pytest

from conftest import link_inverse, natural_from_predictor, spec_for
from twdglm.errors import ConfigError, DomainError
from twdglm.family import FamilySpec, Member, validate_links
from twdglm.links import LinkKind, LinkPair, link_apply, link_eval

ALL_KINDS = list(LinkKind)


def _valid_t(kind: LinkKind, rng: np.random.Generator, size: int):
    if kind in (LinkKind.SQRT, LinkKind.INVERSE, LinkKind.INVERSE_SQUARED):
        return rng.uniform(0.2, 5.0, size)
    return rng.uniform(-3.0, 3.0, size)


class TestLinkEval:
    def test_log_at_zero(self):
        assert link_eval(LinkKind.LOG, 0.0) == 1.0

    def test_log_second_derivative(self):
        # central finite differences of h as the oracle
        t, h = 1.3, 1e-5
        fd = (link_eval(LinkKind.LOG, t + h)
              - 2 * link_eval(LinkKind.LOG, t)
              + link_eval(LinkKind.LOG, t - h)) / h ** 2
        assert link_inverse(LinkKind.LOG, t, 2) == pytest.approx(fd, rel=1e-5)
        assert link_inverse(LinkKind.LOG, t, 2) == \
            pytest.approx(math.exp(1.3))

    def test_inverse_first_derivative(self):
        t, h = 2.0, 1e-6
        fd = (link_eval(LinkKind.INVERSE, t + h)
              - link_eval(LinkKind.INVERSE, t - h)) / (2 * h)
        assert link_inverse(LinkKind.INVERSE, t, 1) == pytest.approx(fd)
        assert link_inverse(LinkKind.INVERSE, t, 1) == -0.25

    @pytest.mark.parametrize("kind", ALL_KINDS, ids=lambda k: k.value)
    def test_round_trip(self, kind):
        rng = np.random.default_rng(11)
        t = _valid_t(kind, rng, 100)
        back = link_apply(kind, link_eval(kind, t))
        np.testing.assert_allclose(back, t, rtol=1e-12)

    @pytest.mark.parametrize("kind", ALL_KINDS, ids=lambda k: k.value)
    @pytest.mark.parametrize("order", [1, 2])
    def test_derivatives_match_finite_differences(self, kind, order):
        rng = np.random.default_rng(5)
        ts = _valid_t(kind, rng, 25)
        h = 1e-5
        for t in ts:
            fd = (link_inverse(kind, t + h, order - 1)
                  - link_inverse(kind, t - h, order - 1)) / (2 * h)
            assert link_inverse(kind, t, order) == pytest.approx(fd, rel=1e-6)

    def test_singular_points(self):
        with pytest.raises(DomainError):
            link_eval(LinkKind.INVERSE, 0.0)
        with pytest.raises(DomainError):
            link_eval(LinkKind.SQRT, -1.0)
        with pytest.raises(DomainError):
            link_eval(LinkKind.INVERSE_SQUARED, 0.0)


class TestNaturalFromPredictor:
    def test_cpg_log_at_unit_mean(self):
        spec = FamilySpec.compound_poisson_gamma(1.5)
        got = natural_from_predictor(spec, LinkKind.LOG, 0.0, 0)
        assert got == pytest.approx(-2.0)

    def test_normal_identity_is_identity(self):
        got = natural_from_predictor(spec_for(Member.NORMAL),
                                     LinkKind.IDENTITY, 5.0, 0)
        assert got == 5.0

    def test_gamma_log_at_unit_mean(self):
        got = natural_from_predictor(spec_for(Member.GAMMA), LinkKind.LOG,
                                     0.0, 0)
        assert got == pytest.approx(-1.0)

    @pytest.mark.parametrize("spec,kind", [
        (FamilySpec.compound_poisson_gamma(1.4), LinkKind.LOG),
        (spec_for(Member.GAMMA), LinkKind.INVERSE),
        (spec_for(Member.INVERSE_GAUSSIAN), LinkKind.INVERSE_SQUARED),
        (spec_for(Member.POISSON), LinkKind.SQRT),
    ])
    def test_chain_rule_derivatives(self, spec, kind):
        rng = np.random.default_rng(3)
        h = 1e-6
        for t in rng.uniform(0.4, 2.0, 10):
            d1 = natural_from_predictor(spec, kind, t, 1)
            fd1 = (natural_from_predictor(spec, kind, t + h, 0)
                   - natural_from_predictor(spec, kind, t - h, 0)) / (2 * h)
            assert d1 == pytest.approx(fd1, rel=1e-5, abs=1e-8)
            d2 = natural_from_predictor(spec, kind, t, 2)
            fd2 = (natural_from_predictor(spec, kind, t + h, 1)
                   - natural_from_predictor(spec, kind, t - h, 1)) / (2 * h)
            assert d2 == pytest.approx(fd2, rel=1e-5, abs=1e-8)

    def test_mean_space_violation(self):
        with pytest.raises(DomainError):
            natural_from_predictor(spec_for(Member.GAMMA), LinkKind.IDENTITY,
                                   -1.0, 0)


class TestValidation:
    def test_dispersion_role_restricts_kinds(self):
        # the only guard: _dispersion_scale takes every kind but log
        # for the identity
        with pytest.raises(ConfigError, match="dispersion link"):
            LinkPair.of("log", "sqrt")
        with pytest.raises(ConfigError, match="dispersion link"):
            LinkPair(LinkKind.LOG, LinkKind.SQRT)
        assert LinkPair.of("log", "identity").disp is LinkKind.IDENTITY

    def test_member_link_table(self):
        validate_links(spec_for(Member.INVERSE_GAUSSIAN),
                       LinkPair.of("inverse-squared", "log"))
        with pytest.raises(ConfigError):
            validate_links(spec_for(Member.NORMAL),
                           LinkPair.of("inverse-squared", "log"))
        with pytest.raises(ConfigError):
            validate_links(FamilySpec.compound_poisson_gamma(1.5),
                           LinkPair.of("identity", "log"))
        # Poisson's fixed dispersion h2(0) is 0 under the identity link
        validate_links(spec_for(Member.POISSON), LinkPair.of("log", "log"))
        with pytest.raises(ConfigError, match="identity.*poisson"):
            validate_links(spec_for(Member.POISSON),
                           LinkPair.of("log", "identity"))

    def test_config_strings(self):
        assert LinkKind.from_name("inverse-squared") is \
            LinkKind.INVERSE_SQUARED
        with pytest.raises(ConfigError):
            LinkKind.from_name("cauchit")
