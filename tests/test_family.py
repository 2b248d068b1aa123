"""Family math: variance, deviance, normalizers, densities."""

import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy import integrate, stats

from conftest import (full_series_logsums, series_log_terms, series_mode,
                      spec_for)
from twdglm import family as fam
from twdglm.errors import ConfigError, DomainError, SeriesInfeasibleError
from twdglm.family import (SADDLE_EPS0, SERIES_KMAX_CAP, SERIES_RTOL, Approx,
                           FamilySpec, Member, _series_logsums, check_support,
                           log_density, log_normalizer_saddlepoint,
                           log_normalizer_series, unit_deviance)

# Extended-precision full summation (mpmath, 60 digits, 10,000 terms) of
# the Bessel-series normalizer; frozen reference values for log a(y, phi, p).
_SERIES_ORACLE = [
    (0.1, 0.1, 1.2, 11.458345371926790155),
    (0.5, 0.5, 1.2, 6.9445459792967768951),
    (1.0, 1.0, 1.2, 5.2614559362667673511),
    (2.0, 0.5, 1.2, 20.749085647612391787),
    (5.0, 2.0, 1.2, 9.0421558257828211123),
    (10.0, 0.1, 1.2, 393.19771504672484749),
    (10.0, 5.0, 1.2, 4.7033830339234529101),
    (0.1, 0.1, 1.5, 14.577494526537786465),
    (0.5, 0.5, 1.5, 5.5309635721528827695),
    (1.0, 1.0, 1.5, 2.9713847796580174018),
    (2.0, 0.5, 1.5, 10.186743980905272197),
    (5.0, 2.0, 1.5, 1.9034931764968007287),
    (10.0, 0.1, 1.5, 124.99354516432568831),
    (10.0, 5.0, 1.5, -1.1175849994038219515),
    (0.1, 0.1, 1.8, 41.725071745370244674),
    (0.5, 0.5, 1.8, 10.879455646625762124),
    (1.0, 1.0, 1.8, 5.2351581284804263156),
    (2.0, 0.5, 1.8, 13.122056675121183145),
    (5.0, 2.0, 1.8, 1.4568287534934214062),
    (10.0, 0.1, 1.8, 97.210144785225214619),
    (10.0, 5.0, 1.8, -2.1171253351221361899),
]

ALL_SPECS = [
    spec_for(Member.NORMAL),
    spec_for(Member.POISSON),
    FamilySpec.compound_poisson_gamma(1.5),
    spec_for(Member.GAMMA),
    spec_for(Member.INVERSE_GAUSSIAN),
]


class TestFamilySpec:
    def test_index_must_match_member(self):
        with pytest.raises(ConfigError):
            FamilySpec(Member.NORMAL, 1.0)
        with pytest.raises(ConfigError):
            FamilySpec(Member.COMPOUND_POISSON_GAMMA, 2.0)
        with pytest.raises(ConfigError):
            FamilySpec(Member.COMPOUND_POISSON_GAMMA, 1.0)


class TestUnitDeviance:
    def test_zero_at_mean(self):
        assert unit_deviance(spec_for(Member.NORMAL), 2.0, 2.0) == 0.0

    def test_poisson_zero_response_limit(self):
        assert unit_deviance(spec_for(Member.POISSON), 0.0, 1.0) == \
            pytest.approx(2.0)

    def test_cpg_zero_response(self):
        # continuity limit 2*mu**(2-p)/(2-p) at y = 0
        got = unit_deviance(FamilySpec.compound_poisson_gamma(1.5), 0.0, 1.0)
        assert got == pytest.approx(4.0)

    def test_support_violation(self):
        with pytest.raises(DomainError):
            unit_deviance(spec_for(Member.GAMMA), -0.5, 1.0)

    @settings(max_examples=200)
    @given(st.sampled_from(ALL_SPECS),
           st.lists(st.sampled_from([0.0, 1.0, 2.5, 3.0, -1.0, np.nan,
                                     np.inf, -np.inf]), min_size=1,
                    max_size=8))
    def test_support_error_names_the_first_row_outside(self, spec, values):
        """The row a support error carries is the first that fails the
        check by itself; its message is that of the whole array."""
        def inside(value):
            try:
                check_support(spec, value)
            except DomainError:
                return False
            return True

        outside = [i for i, v in enumerate(values) if not inside(v)]
        if not outside:
            check_support(spec, np.array(values))
            return
        with pytest.raises(DomainError) as info:
            check_support(spec, np.array(values))
        assert info.value.row == outside[0]
        assert str(info.value).endswith("must be finite") == \
            (not np.all(np.isfinite(values)))

    @pytest.mark.parametrize("spec", ALL_SPECS,
                             ids=lambda s: s.member.value)
    def test_nonnegative_zero_iff_equal(self, spec):
        rng = np.random.default_rng(7)
        for _ in range(40):
            mu = rng.uniform(0.2, 5.0)
            if spec.member is Member.NORMAL:
                y = rng.normal(0.0, 2.0)
            elif spec.member is Member.POISSON:
                y = float(rng.integers(0, 8))
            elif spec.member is Member.COMPOUND_POISSON_GAMMA:
                y = 0.0 if rng.random() < 0.3 else rng.uniform(0.05, 6.0)
            else:
                y = rng.uniform(0.05, 6.0)
            d = unit_deviance(spec, y, mu)
            assert d >= 0.0
            if abs(y - mu) > 1e-6:
                assert d > 0.0
            y_sat = max(y, 1.0) if spec.member is Member.POISSON \
                else max(y, 0.2)
            assert unit_deviance(spec, y_sat, y_sat) == \
                pytest.approx(0.0, abs=1e-12)


class TestSeriesNormalizer:
    def test_window_center(self):
        assert series_mode(1.0, 1.0, 1.5) == pytest.approx(2.0)
        ys = np.array([0.3, 1.0, 4.0, 20.0])
        for phi, p in [(0.2, 1.2), (1.0, 1.5), (0.05, 1.8)]:
            k = np.arange(1.0, 5000.0)
            peak = k[np.argmax(series_log_terms(ys, phi, p, k), axis=1)]
            assert np.all(np.abs(peak - series_mode(ys, phi, p)) <= 1.0)

    @pytest.mark.parametrize("y,phi,p,expected", _SERIES_ORACLE)
    def test_matches_extended_precision_full_sum(self, y, phi, p, expected):
        got = log_normalizer_series(y, phi, p)
        assert got == pytest.approx(expected, rel=1e-8)

    def test_vector_input(self):
        ys = np.array([0.5, 1.0, 2.0])
        out = log_normalizer_series(ys, 1.0, 1.5)
        for yi, oi in zip(ys, out):
            assert oi == pytest.approx(log_normalizer_series(float(yi),
                                                             1.0, 1.5))

    def test_infeasible_mode_raises(self):
        with pytest.raises(SeriesInfeasibleError):
            log_normalizer_series(10.0, 1e-9, 1.5)

    def test_requires_positive_y(self):
        for y in (0.0, np.nan):
            with pytest.raises(DomainError):
                log_normalizer_series(y, 1.0, 1.5)


# index near either end of (1, 2) or anywhere between
INDICES = st.one_of(st.floats(1.01, 1.03), st.floats(1.97, 1.99),
                    st.floats(1.01, 1.99))


@st.composite
def series_rows(draw):
    """(y, phi, p) whose term modes run from below 1 to about 1e4."""
    p = draw(INDICES)
    n = draw(st.integers(1, 6))
    log_y = np.array(draw(st.lists(st.floats(-3, 3), min_size=n,
                                   max_size=n)))
    log_mode = np.array(draw(st.lists(st.floats(-3, 4), min_size=n,
                                      max_size=n)))
    y = 10.0 ** log_y
    phi = y ** (2.0 - p) / ((2.0 - p) * 10.0 ** log_mode)
    return y, phi, p


def rows_with_modes(p, y, modes):
    """(y, phi, p) with phi chosen so that row i's term mode is
    modes[i]."""
    y = np.asarray(y, dtype=float)
    return y, y ** (2.0 - p) / ((2.0 - p) * np.asarray(modes)), p


class TestSeriesWindowProperties:
    @settings(max_examples=200)
    @given(series_rows())
    @example(rows_with_modes(1.05, [0.5, 2.0, 30.0], [0.3, 4000.0, 1500.0]))
    @example(rows_with_modes(1.95, [0.01, 1.0, 500.0], [0.5, 2000.0, 9000.0]))
    @example(rows_with_modes(1.5, [1.0], [3000.0]))
    @example(rows_with_modes(1.3, [0.2], [0.01]))
    # mode 32 at p near 1: a window whose right end is tested left of
    # the mode misses log a by 0.15 relative
    @example((np.array([1.0]), np.array([0.03212473]), 1.015625))
    # mode 100 at p near 2: the walk starts at k = 1, blocks short of it
    @example(rows_with_modes(1.984375, [1.0], [100.0]))
    def test_matches_full_range_sum(self, rows):
        """The examples pin p near either end, modes below 1 (the walk
        starts at k = 1), modes in the thousands, a mode past the first
        block and a single row."""
        y, phi, p = rows
        got = _series_logsums(y, phi, p)
        want = full_series_logsums(y, phi, p)
        for name, a, b in zip(("log_a", "r1", "r2"), got, want):
            # log a crosses zero, so it is measured against max(1, |log a|)
            floor = 1.0 if name == "log_a" else 0.0
            err = np.abs(a - b) / np.maximum(np.abs(b), floor)
            assert err.max() <= 1e-10, name

    @settings(max_examples=300)
    @given(series_rows(), st.randoms(use_true_random=False))
    @example(rows_with_modes(1.05, [0.5, 2.0, 30.0], [0.3, 4000.0, 1500.0]),
             None)
    @example(rows_with_modes(1.7, [1.0, 1.0, 1.0], [0.5, 40.0, 600.0]), None)
    def test_rows_together_equal_rows_alone_exactly(self, rows, rnd):
        """A row's window and the order in which its terms are added
        depend on that row alone: each row of a pass, in any order, is
        bit for bit the pass of that row by itself."""
        y, phi, p = rows
        order = np.arange(y.size)
        if rnd is not None:
            rnd.shuffle(order)
        together = _series_logsums(y[order], phi[order], p)
        for i, row in enumerate(order):
            alone = _series_logsums(y[row:row + 1], phi[row:row + 1], p)
            for name, a, b in zip(("log_a", "r1", "r2"), together, alone):
                assert a[i] == b[0], name

    # y = 1 at p = 1.005 with kmax just below 8 922 147: the exact mode
    # lies two above floor(kmax), past the table the mode search starts with
    EDGE_P, EDGE_KMAX = 1.005, 8_922_147 - 1e-9

    def test_edge_row_extends_its_table_a_block_at_a_time(self,
                                                         monkeypatch):
        """No log-gamma table the pass builds spans more than a few block
        widths, and its sums are the frozen ones bit for bit."""
        spans, raw = [], fam._lgam_range

        def spy(start, stop, xi):
            spans.append(stop - start)
            return raw(start, stop, xi)

        monkeypatch.setattr(fam, "_lgam_range", spy)
        p = self.EDGE_P
        phi = 1.0 / ((2.0 - p) * self.EDGE_KMAX)
        got = _series_logsums(np.array([1.0]), phi, p)
        reach = -2.0 * math.log(SERIES_RTOL) / (1.0 + (2.0 - p) / (p - 1.0))
        assert max(spans) <= 4 * fam._block_width(self.EDGE_KMAX, reach)
        want = ("0x1.a970ed7c528c6p+30", "0x1.a970ed61fc5a3p+30",
                "0x1.6184130347c19p+61")
        assert [float(v[0]) for v in got] == [float.fromhex(v) for v in want]

    @settings(max_examples=300)
    @given(st.floats(1.0, 2.0, exclude_min=True, exclude_max=True),
           st.one_of(st.floats(1e-6, SERIES_KMAX_CAP),
                     st.integers(2, int(SERIES_KMAX_CAP)).map(
                         lambda k: float(np.nextafter(k, 0.0))),
                     st.integers(2, int(SERIES_KMAX_CAP)).map(
                         lambda k: k - 1e-9)))
    @example(EDGE_P, EDGE_KMAX)
    def test_mode_and_start_bounds(self, p, kmax):
        """A row's exact mode lies in [floor(kmax) - 1, floor(kmax) + 2],
        and its term at the start of its range is below SERIES_RTOL times
        its largest term: no row has terms to add below its start."""
        phi = 1.0 / ((2.0 - p) * kmax)
        kmax = series_mode(1.0, phi, p)
        assume(kmax <= SERIES_KMAX_CAP)
        floor = math.floor(kmax)
        k = np.arange(max(floor - 3, 1), floor + 6, dtype=float)
        log_terms = series_log_terms(1.0, phi, p, k)[0]
        assert floor - 1 <= k[np.argmax(log_terms)] <= floor + 2
        reach = -2.0 * math.log(SERIES_RTOL) / (1.0 + (2.0 - p) / (p - 1.0))
        start = fam._range_start(np.array([max(floor, 1.0)]), reach)
        if start[0] > 1.0:
            at_start = series_log_terms(1.0, phi, p, start)[0, 0]
            assert at_start - log_terms.max() < math.log(SERIES_RTOL)

    @settings(max_examples=20)
    @given(INDICES, st.floats(-3, 3), st.floats(1.001, 100.0))
    def test_mode_above_cap_raises(self, p, log_y, excess):
        y = 10.0 ** log_y
        phi = y ** (2.0 - p) / ((2.0 - p) * SERIES_KMAX_CAP * excess)
        with pytest.raises(SeriesInfeasibleError):
            _series_logsums(np.array([1.0, y]), np.array([1.0, phi]), p)


class TestNonFiniteDispersion:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, 0.0, -1.0])
    def test_series_kernel_rejects(self, bad):
        with pytest.raises(DomainError):
            _series_logsums(np.array([1.0, 2.0]), np.array([bad, 1.0]), 1.5)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("approx", list(Approx))
    def test_cpg_log_density_rejects(self, approx, bad):
        spec = FamilySpec.compound_poisson_gamma(1.5, approx=approx)
        with pytest.raises(DomainError):
            log_density(spec, 1.0, 1.0, bad)
        with pytest.raises(DomainError):
            log_density(spec, np.array([0.0, 2.0]), 1.0, np.array([1.0, bad]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_saddlepoint_normalizer_rejects(self, bad):
        spec = FamilySpec.compound_poisson_gamma(1.5,
                                                 approx=Approx.SADDLEPOINT)
        with pytest.raises(DomainError):
            log_normalizer_saddlepoint(1.0, bad, spec)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("spec", [spec_for(Member.NORMAL),
                                      spec_for(Member.GAMMA),
                                      spec_for(Member.INVERSE_GAUSSIAN)],
                             ids=lambda s: s.member.value)
    def test_other_members_reject(self, spec, bad):
        with pytest.raises(DomainError):
            log_density(spec, 1.0, 1.0, bad)


class TestSaddlepointNormalizer:
    def test_unit_argument(self):
        spec = FamilySpec.compound_poisson_gamma(1.5)
        got = log_normalizer_saddlepoint(1.0, 1.0 / (2.0 * math.pi), spec)
        assert got == pytest.approx(0.0, abs=1e-14)

    def test_zero_response_uses_eps0(self):
        spec = FamilySpec.compound_poisson_gamma(1.5)
        expected = -0.5 * math.log(2.0 * math.pi * SADDLE_EPS0 ** 1.5)
        assert log_normalizer_saddlepoint(0.0, 1.0, spec) == \
            pytest.approx(expected)

    def test_gamma_power(self):
        got = log_normalizer_saddlepoint(4.0, 2.0, spec_for(Member.GAMMA))
        assert got == pytest.approx(-0.5 * math.log(64.0 * math.pi))


class TestLogDensity:
    def test_standard_normal_at_zero(self):
        oracle = stats.norm.logpdf(0.0)
        assert log_density(spec_for(Member.NORMAL), 0.0, 0.0, 1.0) == \
            pytest.approx(oracle)

    def test_cpg_atom_at_zero(self):
        got = log_density(FamilySpec.compound_poisson_gamma(1.5), 0.0, 1.0,
                          1.0)
        assert got == pytest.approx(-2.0)

    def test_matches_scipy_reference_members(self):
        # Gamma / IG / Poisson closed forms against scipy parametrizations
        y, mu, phi = 1.7, 2.3, 0.6
        g = log_density(spec_for(Member.GAMMA), y, mu, phi)
        assert g == pytest.approx(
            stats.gamma.logpdf(y, 1 / phi, scale=mu * phi))
        ig = log_density(spec_for(Member.INVERSE_GAUSSIAN), y, mu, phi)
        assert ig == pytest.approx(
            stats.invgauss.logpdf(y, mu * phi, scale=1 / phi))
        po = log_density(spec_for(Member.POISSON), 3.0, mu)
        assert po == pytest.approx(stats.poisson.logpmf(3, mu))

    @pytest.mark.parametrize("mu", [1.0, 3.0])
    @pytest.mark.parametrize("phi", [0.5, 1.0])
    @pytest.mark.parametrize("p", [1.3, 1.7])
    def test_cpg_mass_conservation(self, mu, phi, p):
        spec = FamilySpec.compound_poisson_gamma(p)
        atom = math.exp(log_density(spec, 0.0, mu, phi))

        def dens(y):
            return math.exp(log_density(spec, y, mu, phi))

        mass_lo, _ = integrate.quad(dens, 0.0, 1.0, limit=200)
        mass_hi, _ = integrate.quad(dens, 1.0, np.inf, limit=200)
        assert atom + mass_lo + mass_hi == pytest.approx(1.0, abs=1e-4)

    @pytest.mark.parametrize("mu,phi,p", [(1.0, 0.5, 1.3), (3.0, 1.0, 1.7),
                                          (1.0, 1.0, 1.5)])
    def test_cpg_moment_identities(self, mu, phi, p):
        spec = FamilySpec.compound_poisson_gamma(p)

        def mom(fn):
            lo, _ = integrate.quad(
                lambda y: fn(y) * math.exp(log_density(spec, y, mu, phi)),
                0.0, 1.0, limit=200)
            hi, _ = integrate.quad(
                lambda y: fn(y) * math.exp(log_density(spec, y, mu, phi)),
                1.0, np.inf, limit=200)
            return lo + hi

        atom = math.exp(log_density(spec, 0.0, mu, phi))
        mean = mom(lambda y: y)
        assert mean == pytest.approx(mu, rel=1e-3)
        var = mom(lambda y: (y - mu) ** 2) + atom * mu ** 2
        assert var == pytest.approx(phi * mu ** p, rel=1e-2)

    def test_saddlepoint_tracks_series_at_small_dispersion(self):
        mu, p = 1.0, 1.5
        for phi in (0.1, 0.2):
            series_spec = FamilySpec.compound_poisson_gamma(p)
            saddle_spec = FamilySpec.compound_poisson_gamma(
                p, approx=Approx.SADDLEPOINT)
            for y in np.linspace(mu / 2.0, 2.0 * mu, 9):
                a = log_density(series_spec, float(y), mu, phi)
                b = log_density(saddle_spec, float(y), mu, phi)
                assert abs(a - b) < 0.1

    def test_poisson_ignores_phi(self):
        a = log_density(spec_for(Member.POISSON), 2.0, 1.5, 1.0)
        b = log_density(spec_for(Member.POISSON), 2.0, 1.5, 7.0)
        assert a == b

    def test_poisson_support(self):
        with pytest.raises(DomainError):
            log_density(spec_for(Member.POISSON), 2.5, 1.0)
