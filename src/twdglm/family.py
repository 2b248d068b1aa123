"""Closed-form math for the power-variance exponential-dispersion family.

Implements the five supported members (Normal, Poisson, compound
Poisson-gamma, Gamma, inverse Gaussian), their variance / cumulant /
deviance functions, and the two normalizer approximations for the
compound Poisson-gamma member: the windowed Bessel-series summation and
the modified saddlepoint form.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np
from scipy import special

from .errors import ConfigError, DomainError, SeriesInfeasibleError
from .links import LinkKind, LinkPair

LOG_2PI = math.log(2.0 * math.pi)

# Stands in for y in the saddlepoint variance factor V(y) at y = 0.
SADDLE_EPS0 = 1e-6
# The series window ends where a term falls below this share of the
# row's largest term.
SERIES_RTOL = 1e-12
# Refuse the series when a row's term-mode index exceeds this.
SERIES_KMAX_CAP = 1e7
# Hard limit on terms added on either side of the series mode.
SERIES_SIDE_CAP = 1_000_000


class Member(enum.Enum):
    """Supported family members, keyed by their power-variance index."""

    NORMAL = "normal"
    POISSON = "poisson"
    COMPOUND_POISSON_GAMMA = "compound-poisson-gamma"
    GAMMA = "gamma"
    INVERSE_GAUSSIAN = "inverse-gaussian"


class Approx(enum.Enum):
    """Normalizer approximation for the compound Poisson-gamma member."""

    SERIES = "series"
    SADDLEPOINT = "saddlepoint"


class _Facts(NamedTuple):  # a row of the member table _MEMBERS
    names: tuple                # command-line names
    fixed_p: float | None       # None: a fit profiles p over a grid
    start: float                # p when a command line gives none
    mean_links: tuple           # closed-form ones, in message order
    default_link: LinkKind
    dispersion: bool            # phi has a link-linear model


_MEMBERS = {
    Member.NORMAL: _Facts(
        ("normal",), 0.0, 0.0, (LinkKind.IDENTITY,), LinkKind.IDENTITY, True),
    Member.POISSON: _Facts(
        ("poisson",), 1.0, 1.0,
        (LinkKind.LOG, LinkKind.SQRT, LinkKind.IDENTITY), LinkKind.LOG, False),
    Member.COMPOUND_POISSON_GAMMA: _Facts(
        ("cpg", "compound-poisson-gamma"), None, 1.5, (LinkKind.LOG,),
        LinkKind.LOG, True),
    Member.GAMMA: _Facts(
        ("gamma",), 2.0, 2.0, (LinkKind.INVERSE, LinkKind.IDENTITY,
                               LinkKind.LOG), LinkKind.LOG, True),
    Member.INVERSE_GAUSSIAN: _Facts(
        ("inverse-gaussian",), 3.0, 3.0, (LinkKind.INVERSE_SQUARED,),
        LinkKind.INVERSE_SQUARED, True),
}


@dataclass(frozen=True)
class FamilySpec:
    """A family member together with its index parameter and normalizer.
    What the member decides is answered from the table ``_MEMBERS``.

    Parameters
    ----------
    member : Member
        Which member of the family.
    p : float
        Power-variance index: the member's fixed index, or inside
        (1, 2) for compound Poisson-gamma.
    approx : Approx
        Normalizer approximation; only consulted for the compound
        Poisson-gamma member. The series truncation and the saddlepoint's
        stand-in for y = 0 are the module constants ``SERIES_RTOL``,
        ``SERIES_KMAX_CAP`` and ``SADDLE_EPS0``.
    """

    member: Member
    p: float
    approx: Approx = Approx.SERIES

    def __post_init__(self):
        fixed_p = _MEMBERS[self.member].fixed_p
        if fixed_p is not None:
            if self.p != fixed_p:
                raise ConfigError(
                    f"{self.member.value} requires p = {fixed_p}, "
                    f"got {self.p}")
        elif not 1.0 < self.p < 2.0:
            raise ConfigError(
                f"{self.member.value} requires 1 < p < 2, got {self.p}")

    @property
    def free_index(self) -> bool:
        """Whether a fit profiles p over a grid rather than fixing it."""
        return _MEMBERS[self.member].fixed_p is None

    @property
    def has_dispersion(self) -> bool:
        """Whether phi has a link-linear model; Poisson's is fixed at 1."""
        return _MEMBERS[self.member].dispersion

    @property
    def default_link(self) -> LinkKind:
        """The mean link used when none is given."""
        return _MEMBERS[self.member].default_link

    def with_p(self, p: float) -> "FamilySpec":
        return replace(self, p=p)

    def index_grid(self, p_grid) -> tuple["FamilySpec", np.ndarray]:
        """The grid a fit walks in p and the spec it starts from: a free
        index takes ``p_grid`` (``default_p_grid`` if empty) inside
        (1, 2) and starts at its point nearest p; a fixed index takes
        only an empty grid or [p]."""
        grid = np.asarray(p_grid, dtype=float).ravel()
        if not self.free_index:
            if grid.size and not np.array_equal(grid, [self.p]):
                raise ConfigError(
                    f"p_grid does not apply to {self.member.value}, whose "
                    f"index is fixed at p = {self.p}")
            return self, default_p_grid(self)
        grid = grid if grid.size else default_p_grid(self)
        if np.any(grid <= 1.0) or np.any(grid >= 2.0):
            raise ConfigError("p_grid must lie inside (1, 2)")
        start = float(grid[np.argmin(np.abs(grid - self.p))])
        return self.with_p(start), grid

    @classmethod
    def named(cls, name: str, p: float | None = None,
              approx: Approx = Approx.SERIES) -> "FamilySpec":
        """The member a command-line name stands for, in any letter
        case, at ``p`` or, when p is None, at the member's start."""
        name = name.lower()
        for member, facts in _MEMBERS.items():
            if name in facts.names:
                return cls(member, float(facts.start if p is None else p),
                           approx)
        raise ConfigError(f"unknown family {name!r}")

    @classmethod
    def compound_poisson_gamma(cls, p: float, **kw) -> "FamilySpec":
        return cls(Member.COMPOUND_POISSON_GAMMA, p, **kw)


def default_p_grid(spec: FamilySpec) -> np.ndarray:
    """Profile grid for a member with a free index; fixed-p members get
    a single-point grid."""
    return (np.round(np.arange(1.05, 1.9501, 0.05), 10) if spec.free_index
            else np.array([spec.p]))


def validate_links(spec: FamilySpec, links: LinkPair) -> None:
    """Reject a mean link without closed-form derivatives for the
    member, and the identity dispersion link for a member without a
    dispersion model, whose fixed dispersion h2(0) it would put at 0."""
    facts = _MEMBERS[spec.member]
    if links.mean not in facts.mean_links:
        allowed = [k.value for k in facts.mean_links]
        raise ConfigError(
            f"mean link {links.mean.value!r} not permitted for "
            f"{spec.member.value}; allowed: {allowed}")
    if not facts.dispersion and links.disp is LinkKind.IDENTITY:
        raise ConfigError(
            "dispersion link 'identity' not permitted for "
            f"{spec.member.value}: its fixed dispersion h2(0) would be 0; "
            "use 'log'")


def _as_array(x):
    a = np.asarray(x, dtype=float)
    return a, a.ndim == 0


def check_mean_space(spec: FamilySpec, mu, what: str = "mu") -> None:
    """Raise DomainError unless mu lies in the member's mean space."""
    m, _ = _as_array(mu)
    if not np.all(np.isfinite(m)):
        raise DomainError(f"{what} must be finite")
    if spec.member is not Member.NORMAL and np.any(m <= 0):
        raise DomainError(
            f"{what} must be positive for {spec.member.value}")


def check_support(spec: FamilySpec, y, what: str = "y") -> None:
    """Raise DomainError unless y lies in the member's support."""
    a, _ = _as_array(y)
    if not np.all(np.isfinite(a)):
        raise DomainError(f"{what} must be finite")
    if spec.member is Member.POISSON:
        if np.any(a < 0) or np.any(np.abs(a - np.round(a)) > 1e-8):
            raise DomainError(f"{what} must be a nonnegative integer count")
    elif spec.member in (Member.GAMMA, Member.INVERSE_GAUSSIAN):
        if np.any(a <= 0):
            raise DomainError(f"{what} must be strictly positive "
                              f"for {spec.member.value}")
    elif spec.member is Member.COMPOUND_POISSON_GAMMA:
        if np.any(a < 0):
            raise DomainError(f"{what} must be nonnegative for "
                              "compound-poisson-gamma")


def check_dispersion(phi, what: str = "phi") -> None:
    """Raise DomainError unless every phi is finite and positive."""
    if not np.all(np.isfinite(phi) & (phi > 0)):
        raise DomainError(f"{what} must be finite and positive")


def unit_deviance(spec: FamilySpec, y, mu):
    """Unit deviance d(y, mu) = -2 * int_y^mu (y-u)/V(u) du.

    Nonnegative, zero iff y == mu (for the compound member, iff
    y == mu > 0; its deviance at y = 0 is 2*mu**(2-p)/(2-p)).
    """
    ya, s1 = _as_array(y)
    ma, s2 = _as_array(mu)
    check_support(spec, ya)
    check_mean_space(spec, ma)
    ya, ma = np.broadcast_arrays(ya, ma)
    p = spec.p
    if spec.member is Member.NORMAL:
        out = (ya - ma) ** 2
    elif spec.member is Member.POISSON:
        out = 2.0 * (special.xlogy(ya, ya / ma) - (ya - ma))
    elif spec.member is Member.GAMMA:
        out = 2.0 * (np.log(ma / ya) + (ya - ma) / ma)
    elif spec.member is Member.INVERSE_GAUSSIAN:
        out = (ya - ma) ** 2 / (ma ** 2 * ya)
    else:
        out = 2.0 * (np.maximum(ya, 0.0) ** (2 - p) / ((1 - p) * (2 - p))
                     - ya * ma ** (1 - p) / (1 - p)
                     + ma ** (2 - p) / (2 - p))
    out = np.maximum(out, 0.0)  # clip float noise at y ~= mu
    return float(out) if (s1 and s2) else out


def saturated_cumulant_term(spec: FamilySpec, y):
    """The saturated exponent y*theta(y) - kappa(theta(y)).

    This is the y-dependent part of the log-normalizer that carries a
    1/phi factor; it vanishes at y = 0 for the compound member.
    """
    ya, scalar = _as_array(y)
    flat = np.atleast_1d(ya)
    mem = spec.member
    p = spec.p
    if mem is Member.NORMAL:
        out = flat ** 2 / 2.0
    elif mem is Member.INVERSE_GAUSSIAN:
        out = 0.5 / flat
    elif mem is Member.GAMMA:
        out = -1.0 - np.log(flat)
    elif mem is Member.COMPOUND_POISSON_GAMMA:
        out = np.zeros_like(flat)
        pos = flat > 0
        out[pos] = flat[pos] ** (2 - p) * (1.0 / (1 - p) - 1.0 / (2 - p))
    else:  # Poisson: handled through its discrete normalizer
        out = np.zeros_like(flat)
    return float(out[0]) if scalar else out.reshape(ya.shape)


# ---------------------------------------------------------------------------
# Compound Poisson-gamma series normalizer
# ---------------------------------------------------------------------------

def _series_logsums(y, phi, p):
    """Windowed log-space summation of the Bessel-series normalizer.

    Returns ``(log_a, r1, r2)`` for strictly positive y, where
    ``log_a = log a(y, phi, p)`` and ``r1``, ``r2`` are the first two
    moments of m_k = k(1+xi) under the normalized term weights (needed
    by the dispersion derivatives; the series for a, a' and a'' share
    the same term mode).

    The terms are T_k = t^k / (k! * Gamma(k*xi)), so log T_k = k*z - L(k)
    with z = log t and L(k) = log k! + log Gamma(k*xi) convex in k (Dunn
    & Smyth 2005). Before it sums anything, the pass finds each row's
    exact integer mode m, the first k >= 1 whose increment
    L(k+1) - L(k) exceeds z (the increments rise with k), and so the
    row's log-maximum M = m*z - L(m). Every term is then
    exp(k*z - L(k) - M) <= 1 and goes into plain sums.

    A row sums its terms from a start about a reach below its mode
    (k = 1 when the mode is within that reach of 1, so there is no
    left walk), rounded down so that rows with nearby modes share it;
    rows with one start share one range of k (``_window_sums``). The
    range is walked right in blocks whose width depends on the start
    alone, and a row stops after the first block whose last term, at or
    beyond its mode, is below ``SERIES_RTOL`` times its maximum: by
    concavity every later term is smaller still and falling. A row
    whose term at its start is within that share restarts lower. A
    row's window and the order in which its terms are added thus depend
    on that row alone, so its results are bit for bit the same whichever
    rows share the pass.

    ``SERIES_SIDE_CAP`` bounds how far below its mode a row starts and
    how far past the modes the walk goes, and a mode above
    ``SERIES_KMAX_CAP`` raises SeriesInfeasibleError. A y that
    is not positive, or a phi that is not finite and positive, raises
    DomainError.
    """
    y = np.atleast_1d(np.asarray(y, dtype=float))
    phi = np.broadcast_to(np.asarray(phi, dtype=float), y.shape)
    if not np.all(y > 0):
        raise DomainError("series normalizer requires y > 0")
    check_dispersion(phi)
    xi = (2.0 - p) / (p - 1.0)
    log_y = np.log(y)
    log_t = (xi * log_y - xi * math.log(p - 1.0) - math.log(2.0 - p)
             - (1.0 + xi) * np.log(phi))
    kmax = y ** (2.0 - p) / ((2.0 - p) * phi)
    if np.any(kmax > SERIES_KMAX_CAP):
        raise SeriesInfeasibleError(
            f"series mode index {kmax.max():.3e} exceeds cap "
            f"{SERIES_KMAX_CAP:.3e}; "
            "use the saddlepoint approximation instead")

    # log T_k falls by |log SERIES_RTOL| about sqrt(reach * k) terms from
    # a mode near k, where its curvature is about -(1 + xi) / k
    reach = -2.0 * math.log(SERIES_RTOL) / (1.0 + xi)
    k0 = np.maximum(np.floor(kmax), 1.0)
    log_m = np.empty(y.size)
    sums = np.empty((3, y.size))
    # every row starts at k = 1 when k - sqrt(reach * k) - 2 <= 1 at the
    # largest mode: it is convex in k, and below 1 at k = 1
    k_top = float(k0.max())
    if k_top - math.sqrt(reach * k_top) - 2.0 <= 1.0:
        groups = [(slice(None), 1.0)]
    else:
        first = _range_start(k0, reach)
        order = np.argsort(first, kind="stable")
        cuts = np.flatnonzero(np.diff(first[order])) + 1
        groups = [(rows, first[rows[0]]) for rows in np.split(order, cuts)]
    # a block holds no more terms than one of a pass whose rows all start
    # at k = 1
    most = y.size * _block_width(1, reach)
    for rows, a in groups:
        log_m[rows], sums[:, rows] = _window_sums(log_t[rows], k0[rows],
                                                  int(a), xi, reach, most)
    s0, s1, s2 = sums
    log_a = log_m + np.log(s0) - log_y
    scale = 1.0 + xi
    return log_a, scale * s1 / s0, scale ** 2 * s2 / s0


def _range_start(k0, reach):
    """The first k of the terms summed for rows with approximate mode
    k0: a reach below the mode, by at most ``SERIES_SIDE_CAP``, rounded
    down to a multiple of a power of two below the reach there, so that
    rows with nearby modes share it, and at least 1."""
    below = k0 - np.minimum(np.ceil(np.sqrt(reach * k0)) + 2.0,
                            SERIES_SIDE_CAP)
    step = 2.0 ** np.floor(np.log2(np.sqrt(reach * np.maximum(below, 1.0))))
    return np.maximum(np.floor(below / step) * step, 1.0)


def _block_width(a, reach):
    """Terms per block of a walk that starts at k = a: the reach of
    log T_k there, twice its reach at k = 1 and one (each reach rounded
    up). A walk from k = 1 then covers a small mode and its right tail
    in one block, and a walk far out overshoots a window by about one
    reach."""
    one = math.ceil(math.sqrt(reach))
    return math.ceil(math.sqrt(reach * a)) + 2 * one + 1


def _window_sums(z, k0, a, xi, reach, most):
    """The log-maxima M and the window sums (s0, s1, s2) of
    exp(k*z - L(k) - M) times 1, k and k^2 for rows with log t = z and
    approximate modes k0 whose terms are summed from k = a (see
    ``_series_logsums``).

    The terms from a are laid out in (term, row) blocks of
    ``_block_width(a)`` terms, over as many rows at a time as keep a
    block within ``most`` terms, and a row walks right until the last
    term of a block beyond its mode is below ``SERIES_RTOL`` times its
    maximum; the rows share one log-gamma table. A block's moments are
    its terms' product with the columns [1, k, k^2], added to the row's
    sums; ``np.einsum`` adds over k one term at a time, where a BLAS
    product rounds a row differently with the number of rows in the
    call. A row whose term at a is within
    that share starts again from a lower a, its own next start."""
    log_rtol = math.log(SERIES_RTOL)
    top = int(k0.max()) + 2
    while True:
        lgam = _lgam_range(a, top + 1, xi)  # L(a), ..., L(top)
        m = a + np.searchsorted(np.diff(lgam), z, side="right")
        if m.max() < top:
            break
        top *= 2
    log_m = m * z - lgam[m - a]

    width = _block_width(a, reach)
    last_mode = int(m.max())
    sums = np.zeros((3, z.size))
    per = max(1, most // width)
    for first in range(0, z.size, per):
        rows = slice(first, first + per)
        lo = a
        while True:
            hi = lo + width
            if hi > a + lgam.size:
                lgam = np.concatenate(
                    [lgam, _lgam_range(a + lgam.size, hi + width, xi)])
            k = np.arange(lo, hi, dtype=float)[:, None]
            e = k * z[rows]
            e -= np.add.outer(lgam[lo - a:hi - a], log_m[rows])
            walking = e[-1] >= log_rtol
            if hi <= last_mode:
                walking |= hi <= m[rows]
            if lo == a and a > 1 and np.any(e[0] >= log_rtol):
                early = np.flatnonzero(e[0] >= log_rtol)
                log_m[early + first], sums[:, early + first] = _window_sums(
                    z[rows][early], k0[rows][early], max(1, a - width), xi,
                    reach, most)
                walking[early] = False
                e[:, early] = -np.inf
            np.exp(e, out=e)
            sums[:, rows] += np.einsum("kr,km->mr", e, k ** np.arange(3.0))
            walking = np.flatnonzero(walking)
            rows = walking + first if lo == a else rows[walking]
            if not rows.size or lo - last_mode > SERIES_SIDE_CAP:
                break
            lo = hi
    return log_m, sums


def _lgam_range(start, stop, xi):
    """gammaln(k+1) + gammaln(xi*k) for k = start, ..., stop-1, computed
    in place: the table can span millions of k."""
    ks = np.arange(start, stop, dtype=float)
    out = ks + 1.0
    special.gammaln(out, out=out)
    ks *= xi
    out += special.gammaln(ks, out=ks)
    return out


def log_normalizer_series(y, phi, p: float):
    """log a(y, phi, p) for y > 0 via the windowed series summation."""
    ya, scalar = _as_array(y)
    log_a, _, _ = _series_logsums(ya, phi, p)
    return float(log_a[0]) if scalar else log_a.reshape(np.shape(y))


def log_normalizer_saddlepoint(y, phi, spec: FamilySpec):
    """Saddlepoint density prefactor -0.5 * log(2*pi*phi*V(y)).

    V uses y for y > 0 and ``SADDLE_EPS0`` at y = 0.
    """
    ya, scalar = _as_array(y)
    ph = np.broadcast_to(np.asarray(phi, dtype=float), ya.shape)
    check_dispersion(ph)
    if np.any(ya < 0):
        raise DomainError("y must be nonnegative")
    v_arg = np.where(ya > 0, ya, SADDLE_EPS0)
    out = -0.5 * (LOG_2PI + np.log(ph) + spec.p * np.log(v_arg))
    return float(out) if scalar else out


def log_density(spec: FamilySpec, y, mu, phi=1.0):
    """Log probability density (or mass) of y under (mu, phi).

    phi is ignored for the Poisson member, whose dispersion is fixed
    at 1. The compound Poisson-gamma member dispatches on
    ``spec.approx``; its y = 0 atom under the series normalizer is
    exp(-mu**(2-p) / (phi*(2-p))).
    """
    ya, s1 = _as_array(y)
    ma, s2 = _as_array(mu)
    check_support(spec, ya)
    check_mean_space(spec, ma)
    ya, ma = np.broadcast_arrays(ya, ma)
    pha = np.broadcast_to(np.asarray(phi, dtype=float), ya.shape)
    if spec.member is not Member.POISSON:
        check_dispersion(pha)
    mem = spec.member
    p = spec.p

    if mem is Member.POISSON:
        out = special.xlogy(ya, ma) - ma - special.gammaln(ya + 1.0)
    elif mem is Member.NORMAL:
        out = -0.5 * (LOG_2PI + np.log(pha)) - (ya - ma) ** 2 / (2.0 * pha)
    elif mem is Member.GAMMA:
        inv = 1.0 / pha
        log_a = (-inv * np.log(pha) + (inv - 1.0) * np.log(ya)
                 - special.gammaln(inv))
        out = log_a + (-ya / ma - np.log(ma)) / pha
    elif mem is Member.INVERSE_GAUSSIAN:
        out = (-0.5 * (LOG_2PI + 3.0 * np.log(ya) + np.log(pha))
               - (ya - ma) ** 2 / (2.0 * ma ** 2 * ya * pha))
    else:
        if spec.approx is Approx.SADDLEPOINT:
            log_b = log_normalizer_saddlepoint(ya, pha, spec)
            out = log_b - unit_deviance(spec, ya, ma) / (2.0 * pha)
        else:
            exponent = (ya * ma ** (1 - p) / (1 - p)
                        - ma ** (2 - p) / (2 - p)) / pha
            out = np.atleast_1d(np.asarray(exponent, dtype=float)).copy()
            yf = np.atleast_1d(ya)
            pf = np.atleast_1d(np.broadcast_to(pha, ya.shape))
            pos = yf > 0
            if np.any(pos):
                out[pos] += log_normalizer_series(yf[pos], pf[pos], p)
            out = out.reshape(ya.shape)
    return float(out) if (s1 and s2) else out
