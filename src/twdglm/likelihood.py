"""Negative log-likelihood and its partitioned derivatives.

The objective is assembled row-wise as

    nll = - sum_ij [ D_ij(eta) / phi*_ij + logC_ij(gamma) ]

where D(t) = y*k(t) - kappa(k(t)) is the exponent evaluated at the mean
predictor t through the composition k of the canonical-parameter map
with the inverse mean link, phi*_ij = h2(z'gamma) / w_ij is the
exposure-adjusted dispersion, and logC collects every remaining term of
the log-normalizer. Exposure follows the scale-invariance rule: the
stored response y is a total over exposure w, and y/w enters the
density with dispersion phi/w.

Gradients and Hessians with respect to eta = (beta, alpha) at fixed
gamma, and with respect to gamma at fixed eta, and the mixed second
derivatives in (gamma, eta), are exact analytic derivatives of the same
assembly, in closed form per (member, mean link).

Every row term lives in one of two blocks, each made by one builder
that does not check the response's support: ``exponent_terms`` holds
D, D', D'' at theta's eta, and ``dispersion_terms`` holds logC and
u = 1/phi* = w/h2(z'gamma) with their first two derivatives in the
dispersion predictor at theta's gamma. ``neg_log_lik``, ``grad_mean``,
``hess_mean``, ``disp_derivatives`` and ``hess_cross`` take both
blocks and only sum their rows; no function here builds a block it was
not given.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
from scipy import special

from . import family as fam
from .errors import ConfigError, DomainError, NonFiniteError
from .family import Approx, FamilySpec, Member, LOG_2PI
from .graph import ArealGraph
from .links import LinkKind, LinkPair, link_apply, link_eval


@dataclass
class Coefficients:
    """Partitioned coefficient vector (beta, alpha, gamma)."""

    beta: np.ndarray
    alpha: np.ndarray
    gamma: np.ndarray

    def __post_init__(self):
        self.beta = np.asarray(self.beta, dtype=float).ravel()
        self.alpha = np.asarray(self.alpha, dtype=float).ravel()
        self.gamma = np.asarray(self.gamma, dtype=float).ravel()
        for name in ("beta", "alpha", "gamma"):
            if not np.all(np.isfinite(getattr(self, name))):
                raise ConfigError(f"non-finite entries in {name}")

    @property
    def eta(self) -> np.ndarray:
        return np.concatenate([self.beta, self.alpha])

    def as_vector(self) -> np.ndarray:
        return np.concatenate([self.beta, self.alpha, self.gamma])

    def copy(self) -> "Coefficients":
        return Coefficients(self.beta.copy(), self.alpha.copy(),
                            self.gamma.copy())


@dataclass(eq=False)
class Dataset:
    """Observations over an areal graph.

    ``y`` is the raw response (a total over exposure ``w``); ``vertex``
    indexes the graph; ``X`` and ``Z`` are the mean and dispersion
    design matrices (intercept columns, if wanted, must be present as
    columns). ``Z`` may have zero columns, fixing the dispersion at
    h2(0).

    The arrays the likelihood's row kernels read on every iteration are
    built on first use and kept, as ``rank_X`` is: the C-contiguous
    (k, n) transposes ``Xt`` and ``Zt``, the row ``log_w``, the
    ``positive_rows`` the series normalizer sums over and, for one
    family spec at a time, its ``saddle_rows``. A dataset is not changed
    after it is built; ``subset`` makes a new one that builds its own.
    """

    y: np.ndarray
    w: np.ndarray
    vertex: np.ndarray
    X: np.ndarray
    Z: np.ndarray
    graph: ArealGraph
    _saddle: tuple | None = field(default=None, init=False, repr=False)

    def __post_init__(self):
        self.y = np.asarray(self.y, dtype=float).ravel()
        n = self.y.size
        self.w = np.asarray(self.w, dtype=float).ravel()
        if self.w.size == 0:
            self.w = np.ones(n)
        self.vertex = np.asarray(self.vertex, dtype=int).ravel()

        def shape2d(mat):
            arr = np.asarray(mat, dtype=float)
            if arr.ndim != 2:
                arr = arr.reshape(n, -1) if n else arr.reshape(0, 0)
            return arr

        self.X = shape2d(self.X)
        self.Z = shape2d(self.Z)
        if self.X.shape[0] != n or self.Z.shape[0] != n:
            raise ConfigError("design matrices must have one row per "
                              "observation")
        if self.w.size != n or self.vertex.size != n:
            raise ConfigError("y, w and vertex must have equal length")
        if np.any(self.w <= 0):
            raise ConfigError("exposures must be strictly positive")
        if n and (self.vertex.min() < 0
                  or self.vertex.max() >= self.graph.n_vertices):
            raise ConfigError("vertex index out of range for the graph")
        for mat, name in ((self.X, "X"), (self.Z, "Z")):
            if not np.all(np.isfinite(mat)):
                raise ConfigError(f"non-finite entries in {name}")
        if not np.all(np.isfinite(self.y)):
            raise ConfigError("non-finite responses")
        self.ystar = self.y / self.w

    @property
    def n_rows(self) -> int:
        return self.y.size

    @property
    def k_beta(self) -> int:
        return self.X.shape[1]

    @property
    def k_gamma(self) -> int:
        return self.Z.shape[1]

    @cached_property
    def rank_X(self) -> int:
        """Column rank of X, computed on first use (an SVD) and kept:
        every fit on this dataset checks it."""
        return int(np.linalg.matrix_rank(self.X))

    @cached_property
    def rank_Z(self) -> int:
        """Column rank of Z, as ``rank_X``."""
        return int(np.linalg.matrix_rank(self.Z))

    @cached_property
    def Xt(self) -> np.ndarray:
        """X as a C-contiguous (k_beta, n) array, the row layout that the
        weighted Gram product and the per-vertex sums of ``hess_mean``
        read. Matrix-vector products stay on ``X``: a product on the
        transposed layout rounds differently."""
        return np.ascontiguousarray(self.X.T)

    @cached_property
    def Zt(self) -> np.ndarray:
        """Z as a C-contiguous (k_gamma, n) array, as ``Xt``."""
        return np.ascontiguousarray(self.Z.T)

    @cached_property
    def log_w(self) -> np.ndarray:
        """log w per row."""
        return np.log(self.w)

    @cached_property
    def positive_rows(self):
        """The rows with y > 0, whose compound Poisson-gamma normalizer
        is the series: their index, y/w and w."""
        rows = np.flatnonzero(self.ystar > 0)
        return rows, self.ystar[rows], self.w[rows]

    def saddle_rows(self, spec: FamilySpec):
        """The rows (LOG_2PI + log Vy, Dsat) of ``_lognorm_saddle_family``
        for a Normal, inverse Gaussian or saddlepoint compound
        Poisson-gamma ``spec``; they depend on y/w and spec.p only. The
        rows of the last spec asked for are kept, so that a walk over
        an index grid holds one pair, not one per grid point."""
        if self._saddle is None or self._saddle[0] != spec:
            self._saddle = (spec, *_saddle_rows(spec, self.ystar))
        return self._saddle[1:]

    def subset(self, idx) -> "Dataset":
        idx = np.asarray(idx)
        return Dataset(self.y[idx], self.w[idx], self.vertex[idx],
                       self.X[idx], self.Z[idx], self.graph)

    def initial_coefficients(self, spec: FamilySpec, links: LinkPair
                             ) -> Coefficients:
        """Moment-based starting point.

        First beta slot holds the mean link of the exposure-weighted
        mean response, first gamma slot the dispersion link of a crude
        moment estimate of phi; everything else starts at zero. Falls
        back to all-zeros if that point is outside a link domain.
        """
        ybar = float(self.y.sum() / self.w.sum())
        beta = np.zeros(self.k_beta)
        gamma = np.zeros(self.k_gamma)
        try:
            if self.k_beta:
                beta[0] = link_apply(links.mean, ybar)
            if self.k_gamma:
                resid2 = float(np.mean((self.ystar - ybar) ** 2))
                vfun = max(abs(ybar), 1e-8) ** spec.p
                phi0 = min(max(resid2 / vfun, 1e-4), 1e6)
                gamma[0] = link_apply(links.disp, phi0)
        except DomainError:
            beta = np.zeros(self.k_beta)
            gamma = np.zeros(self.k_gamma)
        return Coefficients(beta, np.zeros(self.graph.n_vertices), gamma)


@dataclass
class MeanHessian:
    """Partitioned Hessian in eta: dense beta block, beta-alpha cross
    block, and the structurally diagonal alpha block stored as a vector."""

    h_bb: np.ndarray
    h_ba: np.ndarray
    h_aa_diag: np.ndarray


def _dispersion_scale(data: Dataset, theta: Coefficients, links: LinkPair):
    """Per-row link values for the dispersion side at theta's gamma.

    Returns (h2, L1, L2, u) with L1 = h2'/h2, L2 = h2''/h2 and
    u = w/h2 = 1/phi*. A ratio that is constant over the rows is the
    scalar (1.0 and 1.0 for the log link, 0.0 for the identity link's
    L2): its products are those of a row of that constant.
    """
    s = data.Z @ theta.gamma if data.k_gamma else np.zeros(data.n_rows)
    h2 = link_eval(links.disp, s)
    fam.check_dispersion(h2, "dispersion at every row")
    if links.disp is LinkKind.LOG:
        l1, l2 = 1.0, 1.0
    else:  # identity
        l1, l2 = 1.0 / h2, 0.0
    return h2, l1, l2, data.w / h2


# ---------------------------------------------------------------------------
# Mean-side exponent D(t) and derivatives
# ---------------------------------------------------------------------------

def _mean_exponent(data: Dataset, spec: FamilySpec, links: LinkPair,
                   t: np.ndarray):
    """D(t), D'(t), D''(t) per row at the mean predictor t and spec.p."""
    y = data.ystar
    kind = links.mean
    mem = spec.member
    if mem is Member.NORMAL and kind is LinkKind.IDENTITY:
        return y * t - t ** 2 / 2.0, y - t, -np.ones_like(t)
    if mem is Member.POISSON:
        if kind is LinkKind.LOG:
            et = np.exp(t)
            return y * t - et, y - et, -et
        if kind is LinkKind.SQRT:
            _require_positive(t, "sqrt mean link predictor")
            return (2.0 * y * np.log(t) - t ** 2,
                    2.0 * (y / t - t),
                    -2.0 * (y / t ** 2 + 1.0))
        if kind is LinkKind.IDENTITY:
            _require_positive(t, "identity mean link predictor")
            return special.xlogy(y, t) - t, y / t - 1.0, -y / t ** 2
    if mem is Member.COMPOUND_POISSON_GAMMA and kind is LinkKind.LOG:
        p = spec.p
        e1 = np.exp((1.0 - p) * t)
        e2 = np.exp((2.0 - p) * t)
        return (y * e1 / (1.0 - p) - e2 / (2.0 - p),
                y * e1 - e2,
                (1.0 - p) * y * e1 - (2.0 - p) * e2)
    if mem is Member.GAMMA:
        if kind is LinkKind.INVERSE:
            _require_positive(t, "inverse mean link predictor")
            return -y * t + np.log(t), -y + 1.0 / t, -1.0 / t ** 2
        if kind is LinkKind.IDENTITY:
            _require_positive(t, "identity mean link predictor")
            return (-y / t - np.log(t),
                    y / t ** 2 - 1.0 / t,
                    -2.0 * y / t ** 3 + 1.0 / t ** 2)
        if kind is LinkKind.LOG:
            emt = np.exp(-t)
            return -y * emt - t, y * emt - 1.0, -y * emt
    if mem is Member.INVERSE_GAUSSIAN and kind is LinkKind.INVERSE_SQUARED:
        _require_positive(t, "inverse-squared mean link predictor")
        rt = np.sqrt(t)
        return (-y * t / 2.0 + rt,
                -y / 2.0 + 0.5 / rt,
                -0.25 * t ** -1.5)
    raise ConfigError(
        f"no closed form for ({mem.value}, {kind.value})")


def _require_positive(t: np.ndarray, what: str):
    if np.any(t <= 0):
        raise DomainError(f"{what} must stay positive")


# ---------------------------------------------------------------------------
# Dispersion-side terms: logC(s), u(s) = w/h2(s) and their derivatives
# ---------------------------------------------------------------------------

def _saddle_rows(spec: FamilySpec, y):
    """(LOG_2PI + log Vy, Dsat) per row of a saddlepoint-shaped
    normalizer at spec.p, for the rows' y/w; the first is the scalar
    LOG_2PI for the Normal member, whose Vy is 1."""
    if spec.member is Member.NORMAL:
        lead = LOG_2PI
    elif spec.member is Member.INVERSE_GAUSSIAN:
        lead = LOG_2PI + 3.0 * np.log(y)
    else:
        lead = LOG_2PI + spec.p * np.log(np.where(y > 0, y, fam.SADDLE_EPS0))
    return lead, fam.saturated_cumulant_term(spec, y)


def _lognorm_saddle_family(lead, d_sat, log_w, h2, l1, l2, u):
    """logC = -0.5*log(2*pi*Vy*phi*) - Dsat * u for saddlepoint-shaped
    normalizers (exact for Normal and inverse Gaussian), from the rows
    ``lead`` = LOG_2PI + log Vy, Dsat and log w."""
    du = d_sat * u
    c0 = -0.5 * (lead + np.log(h2) - log_w) - du
    c1 = -0.5 * l1 + du * l1
    c2 = -0.5 * (l2 - l1 ** 2) - du * (2.0 * l1 ** 2 - l2)
    return c0, c1, c2


def _lognorm_gamma(y, log_w, h2, l1, l2, u, up, upp):
    log_phis = np.log(h2) - log_w
    log_y = np.log(y)
    c0 = u * (log_y - log_phis) - log_y - special.gammaln(u)
    a = log_y - log_phis - special.digamma(u)
    c1 = up * a - u * l1
    c2 = (upp * a - 2.0 * up * l1 - u * (l2 - l1 ** 2)
          - special.polygamma(1, u) * up ** 2)
    return c0, c1, c2


def _lognorm_terms(data: Dataset, spec: FamilySpec, h2, l1, l2, u, up, upp):
    """Per-row logC and its first two derivatives in the dispersion
    predictor at spec.p, for a member with a dispersion model, from the
    rows of ``_dispersion_scale`` and the derivatives u', u'' of u."""
    y = data.ystar
    if spec.member is Member.GAMMA:
        return _lognorm_gamma(y, data.log_w, h2, l1, l2, u, up, upp)
    if (spec.member is not Member.COMPOUND_POISSON_GAMMA
            or spec.approx is Approx.SADDLEPOINT):
        return _lognorm_saddle_family(*data.saddle_rows(spec), data.log_w,
                                      h2, l1, l2, u)

    # compound Poisson-gamma, series normalizer
    rows, y_pos, w_pos = data.positive_rows
    c0 = np.zeros(data.n_rows)
    c1 = np.zeros(data.n_rows)
    c2 = np.zeros(data.n_rows)
    if rows.size:
        log_a, r1, r2 = fam._series_logsums(y_pos, h2[rows] / w_pos, spec.p)
        l1p, l2p = (r[rows] if np.ndim(r) else r for r in (l1, l2))
        c0[rows] = log_a
        c1[rows] = -r1 * l1p
        c2[rows] = (r2 - r1 ** 2 + r1) * l1p ** 2 - r1 * l2p
    return c0, c1, c2


# ---------------------------------------------------------------------------
# Public assembly
# ---------------------------------------------------------------------------

def _check_member_data(data: Dataset, spec: FamilySpec):
    """The response lies in the member's support, and a Poisson dataset
    has no dispersion design; every entry point that takes a raw
    dataset checks this once, before it builds a block."""
    fam.check_support(spec, data.ystar, what="y/w")
    if not spec.has_dispersion and data.k_gamma:
        raise ConfigError(
            "constant dispersion member: Poisson admits no dispersion model")


def dispersion_terms(data: Dataset, theta: Coefficients, spec: FamilySpec,
                     links: LinkPair) -> np.ndarray:
    """Per-row dispersion-side block at theta's gamma and spec.p.

    Row 2k holds the k-th derivative of logC and row 2k + 1 that of
    u = w/h2(z'gamma) = 1/phi*, both in the dispersion predictor: the
    rows are logC, u, C', u' = -u*h2'/h2, C'' and
    u'' = u*(2*(h2'/h2)**2 - h2''/h2). A member without a dispersion
    model (Poisson) has the first two rows only.

    The rows depend on (gamma, p, y, w) but not on eta, so a fit builds
    them once per accepted (gamma, p) and passes them as ``terms`` to
    every likelihood function at a theta sharing that gamma and p: they
    are replaced when a dispersion or joint step or an index move is
    accepted, and under the series normalizer they are its pass. The
    response's support is not checked here; the caller checks it once
    (``_check_member_data``). ``exponent_terms`` is the mean side's
    counterpart.
    """
    # The block is allocated before the pass's temporaries: built after
    # them (np.stack), the block a fit holds sat above their freed space
    # and raised the peak resident memory of a 72 000-row fit.
    out = np.empty((6 if spec.has_dispersion else 2, data.n_rows))
    with np.errstate(over="ignore", invalid="ignore"):
        h2, l1, l2, out[1] = _dispersion_scale(data, theta, links)
        if not spec.has_dispersion:
            # phi* = 1/w: the scaled-count normalizer, constant in gamma
            out[0] = data.y * data.log_w - special.gammaln(data.y + 1.0)
            return out
        u = out[1]
        out[3] = -u * l1
        out[5] = u * (2.0 * l1 ** 2 - l2)
        out[0], out[2], out[4] = _lognorm_terms(data, spec, h2, l1, l2, u,
                                                out[3], out[5])
    return out


def exponent_terms(data: Dataset, theta: Coefficients, spec: FamilySpec,
                   links: LinkPair) -> np.ndarray:
    """Per-row mean exponent at theta's eta and spec.p: a (3, n) block
    whose rows are D(t), D'(t) and D''(t) at t = X beta + alpha[vertex].

    They depend on (eta, p, y) but not on gamma, so a fit builds them
    once per mean-step or joint-step candidate and per index-grid point
    it visits, and passes those of its accepted (eta, p) as
    ``exponent`` to every likelihood function: the dispersion step's
    candidates and the next mean derivatives reuse them. As for
    ``dispersion_terms``, the caller checks the response's support.
    """
    # allocated before the pass's temporaries, as in dispersion_terms
    out = np.empty((3, data.n_rows))
    t = data.X @ theta.beta + theta.alpha[data.vertex]
    with np.errstate(over="ignore", invalid="ignore"):
        out[0], out[1], out[2] = _mean_exponent(data, spec, links, t)
    return out


def neg_log_lik(terms: np.ndarray, exponent: np.ndarray) -> float:
    """Exposure-adjusted negative log-likelihood of the whole dataset,
    the row sum of D*u + logC over the ``dispersion_terms`` at theta's
    gamma and the ``exponent_terms`` at theta's eta, both at spec.p."""
    with np.errstate(over="ignore", invalid="ignore"):
        rows = exponent[0] * terms[1] + terms[0]
    if not np.all(np.isfinite(rows)):
        bad = int(np.flatnonzero(~np.isfinite(rows))[0])
        raise NonFiniteError("non-finite likelihood contribution", row=bad)
    return -float(rows.sum())


def grad_mean(data: Dataset, terms: np.ndarray,
              exponent: np.ndarray) -> np.ndarray:
    """Gradient of the negative log-likelihood in eta = (beta, alpha);
    ``terms`` and ``exponent`` as in ``neg_log_lik``."""
    coef = exponent[1] * terms[1]
    g_beta = -(data.X.T @ coef)
    g_alpha = -np.bincount(data.vertex, weights=coef,
                           minlength=data.graph.n_vertices)
    return np.concatenate([g_beta, g_alpha])


def hess_mean(data: Dataset, terms: np.ndarray,
              exponent: np.ndarray) -> MeanHessian:
    """Partitioned Hessian in eta; the alpha block is diagonal because
    rows touch exactly one vertex. ``terms`` and ``exponent`` as in
    ``neg_log_lik``.

    The weighted rows q * Xt are formed once on ``data.Xt``: each
    column's per-vertex sum reads one of them contiguously, and the
    Gram product X' (q * X) reads them as its right operand, which keeps
    its products and their order. (q * Xt) @ X would swap the operands'
    roles, and rounds differently for some k_beta."""
    q = -exponent[2] * terms[1]
    qxt = data.Xt * q
    h_bb = data.X.T @ qxt.T
    h_bb = 0.5 * (h_bb + h_bb.T)  # exact symmetry
    h_ba = np.empty((data.k_beta, data.graph.n_vertices))
    for j, row in enumerate(qxt):
        h_ba[j] = np.bincount(data.vertex, weights=row,
                              minlength=data.graph.n_vertices)
    h_aa = np.bincount(data.vertex, weights=q,
                       minlength=data.graph.n_vertices)
    return MeanHessian(h_bb, h_ba, h_aa)


def disp_derivatives(data: Dataset, terms: np.ndarray, exponent: np.ndarray):
    """Gradient and Hessian of the negative log-likelihood in gamma at
    fixed eta (the Hessian symmetric by construction); ``terms`` and
    ``exponent`` as in ``neg_log_lik``. The Hessian's weighted rows are
    formed on ``data.Zt``, as ``hess_mean`` forms its own on ``data.Xt``.
    Raises ConfigError for a member without a dispersion model, whose
    terms hold no derivative rows."""
    if len(terms) == 2:
        raise ConfigError("constant dispersion member")
    if data.k_gamma == 0:
        return np.zeros(0), np.zeros((0, 0))
    _, _, c1, up, c2, upp = terms
    d0 = exponent[0]
    grad = -(data.Z.T @ (d0 * up + c1))
    hess = -(data.Z.T @ (data.Zt * (d0 * upp + c2)).T)
    return grad, 0.5 * (hess + hess.T)


def hess_cross(data: Dataset, terms: np.ndarray, exponent: np.ndarray):
    """The observed mean-dispersion cross block of the Hessian of the
    negative log-likelihood: (h_gb, h_ga), the second derivatives in
    (gamma, beta) and (gamma, alpha), of shapes (k_gamma, k_beta) and
    (k_gamma, n_vertices), with row weight -D'(t) u'(s); ``terms`` (of
    a member with a dispersion model) and ``exponent`` as in
    ``neg_log_lik``. It is zero in expectation, but its observed value
    is not zero away from the optimum. The weighted rows are formed on
    ``data.Zt``, as ``disp_derivatives`` forms its own."""
    zwt = data.Zt * (-exponent[1] * terms[3])
    h_ga = np.empty((data.k_gamma, data.graph.n_vertices))
    for j, row in enumerate(zwt):
        h_ga[j] = np.bincount(data.vertex, weights=row,
                              minlength=data.graph.n_vertices)
    return zwt @ data.X, h_ga


def grad_disp(data: Dataset, terms: np.ndarray,
              exponent: np.ndarray) -> np.ndarray:
    """Gradient of the negative log-likelihood in gamma at fixed eta."""
    return disp_derivatives(data, terms, exponent)[0]


def hess_disp(data: Dataset, terms: np.ndarray,
              exponent: np.ndarray) -> np.ndarray:
    """Hessian of the negative log-likelihood in gamma (symmetric by
    construction)."""
    return disp_derivatives(data, terms, exponent)[1]
