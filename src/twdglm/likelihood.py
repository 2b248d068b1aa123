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
gamma, and with respect to gamma at fixed eta, are exact analytic
derivatives of the same assembly, in closed form per (member, mean
link).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
from scipy import special

from . import family as fam
from .errors import ConfigError, DomainError, NonFiniteError
from .family import Approx, FamilySpec, Member, LOG_2PI
from .graph import ArealGraph
from .links import LinkKind, LinkPair, link_eval


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

    def with_eta(self, eta: np.ndarray) -> "Coefficients":
        kb = self.beta.size
        return Coefficients(eta[:kb], eta[kb:], self.gamma.copy())

    def with_gamma(self, gamma: np.ndarray) -> "Coefficients":
        return Coefficients(self.beta.copy(), self.alpha.copy(), gamma)

    def copy(self) -> "Coefficients":
        return Coefficients(self.beta.copy(), self.alpha.copy(),
                            self.gamma.copy())

    @classmethod
    def from_vector(cls, vec: np.ndarray, k_beta: int, n_vertices: int,
                    k_gamma: int) -> "Coefficients":
        vec = np.asarray(vec, dtype=float)
        if vec.size != k_beta + n_vertices + k_gamma:
            raise ConfigError("coefficient vector has wrong length")
        return cls(vec[:k_beta], vec[k_beta:k_beta + n_vertices],
                   vec[k_beta + n_vertices:])


@dataclass(eq=False)
class Dataset:
    """Observations over an areal graph.

    ``y`` is the raw response (a total over exposure ``w``); ``vertex``
    indexes the graph; ``X`` and ``Z`` are the mean and dispersion
    design matrices (intercept columns, if wanted, must be present as
    columns). ``Z`` may have zero columns, fixing the dispersion at
    h2(0).
    """

    y: np.ndarray
    w: np.ndarray
    vertex: np.ndarray
    X: np.ndarray
    Z: np.ndarray
    graph: ArealGraph

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
                beta[0] = _apply_forward(links.mean.kind, ybar)
            if self.k_gamma:
                resid2 = float(np.mean((self.ystar - ybar) ** 2))
                vfun = max(abs(ybar), 1e-8) ** spec.p
                phi0 = min(max(resid2 / vfun, 1e-4), 1e6)
                gamma[0] = _apply_forward(links.disp.kind, phi0)
        except DomainError:
            beta = np.zeros(self.k_beta)
            gamma = np.zeros(self.k_gamma)
        return Coefficients(beta, np.zeros(self.graph.n_vertices), gamma)


def _apply_forward(kind: LinkKind, value: float) -> float:
    from .links import link_apply
    return float(link_apply(kind, value))


@dataclass
class MeanHessian:
    """Partitioned Hessian in eta: dense beta block, beta-alpha cross
    block, and the structurally diagonal alpha block stored as a vector."""

    h_bb: np.ndarray
    h_ba: np.ndarray
    h_aa_diag: np.ndarray

    @property
    def order(self) -> int:
        return self.h_bb.shape[0] + self.h_aa_diag.size

    def to_dense(self) -> np.ndarray:
        kb = self.h_bb.shape[0]
        n = self.order
        out = np.zeros((n, n))
        out[:kb, :kb] = self.h_bb
        out[:kb, kb:] = self.h_ba
        out[kb:, :kb] = self.h_ba.T
        out[kb:, kb:] = np.diag(self.h_aa_diag)
        return out

    def matvec(self, eta: np.ndarray) -> np.ndarray:
        kb = self.h_bb.shape[0]
        beta, alpha = eta[:kb], eta[kb:]
        top = self.h_bb @ beta + self.h_ba @ alpha
        bottom = self.h_ba.T @ beta + self.h_aa_diag * alpha
        return np.concatenate([top, bottom])


def _predictors(data: Dataset, theta: Coefficients):
    t = data.X @ theta.beta + theta.alpha[data.vertex]
    return t, _disp_predictor(data, theta)


def _disp_predictor(data: Dataset, theta: Coefficients):
    return data.Z @ theta.gamma if data.k_gamma else np.zeros(data.n_rows)


def _dispersion_scale(data: Dataset, links: LinkPair, s: np.ndarray):
    """Per-row link values for the dispersion side.

    Returns (h2, L1, L2, u) with L1 = h2'/h2, L2 = h2''/h2 and
    u = w/h2 = 1/phi*.
    """
    kind = links.disp.kind
    h2 = link_eval(kind, s, 0)
    if np.any(h2 <= 0):
        raise DomainError("dispersion must be positive at every row")
    if kind is LinkKind.LOG:
        one = np.ones_like(h2)
        l1, l2 = one, one
    else:  # identity
        l1 = 1.0 / h2
        l2 = np.zeros_like(h2)
    return h2, l1, l2, data.w / h2


# ---------------------------------------------------------------------------
# Mean-side exponent D(t) and derivatives
# ---------------------------------------------------------------------------

def _mean_exponent(data: Dataset, spec: FamilySpec, links: LinkPair,
                   t: np.ndarray, p: float):
    """D(t), D'(t), D''(t) per row at the mean predictor t."""
    y = data.ystar
    kind = links.mean.kind
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
# Dispersion-side log-normalizer logC(s) and derivatives
# ---------------------------------------------------------------------------

def _lognorm_saddle_family(log_vy, d_sat, w, h2, l1, l2, want_derivs):
    """logC = -0.5*log(2*pi*Vy*phi*) - Dsat * u for saddlepoint-shaped
    normalizers (exact for Normal and inverse Gaussian)."""
    u = w / h2
    c0 = -0.5 * (LOG_2PI + log_vy + np.log(h2) - np.log(w)) - d_sat * u
    if not want_derivs:
        return c0, None, None
    c1 = -0.5 * l1 + d_sat * u * l1
    c2 = -0.5 * (l2 - l1 ** 2) - d_sat * u * (2.0 * l1 ** 2 - l2)
    return c0, c1, c2


def _lognorm_gamma(y, w, h2, l1, l2, want_derivs):
    u = w / h2                      # 1/phi*
    log_phis = np.log(h2) - np.log(w)
    log_y = np.log(y)
    c0 = u * (log_y - log_phis) - log_y - special.gammaln(u)
    if not want_derivs:
        return c0, None, None
    up = -u * l1
    upp = u * (2.0 * l1 ** 2 - l2)
    a = log_y - log_phis - special.digamma(u)
    c1 = up * a - u * l1
    c2 = (upp * a - 2.0 * up * l1 - u * (l2 - l1 ** 2)
          - special.polygamma(1, u) * up ** 2)
    return c0, c1, c2


def _lognorm_terms(data: Dataset, spec: FamilySpec, links: LinkPair,
                   s: np.ndarray, p: float, want_derivs: bool):
    """Per-row logC and its first two derivatives in the dispersion
    predictor. Derivative outputs are None when not requested or when
    the member has no dispersion model."""
    y = data.ystar
    w = data.w
    mem = spec.member
    h2, l1, l2, u = _dispersion_scale(data, links, s)

    if mem is Member.POISSON:
        # phi* = 1/w: the scaled-count normalizer, constant in gamma
        c0 = data.y * np.log(w) - special.gammaln(data.y + 1.0)
        return c0, None, None
    if mem is Member.NORMAL:
        return _lognorm_saddle_family(
            np.zeros_like(y), y ** 2 / 2.0, w, h2, l1, l2, want_derivs)
    if mem is Member.INVERSE_GAUSSIAN:
        return _lognorm_saddle_family(
            3.0 * np.log(y), 0.5 / y, w, h2, l1, l2, want_derivs)
    if mem is Member.GAMMA:
        return _lognorm_gamma(y, w, h2, l1, l2, want_derivs)

    # compound Poisson-gamma
    if spec.approx is Approx.SADDLEPOINT:
        v_arg = np.where(y > 0, y, spec.eps0)
        d_sat = fam.saturated_cumulant_term(spec.with_p(p), y)
        return _lognorm_saddle_family(
            p * np.log(v_arg), d_sat, w, h2, l1, l2, want_derivs)

    pos = y > 0
    c0 = np.zeros(data.n_rows)
    c1 = np.zeros(data.n_rows) if want_derivs else None
    c2 = np.zeros(data.n_rows) if want_derivs else None
    if np.any(pos):
        phis = h2[pos] / w[pos]
        log_a, r1, r2 = fam._series_logsums(
            y[pos], phis, p, spec.series_rtol, spec.series_kmax_cap)
        c0[pos] = log_a
        if want_derivs:
            l1p, l2p = l1[pos], l2[pos]
            c1[pos] = -r1 * l1p
            c2[pos] = (r2 - r1 ** 2 + r1) * l1p ** 2 - r1 * l2p
    return c0, c1, c2


# ---------------------------------------------------------------------------
# Public assembly
# ---------------------------------------------------------------------------

def _check_member_data(data: Dataset, spec: FamilySpec):
    fam.check_support(spec, data.ystar, what="y/w")
    if spec.member is Member.POISSON and data.k_gamma:
        raise ConfigError(
            "constant dispersion member: Poisson admits no dispersion model")


def lognorm_terms(data: Dataset, theta: Coefficients, spec: FamilySpec,
                  links: LinkPair, p: float | None = None) -> np.ndarray:
    """Per-row log-normalizer terms at theta's gamma and p: an array
    whose rows are logC (c0) and, for a member with a dispersion model,
    its first two derivatives in the dispersion predictor (c1, c2).

    They depend on (gamma, p, y, w) but not on eta, so a fit computes
    them once per accepted (gamma, p) and passes them as ``terms`` to
    ``neg_log_lik`` and ``disp_derivatives`` at every theta sharing
    that gamma and p; under the series normalizer they are its pass.
    The rows share one block because a fit holds it across iterations:
    three separate arrays, left between the pass's temporaries, raised
    the peak resident memory of a 72 000-row fit by about 1.5 MB.
    """
    _check_member_data(data, spec)
    pp = spec.p if p is None else p
    with np.errstate(over="ignore", invalid="ignore"):
        c0, c1, c2 = _lognorm_terms(data, spec, links,
                                    _disp_predictor(data, theta), pp,
                                    want_derivs=True)
    return c0[None] if c1 is None else np.stack([c0, c1, c2])


def neg_log_lik(data: Dataset, theta: Coefficients, spec: FamilySpec,
                links: LinkPair, p: float | None = None,
                terms=None) -> float:
    """Exposure-adjusted negative log-likelihood of the whole dataset.

    ``terms``, when given, are ``lognorm_terms`` at theta's gamma and p
    and stand in for the normalizer.
    """
    _check_member_data(data, spec)
    if data.n_rows == 0:
        return 0.0
    pp = spec.p if p is None else p
    t, s = _predictors(data, theta)
    with np.errstate(over="ignore", invalid="ignore"):
        d0, _, _ = _mean_exponent(data, spec, links, t, pp)
        _, _, _, u = _dispersion_scale(data, links, s)
        if terms is None:
            terms = _lognorm_terms(data, spec, links, s, pp,
                                   want_derivs=False)
        rows = d0 * u + terms[0]
    if not np.all(np.isfinite(rows)):
        bad = int(np.flatnonzero(~np.isfinite(rows))[0])
        raise NonFiniteError("non-finite likelihood contribution", row=bad)
    return -float(rows.sum())


def nll_or_inf(data: Dataset, theta: Coefficients, spec: FamilySpec,
               links: LinkPair, p: float | None = None,
               terms=None) -> float:
    """As neg_log_lik but mapping domain violations to +inf.

    Used by the step-acceptance rule so out-of-domain candidates are
    rejected rather than fatal.
    """
    try:
        return neg_log_lik(data, theta, spec, links, p=p, terms=terms)
    except (DomainError, NonFiniteError):
        return np.inf


def grad_mean(data: Dataset, theta: Coefficients, spec: FamilySpec,
              links: LinkPair, p: float | None = None) -> np.ndarray:
    """Gradient of the negative log-likelihood in eta = (beta, alpha)."""
    _check_member_data(data, spec)
    pp = spec.p if p is None else p
    t, s = _predictors(data, theta)
    _, d1, _ = _mean_exponent(data, spec, links, t, pp)
    _, _, _, u = _dispersion_scale(data, links, s)
    coef = d1 * u
    g_beta = -(data.X.T @ coef)
    g_alpha = -np.bincount(data.vertex, weights=coef,
                           minlength=data.graph.n_vertices)
    return np.concatenate([g_beta, g_alpha])


def hess_mean(data: Dataset, theta: Coefficients, spec: FamilySpec,
              links: LinkPair, p: float | None = None) -> MeanHessian:
    """Partitioned Hessian in eta; the alpha block is diagonal because
    rows touch exactly one vertex."""
    _check_member_data(data, spec)
    pp = spec.p if p is None else p
    t, s = _predictors(data, theta)
    _, _, d2 = _mean_exponent(data, spec, links, t, pp)
    _, _, _, u = _dispersion_scale(data, links, s)
    q = -d2 * u
    kb = data.k_beta
    h_bb = data.X.T @ (q[:, None] * data.X)
    h_bb = 0.5 * (h_bb + h_bb.T)  # exact symmetry
    h_ba = np.empty((kb, data.graph.n_vertices))
    for j in range(kb):
        h_ba[j] = np.bincount(data.vertex, weights=q * data.X[:, j],
                              minlength=data.graph.n_vertices)
    h_aa = np.bincount(data.vertex, weights=q,
                       minlength=data.graph.n_vertices)
    return MeanHessian(h_bb, h_ba, h_aa)


def disp_derivatives(data: Dataset, theta: Coefficients, spec: FamilySpec,
                     links: LinkPair, p: float | None = None, terms=None):
    """Gradient and Hessian of the negative log-likelihood in gamma at
    fixed eta, from one pass over the normalizer, or none when its
    ``terms`` at theta's gamma and p are given (the Hessian is
    symmetric by construction)."""
    _check_member_data(data, spec)
    if spec.member is Member.POISSON:
        raise ConfigError("constant dispersion member")
    if data.k_gamma == 0:
        return np.zeros(0), np.zeros((0, 0))
    pp = spec.p if p is None else p
    t, s = _predictors(data, theta)
    d0, _, _ = _mean_exponent(data, spec, links, t, pp)
    _, l1, l2, u = _dispersion_scale(data, links, s)
    if terms is None:
        terms = _lognorm_terms(data, spec, links, s, pp, want_derivs=True)
    _, c1, c2 = terms
    up = -u * l1
    upp = u * (2.0 * l1 ** 2 - l2)
    grad = -(data.Z.T @ (d0 * up + c1))
    hess = -(data.Z.T @ ((d0 * upp + c2)[:, None] * data.Z))
    return grad, 0.5 * (hess + hess.T)


def grad_disp(data: Dataset, theta: Coefficients, spec: FamilySpec,
              links: LinkPair, p: float | None = None) -> np.ndarray:
    """Gradient of the negative log-likelihood in gamma at fixed eta."""
    return disp_derivatives(data, theta, spec, links, p)[0]


def hess_disp(data: Dataset, theta: Coefficients, spec: FamilySpec,
              links: LinkPair, p: float | None = None) -> np.ndarray:
    """Hessian of the negative log-likelihood in gamma (symmetric by
    construction)."""
    return disp_derivatives(data, theta, spec, links, p)[1]
