"""Shared instance generators, oracles and finite-difference helpers."""

import csv

import numpy as np
from hypothesis import settings
from scipy import linalg, special

from twdglm import family as fam
from twdglm import likelihood as lik
from twdglm import optimizer as opt
from twdglm.errors import (ConfigError, DomainError, NonFiniteError,
                           SchemaError, SeriesInfeasibleError)
from twdglm.family import Approx, FamilySpec, Member
from twdglm.graph import PenaltyMode, SpatialBand, lattice_graph
from twdglm.likelihood import Coefficients, Dataset, grad_mean, hess_mean
from twdglm.links import LinkKind, LinkPair, link_eval

# One Hypothesis profile for the suite: the same examples on every run
# and no per-example time limit; each test sets only its max_examples.
settings.register_profile("twdglm", derandomize=True, deadline=None)
settings.load_profile("twdglm")

# links whose inverse maps need a positive predictor
POSITIVE_PREDICTOR_LINKS = {LinkKind.SQRT, LinkKind.INVERSE,
                            LinkKind.INVERSE_SQUARED}


def spec_for(member: Member, p_cpg: float = 1.5,
             approx: Approx = Approx.SERIES) -> FamilySpec:
    if member is Member.COMPOUND_POISSON_GAMMA:
        return FamilySpec.compound_poisson_gamma(p_cpg, approx=approx)
    return FamilySpec(member, fam._MEMBERS[member].fixed_p)


# h'(t) and h''(t) of each link's inverse map h
LINK_DERIVATIVES = {
    LinkKind.LOG: (np.exp, np.exp),
    LinkKind.IDENTITY: (np.ones_like, np.zeros_like),
    LinkKind.SQRT: (lambda t: 2.0 * t, lambda t: np.full_like(t, 2.0)),
    LinkKind.INVERSE: (lambda t: -t ** -2.0, lambda t: 2.0 * t ** -3.0),
    LinkKind.INVERSE_SQUARED: (lambda t: -0.5 * t ** -1.5,
                               lambda t: 0.75 * t ** -2.5),
}


def link_inverse(kind, t, order=0):
    """h(t) by ``link_eval``, its domain checks included, or h's
    derivative of that order; the oracle for the chain rule that the
    likelihood's closed forms fold in."""
    h = link_eval(kind, t)
    if order == 0:
        return h
    out = LINK_DERIVATIVES[kind][order - 1](np.asarray(t, dtype=float))
    return float(out) if np.ndim(t) == 0 else out


def sample_response(member: Member, rng: np.random.Generator, n: int,
                    p: float = 1.5) -> np.ndarray:
    """Any valid support draw; correctness of the law is not needed for
    derivative checks."""
    if member is Member.NORMAL:
        return rng.normal(1.0, 0.8, n)
    if member is Member.POISSON:
        return rng.poisson(2.0, n).astype(float)
    if member in (Member.GAMMA, Member.INVERSE_GAUSSIAN):
        return rng.gamma(2.0, 1.0, n) + 0.05
    zeros = rng.random(n) < 0.2
    return np.where(zeros, 0.0, rng.gamma(1.5, 1.2, n))


def make_instance(member: Member, mean_link, disp_link="log", n=50,
                  rows=1, cols=5, k_beta=3, k_gamma=2, seed=0,
                  p_cpg=1.5, approx=Approx.SERIES):
    """Random (data, theta, spec, links) valid for the member and links."""
    mean_kind = LinkKind.from_name(mean_link) if isinstance(mean_link, str) \
        else mean_link
    links = LinkPair.of(mean_kind, disp_link)
    spec = spec_for(member, p_cpg, approx)
    rng = np.random.default_rng(seed)
    g = lattice_graph(rows, cols)
    n_v = g.n_vertices
    vertex = rng.integers(0, n_v, n)
    positive = mean_kind in POSITIVE_PREDICTOR_LINKS or (
        mean_kind is LinkKind.IDENTITY
        and member in (Member.POISSON, Member.GAMMA))
    if positive:
        X = np.column_stack([np.ones(n)]
                            + [rng.uniform(0.4, 1.2, n)
                               for _ in range(k_beta - 1)])
        beta = np.concatenate([[1.0], rng.uniform(0.05, 0.25, k_beta - 1)])
        alpha = rng.uniform(0.0, 0.15, n_v)
    else:
        X = np.column_stack([np.ones(n)]
                            + [rng.normal(0.0, 0.4, n)
                               for _ in range(k_beta - 1)])
        beta = np.concatenate([[0.3], rng.normal(0.0, 0.2, k_beta - 1)])
        alpha = rng.normal(0.0, 0.15, n_v)
    if member is Member.POISSON:
        k_gamma = 0
    if k_gamma:
        Z = np.column_stack([np.ones(n)]
                            + [rng.normal(0.0, 0.3, n)
                               for _ in range(k_gamma - 1)])
        if disp_link == "identity":
            gamma = np.concatenate([[1.2], rng.uniform(-0.1, 0.1,
                                                       k_gamma - 1)])
        else:
            gamma = np.concatenate([[0.2], rng.normal(0.0, 0.1,
                                                      k_gamma - 1)])
    else:
        Z = np.zeros((n, 0))
        gamma = np.zeros(0)
    y = sample_response(member, rng, n, p_cpg)
    data = Dataset(y, np.ones(n), vertex, X, Z, g)
    theta = Coefficients(beta, alpha, gamma)
    return data, theta, spec, links


def with_eta(theta, eta):
    """theta with its mean block eta = (beta, alpha) replaced."""
    kb = theta.beta.size
    return Coefficients(eta[:kb], eta[kb:], theta.gamma.copy())


def with_gamma(theta, gamma):
    """theta with its dispersion block gamma replaced."""
    return Coefficients(theta.beta.copy(), theta.alpha.copy(), gamma)


def blocks(data, theta, spec, links):
    """The two likelihood blocks at theta under spec: (dispersion terms,
    mean exponent), the arguments every likelihood function takes after
    the dataset."""
    return (lik.dispersion_terms(data, theta, spec, links),
            lik.exponent_terms(data, theta, spec, links))


def nll_at(data, theta, spec, links):
    """The negative log-likelihood at theta under spec."""
    return lik.neg_log_lik(*blocks(data, theta, spec, links))


def step_derivs(step_kind, data, theta, spec, links):
    """``optimizer._block_derivatives`` at theta under spec: what a
    ``step_kind`` block step solves with."""
    return opt._block_derivatives(
        step_kind, data, opt._evaluate(data, theta, spec, links, 0.0))


def predictors(data, theta):
    """Per-row mean predictor t = X beta + alpha[vertex] and dispersion
    predictor s = Z gamma."""
    return (data.X @ theta.beta + theta.alpha[data.vertex],
            data.Z @ theta.gamma)


def penalty_mask(pen) -> np.ndarray:
    """1 on the coefficients the ridge term penalizes, 0 elsewhere."""
    a = np.zeros(pen.dim)
    if pen.mode is PenaltyMode.SPATIAL_ONLY:
        a[pen.k_beta:pen.k_beta + pen.n_vertices] = 1.0
    else:
        a[:] = 1.0
    return a


def identity_block(pen) -> np.ndarray:
    """Dense I0 over the full coefficient vector."""
    return np.diag(penalty_mask(pen))


def laplacian_block(pen) -> np.ndarray:
    """Dense W0 over the full coefficient vector (Laplacian in the alpha
    slot)."""
    kb, nv = pen.k_beta, pen.n_vertices
    w0 = np.zeros((pen.dim, pen.dim))
    w0[kb:kb + nv, kb:kb + nv] = pen.laplacian.toarray()
    return w0


def dense_hessian(hess) -> np.ndarray:
    """A partitioned ``MeanHessian`` as one dense (beta, alpha) matrix."""
    kb = hess.h_bb.shape[0]
    n = kb + hess.h_aa_diag.size
    out = np.zeros((n, n))
    out[:kb, :kb] = hess.h_bb
    out[:kb, kb:] = hess.h_ba
    out[kb:, :kb] = hess.h_ba.T
    out[kb:, kb:] = np.diag(hess.h_aa_diag)
    return out


def dense_mean_matrix(hess, pen, c1) -> np.ndarray:
    """Dense mean-step matrix c1*H + l1*I0 + l2*W0 over (beta, alpha)."""
    m = pen.k_beta + pen.n_vertices
    big = pen.lambda1 * identity_block(pen) \
        + pen.lambda2 * laplacian_block(pen)
    return c1 * dense_hessian(hess) + big[:m, :m]


def dense_mean_step(data, theta, spec, links, pen, c1):
    """Reference eta* of one mean step by dense Cholesky; None when the
    system is not positive definite."""
    held = blocks(data, theta, spec, links)
    hess = hess_mean(data, *held)
    rhs = c1 * dense_hessian(hess) @ theta.eta - grad_mean(data, *held)
    try:
        factor = linalg.cho_factor(dense_mean_matrix(hess, pen, c1))
    except linalg.LinAlgError:
        return None
    return linalg.cho_solve(factor, rhs)


def dense_joint_hessian(hess, gamma_block) -> np.ndarray:
    """A ``MeanHessian`` and the (H_gg, H_gb, H_ga) of a joint step as one
    dense (beta, alpha, gamma) matrix."""
    h_gg, h_gb, h_ga = gamma_block
    m = hess.h_aa_diag.size + hess.h_bb.shape[0]
    out = np.zeros((m + h_gg.shape[0],) * 2)
    out[:m, :m] = dense_hessian(hess)
    out[m:, :m] = np.hstack([h_gb, h_ga])
    out[:m, m:] = out[m:, :m].T
    out[m:, m:] = h_gg
    return out


def dense_joint_matrix(hess, gamma_block, pen, c) -> np.ndarray:
    """Dense joint-step matrix c*H + l1*I0 + l2*W0 over (beta, alpha,
    gamma)."""
    return c * dense_joint_hessian(hess, gamma_block) \
        + pen.lambda1 * identity_block(pen) + pen.lambda2 * laplacian_block(pen)


def dense_joint_step(data, theta, spec, links, pen, c):
    """Reference theta* of one joint step, packed as (beta, alpha,
    gamma), by dense Cholesky of [l1*I0 + l2*W0 + c*H] theta* =
    c*H theta - grad over the whole system, with H's cross block taken
    from ``hess_cross``; None when the system is not positive definite.
    ``dense_mean_step`` is its mean block alone."""
    held = blocks(data, theta, spec, links)
    g_gamma, h_gg = lik.disp_derivatives(data, *held)
    hess = hess_mean(data, *held)
    gamma_block = (h_gg, *lik.hess_cross(data, *held))
    rhs = c * dense_joint_hessian(hess, gamma_block) @ theta.as_vector() \
        - np.concatenate([grad_mean(data, *held), g_gamma])
    try:
        factor = linalg.cho_factor(dense_joint_matrix(hess, gamma_block, pen,
                                                      c))
    except linalg.LinAlgError:
        return None
    return linalg.cho_solve(factor, rhs)


def min_norm_mean_solve(hess, pen, c1, rhs, rcond=None) -> np.ndarray:
    """Minimum-norm least-squares solution of the dense mean-step system,
    singular values up to ``rcond`` times the largest taken as zero
    (lstsq's default when None); the oracle for the lambda1 = 0 solve in
    ``optimizer._sparse_schur_solve``."""
    sol, *_ = np.linalg.lstsq(dense_mean_matrix(hess, pen, c1), rhs,
                              rcond=rcond)
    return sol


def min_norm_mean_step(theta, penalty, c, derivs):
    """``optimizer.solve_mean_step`` by the dense minimum-norm
    least-squares solution of [P + c*H] theta* = c*H theta - grad over
    its block, (beta, alpha) for a mean step and (beta, alpha, gamma)
    for a joint one, in place of the partitioned solve; a fit with it
    patched in is the oracle for lambda1 = 0 fits."""
    g, hess, gamma_block = derivs
    if gamma_block is None:
        return min_norm_mean_solve(
            hess, penalty, c, c * dense_hessian(hess) @ theta.eta - g)
    sol, *_ = np.linalg.lstsq(
        dense_joint_matrix(hess, gamma_block, penalty, c),
        c * dense_joint_hessian(hess, gamma_block) @ theta.as_vector() - g,
        rcond=None)
    return sol


def dense_fisher_information(data, theta_hat, spec_hat, links):
    """Observed information over (beta, alpha, gamma) as one dense
    matrix, with the mean-dispersion cross block left at zero, its
    expectation, as the Wald rows take it; the oracle for the blocks of
    ``inference.fisher_information``."""
    held = blocks(data, theta_hat, spec_hat, links)
    mean_block = dense_hessian(hess_mean(data, *held))
    kg = data.k_gamma
    if kg and spec_hat.member is not Member.POISSON:
        disp_block = lik.hess_disp(data, *held)
    else:
        disp_block = np.zeros((kg, kg))
    m = mean_block.shape[0]
    info = np.zeros((m + kg, m + kg))
    info[:m, :m] = mean_block
    info[m:, m:] = disp_block
    return info


def theta_of_mu(spec, mu, order: int = 0):
    """Canonical parameter theta(mu) and its first two mu-derivatives."""
    m = np.asarray(mu, dtype=float)
    fam.check_mean_space(spec, m)
    p = spec.p
    mem = spec.member
    if order == 0:
        if mem is Member.NORMAL:
            out = m.copy()
        elif mem is Member.POISSON:
            out = np.log(m)
        elif mem is Member.GAMMA:
            out = -1.0 / m
        elif mem is Member.INVERSE_GAUSSIAN:
            out = -0.5 / m ** 2
        else:
            out = m ** (1 - p) / (1 - p)
    elif order == 1:
        # theta'(mu) = 1 / V(mu) for every member
        if mem is Member.NORMAL:
            out = np.ones_like(m)
        else:
            out = m ** (-p)
    elif order == 2:
        if mem is Member.NORMAL:
            out = np.zeros_like(m)
        else:
            out = -p * m ** (-p - 1)
    else:
        raise ValueError("order must be 0, 1 or 2")
    return float(out) if m.ndim == 0 else out


def cumulant_of_mu(spec, mu):
    """Cumulant kappa(theta(mu)) expressed directly in the mean."""
    m = np.asarray(mu, dtype=float)
    fam.check_mean_space(spec, m)
    mem = spec.member
    if mem is Member.NORMAL:
        out = m ** 2 / 2.0
    elif mem is Member.POISSON:
        out = m.copy()
    elif mem is Member.GAMMA:
        out = np.log(m)
    elif mem is Member.INVERSE_GAUSSIAN:
        out = -1.0 / m
    else:
        out = m ** (2 - spec.p) / (2 - spec.p)
    return float(out) if m.ndim == 0 else out


def mean_exponent_generic(data, spec, kind, t):
    """Chain-rule D(t), D'(t), D''(t) through the canonical map at
    spec.p, from the natural parameter theta(t) = theta(h(t)) of
    ``natural_from_predictor``: D = y theta(t) - kappa, D' = theta'(t)
    (y - mu) and D'' = theta''(t) (y - mu) - h'(t) theta'(t); the oracle
    for the closed forms in ``likelihood._mean_exponent``."""
    y = data.ystar
    mu = link_inverse(kind, t)
    nat1 = natural_from_predictor(spec, kind, t, 1)
    d0 = y * natural_from_predictor(spec, kind, t) - cumulant_of_mu(spec, mu)
    d1 = nat1 * (y - mu)
    d2 = (natural_from_predictor(spec, kind, t, 2) * (y - mu)
          - link_inverse(kind, t, 1) * nat1)
    return d0, d1, d2


def natural_from_predictor(spec, kind, t, order=0):
    """Canonical parameter theta(h(t)) of the mean predictor (order 0)
    and its first two t-derivatives by the chain rule; the composition
    that the closed forms in ``likelihood._mean_exponent`` fold in, and
    from which ``mean_exponent_generic`` builds its oracle."""
    scalar = np.ndim(t) == 0
    mu = link_inverse(kind, t)
    fam.check_mean_space(spec, mu, what="h(t)")
    if order == 0:
        out = theta_of_mu(spec, mu, 0)
    elif order == 1:
        out = theta_of_mu(spec, mu, 1) * link_inverse(kind, t, 1)
    elif order == 2:
        h1 = link_inverse(kind, t, 1)
        out = (theta_of_mu(spec, mu, 2) * np.asarray(h1) ** 2
               + theta_of_mu(spec, mu, 1) * link_inverse(kind, t, 2))
    else:
        raise ValueError("order must be 0, 1 or 2")
    return float(out) if scalar else np.asarray(out)


def scan_update_index(data, theta_star, spec, links, p_grid, nll_cur=None):
    """(p, nll at p) by evaluating the likelihood at every grid point,
    the point at ``spec.p`` taken as ``nll_cur`` when given, and taking
    the first minimum; the oracle for the walk in
    ``optimizer.update_index``."""
    grid = np.asarray(p_grid, dtype=float).ravel()
    if spec.member is not Member.COMPOUND_POISSON_GAMMA or grid.size == 0:
        grid = np.array([spec.p])

    def nll_or_inf(pk):
        try:
            return nll_at(data, theta_star, spec.with_p(pk), links)
        except (DomainError, NonFiniteError, SeriesInfeasibleError):
            return np.inf

    values = [nll_cur if nll_cur is not None and pk == spec.p
              else nll_or_inf(pk) for pk in grid]
    best = int(np.argmin(values))
    return float(grid[best]), float(values[best])


def series_mode(y, phi, p: float):
    """Index k at which the Bessel-series terms peak:
    y**(2-p) / ((2-p)*phi), the centre of the summation window."""
    return np.asarray(y, dtype=float) ** (2.0 - p) / (
        (2.0 - p) * np.asarray(phi, dtype=float))


def series_log_terms(y, phi, p, k):
    """log T_k = k log t - log k! - log Gamma(k xi) of the Bessel series,
    one row per y and one column per k."""
    y = np.atleast_1d(np.asarray(y, dtype=float))
    phi = np.broadcast_to(np.asarray(phi, dtype=float), y.shape)
    xi = (2.0 - p) / (p - 1.0)
    log_t = (xi * np.log(y) - xi * np.log(p - 1.0) - np.log(2.0 - p)
             - (1.0 + xi) * np.log(phi))
    return np.outer(log_t, k) - (special.gammaln(k + 1.0)
                                 + special.gammaln(xi * k))


def full_series_logsums(y, phi, p):
    """(log_a, r1, r2) of the Bessel series summed over k = 1..K, with K
    doubled until each row's last term is below e^-40 of its largest;
    the oracle for the windowed ``family._series_logsums``."""
    y = np.atleast_1d(np.asarray(y, dtype=float))
    big_k = 64
    while True:
        k = np.arange(1.0, big_k + 1.0)
        log_terms = series_log_terms(y, phi, p, k)
        top = log_terms.max(axis=1)
        if np.all(log_terms[:, -1] < top - 40.0):
            break
        big_k *= 2
    wts = np.exp(log_terms - top[:, None])
    s0 = wts.sum(axis=1)
    scale = 1.0 + (2.0 - p) / (p - 1.0)
    return (-np.log(y) + top + np.log(s0),
            scale * (wts @ k) / s0,
            scale ** 2 * (wts @ (k * k)) / s0)


# The likelihood kernels as they were before the dataset held the
# transposes of X and Z and the saddlepoint rows: exact oracles for the
# kernels that read the held arrays, which add the same terms in the
# same order.

def rowmajor_hess_mean(data, terms, exponent) -> lik.MeanHessian:
    """``likelihood.hess_mean`` with the Gram product X' (q * X) and a
    strided column q * X[:, j] per per-vertex sum."""
    q = -exponent[2] * terms[1]
    kb = data.k_beta
    h_bb = data.X.T @ (q[:, None] * data.X)
    h_bb = 0.5 * (h_bb + h_bb.T)  # exact symmetry
    h_ba = np.empty((kb, data.graph.n_vertices))
    for j in range(kb):
        h_ba[j] = np.bincount(data.vertex, weights=q * data.X[:, j],
                              minlength=data.graph.n_vertices)
    h_aa = np.bincount(data.vertex, weights=q,
                       minlength=data.graph.n_vertices)
    return lik.MeanHessian(h_bb, h_ba, h_aa)


def rowmajor_disp_derivatives(data, terms, exponent):
    """``likelihood.disp_derivatives`` with the Hessian as Z' (r * Z)."""
    if len(terms) == 2:
        raise ConfigError("constant dispersion member")
    if data.k_gamma == 0:
        return np.zeros(0), np.zeros((0, 0))
    _, _, c1, up, c2, upp = terms
    d0 = exponent[0]
    grad = -(data.Z.T @ (d0 * up + c1))
    hess = -(data.Z.T @ ((d0 * upp + c2)[:, None] * data.Z))
    return grad, 0.5 * (hess + hess.T)


def _unheld_dispersion_scale(data, theta, links):
    s = data.Z @ theta.gamma if data.k_gamma else np.zeros(data.n_rows)
    h2 = link_eval(links.disp, s)
    fam.check_dispersion(h2, "dispersion at every row")
    if links.disp is LinkKind.LOG:
        one = np.ones_like(h2)
        l1, l2 = one, one
    else:  # identity
        l1 = 1.0 / h2
        l2 = np.zeros_like(h2)
    return h2, l1, l2, data.w / h2


def _unheld_lognorm_saddle_family(log_vy, d_sat, w, h2, l1, l2, u):
    du = d_sat * u
    c0 = -0.5 * (fam.LOG_2PI + log_vy + np.log(h2) - np.log(w)) - du
    c1 = -0.5 * l1 + du * l1
    c2 = -0.5 * (l2 - l1 ** 2) - du * (2.0 * l1 ** 2 - l2)
    return c0, c1, c2


def _unheld_lognorm_gamma(y, w, h2, l1, l2, u, up, upp):
    log_phis = np.log(h2) - np.log(w)
    log_y = np.log(y)
    c0 = u * (log_y - log_phis) - log_y - special.gammaln(u)
    a = log_y - log_phis - special.digamma(u)
    c1 = up * a - u * l1
    c2 = (upp * a - 2.0 * up * l1 - u * (l2 - l1 ** 2)
          - special.polygamma(1, u) * up ** 2)
    return c0, c1, c2


def _unheld_lognorm_terms(data, spec, h2, l1, l2, u, up, upp):
    y = data.ystar
    w = data.w
    mem = spec.member
    if mem is Member.NORMAL:
        return _unheld_lognorm_saddle_family(
            np.zeros_like(y), y ** 2 / 2.0, w, h2, l1, l2, u)
    if mem is Member.INVERSE_GAUSSIAN:
        return _unheld_lognorm_saddle_family(
            3.0 * np.log(y), 0.5 / y, w, h2, l1, l2, u)
    if mem is Member.GAMMA:
        return _unheld_lognorm_gamma(y, w, h2, l1, l2, u, up, upp)

    # compound Poisson-gamma
    if spec.approx is Approx.SADDLEPOINT:
        p = spec.p
        d_sat = np.zeros_like(y)
        d_sat[y > 0] = y[y > 0] ** (2 - p) * (1.0 / (1 - p) - 1.0 / (2 - p))
        return _unheld_lognorm_saddle_family(
            p * np.log(np.where(y > 0, y, fam.SADDLE_EPS0)), d_sat, w, h2,
            l1, l2, u)

    pos = y > 0
    c0 = np.zeros(data.n_rows)
    c1 = np.zeros(data.n_rows)
    c2 = np.zeros(data.n_rows)
    if np.any(pos):
        log_a, r1, r2 = fam._series_logsums(y[pos], h2[pos] / w[pos],
                                              spec.p)
        l1p, l2p = l1[pos], l2[pos]
        c0[pos] = log_a
        c1[pos] = -r1 * l1p
        c2[pos] = (r2 - r1 ** 2 + r1) * l1p ** 2 - r1 * l2p
    return c0, c1, c2


def unheld_dispersion_terms(data, theta, spec, links) -> np.ndarray:
    """``likelihood.dispersion_terms`` rebuilding every row that depends
    only on (y, w, p) on each call, with h2'/h2 and h2''/h2 as rows of
    ones under the log dispersion link."""
    poisson = spec.member is Member.POISSON
    out = np.empty((2 if poisson else 6, data.n_rows))
    with np.errstate(over="ignore", invalid="ignore"):
        h2, l1, l2, out[1] = _unheld_dispersion_scale(data, theta, links)
        if poisson:
            out[0] = (data.y * np.log(data.w)
                      - special.gammaln(data.y + 1.0))
            return out
        u = out[1]
        out[3] = -u * l1
        out[5] = u * (2.0 * l1 ** 2 - l2)
        out[0], out[2], out[4] = _unheld_lognorm_terms(
            data, spec, h2, l1, l2, u, out[3], out[5])
    return out


def c_order_band_factor(band, diag):
    """``graph.SpatialBand.factor`` by scipy's ``cholesky_banded`` on a
    C-ordered copy of the band, which its wrapper copies again into
    column-major order."""
    ab = band.ab.copy()
    ab[0] += diag[band.order]
    try:
        low = linalg.cholesky_banded(ab, lower=True, check_finite=False)
    except linalg.LinAlgError:
        return None
    if np.isnan(low[0]).any():
        return None
    return SpatialBand(band.order, band.inverse, low)


def c_order_band_solve(band, diag, cols):
    """Solve (M + diag(diag)) x = cols for the band's matrix M by
    scipy's ``cholesky_banded`` and ``cho_solve_banded`` on a C-ordered
    copy of the band, in vertex order; None where it is not positive
    definite. The oracle for ``SpatialBand.factor``, ``forward`` and
    ``back`` in turn."""
    low = c_order_band_factor(band, diag)
    if low is None:
        return None
    return linalg.cho_solve_banded((low.ab, True), cols[band.order],
                                   check_finite=False)[band.inverse]


def band_solve(band, diag, cols):
    """Solve (M + diag(diag)) x = cols for the band's matrix M by its
    ``factor``, ``forward`` and ``back``; None where the factor is."""
    low = band.factor(diag)
    return None if low is None else low.back(low.forward(cols))


def fd_gradient(f, x0, h=1e-6):
    x0 = np.asarray(x0, dtype=float)
    out = np.zeros_like(x0)
    for i in range(x0.size):
        xp = x0.copy()
        xp[i] += h
        xm = x0.copy()
        xm[i] -= h
        out[i] = (f(xp) - f(xm)) / (2.0 * h)
    return out


def fd_jacobian(f, x0, h=1e-6):
    x0 = np.asarray(x0, dtype=float)
    cols = []
    for i in range(x0.size):
        xp = x0.copy()
        xp[i] += h
        xm = x0.copy()
        xm[i] -= h
        cols.append((f(xp) - f(xm)) / (2.0 * h))
    return np.column_stack(cols) if cols else np.zeros((0, 0))


def rel_err(a, b, floor=1e-8):
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.size == 0:
        return 0.0
    return float(np.max(np.abs(a - b) / (floor + np.abs(b))))


MEAN_LINKS_BY_MEMBER = {
    Member.NORMAL: ["identity"],
    Member.POISSON: ["log", "sqrt", "identity"],
    Member.COMPOUND_POISSON_GAMMA: ["log"],
    Member.GAMMA: ["inverse", "identity", "log"],
    Member.INVERSE_GAUSSIAN: ["inverse-squared"],
}


def _is_float(v) -> bool:
    try:
        float(v)
        return True
    except ValueError:
        return False


def rowwise_load_dataset(path, spec, graph, expand=False):
    """The row-at-a-time CSV loader that ``cli.load_dataset`` replaced:
    the oracle for its values, names and single-bad-cell errors. It
    checks each row's width, y, exposure and vertex label in row order,
    then the finite/positive checks, then the x_ and z_ columns."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise SchemaError(f"{path}: empty file")
        rows = list(reader)
    header = [h.strip() for h in header]
    for required in ("y", "vertex"):
        if required not in header:
            raise SchemaError(f"{path}: missing required column "
                              f"{required!r}")
    col = {name: i for i, name in enumerate(header)}
    x_cols = [h for h in header if h.startswith("x_")]
    z_cols = [h for h in header if h.startswith("z_")]
    if spec.member is Member.POISSON and z_cols:
        raise ConfigError(
            "constant dispersion member: Poisson admits no dispersion "
            "covariates")
    n = len(rows)
    if n == 0:
        raise SchemaError(f"{path}: no data rows")
    label_to_idx = graph.label_index()
    y = np.empty(n)
    w = np.ones(n)
    vertex = np.empty(n, dtype=int)

    def parse_float(raw, rowno, colname):
        try:
            return float(raw)
        except ValueError:
            raise SchemaError(
                f"{path}: row {rowno}, column {colname!r}: non-numeric "
                f"value {raw!r}")

    def check_column(colname, ok, what):
        if not ok.all():
            i = int(np.argmin(ok))
            raise SchemaError(
                f"{path}: row {i + 1}, column {colname!r}: {what} value "
                f"{rows[i][col[colname]]!r}")

    for i, row in enumerate(rows, start=1):
        if len(row) != len(header):
            raise SchemaError(f"{path}: row {i}: expected {len(header)} "
                              f"fields, got {len(row)}")
        y[i - 1] = parse_float(row[col["y"]], i, "y")
        if "exposure" in col:
            w[i - 1] = parse_float(row[col["exposure"]], i, "exposure")
        label = row[col["vertex"]].strip()
        if label not in label_to_idx:
            raise SchemaError(f"{path}: row {i}: unknown vertex label "
                              f"{label!r}")
        vertex[i - 1] = label_to_idx[label]
    check_column("y", np.isfinite(y), "non-finite")
    if "exposure" in col:
        check_column("exposure", np.isfinite(w), "non-finite")
        check_column("exposure", w > 0, "non-positive")

    def build_design(colnames):
        mats, names = [], []
        for name in colnames:
            raw = [rows[i][col[name]] for i in range(n)]
            if all(map(_is_float, raw)):
                vals = np.array([float(v) for v in raw])
                check_column(name, np.isfinite(vals), "non-finite")
                mats.append(vals)
                names.append(name)
            elif expand:
                levels = sorted(set(raw))
                if len(levels) < 2:
                    raise SchemaError(f"column {name!r} has a single "
                                      "level; nothing to expand")
                for lev in levels[:-1]:
                    mats.append(np.array([1.0 if v == lev else 0.0
                                          for v in raw]))
                    names.append(f"{name}[{lev}]")
            else:
                bad = next(i for i, rv in enumerate(raw, start=1)
                           if not _is_float(rv))
                raise SchemaError(
                    f"{path}: row {bad}, column {name!r}: non-numeric value "
                    f"(use --expand for categorical columns)")
        return mats, names

    x_mats, beta_names = build_design(x_cols)
    z_mats, gamma_names = build_design(z_cols)
    x_mats.insert(0, np.ones(n))
    beta_names.insert(0, "(intercept)")
    if spec.member is not Member.POISSON:
        z_mats.insert(0, np.ones(n))
        gamma_names.insert(0, "(intercept)")
    X = np.column_stack(x_mats)
    Z = np.column_stack(z_mats) if z_mats else np.zeros((n, 0))
    try:
        data = Dataset(y, w, vertex, X, Z, graph)
        fam.check_support(spec, data.ystar, what="y/exposure")
    except DomainError as exc:
        bad = next((i for i, v in enumerate(y / w, start=1)
                    if not _in_support(spec, v)), 0)
        raise DomainError(f"{path}: row {bad}: {exc}")
    return data, beta_names, gamma_names


def _in_support(spec, value) -> bool:
    try:
        fam.check_support(spec, float(value))
        return True
    except DomainError:
        return False
