"""Three-block coordinate descent over (eta, gamma, p).

Each outer iteration majorizes the objective in eta with a scaled
Hessian c1 * H, solves the penalized linear system for eta*, refreshes
the mean exponent at eta*, takes the analogous damped Newton step in
gamma, and finally updates the index parameter by a walk on its grid
from the current p to a local minimum of the likelihood in p (the grid
minimum when the profile is unimodal; on a multimodal profile it may
be a local one). Scaling constants are found by doubling until the
step's system matrix is positive definite and the objective decrease
clears the descent margin, and the index moves only when the objective
does not rise, which makes the objective trace non-increasing by
construction.

The per-row log-normalizer terms (``likelihood.lognorm_terms``) do
not depend on eta. The fit holds those of its accepted (gamma, p) and
replaces them only when a dispersion step or an index move is
accepted: the mean step's candidates and the next dispersion
derivatives reuse them, so under the series normalizer an iteration
sums the series only for the dispersion candidates and the grid points
the walk visits.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field, replace

import numpy as np
from scipy import linalg, sparse
from scipy.sparse import linalg as splinalg

from . import likelihood as lik
from .errors import (ConfigError, DomainError, NonFiniteError, ScalingError,
                     SeriesInfeasibleError, SingularSystemError)
from .family import FamilySpec, Member
from .graph import PenaltyConfig, PenaltyMode, assemble_penalty
from .likelihood import Coefficients, Dataset, MeanHessian
from .links import LinkPair, validate_links

MAX_DOUBLINGS = 60
# Absolute slack on the quantitative descent margin; strictly tighter
# than the 1e-8 the descent bound is verified at.
DESCENT_SLACK = 5e-9


@dataclass
class FitConfig:
    """Controls for one fit.

    ``p_grid`` must lie inside the member's index range; a single-point
    grid pins p.
    """

    penalty: PenaltyConfig
    p_grid: np.ndarray = field(default_factory=lambda: np.array([]))
    eps_converge: float = 1e-8
    max_iters: int = 200
    c_growth: float = 2.0
    keep_history: bool = False

    def __post_init__(self):
        self.p_grid = np.asarray(self.p_grid, dtype=float).ravel()
        if self.eps_converge <= 0:
            raise ConfigError("eps_converge must be positive")
        if self.c_growth <= 1.0:
            raise ConfigError("c_growth must exceed 1")
        if self.max_iters < 1:
            raise ConfigError("max_iters must be at least 1")
        if self.p_grid.size and np.any(np.diff(self.p_grid) <= 0):
            raise ConfigError("p_grid must be strictly ascending")


@dataclass
class FitResult:
    theta_hat: Coefficients
    p_hat: float
    objective_trace: np.ndarray
    iters: int
    converged: bool
    c1_final: float
    c2_final: float
    # previous outer iterate, for convergence-bound diagnostics
    theta_prev: Coefficients | None = None
    # per-iteration coefficient snapshots when keep_history is set
    history: list | None = None


def default_p_grid(spec: FamilySpec) -> np.ndarray:
    """Profile grid for the compound member; fixed-p members get a
    single-point grid."""
    if spec.member is Member.COMPOUND_POISSON_GAMMA:
        return np.round(np.arange(1.05, 1.9501, 0.05), 10)
    return np.array([spec.p])


def objective(data: Dataset, theta: Coefficients, spec: FamilySpec,
              links: LinkPair, penalty: PenaltyConfig,
              p: float | None = None) -> float:
    """Penalized negative log-likelihood F(theta, p)."""
    return (lik.neg_log_lik(data, theta, spec, links, p=p)
            + penalty.value(theta.as_vector()))


def _nll_or_inf(data, theta, spec, links, p=None, terms=None):
    """(nll, normalizer terms) at theta and p, the terms computed unless
    those at theta's gamma and p are given. (+inf, None) outside the
    likelihood's domain and where the series normalizer cannot be
    summed, so that a candidate step or grid point there is rejected."""
    if terms is None:
        try:
            terms = lik.lognorm_terms(data, theta, spec, links, p)
        except (DomainError, SeriesInfeasibleError):
            return np.inf, None
    nll = lik.nll_or_inf(data, theta, spec, links, p, terms=terms)
    return (nll, terms) if np.isfinite(nll) else (np.inf, None)


def _objective_or_inf(data, theta, spec, links, penalty, terms=None):
    """(F, nll, normalizer terms) at theta, as in ``_nll_or_inf``; F is
    +inf outside the likelihood's domain."""
    nll, terms = _nll_or_inf(data, theta, spec, links, terms=terms)
    if not np.isfinite(nll):
        return np.inf, np.inf, None
    return nll + penalty.value(theta.as_vector()), nll, terms


# ---------------------------------------------------------------------------
# Linear solvers
# ---------------------------------------------------------------------------

def _chol_solve(mat: np.ndarray, rhs: np.ndarray):
    """Cholesky solve; returns None when the matrix is not positive
    definite."""
    try:
        c, low = linalg.cho_factor(mat, lower=True, check_finite=False)
    except linalg.LinAlgError:
        return None
    return linalg.cho_solve((c, low), rhs, check_finite=False)


def _block_derivatives(step_kind: str, data: Dataset, theta: Coefficients,
                       spec: FamilySpec, links: LinkPair, terms=None):
    """What a block step needs of the likelihood at theta, none of which
    depends on the scaling constant: (grad, H, H @ eta) for the mean,
    (grad, H) for the dispersion, the latter from the normalizer
    ``terms`` at theta when given."""
    if step_kind == "mean":
        hess = lik.hess_mean(data, theta, spec, links)
        return (lik.grad_mean(data, theta, spec, links), hess,
                hess.matvec(theta.eta))
    return lik.disp_derivatives(data, theta, spec, links, terms=terms)


def solve_mean_step(data: Dataset, theta: Coefficients, spec: FamilySpec,
                    links: LinkPair, penalty: PenaltyConfig,
                    c1: float, derivs=None) -> np.ndarray:
    """Solve [l1*I0 + l2*W0 + c1*H] eta* = c1*H eta - grad for eta*.

    ``derivs`` are the mean-step derivatives at theta from
    ``_block_derivatives``, computed here when not given.
    With l1 = 0 the system is singular whenever the columns of X span a
    constant (the vertex indicators sum to one on every row), so that
    case takes the minimum-norm least-squares solution. Otherwise a
    system that is not positive definite raises SingularSystemError.
    """
    if derivs is None:
        derivs = _block_derivatives("mean", data, theta, spec, links)
    g, hess, h_eta = derivs
    rhs = c1 * h_eta - g
    if penalty.lambda1 == 0:
        return _min_norm_solve(hess, penalty, c1, rhs)
    out = _sparse_schur_solve(hess, penalty, c1, rhs)
    if out is None:
        raise SingularSystemError("mean-step system not positive definite")
    return out


def _min_norm_solve(hess: MeanHessian, penalty: PenaltyConfig, c1: float,
                    rhs: np.ndarray) -> np.ndarray:
    """Minimum-norm least-squares solve of the assembled mean system;
    only for l1 = 0, where the ridge terms vanish."""
    kb = penalty.k_beta
    mat = c1 * hess.to_dense()
    mat[kb:, kb:] += penalty.alpha_penalty_matrix().toarray()
    sol, *_ = np.linalg.lstsq(mat, rhs, rcond=None)
    return sol


def _sparse_schur_solve(hess: MeanHessian, penalty: PenaltyConfig, c1: float,
                        rhs: np.ndarray):
    """Partitioned solve through the sparse spatial block.

    S22 = l1*I + l2*Laplacian + c1*diag(H_aa) is a sparse GMRF precision.
    It is factored once with a symmetric fill-reducing ordering and
    diagonal pivots, and is positive definite exactly when every pivot
    (diagonal of U) is positive. With a pivot threshold of 0, SuperLU
    leaves the diagonal only at a column whose diagonal entry is exactly
    0. Up to that column all pivots were positive (or the test already
    fails), so the entries still to be eliminated keep the sign of
    S22's off-diagonals, which are -l2 times the adjacency and never
    positive. The pivot taken off the diagonal is then negative and
    shows in U, so a permutation test (perm_r == perm_c) would reject
    no factor that the pivot test accepts. The dense k_beta x k_beta
    Schur complement A11 - A12 S22^{-1} A21 then closes the beta part by
    Cholesky. Returns None when the system is not positive definite.
    """
    kb = penalty.k_beta
    s22 = sparse.csc_matrix(penalty.alpha_penalty_matrix()
                            + sparse.diags(c1 * hess.h_aa_diag))
    try:
        lu = splinalg.splu(s22, permc_spec="MMD_AT_PLUS_A",
                           diag_pivot_thresh=0.0,
                           options={"SymmetricMode": True})
    except RuntimeError:          # exactly singular pivot
        return None
    if not np.all(lu.U.diagonal() > 0):
        return None
    v = lu.solve(rhs[kb:])                    # S22^{-1} rhs_a
    if kb == 0:
        return v
    a12 = c1 * hess.h_ba
    x_cols = lu.solve(np.ascontiguousarray(a12.T))   # S22^{-1} A21
    a11 = c1 * hess.h_bb
    if penalty.mode is PenaltyMode.SPATIAL_PLUS_RIDGE:
        a11 = a11 + penalty.lambda1 * np.eye(kb)
    beta_star = _chol_solve(a11 - a12 @ x_cols, rhs[:kb] - a12 @ v)
    if beta_star is None:
        return None
    return np.concatenate([beta_star, v - x_cols @ beta_star])


def solve_disp_step(data: Dataset, theta: Coefficients, spec: FamilySpec,
                    links: LinkPair, penalty: PenaltyConfig,
                    c2: float, derivs=None) -> np.ndarray:
    """Damped Newton step in gamma (ridge-regularized under the full
    ridge configuration). ``derivs`` are the gradient and Hessian in
    gamma at theta, computed here when not given.

    The negative log-likelihood need not be convex in gamma. Where the
    step's system is not positive definite, the Hessian in it is
    replaced by its absolute-eigenvalue modification (each eigenvalue by
    its magnitude, floored at sqrt(eps) of the largest), so the step
    still points downhill and a large enough c2 makes it decrease the
    objective. Raises SingularSystemError only when that fails too (a
    zero or non-finite Hessian).
    """
    if derivs is None:
        derivs = _block_derivatives("disp", data, theta, spec, links)
    g, h = derivs
    if g.size == 0:
        return theta.gamma.copy()
    lam = penalty.gamma_ridge()
    out = _disp_solve(h, g, theta.gamma, lam, c2)
    if out is None and np.all(np.isfinite(h)):
        out = _disp_solve(_abs_eigen(h), g, theta.gamma, lam, c2)
    if out is None:
        raise SingularSystemError(
            "dispersion-step system not positive definite")
    return out


def _disp_solve(h, g, gamma, lam, c2):
    """gamma* of the dispersion step with Hessian h; None when its system
    is not positive definite."""
    if lam > 0:
        return _chol_solve(lam * np.eye(g.size) + c2 * h,
                           c2 * (h @ gamma) - g)
    step = _chol_solve(h, g)
    return None if step is None else gamma - step / c2


def _abs_eigen(h):
    """V |L| V' for h = V L V', with |L| floored at sqrt(eps) max |L|."""
    vals, vecs = np.linalg.eigh(h)
    mags = np.abs(vals)
    mags = np.maximum(mags, np.sqrt(np.finfo(float).eps) * mags.max())
    return (vecs * mags) @ vecs.T


# ---------------------------------------------------------------------------
# Majorization constants
# ---------------------------------------------------------------------------

def _descent_margin(penalty: PenaltyConfig, step_kind: str, theta_old,
                    theta_new) -> float:
    """Quantitative decrease the accepted step must achieve."""
    lam = penalty.lambda1
    if lam == 0:
        return 0.0
    if penalty.mode is PenaltyMode.SPATIAL_ONLY:
        if step_kind == "mean":
            d = theta_new.alpha - theta_old.alpha
            return 0.5 * lam * float(d @ d)
        return 0.0
    if step_kind == "mean":
        d = theta_new.eta - theta_old.eta
    else:
        d = theta_new.gamma - theta_old.gamma
    return 0.5 * lam * float(d @ d)


def _try_mean_candidate(data, theta, spec, links, penalty, c1, derivs):
    try:
        eta_star = solve_mean_step(data, theta, spec, links, penalty, c1,
                                   derivs)
    except SingularSystemError:
        return None
    if not np.all(np.isfinite(eta_star)):
        return None
    return theta.with_eta(eta_star)


def _try_disp_candidate(data, theta, spec, links, penalty, c2, derivs):
    try:
        gamma_star = solve_disp_step(data, theta, spec, links, penalty, c2,
                                     derivs)
    except SingularSystemError:
        return None
    if not np.all(np.isfinite(gamma_star)):
        return None
    return theta.with_gamma(gamma_star)


def _scaled_step(step_kind: str, data, theta, spec, links, penalty,
                 f_current: float, c_growth: float, terms=None):
    """Find the first scaling whose step is solvable and decreases the
    objective by at least the descent margin.

    The gradient and the Hessian at theta are computed once and shared
    by every scaling tried. ``terms`` are the normalizer terms at
    theta, computed here when not given; a mean candidate keeps gamma
    and p, so it is evaluated with them, while each dispersion
    candidate gets its own. Returns (c, candidate theta, new objective
    value, its negative log-likelihood, its normalizer terms). Raises
    ScalingError after the doubling budget; reason
    "not-positive-definite" when no system ever factored, "no-decrease"
    otherwise.
    """
    if step_kind not in ("mean", "disp"):
        raise ConfigError("step_kind must be 'mean' or 'disp'")
    if terms is None:
        terms = lik.lognorm_terms(data, theta, spec, links)
    if step_kind == "mean":
        try_candidate, cand_terms = _try_mean_candidate, terms
    else:
        try_candidate, cand_terms = _try_disp_candidate, None
    derivs = _block_derivatives(step_kind, data, theta, spec, links, terms)
    c = 1.0
    solvable_seen = False
    for _ in range(MAX_DOUBLINGS + 1):
        cand = try_candidate(data, theta, spec, links, penalty, c, derivs)
        if cand is not None:
            solvable_seen = True
            f_new, nll_new, terms_new = _objective_or_inf(
                data, cand, spec, links, penalty, cand_terms)
            margin = _descent_margin(penalty, step_kind, theta, cand)
            if (f_new <= f_current
                    and f_current - f_new >= margin - DESCENT_SLACK):
                return c, cand, f_new, nll_new, terms_new
        c *= c_growth
    reason = "no-decrease" if solvable_seen else "not-positive-definite"
    raise ScalingError(
        f"no majorization constant found for the {step_kind} step after "
        f"{MAX_DOUBLINGS} doublings", reason=reason)


def update_index(data: Dataset, theta_star: Coefficients, spec: FamilySpec,
                 links: LinkPair, p_grid: np.ndarray, current=None):
    """Grid update of the index parameter by a walk on the likelihood.

    Starts at the grid point nearest ``spec.p`` and moves to the
    smaller-p neighbour while the likelihood does not rise there, or
    else to the larger-p neighbour while it falls; each point is
    evaluated at most once, and the penalty is excluded since it does
    not involve p. The walk stops at a local grid minimum: on a
    unimodal profile (ties included) that is the grid minimum, with
    ties broken toward the smaller p, and on a multimodal one it may be
    a local minimum only. The likelihood there never exceeds the
    starting point's, so the objective stays non-increasing.

    Returns (p, negative log-likelihood at p, normalizer terms at p).
    Identity for fixed-p members and for an empty grid. ``current``,
    when given, is the (likelihood, normalizer terms) pair at
    ``spec.p`` already known to the caller, and that point is not
    evaluated again.
    """
    grid = np.asarray(p_grid, dtype=float).ravel()
    if spec.member is not Member.COMPOUND_POISSON_GAMMA or grid.size == 0:
        grid = np.array([spec.p])
    i = int(np.argmin(np.abs(grid - spec.p)))
    if current is not None and grid[i] == spec.p:
        nll, terms = current
    else:
        nll, terms = _nll_or_inf(data, theta_star, spec, links, p=grid[i])

    def walk(step, better) -> bool:
        nonlocal i, nll, terms
        moved = False
        while 0 <= i + step < grid.size:
            nll_j, terms_j = _nll_or_inf(data, theta_star, spec, links,
                                         p=grid[i + step])
            if not better(nll_j, nll):
                break
            i, nll, terms, moved = i + step, nll_j, terms_j, True
        return moved

    if not walk(-1, operator.le):
        walk(1, operator.lt)
    return float(grid[i]), float(nll), terms


def _snap_to_grid(p: float, p_grid: np.ndarray) -> float:
    if p_grid.size == 0:
        return p
    return float(p_grid[int(np.argmin(np.abs(p_grid - p)))])


def _check_identifiable(data: Dataset, penalty: PenaltyConfig,
                        has_disp: bool) -> None:
    """Fail fast when a coefficient block without a ridge term has a
    design of fewer rows than columns or of deficient column rank: its
    step system is then singular at every scaling constant. (With
    lambda1 = 0 the mean step takes the minimum-norm solution instead.)
    """
    blocks = []
    if penalty.lambda1 > 0 and penalty.mode is PenaltyMode.SPATIAL_ONLY:
        blocks.append(("mean", "X", "beta", data.X))
    if has_disp and penalty.gamma_ridge() == 0:
        blocks.append(("dispersion", "Z", "gamma", data.Z))
    for what, name, coef, mat in blocks:
        rank = np.linalg.matrix_rank(mat)
        if rank < mat.shape[1]:
            raise SingularSystemError(
                f"unpenalized {what} design {name} is {mat.shape[0]} x "
                f"{mat.shape[1]} with rank {rank}: {coef} is not "
                "identifiable")


def fit(data: Dataset, spec: FamilySpec, links: LinkPair, config: FitConfig,
        init: Coefficients | None = None) -> FitResult:
    """Run the coordinate descent to convergence of the objective.

    Stops when the per-iteration objective decrease falls below
    ``config.eps_converge`` or after ``config.max_iters`` iterations.
    The trace of objective values is non-increasing; steps that cannot
    improve the objective at any scaling are taken as zero steps, so a
    fully stalled iteration terminates cleanly.
    """
    validate_links(spec, links)
    if data.n_rows == 0:
        raise ConfigError("cannot fit an empty dataset")
    p_grid = config.p_grid
    if p_grid.size == 0:
        p_grid = default_p_grid(spec)
    if spec.member is Member.COMPOUND_POISSON_GAMMA:
        if np.any(p_grid <= 1.0) or np.any(p_grid >= 2.0):
            raise ConfigError("p_grid must lie inside (1, 2)")
    has_disp = (data.k_gamma > 0
                and spec.member is not Member.POISSON)
    _check_identifiable(data, config.penalty, has_disp)
    theta = init.copy() if init is not None else \
        data.initial_coefficients(spec, links)
    if theta.beta.size != data.k_beta or theta.gamma.size != data.k_gamma \
            or theta.alpha.size != data.graph.n_vertices:
        raise ConfigError("init has wrong block sizes for this dataset")

    p_cur = _snap_to_grid(spec.p, p_grid) \
        if spec.member is Member.COMPOUND_POISSON_GAMMA else spec.p
    spec_cur = spec.with_p(p_cur) if p_cur != spec.p else spec

    # evaluated unguarded, so that a start the series cannot sum says so
    try:
        terms_cur = lik.lognorm_terms(data, theta, spec_cur, links)
        nll_cur = lik.neg_log_lik(data, theta, spec_cur, links,
                                  terms=terms_cur)
    except (DomainError, NonFiniteError):
        nll_cur = np.inf
    f_cur = nll_cur + config.penalty.value(theta.as_vector())
    if not np.isfinite(f_cur):
        raise NonFiniteError("objective not finite at the starting point")
    trace = [f_cur]
    c1 = c2 = 1.0
    converged = False
    iters = 0
    theta_prev = theta
    history = [theta.copy()] if config.keep_history else None

    for iters in range(1, config.max_iters + 1):
        theta_new, f_new, nll_new = theta, f_cur, nll_cur
        try:
            c1, theta_new, f_new, nll_new, _ = _scaled_step(
                "mean", data, theta, spec_cur, links, config.penalty, f_cur,
                config.c_growth, terms_cur)
        except ScalingError as err:
            if err.reason != "no-decrease":
                raise ScalingError(
                    f"iteration {iters}: {err}", reason=err.reason)
        if has_disp:
            try:
                c2, theta_new, f_new, nll_new, terms_cur = _scaled_step(
                    "disp", data, theta_new, spec_cur, links, config.penalty,
                    f_new, config.c_growth, terms_cur)
            except ScalingError as err:
                if err.reason != "no-decrease":
                    raise ScalingError(
                        f"iteration {iters}: {err}", reason=err.reason)
        if spec.member is Member.COMPOUND_POISSON_GAMMA and p_grid.size > 1:
            p_new, nll_p, terms_p = update_index(
                data, theta_new, spec_cur, links, p_grid,
                current=(nll_new, terms_cur))
            if p_new != p_cur:
                f_candidate = nll_p + config.penalty.value(
                    theta_new.as_vector())
                if f_candidate <= f_new:
                    p_cur = p_new
                    spec_cur = spec_cur.with_p(p_new)
                    f_new, nll_new, terms_cur = f_candidate, nll_p, terms_p
        eps_star = f_cur - f_new
        theta_prev, theta, f_cur, nll_cur = theta, theta_new, f_new, nll_new
        trace.append(f_cur)
        if history is not None:
            history.append(theta.copy())
        if eps_star < config.eps_converge:
            converged = True
            break

    return FitResult(theta_hat=theta, p_hat=p_cur,
                     objective_trace=np.array(trace), iters=iters,
                     converged=converged, c1_final=c1, c2_final=c2,
                     theta_prev=theta_prev, history=history)


def fit_ridge(data: Dataset, spec: FamilySpec, links: LinkPair,
              config: FitConfig, lambda1: float | None = None,
              init: Coefficients | None = None) -> FitResult:
    """Comparator fit with a pure ridge penalty on the spatial effect
    (the Laplacian term switched off)."""
    lam = config.penalty.lambda1 if lambda1 is None else lambda1
    penalty = assemble_penalty(PenaltyMode.SPATIAL_ONLY, lam, 0.0,
                               data.k_beta, data.graph, data.k_gamma)
    return fit(data, spec, links, replace(config, penalty=penalty),
               init=init)


def fit_unpenalized(data: Dataset, spec: FamilySpec, links: LinkPair,
                    config: FitConfig,
                    init: Coefficients | None = None) -> FitResult:
    """Comparator fit with no penalty at all."""
    return fit_ridge(data, spec, links, config, lambda1=0.0, init=init)
