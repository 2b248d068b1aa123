"""Three-block coordinate descent over (eta, gamma, p).

Each outer iteration majorizes the objective in eta with a scaled
Hessian c1 * H, solves the penalized linear system for eta*, refreshes
the mean exponent at eta*, takes the analogous damped Newton step in
gamma, and finally updates the index parameter by a grid profile
search. Scaling constants are found by doubling until the step's
system matrix is positive definite and the objective decrease clears
the descent margin, which makes the objective trace non-increasing by
construction.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np
from scipy import linalg, sparse
from scipy.sparse import linalg as splinalg

from . import likelihood as lik
from .errors import (ConfigError, DomainError, NonFiniteError, ScalingError,
                     SingularSystemError)
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


def _objective_or_inf(data, theta, spec, links, penalty):
    """(F, nll) at theta; both +inf outside the likelihood's domain."""
    nll = lik.nll_or_inf(data, theta, spec, links)
    if not np.isfinite(nll):
        return np.inf, np.inf
    return nll + penalty.value(theta.as_vector()), nll


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
                       spec: FamilySpec, links: LinkPair):
    """What a block step needs of the likelihood at theta, none of which
    depends on the scaling constant: (grad, H, H @ eta) for the mean,
    (grad, H) for the dispersion."""
    if step_kind == "mean":
        hess = lik.hess_mean(data, theta, spec, links)
        return (lik.grad_mean(data, theta, spec, links), hess,
                hess.matvec(theta.eta))
    return lik.disp_derivatives(data, theta, spec, links)


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
    diagonal pivots; such a factor P S22 P' = L U shows S22 positive
    definite exactly when no row was pivoted away from the diagonal and
    every pivot (diagonal of U) is positive. The dense k_beta x k_beta
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
    if not (np.array_equal(lu.perm_r, lu.perm_c)
            and np.all(lu.U.diagonal() > 0)):
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
    gamma at theta, computed here when not given."""
    if derivs is None:
        derivs = _block_derivatives("disp", data, theta, spec, links)
    g, h = derivs
    if g.size == 0:
        return theta.gamma.copy()
    lam = penalty.gamma_ridge()
    if lam > 0:
        mat = lam * np.eye(g.size) + c2 * h
        rhs = c2 * (h @ theta.gamma) - g
        out = _chol_solve(mat, rhs)
        if out is None:
            eigs = np.linalg.eigvalsh(mat)
            raise SingularSystemError(
                "dispersion-step system not positive definite",
                smallest_pivot=float(eigs.min()))
        return out
    step = _chol_solve(h, g)
    if step is None:
        eigs = np.linalg.eigvalsh(h)
        raise SingularSystemError(
            "dispersion Hessian not positive definite",
            smallest_pivot=float(np.abs(eigs).min()))
    return theta.gamma - step / c2


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
                 f_current: float, c_growth: float):
    """Find the first scaling whose step is solvable and decreases the
    objective by at least the descent margin.

    The gradient and the Hessian at theta are computed once and shared
    by every scaling tried. Returns (c, candidate theta, new objective
    value, its negative log-likelihood). Raises ScalingError after the
    doubling budget; reason "not-positive-definite" when no system ever
    factored, "no-decrease" otherwise.
    """
    if step_kind not in ("mean", "disp"):
        raise ConfigError("step_kind must be 'mean' or 'disp'")
    try_candidate = _try_mean_candidate if step_kind == "mean" \
        else _try_disp_candidate
    derivs = _block_derivatives(step_kind, data, theta, spec, links)
    c = 1.0
    solvable_seen = False
    for _ in range(MAX_DOUBLINGS + 1):
        cand = try_candidate(data, theta, spec, links, penalty, c, derivs)
        if cand is not None:
            solvable_seen = True
            f_new, nll_new = _objective_or_inf(data, cand, spec, links,
                                               penalty)
            margin = _descent_margin(penalty, step_kind, theta, cand)
            if (f_new <= f_current
                    and f_current - f_new >= margin - DESCENT_SLACK):
                return c, cand, f_new, nll_new
        c *= c_growth
    reason = "no-decrease" if solvable_seen else "not-positive-definite"
    raise ScalingError(
        f"no majorization constant found for the {step_kind} step after "
        f"{MAX_DOUBLINGS} doublings", reason=reason)


def update_index(data: Dataset, theta_star: Coefficients, spec: FamilySpec,
                 links: LinkPair, p_grid: np.ndarray,
                 nll_cur: float | None = None) -> tuple[float, float]:
    """Profile-likelihood grid update of the index parameter.

    Returns (p, negative log-likelihood at p). Identity for fixed-p
    members and for an empty grid. Ties break toward the smaller grid
    value; the penalty is excluded since it does not involve p.
    ``nll_cur``, when given, is the likelihood at ``spec.p`` already
    known to the caller, and that point is not evaluated again.
    """
    grid = np.asarray(p_grid, dtype=float).ravel()
    if spec.member is not Member.COMPOUND_POISSON_GAMMA or grid.size == 0:
        grid = np.array([spec.p])
    values = [nll_cur if nll_cur is not None and pk == spec.p
              else lik.nll_or_inf(data, theta_star, spec, links, p=pk)
              for pk in grid]
    best = int(np.argmin(values))
    return float(grid[best]), float(values[best])


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

    f_cur, nll_cur = _objective_or_inf(data, theta, spec_cur, links,
                                       config.penalty)
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
            c1, theta_new, f_new, nll_new = _scaled_step(
                "mean", data, theta, spec_cur, links, config.penalty, f_cur,
                config.c_growth)
        except ScalingError as err:
            if err.reason != "no-decrease":
                raise ScalingError(
                    f"iteration {iters}: {err}", reason=err.reason)
        if has_disp:
            try:
                c2, theta_new, f_new, nll_new = _scaled_step(
                    "disp", data, theta_new, spec_cur, links, config.penalty,
                    f_new, config.c_growth)
            except ScalingError as err:
                if err.reason != "no-decrease":
                    raise ScalingError(
                        f"iteration {iters}: {err}", reason=err.reason)
        if spec.member is Member.COMPOUND_POISSON_GAMMA and p_grid.size > 1:
            p_new, nll_p = update_index(data, theta_new, spec_cur, links,
                                        p_grid, nll_cur=nll_new)
            if p_new != p_cur:
                f_candidate = nll_p + config.penalty.value(
                    theta_new.as_vector())
                if f_candidate <= f_new:
                    p_cur = p_new
                    spec_cur = spec_cur.with_p(p_new)
                    f_new, nll_new = f_candidate, nll_p
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
