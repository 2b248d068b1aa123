"""Three-block coordinate descent over (eta, gamma, p), with a joint
Newton step in (eta, gamma).

Every block step solves [P_b + c*H_b] delta = -(g_b + P_b theta_b) on
its block b of the packed (beta, alpha, gamma), with P the penalty's
matrix, g and H the gradient and Hessian of the negative log-likelihood
and c the scaling constant; its candidate is theta with theta_b + delta
in block b, and with l1 = 0, where the system can be singular, the
minimum-norm such point. The first iteration sweeps the blocks: the
mean step (b = eta = (beta, alpha)), then the dispersion step
(b = gamma). Mean and dispersion are orthogonal only in expected
information (Smyth 1989): the observed cross block, with row weight
-D'(t) u'(s), is not zero away from the optimum, so the sweep converges
only linearly. From the second iteration on, a member with a dispersion
model first tries the joint step (b = all of theta, cross block
included) at scaling 1 only, through the mean step's solver with gamma
beside beta in its dense block. When that step is rejected, or its
system is not positive definite, the iteration takes the sweep instead,
except where the rejected step's Newton model predicted a decrease
below the convergence threshold (half the squared Newton decrement,
Boyd and Vandenberghe 2004, 9.5.1): rounding rejects such a step at
the optimum, where a sweep would lower the objective by nothing, so the
iteration takes no block step and, unless the index moves, the fit
stops. The mean and joint steps factor the spatial band once and solve
through it by one forward pass over all their columns and one back
pass for alpha (``_sparse_schur_solve``).
Every iteration ends by updating the index parameter by a walk on its
grid from the current p to a local minimum of the likelihood in p (the
grid minimum when the profile is unimodal; on a multimodal profile it
may be a local one). Scaling constants are found by doubling until the
step's system matrix is positive definite and the objective decrease
clears the descent margin, and the index moves only when the
likelihood does not rise, which makes the objective trace
non-increasing by construction.

The index p lives in the ``FamilySpec`` alone: every likelihood
block reads ``spec.p``. The descent holds its accepted point as one
``_Point``: theta, the spec that carries its p, the negative
log-likelihood, the penalty at theta, and the two blocks of per-row
terms that are the likelihood's only input. Each block step reads the
spec from the point it takes and returns the point it accepts, and the
index walk evaluates ``point.spec.with_p`` at each grid point it
visits. The fit checks the response against the member's support once.
The dispersion-side block (``likelihood.dispersion_terms``: logC,
u = w/h2(z'gamma) and their derivatives) does not depend on eta: a
mean candidate reuses that of the held point, and it is replaced only
when a dispersion or joint step or an index move is accepted, so under
the series normalizer an iteration sums the series only for the
dispersion and joint candidates and the grid points the walk visits.
The mean exponent D, D', D'' (``likelihood.exponent_terms``) does not
depend on gamma: a dispersion candidate reuses that of the held point,
and it is replaced only when a mean or joint step or an index move is
accepted, so an iteration evaluates it once per mean or joint candidate
and per grid point the walk visits. The fit keeps one point and the
previous objective value; its history is the coefficients alone.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field, replace

import numpy as np
from scipy.linalg import lapack

from . import likelihood as lik
from .errors import (ConfigError, DomainError, NonFiniteError, ScalingError,
                     SeriesInfeasibleError, SingularSystemError)
from .family import FamilySpec, validate_links
from .graph import PenaltyConfig, PenaltyMode, assemble_penalty
from .likelihood import Coefficients, Dataset, MeanHessian
from .links import LinkPair

# Stop once an iteration lowers the objective by less than this.
EPS_CONVERGE = 1e-8
# A fit that has not converged after this many iterations stops.
MAX_ITERS = 200
# Factor by which a rejected step's scaling constant grows.
C_GROWTH = 2.0
MAX_DOUBLINGS = 60
# Absolute slack on the quantitative descent margin; strictly tighter
# than the 1e-8 the descent bound is verified at.
DESCENT_SLACK = 5e-9
# Eigenvalues of a lambda1 = 0 mean step's Schur complement within this
# share of c1*H's largest entry are null: rounding leaves them that small.
SCHUR_NULL_TOL = 1e-9


@dataclass
class FitConfig:
    """Controls for one fit: the penalty and the index grid. The
    convergence threshold, the iteration budget and the scaling growth
    factor are the module constants ``EPS_CONVERGE``, ``MAX_ITERS`` and
    ``C_GROWTH``.

    ``p_grid`` is resolved by ``FamilySpec.index_grid``: a free index
    walks it, and a single-point grid pins p. A fixed index, which the
    saddlepoint's is, takes only an empty grid or [p].
    """

    penalty: PenaltyConfig
    p_grid: np.ndarray = field(default_factory=lambda: np.array([]))

    def __post_init__(self):
        self.p_grid = np.asarray(self.p_grid, dtype=float).ravel()
        if self.p_grid.size and np.any(np.diff(self.p_grid) <= 0):
            raise ConfigError("p_grid must be strictly ascending")


@dataclass
class FitResult:
    """The fit's estimate and its path. ``history`` holds the
    coefficients of the start and of each iteration's accepted point,
    one per entry of ``objective_trace`` (``history[-1]`` is
    ``theta_hat``, ``history[-2]`` the iterate before it); it keeps no
    per-row terms."""

    theta_hat: Coefficients
    p_hat: float
    objective_trace: np.ndarray
    iters: int
    converged: bool
    history: list[Coefficients]


def objective(data: Dataset, theta: Coefficients, spec: FamilySpec,
              links: LinkPair, penalty: PenaltyConfig) -> float:
    """Penalized negative log-likelihood F(theta, p) at p = spec.p; a
    response outside the member's support raises DomainError."""
    lik._check_member_data(data, spec)
    return _evaluate(data, theta, spec, links,
                     penalty.value(theta.as_vector())).f


@dataclass(frozen=True, eq=False)
class _Point:
    """An evaluated point of the descent: theta under ``spec``, whose p
    is the point's index, with its negative log-likelihood ``nll``, the
    penalty value ``pen`` at theta, the dispersion ``terms`` at theta's
    gamma and the mean ``exponent`` at theta's eta."""

    theta: Coefficients
    spec: FamilySpec
    nll: float
    pen: float
    terms: np.ndarray
    exponent: np.ndarray

    @property
    def f(self) -> float:
        """The objective F = nll + pen."""
        return self.nll + self.pen


def _evaluate(data, theta, spec, links, pen, terms=None,
              exponent=None) -> _Point:
    """The point at theta under ``spec`` whose penalty value is ``pen``,
    reusing the dispersion ``terms`` at theta's gamma or the mean
    ``exponent`` at theta's eta where one is given; ``fit`` checked the
    response's support. Raises where the likelihood is outside its
    domain or not finite, or the series normalizer cannot be summed."""
    # The smaller block first: a joint candidate builds both, and built
    # in the other order they made a 72 000-row fit fault in twice the
    # memory pages, because the allocator handed freed pages back.
    if exponent is None:
        exponent = lik.exponent_terms(data, theta, spec, links)
    if terms is None:
        terms = lik.dispersion_terms(data, theta, spec, links)
    return _Point(theta, spec, lik.neg_log_lik(terms, exponent), pen, terms,
                  exponent)


def _evaluate_or_reject(*args, **kwargs) -> _Point | None:
    """``_evaluate``, or None where it raises for the point itself, so
    that a candidate step or grid point there is rejected."""
    try:
        return _evaluate(*args, **kwargs)
    except (DomainError, SeriesInfeasibleError, NonFiniteError):
        return None


# ---------------------------------------------------------------------------
# Linear solvers
# ---------------------------------------------------------------------------

def _chol_solve(mat: np.ndarray, rhs: np.ndarray):
    """Cholesky solve by LAPACK's dpotrf and dpotrs; returns None when
    the matrix is not positive definite."""
    low, info = lapack.dpotrf(mat, lower=1, clean=0)
    if info != 0:
        return None
    return lapack.dpotrs(low, rhs, lower=1)[0]


def _block_derivatives(step_kind: str, data: Dataset, point: _Point):
    """What a block step needs of the likelihood at the held ``point``,
    none of which depends on the scaling constant: (grad, H) in gamma
    for "disp", (grad, H, None) in eta for "mean", and for "joint" (grad
    over all of theta, H in eta, (H in gamma, h_gb, h_ga)), the last two
    the cross block of ``lik.hess_cross``."""
    terms, exponent = point.terms, point.exponent
    if step_kind == "disp":
        return lik.disp_derivatives(data, terms, exponent)
    hess = lik.hess_mean(data, terms, exponent)
    grad = lik.grad_mean(data, terms, exponent)
    if step_kind == "mean":
        return grad, hess, None
    g_gamma, h_gg = lik.disp_derivatives(data, terms, exponent)
    return (np.concatenate([grad, g_gamma]), hess,
            (h_gg, *lik.hess_cross(data, terms, exponent)))


def solve_mean_step(theta: Coefficients, penalty: PenaltyConfig, c: float,
                    derivs) -> np.ndarray:
    """Solve [P_b + c*H_b] delta = -(g_b + P_b theta_b); return theta_b +
    delta.

    ``derivs`` = (g, H, gamma block) are as ``_block_derivatives`` makes
    them. Without a gamma block b is eta = (beta, alpha), the mean
    step; with one b is all of theta, H_b includes the mean-dispersion
    cross block, and at c = 1 this is the joint Newton step. With l1 = 0
    the system is singular when X spans a constant or a graph component
    has no rows, and theta_b + delta is its minimum-norm solution. A
    system that is not positive (with l1 = 0, semi-)definite, such as an
    indefinite joint one, raises SingularSystemError.
    """
    g, hess, gamma_block = derivs
    vec = theta.as_vector()
    out = _sparse_schur_solve(hess, penalty, c,
                              -(g + penalty.gradient(vec)[:g.size]),
                              vec[:g.size], gamma_block)
    if out is None:
        raise SingularSystemError("mean-step system not positive definite")
    return out


def _sparse_schur_solve(hess: MeanHessian, penalty: PenaltyConfig, c: float,
                        rhs: np.ndarray, base: np.ndarray, gamma_block):
    """base + delta for [P + c*H] delta = rhs, by a partitioned solve
    through the sparse spatial block.

    S22 = l1*I + l2*Laplacian + c*diag(H_aa) is a sparse GMRF precision,
    factored as S22 = P' L L' P by the penalty's ``alpha_band`` (banded
    Cholesky in reverse Cuthill-McKee order P). One forward solve over
    1 + k columns gives y = L^{-1} P rhs_a and Y = L^{-1} P A21, so the
    dense Schur complement is A11 - Y'Y and its right-hand side
    rhs_d - Y'y; that closes the dense part, by Cholesky when l1 > 0 and
    by ``_min_norm_close`` when l1 = 0, and alpha is one back solve of
    y - Y star. The dense part is beta for the mean step (k = k_beta).
    With ``gamma_block`` = (H_gg, H_gb, H_ga), the system is the joint
    one, ``rhs``, ``base`` and the result are packed (beta, alpha,
    gamma), and the dense part is (beta, gamma) (k = k_beta + k_gamma).
    The penalty's ``ridge`` is on the dense part's diagonal. Returns
    None when the system is not positive definite, or with l1 = 0 not
    positive semidefinite.

    With l1 = 0 a component of ``penalty.alpha_components`` that no row
    reaches has no Hessian entry and is decoupled from the rest; a unit
    diagonal makes the band solvable there, and the result there is 0,
    the minimum-norm point where the gradient is 0.
    """
    kb, nv = penalty.k_beta, penalty.n_vertices
    a11 = c * hess.h_bb
    cross = hess.h_ba                         # the dense part against alpha
    if gamma_block is not None:
        h_gg, h_gb, h_ga = gamma_block
        dense = np.empty((kb + h_gg.shape[0],) * 2)
        dense[:kb, :kb], dense[kb:, kb:] = a11, c * h_gg
        dense[kb:, :kb] = c * h_gb
        dense[:kb, kb:] = dense[kb:, :kb].T
        a11, cross = dense, np.vstack([cross, h_ga])
    nd = a11.shape[0]
    a11 = a11 + penalty.ridge * np.eye(nd)
    # rhs and base in the solve's order: the dense part, then alpha
    rhs_d = np.concatenate([rhs[:kb], rhs[kb + nv:]])
    base = np.concatenate([base[:kb], base[kb + nv:], base[kb:kb + nv]])
    diag = c * hess.h_aa_diag
    singular = penalty.lambda1 == 0
    if singular:
        labels = penalty.alpha_components
        touched = (hess.h_aa_diag != 0) | np.any(cross != 0, axis=0)
        loose = np.bincount(labels, weights=touched)[labels] == 0
    factor = penalty.alpha_band.factor(diag + loose if singular else diag)
    if factor is None:
        return None
    fwd = factor.forward(np.column_stack([rhs[kb:kb + nv], c * cross.T]))
    y_r, y_a = fwd[:, 0], fwd[:, 1:]          # L^{-1} P rhs_a, L^{-1} P A21
    schur, r_dense = a11 - y_a.T @ y_a, rhs_d - y_a.T @ y_r
    if nd == 0:
        out = base + factor.back(y_r)
    elif singular:
        tol = SCHUR_NULL_TOL * max(np.abs(a11).max(), np.abs(diag).max())
        out = _min_norm_close(schur, r_dense, y_r, y_a, factor, tol, base)
    else:
        star = _chol_solve(schur, r_dense)
        out = (None if star is None else base + np.concatenate(
            [star, factor.back(y_r - y_a @ star)]))
    if out is None:
        return None
    if singular:
        out[nd:][loose] = 0.0
    return np.concatenate([out[:kb], out[nd:], out[kb:nd]])


def _min_norm_close(schur, r_dense, y_r, y_a, factor, tol, base):
    """Minimum-norm base + delta of a consistent l1 = 0 system from its
    Schur complement, r_dense = rhs_d - Y'y and the forward halves
    y = L^{-1} P rhs_a and Y = L^{-1} P A21 of the band ``factor``:
    delta's dense part by the pseudo-inverse over eigenvalues above tol
    (None if one is below -tol); alpha and the null directions
    [B; -S22^{-1} A21 B] by one back solve of [y - Y star | Y B], and
    the null directions taken out of base + delta, not out of delta."""
    vals, vecs = np.linalg.eigh(schur)
    if vals.min() < -tol:
        return None
    live = vals > tol
    star = vecs[:, live] @ ((vecs[:, live].T @ r_dense) / vals[live])
    null = vecs[:, ~live]
    back = factor.back(np.column_stack([y_r - y_a @ star, y_a @ null]))
    out = base + np.concatenate([star, back[:, 0]])
    basis, _ = np.linalg.qr(np.vstack([null, -back[:, 1:]]))
    return out - basis @ (basis.T @ out)


def solve_disp_step(theta: Coefficients, penalty: PenaltyConfig, c: float,
                    derivs) -> np.ndarray:
    """Solve [l*I + c*H] delta = -(g + l*gamma), with l the penalty's ridge;
    return gamma + delta. ``derivs`` are the gradient and Hessian in
    gamma at theta, as ``_block_derivatives`` makes them.

    The negative log-likelihood need not be convex in gamma. Where the
    step's system is not positive definite, H in it is replaced by its
    absolute-eigenvalue modification (each eigenvalue by its magnitude,
    floored at sqrt(eps) of the largest), so the step still points
    downhill and a large enough c makes it decrease the objective.
    Raises SingularSystemError only when that fails too (a zero or
    non-finite Hessian).
    """
    g, h = derivs
    lam = penalty.ridge
    ridge, rhs = lam * np.eye(g.size), g + lam * theta.gamma
    step = _chol_solve(ridge + c * h, rhs)
    if step is None and np.all(np.isfinite(h)):
        step = _chol_solve(ridge + c * _abs_eigen(h), rhs)
    if step is None:
        raise SingularSystemError(
            "dispersion-step system not positive definite")
    return theta.gamma - step


def _abs_eigen(h):
    """V |L| V' for h = V L V', with |L| floored at sqrt(eps) max |L|."""
    vals, vecs = np.linalg.eigh(h)
    mags = np.abs(vals)
    mags = np.maximum(mags, np.sqrt(np.finfo(float).eps) * mags.max())
    return (vecs * mags) @ vecs.T


# ---------------------------------------------------------------------------
# Majorization constants
# ---------------------------------------------------------------------------

def _descent_margin(penalty: PenaltyConfig, theta_old, theta_new) -> float:
    """Quantitative decrease the accepted step must achieve: l1/2 times
    the squared step over the coefficients the ridge term penalizes."""
    d = penalty.covered(theta_new.as_vector() - theta_old.as_vector())
    return 0.5 * penalty.lambda1 * float(d @ d)


def _try_candidate(solve, theta, penalty, c, derivs, block):
    """theta with ``solve``'s result at scaling c in its ``block`` slice;
    None where the system is singular or the result not finite."""
    try:
        star = solve(theta, penalty, c, derivs)
    except SingularSystemError:
        return None
    if not np.all(np.isfinite(star)):
        return None
    vec = theta.as_vector()
    vec[block] = star
    kb = theta.beta.size
    return Coefficients(*np.split(vec, [kb, kb + theta.alpha.size]))


def _scaled_step(step_kind: str, data, point: _Point, links, penalty):
    """Find the first scaling whose step from the held ``point`` is
    solvable and decreases the objective by at least the descent margin.

    Each step solves [P_b + c*H_b] delta = -(g_b + P_b theta_b) on its
    block b: (beta, alpha) for "mean", gamma for "disp" and all of theta
    for "joint"; the candidate is theta with theta_b + delta in block b,
    under the point's spec. The gradient and the Hessian at the point
    are computed once and shared by every scaling tried. A mean
    candidate is evaluated with the point's dispersion terms, a
    dispersion candidate with its mean exponent, and a joint candidate
    builds both. The joint step tries c = 1 only, the Newton step.
    Returns (c, the accepted point). Raises ScalingError after the
    doubling budget (for the joint step, after its one try); reason
    "not-positive-definite" when no system ever factored, "flat" when
    the joint step's Newton model predicts a decrease below
    ``EPS_CONVERGE``, "no-decrease" otherwise.
    """
    if step_kind not in ("mean", "disp", "joint"):
        raise ConfigError("step_kind must be 'mean', 'disp' or 'joint'")
    theta, spec = point.theta, point.spec
    derivs = _block_derivatives(step_kind, data, point)
    eta = theta.beta.size + theta.alpha.size
    # the step's solver, its block of the packed theta and the held
    # block its candidates reuse
    solve, block, held = {
        "mean": (solve_mean_step, slice(eta), {"terms": point.terms}),
        "disp": (solve_disp_step, slice(eta, None),
                 {"exponent": point.exponent}),
        "joint": (solve_mean_step, slice(None), {}),
    }[step_kind]
    doublings = 0 if step_kind == "joint" else MAX_DOUBLINGS
    c = 1.0
    solvable_seen = False
    for _ in range(doublings + 1):
        cand = _try_candidate(solve, theta, penalty, c, derivs, block)
        if cand is not None:
            solvable_seen = True
            new = _evaluate_or_reject(data, cand, spec, links,
                                      penalty.value(cand.as_vector()),
                                      **held)
            margin = _descent_margin(penalty, theta, cand)
            if (new is not None and new.f <= point.f
                    and point.f - new.f >= margin - DESCENT_SLACK):
                return c, new
        c *= C_GROWTH
    reason = "no-decrease" if solvable_seen else "not-positive-definite"
    if step_kind == "joint" and solvable_seen:
        # the decrease the Newton step's quadratic model predicts,
        # -1/2 (g + P theta)' delta
        vec = theta.as_vector()
        slope = derivs[0] + penalty.gradient(vec)
        if -0.5 * float(slope @ (cand.as_vector() - vec)) < EPS_CONVERGE:
            reason = "flat"
    raise ScalingError(
        f"no majorization constant found for the {step_kind} step after "
        f"{doublings} doublings", reason=reason)


def update_index(data: Dataset, point: _Point, links: LinkPair,
                 p_grid: np.ndarray) -> _Point:
    """Grid update of the index parameter by a walk on the likelihood.

    Starts at the held ``point``, whose spec's p lies on the grid, and moves
    to the smaller-p neighbour while the likelihood does not rise there,
    or else to the larger-p neighbour while it falls; each grid point is
    evaluated at most once, under ``point.spec.with_p`` at its p, and
    the held one not again. The penalty is the held point's, since it
    does not involve p. The walk stops at a local grid minimum: on a
    unimodal profile (ties included) that is the grid minimum, with ties
    broken toward the smaller p, and on a multimodal one it may be a
    local minimum only. The likelihood there never exceeds the held
    point's, so the objective stays non-increasing.

    Returns the point reached: the held one when no neighbour is
    better, for a fixed index (a fixed member, or the compound member
    under the saddlepoint), for a single-point grid and for an empty
    grid.
    """
    grid = np.asarray(p_grid, dtype=float).ravel()
    if not point.spec.free_index or grid.size == 0:
        return point
    i = int(np.argmin(np.abs(grid - point.spec.p)))

    def walk(step, better) -> bool:
        nonlocal i, point
        moved = False
        while 0 <= i + step < grid.size:
            near = _evaluate_or_reject(
                data, point.theta, point.spec.with_p(float(grid[i + step])),
                links, point.pen)
            if near is None or not better(near.nll, point.nll):
                break
            i, point = i + step, near
            moved = True
        return moved

    if not walk(-1, operator.le):
        walk(1, operator.lt)
    return point


def _check_identifiable(data: Dataset, penalty: PenaltyConfig,
                        has_disp: bool) -> None:
    """Fail fast when a coefficient block without a ridge term has a
    design of fewer rows than columns or of deficient column rank: its
    step system is then singular at every scaling constant. The mean
    block at lambda1 = 0 is exempt: its step is the minimum-norm one.
    """
    blocks = []
    if penalty.lambda1 > 0 and not penalty.ridge:
        blocks.append(("mean", "X", data.X, data.rank_X, "beta"))
    if has_disp and not penalty.ridge:
        blocks.append(("dispersion", "Z", data.Z, data.rank_Z, "gamma"))
    for what, name, mat, rank, coef in blocks:
        if rank < mat.shape[1]:
            raise SingularSystemError(
                f"unpenalized {what} design {name} is {mat.shape[0]} x "
                f"{mat.shape[1]} with rank {rank}: {coef} is not "
                "identifiable")


def fit(data: Dataset, spec: FamilySpec, links: LinkPair, config: FitConfig,
        init: Coefficients | None = None) -> FitResult:
    """Run the coordinate descent to convergence of the objective.

    Each iteration from the second on first tries the joint step
    (members with a dispersion model only) and sweeps the mean and
    dispersion blocks when it is rejected, unless its Newton model
    predicted a decrease below ``EPS_CONVERGE``; the index walk follows.

    Stops when the per-iteration objective decrease falls below
    ``EPS_CONVERGE`` or after ``MAX_ITERS`` iterations. A compound fit
    starts at the grid point nearest spec.p; a response outside the
    member's support raises DomainError. The trace of objective values
    is non-increasing; steps that cannot improve the objective at any
    scaling are taken as zero steps, so a fully stalled iteration
    terminates cleanly.
    """
    validate_links(spec, links)
    if data.n_rows == 0:
        raise ConfigError("cannot fit an empty dataset")
    spec_start, p_grid = spec.index_grid(config.p_grid)
    has_disp = data.k_gamma > 0 and spec.has_dispersion
    _check_identifiable(data, config.penalty, has_disp)
    theta = init.copy() if init is not None else \
        data.initial_coefficients(spec, links)
    if theta.beta.size != data.k_beta or theta.gamma.size != data.k_gamma \
            or theta.alpha.size != data.graph.n_vertices:
        raise ConfigError("init has wrong block sizes for this dataset")

    lik._check_member_data(data, spec_start)

    # evaluated unguarded, so that a start the series cannot sum says so
    try:
        point = _evaluate(data, theta, spec_start, links,
                          config.penalty.value(theta.as_vector()))
    except (DomainError, NonFiniteError):
        point = None
    if point is None or not np.isfinite(point.f):
        raise NonFiniteError("objective not finite at the starting point")
    trace = [point.f]
    history = [theta]
    converged = False
    iters = 0
    steps = ("mean", "disp") if has_disp else ("mean",)

    for iters in range(1, MAX_ITERS + 1):
        f_prev = point.f
        kinds = steps
        if has_disp and iters > 1:
            try:
                _, point = _scaled_step("joint", data, point, links,
                                        config.penalty)
                kinds = ()
            except ScalingError as err:
                if err.reason == "flat":    # nothing left for a sweep
                    kinds = ()
        for kind in kinds:
            try:
                _, point = _scaled_step(kind, data, point, links,
                                        config.penalty)
            except ScalingError as err:
                if err.reason != "no-decrease":
                    raise ScalingError(
                        f"iteration {iters}: {err}", reason=err.reason)
        point = update_index(data, point, links, p_grid)
        trace.append(point.f)
        history.append(point.theta)
        if f_prev - point.f < EPS_CONVERGE:
            converged = True
            break

    return FitResult(theta_hat=point.theta, p_hat=point.spec.p,
                     objective_trace=np.array(trace), iters=iters,
                     converged=converged, history=history)


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
