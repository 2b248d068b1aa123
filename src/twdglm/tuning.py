"""Hold-out grid search for the penalty multipliers with warm starts."""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from . import family as fam
from .errors import ConfigError, TwdglmError
from .family import FamilySpec
from .graph import assemble_penalty
from .likelihood import Coefficients, Dataset
from .links import LinkKind, LinkPair, link_eval
from .optimizer import FitConfig, FitResult, fit


@dataclass
class GridSpec:
    """Tuning grid over (log lambda1, log lambda2) with a hold-out split.

    Defaults follow a 20 x 20 grid on [-5, 5] x [-5, 5] and a 60-40
    train / hold-out split. Traversal is row-major: log lambda1 outer,
    log lambda2 inner, both ascending.
    """

    log_lambda1: np.ndarray = field(
        default_factory=lambda: np.linspace(-5.0, 5.0, 20))
    log_lambda2: np.ndarray = field(
        default_factory=lambda: np.linspace(-5.0, 5.0, 20))
    train_frac: float = 0.6
    seed: int = 0

    def __post_init__(self):
        self.log_lambda1 = np.asarray(self.log_lambda1, dtype=float).ravel()
        self.log_lambda2 = np.asarray(self.log_lambda2, dtype=float).ravel()
        if self.log_lambda1.size == 0 or self.log_lambda2.size == 0:
            raise ConfigError("tuning grid must be nonempty")
        for arr in (self.log_lambda1, self.log_lambda2):
            if arr.size > 1 and np.any(np.diff(arr) <= 0):
                raise ConfigError("grid axes must be strictly ascending")
        if not 0.0 < self.train_frac < 1.0:
            raise ConfigError("train_frac must lie in (0, 1)")
        if self.seed < 0:
            raise ConfigError("seed must be nonnegative")


@dataclass
class SurfaceCell:
    """One grid cell: its hold-out deviance, whether its fit converged
    and in how many iterations (0 where the fit raised), and for a
    failed cell the class name of the error, raised by the fit or by
    the hold-out scoring (empty where the cell was scored)."""

    log_lambda1: float
    log_lambda2: float
    deviance: float
    converged: bool
    failed: bool = False
    iters: int = 0
    error: str = ""


@dataclass
class TuneResult:
    best_lambda1: float
    best_lambda2: float
    best_fit: FitResult
    best_deviance: float
    surface: list
    train_index: np.ndarray
    holdout_index: np.ndarray


def split_train_holdout(data: Dataset, train_frac: float, seed: int):
    """Deterministic shuffled split; returns (train_idx, holdout_idx)."""
    rng = np.random.default_rng(seed)
    perm = rng.permutation(data.n_rows)
    n_train = int(round(train_frac * data.n_rows))
    n_train = min(max(n_train, 1), data.n_rows - 1)
    return np.sort(perm[:n_train]), np.sort(perm[n_train:])


def weighted_deviance(data: Dataset, eta_hat: np.ndarray, spec: FamilySpec,
                      mean_link: LinkKind) -> float:
    """Exposure-weighted total deviance sum_ij w * d(y/w, mu_hat).

    Reduces to the plain unit-deviance sum when every exposure is 1.
    """
    eta_hat = np.asarray(eta_hat, dtype=float)
    kb = data.k_beta
    t = data.X @ eta_hat[:kb] + eta_hat[kb:][data.vertex]
    mu = link_eval(mean_link, t)
    d = fam.unit_deviance(spec, data.ystar, mu)
    return float(np.sum(data.w * d))


def deviance_ratio(data: Dataset, eta_hat: np.ndarray,
                   eta_oracle: np.ndarray, spec: FamilySpec,
                   mean_link: LinkKind) -> float:
    """Hold-out deviance of a fit relative to the generating
    coefficients; values near 1 are desirable."""
    denom = weighted_deviance(data, eta_oracle, spec, mean_link)
    if denom == 0.0:
        raise ConfigError("oracle deviance is zero (noiseless data)")
    return weighted_deviance(data, eta_hat, spec, mean_link) / denom


def grid_search(data: Dataset, spec: FamilySpec, links: LinkPair,
                config_template: FitConfig, grid: GridSpec) -> TuneResult:
    """Fit every grid cell on the training split, score on the hold-out.

    Cells are visited in row-major order, each warm-started from the
    estimates and index of the last cell that fitted. Failed cells are
    recorded on the surface and excluded from the argmin; a cell whose
    fit ran but whose hold-out scoring raised keeps the fit's iteration
    count and convergence flag there. Ties break toward the first (hence
    lexicographically smallest) cell. When every cell fails, the
    ConfigError counts the failures of fitting and of scoring and
    quotes the first error.
    """
    spec.index_grid(config_template.p_grid)     # fails here, not per cell
    train_idx, hold_idx = split_train_holdout(data, grid.train_frac,
                                              grid.seed)
    train = data.subset(train_idx)
    hold = data.subset(hold_idx)
    mode = config_template.penalty.mode

    cells = [(l1, l2) for l1 in grid.log_lambda1 for l2 in grid.log_lambda2]

    surface: list[SurfaceCell] = []
    best: tuple[float, float, float, FitResult] | None = None
    carry: Coefficients | None = None
    carry_p: float | None = None
    failures: dict[str, int] = {}
    first_error: TwdglmError | None = None
    for ll1, ll2 in cells:
        penalty = assemble_penalty(mode, float(np.exp(ll1)),
                                   float(np.exp(ll2)), data.k_beta,
                                   data.graph, data.k_gamma)
        cfg = replace(config_template, penalty=penalty)
        spec_cell = spec if carry_p is None else spec.with_p(carry_p)
        res = None
        try:
            res = fit(train, spec_cell, links, cfg, init=carry)
            dev = weighted_deviance(hold, res.theta_hat.eta,
                                    spec.with_p(res.p_hat), links.mean)
        except TwdglmError as err:
            fitted = res is not None
            surface.append(SurfaceCell(
                float(ll1), float(ll2), float("nan"),
                fitted and res.converged, failed=True,
                iters=res.iters if fitted else 0, error=type(err).__name__))
            stage = "hold-out scoring" if fitted else "fitting"
            failures[stage] = failures.get(stage, 0) + 1
            first_error = first_error or err
            if fitted:
                carry, carry_p = res.theta_hat, res.p_hat
            continue
        surface.append(SurfaceCell(float(ll1), float(ll2), dev,
                                   res.converged, iters=res.iters))
        carry, carry_p = res.theta_hat, res.p_hat
        if np.isfinite(dev) and (best is None or dev < best[0]):
            best = (dev, float(ll1), float(ll2), res)
    if best is None:
        if first_error is None:
            raise ConfigError("no grid cell has a finite hold-out deviance")
        where = ", ".join(f"{stage} raised in {count}"
                          for stage, count in failures.items())
        raise ConfigError(
            f"every grid cell failed ({where} of {len(cells)}); first: "
            f"{type(first_error).__name__}: {first_error}")
    bdev, bl1, bl2, bfit = best
    return TuneResult(best_lambda1=float(np.exp(bl1)),
                      best_lambda2=float(np.exp(bl2)),
                      best_fit=bfit, best_deviance=bdev, surface=surface,
                      train_index=train_idx, holdout_index=hold_idx)

