"""Synthetic-data machinery: spatial patterns, covariates, compound
Poisson-gamma sampling, zero-proportion calibration, and the
sum-of-squared-error metric against the generating coefficients."""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .errors import CalibrationError, ConfigError
from .family import FamilySpec
from .graph import lattice_graph
from .likelihood import Coefficients, Dataset

# Variance and decay rate of the structured pattern's squared-exponential
# kernel.
GP_SIGMA2 = 1.5
GP_PHI = 3.0
# Mean slopes of the four synthetic covariates.
BETA_SLOPES = (0.5, -0.3, 1.0, -1.0)
# The calibrated mean intercept is searched in [-bound, bound].
INTERCEPT_BOUND = 20.0


class PatternKind(enum.Enum):
    BLOCK = "block"
    SMOOTH = "smooth"
    HOTSPOT = "hotspot"
    STRUCTURED_GP = "structured"

    @classmethod
    def from_name(cls, name: str) -> "PatternKind":
        for kind in cls:
            if kind.value == name:
                return kind
        raise ConfigError(f"unknown pattern {name!r}")


@dataclass
class PatternSpec:
    """A spatial pattern over a rows x cols lattice standing in for the
    areal map."""

    kind: PatternKind
    rows: int
    cols: int
    amplitude: float = 1.0
    seed: int = 0

    def __post_init__(self):
        if isinstance(self.kind, str):
            self.kind = PatternKind.from_name(self.kind)
        if self.rows * self.cols < 4:
            raise ConfigError("lattice needs at least 4 vertices")
        if not np.isfinite(self.amplitude):
            raise ConfigError("pattern amplitude must be finite")


def _lattice_coords(rows: int, cols: int) -> np.ndarray:
    """Vertex positions on the unit square, row-major vertex order."""
    rr = np.repeat(np.arange(rows), cols)
    cc = np.tile(np.arange(cols), rows)
    xr = rr / max(rows - 1, 1)
    xc = cc / max(cols - 1, 1)
    return np.column_stack([xr, xc])


def gp_covariance(spec: PatternSpec) -> np.ndarray:
    """Squared-exponential kernel sigma^2 * exp(-phi * ||ds||^2) over the
    lattice coordinates."""
    coords = _lattice_coords(spec.rows, spec.cols)
    d2 = ((coords[:, None, :] - coords[None, :, :]) ** 2).sum(axis=2)
    return GP_SIGMA2 * np.exp(-GP_PHI * d2)


def draw_gp(spec: PatternSpec, rng: np.random.Generator) -> np.ndarray:
    """One uncentered draw from the zero-mean lattice Gaussian process."""
    cov = gp_covariance(spec)
    jitter = 1e-10 * GP_SIGMA2 * np.eye(cov.shape[0])
    chol = np.linalg.cholesky(cov + jitter)
    return chol @ rng.standard_normal(cov.shape[0])


def make_pattern(spec: PatternSpec) -> np.ndarray:
    """Spatial-effect vector over the lattice vertices.

    Block: two horizontal bands at +/- amplitude. Smooth: a linear
    top-to-bottom gradient spanning [-amplitude, amplitude]. Hotspot: a
    -amplitude/2 baseline with two circular bumps at +amplitude.
    Structured: a Gaussian-process draw centered to mean zero.
    """
    rows, cols, amp = spec.rows, spec.cols, spec.amplitude
    rr = np.repeat(np.arange(rows), cols)
    cc = np.tile(np.arange(cols), rows)
    if spec.kind is PatternKind.BLOCK:
        return np.where(rr < rows // 2, amp, -amp).astype(float)
    if spec.kind is PatternKind.SMOOTH:
        frac = rr / max(rows - 1, 1)
        return amp * (2.0 * frac - 1.0)
    if spec.kind is PatternKind.HOTSPOT:
        centers = [(0.25 * (rows - 1), 0.25 * (cols - 1)),
                   (0.75 * (rows - 1), 0.75 * (cols - 1))]
        radius = 0.27 * max(min(rows, cols) - 1, 1)
        out = np.full(rows * cols, -amp / 2.0)
        for cr, ccen in centers:
            inside = (rr - cr) ** 2 + (cc - ccen) ** 2 <= radius ** 2
            out[inside] = amp
        return out
    rng = np.random.default_rng(spec.seed)
    draw = draw_gp(spec, rng)
    return draw - draw.mean()


def gen_covariates(n: int, seed: int | np.random.Generator):
    """The four-covariate scheme, drawn independently for the mean and
    dispersion designs: Bin(1, .5), Bin(4, .5), N(0, .1), N(0, .1)
    (0.1 read as a variance)."""
    if n < 1:
        raise ConfigError("need at least one row")
    rng = seed if isinstance(seed, np.random.Generator) \
        else np.random.default_rng(seed)
    sd = np.sqrt(0.1)

    def draw():
        return np.column_stack([
            rng.binomial(1, 0.5, n).astype(float),
            rng.binomial(4, 0.5, n).astype(float),
            rng.normal(0.0, sd, n),
            rng.normal(0.0, sd, n),
        ])

    return draw(), draw()


def sample_cpg(mu, phi, p: float, seed: int | np.random.Generator):
    """Compound Poisson-gamma draw(s): a Poisson count of gamma summands.

    The count rate is mu**(2-p) / (phi*(2-p)); each summand has shape
    (2-p)/(p-1) and scale phi*(p-1)*mu**(p-1), so the mean is mu, the
    variance phi*mu**p, and the atom at zero exp(-rate).
    """
    if not 1.0 < p < 2.0:
        raise ConfigError("sample_cpg requires 1 < p < 2")
    rng = seed if isinstance(seed, np.random.Generator) \
        else np.random.default_rng(seed)
    mu_a = np.atleast_1d(np.asarray(mu, dtype=float))
    phi_a = np.broadcast_to(np.asarray(phi, dtype=float), mu_a.shape)
    if np.any(mu_a <= 0) or np.any(phi_a <= 0):
        raise ConfigError("mu and phi must be positive")
    lam = mu_a ** (2.0 - p) / (phi_a * (2.0 - p))
    shape = (2.0 - p) / (p - 1.0)
    scale = phi_a * (p - 1.0) * mu_a ** (p - 1.0)
    counts = rng.poisson(lam)
    out = np.zeros(mu_a.shape)
    pos = counts > 0
    if np.any(pos):
        out[pos] = rng.gamma(counts[pos] * shape, scale[pos])
    return float(out[0]) if np.ndim(mu) == 0 else out


@dataclass
class SimConfig:
    """Generating coefficients for the synthetic studies.

    The mean intercept is calibrated at generation time to hit the
    requested zero proportion within +/-``INTERCEPT_BOUND``; the slopes
    are ``BETA_SLOPES`` and the dispersion model is fixed here, so
    parameter-recovery metrics are comparable across replications.
    """

    gamma0: tuple = (0.0, 0.2, -0.1, 0.3, -0.3)
    amplitude: float = 1.0


def _calibrate_intercept(x_slope_part: np.ndarray, alpha_row: np.ndarray,
                         phi: np.ndarray, p: float, target: float) -> float:
    """Bisect the mean intercept so the average zero probability
    exp(-rate) hits the target; raising the intercept raises the mean
    and lowers the zero mass."""

    def zero_prob(b0):
        mu = np.exp(b0 + x_slope_part + alpha_row)
        lam = mu ** (2.0 - p) / (phi * (2.0 - p))
        return float(np.mean(np.exp(-lam)))

    lo, hi = -INTERCEPT_BOUND, INTERCEPT_BOUND
    f_lo = zero_prob(lo) - target
    f_hi = zero_prob(hi) - target
    if f_lo < 0 or f_hi > 0:
        raise CalibrationError(
            f"zero proportion {target} unreachable within intercept "
            f"bounds +/-{INTERCEPT_BOUND}")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        f_mid = zero_prob(mid) - target
        if abs(f_mid) <= 5e-4:
            return mid
        if f_mid > 0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def make_dataset(n: int, rows: int, cols: int, pattern: PatternKind | str,
                 spec: FamilySpec, target_zero_prop: float, seed: int,
                 sim: SimConfig | None = None):
    """Synthetic dataset over a rook lattice plus its generating
    coefficients.

    Rows are assigned to vertices uniformly (re-drawn until every
    vertex has at least one row); responses are compound Poisson-gamma
    with log-linear mean and dispersion models and the configured
    spatial pattern added to the mean predictor.
    """
    if not spec.free_index:
        raise ConfigError("synthetic responses are compound Poisson-gamma")
    if n < 1:
        raise ConfigError("n must be at least 1")
    if not 0.0 < target_zero_prop < 1.0:
        raise ConfigError("target_zero_prop must lie in (0, 1)")
    if seed < 0:
        raise ConfigError("seed must be nonnegative")
    sim = sim or SimConfig()
    g = lattice_graph(rows, cols)
    n_v = g.n_vertices
    if n < n_v:
        raise ConfigError(f"n = {n} rows cannot cover the {n_v} vertices "
                          f"of a {rows}x{cols} lattice")
    rng = np.random.default_rng(seed)

    pattern_spec = PatternSpec(pattern, rows, cols, amplitude=sim.amplitude,
                               seed=seed)
    alpha0 = make_pattern(pattern_spec)

    for _ in range(100):
        vertex = rng.integers(0, n_v, n)
        if np.bincount(vertex, minlength=n_v).min() > 0:
            break
    else:
        raise CalibrationError("could not cover every vertex with rows")

    x_cov, z_cov = gen_covariates(n, rng)
    X = np.column_stack([np.ones(n), x_cov])
    Z = np.column_stack([np.ones(n), z_cov])
    gamma0 = np.asarray(sim.gamma0, dtype=float)
    phi = np.exp(Z @ gamma0)
    slopes = np.asarray(BETA_SLOPES, dtype=float)
    x_slope_part = x_cov @ slopes
    beta0_0 = _calibrate_intercept(x_slope_part, alpha0[vertex], phi, spec.p,
                                   target_zero_prop)
    beta0 = np.concatenate([[beta0_0], slopes])
    mu = np.exp(X @ beta0 + alpha0[vertex])
    y = sample_cpg(mu, phi, spec.p, rng)
    data = Dataset(y, np.ones(n), vertex, X, Z, g)
    oracle = Coefficients(beta0, alpha0, gamma0)
    return data, oracle


@dataclass
class SseParts:
    total: float
    mean_part: float
    spatial_part: float
    disp_part: float


def sse(theta_oracle: Coefficients, theta_hat: Coefficients) -> SseParts:
    """Squared-error decomposition against the generating coefficients."""
    for a, b, name in ((theta_oracle.beta, theta_hat.beta, "beta"),
                       (theta_oracle.alpha, theta_hat.alpha, "alpha"),
                       (theta_oracle.gamma, theta_hat.gamma, "gamma")):
        if a.size != b.size:
            raise ConfigError(f"{name} blocks have different sizes")
    mean_part = float(np.sum((theta_oracle.beta - theta_hat.beta) ** 2))
    spatial_part = float(np.sum((theta_oracle.alpha - theta_hat.alpha) ** 2))
    disp_part = float(np.sum((theta_oracle.gamma - theta_hat.gamma) ** 2))
    return SseParts(mean_part + spatial_part + disp_part,
                    mean_part, spatial_part, disp_part)
