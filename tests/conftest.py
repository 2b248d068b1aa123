"""Shared instance generators, oracles and finite-difference helpers."""

import csv

import numpy as np
import pytest
from hypothesis import settings
from scipy import linalg, special

from twdglm import family as fam
from twdglm import likelihood as lik
from twdglm.errors import ConfigError, DomainError, SchemaError
from twdglm.family import Approx, FamilySpec, Member
from twdglm.graph import PenaltyMode, lattice_graph
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
    return {
        Member.NORMAL: FamilySpec.normal,
        Member.POISSON: FamilySpec.poisson,
        Member.GAMMA: FamilySpec.gamma,
        Member.INVERSE_GAUSSIAN: FamilySpec.inverse_gaussian,
    }[member]()


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


def dense_mean_matrix(hess, pen, c1) -> np.ndarray:
    """Dense mean-step matrix c1*H + l1*I0 + l2*W0 over (beta, alpha)."""
    m = hess.order
    big = pen.lambda1 * identity_block(pen) \
        + pen.lambda2 * laplacian_block(pen)
    return c1 * hess.to_dense() + big[:m, :m]


def dense_mean_step(data, theta, spec, links, pen, c1):
    """Reference eta* of one mean step by dense Cholesky; None when the
    system is not positive definite."""
    hess = hess_mean(data, theta, spec, links)
    rhs = c1 * hess.to_dense() @ theta.eta \
        - grad_mean(data, theta, spec, links)
    try:
        factor = linalg.cho_factor(dense_mean_matrix(hess, pen, c1))
    except linalg.LinAlgError:
        return None
    return linalg.cho_solve(factor, rhs)


def mean_exponent_generic(data, spec, kind, t, p):
    """Chain-rule D(t), D'(t), D''(t) through the canonical map; the
    oracle for the closed forms in ``likelihood._mean_exponent``."""
    spec_p = spec.with_p(p) if spec.p != p else spec
    y = data.ystar
    mu = link_eval(kind, t, 0)
    fam.check_mean_space(spec_p, mu, what="h1(t)")
    h1p = link_eval(kind, t, 1)
    h1pp = link_eval(kind, t, 2)
    theta1 = fam.theta_of_mu(spec_p, mu, 1)
    theta2 = fam.theta_of_mu(spec_p, mu, 2)
    d0 = y * fam.theta_of_mu(spec_p, mu, 0) - fam.cumulant_of_mu(spec_p, mu)
    d1 = theta1 * h1p * (y - mu)
    d2 = (theta2 * h1p ** 2 + theta1 * h1pp) * (y - mu) - h1p ** 2 * theta1
    return d0, d1, d2


def natural_from_predictor(spec, kind, t, order=0):
    """Canonical parameter theta(h(t)) of the mean predictor (order 0)
    and its first two t-derivatives by the chain rule; the composition
    that the closed forms in ``likelihood._mean_exponent`` fold in."""
    scalar = np.ndim(t) == 0
    mu = link_eval(kind, t, 0)
    fam.check_mean_space(spec, mu, what="h(t)")
    if order == 0:
        out = fam.theta_of_mu(spec, mu, 0)
    elif order == 1:
        out = fam.theta_of_mu(spec, mu, 1) * link_eval(kind, t, 1)
    elif order == 2:
        h1 = link_eval(kind, t, 1)
        out = (fam.theta_of_mu(spec, mu, 2) * np.asarray(h1) ** 2
               + fam.theta_of_mu(spec, mu, 1) * link_eval(kind, t, 2))
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
    values = [nll_cur if nll_cur is not None and pk == spec.p
              else lik.nll_or_inf(data, theta_star, spec, links, p=pk)
              for pk in grid]
    best = int(np.argmin(values))
    return float(grid[best]), float(values[best])


def full_series_logsums(y, phi, p):
    """(log_a, r1, r2) of the Bessel series summed over k = 1..K, with K
    doubled until each row's last term is below e^-40 of its largest;
    the oracle for the windowed ``family._series_logsums``."""
    y = np.atleast_1d(np.asarray(y, dtype=float))
    phi = np.broadcast_to(np.asarray(phi, dtype=float), y.shape)
    xi = (2.0 - p) / (p - 1.0)
    log_t = (xi * np.log(y) - xi * np.log(p - 1.0) - np.log(2.0 - p)
             - (1.0 + xi) * np.log(phi))
    big_k = 64
    while True:
        k = np.arange(1.0, big_k + 1.0)
        log_terms = np.outer(log_t, k) - (special.gammaln(k + 1.0)
                                          + special.gammaln(xi * k))
        top = log_terms.max(axis=1)
        if np.all(log_terms[:, -1] < top - 40.0):
            break
        big_k *= 2
    wts = np.exp(log_terms - top[:, None])
    s0 = wts.sum(axis=1)
    scale = 1.0 + xi
    return (-np.log(y) + top + np.log(s0),
            scale * (wts @ k) / s0,
            scale ** 2 * (wts @ (k * k)) / s0)


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
