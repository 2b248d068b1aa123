"""Reference computations made apart from twdglm.

Each function re-derives, from the textbook formulas and with numpy and
scipy.special only, a quantity the package also computes. The benchmark's
checks compare the package's outputs with these, so that a check never
compares the package with itself or with a stored copy of its output.

Notation follows the package: the response y has a compound Poisson-gamma
law with mean mu = exp(t), dispersion phi = exp(s) and index 1 < p < 2;
every exposure is 1.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import gammaln, logsumexp


def lattice_edges(rows: int, cols: int) -> np.ndarray:
    """Rook-adjacency edges of a rows x cols lattice as an (m, 2) array.

    Vertex (r, c) is numbered r * cols + c, the row-major order in which
    the package lays out its lattices and spatial patterns.
    """
    idx = np.arange(rows * cols).reshape(rows, cols)
    right = np.column_stack([idx[:, :-1].ravel(), idx[:, 1:].ravel()])
    down = np.column_stack([idx[:-1, :].ravel(), idx[1:, :].ravel()])
    return np.vstack([right, down])


def laplacian_quadratic(alpha: np.ndarray, edges: np.ndarray) -> float:
    """alpha' L alpha, summed edge by edge as sum (alpha_a - alpha_b)**2."""
    diff = alpha[edges[:, 0]] - alpha[edges[:, 1]]
    return float(diff @ diff)


def laplacian_apply(alpha: np.ndarray, edges: np.ndarray) -> np.ndarray:
    """L alpha, accumulated edge by edge."""
    out = np.zeros_like(alpha, dtype=float)
    diff = alpha[edges[:, 0]] - alpha[edges[:, 1]]
    np.add.at(out, edges[:, 0], diff)
    np.add.at(out, edges[:, 1], -diff)
    return out


def spatial_penalty(alpha: np.ndarray, edges: np.ndarray, lambda1: float,
                    lambda2: float) -> float:
    """0.5 * (lambda2 * alpha' L alpha + lambda1 * alpha' alpha)."""
    return 0.5 * (lambda2 * laplacian_quadratic(alpha, edges)
                  + lambda1 * float(alpha @ alpha))


def cpg_log_series(y: np.ndarray, phi: np.ndarray, p: float,
                   chunk_rows: int = 2048) -> np.ndarray:
    """log a(y, phi, p) for y > 0 by a direct log-sum-exp over k >= 1.

    a(y, phi, p) = (1/y) * sum_k W_k with
    W_k = y**(k xi) / ((p-1)**(k xi) * phi**(k (1+xi)) * (2-p)**k
                       * k! * Gamma(k xi)),  xi = (2-p)/(p-1)
    (Dunn & Smyth 2005). Every row sums the same k = 1..K, with K
    doubled until the last term of every row is below exp(-40) times
    that row's largest term.
    """
    y = np.asarray(y, dtype=float)
    phi = np.broadcast_to(np.asarray(phi, dtype=float), y.shape)
    xi = (2.0 - p) / (p - 1.0)
    log_t = (xi * np.log(y) - xi * math.log(p - 1.0) - math.log(2.0 - p)
             - (1.0 + xi) * np.log(phi))
    mode = float((y ** (2.0 - p) / ((2.0 - p) * phi)).max(initial=1.0))
    k_max = int(math.ceil(2.0 * mode + 20.0 * math.sqrt(mode) + 100.0))
    out = np.empty(y.size)
    for lo in range(0, y.size, chunk_rows):
        rows = slice(lo, lo + chunk_rows)
        while True:
            k = np.arange(1, k_max + 1, dtype=float)
            log_w = (np.outer(log_t[rows], k) - gammaln(k + 1.0)
                     - gammaln(xi * k))
            if np.all(log_w[:, -1] < log_w.max(axis=1) - 40.0):
                break
            k_max *= 2
        out[rows] = logsumexp(log_w, axis=1)
    return out - np.log(y)


def cpg_series_nll(y, X, Z, vertex, beta, alpha, gamma, p) -> float:
    """Negative log-likelihood under the exact (series) density.

    log f = (y mu**(1-p)/(1-p) - mu**(2-p)/(2-p)) / phi + log a, with
    log a = 0 at y = 0, where the density is the Poisson atom.
    """
    mu = np.exp(X @ beta + alpha[vertex])
    phi = np.exp(Z @ gamma)
    ll = (y * mu ** (1.0 - p) / (1.0 - p) - mu ** (2.0 - p) / (2.0 - p)) / phi
    pos = y > 0
    ll[pos] += cpg_log_series(y[pos], phi[pos], p)
    return -math.fsum(ll)


def unit_deviance(y: np.ndarray, mu: np.ndarray, p: float) -> np.ndarray:
    """Tweedie unit deviance -2 * int_y^mu (y - u) / u**p du, 1 < p < 2.

    d = 2 * (y**(2-p)/((1-p)(2-p)) - y mu**(1-p)/(1-p) + mu**(2-p)/(2-p)),
    whose first term vanishes at y = 0.
    """
    y = np.asarray(y, dtype=float)
    mu = np.asarray(mu, dtype=float)
    return 2.0 * (y ** (2.0 - p) / ((1.0 - p) * (2.0 - p))
                  - y * mu ** (1.0 - p) / (1.0 - p)
                  + mu ** (2.0 - p) / (2.0 - p))


def total_deviance(y, X, vertex, beta, alpha, p) -> float:
    """sum_i d(y_i, exp(x_i' beta + alpha_vertex(i)))."""
    mu = np.exp(X @ beta + alpha[vertex])
    return math.fsum(unit_deviance(y, mu, p))


def saddlepoint_gradient(y, X, Z, vertex, beta, alpha, gamma, p, edges,
                         lambda1, lambda2) -> np.ndarray:
    """Gradient in (beta, alpha, gamma) of the penalized objective under
    the saddlepoint density.

    The per-row negative log density is
    0.5 * log(2 pi phi V(y)) + d(y, mu) / (2 phi), so with mu = exp(t)
    and phi = exp(s):
      d/dt = (mu**(2-p) - y mu**(1-p)) / phi,
      d/ds = 0.5 - d(y, mu) / (2 phi).
    The spatial penalty adds lambda1 alpha + lambda2 L alpha.
    """
    mu = np.exp(X @ beta + alpha[vertex])
    phi = np.exp(Z @ gamma)
    r_t = (mu ** (2.0 - p) - y * mu ** (1.0 - p)) / phi
    r_s = 0.5 - unit_deviance(y, mu, p) / (2.0 * phi)
    g_beta = X.T @ r_t
    g_alpha = (np.bincount(vertex, weights=r_t, minlength=alpha.size)
               + lambda1 * alpha + lambda2 * laplacian_apply(alpha, edges))
    g_gamma = Z.T @ r_s
    return np.concatenate([g_beta, g_alpha, g_gamma])
