"""Asymptotic standard errors, Wald statistics and p-values."""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain

import numpy as np

from . import likelihood as lik
from .errors import SingularSystemError
from .family import FamilySpec
from .likelihood import Coefficients, Dataset
from .links import LinkPair


@dataclass
class WaldRow:
    name: str
    estimate: float
    std_error: float
    z: float
    p_value: float


def p_value_from_z(z: float) -> float:
    """One-sided tail convention: 1 - Phi(|z|), so p(0) = 0.5."""
    return 0.5 * math.erfc(abs(z) / math.sqrt(2.0))


def fisher_information(data: Dataset, theta_hat: Coefficients,
                       spec_hat: FamilySpec, links: LinkPair):
    """The observed-information blocks the Wald rows read: the Hessians
    of the unpenalized negative log-likelihood at the fit (theta_hat
    under ``spec_hat``, whose p is the fitted index) in beta and in
    gamma (zero without a dispersion model). The spatial blocks and the
    mean-dispersion cross block are not built: the cross block is zero
    in expectation (Smyth 1989), so the Wald rows treat the two sides
    as orthogonal, but its observed value at a point is not zero (the
    fit's joint step uses it, ``likelihood.hess_cross``).
    Both are additive over rows: duplicating the dataset doubles them.
    Both read the two likelihood blocks at the fit, each built once; a
    response outside the member's support raises DomainError.
    """
    lik._check_member_data(data, spec_hat)
    terms = lik.dispersion_terms(data, theta_hat, spec_hat, links)
    exponent = lik.exponent_terms(data, theta_hat, spec_hat, links)
    h_bb = lik.hess_mean(data, terms, exponent).h_bb
    h_gg = (lik.disp_derivatives(data, terms, exponent)[1] if data.k_gamma
            else np.zeros((0, 0)))
    return h_bb, h_gg


def _block_std_errors(block: np.ndarray, what: str) -> np.ndarray:
    if block.size == 0:
        return np.zeros(0)
    eigvals = np.linalg.eigvalsh(block)
    tol = max(block.shape[0], 1) * np.finfo(float).eps * max(
        abs(eigvals.max(initial=0.0)), 1.0)
    if eigvals.min() <= tol:
        raise SingularSystemError(
            f"{what} information block is singular",
            smallest_pivot=float(eigvals.min()))
    cov = np.linalg.inv(block)
    return np.sqrt(np.diag(cov))


def wald_table(theta_hat: Coefficients, info,
               beta_names: list[str] | None = None,
               gamma_names: list[str] | None = None) -> list[WaldRow]:
    """Wald rows for the fixed effects (beta, gamma).

    Standard errors invert the two blocks ``info`` of
    ``fisher_information``, conditioning on the penalized spatial
    effect (whose joint block with beta is singular whenever an
    intercept is present). The spatial effect itself is summarized
    separately, not tested.
    """
    h_bb, h_gg = info
    kb, kg = theta_hat.beta.size, theta_hat.gamma.size
    if h_bb.shape != (kb, kb) or h_gg.shape != (kg, kg):
        raise SingularSystemError("information blocks have wrong order")
    beta_names = beta_names or [f"beta_{j}" for j in range(kb)]
    gamma_names = gamma_names or [f"gamma_{j}" for j in range(kg)]
    se_beta = _block_std_errors(h_bb, "mean fixed-effect")
    se_gamma = _block_std_errors(h_gg, "dispersion")
    rows = []
    for name, est, se in chain(zip(beta_names, theta_hat.beta, se_beta),
                               zip(gamma_names, theta_hat.gamma, se_gamma)):
        z = est / se
        rows.append(WaldRow(name, float(est), float(se), float(z),
                            p_value_from_z(z)))
    return rows


def alpha_summary(alpha: np.ndarray) -> dict:
    """Distributional summary of the fitted spatial effect."""
    a = np.asarray(alpha, dtype=float)
    return {
        "mean": float(a.mean()),
        "median": float(np.median(a)),
        "sd": float(a.std(ddof=0)),
        "range": float(a.max() - a.min()) if a.size else 0.0,
    }

