"""Spatially penalized Tweedie double generalized linear models.

Fits paired link-linear models for the mean and dispersion of a
power-variance exponential-dispersion response, plus a graph-structured
spatial effect estimated through Laplacian regularization, via a
majorize-minimize coordinate descent. Includes full density machinery
for the compound Poisson-gamma member, hold-out tuning of the penalty
multipliers, Wald inference for the fixed effects, and a synthetic-data
harness.
"""

from .errors import (CalibrationError, ConfigError, DomainError,
                     NonFiniteError, SchemaError, ScalingError,
                     SeriesInfeasibleError, SingularSystemError, TwdglmError)
from .family import (Approx, FamilySpec, Member, default_p_grid,
                     log_density, log_normalizer_saddlepoint,
                     log_normalizer_series, unit_deviance, validate_links)
from .graph import (ArealGraph, PenaltyConfig, PenaltyMode, assemble_penalty,
                    build_laplacian, lattice_graph)
from .inference import (WaldRow, alpha_summary, fisher_information,
                        p_value_from_z, wald_table)
from .likelihood import (Coefficients, Dataset, MeanHessian, dispersion_terms,
                         exponent_terms, grad_disp, grad_mean, hess_disp,
                         hess_mean, neg_log_lik)
from .links import LinkKind, LinkPair, link_apply, link_eval
from .optimizer import (FitConfig, FitResult, fit, fit_ridge,
                        fit_unpenalized, objective, solve_disp_step,
                        solve_mean_step)
from .simgen import (PatternKind, PatternSpec, SimConfig, gen_covariates,
                     make_dataset, make_pattern, sample_cpg, sse)
from .tuning import (GridSpec, TuneResult, deviance_ratio, grid_search,
                     split_train_holdout, weighted_deviance)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
