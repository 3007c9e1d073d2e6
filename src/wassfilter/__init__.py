"""Wasserstein-metric state estimation.

A measurement update is framed as transport: pick the linear posterior map
whose error distribution is cheapest to move onto a point mass at the origin
under the squared 2-Wasserstein metric. For Gaussian priors that recovers the
Kalman update; for Gaussian-mixture priors a convex upper bound yields the
Gaussian Sum Filter, and the closed-form minimum of the exact weighted
objective (at the GSF gains) gives the nonlinear GSF. A Duffing
oscillator harness benchmarks the filters end to end.
"""

from .errors import (ConditioningError, DegeneracyError, DivergenceError, FitError,
                     HarnessError, ValidationError, WassFilterError, WeightUnderflowError)
from .gaussian import (DEFAULT_EIG_FLOOR, DiracPoint, Gaussian, GaussianMixture,
                       gaussian_logpdf, mixture_mean_cov, sample_gaussian,
                       sample_mixture, spd_sqrt)
from .wasserstein import (w2_distance, w2_empirical, w2_gaussian_dirac,
                          w2_gaussian_gaussian, w2_mixture_dirac)
from .kalman import (GainPair, LinearMeasurementModel, LinearPropagationModel,
                     kalman_gains, kalman_update, orthogonality_residuals,
                     orthogonality_scales, stationary_prior_error_cov,
                     update_error_cost, wasserstein_posterior_cost)
from .gsf import GsfUpdateResult, gsf_bound_cost, gsf_update
from .ngsf import (NgsfProblem, NgsfSolution, apply_ngsf_solution, kkt_residuals,
                   ngsf_cost, ngsf_gradients, ngsf_solve, ngsf_update)
from .propagation import (DuffingModel, EmFitConfig, EmDiagnostics, duffing_rhs,
                          fit_gmm_em, integrate_rk4, propagate_cloud)
from .harness import (ComparisonResult, ExperimentConfig, ExperimentResult,
                      FilterStepRecord, StepRecord, emit_outputs,
                      monte_carlo_compare, run_experiment)

__version__ = "0.1.0"

__all__ = [
    "ConditioningError", "DegeneracyError", "DivergenceError", "FitError",
    "HarnessError", "ValidationError", "WassFilterError", "WeightUnderflowError",
    "DEFAULT_EIG_FLOOR", "DiracPoint", "Gaussian", "GaussianMixture",
    "gaussian_logpdf", "mixture_mean_cov", "sample_gaussian", "sample_mixture",
    "spd_sqrt",
    "w2_distance", "w2_empirical", "w2_gaussian_dirac", "w2_gaussian_gaussian",
    "w2_mixture_dirac",
    "GainPair", "LinearMeasurementModel", "LinearPropagationModel",
    "kalman_gains", "kalman_update", "orthogonality_residuals", "orthogonality_scales",
    "stationary_prior_error_cov", "update_error_cost", "wasserstein_posterior_cost",
    "GsfUpdateResult", "gsf_bound_cost", "gsf_update",
    "NgsfProblem", "NgsfSolution", "apply_ngsf_solution",
    "kkt_residuals", "ngsf_cost", "ngsf_gradients", "ngsf_solve", "ngsf_update",
    "DuffingModel", "EmFitConfig", "EmDiagnostics", "duffing_rhs", "fit_gmm_em",
    "integrate_rk4", "propagate_cloud",
    "ComparisonResult", "ExperimentConfig", "ExperimentResult", "FilterStepRecord",
    "StepRecord", "emit_outputs", "monte_carlo_compare", "run_experiment",
    "__version__",
]
