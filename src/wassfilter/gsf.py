"""Gaussian Sum Filter measurement update.

For a Gaussian-mixture prior under a linear Gaussian sensor, minimizing the
convex upper bound ``sum_i tr E[e_i+ e_i+^T]`` of the mixture posterior-error
transport cost decouples into one Kalman-gain problem per component:

    H_i* = S_i- C^T (C S_i- C^T + R)^-1,   G_i* = I - H_i* C.

Posterior weights follow the Bayesian reweighting

    w_i+ = w_i- N(y; C mu_i-, C S_i- C^T + R) / normalizer,

computed in log space with max-subtraction so distant components underflow
gracefully. Component order is preserved: posterior node i descends from
prior node i.

The K problems share one shape, so one stacked ``eigh`` of the innovation
covariances (see ``kalman.py``) gives every gain, posterior moment, cost and
likelihood weight without a per-component loop.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConditioningError, ValidationError, WeightUnderflowError
from .gaussian import GaussianMixture, _as_float_array, _as_vector, _readonly, _trusted_new
# kalman_gains is unused here but stays a module attribute: perfbench/layertrace.py patches it.
from .kalman import (LinearMeasurementModel, _apply_linear_update,  # noqa: F401
                     _innovation_gains, kalman_gains)


@dataclass(frozen=True, eq=False)
class GsfUpdateResult:
    """Posterior mixture, the ``(K, n, m)`` stack of measurement gains ``H`` (the
    state gains are ``kalman.state_gain``) and ``component_costs``, the ``(K,)``
    traces of the posterior-error covariances ``G S G^T + H R H^T`` before their
    eigenvalue floor, equal to ``kalman.update_error_cost`` at those gains."""

    posterior: GaussianMixture
    gains: np.ndarray
    component_costs: np.ndarray

    def __post_init__(self):
        gains = _as_float_array(self.gains, "gains")
        costs = _as_float_array(self.component_costs, "component_costs")
        _check_shapes(self.posterior, gains, costs)
        object.__setattr__(self, "gains", _readonly(gains))
        object.__setattr__(self, "component_costs", _readonly(costs))

    @classmethod
    def _trusted(cls, posterior: GaussianMixture, gains: np.ndarray,
                 component_costs: np.ndarray) -> "GsfUpdateResult":
        """A result over float arrays just computed: checks the shapes but marks
        the arrays read-only in place instead of copying them, so a caller
        passes only arrays that it alone holds or that are read-only already."""
        _check_shapes(posterior, gains, component_costs)
        return _trusted_new(cls, posterior=posterior, gains=gains,
                            component_costs=component_costs)


def _check_shapes(posterior: GaussianMixture, gains: np.ndarray, costs: np.ndarray) -> None:
    order, dim = posterior.order, posterior.dim
    if gains.ndim != 3 or gains.shape[:2] != (order, dim):
        raise ValidationError(f"gains of shape {gains.shape} for a {order}-component "
                              f"posterior of dimension {dim}")
    if costs.shape != (order,):
        raise ValidationError(f"component_costs has shape {costs.shape}")


def _normalize_log_weights(log_w: np.ndarray) -> np.ndarray:
    finite = np.isfinite(log_w)
    if not np.any(finite):
        raise WeightUnderflowError("all posterior weight likelihoods underflowed to zero")
    shifted = np.exp(log_w - log_w[finite].max())
    return shifted / shifted.sum()


def gsf_update(prior: GaussianMixture, model: LinearMeasurementModel, y) -> GsfUpdateResult:
    """One GSF measurement update: per-component Kalman updates plus reweighting."""
    y = _as_vector(y, "y")
    if y.shape[0] != model.meas_dim:
        raise ValidationError(f"measurement has dimension {y.shape[0]}, model expects {model.meas_dim}")
    if prior.dim != model.state_dim:
        raise ValidationError(f"prior has dimension {prior.dim}, model expects {model.state_dim}")

    means, covs = prior.means, prior.covs
    try:
        white, log_det, h = _innovation_gains(covs, model)
    except ConditioningError as exc:
        raise ConditioningError(f"component {exc.component}: {exc}") from exc
    innovations = y - means @ model.C.T
    post_means, post_covs, costs = _apply_linear_update(means, covs, h, model, innovations)

    # log w_i- + log N(y; C mu_i-, C S_i- C^T + R) from the whitened innovations.
    z = (white @ innovations[:, :, None])[:, :, 0]
    log_like = -0.5 * (model.meas_dim * np.log(2.0 * np.pi) + log_det + (z * z).sum(axis=1))
    with np.errstate(divide="ignore"):
        weights = _normalize_log_weights(np.log(prior.weights) + log_like)

    # ensure_spd has just certified post_covs, so the mixture skips that pass;
    # the gains and costs are fresh arrays, so the result takes them uncopied.
    posterior = GaussianMixture._trusted(weights, post_means, post_covs, eig_floor=0.0)
    return GsfUpdateResult._trusted(posterior, h, costs)


def gsf_bound_cost(result: GsfUpdateResult) -> float:
    """Value of the convex upper bound the GSF minimizes: the unweighted sum
    of per-component posterior-error traces."""
    return float(result.component_costs.sum())
