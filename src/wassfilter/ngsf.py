"""Nonlinear Gaussian Sum Filter: the exact-objective refinement of the GSF.

The GSF gains minimize a convex upper bound, not the exact weighted objective

    J(w, {H_i}) = sum_i w_i c_i(H_i),
    c_i(H_i) = tr((H_i C - I) S_i- (H_i C - I)^T + H_i R H_i^T),
    subject to sum_i w_i = 1, w_i >= 0.

``G_i`` never appears: the first-order condition ``G_i = I - H_i C``
eliminates it analytically. Each ``c_i`` is strictly convex with its minimum
at the Kalman gain ``K_i``, which the GSF warm start already holds, and J is
linear in w. So the global minimum is ``min_i c_i(K_i)``, reached by any
weight vector on the simplex face of the cheapest components: no iteration is
needed. ``ngsf_solve`` returns that closed form, which also makes the GSF
suboptimality explicit: the nGSF puts all weight on the cheapest components.
``ngsf_cost``, ``ngsf_gradients`` and ``kkt_residuals`` evaluate the objective
at arbitrary points as diagnostics. The posterior is the GSF result reweighted
onto that face in O(K); the costs depend on the prior covariances, C and R only.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .gaussian import GaussianMixture, _as_float_array, _as_vector, _readonly, _trusted_new
from .gsf import GsfUpdateResult, gsf_update
from .kalman import LinearMeasurementModel, state_gain, update_error_cost

# Off-simplex rejection tolerances for user-supplied weight vectors.
_SUM_ATOL = 1e-8
_NEG_ATOL = 1e-12
# Absolute slack by which a final cost may exceed its warm-start cost and still
# count as no worse (the dominance check and the harness's dominance counts).
DOMINANCE_ATOL = 1e-12


def _check_simplex(weights: np.ndarray) -> np.ndarray:
    w = _as_float_array(weights, "weights")
    if w.ndim != 1:
        raise ValidationError(f"weights must be a vector, got shape {w.shape}")
    if abs(float(w.sum()) - 1.0) > _SUM_ATOL or float(w.min()) < -_NEG_ATOL:
        raise ValidationError(f"weights {w!r} are off the probability simplex")
    return w


def _check_problem_dims(weights, gains, prior: GaussianMixture, model: LinearMeasurementModel):
    """The checked weights and the gains as one ``(K, n, m)`` stack."""
    w = _check_simplex(weights)
    h = _as_float_array(gains, "gains")
    expected = (prior.order, model.state_dim, model.meas_dim)
    if w.shape[0] != prior.order or h.shape != expected:
        raise ValidationError(f"expected {prior.order} weights and gains of shape {expected}, "
                              f"got {w.shape[0]} and {h.shape}")
    return w, h


def component_costs(gains, prior: GaussianMixture, model: LinearMeasurementModel) -> np.ndarray:
    """Per-component posterior-error traces ``c_i(H_i)`` at the given gains."""
    return update_error_cost(_as_float_array(gains, "gains"), prior.covs, model)


def ngsf_cost(weights, gains, prior: GaussianMixture, model: LinearMeasurementModel) -> float:
    """Exact weighted objective ``sum_i w_i c_i(H_i)``."""
    w, h = _check_problem_dims(weights, gains, prior, model)
    return float(w @ component_costs(h, prior, model))


def ngsf_gradients(weights, gains, prior: GaussianMixture,
                   model: LinearMeasurementModel) -> tuple[np.ndarray, np.ndarray]:
    """Analytic gradients of the exact objective, the gain block as a ``(K, n, m)`` stack.

    dJ/dw_i = c_i(H_i)
    dJ/dH_i = 2 w_i ((H_i C - I) S_i- C^T + H_i R) = 2 w_i (H_i R - G_i S_i- C^T)
    """
    w, h = _check_problem_dims(weights, gains, prior, model)
    grad_w = component_costs(h, prior, model)
    grad_h = 2.0 * w[:, None, None] * (h @ model.R - state_gain(h, model) @ prior.covs @ model.C.T)
    return grad_w, grad_h


def kkt_residuals(weights, gains, prior: GaussianMixture,
                  model: LinearMeasurementModel) -> tuple[float, float]:
    """Karush-Kuhn-Tucker residuals of the weight block at a candidate point.

    Returns ``(spread, violation)`` where ``spread`` is the range of the
    weight gradients over the support (components with positive weight; zero
    at a stationary point) and ``violation`` is how far any zero-weight
    component's gradient falls below the support's common value.
    """
    w, h = _check_problem_dims(weights, gains, prior, model)
    grad_w = component_costs(h, prior, model)
    support = w > 0.0
    spread = float(grad_w[support].max() - grad_w[support].min())
    nu = float(grad_w[support].min())
    if np.all(support):
        return spread, 0.0
    violation = max(0.0, nu - float(grad_w[~support].min()))
    return spread, violation


@dataclass(frozen=True, eq=False)
class NgsfProblem:
    """One nGSF measurement-update instance and the GSF update ``warm`` it starts from."""

    prior: GaussianMixture
    model: LinearMeasurementModel
    y: np.ndarray
    warm: GsfUpdateResult

    def __post_init__(self):
        y = _as_vector(self.y, "y")
        _check_problem_dims(self.warm_weights, self.warm_gains, self.prior, self.model)
        object.__setattr__(self, "y", _readonly(y))

    @property
    def warm_weights(self) -> np.ndarray:
        return self.warm.posterior.weights

    @property
    def warm_gains(self) -> np.ndarray:
        return self.warm.gains

    @classmethod
    def from_gsf(cls, prior: GaussianMixture, model: LinearMeasurementModel, y,
                 gsf_result: GsfUpdateResult | None = None) -> "NgsfProblem":
        """Warm start from one GSF update (its gains and Bayesian weights).

        The update's posterior weights are a checked mixture's, on the simplex
        already, so only the shapes are checked against ``prior`` and ``model``.
        """
        if gsf_result is None:
            gsf_result = gsf_update(prior, model, y)
        expected = (prior.order, model.state_dim, model.meas_dim)
        if gsf_result.gains.shape != expected:
            raise ValidationError(f"expected gains of shape {expected}, "
                                  f"got {gsf_result.gains.shape}")
        return _trusted_new(cls, prior=prior, model=model, y=_readonly(_as_vector(y, "y")),
                            warm=gsf_result)


@dataclass(frozen=True, eq=False)
class NgsfSolution:
    """Solver output: the minimizing weights and ``(K, n, m)`` gains, with the warm
    and final costs."""

    weights: np.ndarray
    gains: np.ndarray
    warm_cost: float
    final_cost: float

    def __post_init__(self):
        _check_dominance(self.warm_cost, self.final_cost)
        object.__setattr__(self, "weights", _readonly(_as_float_array(self.weights, "weights")))
        object.__setattr__(self, "gains", _readonly(_as_float_array(self.gains, "gains")))

    @classmethod
    def _trusted(cls, weights: np.ndarray, gains: np.ndarray, warm_cost: float,
                 final_cost: float) -> "NgsfSolution":
        """A solution over float arrays that the caller alone holds or that are
        read-only already: checks the costs but marks the arrays read-only in
        place instead of copying them."""
        _check_dominance(warm_cost, final_cost)
        return _trusted_new(cls, weights=weights, gains=gains, warm_cost=warm_cost,
                            final_cost=final_cost)


def _check_dominance(warm_cost: float, final_cost: float) -> None:
    if final_cost > warm_cost + DOMINANCE_ATOL:
        raise ValidationError(
            f"final cost {final_cost!r} is above the warm-start cost {warm_cost!r}")


def ngsf_solve(problem: NgsfProblem) -> NgsfSolution:
    """Global minimum of the exact objective, in closed form.

    The warm-start gains are the per-component Kalman gains, which minimize
    every ``c_i``; J is then linear in the weights, so its minimum over the
    simplex is ``min_i c_i``. Weight is split evenly over the components that
    tie at that minimum; the gains are kept and the costs are the GSF's.

    A tie is decided up to the rounding of the costs, not by their last bits:
    the face is every component with ``c_i <= min + tol``. Each cost is the
    trace of ``G S G^T + H R H^T``, a sum of products computed to within
    ``gamma_(3n+2m) ~ (3n + 2m) eps`` times the sum of their magnitudes (``n``
    states, ``m`` measurements; Higham, *Accuracy and Stability of Numerical
    Algorithms*, 2002, sec. 3.5). Taking that sum as the cost itself, two costs
    equal in exact arithmetic differ by less than ``tol = 2 (3n + 2m) eps |min|``.
    ``tol`` is capped at :data:`DOMINANCE_ATOL`, so the face never lifts the
    final cost above the cheapest by as much as the dominance check allows.
    """
    costs = problem.warm.component_costs
    low = costs.min()
    terms = 3 * problem.model.state_dim + 2 * problem.model.meas_dim
    face = costs <= low + min(2 * terms * np.finfo(float).eps * abs(low), DOMINANCE_ATOL)
    weights = face / face.sum()
    return NgsfSolution._trusted(weights, problem.warm_gains,
                                 warm_cost=float(problem.warm_weights @ costs),
                                 final_cost=float(weights @ costs))


def apply_ngsf_solution(problem: NgsfProblem, solution: NgsfSolution) -> GsfUpdateResult:
    """The nGSF posterior: the GSF posterior with the solution's weights swapped in.

    With the Kalman gains kept, the nodes, gains and costs are the GSF's. Raises
    :class:`ValidationError` when ``solution.gains`` are not the warm gains.
    """
    if not np.array_equal(solution.gains, problem.warm_gains):
        raise ValidationError("nGSF solution gains are not the warm-start (Kalman) gains")
    warm = problem.warm
    # The solver's weights are already on the simplex; renormalizing them
    # could move each by an ulp away from the weights it costed. The nodes are
    # the checked GSF posterior's, unchanged.
    prior = warm.posterior
    posterior = GaussianMixture._trusted(solution.weights, prior.means, prior.covs,
                                         eig_floor=prior.eig_floor)
    return GsfUpdateResult._trusted(posterior, warm.gains, warm.component_costs)


def ngsf_update(problem: NgsfProblem) -> GsfUpdateResult:
    """Solve the nGSF problem and apply the optimized update."""
    return apply_ngsf_solution(problem, ngsf_solve(problem))
