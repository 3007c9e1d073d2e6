"""Nonlinear Gaussian Sum Filter: simplex-constrained refinement of the GSF.

The GSF gains minimize a convex upper bound, not the exact weighted objective

    J(w, {H_i}) = sum_i w_i tr((H_i C - I) S_i- (H_i C - I)^T + H_i R H_i^T),
    subject to sum_i w_i = 1, w_i >= 0.

This module minimizes J directly by projected gradient descent with Armijo
backtracking, warm-started at the GSF solution (its gains and Bayesian
weights). ``G_i`` never appears: the first-order condition ``G_i = I - H_i C``
eliminates it analytically.

J is linear in the weights for fixed gains, so unconstrained descent drives
the weight vector toward a simplex vertex; the iteration cap and the recorded
cost trajectory keep that collapse observable. The posterior applies the
quadratic-form covariance update, which stays PSD for non-Kalman gains.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .gaussian import Gaussian, GaussianMixture, _as_vector, _readonly, ensure_spd
from .gsf import GsfUpdateResult, gsf_update
from .kalman import GainPair, LinearMeasurementModel, update_error_cost

# Off-simplex rejection tolerances for user-supplied weight vectors.
_SUM_ATOL = 1e-8
_NEG_ATOL = 1e-12


def simplex_project(v) -> np.ndarray:
    """Euclidean projection onto ``{w : sum w = 1, w >= 0}`` (sorted-threshold rule).

    Returns exact zeros for clipped coordinates.
    """
    v = np.asarray(v, dtype=float)
    u = np.sort(v)[::-1]
    css = np.cumsum(u)
    j = np.arange(1, v.size + 1)
    rho = int(np.nonzero(u + (1.0 - css) / j > 0.0)[0][-1])
    theta = (1.0 - css[rho]) / (rho + 1.0)
    return np.maximum(v + theta, 0.0)


def _check_simplex(weights: np.ndarray) -> np.ndarray:
    w = np.asarray(weights, dtype=float)
    if w.ndim != 1:
        raise ValidationError(f"weights must be a vector, got shape {w.shape}")
    if abs(float(w.sum()) - 1.0) > _SUM_ATOL or float(w.min()) < -_NEG_ATOL:
        raise ValidationError(f"weights {w!r} are off the probability simplex")
    return w


def _check_problem_dims(weights, gains, prior: GaussianMixture, model: LinearMeasurementModel):
    w = _check_simplex(weights)
    if len(gains) != prior.order or w.shape[0] != prior.order:
        raise ValidationError(
            f"expected {prior.order} gains and weights, got {len(gains)} and {w.shape[0]}"
        )
    for i, h in enumerate(gains):
        if h.shape != (model.state_dim, model.meas_dim):
            raise ValidationError(f"gain {i} has shape {h.shape}, expected "
                                  f"({model.state_dim}, {model.meas_dim})")
    return w


def component_costs(gains, prior: GaussianMixture, model: LinearMeasurementModel) -> np.ndarray:
    """Per-component posterior-error traces ``c_i(H_i)`` at the given gains."""
    return np.array([
        update_error_cost(h, node.cov, model)
        for h, node in zip(gains, prior.nodes)
    ])


def ngsf_cost(weights, gains, prior: GaussianMixture, model: LinearMeasurementModel) -> float:
    """Exact weighted objective ``sum_i w_i c_i(H_i)``."""
    w = _check_problem_dims(weights, gains, prior, model)
    return float(w @ component_costs(gains, prior, model))


def ngsf_gradients(weights, gains, prior: GaussianMixture,
                   model: LinearMeasurementModel) -> tuple[np.ndarray, list]:
    """Analytic gradients of the exact objective.

    dJ/dw_i = c_i(H_i)
    dJ/dH_i = 2 w_i ((H_i C - I) S_i- C^T + H_i R)
    """
    w = _check_problem_dims(weights, gains, prior, model)
    grad_w = component_costs(gains, prior, model)
    eye = np.eye(model.state_dim)
    grad_h = [
        2.0 * wi * ((h @ model.C - eye) @ node.cov @ model.C.T + h @ model.R)
        for wi, h, node in zip(w, gains, prior.nodes)
    ]
    return grad_w, grad_h


def kkt_residuals(weights, gains, prior: GaussianMixture,
                  model: LinearMeasurementModel) -> tuple[float, float]:
    """Karush-Kuhn-Tucker residuals of the weight block at a candidate point.

    Returns ``(spread, violation)`` where ``spread`` is the range of the
    weight gradients over the support (components with positive weight; zero
    at a stationary point) and ``violation`` is how far any zero-weight
    component's gradient falls below the support's common value.
    """
    w = _check_problem_dims(weights, gains, prior, model)
    grad_w, _ = ngsf_gradients(w, gains, prior, model)
    support = w > 0.0
    spread = float(grad_w[support].max() - grad_w[support].min())
    nu = float(grad_w[support].min())
    if np.all(support):
        return spread, 0.0
    violation = max(0.0, nu - float(grad_w[~support].min()))
    return spread, violation


@dataclass(frozen=True, eq=False)
class NgsfProblem:
    """One nGSF measurement-update instance with its warm start."""

    prior: GaussianMixture
    model: LinearMeasurementModel
    y: np.ndarray
    warm_weights: np.ndarray
    warm_gains: tuple

    def __post_init__(self):
        y = _as_vector(self.y, "y")
        w = _check_problem_dims(self.warm_weights, self.warm_gains, self.prior, self.model)
        object.__setattr__(self, "y", _readonly(y))
        object.__setattr__(self, "warm_weights", _readonly(w))
        object.__setattr__(self, "warm_gains", tuple(_readonly(np.asarray(h, float))
                                                     for h in self.warm_gains))

    @classmethod
    def from_gsf(cls, prior: GaussianMixture, model: LinearMeasurementModel, y,
                 gsf_result: GsfUpdateResult | None = None) -> "NgsfProblem":
        """Warm start from one GSF update (its gains and Bayesian weights)."""
        if gsf_result is None:
            gsf_result = gsf_update(prior, model, y)
        return cls(prior=prior, model=model, y=np.asarray(y, float),
                   warm_weights=gsf_result.posterior.weights,
                   warm_gains=tuple(pair.H for pair in gsf_result.gains))


@dataclass(frozen=True)
class NgsfOptions:
    """Solver knobs exposed through the harness config."""

    max_iters: int = 500
    tol: float = 1e-10
    step_policy: str = "armijo"

    def __post_init__(self):
        if self.max_iters < 0:
            raise ValidationError(f"max_iters must be >= 0, got {self.max_iters}")
        if self.tol <= 0.0:
            raise ValidationError(f"tol must be positive, got {self.tol}")
        if self.step_policy not in ("armijo", "fixed"):
            raise ValidationError(f"unknown step policy {self.step_policy!r}")


@dataclass(frozen=True, eq=False)
class NgsfSolution:
    """Solver output: final point, per-iteration costs, convergence status."""

    weights: np.ndarray
    gains: tuple
    cost_trajectory: np.ndarray
    converged: bool
    iterations: int

    def __post_init__(self):
        trajectory = np.asarray(self.cost_trajectory, float)
        if trajectory.size and trajectory[-1] > trajectory[0] + 1e-12:
            raise ValidationError("cost trajectory ends above its starting value")
        object.__setattr__(self, "weights", _readonly(np.asarray(self.weights, float)))
        object.__setattr__(self, "gains", tuple(_readonly(np.asarray(h, float))
                                                for h in self.gains))
        object.__setattr__(self, "cost_trajectory", _readonly(trajectory))


# Armijo sufficient-decrease coefficient.
_ARMIJO_C = 1e-4
# Step shrink factor and smallest step relative to the initial one.
_BACKTRACK = 0.5
_MIN_STEP_REL = 1e-20
# Step growth cap relative to the curvature-based initial step.
_MAX_STEP_REL = 1e8


def _curvature_step(prior: GaussianMixture, model: LinearMeasurementModel) -> float:
    """Initial step 1/L from the largest innovation-covariance eigenvalue."""
    lmax = 0.0
    for node in prior.nodes:
        s = model.C @ node.cov @ model.C.T + model.R
        lmax = max(lmax, float(np.linalg.eigvalsh(0.5 * (s + s.T)).max()))
    return 1.0 / (2.0 * max(lmax, 1e-300))


def ngsf_solve(problem: NgsfProblem, opts: NgsfOptions = NgsfOptions()) -> NgsfSolution:
    """Projected-gradient descent on the exact objective from the warm start.

    The weight block is projected onto the simplex after every gradient step;
    the gain blocks are unconstrained. Iteration stops when the relative cost
    decrease falls below ``opts.tol`` or after ``opts.max_iters`` iterations.
    The cost trajectory is non-increasing and the final cost never exceeds the
    warm-start cost.
    """
    prior, model = problem.prior, problem.model
    weights = np.array(problem.warm_weights)
    gains = [np.array(h) for h in problem.warm_gains]
    cost = ngsf_cost(weights, gains, prior, model)
    trajectory = [cost]

    t0 = _curvature_step(prior, model)
    step = t0
    converged = False
    iterations = 0
    for iterations in range(1, opts.max_iters + 1):
        grad_w, grad_h = ngsf_gradients(weights, gains, prior, model)
        backtracked = False
        while True:
            new_weights = simplex_project(weights - step * grad_w)
            new_gains = [h - step * gh for h, gh in zip(gains, grad_h)]
            new_cost = ngsf_cost(new_weights, new_gains, prior, model)
            inner = float(grad_w @ (new_weights - weights)) + sum(
                float(np.sum(gh * (nh - h)))
                for gh, nh, h in zip(grad_h, new_gains, gains)
            )
            if new_cost <= cost + _ARMIJO_C * inner:
                break
            step *= _BACKTRACK
            backtracked = True
            if step < _MIN_STEP_REL * t0:
                # No usable descent direction left: numerically stationary.
                new_weights, new_gains, new_cost = weights, gains, cost
                break
        decrease = cost - new_cost
        if decrease > 0.0:
            weights, gains, cost = new_weights, new_gains, new_cost
        trajectory.append(cost)
        if decrease <= opts.tol * max(1.0, abs(trajectory[-2])):
            converged = True
            break
        if opts.step_policy == "armijo" and not backtracked:
            step = min(step * 2.0, _MAX_STEP_REL * t0)
        elif opts.step_policy == "fixed":
            step = t0

    return NgsfSolution(weights=weights, gains=tuple(gains),
                        cost_trajectory=np.array(trajectory),
                        converged=converged, iterations=iterations)


def apply_ngsf_solution(problem: NgsfProblem, solution: NgsfSolution) -> GsfUpdateResult:
    """Build the posterior mixture from optimized weights and gains.

    Component means follow ``mu_i+ = mu_i- + H_i (y - C mu_i-)``; covariances
    use the quadratic form ``(H_i C - I) S_i- (H_i C - I)^T + H_i R H_i^T``,
    which stays PSD even for gains far from the Kalman point.
    """
    model, prior, y = problem.model, problem.prior, problem.y
    eye = np.eye(model.state_dim)
    nodes = []
    pairs = []
    costs = []
    for h, node in zip(solution.gains, prior.nodes):
        mean = node.mean + h @ (y - model.C @ node.mean)
        a = h @ model.C - eye
        cov = a @ node.cov @ a.T + h @ model.R @ h.T
        nodes.append(Gaussian(mean, ensure_spd(cov), eig_floor=0.0))
        pairs.append(GainPair(G=eye - h @ model.C, H=h))
        costs.append(update_error_cost(h, node.cov, model))
    # The solver's weights are already on the simplex; renormalizing them
    # could move each by an ulp away from the weights it costed.
    posterior = GaussianMixture(tuple(zip(solution.weights, nodes)))
    return GsfUpdateResult(posterior=posterior, gains=tuple(pairs),
                           component_costs=np.array(costs))


def ngsf_update(problem: NgsfProblem, opts: NgsfOptions = NgsfOptions()) -> GsfUpdateResult:
    """Solve the nGSF problem and apply the optimized update."""
    return apply_ngsf_solution(problem, ngsf_solve(problem, opts))
