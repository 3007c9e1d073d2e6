"""Wasserstein-optimal linear measurement update and orthogonality diagnostics.

For a linear sensor ``y = C x + n`` with ``n ~ N(0, R)`` and a linear
posterior map ``x+ = G x- + H y``, minimizing the squared 2-Wasserstein
distance between the posterior-error law and the point mass at the origin
yields the Kalman gains

    H* = S- C^T (C S- C^T + R)^-1,    G* = I - H* C,

where ``S-`` is the prior error covariance. This module computes those gains,
applies the measurement update, evaluates the posterior-error trace cost for
arbitrary gains, and gives the stationary prior error covariance (a Riccati
solve) and the exact stationary orthogonality residuals ``E[e+ x-^T]`` and
``E[e+ y^T]`` (a Lyapunov solve) of a linear time-invariant closed loop.

Numerical policy: the update works on a ``(K, n, n)`` stack of prior
covariances (a single Gaussian is a stack of one). Each innovation covariance
``V diag(lambda) V^T`` is factored once, by one batched ``eigh`` call per
stack: the eigenvalues give the condition guard and the log-determinant, and
the whitening map ``diag(lambda)^-1/2 V^T`` gives the gains and the whitened
innovations. Posterior-error covariances take the quadratic form of
``_error_covs``, whose traces are the costs, and are symmetrized, so updates
chain without drift.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConditioningError, DivergenceError, ValidationError
from .gaussian import Gaussian, _as_matrix, _as_vector, _check_symmetric, _readonly, ensure_spd

# Innovation covariances with condition numbers above this are rejected.
MAX_INNOVATION_CONDITION = 1e12

# Noise covariances may be singular (e.g. exactly zero for deterministic
# diagnostics); eigenvalues below this are treated as invalid rather than PSD.
_PSD_ATOL = 1e-12


def _check_psd(m: np.ndarray, name: str) -> None:
    _check_symmetric(m, name)
    w = np.linalg.eigvalsh(0.5 * (m + m.T))
    scale = max(1.0, float(w.max()))
    if float(w.min()) < -_PSD_ATOL * scale:
        raise ValidationError(f"{name} has negative eigenvalue {w.min():.6e}")


@dataclass(frozen=True, eq=False)
class LinearMeasurementModel:
    """Observation matrix ``C`` (m x n) and noise covariance ``R`` (m x m, symmetric PSD)."""

    C: np.ndarray
    R: np.ndarray

    def __post_init__(self):
        C = _as_matrix(self.C, "C")
        R = _as_matrix(self.R, "R")
        _check_psd(R, "R")
        if R.shape[0] != C.shape[0]:
            raise ValidationError(
                f"C maps to dimension {C.shape[0]} but R is {R.shape[0]}x{R.shape[1]}"
            )
        object.__setattr__(self, "C", _readonly(C))
        object.__setattr__(self, "R", _readonly(0.5 * (R + R.T)))

    @property
    def state_dim(self) -> int:
        return self.C.shape[1]

    @property
    def meas_dim(self) -> int:
        return self.C.shape[0]


@dataclass(frozen=True, eq=False)
class GainPair:
    """Matrices of the linear posterior map ``x+ = G x- + H y``."""

    G: np.ndarray
    H: np.ndarray

    def __post_init__(self):
        G = _as_matrix(self.G, "G")
        H = _as_matrix(self.H, "H")
        if G.shape[0] != G.shape[1]:
            raise ValidationError(f"G must be square, got {G.shape}")
        if H.shape[0] != G.shape[0]:
            raise ValidationError(f"H has {H.shape[0]} rows but G is {G.shape[0]}x{G.shape[1]}")
        object.__setattr__(self, "G", _readonly(G))
        object.__setattr__(self, "H", _readonly(H))


@dataclass(frozen=True, eq=False)
class LinearPropagationModel:
    """Linear time-invariant propagation ``x_{k+1} = A x_k + w_k`` with ``w ~ N(0, Q)``."""

    A: np.ndarray
    Q: np.ndarray

    def __post_init__(self):
        A = _as_matrix(self.A, "A")
        Q = _as_matrix(self.Q, "Q")
        if A.shape[0] != A.shape[1]:
            raise ValidationError(f"A must be square, got {A.shape}")
        _check_psd(Q, "Q")
        if Q.shape[0] != A.shape[0]:
            raise ValidationError(f"A is {A.shape[0]}x{A.shape[1]} but Q is {Q.shape[0]}x{Q.shape[1]}")
        object.__setattr__(self, "A", _readonly(A))
        object.__setattr__(self, "Q", _readonly(0.5 * (Q + Q.T)))

    @property
    def dim(self) -> int:
        return self.A.shape[0]


def _innovation_gains(covs: np.ndarray, model: LinearMeasurementModel):
    """For a ``(K, n, n)`` stack of covariances ``S_k``, the whitening maps
    ``W_k = diag(lambda_k)^-1/2 V_k^T`` and log-determinants ``sum(log lambda_k)`` of
    ``C S_k C^T + R = V_k diag(lambda_k) V_k^T``, and the gains
    ``H_k = S_k C^T W_k^T W_k``, all from one batched ``eigh``.

    The :class:`ConditioningError` of the guard carries the index of the first
    failing covariance as ``component``.
    """
    w, v = np.linalg.eigh(model.C @ covs @ model.C.T + model.R)
    # Written so that the NaN eigenvalues of an overflowed matrix fail too.
    bad = ~((w[:, 0] > 0.0) & (w[:, -1] <= MAX_INNOVATION_CONDITION * w[:, 0]))
    if bad.any():
        i = int(np.argmax(bad))
        exc = ConditioningError(
            f"innovation covariance condition number exceeds {MAX_INNOVATION_CONDITION:.0e} "
            f"(eigenvalues in [{w[i, 0]:.3e}, {w[i, -1]:.3e}])"
        )
        exc.component = i
        raise exc
    white = np.swapaxes(v, 1, 2) / np.sqrt(w)[:, :, None]
    gains = np.swapaxes(white @ (model.C @ covs), 1, 2) @ white
    return white, np.log(w).sum(axis=1), gains


def state_gain(H: np.ndarray, model: LinearMeasurementModel) -> np.ndarray:
    """``G = I - H C``, the prior-state gain that goes with measurement gain ``H``
    (one ``(n, m)`` gain or a ``(K, n, m)`` stack); the only place ``G`` is formed."""
    return np.eye(model.state_dim) - H @ model.C


def kalman_gains(prior_err_cov, model: LinearMeasurementModel) -> GainPair:
    """Wasserstein-optimal gain pair ``(G*, H*)`` for a given prior error covariance."""
    sigma = _as_matrix(prior_err_cov, "prior_err_cov")
    _check_symmetric(sigma, "prior_err_cov")
    if sigma.shape[0] != model.state_dim:
        raise ValidationError(
            f"prior_err_cov is {sigma.shape[0]}x{sigma.shape[1]} but C has {model.state_dim} columns"
        )
    h = _innovation_gains(sigma[None], model)[2][0]
    return GainPair(G=state_gain(h, model), H=h)


def _error_covs(covs: np.ndarray, gains: np.ndarray, model: LinearMeasurementModel):
    """Posterior-error covariances ``G S G^T + H R H^T`` with ``G = I - H C``, for one
    covariance and gain or stacks of them: a sum of PSD terms for any gain, where the
    short form ``S - H C S`` drifts negative for noiseless sensors."""
    g = state_gain(gains, model)
    return g @ covs @ np.swapaxes(g, -1, -2) + gains @ model.R @ np.swapaxes(gains, -1, -2)


def _apply_linear_update(means: np.ndarray, covs: np.ndarray, gains: np.ndarray,
                         model: LinearMeasurementModel, innovations: np.ndarray):
    """Stacked means ``mu + H (y - C mu)`` from the innovations ``y - C mu``, their
    :func:`_error_covs` covariances floored by ``ensure_spd``, and the traces of
    those covariances before the floor."""
    means = means + (gains @ innovations[:, :, None])[:, :, 0]
    errors = _error_covs(covs, gains, model)
    return means, ensure_spd(errors), np.trace(errors, axis1=1, axis2=2)


def kalman_update(prior: Gaussian, prior_err_cov, model: LinearMeasurementModel, y) -> Gaussian:
    """Posterior Gaussian after assimilating measurement ``y``.

    ``prior`` carries the prior estimate mean; ``prior_err_cov`` is the prior
    error covariance (pass ``prior.cov`` for the standard filtering case where
    the two coincide).
    """
    y = _as_vector(y, "y")
    if y.shape[0] != model.meas_dim:
        raise ValidationError(f"measurement has dimension {y.shape[0]}, model expects {model.meas_dim}")
    if prior.dim != model.state_dim:
        raise ValidationError(f"prior has dimension {prior.dim}, model expects {model.state_dim}")
    sigma = _as_matrix(prior_err_cov, "prior_err_cov")
    gains = kalman_gains(sigma, model)
    means, covs, _ = _apply_linear_update(prior.mean[None], sigma[None], gains.H[None], model,
                                          y - prior.mean[None] @ model.C.T)
    return Gaussian(means[0], covs[0], eig_floor=0.0)


def update_error_cost(H: np.ndarray, prior_err_cov: np.ndarray,
                      model: LinearMeasurementModel):
    """Posterior-error trace for gain ``H`` with ``G = I - H C``:

    ``tr((H C - I) S (H C - I)^T + H R H^T)``.

    This is the quadratic-form (Joseph-equivalent) expression, PSD for any
    gain, and the per-component cost in the mixture filters. Given a single
    gain and covariance it returns a float; given ``(K, n, m)`` gains and
    ``(K, n, n)`` covariances it returns the ``(K,)`` costs.
    """
    cost = np.trace(_error_covs(prior_err_cov, H, model), axis1=-2, axis2=-1)
    return float(cost) if np.ndim(cost) == 0 else cost


def wasserstein_posterior_cost(gains: GainPair, prior: Gaussian, prior_err_cov,
                               model: LinearMeasurementModel,
                               var_x_prior=None) -> float:
    """Posterior-error trace cost for an arbitrary gain pair.

    J = tr((G + H C - I) Var(x-) (G + H C - I)^T)          [optional]
      + tr((H C - I) S- (H C - I)^T + H R H^T)

    with the prior-state/error cross terms dropped (they vanish for an
    optimal-history prior). ``Var(x-)`` is rarely knowable; when
    ``var_x_prior`` is omitted the first term is skipped, which matches
    evaluating at ``G = I - H C`` where it vanishes identically.
    """
    if prior.dim != model.state_dim:
        raise ValidationError(f"prior has dimension {prior.dim}, model expects {model.state_dim}")
    sigma = _as_matrix(prior_err_cov, "prior_err_cov")
    _check_symmetric(sigma, "prior_err_cov")
    cost = update_error_cost(gains.H, sigma, model)
    if var_x_prior is not None:
        vx = _as_matrix(var_x_prior, "var_x_prior")
        _check_symmetric(vx, "var_x_prior")
        slack = gains.G + gains.H @ model.C - np.eye(model.state_dim)
        cost += float(np.trace(slack @ vx @ slack.T))
    return cost


def _check_system(model: LinearMeasurementModel, prop: LinearPropagationModel) -> None:
    if model.state_dim != prop.dim:
        raise ValidationError(f"measurement model has state dimension {model.state_dim}, "
                              f"propagation has {prop.dim}")


def stationary_prior_error_cov(model: LinearMeasurementModel,
                               prop: LinearPropagationModel) -> np.ndarray:
    """Fixed point of ``S <- A ((I - H C) S (I - H C)^T + H R H^T) A^T + Q`` (``H`` the
    Kalman gain of ``S``): the stabilizing solution of the filter algebraic Riccati
    equation (Anderson & Moore, *Optimal Filtering*, 1979), whose Kalman gains are
    the stationary optimal gains. Raises :class:`ConditioningError` when none
    exists, e.g. for an unstable mode the sensor cannot see.
    """
    from scipy.linalg import solve_discrete_are

    _check_system(model, prop)
    try:
        sigma = solve_discrete_are(prop.A.T, model.C.T, prop.Q, model.R)
    except (np.linalg.LinAlgError, ValueError) as exc:
        raise ConditioningError(f"filter Riccati equation has no stabilizing solution: {exc}") from exc
    return 0.5 * (sigma + sigma.T)


def _closed_loop_stationary(gains: GainPair, model: LinearMeasurementModel,
                            prop: LinearPropagationModel) -> np.ndarray:
    """Stationary covariance of the joint (true state, prior error) chain.

    x'  = A x + w
    e-' = A (G + H C - I) x + A G e- + A H n - w

    Raises :class:`DivergenceError` when the closed loop is not strictly
    stable (the error covariance would diverge).
    """
    from scipy.linalg import solve_discrete_lyapunov

    _check_system(model, prop)
    n = prop.dim
    a, q = prop.A, prop.Q
    slack = gains.G + gains.H @ model.C - np.eye(n)
    f = np.block([[a, np.zeros((n, n))], [a @ slack, a @ gains.G]])
    radius = float(np.abs(np.linalg.eigvals(f)).max())
    if radius >= 1.0 - 1e-12:
        raise DivergenceError(
            f"closed-loop spectral radius {radius:.6f} >= 1; error covariance diverges"
        )
    ahra = a @ gains.H @ model.R @ gains.H.T @ a.T
    noise = np.block([[q, -q], [-q, q + ahra]])
    cov = solve_discrete_lyapunov(f, noise)
    return 0.5 * (cov + cov.T)


def _orthogonality(gains: GainPair, model: LinearMeasurementModel,
                   prop: LinearPropagationModel) -> tuple[tuple[float, float], tuple[float, float]]:
    """:func:`orthogonality_residuals` and :func:`orthogonality_scales` from one
    stationary solve, for callers that normalize a residual by its scale."""
    n = prop.dim
    joint = _closed_loop_stationary(gains, model, prop)
    m_ep = np.hstack([gains.G + gains.H @ model.C - np.eye(n), gains.G])
    res_state = m_ep @ joint @ np.vstack([np.eye(n), np.eye(n)])
    res_meas = m_ep @ joint[:, :n] @ model.C.T + gains.H @ model.R
    cov_epost = m_ep @ joint @ m_ep.T + gains.H @ model.R @ gains.H.T
    m_xp = np.hstack([np.eye(n), np.eye(n)])
    cov_xprior = m_xp @ joint @ m_xp.T
    cov_y = model.C @ joint[:n, :n] @ model.C.T + model.R
    tr_e = float(np.trace(cov_epost))
    return ((float(np.linalg.norm(res_state)), float(np.linalg.norm(res_meas))),
            (float(np.sqrt(tr_e * np.trace(cov_xprior))),
             float(np.sqrt(tr_e * np.trace(cov_y)))))


def orthogonality_residuals(gains: GainPair, model: LinearMeasurementModel,
                            prop: LinearPropagationModel) -> tuple[float, float]:
    """Exact ``|E[e+ x-^T]|_F`` and ``|E[e+ y^T]|_F`` under the fixed-gain closed
    loop's stationary law: with ``e+ = M [x; e-] + H n``, ``M = [G + H C - I, G]``
    and ``J = Cov([x; e-])``, they are ``M J [I; I]`` and ``M J[:, :n] C^T + H R``.
    Both vanish at the stationary Kalman gains.
    """
    return _orthogonality(gains, model, prop)[0]


def orthogonality_scales(gains: GainPair, model: LinearMeasurementModel,
                         prop: LinearPropagationModel) -> tuple[float, float]:
    """Analytic magnitude scales for the two orthogonality residuals.

    Returns ``(sqrt(tr E[e+ e+^T] tr E[x- x-^T]), sqrt(tr E[e+ e+^T] tr E[y y^T]))``
    computed from the stationary joint law; dividing a residual by its scale
    makes it dimensionless (at most 1, by Cauchy-Schwarz).
    """
    return _orthogonality(gains, model, prop)[1]
