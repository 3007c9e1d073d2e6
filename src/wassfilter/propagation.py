"""Uncertainty propagation for the Duffing benchmark.

Holds the oscillator dynamics, a fixed-step RK4 integrator, vectorized
ensemble propagation, and an EM fitter that turns a propagated point cloud
back into a Gaussian mixture. The filters never see dynamics directly; they
consume the fitted mixtures.

Each EM iteration works on all K components at once: the E-step factors the
``(K, d, d)`` covariance stack with one batched Cholesky call, the M-step
forms every weighted covariance with one batched product, and one batched
eigendecomposition applies the covariance floor.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DivergenceError, FitError, ValidationError
from .gaussian import Gaussian, GaussianMixture

# Fraction of total responsibility mass below which a component counts as
# collapsed and gets reseeded.
_COLLAPSE_MASS = 1e-10
_MAX_RESEEDS = 3


def duffing_rhs(x, damping: float = 0.25, cubic: float = 1.0) -> np.ndarray:
    """Duffing oscillator vector field: ``(x2, -x1 - damping*x2 - cubic*x1^3)``.

    Works on a single state (shape ``(2,)``) or a stack of states
    (shape ``(..., 2)``).
    """
    x = np.asarray(x, dtype=float)
    if x.shape[-1] != 2:
        raise ValidationError(f"state must have dimension 2, got shape {x.shape}")
    x1, x2 = x[..., 0], x[..., 1]
    return np.stack([x2, -x1 - damping * x2 - cubic * x1**3], axis=-1)


@dataclass(frozen=True)
class DuffingModel:
    """Benchmark dynamics plus integration cadence.

    ``dt`` is the integrator substep; ``sample_time`` the filter period and
    must be an integer multiple of ``dt``.
    """

    damping: float = 0.25
    cubic: float = 1.0
    dt: float = 0.01
    sample_time: float = 0.5

    def __post_init__(self):
        if self.dt <= 0.0:
            raise ValidationError(f"dt must be positive, got {self.dt}")
        ratio = self.sample_time / self.dt
        if abs(ratio - round(ratio)) > 1e-9 or round(ratio) < 1:
            raise ValidationError(
                f"sample_time {self.sample_time} is not an integer multiple of dt {self.dt}"
            )

    @property
    def steps_per_sample(self) -> int:
        return int(round(self.sample_time / self.dt))

    def rhs(self, x) -> np.ndarray:
        return duffing_rhs(x, damping=self.damping, cubic=self.cubic)


def integrate_rk4(x0, rhs, dt: float, steps: int) -> np.ndarray:
    """Classical 4th-order Runge-Kutta for autonomous dynamics.

    ``rhs`` maps an array to a same-shaped array, so a whole ensemble can be
    advanced in one call. Raises :class:`DivergenceError` if the state leaves
    the finite range.
    """
    if dt <= 0.0:
        raise ValidationError(f"dt must be positive, got {dt}")
    if steps < 0:
        raise ValidationError(f"steps must be >= 0, got {steps}")
    x = np.asarray(x0, dtype=float)
    for _ in range(steps):
        k1 = rhs(x)
        k2 = rhs(x + 0.5 * dt * k1)
        k3 = rhs(x + 0.5 * dt * k2)
        k4 = rhs(x + dt * k3)
        x = x + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if not np.all(np.isfinite(x)):
            raise DivergenceError("integration produced a non-finite state")
    return x


def propagate_cloud(cloud, model: DuffingModel, duration: float) -> np.ndarray:
    """Advance every particle of an ``(N, 2)`` cloud by ``duration`` seconds.

    Deterministic; a divergent particle is reported by row index.
    """
    cloud = np.asarray(cloud, dtype=float)
    if cloud.ndim != 2 or cloud.shape[1] != 2:
        raise ValidationError(f"cloud must be (N, 2), got shape {cloud.shape}")
    ratio = duration / model.dt
    if abs(ratio - round(ratio)) > 1e-9:
        raise ValidationError(f"duration {duration} is not a multiple of dt {model.dt}")
    steps = int(round(ratio))
    x = cloud.copy()
    for _ in range(steps):
        k1 = model.rhs(x)
        k2 = model.rhs(x + 0.5 * model.dt * k1)
        k3 = model.rhs(x + 0.5 * model.dt * k2)
        k4 = model.rhs(x + model.dt * k3)
        x = x + (model.dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        finite = np.isfinite(x).all(axis=1)
        if not finite.all():
            bad = int(np.nonzero(~finite)[0][0])
            raise DivergenceError(f"particle {bad} diverged during propagation")
    return x


@dataclass(frozen=True)
class EmFitConfig:
    """EM settings for mixture fitting over a point cloud."""

    n_components: int = 10
    max_iters: int = 200
    tol: float = 1e-8
    covariance_floor: float = 1e-6
    init_seed: int | None = None
    restarts: int = 3

    def __post_init__(self):
        if self.n_components < 1:
            raise ValidationError(f"n_components must be >= 1, got {self.n_components}")
        if self.max_iters < 1 or self.restarts < 1:
            raise ValidationError("max_iters and restarts must be >= 1")
        if self.tol <= 0.0 or self.covariance_floor <= 0.0:
            raise ValidationError("tol and covariance_floor must be positive")


@dataclass(frozen=True, eq=False)
class EmDiagnostics:
    """Bookkeeping from the winning EM restart.

    ``iterations`` is the length of ``log_likelihoods``; ``converged`` says
    whether the ``tol`` test stopped the run before ``max_iters``.
    """

    log_likelihoods: np.ndarray
    reseeds: int
    restart_index: int
    final_log_likelihood: float
    iterations: int
    converged: bool


def _floor_cov(covs: np.ndarray, floor: float) -> np.ndarray:
    """Symmetrize a ``(K, d, d)`` stack and lift eigenvalues below ``floor``.

    Only components whose smallest eigenvalue is below the floor are rebuilt
    from their eigendecomposition; the rest come back symmetrized only.
    """
    covs = 0.5 * (covs + np.swapaxes(covs, 1, 2))
    w, v = np.linalg.eigh(covs)
    low = w[:, 0] < floor
    if low.any():
        v = v[low]
        lifted = (v * np.clip(w[low], floor, None)[:, None, :]) @ np.swapaxes(v, 1, 2)
        covs[low] = 0.5 * (lifted + np.swapaxes(lifted, 1, 2))
    return covs


def _kmeanspp_centers(points: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    n = points.shape[0]
    centers = [points[int(rng.integers(n))]]
    d2 = np.sum((points - centers[0]) ** 2, axis=1)
    for _ in range(1, k):
        total = float(d2.sum())
        if total <= 0.0:
            centers.append(points[int(rng.integers(n))])
            continue
        idx = int(rng.choice(n, p=d2 / total))
        centers.append(points[idx])
        d2 = np.minimum(d2, np.sum((points - centers[-1]) ** 2, axis=1))
    return np.stack(centers)


def _component_logpdfs(points: np.ndarray, means: np.ndarray, covs: np.ndarray) -> np.ndarray:
    """(N, K) log densities of each point under each component.

    One Cholesky factorization and one inversion of the ``(K, d, d)`` stack;
    every whitened residual ``L_k^-1 x_n - L_k^-1 mu_k`` then comes from a
    single ``(K*d, d) @ (d, N)`` product. Raises ``LinAlgError`` if any
    covariance is not positive definite.
    """
    n_points, dim = points.shape
    k = means.shape[0]
    chol = np.linalg.cholesky(covs)
    inv = np.linalg.inv(chol)
    z = inv.reshape(k * dim, dim) @ points.T - (inv @ means[:, :, None]).reshape(k * dim, 1)
    z *= z
    out = z.reshape(k, dim, n_points).sum(axis=1)
    out += (dim * np.log(2.0 * np.pi)
            + 2.0 * np.log(np.diagonal(chol, axis1=1, axis2=2)).sum(axis=1))[:, None]
    out *= -0.5
    return out.T


def _e_step(points: np.ndarray, weights: np.ndarray, means: np.ndarray, covs: np.ndarray):
    """Responsibilities ``(N, K)`` and per-point log mixture density ``(N,)``."""
    with np.errstate(divide="ignore"):
        joint = _component_logpdfs(points, means, covs) + np.log(weights)
    peak = joint.max(axis=1, keepdims=True)
    dens = np.exp(joint - peak)
    total = dens.sum(axis=1, keepdims=True)
    return dens / total, (peak + np.log(total))[:, 0]


def _m_step(points: np.ndarray, resp: np.ndarray, mass: np.ndarray, floor: float):
    """Weighted means ``(K, d)`` and floored covariances ``(K, d, d)``.

    ``resp`` is ``(N, K)`` and ``mass`` its column sums; all K covariances
    come from one batched product over the ``(K, d, N)`` residuals.
    """
    means = (resp.T @ points) / mass[:, None]
    diff = np.ascontiguousarray(points.T)[None, :, :] - means[:, :, None]
    weighted = diff * np.ascontiguousarray(resp.T)[:, None, :]
    covs = weighted @ np.swapaxes(diff, 1, 2) / mass[:, None, None]
    return means, _floor_cov(covs, floor)


def _em_run(points: np.ndarray, config: EmFitConfig, rng: np.random.Generator):
    n, dim = points.shape
    k = config.n_components
    floor = config.covariance_floor
    overall_cov = _floor_cov(np.cov(points, rowvar=False).reshape(1, dim, dim), floor)[0]

    # Start from each point's nearest k-means++ center; a center that wins no
    # point keeps its own location, the overall covariance and weight 1/n.
    centers = _kmeanspp_centers(points, k, rng)
    assign = np.argmin(((points[:, None, :] - centers[None, :, :]) ** 2).sum(-1), axis=1)
    counts = np.bincount(assign, minlength=k).astype(float)
    empty = counts == 0
    counts[empty] = 1.0
    hard = (assign[:, None] == np.arange(k)).astype(float)
    means, covs = _m_step(points, hard, counts, floor)
    means[empty] = centers[empty]
    covs[empty] = overall_cov
    weights = counts / counts.sum()

    lls = []
    reseeds = 0
    converged = False
    for _ in range(config.max_iters):
        resp, log_norm = _e_step(points, weights, means, covs)
        ll = float(log_norm.sum())

        mass = resp.sum(axis=0)
        collapsed = np.nonzero(mass < _COLLAPSE_MASS * n)[0]
        if collapsed.size:
            reseeds += len(collapsed)
            if reseeds > _MAX_RESEEDS:
                raise FitError(f"EM failed after {reseeds} component reseeds")
            # Reseed each dead component at the point the mixture explains worst.
            means[collapsed] = points[np.argsort(log_norm)[:collapsed.size]]
            covs[collapsed] = overall_cov
            weights[collapsed] = 1.0 / n
            weights /= weights.sum()
            continue

        weights = mass / n
        means, covs = _m_step(points, resp, mass, floor)

        if lls and ll - lls[-1] <= config.tol * (1.0 + abs(lls[-1])):
            lls.append(ll)
            converged = True
            break
        lls.append(ll)

    if not lls:
        # Every iteration reseeded a component; score the final parameters.
        lls.append(float(_e_step(points, weights, means, covs)[1].sum()))

    mixture = GaussianMixture.from_unnormalized(
        weights, [Gaussian(means[j], covs[j], eig_floor=0.0) for j in range(k)]
    )
    return mixture, np.array(lls), reseeds, converged


def fit_gmm_em(cloud, config: EmFitConfig, rng: np.random.Generator | None = None,
               details: bool = False):
    """Fit a Gaussian mixture to a point cloud by EM with k-means++ starts.

    Runs ``config.restarts`` independent initializations and keeps the run
    with the best final log-likelihood. Each iteration is batched over the
    components: one stacked Cholesky factorization and one matrix product
    give every component's log density (E-step), one batched product gives
    every weighted covariance (M-step), and one batched eigendecomposition
    floors the covariance eigenvalues at ``config.covariance_floor`` after
    every M-step. The cloud may have any dimension. With ``details=True``
    returns ``(mixture, EmDiagnostics)``.
    """
    points = np.asarray(cloud, dtype=float)
    if points.ndim != 2:
        raise ValidationError(f"cloud must be (N, n), got shape {points.shape}")
    if not np.all(np.isfinite(points)):
        raise ValidationError("cloud contains non-finite entries")
    if points.shape[0] < 10 * config.n_components:
        raise ValidationError(
            f"{points.shape[0]} points cannot support {config.n_components} components "
            "(need at least 10 per component)"
        )
    if rng is None:
        rng = np.random.default_rng(config.init_seed)

    best = None
    for restart in range(config.restarts):
        mixture, lls, reseeds, converged = _em_run(points, config, rng)
        if best is None or lls[-1] > best[1][-1]:
            best = (mixture, lls, reseeds, converged, restart)

    mixture, lls, reseeds, converged, restart = best
    if details:
        return mixture, EmDiagnostics(log_likelihoods=lls, reseeds=reseeds,
                                      restart_index=restart,
                                      final_log_likelihood=float(lls[-1]),
                                      iterations=len(lls), converged=converged)
    return mixture
