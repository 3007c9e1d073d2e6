"""Uncertainty propagation for the Duffing benchmark.

Holds the oscillator dynamics, a fixed-step RK4 integrator, vectorized
ensemble propagation, and an EM fitter that turns a propagated point cloud
back into a Gaussian mixture. The filters never see dynamics directly; they
consume the fitted mixtures.

The Duffing cube is written as two products (see :func:`duffing_rhs`), which
keeps RK4, a large-ensemble run's main cost, on numpy's vectorized multiply
and the vector field exactly odd.

EM works on the cloud's quadratic features ``[1, x, x_i x_j]``, formed once
per cloud as one ``(M, N)`` array (``M = 6`` for the Duffing state) that
every restart shares. A Gaussian's log density is linear in them, so each
E-step folds every component's precision, log-determinant and weight into a
``(K, M)`` coefficient matrix and gets all ``(K, N)`` joint log densities
from one product; each M-step gets every component's mass, mean and second
moment from one ``(K, N) @ (N, M)`` product over the responsibilities.
``gaussian.ensure_spd`` applies the covariance floor (one batched
``eigvalsh``, then eigenvectors only for the matrices below the floor).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DivergenceError, FitError, ValidationError
from .gaussian import GaussianMixture, _check_field_types, ensure_spd

# Fraction of total responsibility mass below which a component counts as
# collapsed and gets reseeded.
_COLLAPSE_MASS = 1e-10
_MAX_RESEEDS = 3
# Log of the smallest responsibility relative to a point's largest. Lower
# joint log densities are raised to it: their weight (below 1e-152) changes
# no sum, and it keeps `exp` and the M-step's product on their fast paths.
# Results below 1e-308 underflow or are subnormal, which took `exp` 17 to 100
# times and the product about 60 times longer per element on an AVX-512 host.
_LOG_RESP_FLOOR = -350.0
# Smallest cloud size per mixture component that EM will fit.
MIN_POINTS_PER_COMPONENT = 10
# Most RK4 substeps per filter sample that a DuffingModel accepts; the default
# cadence takes 50. A run asks for this many per step for the truth and for
# every particle, so a larger ratio is rejected when the config is built.
MAX_STEPS_PER_SAMPLE = 10**6


def _check_finite_fields(obj, *names: str) -> None:
    for name in names:
        if not np.isfinite(getattr(obj, name)):
            raise ValidationError(f"{name} must be finite, got {getattr(obj, name)!r}")


def duffing_rhs(x, damping: float = 0.25, cubic: float = 1.0) -> np.ndarray:
    """Duffing oscillator vector field: ``(x2, -x1 - damping*x2 - cubic*x1^3)``.

    Works on a single state (shape ``(2,)``) or a stack of states
    (shape ``(..., 2)``). The cube is two products, not ``x1**3``: numpy's
    ``power`` can leave its SIMD path for a negative base (about 75 times
    slower on 20 000 states), and its last bit can then depend on the sign,
    while the products keep the field exactly odd, ``rhs(-x) == -rhs(x)``.
    """
    x = np.asarray(x, dtype=float)
    if x.shape[-1] != 2:
        raise ValidationError(f"state must have dimension 2, got shape {x.shape}")
    x1, x2 = x[..., 0], x[..., 1]
    return np.stack([x2, -x1 - damping * x2 - cubic * (x1 * x1 * x1)], axis=-1)


@dataclass(frozen=True)
class DuffingModel:
    """Benchmark dynamics plus integration cadence.

    ``dt`` is the integrator substep; ``sample_time`` the filter period and
    must be an integer multiple of ``dt``, at most :data:`MAX_STEPS_PER_SAMPLE`
    times it.
    """

    damping: float = 0.25
    cubic: float = 1.0
    dt: float = 0.01
    sample_time: float = 0.5

    def __post_init__(self):
        _check_field_types(self)
        _check_finite_fields(self, "damping", "cubic", "dt", "sample_time")
        if self.dt <= 0.0:
            raise ValidationError(f"dt must be positive, got {self.dt}")
        ratio = self.sample_time / self.dt
        if not ratio < MAX_STEPS_PER_SAMPLE + 0.5:  # an overflowed ratio is inf
            raise ValidationError(
                f"sample_time {self.sample_time} / dt {self.dt} asks for {ratio:.3g} RK4 "
                f"substeps per sample; at most {MAX_STEPS_PER_SAMPLE} are allowed")
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
    the finite range, naming the first non-finite row of a stacked state;
    the overflow on the way there is not also reported as a numpy warning.
    """
    if dt <= 0.0:
        raise ValidationError(f"dt must be positive, got {dt}")
    if steps < 0:
        raise ValidationError(f"steps must be >= 0, got {steps}")
    x = np.asarray(x0, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(steps):
            k1 = rhs(x)
            k2 = rhs(x + 0.5 * dt * k1)
            k3 = rhs(x + 0.5 * dt * k2)
            k4 = rhs(x + dt * k3)
            x = x + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            if not np.all(np.isfinite(x)):
                if x.ndim == 2:
                    bad = int(np.nonzero(~np.isfinite(x).all(axis=1))[0][0])
                    raise DivergenceError(f"particle {bad} diverged")
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
    return integrate_rk4(cloud, model.rhs, model.dt, int(round(ratio)))


@dataclass(frozen=True)
class EmFitConfig:
    """EM settings for mixture fitting over a point cloud."""

    n_components: int = 10
    max_iters: int = 200
    tol: float = 1e-8
    covariance_floor: float = 1e-6
    restarts: int = 3

    def __post_init__(self):
        _check_field_types(self)
        _check_finite_fields(self, "tol", "covariance_floor")
        if self.n_components < 1:
            raise ValidationError(f"n_components must be >= 1, got {self.n_components}")
        if self.max_iters < 1 or self.restarts < 1:
            raise ValidationError("max_iters and restarts must be >= 1")
        if self.tol <= 0.0 or self.covariance_floor <= 0.0:
            raise ValidationError("tol and covariance_floor must be positive")


@dataclass(frozen=True, eq=False)
class EmDiagnostics:
    """Bookkeeping from the winning EM restart.

    ``log_likelihoods`` scores the parameters each E/M pass started from,
    skipping passes that reseeded a component, and ``iterations`` is its length;
    ``final_log_likelihood`` scores the returned mixture. ``converged`` says
    whether the ``tol`` test stopped the run before ``max_iters``.
    """

    log_likelihoods: np.ndarray
    reseeds: int
    restart_index: int
    final_log_likelihood: float
    iterations: int
    converged: bool


def _kmeanspp_centers(points: np.ndarray, k: int, rng: np.random.Generator):
    """``k`` k-means++ centers ``(k, d)`` and each point's nearest center ``(N,)``.

    The nearest center is kept during the distance pass that weights the next
    draw; a strict ``<`` keeps the earliest center on ties, as an ``argmin``
    over all the distances would.
    """
    n = points.shape[0]
    centers = [points[int(rng.integers(n))]]
    d2 = np.sum((points - centers[0]) ** 2, axis=1)
    nearest = np.zeros(n, dtype=np.intp)
    for j in range(1, k):
        total = float(d2.sum())
        if total <= 0.0:
            # Every point sits on a center, so no later one is strictly nearer.
            centers.append(points[int(rng.integers(n))])
            continue
        idx = int(rng.choice(n, p=d2 / total))
        centers.append(points[idx])
        new = np.sum((points - centers[-1]) ** 2, axis=1)
        closer = new < d2
        nearest[closer] = j
        d2[closer] = new[closer]
    return np.stack(centers), nearest


class _EmWork:
    """What one cloud's EM fit reuses on every pass of every restart: the
    cloud, its ``(M, N)`` quadratic features ``[1, x, x_i x_j (i <= j)]`` with
    ``x`` centered at the cloud mean (``M = 1 + d + d(d+1)/2``), and the
    ``(K, N)`` buffer for the joint log densities that become the transposed
    responsibilities. Centering keeps the cancellation in the feature form
    small; reusing the buffer keeps each pass from allocating and
    page-faulting it."""

    def __init__(self, points: np.ndarray, k: int):
        n, dim = points.shape
        self.points = points
        self.center = points.mean(axis=0)
        self.rows, self.cols = np.triu_indices(dim)
        # Off-diagonal features x_i x_j stand for both (i, j) and (j, i).
        self.pair_scale = np.where(self.rows == self.cols, -0.5, -1.0)
        x = (points - self.center).T
        self.feats = np.concatenate([np.ones((1, n)), x, x[self.rows] * x[self.cols]])
        self.resp_t = np.empty((k, n))


def _joint_logpdfs(work: _EmWork, weights: np.ndarray, means: np.ndarray,
                   covs: np.ndarray) -> np.ndarray:
    """``(K, N)`` joint log densities ``log w_k + log N(x_n; mu_k, S_k)`` in
    ``work.resp_t``, from one ``(K, M) @ (M, N)`` product.

    Each component's log density is linear in the features: its precision
    ``P``, ``P mu``, ``mu^T P mu``, log-determinant and log-weight fold into
    one row of coefficients. The quadratic form is then a sum of terms of
    size ``|P| |x|^2`` rather than the square of a whitened residual. Next to
    a component at the 1e-6 covariance floor, a log density is about
    1e-8 absolute from the whitened form of ``gaussian._component_logpdfs``,
    and the gap grows with the squared distance from the cloud's mean. The
    weights must be positive. Raises ``LinAlgError`` if any covariance is not
    positive definite.
    """
    dim = means.shape[1]
    chol = np.linalg.cholesky(covs)
    prec = np.linalg.inv(covs)
    mu = means - work.center
    prec_mu = (prec @ mu[:, :, None])[:, :, 0]
    coef = np.empty((len(means), work.feats.shape[0]))
    coef[:, 0] = np.log(weights) - 0.5 * (
        dim * np.log(2.0 * np.pi)
        + 2.0 * np.log(np.diagonal(chol, axis1=1, axis2=2)).sum(axis=1)
        + (prec_mu * mu).sum(axis=1))
    coef[:, 1:1 + dim] = prec_mu
    coef[:, 1 + dim:] = prec[:, work.rows, work.cols] * work.pair_scale
    return np.matmul(coef, work.feats, out=work.resp_t)


def _e_step(work: _EmWork, weights: np.ndarray, means: np.ndarray, covs: np.ndarray):
    """Transposed responsibilities ``(K, N)`` in ``work.resp_t``, which the
    next E-step overwrites, and the per-point log mixture density ``(N,)``.
    The normalization reduces over axis 0 of the joint log densities."""
    joint = _joint_logpdfs(work, weights, means, covs)
    peak = joint.max(axis=0)
    joint -= peak
    np.maximum(joint, _LOG_RESP_FLOOR, out=joint)
    np.exp(joint, out=joint)
    total = joint.sum(axis=0)
    joint /= total
    log_norm = np.log(total, out=total)
    log_norm += peak
    return joint, log_norm


def _m_step(work: _EmWork, resp_t: np.ndarray, mass: np.ndarray, floor: float):
    """Weighted means ``(K, d)`` and floored covariances ``(K, d, d)``.

    ``resp_t`` is the ``(K, N)`` transposed responsibilities and ``mass`` its
    row sums. One ``(K, N) @ (N, M)`` product gives every component's
    expected features, so its mean and its second moment ``E[x x^T]``; the
    covariance is ``E[x x^T] - mu mu^T`` in the centered coordinates.
    """
    dim = work.points.shape[1]
    moments = (resp_t @ work.feats.T) / mass[:, None]
    mu = moments[:, 1:1 + dim]
    covs = np.empty((len(mass), dim, dim))
    covs[:, work.rows, work.cols] = moments[:, 1 + dim:]
    covs[:, work.cols, work.rows] = moments[:, 1 + dim:]
    covs -= mu[:, :, None] * mu[:, None, :]
    return work.center + mu, ensure_spd(covs, floor)


def _em_run(work: _EmWork, config: EmFitConfig, rng: np.random.Generator):
    points = work.points
    n, dim = points.shape
    k = config.n_components
    floor = config.covariance_floor
    overall_cov = ensure_spd(np.cov(points, rowvar=False).reshape(1, dim, dim), floor)[0]

    # Start from each point's nearest k-means++ center; a center that wins no
    # point keeps its own location, the overall covariance and weight 1/n.
    centers, assign = _kmeanspp_centers(points, k, rng)
    counts = np.bincount(assign, minlength=k).astype(float)
    empty = counts == 0
    counts[empty] = 1.0
    hard_t = (np.arange(k)[:, None] == assign).astype(float)
    means, covs = _m_step(work, hard_t, counts, floor)
    means[empty] = centers[empty]
    covs[empty] = overall_cov
    weights = counts / counts.sum()

    lls = []
    reseeds = 0
    converged = False
    for _ in range(config.max_iters):
        resp_t, log_norm = _e_step(work, weights, means, covs)
        ll = float(log_norm.sum())

        mass = resp_t.sum(axis=1)
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
        means, covs = _m_step(work, resp_t, mass, floor)

        if lls and ll - lls[-1] <= config.tol * (1.0 + abs(lls[-1])):
            lls.append(ll)
            converged = True
            break
        lls.append(ll)

    # Each loop score belongs to the parameters before that pass's M-step, so
    # the returned mixture gets one more E-step of its own.
    mixture = GaussianMixture(weights / weights.sum(), means, covs, eig_floor=0.0)
    final_ll = float(_e_step(work, mixture.weights, mixture.means, mixture.covs)[1].sum())
    return mixture, np.array(lls), final_ll, reseeds, converged


def fit_gmm_em(cloud, config: EmFitConfig, rng: np.random.Generator, details: bool = False):
    """Fit a Gaussian mixture to a point cloud by EM with k-means++ starts.

    Runs ``config.restarts`` independent initializations and keeps the run
    whose returned mixture has the highest log-likelihood on the cloud. Each
    pass works on the cloud's quadratic features, shared by the restarts: one
    ``(K, M) @ (M, N)`` product gives every component's log density (E-step)
    and one ``(K, N) @ (N, M)`` product its expected features, so its mass,
    mean and covariance (M-step); ``ensure_spd`` floors the covariance
    eigenvalues at ``config.covariance_floor`` after every M-step. The cloud
    may have any dimension. With ``details=True`` returns
    ``(mixture, EmDiagnostics)``.
    """
    points = np.asarray(cloud, dtype=float)
    if points.ndim != 2:
        raise ValidationError(f"cloud must be (N, n), got shape {points.shape}")
    if not np.all(np.isfinite(points)):
        raise ValidationError("cloud contains non-finite entries")
    if points.shape[0] < MIN_POINTS_PER_COMPONENT * config.n_components:
        raise ValidationError(
            f"{points.shape[0]} points cannot support {config.n_components} components "
            f"(need at least {MIN_POINTS_PER_COMPONENT} per component)"
        )
    work = _EmWork(points, config.n_components)
    best = None
    for restart in range(config.restarts):
        run = _em_run(work, config, rng)
        if best is None or run[2] > best[2]:
            best = (*run, restart)

    mixture, lls, final_ll, reseeds, converged, restart = best
    if details:
        return mixture, EmDiagnostics(log_likelihoods=lls, reseeds=reseeds,
                                      restart_index=restart, final_log_likelihood=final_ll,
                                      iterations=len(lls), converged=converged)
    return mixture
