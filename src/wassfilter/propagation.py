"""Uncertainty propagation for the Duffing benchmark.

Holds the oscillator dynamics, a fixed-step RK4 integrator, vectorized
ensemble propagation, and an EM fitter that turns a propagated point cloud
back into a Gaussian mixture. The filters never see dynamics directly; they
consume the fitted mixtures.

The Duffing cube is written as two products (see :func:`duffing_rhs`), which
keeps RK4, a large-ensemble run's main cost, on numpy's vectorized multiply
and the vector field exactly odd. :func:`integrate_rk4` advances the state in
place: it copies the start once into a Fortran-ordered array, so each state
column ``x[..., j]`` is contiguous, and its field callback ``rhs(x, out=buf)``
writes each slope into one of four buffers allocated once per call. A substep
allocates no state-sized array, and every operation keeps the order of the
textbook ``x + (dt/6) (k1 + 2 k2 + 2 k3 + k4)``, so the result is bit for bit
that of an allocating loop.

EM works on a cloud's quadratic features ``[1, x, x_i x_j]``, formed once
per cloud (``M = 6`` for the Duffing state). One fit takes ``F`` clouds of
one shape (:func:`_fit_gmm_em_stack`; :func:`fit_gmm_em` is its one-cloud
call), whose features form one ``(F, M, N)`` array. Each cloud's ``R``
restarts draw their k-means++ starts first, from that cloud's generator in
restart order, and then all ``F R`` (cloud, restart) rows run in lockstep as
one stack. A Gaussian's log density is linear in the features, so each
E-step folds every component's precision, log-determinant and weight into an
``(F, R, K, M)`` coefficient stack and gets all joint log densities from one
``(F, R, K, M) @ (F, 1, M, N)`` product; each M-step gets every component's
mass, mean and second moment from one ``(F, R, K, N) @ (F, 1, N, M)``
product over the responsibilities. The products stay batched per row, so
each row's numbers are bit for bit those of a one-cloud, one-restart fit. The
covariance floor (``gaussian.ensure_spd``) factors each M-step's
``(F R K, d, d)`` covariance stack with one batched ``eigh``, and those
eigenpairs give the next E-step every precision and log-determinant: no other
factorization, and the floor, which the config requires to be positive, makes
every covariance positive definite. Each restart's returned mixture is scored
once with the whitened residuals of ``gaussian._component_logpdfs``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DivergenceError, FitError, ValidationError
from .gaussian import GaussianMixture, _check_field_types, _component_logpdfs, _floored_eigh

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


def duffing_rhs(x, damping: float = 0.25, cubic: float = 1.0, *, out=None) -> np.ndarray:
    """Duffing oscillator vector field: ``(x2, -x1 - damping*x2 - cubic*x1^3)``.

    Works on a single state (shape ``(2,)``) or a stack of states
    (shape ``(..., 2)``). Writes into ``out``, a float array of the state's
    shape, and returns it; a new array is allocated only when ``out`` is
    ``None``. The cube is two products, not ``x1**3``: numpy's ``power`` can
    leave its SIMD path for a negative base (about 75 times slower on 20 000
    states), and its last bit can then depend on the sign, while the products
    keep the field exactly odd, ``rhs(-x) == -rhs(x)``.
    """
    x = np.asarray(x, dtype=float)
    if x.shape[-1] != 2:
        raise ValidationError(f"state must have dimension 2, got shape {x.shape}")
    if out is None:
        out = np.empty_like(x)
    elif out.shape != x.shape:
        raise ValidationError(f"out must have the state's shape {x.shape}, got {out.shape}")
    x1, x2 = x[..., 0], x[..., 1]
    out[..., 0] = x2
    v = out[..., 1]
    np.negative(x1, out=v)
    v -= damping * x2
    v -= cubic * (x1 * x1 * x1)
    return out


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

    def rhs(self, x, *, out=None) -> np.ndarray:
        return duffing_rhs(x, damping=self.damping, cubic=self.cubic, out=out)


def integrate_rk4(x0, rhs, dt: float, steps: int) -> np.ndarray:
    """Classical 4th-order Runge-Kutta for autonomous dynamics.

    ``rhs(x, out=buf)`` writes the field at ``x`` into ``buf``, an array of
    ``x``'s shape, so a whole ensemble is advanced in one call. ``x0`` is
    copied once into a Fortran-ordered float array, which keeps each state
    column ``x[..., j]`` contiguous; the four slopes and the stage state are
    buffers of that layout allocated once per call, and each substep updates
    them in place. The result is a new C-ordered array, ``steps == 0``
    included, and ``x0`` is never written. Raises :class:`DivergenceError` if
    the state leaves the finite range, naming the first non-finite row of a
    stacked state; the overflow on the way there is not also reported as a
    numpy warning.
    """
    if dt <= 0.0:
        raise ValidationError(f"dt must be positive, got {dt}")
    if steps < 0:
        raise ValidationError(f"steps must be >= 0, got {steps}")
    x = np.array(x0, dtype=float, order="F")
    k1, k2, k3, k4, stage = (np.empty_like(x) for _ in range(5))
    finite = np.empty(x.shape, dtype=bool, order="F")
    half, sixth = 0.5 * dt, dt / 6.0
    # Each line is the allocating loop's operation with its operands
    # commuted, which is exact: stage = x + (dt/2) k1, ..., and
    # x = x + (dt/6) (((k1 + 2 k2) + 2 k3) + k4), summed in that order.
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(steps):
            rhs(x, out=k1)
            np.multiply(k1, half, out=stage)
            stage += x
            rhs(stage, out=k2)
            np.multiply(k2, half, out=stage)
            stage += x
            rhs(stage, out=k3)
            np.multiply(k3, dt, out=stage)
            stage += x
            rhs(stage, out=k4)
            k2 *= 2.0
            k1 += k2
            k3 *= 2.0
            k1 += k3
            k1 += k4
            k1 *= sixth
            x += k1
            if not np.isfinite(x, out=finite).all():
                if x.ndim == 2:
                    bad = int(np.nonzero(~finite.all(axis=1))[0][0])
                    raise DivergenceError(f"particle {bad} diverged")
                raise DivergenceError("integration produced a non-finite state")
    return np.ascontiguousarray(x)


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
    skipping passes that reseeded a component, and ``iterations`` is its length.
    ``final_log_likelihood`` scores the returned mixture once with whitened
    residuals, so it keeps its precision on clouds whose tight clusters sit far
    from the cloud's mean, and the restarts are compared on it. ``converged`` says
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
    over all the distances would. A squared distance is summed over the
    cloud's columns in column order, from a contiguous ``points.T``: an
    F-ordered ``points``, as the fit passes it, needs no copy.
    """
    n = points.shape[0]
    cols = np.ascontiguousarray(points.T)

    def sq_dist(center):
        d2 = cols[0] - center[0]
        d2 *= d2
        for col, c in zip(cols[1:], center[1:]):
            term = col - c
            term *= term
            d2 += term
        return d2

    centers = [points[int(rng.integers(n))]]
    d2 = sq_dist(centers[0])
    nearest = np.zeros(n, dtype=np.intp)
    for j in range(1, k):
        total = float(d2.sum())
        if total <= 0.0:
            # Every point sits on a center, so no later one is strictly nearer.
            centers.append(points[int(rng.integers(n))])
            continue
        idx = int(rng.choice(n, p=d2 / total))
        centers.append(points[idx])
        new = sq_dist(centers[-1])
        closer = new < d2
        nearest[closer] = j
        d2[closer] = new[closer]
    return np.stack(centers), nearest


class _EmWork:
    """What a stacked EM fit over ``F`` clouds of ``N`` points reuses on every
    pass: the clouds, their ``(F, M, N)`` quadratic features
    ``[1, x, x_i x_j (i <= j)]`` with each cloud's ``x`` centered at its own
    mean (``M = 1 + d + d(d+1)/2``), the ``(F, restarts, K, N)`` buffer for
    the joint log densities that become the transposed responsibilities, and
    each cloud's floored overall covariance with its eigenpairs, which seed
    empty and reseeded components. Centering keeps the cancellation in the
    feature form small; reusing the buffer keeps each pass from allocating
    and page-faulting it. Each cloud's numbers are formed from that cloud
    alone, as a fit of its own would form them."""

    def __init__(self, clouds, k: int, floor: float, restarts: int = 1):
        n, dim = clouds[0].shape
        self.points = clouds
        # (F, 1, d), so that center.take(cloud, axis=0) broadcasts over a row's components.
        self.center = np.stack([points.mean(axis=0) for points in clouds])[:, None]
        self.rows, self.cols = np.triu_indices(dim)
        # Off-diagonal features x_i x_j stand for both (i, j) and (j, i).
        self.pair_scale = np.where(self.rows == self.cols, -0.5, -1.0)
        self.feats = np.empty((len(clouds), 1 + dim + self.rows.size, n))
        for feats, points, center in zip(self.feats, clouds, self.center):
            x = (points - center).T
            feats[0] = 1.0
            feats[1:1 + dim] = x
            np.multiply(x[self.rows], x[self.cols], out=feats[1 + dim:])
        self.feats_t = np.swapaxes(self.feats, 1, 2)
        self.resp_t = np.empty((len(clouds), restarts, k, n))
        covs = np.stack([np.cov(points, rowvar=False).reshape(dim, dim) for points in clouds])
        self.overall = _floored_eigh(covs, floor)


def _by_cloud(lhs: np.ndarray, rhs: np.ndarray, cloud: np.ndarray, out=None) -> np.ndarray:
    """``lhs[i] @ rhs[cloud[i]]`` for every row ``i`` of an ``(L, K, a)``
    stack whose rows are sorted by ``cloud``, into ``out`` ``(L, K, b)``.

    With one cloud in ``rhs`` ``(F, a, b)`` this is one
    ``(L, K, a) @ (a, b)`` product. When every cloud has the same number
    ``R`` of rows, it is one ``(F, R, K, a) @ (F, 1, a, b)`` product, else one
    ``(R_f, K, a) @ (a, b)`` product per cloud. Each way it stays batched per
    row, never flattened to 2-D: every row is one ``(K, a) @ (a, b)``
    product, so its bits do not depend on the other rows. OpenBLAS can round
    the rows of a flat ``(R K, a) @ (a, b)`` product in the last bits
    differently when ``K`` is not a multiple of 4.
    """
    clouds, per = rhs.shape[0], cloud.size // rhs.shape[0]
    if clouds == 1:
        return np.matmul(lhs, rhs[0], out=out)
    if out is None:
        out = np.empty(lhs.shape[:-1] + rhs.shape[-1:])
    if per and np.array_equal(cloud, np.repeat(np.arange(clouds), per)):
        np.matmul(lhs.reshape((clouds, per) + lhs.shape[1:]), rhs[:, None],
                  out=out.reshape((clouds, per) + out.shape[1:]))
        return out
    bounds = np.searchsorted(cloud, np.arange(clouds + 1))
    for f, (lo, hi) in enumerate(zip(bounds[:-1], bounds[1:])):
        if hi > lo:
            np.matmul(lhs[lo:hi], rhs[f], out=out[lo:hi])
    return out


def _joint_logpdfs(work: _EmWork, cloud: np.ndarray, weights: np.ndarray, means: np.ndarray,
                   evals: np.ndarray, evecs: np.ndarray) -> np.ndarray:
    """``(L, K, N)`` joint log densities ``log w_k + log N(x_n; mu_k, S_k)``
    in the leading rows of ``work.resp_t``, one per row of the stack, from
    one product batched over the rows (:func:`_by_cloud`). Row ``i`` belongs
    to cloud ``cloud[i]``, and the rows are sorted by cloud.

    ``S_k = V_k diag(lambda_k) V_k^T`` is given by the eigenpairs ``evals``
    ``(L, K, d)`` and ``evecs`` ``(L, K, d, d)`` of the floor that made
    it, so the precision is ``V_k diag(1 / lambda_k) V_k^T`` and the
    log-determinant ``sum(log lambda_k)``; the floor keeps every
    ``lambda_k`` positive. Each component's log density is linear in the
    features: its precision ``P``, ``P mu``, ``mu^T P mu``, log-determinant
    and log-weight fold into one row of coefficients. The quadratic form is
    then a sum of terms of size ``|P| |x|^2`` rather than the square of a
    whitened residual. Next to a component at the 1e-6 covariance floor, a
    log density is about 1e-8 absolute from the whitened form of
    ``gaussian._component_logpdfs``, and the gap grows with the squared
    distance from the cloud's mean. The weights must be positive.
    """
    dim = means.shape[-1]
    n = work.feats.shape[-1]
    prec = (evecs / evals[..., None, :]) @ np.swapaxes(evecs, -1, -2)
    mu = means - work.center.take(cloud, axis=0)
    prec_mu = (prec @ mu[..., None])[..., 0]
    coef = np.empty(weights.shape + (work.feats.shape[1],))
    coef[..., 0] = np.log(weights) - 0.5 * (
        dim * np.log(2.0 * np.pi) + np.log(evals).sum(axis=-1) + (prec_mu * mu).sum(axis=-1))
    coef[..., 1:1 + dim] = prec_mu
    coef[..., 1 + dim:] = prec[..., work.rows, work.cols] * work.pair_scale
    out = work.resp_t.reshape(-1, n)[:weights.size].reshape(weights.shape + (n,))
    return _by_cloud(coef, work.feats, cloud, out)


def _log_sum_exp(joint: np.ndarray):
    """Per-point log mixture density ``(..., N)`` of ``(..., K, N)`` joint log
    densities, reducing over the component axis. Leaves the floored
    ``exp(joint - peak)`` in ``joint`` and returns with the density their
    per-point sums ``(..., 1, N)``, which turn them into responsibilities."""
    peak = joint.max(axis=-2, keepdims=True)
    joint -= peak
    np.maximum(joint, _LOG_RESP_FLOOR, out=joint)
    np.exp(joint, out=joint)
    total = joint.sum(axis=-2, keepdims=True)
    log_norm = np.log(total)
    log_norm += peak
    return log_norm[..., 0, :], total


def _e_step(work: _EmWork, cloud: np.ndarray, weights: np.ndarray, means: np.ndarray,
            cov: tuple):
    """Transposed responsibilities ``(L, K, N)`` in ``work.resp_t``, which
    the next E-step overwrites, and the per-point log mixture density
    ``(L, N)``, for rows of clouds ``cloud`` and the ``(covs, evals, evecs)``
    stack of :func:`_m_step`."""
    joint = _joint_logpdfs(work, cloud, weights, means, *cov[1:])
    log_norm, total = _log_sum_exp(joint)
    joint /= total
    return joint, log_norm


def _m_step(work: _EmWork, cloud: np.ndarray, resp_t: np.ndarray, mass: np.ndarray,
            floor: float):
    """Weighted means ``(L, K, d)`` and the floored covariance stack as
    ``(covs, evals, evecs)``: the ``(L, K, d, d)`` covariances and the
    eigenpairs ``(L, K, d)`` and ``(L, K, d, d)`` that the floor factored
    them by.

    ``resp_t`` is the ``(L, K, N)`` transposed responsibilities of rows of
    clouds ``cloud``, sorted by cloud, and ``mass`` its row sums. One
    product batched over the rows, each row's ``(K, N) @ (N, M)`` with its
    cloud's features (:func:`_by_cloud`), gives every component's expected
    features, so its mean and its second moment ``E[x x^T]``; the covariance
    is ``E[x x^T] - mu mu^T`` in the cloud's centered coordinates. The floor
    runs once on the whole stack.
    """
    dim = work.center.shape[-1]
    moments = _by_cloud(resp_t, work.feats_t, cloud) / mass[..., None]
    mu = moments[..., 1:1 + dim]
    covs = np.empty(mass.shape + (dim, dim))
    covs[..., work.rows, work.cols] = moments[..., 1 + dim:]
    covs[..., work.cols, work.rows] = moments[..., 1 + dim:]
    covs -= mu[..., :, None] * mu[..., None, :]
    floored = _floored_eigh(covs.reshape(-1, dim, dim), floor)
    return (work.center.take(cloud, axis=0) + mu,
            tuple(a.reshape(mass.shape + a.shape[1:]) for a in floored))


def _scored_run(points, weights, means, covs, lls, reseeds: int, converged: bool):
    """One restart's result ``(mixture, lls, final_ll, reseeds, converged)``.

    Each loop score belongs to the parameters before that pass's M-step, so
    the returned mixture is scored once more on its cloud ``points``, with
    whitened residuals. The floor has just certified its covariances.
    """
    mixture = GaussianMixture._trusted(weights / weights.sum(), means.copy(), covs.copy(),
                                       eig_floor=0.0)
    joint = _component_logpdfs(points, mixture.means, mixture.covs).T
    joint += np.log(mixture.weights)[:, None]
    final_ll = float(_log_sum_exp(joint)[0].sum())
    return mixture, lls, final_ll, reseeds, converged


def _em_run(work: _EmWork, config: EmFitConfig, rngs) -> list:
    """Every ``(cloud, restart)`` row's ``(mixture, lls, final_ll, reseeds,
    converged)``, cloud by cloud and in restart order within a cloud, from
    ``config.restarts`` EM runs per cloud in lockstep.

    Each cloud draws all its k-means++ starts from its own generator in
    ``rngs`` first, in restart order, and a pass draws nothing, so a cloud
    whose fit succeeds leaves its generator where restarts run one after
    another would leave it. The live rows then share one stacked pass: one
    E-step product, one M-step product and one floor ``eigh`` for all of
    them, each batched per row, so a row's numbers are bit for bit those of
    its own run. A row that reseeds a collapsed component skips its M-step
    that pass; one that meets ``tol`` leaves the stack. A restart past the
    reseed limit fails its cloud once that cloud's restarts before it have
    finished, as a sequential run would; its later restarts leave the stack
    at once. When every row has finished, the first failing cloud raises its
    :class:`FitError`, the error a fit of each cloud in turn meets first.
    """
    points = work.points
    n, dim = points[0].shape
    k, r = config.n_components, config.restarts
    floor = config.covariance_floor

    # Start from each point's nearest k-means++ center; a center that wins no
    # point keeps its own location, its cloud's overall covariance and weight
    # 1/n. Every start reads one copy of its cloud's columns, and the hard
    # assignments go through the responsibility buffer.
    cloud = np.repeat(np.arange(len(points)), r)  # each row's cloud
    centers = np.empty((cloud.size, k, dim))
    counts = np.empty((cloud.size, k))
    hard_t = work.resp_t.reshape(cloud.size, k, n)
    for f, (cloud_points, rng) in enumerate(zip(points, rngs, strict=True)):
        cols_t = np.ascontiguousarray(cloud_points.T).T
        for i in range(f * r, (f + 1) * r):
            centers[i], assign = _kmeanspp_centers(cols_t, k, rng)
            counts[i] = np.bincount(assign, minlength=k)
            hard_t[i] = np.arange(k)[:, None] == assign
    empty = counts == 0
    counts[empty] = 1.0
    means, cov = _m_step(work, cloud, hard_t, counts, floor)
    means[empty] = centers[empty]
    for part, overall in zip(cov, work.overall):
        part[empty] = overall[cloud[np.nonzero(empty)[0]]]
    weights = counts / counts.sum(axis=1, keepdims=True)

    # Per stack row: its row index (cloud * r + restart), its cloud and its
    # last kept score, if any. Per row, grown pass by pass: the scores of the
    # passes that kept theirs (reseeding ones do not). Per cloud: its first
    # restart past the reseed limit.
    live = np.arange(cloud.size)
    hist: list[list[float]] = [[] for _ in range(cloud.size)]
    last = np.zeros(cloud.size)
    scored = np.zeros(cloud.size, dtype=bool)
    reseeds = [0] * cloud.size
    failed = [r] * len(points)
    runs = [None] * cloud.size

    def finish(i, converged):
        row = live[i]
        runs[row] = _scored_run(points[row // r], weights[i], means[i], cov[0][i],
                                np.array(hist[row], float), reseeds[row], converged)

    for _ in range(config.max_iters):
        resp_t, log_norm = _e_step(work, cloud, weights, means, cov)
        ll = log_norm.sum(axis=1)
        mass = resp_t.sum(axis=2)
        keep = mass.min(axis=1) >= _COLLAPSE_MASS * n

        if keep.all():
            weights = mass / n
            means, cov = _m_step(work, cloud, resp_t, mass, floor)
        else:
            for i in np.nonzero(~keep)[0]:
                row, dead = live[i], np.nonzero(mass[i] < _COLLAPSE_MASS * n)[0]
                f, restart = divmod(int(row), r)
                reseeds[row] += dead.size
                if reseeds[row] > _MAX_RESEEDS:
                    failed[f] = min(failed[f], restart)
                    continue
                # Reseed each dead component at the point the mixture explains worst.
                means[i, dead] = points[f][np.argsort(log_norm[i])[:dead.size]]
                for part, overall in zip(cov, work.overall):
                    part[i, dead] = overall[f]
                weights[i, dead] = 1.0 / n
                weights[i] /= weights[i].sum()
            if keep.any():
                # The reseeding rows skip their M-step this pass.
                weights[keep] = mass[keep] / n
                kept_means, kept_cov = _m_step(work, cloud[keep], resp_t[keep], mass[keep],
                                               floor)
                means[keep] = kept_means
                for part, rows in zip(cov, kept_cov):
                    part[keep] = rows

        met = keep & scored & (ll - last <= config.tol * (1.0 + np.abs(last)))
        for row, score, kept in zip(live.tolist(), ll.tolist(), keep.tolist()):
            if kept:
                hist[row].append(score)
        last = np.where(keep, ll, last)
        scored |= keep

        leave = met | (live % r >= np.take(failed, cloud)) if min(failed) < r else met
        if leave.any():
            for i in np.nonzero(met)[0]:
                finish(i, True)
            stay = ~leave
            live, cloud, last, scored, weights, means = (
                a[stay] for a in (live, cloud, last, scored, weights, means))
            cov = tuple(part[stay] for part in cov)
            if not live.size:
                break

    for f, restart in enumerate(failed):
        if restart < r:
            raise FitError(f"EM failed after {reseeds[f * r + restart]} component reseeds")
    for i in range(live.size):
        finish(i, False)
    return runs


def _fit_gmm_em_stack(clouds, config: EmFitConfig, rngs) -> list:
    """:func:`fit_gmm_em` with ``details=True`` for each of ``F`` clouds of
    one shape, cloud ``f`` drawing its starts from ``rngs[f]``, as one fit.

    Returns one ``(mixture, EmDiagnostics)`` per cloud, each bit for bit what
    the cloud's own :func:`fit_gmm_em` call gives. The ``F R`` rows of
    ``(cloud, restart)`` run in lockstep (:func:`_em_run`) over the clouds'
    ``(F, M, N)`` features: each E-step is one ``(F, R, K, M) @ (F, 1, M, N)``
    product and each M-step one ``(F, R, K, N) @ (F, 1, N, M)``, both batched
    per row, so a pass's fixed cost is paid once for all the clouds. The
    working memory per pass grows as ``F * restarts * n_components * N``
    doubles. Every cloud is checked before any draw, in order; a fit that
    fails raises the :class:`FitError` of the first failing cloud.
    """
    points = []
    for cloud in clouds:
        cloud = np.asarray(cloud, dtype=float)
        if cloud.ndim != 2:
            raise ValidationError(f"cloud must be (N, n), got shape {cloud.shape}")
        if not np.all(np.isfinite(cloud)):
            raise ValidationError("cloud contains non-finite entries")
        if cloud.shape[0] < MIN_POINTS_PER_COMPONENT * config.n_components:
            raise ValidationError(
                f"{cloud.shape[0]} points cannot support {config.n_components} components "
                f"(need at least {MIN_POINTS_PER_COMPONENT} per component)"
            )
        points.append(cloud)
    if len({cloud.shape for cloud in points}) > 1:
        raise ValidationError(
            f"stacked clouds must share one shape, got {[cloud.shape for cloud in points]}")
    work = _EmWork(points, config.n_components, config.covariance_floor, config.restarts)
    runs = _em_run(work, config, rngs)
    fits = []
    for f in range(len(points)):
        best = None
        for restart, run in enumerate(runs[f * config.restarts:(f + 1) * config.restarts]):
            if best is None or run[2] > best[2]:
                best = (*run, restart)
        mixture, lls, final_ll, reseeds, converged, restart = best
        fits.append((mixture, EmDiagnostics(log_likelihoods=lls, reseeds=reseeds,
                                            restart_index=restart,
                                            final_log_likelihood=final_ll,
                                            iterations=len(lls), converged=converged)))
    return fits


def fit_gmm_em(cloud, config: EmFitConfig, rng: np.random.Generator, details: bool = False):
    """Fit a Gaussian mixture to a point cloud by EM with k-means++ starts.

    Runs ``config.restarts`` initializations, all drawn before the first
    pass in restart order, and keeps the first run whose returned mixture
    has the highest log-likelihood on the cloud. The restarts run in
    lockstep on one stacked pass over the cloud's quadratic features: one
    batched ``(R, K, M) @ (M, N)`` product gives every component's log
    density (E-step) and one batched ``(R, K, N) @ (N, M)`` product its
    expected features, so its mass, mean and covariance (M-step). Each
    restart's numbers are bit for bit those of a fit with ``restarts=1``
    drawing from the same generator state. The floor of ``ensure_spd`` lifts
    the covariance eigenvalues to ``config.covariance_floor`` after every
    M-step, and its eigenpairs give the next E-step the precisions and
    log-determinants. Each restart's returned mixture is scored with
    whitened residuals (``EmDiagnostics.final_log_likelihood``). The cloud
    may have any dimension. The working memory per pass grows as
    ``restarts * n_components * N`` doubles. This is the one-cloud call of
    the stacked fit that the harness runs on a step's clouds. With
    ``details=True`` returns ``(mixture, EmDiagnostics)``.
    """
    (mixture, diagnostics), = _fit_gmm_em_stack([cloud], config, [rng])
    return (mixture, diagnostics) if details else mixture
