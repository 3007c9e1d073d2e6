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

EM works on the cloud's quadratic features ``[1, x, x_i x_j]``, formed once
per cloud as one ``(M, N)`` array (``M = 6`` for the Duffing state). A fit's
``R`` restarts draw their k-means++ starts first, in restart order, and then
run in lockstep as one ``(R, K, .)`` stack. A Gaussian's log density is
linear in the features, so each E-step folds every component's precision,
log-determinant and weight into an ``(R, K, M)`` coefficient stack and gets
all ``(R, K, N)`` joint log densities from one batched product; each M-step
gets every component's mass, mean and second moment from one batched
``(R, K, N) @ (N, M)`` product over the responsibilities. The products stay
batched per restart, so each restart's numbers are bit for bit those of a
fit of its own. The covariance floor (``gaussian.ensure_spd``) factors each
M-step's ``(R K, d, d)`` covariance stack with one batched ``eigh``, and
those eigenpairs give the next E-step every precision and log-determinant:
no other factorization, and the floor, which the config requires to be
positive, makes every covariance positive definite. Each restart's returned
mixture is scored once with the whitened residuals of
``gaussian._component_logpdfs``.
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
    """What one cloud's EM fit reuses on every pass: the cloud, its ``(M, N)``
    quadratic features ``[1, x, x_i x_j (i <= j)]`` with ``x`` centered at
    the cloud mean (``M = 1 + d + d(d+1)/2``), the ``(restarts, K, N)``
    buffer for the joint log densities that become the transposed
    responsibilities, and the cloud's floored covariance with its
    eigenpairs, which seed empty and reseeded components. Centering keeps
    the cancellation in the feature form small; reusing the buffer keeps
    each pass from allocating and page-faulting it."""

    def __init__(self, points: np.ndarray, k: int, floor: float, restarts: int = 1):
        n, dim = points.shape
        self.points = points
        self.center = points.mean(axis=0)
        self.rows, self.cols = np.triu_indices(dim)
        # Off-diagonal features x_i x_j stand for both (i, j) and (j, i).
        self.pair_scale = np.where(self.rows == self.cols, -0.5, -1.0)
        x = (points - self.center).T
        self.feats = np.concatenate([np.ones((1, n)), x, x[self.rows] * x[self.cols]])
        self.resp_t = np.empty((restarts, k, n))
        self.overall = _floored_eigh(np.cov(points, rowvar=False).reshape(1, dim, dim), floor)


def _joint_logpdfs(work: _EmWork, weights: np.ndarray, means: np.ndarray,
                   evals: np.ndarray, evecs: np.ndarray) -> np.ndarray:
    """``(..., K, N)`` joint log densities ``log w_k + log N(x_n; mu_k, S_k)``
    in the leading rows of ``work.resp_t``, from one ``(..., K, M) @ (M, N)``
    product batched over the leading axes (the live restarts).

    ``S_k = V_k diag(lambda_k) V_k^T`` is given by the eigenpairs ``evals``
    ``(..., K, d)`` and ``evecs`` ``(..., K, d, d)`` of the floor that made
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
    n = work.feats.shape[1]
    prec = (evecs / evals[..., None, :]) @ np.swapaxes(evecs, -1, -2)
    mu = means - work.center
    prec_mu = (prec @ mu[..., None])[..., 0]
    coef = np.empty(weights.shape + (work.feats.shape[0],))
    coef[..., 0] = np.log(weights) - 0.5 * (
        dim * np.log(2.0 * np.pi) + np.log(evals).sum(axis=-1) + (prec_mu * mu).sum(axis=-1))
    coef[..., 1:1 + dim] = prec_mu
    coef[..., 1 + dim:] = prec[..., work.rows, work.cols] * work.pair_scale
    out = work.resp_t.reshape(-1, n)[:weights.size].reshape(weights.shape + (n,))
    return np.matmul(coef, work.feats, out=out)


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


def _e_step(work: _EmWork, weights: np.ndarray, means: np.ndarray, cov: tuple):
    """Transposed responsibilities ``(..., K, N)`` in ``work.resp_t``, which
    the next E-step overwrites, and the per-point log mixture density
    ``(..., N)``, for the ``(covs, evals, evecs)`` stack of :func:`_m_step`."""
    joint = _joint_logpdfs(work, weights, means, *cov[1:])
    log_norm, total = _log_sum_exp(joint)
    joint /= total
    return joint, log_norm


def _m_step(work: _EmWork, resp_t: np.ndarray, mass: np.ndarray, floor: float):
    """Weighted means ``(..., K, d)`` and the floored covariance stack as
    ``(covs, evals, evecs)``: the ``(..., K, d, d)`` covariances and the
    eigenpairs ``(..., K, d)`` and ``(..., K, d, d)`` that the floor factored
    them by.

    ``resp_t`` is the ``(..., K, N)`` transposed responsibilities and
    ``mass`` its row sums. One ``(..., K, N) @ (N, M)`` product, batched over
    the leading axes, gives every component's expected features, so its
    mean and its second moment ``E[x x^T]``; the covariance is
    ``E[x x^T] - mu mu^T`` in the centered coordinates. The floor runs once
    on the whole stack. The products of both steps stay batched, never
    flattened to 2-D: OpenBLAS can round the rows of a flat
    ``(R K, N) @ (N, M)`` product in the last bits differently from each
    restart's own ``(K, N) @ (N, M)`` when ``K`` is not a multiple of 4.
    """
    dim = work.points.shape[1]
    moments = (resp_t @ work.feats.T) / mass[..., None]
    mu = moments[..., 1:1 + dim]
    covs = np.empty(mass.shape + (dim, dim))
    covs[..., work.rows, work.cols] = moments[..., 1 + dim:]
    covs[..., work.cols, work.rows] = moments[..., 1 + dim:]
    covs -= mu[..., :, None] * mu[..., None, :]
    floored = _floored_eigh(covs.reshape(-1, dim, dim), floor)
    return work.center + mu, tuple(a.reshape(mass.shape + a.shape[1:]) for a in floored)


def _scored_run(work: _EmWork, weights, means, covs, lls, reseeds: int, converged: bool):
    """One restart's result ``(mixture, lls, final_ll, reseeds, converged)``.

    Each loop score belongs to the parameters before that pass's M-step, so
    the returned mixture is scored once more, with whitened residuals. The
    floor has just certified its covariances.
    """
    mixture = GaussianMixture._trusted(weights / weights.sum(), means.copy(), covs.copy(),
                                       eig_floor=0.0)
    joint = _component_logpdfs(work.points, mixture.means, mixture.covs).T
    joint += np.log(mixture.weights)[:, None]
    final_ll = float(_log_sum_exp(joint)[0].sum())
    return mixture, lls, final_ll, reseeds, converged


def _em_run(work: _EmWork, config: EmFitConfig, rng: np.random.Generator) -> list:
    """Every restart's ``(mixture, lls, final_ll, reseeds, converged)``, in
    restart order, from ``config.restarts`` EM runs in lockstep.

    All k-means++ starts are drawn first, in restart order, and a pass draws
    nothing, so a fit that succeeds leaves the generator where restarts run
    one after another would leave it. The live restarts then share one stacked pass: one
    E-step product, one M-step product and one floor ``eigh`` for all of
    them, each batched per restart, so a restart's numbers are bit for bit
    those of its own run. A restart that reseeds a collapsed component skips
    its M-step that pass; one that meets ``tol`` leaves the stack. A restart
    past the reseed limit stops the fit with :class:`FitError` once the
    restarts before it have finished, as a sequential run would; the ones
    after it leave the stack at once.
    """
    points = work.points
    n, dim = points.shape
    k, r = config.n_components, config.restarts
    floor = config.covariance_floor

    # Start from each point's nearest k-means++ center; a center that wins no
    # point keeps its own location, the overall covariance and weight 1/n.
    # Every start reads one copy of the cloud's columns, and the hard
    # assignments go through the responsibility buffer.
    cols_t = np.ascontiguousarray(points.T).T
    centers = np.empty((r, k, dim))
    counts = np.empty((r, k))
    hard_t = work.resp_t
    for i in range(r):
        centers[i], assign = _kmeanspp_centers(cols_t, k, rng)
        counts[i] = np.bincount(assign, minlength=k)
        hard_t[i] = np.arange(k)[:, None] == assign
    empty = counts == 0
    counts[empty] = 1.0
    means, cov = _m_step(work, hard_t, counts, floor)
    means[empty] = centers[empty]
    for part, overall in zip(cov, work.overall):
        part[empty] = overall
    weights = counts / counts.sum(axis=1, keepdims=True)

    # Per stack row: its restart and last kept score, if any. Per restart, grown
    # pass by pass: the scores of the passes that kept theirs (reseeding ones do not).
    live = np.arange(r)
    hist: list[list[float]] = [[] for _ in range(r)]
    last = np.zeros(r)
    scored = np.zeros(r, dtype=bool)
    reseeds = [0] * r
    failed = r  # the first restart past the reseed limit
    runs = [None] * r

    def finish(i, converged):
        runs[live[i]] = _scored_run(work, weights[i], means[i], cov[0][i],
                                    np.array(hist[live[i]], float), reseeds[live[i]], converged)

    for _ in range(config.max_iters):
        resp_t, log_norm = _e_step(work, weights, means, cov)
        ll = log_norm.sum(axis=1)
        mass = resp_t.sum(axis=2)
        keep = mass.min(axis=1) >= _COLLAPSE_MASS * n

        if keep.all():
            weights = mass / n
            means, cov = _m_step(work, resp_t, mass, floor)
        else:
            for i in np.nonzero(~keep)[0]:
                restart, dead = live[i], np.nonzero(mass[i] < _COLLAPSE_MASS * n)[0]
                reseeds[restart] += dead.size
                if reseeds[restart] > _MAX_RESEEDS:
                    failed = min(failed, restart)
                    continue
                # Reseed each dead component at the point the mixture explains worst.
                means[i, dead] = points[np.argsort(log_norm[i])[:dead.size]]
                for part, overall in zip(cov, work.overall):
                    part[i, dead] = overall
                weights[i, dead] = 1.0 / n
                weights[i] /= weights[i].sum()
            if keep.any():
                # The reseeding restarts skip their M-step this pass.
                weights[keep] = mass[keep] / n
                kept_means, kept_cov = _m_step(work, resp_t[keep], mass[keep], floor)
                means[keep] = kept_means
                for part, rows in zip(cov, kept_cov):
                    part[keep] = rows

        met = keep & scored & (ll - last <= config.tol * (1.0 + np.abs(last)))
        for restart, score, kept in zip(live.tolist(), ll.tolist(), keep.tolist()):
            if kept:
                hist[restart].append(score)
        last = np.where(keep, ll, last)
        scored |= keep

        if met.any() or live[-1] >= failed:
            for i in np.nonzero(met)[0]:
                finish(i, True)
            stay = ~met & (live < failed)
            live, last, scored, weights, means = (
                a[stay] for a in (live, last, scored, weights, means))
            cov = tuple(part[stay] for part in cov)
            if not live.size:
                break

    if failed < r:
        raise FitError(f"EM failed after {reseeds[failed]} component reseeds")
    for i in range(live.size):
        finish(i, False)
    return runs


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
    ``restarts * n_components * N`` doubles. With ``details=True`` returns
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
    work = _EmWork(points, config.n_components, config.covariance_floor, config.restarts)
    best = None
    for restart, run in enumerate(_em_run(work, config, rng)):
        if best is None or run[2] > best[2]:
            best = (*run, restart)

    mixture, lls, final_ll, reseeds, converged, restart = best
    if details:
        return mixture, EmDiagnostics(log_likelihoods=lls, reseeds=reseeds,
                                      restart_index=restart, final_log_likelihood=final_ll,
                                      iterations=len(lls), converged=converged)
    return mixture
