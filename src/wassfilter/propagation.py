"""Uncertainty propagation for the Duffing benchmark.

Holds the oscillator dynamics, a fixed-step RK4 integrator, vectorized
ensemble propagation, and an EM fitter that turns a propagated point cloud
back into a Gaussian mixture. The filters never see dynamics directly; they
consume the fitted mixtures.

The Duffing cube is written as two products (see :func:`duffing_rhs`), which
keeps RK4, a large-ensemble run's main cost, on numpy's vectorized multiply
and the vector field exactly odd; the field computes in its output's first
column and allocates nothing. :func:`integrate_rk4` advances the state in
place: it copies the start once into a Fortran-ordered array, so each state
column ``x[..., j]`` is contiguous, and its field callback ``rhs(x, out=buf)``
writes each slope into one of two buffers allocated once per call, beside a
third for the stage state: the first slope starts a running sum, and each
later one is added to it as soon as its stage is formed. A substep
allocates no state-sized array, and every operation keeps the order of the
textbook ``x + (dt/6) (k1 + 2 k2 + 2 k3 + k4)``, so the result is bit for bit
that of an allocating loop.

EM works on a cloud's quadratic features ``[1, x, x_i x_j]``, formed once
per cloud (``M = 6`` for the Duffing state). One fit takes one ``(F, N, d)``
array of ``F`` clouds and returns one fit per cloud
(:func:`_fit_gmm_em_stack`; :func:`fit_gmm_em` is its one-cloud call), and
the clouds' features form one ``(F, M, N)`` array. Each cloud's ``R``
restarts draw their k-means++ starts first, from that cloud's generator in
restart order, and then all ``F R`` (cloud, restart) rows run in lockstep on
one ``(F, R, K, ·)`` stack that keeps its shape for the whole fit. A row that
meets ``tol``, or that its cloud's reseed failure stops, stays in the stack,
frozen: an ``(F, R)`` mask keeps each pass from changing its parameters and
score history, so no array is ever reindexed. A Gaussian's log density is
linear in the features, so each E-step folds every component's precision,
log-determinant and weight into an ``(F, R, K, M)`` coefficient stack and
gets all joint log densities from one ``(F, R, K, M) @ (F, 1, M, N)``
product; each M-step gets every component's mass, mean and second moment
from one ``(F, R, K, N) @ (F, 1, N, M)`` product over the responsibilities,
the mass from the ones feature's column, so no pass sums the
responsibilities on their own. Between the two, the E-step's log-sum-exp
clips the joint log densities against one ``(N,)`` row of
``_LOG_RESP_FLOOR`` and normalises them with one reciprocal per point and a
multiply; the elementwise chain, not the products, is most of a pass.
Each row of the E-step is shifted by its tallest component peak
``C = max_k (log w_k - log det(2 pi S_k) / 2)``, an upper bound on all its
joint log densities that goes into the coefficients before the product, so
no pass looks for each point's own peak; a row with a point far below
``C`` takes the exact per-point-peak form instead (:func:`_e_step`).
The products stay batched per row, never flattened to 2-D: every row is its
own ``(K, ·) @ (·, ·)`` product, so its bits do not depend on the other rows
and are those of a one-cloud, one-restart fit. (OpenBLAS can round the rows
of a flat ``(R K, a) @ (a, b)`` product differently in the last bits when
``K`` is not a multiple of 4.) Each M-step factors its covariance stack
with one batched ``eigh``, sent straight to LAPACK's gufunc by
``gaussian._eigh``, which keeps numpy's errors, and those eigenpairs give the
next E-step every precision and log-determinant: no other factorization.
The covariance floor, which the config requires to be positive, acts where
the covariances are read: the E-step lifts the eigenvalues below it, and the
fit's end rebuilds the matrices that had one (``gaussian._lift``), so every
covariance is positive definite and no pass rebuilds a matrix. Each
restart's returned parameters are scored once with the whitened residuals
of ``gaussian._component_logpdfs``, and only each cloud's first
highest-scoring restart becomes a ``GaussianMixture``.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np

from .errors import DivergenceError, FitError, ValidationError
from .gaussian import (_LOG_2PI, GaussianMixture, _as_float_array, _check_field_types,
                       _component_logpdfs, _eigh, _floored_eigh, _lift)

# Fraction of total responsibility mass below which a component counts as
# collapsed and gets reseeded.
_COLLAPSE_MASS = 1e-10
_MAX_RESEEDS = 3
# Log of the smallest responsibility relative to a point's largest. Lower
# joint log densities are raised to it: their weight (below 1e-152) changes
# no sum, and it keeps `exp` and the M-step's product on their fast paths.
# Results below 1e-308 underflow or are subnormal, which took `exp` 17 to 100
# times and the product about 60 times longer per element on an AVX-512 host.
# The E-step clips against an (N,) row of this value (`_EmWork.resp_floor`).
# Every operand gives the same bits; which is fastest depends on the host. In
# place on a (2, 2, 10, 1500) stack, `np.maximum` took 8.9 us with the row
# against 22.9 with a scalar on an AVX-512 AMD EPYC host, but on a 2-CPU
# Intel Xeon host the row was the slowest of the three operands: 28 us,
# against 23 with a scalar and 16 with a full-size operand.
_LOG_RESP_FLOOR = -350.0
# Largest gap, in nats, by which the E-step lets a point's largest joint log
# density lie below its row's tallest component peak before the whole row takes
# the exact per-point-peak form. Within it, an entry that the clip raises keeps
# a responsibility below exp(_LOG_RESP_FLOOR + _MAX_SHIFT_GAP), about 1e-76,
# which changes no sum of a pass. Criterion-8 fits reach gaps of 36.
_MAX_SHIFT_GAP = -0.5 * _LOG_RESP_FLOOR
# Smallest cloud size per mixture component that EM will fit.
MIN_POINTS_PER_COMPONENT = 10
# Most RK4 substeps per filter sample that a DuffingModel accepts; the default
# cadence takes 50. A run asks for this many per step for the truth and for
# every particle, so a larger ratio is rejected when the config is built.
MAX_STEPS_PER_SAMPLE = 10**6


def duffing_rhs(x, damping: float = 0.25, cubic: float = 1.0, *, out=None) -> np.ndarray:
    """Duffing oscillator vector field: ``(x2, -x1 - damping*x2 - cubic*x1^3)``.

    Works on a single state (shape ``(2,)``) or a stack of states
    (shape ``(..., 2)``). Writes into ``out``, a float array of the state's
    shape, and returns it; a new array is allocated only when ``out`` is
    ``None``. The cube is two products, not ``x1**3``: numpy's ``power`` can
    leave its SIMD path for a negative base (about 75 times slower on 20 000
    states), and its last bit can then depend on the sign, while the products
    keep the field exactly odd, ``rhs(-x) == -rhs(x)``. ``out[..., 0]`` holds
    the damping and cube terms before it takes ``x2``, so no temporary is
    allocated; an ``out`` that may share memory with ``x`` (``x`` itself or an
    overlapping view) raises :class:`ValidationError`.
    """
    x = _as_float_array(x, "x")
    if x.shape[-1:] != (2,):
        raise ValidationError(f"state must have dimension 2, got shape {x.shape}")
    if out is None:
        out = np.empty_like(x)
    elif out.shape != x.shape:
        raise ValidationError(f"out must have the state's shape {x.shape}, got {out.shape}")
    elif np.may_share_memory(x, out):
        raise ValidationError("out must not share memory with the state x")
    x1, x2 = x[..., 0], x[..., 1]
    u, v = out[..., 0], out[..., 1]
    np.negative(x1, out=v)
    v -= np.multiply(x2, damping, out=u)
    np.multiply(x1, x1, out=u)
    u *= x1
    v -= np.multiply(u, cubic, out=u)
    u[...] = x2
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
        if self.dt <= 0.0:
            raise ValidationError(f"dt must be positive, got {self.dt}")
        ratio = self.sample_time / self.dt
        if not ratio < MAX_STEPS_PER_SAMPLE + 0.5:  # an overflowed ratio is inf
            raise ValidationError(
                f"sample_time {self.sample_time} / dt {self.dt} asks for {ratio:.3g} RK4 "
                f"substeps per sample; at most {MAX_STEPS_PER_SAMPLE} are allowed")
        if abs(ratio - round(ratio)) > 1e-9 or round(ratio) < 1:
            raise ValidationError(
                f"sample_time {self.sample_time} is not an integer multiple of dt {self.dt}")

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
    column ``x[..., j]`` contiguous; the running slope sum, the current slope
    and the stage state are three buffers of that layout allocated once per
    call, and each substep updates them in place: the sum starts at ``k1``,
    and ``2 k2``, ``2 k3`` and ``k4`` join it in that order, each as soon as
    the next stage has been formed from its slope, which keeps the
    textbook's summation order. The result is a new C-ordered array,
    ``steps == 0`` included, and ``x0`` is never written. Raises :class:`DivergenceError` if
    the state leaves the finite range, naming the first non-finite row of a
    stacked state; the overflow on the way there is not also reported as a
    numpy warning.
    """
    if not 0.0 < dt < np.inf:
        raise ValidationError(f"dt must be positive and finite, got {dt}")
    if isinstance(steps, bool) or not isinstance(steps, numbers.Integral) or steps < 0:
        raise ValidationError(f"steps must be an integer >= 0, got {steps!r}")
    x = np.array(_as_float_array(x0, "x0"), order="F")
    acc, k, stage = (np.empty_like(x) for _ in range(3))
    finite = np.empty(x.shape, dtype=bool, order="F")
    half, sixth = 0.5 * dt, dt / 6.0
    # Each line is the allocating loop's operation with its operands
    # commuted, which is exact: stage = x + (dt/2) k1, ..., and
    # x = x + (dt/6) (((k1 + 2 k2) + 2 k3) + k4), summed in that order as
    # each slope's stage is formed.
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(steps):
            rhs(x, out=acc)
            np.multiply(acc, half, out=stage)
            stage += x
            for scale in (half, dt):
                rhs(stage, out=k)
                np.multiply(k, scale, out=stage)
                stage += x
                k *= 2.0
                acc += k
            rhs(stage, out=k)
            acc += k
            acc *= sixth
            x += acc
            if not np.isfinite(x, out=finite).all():
                if x.ndim == 2:
                    bad = int(np.nonzero(~finite.all(axis=1))[0][0])
                    raise DivergenceError(f"particle {bad} diverged")
                raise DivergenceError("integration produced a non-finite state")
    return np.ascontiguousarray(x)


def propagate_cloud(cloud, model: DuffingModel, duration: float) -> np.ndarray:
    """Advance every particle of an ``(N, 2)`` cloud by ``duration`` seconds.

    Deterministic; a divergent particle is reported by row index.
    ``duration`` must be an integer multiple of ``model.dt``, at most
    :data:`MAX_STEPS_PER_SAMPLE` times it, or :class:`ValidationError` is
    raised before any substep runs.
    """
    cloud = _as_float_array(cloud, "cloud")
    if cloud.ndim != 2 or cloud.shape[1] != 2:
        raise ValidationError(f"cloud must be (N, 2), got shape {cloud.shape}")
    ratio = duration / model.dt
    if not np.isfinite(ratio) or abs(ratio - round(ratio)) > 1e-9:
        raise ValidationError(f"duration {duration} is not a finite multiple of dt {model.dt}")
    if round(ratio) > MAX_STEPS_PER_SAMPLE:
        raise ValidationError(
            f"duration {duration} / dt {model.dt} asks for {ratio:.3g} RK4 substeps; "
            f"at most {MAX_STEPS_PER_SAMPLE} are allowed")
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
    """What a stacked EM fit over the ``(F, N, d)`` stack ``points`` of ``F``
    clouds reuses on every pass: the stack itself, its ``(F, M, N)`` quadratic
    features ``[1, x, x_i x_j (i <= j)]`` with each cloud's ``x`` centered at
    its own mean (``M = 1 + d + d(d+1)/2``), the one ``(F, restarts, K, N)``
    buffer that holds every row's joint log densities and then its transposed
    responsibilities, frozen rows included, for the fit's whole life, the
    ``(N,)`` row of ``_LOG_RESP_FLOOR`` that the E-step clips against, the
    covariance ``floor`` that it reads every covariance through, and each
    cloud's floored overall covariance with its eigenpairs, which seed empty
    and reseeded components. Centering keeps the cancellation in the
    feature form small; reusing the buffer keeps each pass from allocating
    and page-faulting it. Each cloud's numbers are formed from that cloud
    alone, as a fit of its own would form them, and its features are written
    in place, so no temporary is the size of the stack."""

    def __init__(self, points: np.ndarray, k: int, floor: float, restarts: int):
        n_clouds, n, dim = points.shape
        self.points = points
        # Each sum of a cloud's centered squares, over its points and up to
        # (2 x)^2 per axis in the k-means++ distances, must stay finite.
        bound = np.sqrt(np.finfo(float).max / (4 * dim * n))
        with np.errstate(over="ignore", invalid="ignore"):
            centers = np.stack([cloud.mean(axis=0) for cloud in points])
            centered = points - centers[:, None]
        reach = np.maximum(centered.max(), -centered.min())
        if not reach < bound:
            raise ValidationError(f"cloud reaches {reach:.3g} from its mean on an axis, beyond "
                                  f"the {bound:.3g} within which EM's sums of squares stay finite")
        # (F, 1, 1, d), so that it broadcasts over each cloud's restarts and components.
        self.center = centers[:, None, None]
        self.rows, self.cols = np.triu_indices(dim)
        # Off-diagonal features x_i x_j stand for both (i, j) and (j, i).
        self.pair_scale = np.where(self.rows == self.cols, -0.5, -1.0)
        # The feature that holds x_i x_j, for every (i, j).
        self.pair_feature = np.empty((dim, dim), dtype=np.intp)
        self.pair_feature[self.rows, self.cols] = 1 + dim + np.arange(self.rows.size)
        self.pair_feature[self.cols, self.rows] = self.pair_feature[self.rows, self.cols]
        self.feats = np.empty((n_clouds, 1 + dim + self.rows.size, n))
        for feats, x in zip(self.feats, np.swapaxes(centered, 1, 2)):
            feats[0] = 1.0
            feats[1:1 + dim] = x
            np.multiply(x[self.rows], x[self.cols], out=feats[1 + dim:])
        self.feats_t = np.swapaxes(self.feats, 1, 2)
        self.resp_t = np.empty((n_clouds, restarts, k, n))
        self.resp_floor = np.full(n, _LOG_RESP_FLOOR)
        self.floor = floor
        covs = np.stack([np.cov(cloud, rowvar=False).reshape(dim, dim) for cloud in points])
        self.overall = _floored_eigh(covs, floor)


def _coefficients(work: _EmWork, weights: np.ndarray, means: np.ndarray,
                  evals: np.ndarray, evecs: np.ndarray):
    """The ``(F, R, K, M)`` coefficients whose product with the features
    gives the joint log densities ``log w_k + log N(x_n; mu_k, S_k)``, and
    each component's peak ``(F, R, K)``, ``c_k = log w_k - (d log 2 pi +
    log det S_k) / 2``, the largest value its joint log density takes.

    ``S_k = V_k diag(lambda_k) V_k^T`` is given by its eigenpairs ``evals``
    ``(F, R, K, d)`` and ``evecs`` ``(F, R, K, d, d)``, each eigenvalue below
    ``work.floor`` read as the floor, so the precision is
    ``V_k diag(1 / lambda_k) V_k^T`` and the log-determinant
    ``sum(log lambda_k)``, with every ``lambda_k`` positive. Each
    component's log density is linear in the features: its precision ``P``,
    ``P mu``, ``mu^T P mu``, log-determinant and log-weight fold into one
    row of coefficients, ``c_k`` left out of column 0. The quadratic form is
    then a sum of terms of size ``|P| |x|^2`` rather than the square of a
    whitened residual. Next to a component at the 1e-6 covariance floor, a
    log density is about 1e-8 absolute from the whitened form of
    ``gaussian._component_logpdfs``, and the gap grows with the squared
    distance from the cloud's mean. The weights must be positive.
    """
    dim = means.shape[-1]
    evals = np.maximum(evals, work.floor)
    prec = (evecs / evals[..., None, :]) @ np.swapaxes(evecs, -1, -2)
    mu = means - work.center
    prec_mu = (prec @ mu[..., None])[..., 0]
    coef = np.empty(weights.shape + (work.feats.shape[1],))
    np.multiply((prec_mu * mu).sum(axis=-1), -0.5, out=coef[..., 0])
    coef[..., 1:1 + dim] = prec_mu
    coef[..., 1 + dim:] = prec[..., work.rows, work.cols] * work.pair_scale
    peaks = np.log(weights) - 0.5 * (dim * _LOG_2PI + np.log(evals).sum(axis=-1))
    return coef, peaks


def _log_sum_exp(joint: np.ndarray, floor_row: np.ndarray):
    """Per-point log mixture density ``(..., N)`` of ``(..., K, N)`` joint log
    densities, reducing over the component axis, each point shifted by its
    own peak: the exact form, for any joint log densities. Leaves
    ``exp(joint - peak)``, clipped below against ``floor_row`` ``(N,)``, in
    ``joint`` and returns with the density their per-point sums
    ``(..., 1, N)``, which turn them into responsibilities."""
    peak = joint.max(axis=-2, keepdims=True)
    joint -= peak
    np.maximum(joint, floor_row, out=joint)
    np.exp(joint, out=joint)
    total = joint.sum(axis=-2, keepdims=True)
    log_norm = np.log(total)
    log_norm += peak
    return log_norm[..., 0, :], total


def _e_step(work: _EmWork, weights: np.ndarray, means: np.ndarray, cov: tuple):
    """Transposed responsibilities ``(F, R, K, N)`` in ``work.resp_t``, which
    the next E-step overwrites, and the per-point log mixture density
    ``(F, R, N)``, for the ``(covs, evals, evecs)`` stack of :func:`_m_step`.

    Each row is shifted by its tallest component peak ``C``, the largest
    ``c_k`` of :func:`_coefficients`, which bounds every joint log density
    in the row from above: ``C`` goes into the coefficients' column 0
    before the product, so the product gives ``joint - C`` and no pass
    looks for each point's own peak. The clip against ``work.resp_floor``,
    ``exp`` and the per-point sum ``total`` follow, the sum as one
    ``(1, K) @ (K, N)`` product per row, and the log density is
    ``log(total) + C``. A row with a point whose largest joint log density
    lies more than about ``_MAX_SHIFT_GAP`` below ``C`` (``total`` below
    ``exp(-_MAX_SHIFT_GAP)``), or whose shifted values overflow ``exp``,
    takes the exact per-point-peak form of :func:`_log_sum_exp` instead:
    far below ``C``, the clipped entries could reach responsibilities far
    above ``exp(_LOG_RESP_FLOOR)``. Each row's choice and numbers depend on
    that row alone; the overflow warning of such a row's ``exp`` is
    silenced, since the exact form replaces its values. Each point's column
    is scaled by the reciprocal of its sum, one division per point rather
    than per component."""
    coef, peaks = _coefficients(work, weights, means, *cov[1:])
    top = peaks.max(axis=-1)
    coef[..., 0] += peaks - top[..., None]
    joint = np.matmul(coef, work.feats[:, None], out=work.resp_t)
    np.maximum(joint, work.resp_floor, out=joint)
    # A row whose `exp` overflows takes the exact form below.
    with np.errstate(over="ignore"):
        np.exp(joint, out=joint)
    total = np.matmul(np.ones((1, joint.shape[-2])), joint)
    log_norm = np.log(total[..., 0, :])
    gap = np.abs(log_norm)
    log_norm += top[..., None]
    # NaN, from an overflowed row, fails the tests too.
    if not gap.max() <= _MAX_SHIFT_GAP:
        coef, peaks = _coefficients(work, weights, means, *cov[1:])
        coef[..., 0] += peaks
        for f, restart in zip(*np.nonzero(~(gap.max(axis=-1) <= _MAX_SHIFT_GAP))):
            row = np.matmul(coef[f, restart], work.feats[f], out=joint[f, restart])
            log_norm[f, restart], total[f, restart] = _log_sum_exp(row, work.resp_floor)
    joint *= np.reciprocal(total, out=total)
    return joint, log_norm


def _m_step(work: _EmWork, resp_t: np.ndarray, mass=None):
    """Component masses ``(F, R, K)``, weighted means ``(F, R, K, d)`` and
    the covariance stack as ``(covs, evals, evecs)``: the ``(F, R, K, d, d)``
    covariances and their eigenpairs ``(F, R, K, d)`` and
    ``(F, R, K, d, d)``, not yet floored.

    ``resp_t`` is the ``(F, R, K, N)`` transposed responsibilities. One
    ``(F, R, K, N) @ (F, 1, N, M)`` product, batched per row, gives every
    component's expected features: feature 0 is 1, so column 0 holds its
    mass, the row sum of ``resp_t``, which is returned unless ``mass`` is
    given, and the rest its mean and its second moment ``E[x x^T]`` times
    that mass. The covariance is ``E[x x^T] - mu mu^T`` in the cloud's
    centered coordinates, symmetric as it is built, and one ``eigh``
    factors the whole stack. The floor acts where the covariances are read:
    the E-step lifts the eigenvalues, and the fit's end (``gaussian._lift``)
    the matrices it returns.
    """
    dim = work.center.shape[-1]
    moments = np.matmul(resp_t, work.feats_t[:, None])
    if mass is None:
        mass = moments[..., 0].copy()
    moments /= mass[..., None]
    mu = moments[..., 1:1 + dim]
    covs = moments[..., work.pair_feature]
    covs -= mu[..., :, None] * mu[..., None, :]
    evals, evecs = _eigh(covs)
    return mass, work.center + mu, (covs, evals, evecs)


def _em_run(work: _EmWork, config: EmFitConfig, rngs) -> list:
    """Each cloud's ``(mixture, EmDiagnostics)`` from ``config.restarts`` EM
    runs per cloud in lockstep on one ``(F, R, K, ·)`` stack that keeps its
    shape for the fit: of a cloud's restarts, the first whose returned
    mixture scores highest.

    Each cloud draws all its k-means++ starts from its own generator in
    ``rngs`` first, in restart order, and a pass draws nothing, so a cloud
    whose fit succeeds leaves its generator where restarts run one after
    another would leave it. Every pass then makes one E-step product, one
    M-step product and one covariance ``eigh`` for all rows, each batched per
    row, so a row's numbers are bit for bit those of its own run. An
    ``active`` mask ``(F, R)`` picks the rows whose parameters and score
    history a pass may change: a row that reseeds a collapsed component
    skips its M-step that pass, and a row that meets ``tol`` freezes in
    place, still computed but no longer changed. A restart past the reseed limit fails its cloud
    once that cloud's restarts before it have finished, as a sequential run
    would; it and the cloud's later restarts freeze at once. When every row
    has frozen, or after ``max_iters`` passes, the first failing cloud raises
    its :class:`FitError`, the error a fit of each cloud in turn meets first.
    Otherwise each loop score belongs to the parameters before a pass's
    M-step, so every restart's returned parameters are scored once more on
    their cloud with the whitened residuals of ``_component_logpdfs``, and
    only each cloud's winner becomes a mixture, once ``gaussian._lift`` has
    lifted its covariances to the floor.
    """
    points = work.points
    n_clouds, n, dim = points.shape
    k, r = config.n_components, config.restarts
    floor = config.covariance_floor
    rows = (n_clouds, r)

    # Start from each point's nearest k-means++ center; a center that wins no
    # point keeps its own location, its cloud's overall covariance and weight
    # 1/n. Every start reads one copy of its cloud's columns, and the hard
    # assignments go through the responsibility buffer.
    centers = np.empty(rows + (k, dim))
    counts = np.empty(rows + (k,))
    for f, (cloud, rng) in enumerate(zip(points, rngs, strict=True)):
        cols_t = np.ascontiguousarray(cloud.T).T
        for restart in range(r):
            centers[f, restart], assign = _kmeanspp_centers(cols_t, k, rng)
            counts[f, restart] = np.bincount(assign, minlength=k)
            work.resp_t[f, restart] = np.arange(k)[:, None] == assign
    empty = counts == 0
    counts[empty] = 1.0
    _, means, cov = _m_step(work, work.resp_t, counts)
    means[empty] = centers[empty]
    for part, overall in zip(cov, work.overall):
        part[empty] = overall[np.nonzero(empty)[0]]
    weights = counts / counts.sum(axis=-1, keepdims=True)

    # Per row: whether it still runs, its last kept score (NaN, which meets
    # no `tol` test, until it keeps one), its reseeds and whether it met
    # `tol`. Per pass: every row's score and the rows that kept theirs
    # (reseeding and frozen ones do not).
    active = np.ones(rows, dtype=bool)
    last = np.full(rows, np.nan)
    reseeds = np.zeros(rows, dtype=int)
    converged = np.zeros(rows, dtype=bool)
    scores, kept = [], []

    for _ in range(config.max_iters):
        resp_t, log_norm = _e_step(work, weights, means, cov)
        ll = log_norm.sum(axis=-1)
        # Reseeding edits only rows that skip this M-step, so it can run first.
        mass, new_means, new_cov = _m_step(work, resp_t)
        keep = mass.min(axis=-1) >= _COLLAPSE_MASS * n

        for f, restart in zip(*np.nonzero(active & ~keep)):
            dead = np.nonzero(mass[f, restart] < _COLLAPSE_MASS * n)[0]
            reseeds[f, restart] += dead.size
            if reseeds[f, restart] > _MAX_RESEEDS:
                # It fails its cloud, and the cloud's later restarts stop with it.
                active[f, restart:] = False
                continue
            # Reseed each dead component at the point the mixture explains worst.
            means[f, restart, dead] = points[f, np.argsort(log_norm[f, restart])[:dead.size]]
            for part, overall in zip(cov, work.overall):
                part[f, restart, dead] = overall[f]
            weights[f, restart, dead] = 1.0 / n
            weights[f, restart] /= weights[f, restart].sum()

        # The active rows that reseeded nothing take this pass's M-step.
        update = active & keep
        np.copyto(weights, mass / n, where=update[..., None])
        np.copyto(means, new_means, where=update[..., None, None])
        for part, new in zip(cov, new_cov):
            np.copyto(part, new, where=update.reshape(rows + (1,) * (part.ndim - 2)))

        # A huge `tol` can overflow the bound to inf, which the test meets.
        with np.errstate(over="ignore"):
            converged |= update & (ll - last <= config.tol * (1.0 + np.abs(last)))
        scores.append(ll)
        kept.append(update)
        last = np.where(update, ll, last)
        active &= ~converged
        if not active.any():
            break

    failing = np.argwhere(reseeds > _MAX_RESEEDS)
    if failing.size:
        # The first failing cloud's first restart past the reseed limit.
        raise FitError(f"EM failed after {reseeds[tuple(failing[0])]} component reseeds")
    scores, kept = np.array(scores), np.array(kept)
    weights /= weights.sum(axis=-1, keepdims=True)
    covs = _lift(*cov, floor)[0]
    fits = []
    for f, cloud in enumerate(points):
        final = [float(_log_sum_exp(_component_logpdfs(cloud, means[f, i], covs[f, i]).T
                                    + np.log(weights[f, i])[:, None], work.resp_floor)[0].sum())
                 for i in range(r)]
        best = int(np.argmax(final))
        history = scores[kept[:, f, best], f, best]
        mixture = GaussianMixture._trusted(weights[f, best].copy(), means[f, best].copy(),
                                           covs[f, best].copy(), eig_floor=0.0)
        fits.append((mixture, EmDiagnostics(
            log_likelihoods=history, reseeds=int(reseeds[f, best]), restart_index=best,
            final_log_likelihood=final[best], iterations=len(history),
            converged=bool(converged[f, best]))))
    return fits


def _fit_gmm_em_stack(points, config: EmFitConfig, rngs) -> list:
    """:func:`fit_gmm_em` with ``details=True`` for each cloud of the
    ``(F, N, d)`` stack ``points``, cloud ``f`` drawing its starts from
    ``rngs[f]``, as one fit.

    Returns one ``(mixture, EmDiagnostics)`` per cloud, each bit for bit what
    the cloud's own :func:`fit_gmm_em` call gives: of its restarts, the first
    whose returned mixture scores highest. The ``F R`` rows of
    ``(cloud, restart)`` run in lockstep (:func:`_em_run`) over the clouds'
    ``(F, M, N)`` features on one fixed ``(F, R, K, ·)`` stack: each E-step
    is one ``(F, R, K, M) @ (F, 1, M, N)`` product and each M-step one
    ``(F, R, K, N) @ (F, 1, N, M)``, both batched per row, so a pass's fixed
    cost is paid once for all the clouds. A row that finishes early stays in
    the stack, frozen, until the last one finishes, so the fit's working
    memory is ``F * restarts * n_components * N`` doubles for its whole life.
    The stack is checked once, before any draw: it must be one float array
    of three axes (a ragged list of clouds is not), finite, with enough
    points per cloud for ``config.n_components``. A fit that fails raises the
    :class:`FitError` of the first failing cloud.
    """
    points = _as_float_array(points, "clouds")
    if points.ndim != 3:
        # Names the shape of one cloud, which is what fit_gmm_em was given.
        raise ValidationError(f"cloud must be (N, n), got shape {points.shape[1:]}")
    if not np.all(np.isfinite(points)):
        raise ValidationError("cloud contains non-finite entries")
    if points.shape[1] < MIN_POINTS_PER_COMPONENT * config.n_components:
        raise ValidationError(
            f"{points.shape[1]} points cannot support {config.n_components} components "
            f"(need at least {MIN_POINTS_PER_COMPONENT} per component)")
    work = _EmWork(points, config.n_components, config.covariance_floor, config.restarts)
    return _em_run(work, config, rngs)


def fit_gmm_em(cloud, config: EmFitConfig, rng: np.random.Generator, details: bool = False):
    """Fit a Gaussian mixture to a point cloud by EM with k-means++ starts.

    Runs ``config.restarts`` initializations, all drawn before the first
    pass in restart order, and keeps the first run whose returned mixture
    has the highest log-likelihood on the cloud. The restarts run in
    lockstep on one fixed ``(1, R, K, ·)`` stack over the cloud's quadratic
    features: one ``(1, R, K, M) @ (1, 1, M, N)`` product, batched per
    restart, gives every component's log density (E-step) and one
    ``(1, R, K, N) @ (1, 1, N, M)`` product its expected features, so its
    mass, mean and covariance (M-step). A restart that meets ``tol`` stays
    in the stack, frozen, until the last one stops. Each restart's numbers
    are bit for bit those of a fit with ``restarts=1`` drawing from the same
    generator state. Each M-step's covariance eigenpairs, eigenvalues below
    ``config.covariance_floor`` read as the floor, give the next E-step the
    precisions and log-determinants, and the returned covariances are lifted
    to the floor.
    Each restart's returned parameters are scored with whitened residuals
    (``EmDiagnostics.final_log_likelihood``), and only the winner becomes a
    mixture. The cloud may have any dimension. The working memory is
    ``restarts * n_components * N`` doubles for the whole fit. This is the
    one-cloud call of the stacked fit that the harness runs on a step's
    clouds: an ``(N, n)`` cloud goes in as the stack of one ``cloud[None]``,
    and its one fit comes out. With ``details=True`` returns
    ``(mixture, EmDiagnostics)``.
    """
    fit, = _fit_gmm_em_stack(_as_float_array(cloud, "cloud")[None], config, [rng])
    return fit if details else fit[0]
