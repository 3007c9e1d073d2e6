"""Host speed reference for the benchmark's timings.

The benchmark host is shared: on the 2-CPU machine it was written on, the
same work ran up to 1.5 times slower for minutes at a time, and its speed
also changes every few seconds, so no amount of averaging inside one run
removes it. Every untraced run therefore reads a fixed kernel at a fixed
interval while the workload runs (``Sampler``) and scales each stretch of
measured time by the host's mean speed over it, the kernel's reference time
over its measured time. The raw times are reported beside the scaled ones.

The kernels use no package code, so a change to the package cannot move
them. The slow phases hit interpreter-bound code (many small numpy and
scipy calls) harder than vectorised arithmetic on large arrays, so each
workload is read with the kernel whose speed tracked its own best on this
host: ``em``, one EM iteration on 1500 points and 10 components written with
the same numpy and scipy calls as an EM fit, for the EM fit and the update
sweep; ``mixed``, a Python loop over 2x2 linear algebra, elementwise
arithmetic on a 20 000 x 2 array and a density pass over 1500 points, for
the large-ensemble pipeline. The measurements behind that choice are in
README.md.

A reading is the kernel's CPU time, not its wall time, so that processes of
the program competing for the CPUs (a run-level process pool) do not read
as a slower host. On this host the two agree: the slow phases come from the
hardware being shared, not from time off the CPU.
"""

from __future__ import annotations

import signal
import statistics
from time import perf_counter, thread_time

import numpy as np
from scipy.linalg import solve_triangular

_A = np.array([[2.0, 0.3], [0.3, 1.0]])
_V = np.array([1.0, -1.0])
_CLOUD = np.linspace(-1.0, 1.0, 40000).reshape(20000, 2)
_POINTS = np.linspace(0.0, 1.0, 3000).reshape(1500, 2)
_rng = np.random.default_rng(12345)
_EM_POINTS = _rng.standard_normal((1500, 2)) * [1.5, 0.7]
_EM_MEANS = _rng.standard_normal((10, 2))
_EM_COVS = np.array([np.eye(2) * (0.5 + 0.1 * j) + 0.1 for j in range(10)])


def mixed_kernel() -> float:
    """2x2 solves in a Python loop, Duffing-like steps on 20 000 x 2, a
    density pass over 1500 points and 10 centres."""
    acc = 0.0
    for _ in range(150):
        chol = np.linalg.cholesky(_A)
        x = np.linalg.solve(chol, _V)
        acc += float(x @ x)
    x = _CLOUD
    for _ in range(6):
        x = x + 0.001 * np.stack([x[:, 1], -x[:, 0] - 0.25 * x[:, 1] - x[:, 0] ** 3], axis=1)
    acc += float(x.sum())
    logp = np.empty((_POINTS.shape[0], 10))
    for k in range(10):
        d = _POINTS - 0.1 * k
        logp[:, k] = -0.5 * (d * d).sum(axis=1)
    resp = np.exp(logp - logp.max(axis=1, keepdims=True))
    return acc + float((resp.T @ _POINTS).sum())


def em_kernel() -> float:
    """One E-step and M-step, with the covariance eigenvalue floor."""
    points, covs = _EM_POINTS, _EM_COVS.copy()
    n, k = points.shape[0], _EM_MEANS.shape[0]
    joint = np.empty((n, k))
    for j in range(k):
        chol = np.linalg.cholesky(covs[j])
        z = solve_triangular(chol, (points - _EM_MEANS[j]).T, lower=True)
        logdet = 2.0 * float(np.sum(np.log(np.diag(chol))))
        joint[:, j] = -0.5 * (2.0 * np.log(2.0 * np.pi) + logdet + np.sum(z * z, axis=0))
    joint += np.log(1.0 / k)
    m = joint.max(axis=1, keepdims=True)
    log_norm = m[:, 0] + np.log(np.exp(joint - m).sum(axis=1))
    resp = np.exp(joint - log_norm[:, None])
    mass = resp.sum(axis=0)
    means = (resp.T @ points) / mass[:, None]
    for j in range(k):
        diff = points - means[j]
        cov = (diff * resp[:, j:j + 1]).T @ diff / mass[j]
        w, v = np.linalg.eigh(0.5 * (cov + cov.T))
        covs[j] = (v * np.clip(w, 1e-6, None)) @ v.T
    return float(covs.sum())


# Kernel name -> (kernel, about its median time on the machine the
# benchmark was written on: 2-CPU Intel Xeon, Python 3.11, numpy 2.4, one
# BLAS thread; seconds between readings, for about 2.5% of the run).
# Scaled timings read as if all the work had run at that speed.
KERNELS = {"mixed": (mixed_kernel, 0.015, 0.5), "em": (em_kernel, 0.0025, 0.1)}


class Sampler:
    """Reads a kernel at a fixed interval of wall time while a long call
    runs, from a SIGALRM handler in this process (no second thread or
    process competes with the call).

    A pipeline pass is one call of 10-20 s, and the host's speed changes
    within it, so readings taken only before and after a pass miss most of
    what it ran at. Sampled at a fixed wall-clock rate, the mean of
    reference time over kernel time is the host's mean speed over the call.
    The handler's own wall time is left out of ``clock``.
    """

    def __init__(self, kernel: str):
        self.kernel, self.reference, self.interval = KERNELS[kernel]
        self.times: list[float] = []
        self.spent = 0.0
        self._previous = None

    def _handler(self, signum, frame):
        tic, cpu = perf_counter(), thread_time()
        self.kernel()
        self.times.append(thread_time() - cpu)
        self.spent += perf_counter() - tic

    def clock(self) -> float:
        """Wall clock that stops while the handler runs."""
        return perf_counter() - self.spent

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def speed(self, start: int = 0) -> float:
        """Mean host speed (1 = reference) over the readings from ``start``,
        or over the last few readings when none has been taken since."""
        if not self.times:
            self._handler(signal.SIGALRM, None)
        times = self.times[start:] or self.times[-8:]
        return statistics.fmean(self.reference / t for t in times)
