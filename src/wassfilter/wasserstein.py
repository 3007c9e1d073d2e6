"""Squared 2-Wasserstein distances used as filtering objectives.

Closed forms:

* Gaussian vs Gaussian:
  ``W2^2 = |mu1 - mu2|^2 + tr(S1 + S2 - 2 (sqrt(S1) S2 sqrt(S1))^(1/2))``
* Gaussian vs point mass:
  ``W2^2 = |mu - c|^2 + tr(S) = tr((mu - c)(mu - c)^T + S)``
* Mixture vs point mass: weight-weighted sum of the per-node values.

Every public function returns the *square* of the distance (the objectives
downstream are all quadratic); :func:`w2_distance` is the square-root
convenience accessor. :func:`w2_empirical` solves the exact uniform-to-uniform
optimal assignment on small clouds and exists as an independent test oracle.
"""

from __future__ import annotations

import numpy as np

from .errors import ValidationError
from .gaussian import DiracPoint, Gaussian, GaussianMixture, _as_float_array, _as_mixture, psd_sqrt

# Largest cloud the exact assignment oracle accepts (O(N^3) solve).
EMPIRICAL_MAX_POINTS = 256


def w2_gaussian_gaussian(a: Gaussian, b: Gaussian) -> float:
    """Squared 2-Wasserstein distance between two Gaussians."""
    if a.dim != b.dim:
        raise ValidationError(f"dimension mismatch: {a.dim} vs {b.dim}")
    # psd_sqrt, not spd_sqrt: a singular a.cov (an exact-measurement posterior)
    # is as valid a first argument as a second one.
    root_a = psd_sqrt(a.cov)
    # psd_sqrt takes the symmetric part of the product, whose roundoff
    # leaves it a hair asymmetric.
    cross = psd_sqrt(root_a @ b.cov @ root_a)
    gap = a.mean - b.mean
    value = float(gap @ gap + np.trace(a.cov) + np.trace(b.cov) - 2.0 * np.trace(cross))
    return max(value, 0.0)


def w2_distance(a: Gaussian, b: Gaussian) -> float:
    """Convenience square root of :func:`w2_gaussian_gaussian`."""
    return float(np.sqrt(w2_gaussian_gaussian(a, b)))


def w2_gaussian_dirac(g: Gaussian, d: DiracPoint) -> float:
    """Squared 2-Wasserstein distance between a Gaussian and a point mass."""
    return w2_mixture_dirac(_as_mixture(g), d)


def w2_mixture_dirac(mix: GaussianMixture, d: DiracPoint) -> float:
    """Squared 2-Wasserstein distance between a Gaussian mixture and a point mass.

    Equals ``sum_i w_i * w2_gaussian_dirac(node_i, d)``.
    """
    if mix.dim != d.dim:
        raise ValidationError(f"dimension mismatch: {mix.dim} vs {d.dim}")
    gap = mix.means - d.location
    return float(mix.weights @ (np.einsum("ki,ki->k", gap, gap) + np.trace(mix.covs, axis1=1, axis2=2)))


def w2_empirical(a, b) -> float:
    """Exact squared 2-Wasserstein distance between two equal-size uniform clouds.

    Solves the minimum-cost perfect matching under squared Euclidean cost and
    divides by the point count. Limited to ``EMPIRICAL_MAX_POINTS`` points;
    this is a reference oracle, not a production path.
    """
    from scipy.optimize import linear_sum_assignment

    a = _as_float_array(a, "a")
    b = _as_float_array(b, "b")
    if a.ndim != 2 or b.ndim != 2:
        raise ValidationError("clouds must be (N, n) arrays")
    if not (np.all(np.isfinite(a)) and np.all(np.isfinite(b))):
        raise ValidationError("clouds contain non-finite entries")
    if a.shape != b.shape:
        raise ValidationError(f"clouds must match in shape: {a.shape} vs {b.shape}")
    n_points = a.shape[0]
    if n_points < 1:
        raise ValidationError("clouds need at least one point")
    if n_points > EMPIRICAL_MAX_POINTS:
        raise ValidationError(
            f"{n_points} points exceeds the assignment-oracle limit {EMPIRICAL_MAX_POINTS}"
        )
    diff = a[:, None, :] - b[None, :, :]
    cost = np.einsum("ijk,ijk->ij", diff, diff)
    rows, cols = linear_sum_assignment(cost)
    return float(cost[rows, cols].sum() / n_points)
