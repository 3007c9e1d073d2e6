"""Gaussian and Gaussian-mixture primitives.

Types
-----
``Gaussian``
    Mean vector plus symmetric positive-definite covariance. Immutable.
``GaussianMixture``
    K components held as three stacked arrays: weights ``(K,)`` on the
    probability simplex, means ``(K, n)`` and covariances ``(K, n, n)``, all
    checked in one batched pass at construction. ``nodes`` and ``components``
    are views that build ``Gaussian`` values from the rows on demand; the
    filter pipeline (EM fit, updates, resampling, output) works on the stacks
    and builds none. Component order is significant and preserved by every
    operation.
``DiracPoint``
    A point mass; the degenerate reference distribution.

Point clouds ("ensembles") are plain ``(N, n)`` float arrays throughout the
library; there is no wrapper class for them.

Numerical policy: this module alone decides three things about symmetric
matrices, and the other modules call it. ``_symmetric_part`` is the one
symmetrizer, halving before it sums so that finite entries up to the largest
double stay finite. ``_from_eigh`` is the one rebuild of ``V diag(w) V^T``
from eigenpairs, symmetrized. ``_negative_beyond_roundoff`` is the one rule
for a matrix that is PSD only up to roundoff: its smallest eigenvalue may be
negative, but not below ``-1e-12 * max(1, lambda_max)``.

All types are immutable values after construction, so instances are safe to
share across threads. Input arrays are copied and marked read-only; an input
that is already a read-only float array owning its data is shared, not
copied. Random number generators are the only mutable state and belong to
the caller.
"""

from __future__ import annotations

import json
import numbers
import reprlib
import types
from dataclasses import dataclass, field
from typing import Sequence, get_type_hints

import numpy as np

from .errors import DegeneracyError, ValidationError

# Default eigenvalue floor for covariance matrices. Anything below this is
# treated as degenerate and rejected rather than silently clamped.
DEFAULT_EIG_FLOOR = 1e-12

# Relative symmetry tolerance for covariance inputs.
_SYM_RTOL = 1e-12

# Tolerance for weight vectors: sums must match 1 this closely.
_SIMPLEX_ATOL = 1e-12


# Values accepted per scalar field annotation; numbers never accept a bool.
_FIELD_TYPES = {int: numbers.Integral, float: numbers.Real, bool: bool, tuple: (tuple, list)}


def _check_field_types(obj) -> None:
    """Reject dataclass field values that do not match a scalar or union
    annotation such as ``int`` or ``str | None``; other fields are left to the class."""
    for name, hint in get_type_hints(type(obj)).items():
        expected = _FIELD_TYPES.get(hint, hint if isinstance(hint, types.UnionType) else None)
        value = getattr(obj, name)
        if expected is not None and (not isinstance(value, expected)
                                     or (isinstance(value, bool) and hint is not bool)):
            raise ValidationError(
                f"{name} must be of type {getattr(hint, '__name__', hint)}, got {value!r}")


def _as_float_array(x, name: str) -> np.ndarray:
    try:
        a = np.asarray(x)
        if a.dtype.kind in "iuf":
            return a.astype(float, copy=False)
    except ValueError:  # ragged nesting
        pass
    raise ValidationError(f"{name} must be a numeric array, got {reprlib.repr(x)}")


def _as_vector(x, name: str) -> np.ndarray:
    v = _as_float_array(x, name)
    if v.ndim != 1:
        raise ValidationError(f"{name} must be a 1-D vector, got shape {v.shape}")
    if not np.isfinite(v).all():
        raise ValidationError(f"{name} contains non-finite entries")
    return v


def _as_matrix(x, name: str) -> np.ndarray:
    m = _as_float_array(x, name)
    if m.ndim != 2:
        raise ValidationError(f"{name} must be a 2-D matrix, got shape {m.shape}")
    if not np.isfinite(m).all():
        raise ValidationError(f"{name} contains non-finite entries")
    return m


def _where(bad: np.ndarray) -> str:
    """Error prefix naming the first flagged matrix of a stack; empty for one matrix."""
    return f"component {int(np.argmax(bad))}: " if bad.ndim else ""


def _check_symmetric(m: np.ndarray, name: str) -> np.ndarray:
    """Reject a matrix, or any matrix of a ``(K, n, n)`` stack, that is not square or
    not symmetric to ``_SYM_RTOL`` relative to its own largest entry. Returns the
    symmetric part, which is ``m`` itself when ``m`` is exactly symmetric."""
    if m.shape[-1] != m.shape[-2]:
        raise ValidationError(f"{name} must be square, got shape {m.shape}")
    mt = np.swapaxes(m, -1, -2)
    if (m == mt).all():
        return m
    scale = np.maximum(1.0, np.abs(m).max(axis=(-2, -1)))
    bad = np.abs(m - mt).max(axis=(-2, -1)) > _SYM_RTOL * scale
    if bad.any():
        raise ValidationError(
            f"{_where(bad)}{name} is not symmetric to within {_SYM_RTOL} relative tolerance")
    return _symmetric_part(m)


def _check_eig_floor(sym: np.ndarray, eig_floor: float) -> None:
    """Reject a symmetric matrix, or a stack, with an eigenvalue below ``eig_floor``."""
    low = np.linalg.eigvalsh(sym)[..., 0]
    bad = low < eig_floor
    if bad.any():
        raise DegeneracyError(f"{_where(bad)}covariance eigenvalue {low.flat[np.argmax(bad)]:.6e} "
                              f"is below the floor {eig_floor:.1e}")


def _readonly(a) -> np.ndarray:
    """``a`` as a read-only float array that no other handle can write: ``a``
    itself when it already is one that owns its data, else a copy."""
    if (isinstance(a, np.ndarray) and a.dtype == float and a.flags.owndata
            and not a.flags.writeable):
        return a
    a = np.array(a, dtype=float, copy=True)
    a.setflags(write=False)
    return a


def _trusted_new(cls, **values):
    """Frozen dataclass ``cls`` with fields ``values``, skipping ``__post_init__``: arrays
    are made read-only in place, so pass only arrays no one else holds or writes."""
    obj = object.__new__(cls)
    for name, value in values.items():
        if isinstance(value, np.ndarray):
            value.setflags(write=False)
        object.__setattr__(obj, name, value)
    return obj


def _checked_stacks(weights, means, covs) -> tuple:
    """The mixture checks that cost O(K): shapes, finite entries and weights on
    the simplex. Returns the three stacks as float arrays, uncopied where possible."""
    weights = _as_vector(weights, "weights")
    means = _as_matrix(means, "means")
    covs = _as_float_array(covs, "covs")
    k = weights.shape[0]
    if k < 1 or means.shape[0] != k or covs.shape != (k,) + means.shape[1:] * 2:
        raise ValidationError(f"{k} weights need means of shape ({k}, n) and covs of shape "
                              f"({k}, n, n), got {means.shape} and {covs.shape}")
    if not np.isfinite(covs).all():
        raise ValidationError("covs contains non-finite entries")
    if (weights < 0.0).any():
        raise ValidationError(f"negative mixture weight {weights.min()}")
    if abs(float(weights.sum()) - 1.0) > _SIMPLEX_ATOL:
        raise ValidationError(f"mixture weights sum to {weights.sum()!r}, not 1")
    return weights, means, covs


@dataclass(frozen=True, eq=False)
class Gaussian:
    """Multivariate normal with mean ``mean`` and SPD covariance ``cov``.

    ``eig_floor`` is the smallest covariance eigenvalue accepted at
    construction; smaller values raise :class:`DegeneracyError`. Filter
    internals pass ``eig_floor=0.0`` for posteriors whose positive
    semi-definiteness is already guaranteed structurally.
    """

    mean: np.ndarray
    cov: np.ndarray
    eig_floor: float = field(default=DEFAULT_EIG_FLOOR, repr=False, compare=False)

    def __post_init__(self):
        mean = _as_vector(self.mean, "mean")
        cov = _as_matrix(self.cov, "cov")
        sym = _check_symmetric(cov, "cov")
        if cov.shape[0] != mean.shape[0]:
            raise ValidationError(
                f"mean has dimension {mean.shape[0]} but cov is {cov.shape[0]}x{cov.shape[1]}"
            )
        _check_eig_floor(sym, self.eig_floor)
        object.__setattr__(self, "mean", _readonly(mean))
        object.__setattr__(self, "cov", _readonly(cov))

    @property
    def dim(self) -> int:
        return self.mean.shape[0]

    def to_json_dict(self) -> dict:
        """Single-component form of the mixture interchange schema."""
        return _as_mixture(self).to_json_dict()

    @classmethod
    def from_json_dict(cls, data: dict) -> "Gaussian":
        mix = GaussianMixture.from_json_dict(data)
        if mix.order != 1:
            raise ValidationError(f"expected a single component, got {mix.order}")
        return mix.nodes[0]


@dataclass(frozen=True, eq=False)
class DiracPoint:
    """Point mass at ``location``: the zero-dispersion reference distribution."""

    location: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "location", _readonly(_as_vector(self.location, "location")))

    @property
    def dim(self) -> int:
        return self.location.shape[0]


@dataclass(frozen=True, eq=False)
class GaussianMixture:
    """K Gaussian components as stacked read-only arrays: ``weights`` ``(K,)`` on
    the simplex, ``means`` ``(K, n)`` and covariances ``covs`` ``(K, n, n)``.

    ``eig_floor`` is the smallest covariance eigenvalue accepted, as for
    :class:`Gaussian`. Component order is significant and preserved by every
    operation.
    """

    weights: np.ndarray
    means: np.ndarray
    covs: np.ndarray
    eig_floor: float = field(default=DEFAULT_EIG_FLOOR, repr=False)

    def __post_init__(self):
        stacks = _checked_stacks(self.weights, self.means, self.covs)
        _check_eig_floor(_check_symmetric(stacks[2], "cov"), self.eig_floor)
        for name, a in zip(("weights", "means", "covs"), stacks):
            object.__setattr__(self, name, _readonly(a))

    @classmethod
    def _trusted(cls, weights, means, covs, eig_floor: float) -> "GaussianMixture":
        """A mixture over covariances already certified symmetric with no
        eigenvalue below ``eig_floor``: just floored by ``ensure_spd``, or taken
        unchanged from checked values. Runs the constructor's O(K) checks but
        not its symmetry and eigenvalue passes, and marks the arrays read-only
        in place instead of copying them, so a caller passes only arrays that
        it alone holds or that are read-only already."""
        weights, means, covs = _checked_stacks(weights, means, covs)
        return _trusted_new(cls, weights=weights, means=means, covs=covs, eig_floor=eig_floor)

    @classmethod
    def from_unnormalized(cls, weights, nodes: Sequence[Gaussian]) -> "GaussianMixture":
        """Build a mixture from nonnegative weights, normalizing their sum to 1, and
        ``Gaussian`` nodes; the mixture keeps the loosest of the nodes' floors."""
        w = _as_float_array(weights, "weights")
        total = float(w.sum())
        if not 0.0 < total < np.inf:  # a negative weight fails the simplex check
            raise ValidationError(f"weights must have a positive finite sum, got {total!r}")
        if not all(isinstance(g, Gaussian) for g in nodes):
            raise ValidationError("mixture components must be Gaussian instances")
        # Each node passed its own floor, so every covariance clears the loosest.
        return cls._trusted(w / total, [g.mean for g in nodes], [g.cov for g in nodes],
                            eig_floor=min((g.eig_floor for g in nodes), default=DEFAULT_EIG_FLOOR))

    @property
    def order(self) -> int:
        return self.weights.shape[0]

    @property
    def dim(self) -> int:
        return self.means.shape[1]

    @property
    def nodes(self) -> tuple:
        """The components as ``Gaussian`` values, built from the stacked rows on each access."""
        return tuple(Gaussian(m, c, eig_floor=self.eig_floor) for m, c in zip(self.means, self.covs))

    @property
    def components(self) -> tuple:
        """``(weight, Gaussian)`` pairs, built on each access."""
        return tuple(zip(self.weights.tolist(), self.nodes))

    def to_json_dict(self) -> dict:
        """Interchange schema: ``{"weights": [...], "means": [[...]], "covs": [[[...]]]}``."""
        return {"weights": self.weights.tolist(), "means": self.means.tolist(),
                "covs": self.covs.tolist()}

    @classmethod
    def from_json_dict(cls, data: dict, eig_floor: float = DEFAULT_EIG_FLOOR) -> "GaussianMixture":
        try:
            weights, means, covs = data["weights"], data["means"], data["covs"]
        except (KeyError, TypeError) as exc:
            raise ValidationError(f"mixture JSON needs weights/means/covs: {exc}") from exc
        return cls(weights, means, covs, eig_floor=eig_floor)

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "GaussianMixture":
        return cls.from_json_dict(json.loads(text))


def _as_mixture(g: Gaussian) -> GaussianMixture:
    """``g`` as a one-component mixture with the same floor."""
    return GaussianMixture(np.ones(1), g.mean[None], g.cov[None], eig_floor=g.eig_floor)


def spd_sqrt(m, eig_floor: float = DEFAULT_EIG_FLOOR) -> np.ndarray:
    """Unique SPD square root of an SPD matrix via symmetric eigendecomposition.

    Raises ``ValidationError`` for non-symmetric input and ``DegeneracyError``
    (naming the offending eigenvalue) when an eigenvalue falls below
    ``eig_floor``.
    """
    w, v = np.linalg.eigh(_check_symmetric(_as_matrix(m, "matrix"), "matrix"))
    if float(w.min()) < eig_floor:
        raise DegeneracyError(
            f"matrix eigenvalue {w.min():.6e} is below the floor {eig_floor:.1e}; not positive-definite"
        )
    return _from_eigh(np.sqrt(w), v)


def psd_sqrt(m) -> np.ndarray:
    """Square root of a symmetric PSD matrix, clipping tiny negative eigenvalues at zero.

    Lenient companion to :func:`spd_sqrt` for matrices that are PSD only up to
    roundoff (inner Wasserstein products, singular noise covariances).
    """
    w, v = np.linalg.eigh(_symmetric_part(_as_matrix(m, "matrix")))
    return _from_eigh(np.sqrt(np.clip(w, 0.0, None)), v)


def ensure_spd(cov: np.ndarray) -> np.ndarray:
    """Symmetrize structurally-PSD covariances and lift each matrix's eigenvalues
    below ``1e-14 * lambda_max``.

    Takes one ``(n, n)`` matrix or a ``(K, n, n)`` stack and treats each matrix
    of a stack as if alone. The relative floor is enough for the Cholesky
    factorizations downstream of filter updates, whose formulas are PSD
    analytically but can drift a hair negative; a matrix negative beyond
    roundoff (:func:`_negative_beyond_roundoff`) is genuinely broken and
    raises :class:`DegeneracyError` (for the first such matrix). One batched
    ``eigvalsh`` flags the matrices below their floor, and only those are
    factored with ``eigh``, whose eigenpairs rebuild them with the
    eigenvalues lifted. The matrices above their floor come back symmetrized
    only. The EM's absolute covariance floor is :func:`_floored_eigh`.
    """
    cov = _symmetric_part(cov)
    w = np.linalg.eigvalsh(cov)
    low_w = w[..., 0]
    broken = _negative_beyond_roundoff(w)
    if broken.any():
        raise DegeneracyError(f"covariance eigenvalue {low_w[broken][0]:.6e} "
                              "is negative beyond roundoff tolerance")
    low = low_w < 1e-14 * np.maximum(w[..., -1], 0.0)
    if low.any():
        # Boolean rows of a stack; a single matrix indexed by a 0-d mask is a
        # stack of one.
        w_low, v_low = np.linalg.eigh(cov[low])
        cov[low] = _from_eigh(np.maximum(w_low, 1e-14 * np.maximum(w_low[:, -1:], 0.0)), v_low)
    return cov


def _symmetric_part(m: np.ndarray) -> np.ndarray:
    """``(m + m^T) / 2`` of a matrix or of each matrix of a stack, halved
    before the sum so that entries up to the largest double do not overflow.
    Halving a normal double is exact, so away from the subnormal range this
    is bit for bit ``0.5 * (m + m^T)``, which overflows where this does not."""
    half = 0.5 * m
    return half + np.swapaxes(half, -1, -2)


def _from_eigh(w: np.ndarray, v: np.ndarray) -> np.ndarray:
    """``V diag(w) V^T``, symmetrized, from eigenvalues ``w`` ``(..., n)`` and
    eigenvectors ``v`` ``(..., n, n)``: one matrix or a stack."""
    return _symmetric_part((v * w[..., None, :]) @ np.swapaxes(v, -1, -2))


def _negative_beyond_roundoff(w: np.ndarray) -> np.ndarray:
    """Whether a symmetric matrix with ascending eigenvalues ``w``, or each
    matrix of a stack, is negative beyond roundoff:
    ``lambda_min < -1e-12 * max(1, lambda_max)``."""
    return w[..., 0] < -1e-12 * np.maximum(1.0, w[..., -1])


def _floored_eigh(cov: np.ndarray, floor: float):
    """Symmetrize ``cov`` and lift every eigenvalue below the absolute
    ``floor`` (the EM's covariance floor), negative ones included: the EM
    forms a covariance as ``E[x x^T] - mu mu^T``, PSD in exact arithmetic
    but, for a tight component far from the cloud's mean, below zero by up to
    about ``eps * E|x|^2`` in floating point. One batched ``eigh`` factors
    every matrix, because the EM needs all the eigenpairs. Returns the
    floored matrices, their eigenvalues ``(..., n)`` with the lifted ones at
    the floor, and their eigenvectors ``(..., n, n)``, which factor the
    returned matrices up to the rebuild's roundoff; the matrices above the
    floor come back symmetrized only."""
    cov = _symmetric_part(cov)
    w, v = np.linalg.eigh(cov)
    low = w[..., 0] < floor
    if low.any():
        w[low] = np.maximum(w[low], floor)
        cov[low] = _from_eigh(w[low], v[low])
    return cov, w, v


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
    z = inv.reshape(k * dim, dim) @ points.T
    z -= (inv @ means[:, :, None]).reshape(k * dim, 1)
    z *= z
    out = z.reshape(k, dim, n_points).sum(axis=1)
    out += (dim * np.log(2.0 * np.pi)
            + 2.0 * np.log(np.diagonal(chol, axis1=1, axis2=2)).sum(axis=1))[:, None]
    out *= -0.5
    return out.T


def gaussian_logpdf(g: Gaussian, x) -> float:
    """Log of the multivariate normal density of ``g`` at point ``x``."""
    x = _as_vector(x, "x")
    if x.shape[0] != g.dim:
        raise ValidationError(f"point has dimension {x.shape[0]}, Gaussian has {g.dim}")
    return float(_component_logpdfs(x[None], g.mean[None], g.cov[None])[0, 0])


def _sampling_factors(covs: np.ndarray) -> np.ndarray:
    """Cholesky factors of a ``(K, n, n)`` stack; a singular matrix (an all-zero
    posterior, which ``ensure_spd`` cannot lift) gets its PSD square root instead,
    so it samples its mean."""
    try:
        return np.linalg.cholesky(covs)
    except np.linalg.LinAlgError:
        if covs.shape[0] == 1:
            return psd_sqrt(covs[0])[None]
        return np.concatenate([_sampling_factors(c[None]) for c in covs])


def sample_gaussian(g: Gaussian, count: int, rng: np.random.Generator) -> np.ndarray:
    """Draw ``count`` i.i.d. samples from ``g`` as an ``(count, n)`` array.

    Uses the Cholesky factor of the covariance, so identical generator state
    yields identical output bits.
    """
    return sample_mixture(_as_mixture(g), count, rng)


def sample_mixture(mix: GaussianMixture, count: int, rng: np.random.Generator) -> np.ndarray:
    """Draw ``count`` samples from a mixture: categorical component pick, then Gaussian draw.

    A single-component mixture consumes no categorical draw, so it is
    bit-identical to :func:`sample_gaussian` on its node.
    """
    if count < 1:
        raise ValidationError(f"count must be >= 1, got {count}")
    chols = _sampling_factors(mix.covs)
    if mix.order == 1:
        return mix.means[0] + rng.standard_normal((count, mix.dim)) @ chols[0].T
    idx = rng.choice(mix.order, size=count, p=mix.weights)
    z = rng.standard_normal((count, mix.dim))
    return mix.means[idx] + np.einsum("kij,kj->ki", chols[idx], z)


def mixture_mean_cov(mix: GaussianMixture) -> tuple[np.ndarray, np.ndarray]:
    """Moment-matched mean and covariance of a mixture.

    mean = sum_i w_i mu_i
    cov  = sum_i w_i (S_i + (mu_i - mean)(mu_i - mean)^T)
    """
    w = mix.weights
    mean = w @ mix.means
    diff = mix.means - mean
    cov = np.einsum("k,kij->ij", w, mix.covs) + (diff.T * w) @ diff
    return mean, _symmetric_part(cov)
