"""Gaussian and Gaussian-mixture primitives.

Types
-----
``Gaussian``
    Mean vector plus symmetric positive-definite covariance. Immutable.
``GaussianMixture``
    Weighted list of ``Gaussian`` nodes on the probability simplex.
    Component order is significant and preserved by every operation.
``DiracPoint``
    A point mass; the degenerate reference distribution.

Point clouds ("ensembles") are plain ``(N, n)`` float arrays throughout the
library; there is no wrapper class for them.

All types are immutable values after construction (arrays are copied and
marked read-only), so instances are safe to share across threads. Random
number generators are the only mutable state and belong to the caller.
"""

from __future__ import annotations

import json
import numbers
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
    raise ValidationError(f"{name} must be a numeric array, got {x!r}")


def _as_vector(x, name: str) -> np.ndarray:
    v = _as_float_array(x, name)
    if v.ndim != 1:
        raise ValidationError(f"{name} must be a 1-D vector, got shape {v.shape}")
    if not np.all(np.isfinite(v)):
        raise ValidationError(f"{name} contains non-finite entries")
    return v


def _as_matrix(x, name: str) -> np.ndarray:
    m = _as_float_array(x, name)
    if m.ndim != 2:
        raise ValidationError(f"{name} must be a 2-D matrix, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise ValidationError(f"{name} contains non-finite entries")
    return m


def _check_symmetric(m: np.ndarray, name: str) -> None:
    if m.shape[0] != m.shape[1]:
        raise ValidationError(f"{name} must be square, got shape {m.shape}")
    scale = max(1.0, float(np.abs(m).max()))
    if float(np.abs(m - m.T).max()) > _SYM_RTOL * scale:
        raise ValidationError(f"{name} is not symmetric to within {_SYM_RTOL} relative tolerance")


def _readonly(a: np.ndarray) -> np.ndarray:
    a = np.array(a, dtype=float, copy=True)
    a.setflags(write=False)
    return a


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
        _check_symmetric(cov, "cov")
        if cov.shape[0] != mean.shape[0]:
            raise ValidationError(
                f"mean has dimension {mean.shape[0]} but cov is {cov.shape[0]}x{cov.shape[1]}"
            )
        eigvals = np.linalg.eigvalsh(0.5 * (cov + cov.T))
        if float(eigvals.min()) < self.eig_floor:
            raise DegeneracyError(
                f"covariance eigenvalue {eigvals.min():.6e} is below the floor {self.eig_floor:.1e}"
            )
        object.__setattr__(self, "mean", _readonly(mean))
        object.__setattr__(self, "cov", _readonly(cov))

    @property
    def dim(self) -> int:
        return self.mean.shape[0]

    def to_json_dict(self) -> dict:
        """Single-component form of the mixture interchange schema."""
        return GaussianMixture(((1.0, self),)).to_json_dict()

    @classmethod
    def from_json_dict(cls, data: dict) -> "Gaussian":
        mix = GaussianMixture.from_json_dict(data)
        if mix.order != 1:
            raise ValidationError(f"expected a single component, got {mix.order}")
        return mix.components[0][1]


@dataclass(frozen=True, eq=False)
class DiracPoint:
    """Point mass at ``location``: the zero-dispersion reference distribution."""

    location: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "location", _readonly(_as_vector(self.location, "location")))

    @property
    def dim(self) -> int:
        return self.location.shape[0]


@dataclass(frozen=True)
class GaussianMixture:
    """Ordered list of ``(weight, Gaussian)`` pairs with weights on the simplex."""

    components: tuple

    def __post_init__(self):
        comps = tuple((float(w), g) for w, g in self.components)
        if not comps:
            raise ValidationError("mixture needs at least one component")
        weights = np.array([w for w, _ in comps])
        if np.any(weights < 0.0):
            raise ValidationError(f"negative mixture weight {weights.min()}")
        if abs(float(weights.sum()) - 1.0) > _SIMPLEX_ATOL:
            raise ValidationError(f"mixture weights sum to {weights.sum()!r}, not 1")
        dims = {g.dim for _, g in comps}
        if len(dims) != 1:
            raise ValidationError(f"component dimensions differ: {sorted(dims)}")
        for _, g in comps:
            if not isinstance(g, Gaussian):
                raise ValidationError("mixture components must be Gaussian instances")
        object.__setattr__(self, "components", comps)

    @classmethod
    def from_arrays(cls, weights, means, covs, eig_floor: float = DEFAULT_EIG_FLOOR) -> "GaussianMixture":
        weights = np.asarray(weights, dtype=float)
        return cls(tuple(
            (float(w), Gaussian(m, c, eig_floor=eig_floor))
            for w, m, c in zip(weights, means, covs, strict=True)
        ))

    @classmethod
    def from_unnormalized(cls, weights, nodes: Sequence[Gaussian]) -> "GaussianMixture":
        """Build a mixture from nonnegative weights, normalizing their sum to 1."""
        w = np.asarray(weights, dtype=float)
        if np.any(w < 0.0) or not np.all(np.isfinite(w)):
            raise ValidationError("weights must be finite and nonnegative")
        total = float(w.sum())
        if total <= 0.0:
            raise ValidationError("weights must have a positive sum")
        return cls(tuple((float(wi / total), g) for wi, g in zip(w, nodes, strict=True)))

    @property
    def order(self) -> int:
        return len(self.components)

    @property
    def dim(self) -> int:
        return self.components[0][1].dim

    @property
    def weights(self) -> np.ndarray:
        return np.array([w for w, _ in self.components])

    @property
    def nodes(self) -> tuple:
        return tuple(g for _, g in self.components)

    def means(self) -> np.ndarray:
        return np.stack([g.mean for _, g in self.components])

    def covs(self) -> np.ndarray:
        return np.stack([g.cov for _, g in self.components])

    def to_json_dict(self) -> dict:
        """Interchange schema: ``{"weights": [...], "means": [[...]], "covs": [[[...]]]}``."""
        return {
            "weights": [w for w, _ in self.components],
            "means": [g.mean.tolist() for _, g in self.components],
            "covs": [g.cov.tolist() for _, g in self.components],
        }

    @classmethod
    def from_json_dict(cls, data: dict, eig_floor: float = DEFAULT_EIG_FLOOR) -> "GaussianMixture":
        try:
            weights = data["weights"]
            means = data["means"]
            covs = data["covs"]
        except (KeyError, TypeError) as exc:
            raise ValidationError(f"mixture JSON needs weights/means/covs: {exc}") from exc
        if not (len(weights) == len(means) == len(covs)):
            raise ValidationError("weights, means and covs must have equal length")
        return cls.from_arrays(weights, [np.asarray(m, float) for m in means],
                               [np.asarray(c, float) for c in covs], eig_floor=eig_floor)

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "GaussianMixture":
        return cls.from_json_dict(json.loads(text))


def spd_sqrt(m, eig_floor: float = DEFAULT_EIG_FLOOR) -> np.ndarray:
    """Unique SPD square root of an SPD matrix via symmetric eigendecomposition.

    Raises ``ValidationError`` for non-symmetric input and ``DegeneracyError``
    (naming the offending eigenvalue) when an eigenvalue falls below
    ``eig_floor``.
    """
    m = _as_matrix(m, "matrix")
    _check_symmetric(m, "matrix")
    w, v = np.linalg.eigh(0.5 * (m + m.T))
    if float(w.min()) < eig_floor:
        raise DegeneracyError(
            f"matrix eigenvalue {w.min():.6e} is below the floor {eig_floor:.1e}; not positive-definite"
        )
    root = (v * np.sqrt(w)) @ v.T
    return 0.5 * (root + root.T)


def psd_sqrt(m) -> np.ndarray:
    """Square root of a symmetric PSD matrix, clipping tiny negative eigenvalues at zero.

    Lenient companion to :func:`spd_sqrt` for matrices that are PSD only up to
    roundoff (inner Wasserstein products, singular noise covariances).
    """
    m = _as_matrix(m, "matrix")
    w, v = np.linalg.eigh(0.5 * (m + m.T))
    root = (v * np.sqrt(np.clip(w, 0.0, None))) @ v.T
    return 0.5 * (root + root.T)


def ensure_spd(cov: np.ndarray, psd_tol: float = 1e-12, lift_rel: float = 1e-14) -> np.ndarray:
    """Symmetrize structurally-PSD covariances and lift near-zero eigenvalues.

    Used by filter updates whose covariance formulas are PSD analytically but
    can drift a hair negative in floating point. Takes one ``(n, n)`` matrix
    or a ``(K, n, n)`` stack and treats each matrix of a stack as if alone.
    Eigenvalues below ``-psd_tol * max(1, lambda_max)`` mean a matrix is
    genuinely broken and raise :class:`DegeneracyError` (for the first such
    matrix); eigenvalues in the roundoff band are lifted to
    ``lift_rel * lambda_max`` so downstream Cholesky factorizations succeed.
    Only matrices with a lifted eigenvalue are rebuilt; the rest are returned
    symmetrized but otherwise untouched.
    """
    cov = 0.5 * (cov + np.swapaxes(cov, -1, -2))
    stack = cov.reshape((-1,) + cov.shape[-2:])
    w = np.linalg.eigvalsh(stack)
    lmax = np.maximum(w[:, -1], 0.0)
    broken = w[:, 0] < -psd_tol * np.maximum(1.0, lmax)
    if broken.any():
        bad = w[np.argmax(broken), 0]
        raise DegeneracyError(f"covariance eigenvalue {bad:.6e} is negative beyond roundoff tolerance")
    lift = lift_rel * lmax
    low = w[:, 0] < lift
    if low.any():
        w2, v = np.linalg.eigh(stack[low])
        lifted = (v * np.clip(w2, lift[low][:, None], None)[:, None, :]) @ np.swapaxes(v, 1, 2)
        stack[low] = 0.5 * (lifted + np.swapaxes(lifted, 1, 2))
    return stack.reshape(cov.shape)


def gaussian_logpdf(g: Gaussian, x) -> float:
    """Log of the multivariate normal density of ``g`` at point ``x``."""
    from scipy.linalg import solve_triangular

    x = _as_vector(x, "x")
    if x.shape[0] != g.dim:
        raise ValidationError(f"point has dimension {x.shape[0]}, Gaussian has {g.dim}")
    chol = np.linalg.cholesky(g.cov)
    z = solve_triangular(chol, x - g.mean, lower=True)
    logdet = 2.0 * float(np.sum(np.log(np.diag(chol))))
    return float(-0.5 * (g.dim * np.log(2.0 * np.pi) + logdet + np.sum(z * z)))


def _sampling_factor(cov: np.ndarray) -> np.ndarray:
    """Cholesky factor of ``cov``, or its PSD square root when ``cov`` is singular
    (an all-zero posterior, which ``ensure_spd`` cannot lift, samples its mean)."""
    try:
        return np.linalg.cholesky(cov)
    except np.linalg.LinAlgError:
        return psd_sqrt(cov)


def sample_gaussian(g: Gaussian, count: int, rng: np.random.Generator) -> np.ndarray:
    """Draw ``count`` i.i.d. samples from ``g`` as an ``(count, n)`` array.

    Uses the Cholesky factor of the covariance, so identical generator state
    yields identical output bits.
    """
    if count < 1:
        raise ValidationError(f"count must be >= 1, got {count}")
    chol = _sampling_factor(g.cov)
    z = rng.standard_normal((count, g.dim))
    return g.mean + z @ chol.T

def sample_mixture(mix: GaussianMixture, count: int, rng: np.random.Generator) -> np.ndarray:
    """Draw ``count`` samples from a mixture: categorical component pick, then Gaussian draw.

    A single-component mixture delegates to :func:`sample_gaussian` without
    consuming a categorical draw, so it is bit-identical to sampling the node.
    """
    if count < 1:
        raise ValidationError(f"count must be >= 1, got {count}")
    if mix.order == 1:
        return sample_gaussian(mix.components[0][1], count, rng)
    idx = rng.choice(mix.order, size=count, p=mix.weights)
    z = rng.standard_normal((count, mix.dim))
    chols = np.stack([_sampling_factor(g.cov) for g in mix.nodes])
    out = mix.means()[idx] + np.einsum("kij,kj->ki", chols[idx], z)
    return out


def mixture_mean_cov(mix: GaussianMixture) -> tuple[np.ndarray, np.ndarray]:
    """Moment-matched mean and covariance of a mixture.

    mean = sum_i w_i mu_i
    cov  = sum_i w_i (S_i + (mu_i - mean)(mu_i - mean)^T)
    """
    w = mix.weights
    means = mix.means()
    mean = w @ means
    diff = means - mean
    cov = np.einsum("k,kij->ij", w, mix.covs()) + (diff.T * w) @ diff
    return mean, 0.5 * (cov + cov.T)
