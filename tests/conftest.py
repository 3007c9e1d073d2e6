"""Shared helpers for the test suite."""

import numpy as np
import pytest

from wassfilter import Gaussian, GaussianMixture


def random_spd(rng: np.random.Generator, n: int, base: float = 0.5) -> np.ndarray:
    """Well-conditioned random SPD matrix (eigenvalues bounded away from zero)."""
    a = rng.standard_normal((n, n))
    return a @ a.T + base * np.eye(n)


def assert_close_12(actual, expected) -> None:
    """Equal to rtol 1e-12, with the same budget relative to the largest entry
    as an absolute floor for entries that cancel to near zero."""
    expected = np.asarray(expected)
    np.testing.assert_allclose(actual, expected, rtol=1e-12,
                               atol=1e-12 * max(1.0, float(np.abs(expected).max())))


def random_gaussian(rng: np.random.Generator, n: int, mean_scale: float = 1.0) -> Gaussian:
    return Gaussian(mean_scale * rng.standard_normal(n), random_spd(rng, n))


def random_mixture(rng: np.random.Generator, order: int, n: int) -> GaussianMixture:
    nodes = [random_gaussian(rng, n) for _ in range(order)]
    return GaussianMixture.from_unnormalized(rng.uniform(0.2, 1.0, order), nodes)


@pytest.fixture
def rng():
    return np.random.default_rng(20260810)
