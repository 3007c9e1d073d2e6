"""The measurement-update entry points at the edges of the float range.

Each input of an update (the prior means and covariances, the sensor's ``C``
and ``R``, the measurement ``y``) is drawn at its own scale, from 1e-150 to
1e200. Every call must then return finite arrays of the right shape or raise
a :class:`WassFilterError` subclass, with no numpy RuntimeWarning.
"""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wassfilter import (DEFAULT_EIG_FLOOR, ConditioningError, Gaussian, GaussianMixture,
                        LinearMeasurementModel, NgsfProblem, WassFilterError,
                        WeightUnderflowError, apply_ngsf_solution, gsf_update, kalman_update,
                        ngsf_solve, ngsf_update)

from conftest import random_spd

_EXPONENT = st.floats(-150.0, 200.0)


def _outcome(call):
    """``call()``'s result, or ``None`` when it raises a library error. Any other
    exception, a RuntimeWarning included, fails the test."""
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        try:
            return call()
        except WassFilterError:
            return None


def _assert_finite(a: np.ndarray, shape: tuple) -> None:
    assert a.shape == shape and np.isfinite(a).all()


def _assert_update(result, order: int, n: int, m: int) -> None:
    if result is None:
        return
    post = result.posterior
    _assert_finite(post.weights, (order,))
    _assert_finite(post.means, (order, n))
    _assert_finite(post.covs, (order, n, n))
    _assert_finite(result.gains, (order, n, m))
    _assert_finite(result.component_costs, (order,))


@settings(max_examples=600, deadline=None, database=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1), order=st.integers(1, 4), n=st.integers(1, 3),
       m=st.integers(1, 2), exponents=st.tuples(*[_EXPONENT] * 5),
       floor=st.sampled_from([DEFAULT_EIG_FLOOR, 0.0]))
def test_updates_return_finite_arrays_or_raise_a_library_error(seed, order, n, m, exponents,
                                                                 floor):
    mean_scale, cov_scale, c_scale, r_scale, y_scale = 10.0 ** np.array(exponents)
    rng = np.random.default_rng(seed)
    raw = rng.uniform(0.2, 1.0, order)
    means = mean_scale * rng.standard_normal((order, n))
    covs = cov_scale * np.stack([random_spd(rng, n) for _ in range(order)])
    c = c_scale * rng.standard_normal((m, n))
    r = r_scale * random_spd(rng, m, base=0.3)
    y = y_scale * rng.standard_normal(m)

    model = _outcome(lambda: LinearMeasurementModel(c, r))
    if model is None:
        return
    node = _outcome(lambda: Gaussian(means[0], covs[0], eig_floor=floor))
    if node is not None:
        post = _outcome(lambda: kalman_update(node, covs[0], model, y))
        if post is not None:
            _assert_finite(post.mean, (n,))
            _assert_finite(post.cov, (n, n))
    prior = _outcome(lambda: GaussianMixture(raw / raw.sum(), means, covs, eig_floor=floor))
    if prior is None:
        return
    _assert_update(_outcome(lambda: gsf_update(prior, model, y)), order, n, m)
    problem = _outcome(lambda: NgsfProblem.from_gsf(prior, model, y))
    if problem is None:
        return
    _assert_update(_outcome(lambda: ngsf_update(problem)), order, n, m)
    solution = _outcome(lambda: ngsf_solve(problem))
    if solution is not None:
        _assert_finite(solution.weights, (order,))
        assert np.isfinite([solution.warm_cost, solution.final_cost]).all()
        _assert_update(_outcome(lambda: apply_ngsf_solution(problem, solution)), order, n, m)


@pytest.mark.parametrize("cov, c, y, error", [
    (1.0, 1e156, 0.0, ConditioningError),
    (1e110, 1e200, 0.0, ConditioningError),
    (1.0, 1.0, 1e155, WeightUnderflowError),
], ids=["c_s_ct_overflows", "c_s_overflows", "whitened_square_overflows"])
def test_an_overflow_raises_its_error_and_no_warning(cov, c, y, error):
    # Each overflowed inside the update with a RuntimeWarning before its
    # error: in C S C^T, in C S, and in the squared whitened innovation.
    model = LinearMeasurementModel([[c]], [[1.0]])
    prior = GaussianMixture([0.5, 0.5], [[0.0], [1.0]], [[[cov]], [[cov]]])
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(error):
            gsf_update(prior, model, [y])
        if error is ConditioningError:
            with pytest.raises(error, match=r"eigenvalues in \[inf, inf\]"):
                kalman_update(Gaussian([0.0], [[cov]]), [[cov]], model, [y])
