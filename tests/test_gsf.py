"""Tests for the Gaussian Sum Filter measurement update."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import cho_solve, solve_triangular

from wassfilter import (ConditioningError, Gaussian, GaussianMixture, GsfUpdateResult,
                        LinearMeasurementModel, ValidationError, WeightUnderflowError,
                        gsf_bound_cost, gsf_update, kalman_gains, kalman_update,
                        mixture_mean_cov, sample_mixture, update_error_cost)
from wassfilter.gsf import _normalize_log_weights
from wassfilter.kalman import MAX_INNOVATION_CONDITION, state_gain
from wassfilter.validate import _grid_bayes

from conftest import assert_close_12, random_mixture, random_spd


def _scalar_model(r=1.0):
    return LinearMeasurementModel([[1.0]], [[r]])


class TestGsfUpdate:
    def test_single_component_equals_kalman(self, rng):
        g = Gaussian(rng.standard_normal(2), random_spd(rng, 2))
        model = LinearMeasurementModel(rng.standard_normal((1, 2)), [[0.5]])
        y = rng.standard_normal(1)
        res = gsf_update(GaussianMixture([1.0], [g.mean], [g.cov]), model, y)
        ref = kalman_update(g, g.cov, model, y)
        np.testing.assert_array_equal(res.posterior.nodes[0].mean, ref.mean)
        np.testing.assert_array_equal(res.posterior.nodes[0].cov, ref.cov)
        assert res.posterior.weights[0] == 1.0

    @pytest.mark.parametrize("prior_dim, y, message", [
        (1, [0.3, 0.1], "measurement has dimension 2, model expects 1"),
        (2, [0.3], "prior has dimension 2, model expects 1"),
        (1, [[0.3]], r"y must be a 1-D vector, got shape \(1, 1\)"),
        (1, [np.inf], "y contains non-finite entries"),
    ], ids=["y", "prior", "y_matrix", "y_inf"])
    def test_rejects_mismatched_dimensions(self, rng, prior_dim, y, message):
        with pytest.raises(ValidationError, match=message):
            gsf_update(random_mixture(rng, 2, prior_dim), _scalar_model(), y)

    @pytest.mark.parametrize("field, message", [("gains", r"gains of shape \(3,\)"),
                                                ("component_costs", r"has shape \(3,\)")])
    def test_result_rejects_wrong_shapes(self, rng, field, message):
        res = gsf_update(random_mixture(rng, 2, 1), _scalar_model(), [0.3])
        arrays = {"gains": res.gains, "component_costs": res.component_costs, field: np.zeros(3)}
        with pytest.raises(ValidationError, match=message):
            GsfUpdateResult(posterior=res.posterior, **arrays)

    def test_identical_components_keep_equal_weights(self):
        g = Gaussian([1.0], [[2.0]])
        prior = GaussianMixture([0.5, 0.5], [g.mean, g.mean], [g.cov, g.cov])
        res = gsf_update(prior, _scalar_model(), [0.3])
        np.testing.assert_allclose(res.posterior.weights, [0.5, 0.5], atol=1e-15)

    def test_weight_ratio_worked_example(self):
        # Components N(0,1), N(4,1), equal prior weights, C=1, R=1, y=0:
        # innovation variance 2, likelihood ratio exp(0)/exp(-16/4) = e^4.
        prior = GaussianMixture([0.5, 0.5], [[0.0], [4.0]], [[[1.0]], [[1.0]]])
        res = gsf_update(prior, _scalar_model(), [0.0])
        expected = np.exp(4.0) / (np.exp(4.0) + 1.0)
        assert abs(res.posterior.weights[0] - expected) < 1e-12

    def test_random_updates_simplex_and_contraction(self, rng):
        for _ in range(100):
            order = int(rng.integers(1, 8))
            prior = random_mixture(rng, order, 2)
            model = LinearMeasurementModel(rng.standard_normal((1, 2)), [[0.4]])
            res = gsf_update(prior, model, rng.standard_normal(1))
            w = res.posterior.weights
            assert abs(w.sum() - 1.0) <= 1e-12
            assert w.min() >= 0.0
            for pre, post in zip(prior.nodes, res.posterior.nodes):
                assert np.trace(post.cov) <= np.trace(pre.cov) + 1e-12

    def test_order_preserved_component_update(self, rng):
        prior = random_mixture(rng, 3, 2)
        model = LinearMeasurementModel(rng.standard_normal((1, 2)), [[0.7]])
        y = rng.standard_normal(1)
        res = gsf_update(prior, model, y)
        for node, h, post in zip(prior.nodes, res.gains, res.posterior.nodes):
            expected_mean = node.mean + h @ (y - model.C @ node.mean)
            np.testing.assert_allclose(post.mean, expected_mean, atol=1e-14)

    def test_gains_match_kalman_gains_bitwise(self, rng):
        prior = random_mixture(rng, 4, 2)
        model = LinearMeasurementModel(rng.standard_normal((1, 2)), [[0.6]])
        res = gsf_update(prior, model, rng.standard_normal(1))
        for node, h in zip(prior.nodes, res.gains):
            ref = kalman_gains(node.cov, model)
            np.testing.assert_array_equal(h, ref.H)
            np.testing.assert_array_equal(state_gain(h, model), ref.G)

    def test_noiseless_full_rank_sensor(self):
        # R = 0 with an invertible 2x2 C observes the state exactly: the
        # posterior mean is C^-1 y and the covariance collapses. The short
        # form S - H C S drifted below ensure_spd's tolerance on such updates.
        rng = np.random.default_rng(20260810)
        for _ in range(200):
            c = rng.standard_normal((2, 2))
            model = LinearMeasurementModel(c, np.zeros((2, 2)))
            prior = Gaussian(10.0 * rng.standard_normal(2), 10.0 * random_spd(rng, 2))
            x = 10.0 * rng.standard_normal(2)
            node = gsf_update(GaussianMixture([1.0], [prior.mean], [prior.cov]), model,
                              c @ x).posterior.nodes[0]
            np.testing.assert_allclose(node.mean, x, rtol=0, atol=1e-9 * max(1.0, np.abs(x).max()))
            assert np.abs(node.cov).max() <= 1e-12 * np.abs(prior.cov).max()

    @pytest.mark.parametrize("order", [1, 2])
    def test_pinned_state_posterior_samples_its_mean(self, order):
        # C = I and R = 0 pin the state exactly: every posterior covariance is
        # all zero, too small for ensure_spd's relative lift to move, and
        # resampling must still succeed, landing on the posterior mean.
        model = LinearMeasurementModel(np.eye(2), np.zeros((2, 2)))
        node = Gaussian([0.0, 0.0], np.eye(2))
        prior = GaussianMixture.from_unnormalized(np.ones(order), [node] * order)
        posterior = gsf_update(prior, model, [0.3, -0.2]).posterior
        assert not np.any(posterior.covs)
        cloud = sample_mixture(posterior, 50, np.random.default_rng(0))
        np.testing.assert_allclose(cloud, np.tile([0.3, -0.2], (50, 1)), rtol=0, atol=1e-12)

    def test_weight_scale_invariance(self, rng):
        nodes = [Gaussian(rng.standard_normal(1), random_spd(rng, 1)) for _ in range(3)]
        w = np.array([0.2, 0.3, 0.5])
        model = _scalar_model(0.3)
        y = rng.standard_normal(1)
        res1 = gsf_update(GaussianMixture.from_unnormalized(w, nodes), model, y)
        res2 = gsf_update(GaussianMixture.from_unnormalized(7.3 * w, nodes), model, y)
        np.testing.assert_allclose(res1.posterior.weights, res2.posterior.weights, atol=1e-14)

    def test_distant_component_underflows_gracefully(self):
        prior = GaussianMixture([0.5, 0.5], [[0.0], [1e4]], [[[1.0]], [[1.0]]])
        res = gsf_update(prior, _scalar_model(), [0.0])
        w = res.posterior.weights
        assert np.all(np.isfinite(w))
        assert abs(w.sum() - 1.0) <= 1e-12
        assert w[1] == 0.0  # fully underflowed, retained with zero weight

    def test_zero_weight_component_retained(self):
        prior = GaussianMixture([1.0, 0.0], [[0.0], [5.0]], [[[1.0]], [[1.0]]])
        res = gsf_update(prior, _scalar_model(), [1.0])
        assert res.posterior.order == 2
        assert res.posterior.weights[1] == 0.0

    def test_conditioning_error_names_component(self):
        prior = GaussianMixture([0.5, 0.5], np.zeros((2, 2)),
                                [np.eye(2), np.diag([1e10, 1e-10])], eig_floor=0.0)
        model = LinearMeasurementModel(np.eye(2), np.diag([1e-14, 1e-14]))
        with pytest.raises(ConditioningError, match="component 1"):
            gsf_update(prior, model, np.zeros(2))

    def test_single_component_conditioning_error_names_component(self):
        prior = GaussianMixture([1.0], np.zeros((1, 2)), [np.diag([1e10, 1e-10])],
                                eig_floor=0.0)
        model = LinearMeasurementModel(np.eye(2), np.diag([1e-14, 1e-14]))
        with pytest.raises(ConditioningError, match=r"^component 0: innovation covariance "
                                                    r"condition number exceeds 1e\+12 "
                                                    r"\(eigenvalues in \[1\.000e-10, 1\.000e\+10\]\)$"):
            gsf_update(prior, model, np.zeros(2))

    def test_overflowed_innovation_names_component(self):
        # C S C^T overflows to inf for component 0; its eigenvalues come out NaN.
        prior = GaussianMixture([0.5, 0.5], np.zeros((2, 2)), [1e300 * np.eye(2), np.eye(2)])
        model = LinearMeasurementModel([[1e5, 0.0], [0.0, 1.0]], np.eye(2))
        with np.errstate(over="ignore", invalid="ignore"), \
                pytest.raises(ConditioningError, match="^component 0: "):
            gsf_update(prior, model, np.zeros(2))

    def test_infinite_innovation_names_component(self):
        # A scalar sensor's C S C^T overflows to inf, whose one eigenvalue is
        # inf, not NaN; without the guard every weight underflowed instead.
        prior = GaussianMixture([0.5, 0.5], np.zeros((2, 2)), [np.eye(2), np.eye(2)])
        model = LinearMeasurementModel([[1e200, 0.0]], [[1.0]])
        with np.errstate(over="ignore"), \
                pytest.raises(ConditioningError, match="^component 0: innovation covariance "):
            gsf_update(prior, model, [0.0])

    def test_all_underflow_raises(self):
        # NaN entries count as underflowed when no entry is finite.
        for log_w in ([-np.inf, -np.inf], [-np.inf, np.nan], [np.nan, np.nan]):
            with pytest.raises(WeightUnderflowError):
                _normalize_log_weights(np.array(log_w))

    @pytest.mark.parametrize("log_w", [[-np.inf, np.nan, -3.0, -1.0], [-np.inf, -3.0, -1.0]])
    def test_shift_by_the_largest_finite_entry(self, log_w):
        # The rule written out: shift by the largest finite entry. A NaN entry
        # makes every weight NaN, which the mixture check then rejects.
        log_w = np.array(log_w)
        shifted = np.exp(log_w - log_w[np.isfinite(log_w)].max())
        assert _normalize_log_weights(log_w).tobytes() == (shifted / shifted.sum()).tobytes()


class TestBoundCost:
    def test_single_component_posterior_trace(self, rng):
        g = Gaussian(rng.standard_normal(2), random_spd(rng, 2))
        model = LinearMeasurementModel(rng.standard_normal((1, 2)), [[0.5]])
        res = gsf_update(GaussianMixture([1.0], [g.mean], [g.cov]), model, rng.standard_normal(1))
        assert gsf_bound_cost(res) == pytest.approx(
            float(np.trace(res.posterior.nodes[0].cov)), rel=1e-12)

    def test_weighted_below_unweighted(self, rng):
        prior = random_mixture(rng, 5, 2)
        model = LinearMeasurementModel(rng.standard_normal((1, 2)), [[0.5]])
        res = gsf_update(prior, model, rng.standard_normal(1))
        weighted = float(res.posterior.weights @ res.component_costs)
        assert weighted <= gsf_bound_cost(res) + 1e-12

    def test_optimality_against_perturbed_gains(self, rng):
        # Oracle: each bound term is independently minimized, so any gain
        # perturbation can only increase the total.
        prior = random_mixture(rng, 3, 2)
        model = LinearMeasurementModel(rng.standard_normal((1, 2)), [[0.5]])
        res = gsf_update(prior, model, rng.standard_normal(1))
        base = gsf_bound_cost(res)
        for _ in range(100):
            perturbed = 0.0
            for gain, node in zip(res.gains, prior.nodes):
                h = gain + 1e-2 * rng.standard_normal(gain.shape)
                perturbed += update_error_cost(h, node.cov, model)
            assert perturbed >= base - 1e-12


class TestBayesOracle:
    # For a Gaussian-mixture prior and a linear Gaussian sensor the GSF
    # posterior is the exact Bayes posterior (Alspach & Sorenson, IEEE TAC
    # 1972), so its weights and moments match a quadrature of prior x likelihood.
    @pytest.mark.parametrize("m", [1, 2], ids=["scalar", "two_rows"])
    @pytest.mark.parametrize("order", [1, 2, 3, 4])
    def test_matches_grid_quadrature(self, order, m):
        rng = np.random.default_rng(1000 * order + m)
        prior = random_mixture(rng, order, 2)
        model = LinearMeasurementModel(rng.standard_normal((m, 2)), random_spd(rng, m, base=0.3))
        x = sample_mixture(prior, 1, rng)[0]
        y = model.C @ x + np.linalg.cholesky(model.R) @ rng.standard_normal(m)
        weights, mean, cov = _grid_bayes(prior, model, y)
        posterior = gsf_update(prior, model, y).posterior
        gsf_mean, gsf_cov = mixture_mean_cov(posterior)
        np.testing.assert_allclose(posterior.weights, weights, rtol=0, atol=1e-9)
        np.testing.assert_allclose(gsf_mean, mean, rtol=0, atol=1e-9)
        np.testing.assert_allclose(gsf_cov, cov, rtol=0, atol=1e-9)


def _loop_gsf(prior, model, y):
    """Reference GSF update: one Cholesky factor, solve and cost per component."""
    eye = np.eye(model.state_dim)
    gains, means, covs, costs, log_w = [], [], [], [], []
    for w, node in prior.components:
        s = model.C @ node.cov @ model.C.T + model.R
        chol = np.linalg.cholesky(0.5 * (s + s.T))
        h = cho_solve((chol, True), model.C @ node.cov).T
        a = h @ model.C - eye
        cov = node.cov - h @ model.C @ node.cov
        z = solve_triangular(chol, y - model.C @ node.mean, lower=True)
        gains.append(h)
        means.append(node.mean + h @ (y - model.C @ node.mean))
        covs.append(0.5 * (cov + cov.T))
        costs.append(np.trace(a @ node.cov @ a.T) + np.trace(h @ model.R @ h.T))
        log_w.append(np.log(w) - 0.5 * (model.meas_dim * np.log(2.0 * np.pi)
                                        + 2.0 * np.sum(np.log(np.diag(chol))) + z @ z))
    weights = np.exp(np.array(log_w) - max(log_w))
    return gains, means, covs, np.array(costs), weights / weights.sum()


def _ill_conditioned_cov(rng, scale):
    """2x2 SPD covariance with eigenvalues ``scale`` and ``1e-8``, rotated."""
    q, _ = np.linalg.qr(rng.standard_normal((2, 2)))
    return q @ np.diag([scale, 1e-8]) @ q.T


class TestBatchedUpdate:
    @settings(max_examples=60, deadline=None, database=None)
    @given(seed=st.integers(0, 2**32 - 1), order=st.integers(1, 10),
           n=st.integers(1, 3), m=st.integers(1, 2))
    def test_matches_component_loop(self, seed, order, n, m):
        rng = np.random.default_rng(seed)
        prior = random_mixture(rng, order, n)
        model = LinearMeasurementModel(rng.standard_normal((m, n)), random_spd(rng, m, base=0.3))
        y = rng.standard_normal(m)
        res = gsf_update(prior, model, y)
        gains, means, covs, costs, weights = _loop_gsf(prior, model, y)
        assert_close_12(res.posterior.weights, weights)
        assert_close_12(res.component_costs, costs)
        for k, (h, node) in enumerate(zip(res.gains, res.posterior.nodes)):
            assert_close_12(h, gains[k])
            assert_close_12(state_gain(h, model), np.eye(n) - gains[k] @ model.C)
            assert_close_12(node.mean, means[k])
            assert_close_12(node.cov, covs[k])

    @settings(max_examples=60, deadline=None, database=None)
    @given(seed=st.integers(0, 2**32 - 1), order=st.integers(1, 10),
           n=st.integers(1, 3), m=st.integers(1, 2))
    def test_costs_are_update_error_cost_bitwise(self, seed, order, n, m):
        # The costs are the traces of the posterior-error covariances that the
        # update floors, the very form update_error_cost takes the trace of.
        rng = np.random.default_rng(seed)
        prior = random_mixture(rng, order, n)
        model = LinearMeasurementModel(rng.standard_normal((m, n)), random_spd(rng, m, base=0.3))
        res = gsf_update(prior, model, rng.standard_normal(m))
        np.testing.assert_array_equal(res.component_costs,
                                      update_error_cost(res.gains, prior.covs, model))

    @settings(max_examples=60, deadline=None, database=None)
    @given(seed=st.integers(0, 2**32 - 1), order=st.integers(1, 10))
    def test_conditioning_guard_names_first_bad_component(self, seed, order):
        # Each component is either well conditioned or has an innovation
        # condition number within a factor of 2 of the guard, on either side.
        rng = np.random.default_rng(seed)
        model = LinearMeasurementModel(np.eye(2), 1e-6 * np.eye(2))
        covs = [_ill_conditioned_cov(rng, 1e6 * 2.0 ** rng.uniform(-1, 1))
                if rng.uniform() < 0.5 else random_spd(rng, 2) for _ in range(order)]
        prior = GaussianMixture(np.full(order, 1.0 / order), rng.standard_normal((order, 2)), covs)
        first_bad = None
        for k, cov in enumerate(covs):
            w = np.linalg.eigvalsh(cov + model.R)
            if w.min() <= 0.0 or w.max() / w.min() > MAX_INNOVATION_CONDITION:
                first_bad = k
                break
        if first_bad is None:
            assert gsf_update(prior, model, np.zeros(2)).posterior.order == order
        else:
            with pytest.raises(ConditioningError, match=f"^component {first_bad}: "):
                gsf_update(prior, model, np.zeros(2))
