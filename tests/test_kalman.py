"""Tests for the Wasserstein-optimal linear update and orthogonality diagnostics."""

import time
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wassfilter import (ConditioningError, DiracPoint, DivergenceError, GainPair,
                        Gaussian, LinearMeasurementModel, LinearPropagationModel,
                        ValidationError, kalman_gains,
                        kalman_update, orthogonality_residuals,
                        orthogonality_scales, stationary_prior_error_cov,
                        update_error_cost, w2_gaussian_dirac,
                        wasserstein_posterior_cost)

from wassfilter.kalman import _apply_linear_update

from conftest import assert_close_12, random_gaussian, random_mixture, random_spd


def _random_instance(rng, n=None, m=None):
    n = n or int(rng.choice([1, 2, 4]))
    m = m or int(rng.choice([1, 2, 4]))
    sigma = random_spd(rng, n)
    model = LinearMeasurementModel(rng.standard_normal((m, n)), random_spd(rng, m))
    return sigma, model


def _information_form_update(x, sigma, model, y):
    """Independent oracle: textbook information-filter measurement update."""
    r_inv = np.linalg.inv(model.R)
    post_cov = np.linalg.inv(np.linalg.inv(sigma) + model.C.T @ r_inv @ model.C)
    post_mean = post_cov @ (np.linalg.inv(sigma) @ x + model.C.T @ r_inv @ y)
    return post_mean, post_cov


class TestKalmanGains:
    def test_scalar_even_split(self):
        pair = kalman_gains([[1.0]], LinearMeasurementModel([[1.0]], [[1.0]]))
        assert pair.H[0, 0] == pytest.approx(0.5, abs=1e-15)
        assert pair.G[0, 0] == pytest.approx(0.5, abs=1e-15)

    def test_uninformative_measurement_limit(self):
        pair = kalman_gains([[1.0]], LinearMeasurementModel([[1.0]], [[1e12]]))
        assert abs(pair.H[0, 0]) < 1e-11

    def test_local_perturbation_oracle(self, rng):
        # Oracle: the trace cost restricted to G = I - H C never decreases
        # under small random perturbations of H*.
        for _ in range(20):
            sigma, model = _random_instance(rng)
            h_star = kalman_gains(sigma, model).H
            base = update_error_cost(h_star, sigma, model)
            for _ in range(10):
                delta = rng.standard_normal(h_star.shape)
                delta *= 1e-3 / np.linalg.norm(delta)
                assert update_error_cost(h_star + delta, sigma, model) >= base - 1e-15

    def test_first_order_conditions(self, rng):
        # FOC1 vanishes identically at G* (G + H C - I = 0); FOC2 is
        # (H C - I) S C^T + H R = 0 once the cross term is dropped.
        for _ in range(50):
            sigma, model = _random_instance(rng)
            pair = kalman_gains(sigma, model)
            n = model.state_dim
            slack = pair.G + pair.H @ model.C - np.eye(n)
            assert np.linalg.norm(slack @ random_spd(rng, n)) < 1e-10
            foc2 = (pair.H @ model.C - np.eye(n)) @ sigma @ model.C.T + pair.H @ model.R
            assert np.linalg.norm(foc2) < 1e-10

    def test_hessian_positive_definite(self, rng):
        for _ in range(50):
            sigma, model = _random_instance(rng)
            s = model.C @ sigma @ model.C.T + model.R
            assert np.linalg.eigvalsh(0.5 * (s + s.T)).min() > 0.0

    def test_singular_innovation_raises(self):
        model = LinearMeasurementModel([[0.0, 0.0]], [[0.0]])
        with pytest.raises(ConditioningError):
            kalman_gains(np.eye(2), model)

    def test_dimension_mismatch(self):
        with pytest.raises(ValidationError):
            kalman_gains(np.eye(3), LinearMeasurementModel([[1.0, 0.0]], [[1.0]]))

    @pytest.mark.parametrize("build, message", [
        (lambda: LinearMeasurementModel([[1.0, 0.0]], np.eye(2)),
         "C maps to dimension 1 but R is 2x2"),
        (lambda: GainPair(np.ones((2, 3)), np.ones((2, 1))), r"G must be square, got \(2, 3\)"),
        (lambda: GainPair(np.eye(2), np.ones((3, 1))), "H has 3 rows but G is 2x2"),
        (lambda: LinearPropagationModel(np.ones((2, 3)), np.eye(2)),
         r"A must be square, got \(2, 3\)"),
        (lambda: LinearPropagationModel(np.eye(2), np.eye(3)), "A is 2x2 but Q is 3x3"),
    ], ids=["R_rows", "G_not_square", "H_rows", "A_not_square", "Q_shape"])
    def test_models_reject_mismatched_shapes(self, build, message):
        with pytest.raises(ValidationError, match=message):
            build()

    @pytest.mark.parametrize("build, name", [
        (lambda: LinearMeasurementModel([[1.0, 0.0]], [[1e308]]), "R"),
        (lambda: LinearPropagationModel([[0.5]], [[1e308]]), "Q"),
    ], ids=["R", "Q"])
    def test_huge_noise_covariance_kept_unchanged(self, build, name):
        # A finite PSD noise covariance builds as given, without the overflow
        # of 0.5 * (R + R^T) and its RuntimeWarning.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            model = build()
        np.testing.assert_array_equal(getattr(model, name), [[1e308]])


class TestKalmanUpdate:
    def test_zero_innovation_keeps_mean(self, rng):
        sigma, model = _random_instance(rng)
        x = rng.standard_normal(model.state_dim)
        post = kalman_update(Gaussian(x, sigma), sigma, model, model.C @ x)
        np.testing.assert_allclose(post.mean, x, atol=1e-12)
        assert np.trace(post.cov) < np.trace(sigma)

    def test_scalar_worked_case(self):
        model = LinearMeasurementModel([[1.0]], [[1.0]])
        post = kalman_update(Gaussian([0.0], [[1.0]]), [[1.0]], model, [2.0])
        assert post.mean[0] == pytest.approx(1.0, abs=1e-15)
        assert post.cov[0, 0] == pytest.approx(0.5, abs=1e-15)

    def test_information_form_oracle(self, rng):
        for _ in range(200):
            sigma, model = _random_instance(rng)
            x = rng.standard_normal(model.state_dim)
            y = rng.standard_normal(model.meas_dim)
            post = kalman_update(Gaussian(x, sigma), sigma, model, y)
            mean_ref, cov_ref = _information_form_update(x, sigma, model, y)
            assert (np.linalg.norm(post.cov - cov_ref) / np.linalg.norm(cov_ref)) < 1e-12
            assert (np.linalg.norm(post.mean - mean_ref)
                    / max(1.0, np.linalg.norm(mean_ref))) < 1e-12

    def test_posterior_trace_contracts(self, rng):
        for _ in range(100):
            sigma, model = _random_instance(rng)
            post = kalman_update(Gaussian(np.zeros(model.state_dim), sigma), sigma,
                                 model, rng.standard_normal(model.meas_dim))
            assert np.trace(post.cov) <= np.trace(sigma) + 1e-12

    def test_posterior_cov_symmetric(self, rng):
        sigma, model = _random_instance(rng)
        post = kalman_update(Gaussian(np.zeros(model.state_dim), sigma), sigma,
                             model, rng.standard_normal(model.meas_dim))
        np.testing.assert_array_equal(post.cov, post.cov.T)


def _loop_update(means, covs, gains, model, y):
    """Reference update: one quadratic-form covariance and cost per component."""
    eye = np.eye(model.state_dim)
    post_means, post_covs, costs = [], [], []
    for mu, s, h in zip(means, covs, gains):
        a = h @ model.C - eye
        cov = a @ s @ a.T + h @ model.R @ h.T
        post_means.append(mu + h @ (y - model.C @ mu))
        post_covs.append(0.5 * (cov + cov.T))
        costs.append(np.trace(a @ s @ a.T) + np.trace(h @ model.R @ h.T))
    return post_means, post_covs, np.array(costs)


class TestDimensionChecks:
    """The updates reject a measurement or prior of another dimension than
    the model's before any arithmetic."""

    @pytest.mark.parametrize("prior_dim, y, message", [
        (2, [0.1, 0.2], "measurement has dimension 2, model expects 1"),
        (3, [0.1], "prior has dimension 3, model expects 2"),
    ], ids=["y", "prior"])
    def test_kalman_update(self, rng, prior_dim, y, message):
        prior = random_gaussian(rng, prior_dim)
        with pytest.raises(ValidationError, match=message):
            kalman_update(prior, prior.cov, LinearMeasurementModel([[1.0, 0.0]], [[1.0]]), y)

    def test_wasserstein_posterior_cost(self, rng):
        prior = random_gaussian(rng, 3)
        gains = GainPair(np.eye(3), np.zeros((3, 1)))
        with pytest.raises(ValidationError, match="prior has dimension 3, model expects 2"):
            wasserstein_posterior_cost(gains, prior, prior.cov,
                                       LinearMeasurementModel([[1.0, 0.0]], [[1.0]]))


class TestQuadraticFormUpdate:
    @settings(max_examples=60, deadline=None, database=None)
    @given(seed=st.integers(0, 2**32 - 1), order=st.integers(1, 10), m=st.integers(1, 2))
    def test_matches_component_loop(self, seed, order, m):
        # Gains away from the Kalman point, so the quadratic form is exercised
        # off the optimum, where the short form S - H C S would be wrong.
        rng = np.random.default_rng(seed)
        prior = random_mixture(rng, order, 2)
        model = LinearMeasurementModel(rng.standard_normal((m, 2)), random_spd(rng, m, base=0.3))
        y = rng.standard_normal(m)
        means, covs = prior.means, prior.covs
        gains = np.stack([kalman_gains(s, model).H + 0.3 * rng.standard_normal((2, m))
                          for s in covs])
        post_means, post_covs, costs = _apply_linear_update(means, covs, gains, model,
                                                            y - means @ model.C.T)
        ref_means, ref_covs, ref_costs = _loop_update(means, covs, gains, model, y)
        assert_close_12(costs, ref_costs)
        np.testing.assert_array_equal(update_error_cost(gains, covs, model), costs)
        for k in range(order):
            assert_close_12(post_means[k], ref_means[k])
            assert_close_12(post_covs[k], ref_covs[k])


class TestPosteriorCost:
    def test_optimum_attains_posterior_trace(self, rng):
        for _ in range(50):
            sigma, model = _random_instance(rng)
            pair = kalman_gains(sigma, model)
            prior = Gaussian(np.zeros(model.state_dim), sigma)
            cost = wasserstein_posterior_cost(pair, prior, sigma, model)
            post = kalman_update(prior, sigma, model, np.zeros(model.meas_dim))
            assert abs(cost - np.trace(post.cov)) < 1e-12 * max(1.0, cost)

    def test_no_update_baseline(self, rng):
        sigma, model = _random_instance(rng)
        n, m = model.state_dim, model.meas_dim
        pair = GainPair(G=np.eye(n), H=np.zeros((n, m)))
        prior = Gaussian(np.zeros(n), sigma)
        assert wasserstein_posterior_cost(pair, prior, sigma, model) == pytest.approx(
            float(np.trace(sigma)), abs=1e-12)

    def test_optimality_over_random_gains(self, rng):
        # Oracle: random H with G = I - H C never beats the stationary point.
        for _ in range(20):
            sigma, model = _random_instance(rng)
            n = model.state_dim
            prior = Gaussian(np.zeros(n), sigma)
            best = wasserstein_posterior_cost(kalman_gains(sigma, model), prior, sigma, model)
            for _ in range(10):
                h = rng.standard_normal((n, model.meas_dim))
                pair = GainPair(G=np.eye(n) - h @ model.C, H=h)
                assert wasserstein_posterior_cost(pair, prior, sigma, model) >= best - 1e-12

    def test_var_x_prior_term(self, rng):
        # With G away from I - H C the state-variance term must contribute.
        sigma, model = _random_instance(rng, n=2, m=1)
        prior = Gaussian(np.zeros(2), sigma)
        h = rng.standard_normal((2, 1))
        pair = GainPair(G=np.eye(2), H=h)  # G + HC - I = HC != 0
        vx = random_spd(rng, 2)
        with_term = wasserstein_posterior_cost(pair, prior, sigma, model, var_x_prior=vx)
        without = wasserstein_posterior_cost(pair, prior, sigma, model)
        slack = pair.G + h @ model.C - np.eye(2)
        assert with_term - without == pytest.approx(
            float(np.trace(slack @ vx @ slack.T)), rel=1e-12)

    def test_links_to_dirac_distance(self, rng):
        # tr(posterior cov) at the optimum equals the squared Wasserstein
        # distance between the centered posterior error and the origin Dirac.
        sigma, model = _random_instance(rng)
        prior = Gaussian(np.zeros(model.state_dim), sigma)
        pair = kalman_gains(sigma, model)
        cost = wasserstein_posterior_cost(pair, prior, sigma, model)
        post = kalman_update(prior, sigma, model, np.zeros(model.meas_dim))
        err = Gaussian(np.zeros(model.state_dim), post.cov, eig_floor=0.0)
        dirac = DiracPoint(np.zeros(model.state_dim))
        assert abs(w2_gaussian_dirac(err, dirac) - cost) < 1e-12 * max(1.0, cost)


def _stable_system(rng, n=2, m=1):
    a = rng.standard_normal((n, n))
    a *= 0.7 / max(np.abs(np.linalg.eigvals(a)).max(), 1e-9)
    prop = LinearPropagationModel(a, random_spd(rng, n, base=0.3))
    model = LinearMeasurementModel(rng.standard_normal((m, n)), random_spd(rng, m, base=0.3))
    return model, prop


class TestStationaryCovariance:
    def test_matches_discrete_riccati_oracle(self, rng):
        # Oracle: the Riccati recursion itself. One optimal-filter step from
        # the stationary covariance returns it, and its gain stabilizes the
        # error loop: spectral radius of A (I - K C) below 1.
        for _ in range(10):
            model, prop = _stable_system(rng, m=int(rng.choice([1, 2])))
            sigma = stationary_prior_error_cov(model, prop)
            h = kalman_gains(sigma, model).H
            g = np.eye(prop.dim) - h @ model.C
            step = prop.A @ (g @ sigma @ g.T + h @ model.R @ h.T) @ prop.A.T + prop.Q
            assert np.linalg.norm(step - sigma) / np.linalg.norm(sigma) < 1e-12
            assert np.abs(np.linalg.eigvals(prop.A @ g)).max() < 1.0

    def test_zero_noise_fixed_point_is_zero(self):
        model = LinearMeasurementModel([[1.0, 0.0]], [[0.3]])
        prop = LinearPropagationModel([[0.9, 0.1], [0.0, 0.8]], np.zeros((2, 2)))
        np.testing.assert_array_equal(stationary_prior_error_cov(model, prop),
                                      np.zeros((2, 2)))

    @pytest.mark.parametrize("a", [1.5, 1.0])
    def test_undetectable_mode_raises_fast(self, a):
        # A mode the sensor cannot see that does not decay has no stationary
        # filter; the solver must say so at once and without numpy warnings.
        import scipy.linalg  # noqa: F401  (its first import is not solve time)

        model = LinearMeasurementModel([[0.0]], [[1.0]])
        prop = LinearPropagationModel([[a]], [[1.0]])
        tic = time.perf_counter()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ConditioningError):
                stationary_prior_error_cov(model, prop)
        assert time.perf_counter() - tic < 1.0

    def test_dimension_mismatch(self):
        model = LinearMeasurementModel([[1.0, 0.0]], [[1.0]])
        with pytest.raises(ValidationError):
            stationary_prior_error_cov(model, LinearPropagationModel([[0.5]], [[1.0]]))


def _perturbed_kalman_gains(model, prop):
    h = kalman_gains(stationary_prior_error_cov(model, prop), model).H + 0.1
    return GainPair(G=np.eye(prop.dim) - h @ model.C, H=h)


def _simulated_residuals(gains, model, prop, rng, n_samples, steps):
    """Monte Carlo ``|E[e+ x-^T]|_F`` and ``|E[e+ y^T]|_F``: ``n_samples`` copies
    of the fixed-gain closed loop started at ``x = e- = 0`` and run ``steps``
    cycles, averaged over the last."""
    n, m = prop.dim, model.meas_dim
    q_root = np.linalg.cholesky(prop.Q)
    r_root = np.linalg.cholesky(model.R)
    x = np.zeros((n_samples, n))
    e_prior = np.zeros((n_samples, n))
    for _ in range(steps):
        x_prior = x + e_prior
        y = x @ model.C.T + rng.standard_normal((n_samples, m)) @ r_root.T
        e_post = x_prior @ gains.G.T + y @ gains.H.T - x
        w = rng.standard_normal((n_samples, n)) @ q_root.T
        x = x @ prop.A.T + w
        e_prior = e_post @ prop.A.T - w
    return (float(np.linalg.norm(e_post.T @ x_prior / n_samples)),
            float(np.linalg.norm(e_post.T @ y / n_samples)))


class TestOrthogonality:
    def test_residuals_vanish_at_kalman_gains(self, rng):
        for _ in range(5):
            model, prop = _stable_system(rng, m=int(rng.choice([1, 2])))
            gains = kalman_gains(stationary_prior_error_cov(model, prop), model)
            res_state, res_meas = orthogonality_residuals(gains, model, prop)
            scale_state, scale_meas = orthogonality_scales(gains, model, prop)
            assert res_state <= 1e-12 * scale_state
            assert res_meas <= 1e-12 * scale_meas

    def test_perturbed_gain_violates_bound(self, rng):
        for _ in range(5):
            model, prop = _stable_system(rng)
            gains = _perturbed_kalman_gains(model, prop)
            res_state, res_meas = orthogonality_residuals(gains, model, prop)
            scale_state, scale_meas = orthogonality_scales(gains, model, prop)
            assert res_state >= 1e-2 * scale_state or res_meas >= 1e-2 * scale_meas

    def test_matches_closed_loop_simulation(self, rng):
        # Oracle: simulate the loop from rest, with no stationary law, well past
        # its transient; the exact residuals must sit within the Monte Carlo noise.
        model, prop = _stable_system(rng)
        gains = _perturbed_kalman_gains(model, prop)
        # The (x, e-) loop is block lower-triangular with diagonal blocks A and A G.
        radius = max(np.abs(np.linalg.eigvals(m)).max() for m in (prop.A, prop.A @ gains.G))
        steps = int(np.ceil(np.log(1e-8) / np.log(radius)))
        n_samples = 100_000
        simulated = _simulated_residuals(gains, model, prop, np.random.default_rng(21),
                                         n_samples, steps)
        exact = orthogonality_residuals(gains, model, prop)
        bound = 5.0 / np.sqrt(n_samples)
        for sim, ex, scale in zip(simulated, exact, orthogonality_scales(gains, model, prop)):
            assert abs(sim - ex) < bound * scale

    def test_zero_noise_residuals_exactly_zero(self):
        model = LinearMeasurementModel([[1.0, 0.0]], [[0.0]])
        prop = LinearPropagationModel([[0.9, 0.1], [0.0, 0.8]], np.zeros((2, 2)))
        gains = GainPair(G=np.eye(2), H=np.zeros((2, 1)))
        res_state, res_meas = orthogonality_residuals(gains, model, prop)
        assert res_state == 0.0
        assert res_meas == 0.0

    def test_unstable_loop_raises(self):
        model = LinearMeasurementModel([[1.0]], [[1.0]])
        prop = LinearPropagationModel([[1.2]], [[0.5]])
        gains = GainPair(G=np.eye(1), H=np.zeros((1, 1)))
        with pytest.raises(DivergenceError):
            orthogonality_residuals(gains, model, prop)
