"""Tests for the nonlinear Gaussian Sum Filter solver and update."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wassfilter import (Gaussian, GaussianMixture, GsfUpdateResult, LinearMeasurementModel,
                        NgsfProblem, NgsfSolution, ValidationError, apply_ngsf_solution,
                        gsf_update, kalman_gains, kalman_update, kkt_residuals,
                        mixture_mean_cov, ngsf_cost, ngsf_gradients, ngsf_solve, ngsf_update)
from wassfilter.gaussian import ensure_spd

from conftest import random_mixture, random_spd


def _problem(rng, order=3, n=2, m=1):
    prior = random_mixture(rng, order, n)
    model = LinearMeasurementModel(rng.standard_normal((m, n)), random_spd(rng, m, base=0.3))
    return NgsfProblem.from_gsf(prior, model, rng.standard_normal(m))


class TestCost:
    def test_single_component_kalman_gain_gives_posterior_trace(self, rng):
        g = Gaussian(rng.standard_normal(2), random_spd(rng, 2))
        prior = GaussianMixture([1.0], [g.mean], [g.cov])
        model = LinearMeasurementModel(rng.standard_normal((1, 2)), [[0.5]])
        h = kalman_gains(g.cov, model).H
        post = kalman_update(g, g.cov, model, np.zeros(1))
        assert ngsf_cost([1.0], [h], prior, model) == pytest.approx(
            float(np.trace(post.cov)), rel=1e-12)

    def test_zero_gain_gives_weighted_prior_traces(self, rng):
        prior = random_mixture(rng, 3, 2)
        model = LinearMeasurementModel(rng.standard_normal((1, 2)), [[0.5]])
        gains = [np.zeros((2, 1))] * 3
        expected = float(sum(w * np.trace(g.cov) for w, g in prior.components))
        assert ngsf_cost(prior.weights, gains, prior, model) == pytest.approx(expected, rel=1e-14)

    def test_linear_along_simplex_edge(self, rng):
        # Cost must interpolate linearly between two weight vectors.
        prior = random_mixture(rng, 3, 2)
        model = LinearMeasurementModel(rng.standard_normal((1, 2)), [[0.5]])
        gains = [rng.standard_normal((2, 1)) for _ in range(3)]
        w1 = np.array([0.7, 0.2, 0.1])
        w2 = np.array([0.1, 0.3, 0.6])
        v1 = ngsf_cost(w1, gains, prior, model)
        v2 = ngsf_cost(w2, gains, prior, model)
        for theta in (1 / 6, 1 / 3, 1 / 2, 2 / 3, 5 / 6):
            blend = theta * w1 + (1 - theta) * w2
            vb = ngsf_cost(blend, gains, prior, model)
            assert abs(vb - (theta * v1 + (1 - theta) * v2)) < 1e-12

    def test_rejects_off_simplex_weights(self, rng):
        prior = random_mixture(rng, 2, 2)
        model = LinearMeasurementModel(rng.standard_normal((1, 2)), [[0.5]])
        gains = [np.zeros((2, 1))] * 2
        with pytest.raises(ValidationError):
            ngsf_cost([0.7, 0.7], gains, prior, model)
        with pytest.raises(ValidationError):
            ngsf_cost([1.5, -0.5], gains, prior, model)

    def test_rejects_matrix_weights(self, rng):
        prior = random_mixture(rng, 2, 2)
        model = LinearMeasurementModel(rng.standard_normal((1, 2)), [[0.5]])
        with pytest.raises(ValidationError, match=r"weights must be a vector, got shape \(1, 2\)"):
            ngsf_cost([[0.5, 0.5]], [np.zeros((2, 1))] * 2, prior, model)

    def test_rejects_wrong_gain_shape(self, rng):
        prior = random_mixture(rng, 2, 2)
        model = LinearMeasurementModel(rng.standard_normal((1, 2)), [[0.5]])
        with pytest.raises(ValidationError):
            ngsf_cost([0.5, 0.5], [np.zeros((1, 2))] * 2, prior, model)


class TestGradients:
    def test_stationary_at_kalman_gains(self, rng):
        problem = _problem(rng, order=3)
        _, grad_h = ngsf_gradients(problem.warm_weights, problem.warm_gains,
                                   problem.prior, problem.model)
        for g in grad_h:
            assert np.linalg.norm(g) < 1e-10

    def test_zero_weight_zeroes_gain_block(self, rng):
        prior = random_mixture(rng, 2, 2)
        model = LinearMeasurementModel(rng.standard_normal((1, 2)), [[0.5]])
        gains = [rng.standard_normal((2, 1)) for _ in range(2)]
        _, grad_h = ngsf_gradients([1.0, 0.0], gains, prior, model)
        np.testing.assert_array_equal(grad_h[1], np.zeros((2, 1)))

    def test_finite_difference_oracle(self, rng):
        # Oracle: central differences. Gains are checked elementwise; weights
        # along simplex-tangent directions (sum-preserving perturbations).
        step = 1e-6
        for _ in range(50):
            order = int(rng.integers(2, 5))
            prior = random_mixture(rng, order, 2)
            model = LinearMeasurementModel(rng.standard_normal((1, 2)), random_spd(rng, 1))
            raw = rng.uniform(0.1, 1.0, order)  # interior point: FD stays feasible
            weights = raw / raw.sum()
            gains = [rng.standard_normal((2, 1)) for _ in range(order)]
            grad_w, grad_h = ngsf_gradients(weights, gains, prior, model)

            for i in range(order):
                for idx in np.ndindex(gains[i].shape):
                    plus = [g.copy() for g in gains]
                    minus = [g.copy() for g in gains]
                    plus[i][idx] += step
                    minus[i][idx] -= step
                    fd = (ngsf_cost(weights, plus, prior, model)
                          - ngsf_cost(weights, minus, prior, model)) / (2 * step)
                    assert abs(fd - grad_h[i][idx]) <= 1e-6 * (1.0 + abs(grad_h[i][idx]))

            direction = rng.standard_normal(order)
            direction -= direction.mean()  # tangent to the simplex
            fd = (ngsf_cost(weights + step * direction, gains, prior, model)
                  - ngsf_cost(weights - step * direction, gains, prior, model)) / (2 * step)
            analytic = float(grad_w @ direction)
            assert abs(fd - analytic) <= 1e-6 * (1.0 + abs(analytic))


class TestSolve:
    def test_single_component_converges_immediately(self, rng):
        problem = _problem(rng, order=1)
        sol = ngsf_solve(problem)
        np.testing.assert_array_equal(sol.weights, problem.warm_weights)
        np.testing.assert_array_equal(sol.gains[0], problem.warm_gains[0])
        assert sol.final_cost == sol.warm_cost

    def test_symmetric_problem_keeps_equal_weights(self):
        # Mirror components with the measurement at the symmetry point: the
        # component costs tie, so the weight is split evenly over both.
        mu = np.array([2.0, -1.0])
        cov = np.array([[1.5, 0.2], [0.2, 0.8]])
        prior = GaussianMixture([0.5, 0.5], [mu, -mu], [cov, cov])
        model = LinearMeasurementModel([[1.0, 0.0]], [[0.5]])
        problem = NgsfProblem.from_gsf(prior, model, [0.0])
        grad_w, _ = ngsf_gradients(problem.warm_weights, problem.warm_gains, prior, model)
        assert abs(grad_w[0] - grad_w[1]) < 1e-12
        sol = ngsf_solve(problem)
        np.testing.assert_allclose(sol.weights, [0.5, 0.5], atol=1e-12)

    @pytest.mark.parametrize("ulps", [0, 1, 3, 8])
    def test_face_is_set_by_rounding_not_by_last_bits(self, rng, ulps):
        # Components 1, 3 and 4 tie at the minimum up to a few ulps, as costs
        # that are equal in exact arithmetic do after rounding; component 2 sits
        # 1e-9 above, far beyond rounding. The face is the tied three, split
        # evenly, whichever of them carries the extra ulps.
        prior = random_mixture(rng, 5, 2)
        model = LinearMeasurementModel([[1.0, 0.0]], [[0.5]])
        warm = gsf_update(prior, model, [0.0])
        low = 2e-6
        costs = np.array([3.0 * low, low, low * (1 + 1e-9), low, low])
        for j in (1, 3):
            for _ in range(ulps):
                costs[j] = np.nextafter(costs[j], np.inf)
        costed = GsfUpdateResult(warm.posterior, warm.gains, costs)
        sol = ngsf_solve(NgsfProblem.from_gsf(prior, model, [0.0], gsf_result=costed))
        np.testing.assert_array_equal(sol.weights, [0.0, 1 / 3, 0.0, 1 / 3, 1 / 3])
        assert sol.final_cost <= sol.warm_cost + 1e-12

    @settings(max_examples=40, deadline=None, database=None)
    @given(seed=st.integers(0, 2**32 - 1), order=st.integers(1, 6))
    def test_descent_contract(self, seed, order):
        # Global-minimum oracle: the final cost is the cheapest simplex vertex
        # at the warm-start gains, and no random feasible (w, H) beats it.
        rng = np.random.default_rng(seed)
        problem = _problem(rng, order=order)
        prior, model = problem.prior, problem.model
        sol = ngsf_solve(problem)
        assert ngsf_cost(sol.weights, sol.gains, prior, model) == sol.final_cost
        assert sol.final_cost == min(ngsf_cost(np.eye(order)[j], problem.warm_gains, prior, model)
                                     for j in range(order))
        assert sol.final_cost <= sol.warm_cost + 1e-12
        for _ in range(20):
            raw = rng.exponential(size=order) * (rng.uniform(size=order) < 0.7)
            weights = raw / raw.sum() if raw.sum() > 0 else np.eye(order)[rng.integers(order)]
            scale = 10.0 ** rng.uniform(-6, 1)
            gains = [h + scale * rng.standard_normal(h.shape) for h in problem.warm_gains]
            assert ngsf_cost(weights, gains, prior, model) >= sol.final_cost - 1e-12

    @settings(max_examples=40, deadline=None, database=None)
    @given(seed=st.integers(0, 2**32 - 1), order=st.integers(1, 6), m=st.integers(1, 2))
    def test_weights_ignore_measurement_and_prior_weights(self, seed, order, m):
        # c_i(K_i) depends only on S_i, C and R, so neither y nor the prior
        # weights can move the solution by a single bit.
        rng = np.random.default_rng(seed)
        problem = _problem(rng, order=order, m=m)
        prior, model = problem.prior, problem.model
        other = GaussianMixture.from_unnormalized(rng.uniform(0.01, 1.0, order), prior.nodes)
        base = ngsf_solve(problem).weights
        for p, y in ((prior, 10.0 * rng.standard_normal(m)), (other, problem.y)):
            np.testing.assert_array_equal(ngsf_solve(NgsfProblem.from_gsf(p, model, y)).weights,
                                          base)

    def test_kkt_at_convergence(self, rng):
        for _ in range(30):
            problem = _problem(rng, order=int(rng.integers(2, 6)))
            sol = ngsf_solve(problem)
            spread, violation = kkt_residuals(sol.weights, sol.gains,
                                              problem.prior, problem.model)
            scale = 1.0 + abs(sol.final_cost)
            assert spread <= 10 * 1e-10 * scale
            assert violation <= 10 * 1e-10 * scale

    def test_simplex_feasible_solution(self, rng):
        problem = _problem(rng, order=5)
        sol = ngsf_solve(problem)
        assert abs(sol.weights.sum() - 1.0) <= 1e-12
        assert sol.weights.min() >= 0.0

    def test_solution_rejects_cost_above_warm_start(self, rng):
        problem = _problem(rng, order=2)
        with pytest.raises(ValidationError):
            NgsfSolution(weights=problem.warm_weights, gains=problem.warm_gains,
                         warm_cost=1.0, final_cost=1.0 + 1e-9)


class TestUpdate:
    def test_single_component_matches_kalman(self, rng):
        g = Gaussian(rng.standard_normal(2), random_spd(rng, 2))
        model = LinearMeasurementModel(rng.standard_normal((1, 2)), [[0.5]])
        y = rng.standard_normal(1)
        problem = NgsfProblem.from_gsf(GaussianMixture([1.0], [g.mean], [g.cov]), model, y)
        res = ngsf_update(problem)
        ref = kalman_update(g, g.cov, model, y)
        np.testing.assert_allclose(res.posterior.nodes[0].mean, ref.mean, atol=1e-12)
        np.testing.assert_allclose(res.posterior.nodes[0].cov, ref.cov, atol=1e-12)

    def test_degenerate_descent_matches_gsf_posterior(self):
        # Symmetric problem: the component costs tie, so the weights stay
        # split evenly and the nodes equal the GSF posterior nodes.
        mu = np.array([1.0, 0.5])
        cov = np.array([[1.0, 0.1], [0.1, 0.6]])
        prior = GaussianMixture([0.5, 0.5], [mu, -mu], [cov, cov])
        model = LinearMeasurementModel([[1.0, 0.0]], [[0.5]])
        gsf_res = gsf_update(prior, model, [0.0])
        problem = NgsfProblem.from_gsf(prior, model, [0.0], gsf_result=gsf_res)
        res = ngsf_update(problem)
        np.testing.assert_allclose(res.posterior.weights, gsf_res.posterior.weights,
                                   atol=1e-12)
        for a, b in zip(res.posterior.nodes, gsf_res.posterior.nodes):
            np.testing.assert_allclose(a.mean, b.mean, atol=1e-12)
            np.testing.assert_allclose(a.cov, b.cov, atol=1e-12)

    def test_warm_start_solution_reproduces_gsf_posterior(self, rng):
        # Applying the warm start itself (GSF gains and weights) must give the
        # GSF posterior bit for bit: both share one quadratic-form update.
        for _ in range(20):
            prior = random_mixture(rng, int(rng.integers(1, 6)), 2)
            model = LinearMeasurementModel(rng.standard_normal((1, 2)),
                                           random_spd(rng, 1, base=0.3))
            y = rng.standard_normal(1)
            gsf_res = gsf_update(prior, model, y)
            problem = NgsfProblem.from_gsf(prior, model, y, gsf_result=gsf_res)
            cost = ngsf_cost(problem.warm_weights, problem.warm_gains, prior, model)
            warm = NgsfSolution(weights=problem.warm_weights, gains=problem.warm_gains,
                                warm_cost=cost, final_cost=cost)
            res = apply_ngsf_solution(problem, warm)
            np.testing.assert_array_equal(res.posterior.weights, gsf_res.posterior.weights)
            for a, b in zip(res.posterior.nodes, gsf_res.posterior.nodes):
                np.testing.assert_array_equal(a.mean, b.mean)
                np.testing.assert_array_equal(a.cov, b.cov)

    def test_rejects_non_warm_gains(self, rng):
        problem = _problem(rng, order=3)
        weights = problem.warm_weights
        gains = list(problem.warm_gains)
        gains[1] = gains[1] + 1e-9
        for bad in (tuple(gains), problem.warm_gains[:2]):
            solution = NgsfSolution(weights=weights, gains=bad, warm_cost=1.0, final_cost=1.0)
            with pytest.raises(ValidationError, match="warm-start"):
                apply_ngsf_solution(problem, solution)

    def test_accepts_an_equal_copy_of_the_warm_gains(self, rng):
        problem = _problem(rng, order=3)
        solution = ngsf_solve(problem)
        copied = NgsfSolution(weights=solution.weights, gains=problem.warm_gains.copy(),
                              warm_cost=solution.warm_cost, final_cost=solution.final_cost)
        assert copied.gains is not problem.warm_gains
        res = apply_ngsf_solution(problem, copied)
        assert res.posterior.weights.tobytes() == solution.weights.tobytes()
        moved = NgsfSolution(weights=solution.weights, gains=problem.warm_gains + 1e-9,
                             warm_cost=solution.warm_cost, final_cost=solution.final_cost)
        with pytest.raises(ValidationError) as info:
            apply_ngsf_solution(problem, moved)
        assert str(info.value) == "nGSF solution gains are not the warm-start (Kalman) gains"

    def test_dominance_message_prints_plain_floats(self, rng):
        problem = _problem(rng, order=3)
        with pytest.raises(ValidationError) as info:
            NgsfSolution(weights=problem.warm_weights, gains=problem.warm_gains,
                         warm_cost=np.float64(1.0), final_cost=np.float64(1.25))
        assert str(info.value) == "final cost 1.25 is above the warm-start cost 1.0"

    @pytest.mark.parametrize("weights, message", [
        ([0.5, 0.25, 0.5], "mixture weights sum to 1.25, not 1"),
        ([1.5, -0.5, 0.0], "negative mixture weight -0.5"),
        ([np.nan, 0.5, 0.5], "weights contains non-finite entries"),
        ([np.inf, 0.0, 0.0], "weights contains non-finite entries"),
        ([0.5, 0.5], "2 weights need means of shape (2, n) and covs of shape (2, n, n), "
                     "got (3, 2) and (3, 2, 2)"),
        ([], "0 weights need means of shape (0, n) and covs of shape (0, n, n), "
             "got (3, 2) and (3, 2, 2)"),
        ([[0.5, 0.25, 0.25]], "weights must be a 1-D vector, got shape (1, 3)"),
    ])
    def test_rejects_a_hand_built_solutions_weights(self, rng, weights, message):
        # NgsfSolution checks its weights when it is built, so weights off the
        # simplex, non-finite or not a vector fail there; only a vector of the
        # wrong length, the empty one included, reaches apply_ngsf_solution.
        problem = _problem(rng, order=3)
        solution = None
        with pytest.raises(ValidationError) as info:
            solution = NgsfSolution(weights=weights, gains=problem.warm_gains,
                                    warm_cost=1.0, final_cost=1.0)
            apply_ngsf_solution(problem, solution)
        assert str(info.value) == message
        assert (solution is not None) == (np.shape(weights) in ((2,), (0,)))

    def test_solver_and_public_solutions_give_the_same_posterior(self, rng):
        problem = _problem(rng, order=4)
        solved = ngsf_solve(problem)
        public = NgsfSolution(weights=solved.weights.tolist(), gains=problem.warm_gains,
                              warm_cost=solved.warm_cost, final_cost=solved.final_cost)
        nodes = problem.warm.posterior
        for solution in (solved, public):
            posterior = apply_ngsf_solution(problem, solution).posterior
            assert posterior.weights.tobytes() == solved.weights.tobytes()
            assert posterior.means is nodes.means and posterior.covs is nodes.covs
            assert posterior.eig_floor == nodes.eig_floor

    def test_random_problems_posterior_psd(self, rng):
        for _ in range(100):
            problem = _problem(rng, order=3)
            res = ngsf_update(problem)
            for node in res.posterior.nodes:
                assert np.linalg.eigvalsh(node.cov).min() >= -1e-12

    def test_final_cost_never_exceeds_warm_start(self, rng):
        for _ in range(30):
            problem = _problem(rng, order=int(rng.integers(2, 6)))
            sol = ngsf_solve(problem)
            warm = ngsf_cost(problem.warm_weights, problem.warm_gains,
                             problem.prior, problem.model)
            final = ngsf_cost(sol.weights, sol.gains, problem.prior, problem.model)
            assert final <= warm + 1e-12


class TestTrustedResults:
    """The update path builds its results without the public constructors'
    copies; they must hold the same values, read-only."""

    @staticmethod
    def _assert_frozen_equal(a, b):
        assert a.dtype == float and not a.flags.writeable
        assert a.shape == b.shape and a.tobytes() == b.tobytes()

    def test_results_match_public_constructors(self, rng):
        prior = random_mixture(rng, 4, 2)
        model = LinearMeasurementModel(rng.standard_normal((1, 2)), [[0.3]])
        y = rng.standard_normal(1)
        warm = gsf_update(prior, model, y)
        public = GsfUpdateResult(posterior=warm.posterior, gains=np.array(warm.gains),
                                 component_costs=np.array(warm.component_costs))
        self._assert_frozen_equal(warm.gains, public.gains)
        self._assert_frozen_equal(warm.component_costs, public.component_costs)

        problem = NgsfProblem.from_gsf(prior, model, y, gsf_result=warm)
        public = NgsfProblem(prior=prior, model=model, y=y, warm=warm)
        self._assert_frozen_equal(problem.y, public.y)
        assert problem.warm is warm

        solution = ngsf_solve(problem)
        public = NgsfSolution(weights=np.array(solution.weights), gains=problem.warm_gains,
                              warm_cost=solution.warm_cost, final_cost=solution.final_cost)
        self._assert_frozen_equal(solution.weights, public.weights)
        assert solution.gains is problem.warm_gains

    def test_from_gsf_neither_freezes_nor_shares_the_measurement(self, rng):
        prior = random_mixture(rng, 3, 2)
        model = LinearMeasurementModel(rng.standard_normal((1, 2)), [[0.3]])
        y = rng.standard_normal(1)
        problem = NgsfProblem.from_gsf(prior, model, y)
        assert y.flags.writeable and not np.shares_memory(problem.y, y)

    def test_measurement_must_match_the_sensor(self, rng):
        # A scalar sensor: neither entry point builds a problem around a
        # measurement of another dimension.
        prior = random_mixture(rng, 2, 2)
        model = LinearMeasurementModel([[1.0, 0.0]], [[0.3]])
        warm = gsf_update(prior, model, [1.0])
        with pytest.raises(ValidationError, match="measurement has dimension 3, model expects 1"):
            NgsfProblem.from_gsf(prior, model, [1.0, 2.0, 3.0], warm)
        with pytest.raises(ValidationError, match="measurement has dimension 2, model expects 1"):
            NgsfProblem(prior=prior, model=model, y=[5.0, 6.0], warm=warm)

    def test_from_gsf_rejects_an_update_of_another_prior(self, rng):
        model = LinearMeasurementModel(rng.standard_normal((1, 2)), [[0.3]])
        other = gsf_update(random_mixture(rng, 2, 2), model, [0.0])
        with pytest.raises(ValidationError, match="gains of shape"):
            NgsfProblem.from_gsf(random_mixture(rng, 3, 2), model, [0.0], gsf_result=other)

    def test_trusted_solution_keeps_the_dominance_check(self, rng):
        problem = _problem(rng, order=2)
        with pytest.raises(ValidationError, match="above the warm-start cost"):
            NgsfSolution._trusted(np.array(problem.warm_weights), problem.warm_gains,
                                  warm_cost=1.0, final_cost=1.0 + 1e-9)


def _written_out_update(prior, model, y):
    """The GSF update and the nGSF face, formula by formula, as the update
    path computes them: the stacked ``eigh`` of ``C S C^T + R``, its
    whitening map and gains, the quadratic-form error covariances floored by
    ``ensure_spd``, the log-space Bayes weights, then the face of cheapest
    components."""
    n, m = model.state_dim, model.meas_dim
    c, r, means, covs = model.C, model.R, prior.means, prior.covs
    w, v = np.linalg.eigh(c @ covs @ c.T + r)
    white = np.swapaxes(v, -1, -2) / np.sqrt(w)[..., None]
    gains = np.swapaxes(white @ (c @ covs), -1, -2) @ white
    innovations = y - means @ c.T
    post_means = means + (gains @ innovations[..., None])[..., 0]
    g = np.eye(n) - gains @ c
    errors = g @ covs @ np.swapaxes(g, -1, -2) + gains @ r @ np.swapaxes(gains, -1, -2)
    costs = np.trace(errors, axis1=-2, axis2=-1)
    z = (white @ innovations[:, :, None])[:, :, 0]
    log_like = -0.5 * (m * np.log(2.0 * np.pi) + np.log(w).sum(axis=-1) + (z * z).sum(axis=1))
    log_w = np.log(prior.weights) + log_like
    shifted = np.exp(log_w - log_w[np.isfinite(log_w)].max())
    weights = shifted / shifted.sum()
    low = costs.min()
    face = costs <= low + min(2 * (3 * n + 2 * m) * np.finfo(float).eps * abs(low), 1e-12)
    face_weights = face / face.sum()
    return {"weights": weights, "means": post_means, "covs": ensure_spd(errors),
            "gains": gains, "costs": costs, "face_weights": face_weights,
            "warm_cost": np.array(float(weights @ costs)),
            "final_cost": np.array(float(face_weights @ costs))}


class TestUpdatePathBits:
    """``gsf_update``, ``ngsf_solve`` and ``apply_ngsf_solution`` give the bits
    of the update's formulas written out, and the nGSF posterior keeps the GSF
    posterior's nodes."""

    @pytest.mark.parametrize("order", [1, 3, 10])
    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("m", [1, 2])
    def test_bit_for_bit_the_written_out_formulas(self, order, n, m):
        rng = np.random.default_rng(1000 * order + 10 * n + m)
        for _ in range(4):
            prior = random_mixture(rng, order, n)
            model = LinearMeasurementModel(rng.standard_normal((m, n)),
                                           random_spd(rng, m, base=0.3))
            y = rng.standard_normal(m)
            old = _written_out_update(prior, model, y)
            warm = gsf_update(prior, model, y)
            problem = NgsfProblem.from_gsf(prior, model, y, gsf_result=warm)
            solution = ngsf_solve(problem)
            res = apply_ngsf_solution(problem, solution)
            new = {"weights": warm.posterior.weights, "means": warm.posterior.means,
                   "covs": warm.posterior.covs, "gains": warm.gains,
                   "costs": warm.component_costs, "face_weights": solution.weights,
                   "warm_cost": np.array(solution.warm_cost),
                   "final_cost": np.array(solution.final_cost)}
            for name, value in old.items():
                assert new[name].shape == value.shape, name
                assert new[name].tobytes() == value.tobytes(), name
            assert res.posterior.weights.tobytes() == old["face_weights"].tobytes()
            for name in ("means", "covs"):
                assert getattr(res.posterior, name).tobytes() == old[name].tobytes()
            assert res.gains.tobytes() == old["gains"].tobytes()
            assert res.component_costs.tobytes() == old["costs"].tobytes()
            estimate, cov = mixture_mean_cov(res.posterior)
            ref = GaussianMixture(old["face_weights"], old["means"], old["covs"], eig_floor=0.0)
            for a, b in zip((estimate, cov), mixture_mean_cov(ref)):
                assert a.tobytes() == b.tobytes()
