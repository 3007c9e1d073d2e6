"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines alongside the pytest verdicts.
"""

import json
import time
from contextlib import contextmanager
from dataclasses import replace

import numpy as np

from wassfilter import (DiracPoint, DuffingModel, EmFitConfig, ExperimentConfig,
                        GainPair, Gaussian, GaussianMixture,
                        LinearMeasurementModel, LinearPropagationModel,
                        NgsfProblem, gsf_update,
                        kalman_gains, kalman_update, kkt_residuals,
                        monte_carlo_compare, ngsf_cost, ngsf_gradients,
                        ngsf_solve, propagate_cloud, run_experiment,
                        sample_gaussian, stationary_prior_error_cov, w2_distance,
                        w2_empirical, w2_gaussian_dirac, w2_gaussian_gaussian,
                        w2_mixture_dirac)
from wassfilter.kalman import _orthogonality

from conftest import random_gaussian, random_mixture, random_spd


@contextmanager
def criterion(number: int, description: str):
    tic = time.perf_counter()
    try:
        yield
    except Exception:
        print(f"\nFAIL  criterion {number}: {description}")
        raise
    print(f"\nPASS  criterion {number}: {description} "
          f"[{time.perf_counter() - tic:.1f}s]")


def test_criterion_1_kalman_recovery():
    with criterion(1, "Wasserstein-optimal update equals information-form Kalman"):
        tic = time.perf_counter()
        rng = np.random.default_rng(101)
        for _ in range(200):
            n = int(rng.choice([1, 2, 4]))
            m = int(rng.choice([1, 2, 4]))
            sigma = random_spd(rng, n)
            model = LinearMeasurementModel(rng.standard_normal((m, n)), random_spd(rng, m))
            x = rng.standard_normal(n)
            y = rng.standard_normal(m)

            pair = kalman_gains(sigma, model)
            post = kalman_update(Gaussian(x, sigma), sigma, model, y)

            r_inv = np.linalg.inv(model.R)
            cov_ref = np.linalg.inv(np.linalg.inv(sigma) + model.C.T @ r_inv @ model.C)
            mean_ref = cov_ref @ (np.linalg.inv(sigma) @ x + model.C.T @ r_inv @ y)
            gain_ref = cov_ref @ model.C.T @ r_inv

            assert np.linalg.norm(post.cov - cov_ref) / np.linalg.norm(cov_ref) < 1e-12
            assert (np.linalg.norm(post.mean - mean_ref)
                    / max(1.0, np.linalg.norm(mean_ref))) < 1e-12
            assert np.linalg.norm(pair.H - gain_ref) / np.linalg.norm(gain_ref) < 1e-12
            assert (np.linalg.norm(pair.G - (np.eye(n) - gain_ref @ model.C))
                    / np.linalg.norm(pair.G)) < 1e-12
        assert time.perf_counter() - tic < 5.0


def test_criterion_2_wasserstein_identities():
    with criterion(2, "Wasserstein identity suite (symmetry, zero, triangle, "
                      "Dirac limit, mixture linearity)"):
        rng = np.random.default_rng(102)
        for _ in range(100):
            n = int(rng.choice([1, 2, 4]))
            a, b, c = (random_gaussian(rng, n) for _ in range(3))
            v_ab = w2_gaussian_gaussian(a, b)
            assert abs(v_ab - w2_gaussian_gaussian(b, a)) <= 1e-10 * (1.0 + v_ab)
            assert w2_gaussian_gaussian(a, a) <= 1e-12
            assert w2_distance(a, c) <= w2_distance(a, b) + w2_distance(b, c) + 1e-8

        # Dirac limit at eps = 1e-8 within 1e-5: the exact limit gap is
        # n*eps - 2*sqrt(eps)*tr(sqrt(cov)), so the absolute tolerance is
        # attainable for covariance scales with tr(sqrt(cov)) < 5e-2 and the
        # rate is verified separately for an O(1) covariance.
        from wassfilter import spd_sqrt
        small = Gaussian(rng.standard_normal(2), 2.5e-4 * np.eye(2))
        point = rng.standard_normal(2)
        gap = abs(w2_gaussian_gaussian(small, Gaussian(point, 1e-8 * np.eye(2)))
                  - w2_gaussian_dirac(small, DiracPoint(point)))
        assert gap < 1e-5
        big = random_gaussian(rng, 2)
        predicted = 2 * 1e-8 - 2 * np.sqrt(1e-8) * float(np.trace(spd_sqrt(big.cov)))
        observed = (w2_gaussian_gaussian(big, Gaussian(point, 1e-8 * np.eye(2)))
                    - w2_gaussian_dirac(big, DiracPoint(point)))
        assert abs(observed - predicted) < 1e-9

        # Mixture-Dirac linearity in the weights, exact to 1e-12.
        nodes = [random_gaussian(rng, 2) for _ in range(4)]
        means, covs = np.stack([g.mean for g in nodes]), np.stack([g.cov for g in nodes])
        d = DiracPoint(rng.standard_normal(2))
        w1 = np.array([0.1, 0.2, 0.3, 0.4])
        w2v = np.array([0.4, 0.3, 0.2, 0.1])
        v1 = w2_mixture_dirac(GaussianMixture(w1, means, covs), d)
        v2 = w2_mixture_dirac(GaussianMixture(w2v, means, covs), d)
        for theta in (0.2, 0.5, 0.8):
            blend = w2_mixture_dirac(
                GaussianMixture(theta * w1 + (1 - theta) * w2v, means, covs), d)
            assert abs(blend - (theta * v1 + (1 - theta) * v2)) < 1e-12


def test_criterion_3_empirical_ot_oracle():
    with criterion(3, "empirical assignment W2 matches the closed form and "
                      "converges with sample size"):
        tic = time.perf_counter()
        rng = np.random.default_rng(103)
        for dim in (1, 2):
            for _ in range(3):
                # The assignment estimator carries an O(N^-1/2) sampling bias
                # (~0.2 at N=256 for unit-scale Gaussians), so the 15% relative
                # bound is meaningful only when the pair's distance dominates
                # that floor; pairs are redrawn until W2^2 >= 2.
                while True:
                    a = random_gaussian(rng, dim, mean_scale=2.0)
                    b = random_gaussian(rng, dim, mean_scale=2.0)
                    exact = w2_gaussian_gaussian(a, b)
                    if exact >= 2.0:
                        break
                gaps = []
                for n_points in (32, 128, 256):
                    errs = [
                        abs(w2_empirical(sample_gaussian(a, n_points, rng),
                                         sample_gaussian(b, n_points, rng)) - exact)
                        for _ in range(16)
                    ]
                    gaps.append(float(np.mean(errs)))
                assert gaps[0] > gaps[1] > gaps[2]
                assert gaps[2] < 0.15 * exact
        assert time.perf_counter() - tic < 60.0


def test_criterion_4_orthogonality():
    with criterion(4, "posterior-error orthogonality at Kalman gains, "
                      "violated by a perturbed gain"):
        rng = np.random.default_rng(104)
        a = rng.standard_normal((2, 2))
        a *= 0.7 / np.abs(np.linalg.eigvals(a)).max()
        prop = LinearPropagationModel(a, random_spd(rng, 2, base=0.3))
        model = LinearMeasurementModel(rng.standard_normal((1, 2)), random_spd(rng, 1, base=0.3))

        sigma = stationary_prior_error_cov(model, prop)
        gains = kalman_gains(sigma, model)

        (res_state, res_meas), (scale_state, scale_meas) = _orthogonality(gains, model, prop)
        assert res_state <= 1e-12 * scale_state
        assert res_meas <= 1e-12 * scale_meas

        h_bad = gains.H + 0.1
        bad = GainPair(G=np.eye(2) - h_bad @ model.C, H=h_bad)
        (res_state_b, res_meas_b), (scale_state_b, scale_meas_b) = _orthogonality(bad, model,
                                                                                  prop)
        assert (res_state_b >= 1e-2 * scale_state_b
                or res_meas_b >= 1e-2 * scale_meas_b)


def test_criterion_5_gsf_correctness():
    with criterion(5, "GSF degeneracies, Bayesian weight example, simplex and "
                      "contraction over 500 random updates"):
        rng = np.random.default_rng(105)

        g = random_gaussian(rng, 2)
        model = LinearMeasurementModel(rng.standard_normal((1, 2)), [[0.5]])
        y = rng.standard_normal(1)
        res = gsf_update(GaussianMixture([1.0], [g.mean], [g.cov]), model, y)
        ref = kalman_update(g, g.cov, model, y)
        assert np.abs(res.posterior.nodes[0].mean - ref.mean).max() <= 1e-14
        assert np.abs(res.posterior.nodes[0].cov - ref.cov).max() <= 1e-14
        assert res.posterior.weights[0] == 1.0

        same = Gaussian([0.7], [[1.3]])
        sym = gsf_update(GaussianMixture([0.5, 0.5], [same.mean] * 2, [same.cov] * 2),
                         LinearMeasurementModel([[1.0]], [[1.0]]), [0.2])
        np.testing.assert_allclose(sym.posterior.weights, [0.5, 0.5], atol=1e-15)

        two = GaussianMixture([0.5, 0.5], [[0.0], [4.0]], [[[1.0]], [[1.0]]])
        res2 = gsf_update(two, LinearMeasurementModel([[1.0]], [[1.0]]), [0.0])
        assert abs(res2.posterior.weights[0] - np.exp(4.0) / (np.exp(4.0) + 1.0)) < 1e-12

        for _ in range(500):
            order = int(rng.integers(1, 11))
            prior = random_mixture(rng, order, 2)
            model = LinearMeasurementModel(rng.standard_normal((1, 2)),
                                           random_spd(rng, 1, base=0.2))
            out = gsf_update(prior, model, rng.standard_normal(1))
            w = out.posterior.weights
            assert abs(w.sum() - 1.0) <= 1e-12
            assert w.min() >= 0.0
            for pre, post in zip(prior.nodes, out.posterior.nodes):
                assert np.trace(post.cov) <= np.trace(pre.cov) + 1e-12


def test_criterion_6_ngsf_descent_dominance():
    with criterion(6, "nGSF global minimum (vertex oracle), warm-start dominance, "
                      "gradient and KKT checks over 200 problems"):
        tic = time.perf_counter()
        rng = np.random.default_rng(106)
        for index in range(200):
            order = int(rng.choice([2, 5, 10]))
            prior = random_mixture(rng, order, 2)
            model = LinearMeasurementModel(rng.standard_normal((1, 2)),
                                           random_spd(rng, 1, base=0.2))
            problem = NgsfProblem.from_gsf(prior, model, rng.standard_normal(1))
            sol = ngsf_solve(problem)

            # Oracle: the global minimum is the cheapest simplex vertex at
            # the warm-start (Kalman) gains.
            vertex = min(ngsf_cost(np.eye(order)[j], problem.warm_gains, prior, model)
                         for j in range(order))
            warm = ngsf_cost(problem.warm_weights, problem.warm_gains, prior, model)
            final = ngsf_cost(sol.weights, sol.gains, prior, model)
            assert final == vertex
            assert final <= warm + 1e-12

            spread, violation = kkt_residuals(sol.weights, sol.gains, prior, model)
            scale = 1.0 + abs(final)
            assert spread <= 10 * 1e-10 * scale
            assert violation <= 10 * 1e-10 * scale

            if index % 10 == 0:
                # Central-difference gradient check at a random feasible point.
                raw = rng.uniform(0.1, 1.0, order)
                weights = raw / raw.sum()
                gains = [rng.standard_normal((2, 1)) for _ in range(order)]
                grad_w, grad_h = ngsf_gradients(weights, gains, prior, model)
                step = 1e-6
                for i in range(order):
                    for idx in np.ndindex(gains[i].shape):
                        plus = [h.copy() for h in gains]
                        minus = [h.copy() for h in gains]
                        plus[i][idx] += step
                        minus[i][idx] -= step
                        fd = (ngsf_cost(weights, plus, prior, model)
                              - ngsf_cost(weights, minus, prior, model)) / (2 * step)
                        assert abs(fd - grad_h[i][idx]) <= 1e-6 * (1.0 + abs(grad_h[i][idx]))
                direction = rng.standard_normal(order)
                direction -= direction.mean()
                fd = (ngsf_cost(weights + step * direction, gains, prior, model)
                      - ngsf_cost(weights - step * direction, gains, prior, model)) / (2 * step)
                analytic = float(grad_w @ direction)
                assert abs(fd - analytic) <= 1e-6 * (1.0 + abs(analytic))

        assert time.perf_counter() - tic < 120.0


# Seed for the non-Gaussianity witness; documented alongside the criterion.
DUFFING_KURTOSIS_SEED = 20250810


def test_criterion_7_duffing_non_gaussianity():
    with criterion(7, "propagated standard-normal cloud leaves the Gaussian "
                      "family (|excess kurtosis| > 0.1)"):
        rng = np.random.default_rng(DUFFING_KURTOSIS_SEED)
        cloud = rng.standard_normal((10_000, 2))
        out = propagate_cloud(cloud, DuffingModel(), 0.5)
        excesses = []
        for j in range(2):
            v = out[:, j] - out[:, j].mean()
            excesses.append(abs(float((v ** 4).mean() / (v ** 2).mean() ** 2 - 3.0)))
        assert max(excesses) > 0.1


def _benchmark_config() -> ExperimentConfig:
    # Keeps the 10-component prior, 0.5 s cadence and R = 0.1; horizon,
    # ensemble size and EM effort are sized so 20 paired runs finish at
    # desk scale.
    return ExperimentConfig(
        em=EmFitConfig(n_components=10, max_iters=150, restarts=2),
        ensemble_size=1500,
        horizon_steps=6,
        master_seed=8,
        filters=("gsf", "ngsf"),
    )


def test_criterion_8_paired_benchmark(tmp_path):
    with criterion(8, "20-run paired benchmark: deterministic, nGSF exact "
                      "objective never above GSF's, variance comparison reported"):
        tic = time.perf_counter()
        config = _benchmark_config()
        comparison = monte_carlo_compare(config, 20)

        # Hard assert: per-step exact-objective dominance in every run.
        assert comparison.paired["cost_dominance_fraction"] == 1.0
        assert comparison.paired["mean_cost_gap"] <= 1e-12

        # Reported, not asserted: the error-variance comparison.
        payload = comparison.to_json_dict()
        out = tmp_path / "summary.json"
        out.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
        signs = payload["paired"]["error_variance_signs"]
        for state in ("x1", "x2"):
            counts = signs[state]
            assert counts["ngsf_better"] + counts["gsf_better"] + counts["ties"] == 20
            print(f"  error variance {state}: nGSF better in "
                  f"{counts['ngsf_better']}/20 runs "
                  f"(mean paired diff {counts['mean_diff']:+.3e})")

        # Deterministic completion: repeating one member run reproduces it.
        seed0 = int(np.random.SeedSequence([config.master_seed, 4, 0]).generate_state(1)[0])
        member = replace(config, master_seed=seed0)
        assert run_experiment(member).summary == run_experiment(member).summary

        assert time.perf_counter() - tic < 600.0


def test_criterion_9_run_determinism(tmp_path):
    with criterion(9, "identical config and seed produce byte-identical files"):
        out = tmp_path / "run"
        config = ExperimentConfig(
            duffing=DuffingModel(dt=0.05),
            em=EmFitConfig(n_components=4, max_iters=80, restarts=2),
            ensemble_size=800,
            horizon_steps=3,
            master_seed=99,
            filters=("gsf", "ngsf", "kf_momentmatch"),
            output_dir=str(out),
        )

        def snapshot() -> dict:
            return {p.relative_to(out): p.read_bytes()
                    for p in sorted(out.rglob("*")) if p.is_file()}

        run_experiment(config)
        first = snapshot()
        run_experiment(config)
        second = snapshot()
        assert len(first) > 10
        assert first == second
