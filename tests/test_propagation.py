"""Tests for Duffing dynamics, RK4 integration, cloud propagation and EM fitting."""

import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.linalg import solve_triangular
from scipy.special import logsumexp
from scipy.stats import multivariate_normal

from wassfilter import (DivergenceError, DuffingModel, EmFitConfig, Gaussian,
                        GaussianMixture, ValidationError, duffing_rhs, fit_gmm_em,
                        integrate_rk4, mixture_mean_cov, propagate_cloud,
                        sample_gaussian, sample_mixture)
from wassfilter import propagation
from wassfilter.gaussian import _component_logpdfs, ensure_spd
from wassfilter.propagation import _EmWork, _joint_logpdfs, _m_step

from conftest import random_spd

# Seed for the non-Gaussianity check; the propagated velocity coordinate has
# excess kurtosis ~ +3.4 at this seed, far beyond the 0.1 threshold.
KURTOSIS_SEED = 20250810


def _excess_kurtosis(v: np.ndarray) -> float:
    centered = v - v.mean()
    return float((centered ** 4).mean() / (centered ** 2).mean() ** 2 - 3.0)


class TestDuffingRhs:
    def test_equilibrium(self):
        np.testing.assert_array_equal(duffing_rhs([0.0, 0.0]), [0.0, 0.0])

    def test_unit_position(self):
        np.testing.assert_allclose(duffing_rhs([1.0, 0.0]), [0.0, -2.0], atol=1e-15)

    def test_unit_velocity(self):
        np.testing.assert_allclose(duffing_rhs([0.0, 1.0]), [1.0, -0.25], atol=1e-15)

    def test_configured_coefficients(self):
        np.testing.assert_allclose(duffing_rhs([1.0, 1.0], damping=0.5, cubic=2.0),
                                   [1.0, -3.5], atol=1e-15)

    def test_vectorized_rows(self, rng):
        cloud = rng.standard_normal((7, 2))
        out = duffing_rhs(cloud)
        for i in range(7):
            np.testing.assert_array_equal(out[i], duffing_rhs(cloud[i]))

    def test_rejects_wrong_dimension(self):
        with pytest.raises(ValidationError):
            duffing_rhs([1.0, 2.0, 3.0])

    @settings(max_examples=200, deadline=None, database=None)
    @given(states=arrays(np.float64, st.tuples(st.integers(1, 64), st.just(2)),
                         elements=st.floats(-1e100, 1e100)),
           damping=st.floats(0.0, 10.0), cubic=st.floats(-10.0, 10.0))
    def test_field_is_exactly_odd(self, states, damping, cubic):
        np.testing.assert_array_equal(duffing_rhs(-states, damping, cubic),
                                      -duffing_rhs(states, damping, cubic))


class TestRk4:
    def test_equilibrium_fixed_point(self):
        model = DuffingModel()
        out = integrate_rk4(np.zeros(2), model.rhs, 0.01, 500)
        np.testing.assert_array_equal(out, np.zeros(2))

    def test_exponential_decay_oracle(self):
        # Oracle: x' = -x from 1.0 has exact solution exp(-t).
        out = integrate_rk4(np.array([1.0]), lambda x: -x, 0.01, 100)
        assert abs(out[0] - np.exp(-1.0)) < 1e-8

    def test_richardson_order(self):
        # Halving dt must shrink the error ~16x (4th order).
        model = DuffingModel()
        x0 = np.array([1.0, 0.0])
        fine = integrate_rk4(x0, model.rhs, 0.5 / 2048, 2048)
        errs = []
        for steps in (8, 16, 32):
            out = integrate_rk4(x0, model.rhs, 0.5 / steps, steps)
            errs.append(np.linalg.norm(out - fine))
        orders = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))
        assert np.all(orders > 3.7)
        assert np.all(orders < 4.3)

    def test_divergence_raises_without_numpy_warnings(self):
        model = DuffingModel()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DivergenceError):
                integrate_rk4(np.array([1e300, 1.0]), model.rhs, model.dt, 2)

    def test_divergence_error(self):
        # x' = x^2 from 1 blows up at t = 1.
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(DivergenceError):
            integrate_rk4(np.array([1.0]), lambda x: x ** 2, 0.01, 200)

    def test_rejects_bad_dt(self):
        with pytest.raises(ValidationError):
            integrate_rk4(np.zeros(2), duffing_rhs, -0.1, 10)


class TestPropagateCloud:
    def test_zero_duration_identity(self, rng):
        cloud = rng.standard_normal((20, 2))
        np.testing.assert_array_equal(propagate_cloud(cloud, DuffingModel(), 0.0), cloud)

    def test_single_particle_matches_rk4(self, rng):
        model = DuffingModel()
        x0 = rng.standard_normal(2)
        out = propagate_cloud(x0[None, :], model, 0.5)
        ref = integrate_rk4(x0, model.rhs, model.dt, model.steps_per_sample)
        np.testing.assert_array_equal(out[0], ref)

    def test_permutation_equivariance(self, rng):
        model = DuffingModel()
        cloud = rng.standard_normal((50, 2))
        perm = rng.permutation(50)
        out = propagate_cloud(cloud, model, 0.5)
        out_perm = propagate_cloud(cloud[perm], model, 0.5)
        np.testing.assert_array_equal(out_perm, out[perm])

    def test_odd_symmetry_on_a_large_cloud(self):
        # The field is odd and RK4 combines its values linearly, so a mirrored
        # cloud propagates to the mirrored result, bit for bit.
        cloud = np.random.default_rng(KURTOSIS_SEED).standard_normal((20_000, 2))
        model = DuffingModel()
        np.testing.assert_array_equal(propagate_cloud(-cloud, model, 0.5),
                                      -propagate_cloud(cloud, model, 0.5))

    def test_propagated_cloud_non_gaussian(self):
        # A standard normal cloud leaves the Gaussian family within one
        # 0.5 s filter period; kurtosis is the witness statistic.
        rng = np.random.default_rng(KURTOSIS_SEED)
        cloud = rng.standard_normal((10_000, 2))
        out = propagate_cloud(cloud, DuffingModel(), 0.5)
        kurtoses = [abs(_excess_kurtosis(out[:, j])) for j in range(2)]
        assert max(kurtoses) > 0.1

    def test_divergent_particle_index_reported(self):
        model = DuffingModel(cubic=1.0, dt=0.01)
        cloud = np.zeros((5, 2))
        cloud[3] = [1e200, 0.0]  # cubic term overflows immediately
        with pytest.raises(DivergenceError, match="particle 3"):
            propagate_cloud(cloud, model, 0.5)

    def test_duration_must_align_with_dt(self, rng):
        with pytest.raises(ValidationError):
            propagate_cloud(rng.standard_normal((5, 2)), DuffingModel(), 0.505)

    def test_sample_time_must_align_with_dt(self):
        with pytest.raises(ValidationError):
            DuffingModel(dt=0.03, sample_time=0.5)

    @pytest.mark.parametrize("kwargs", [{"dt": 1e-300}, {"sample_time": 1e300},
                                        {"dt": 1e-300, "sample_time": 1e300},
                                        {"dt": 0.5 / (propagation.MAX_STEPS_PER_SAMPLE + 1)}],
                             ids=["tiny_dt", "huge_sample_time", "infinite_ratio", "one_over"])
    def test_substeps_per_sample_capped(self, kwargs):
        with pytest.raises(ValidationError, match="RK4 substeps per sample"):
            DuffingModel(**kwargs)

    def test_substep_cap_is_inclusive(self):
        model = DuffingModel(dt=0.5 / propagation.MAX_STEPS_PER_SAMPLE)
        assert model.steps_per_sample == propagation.MAX_STEPS_PER_SAMPLE


class TestFitGmmEm:
    def test_single_gaussian_recovery(self):
        rng = np.random.default_rng(31)
        truth = Gaussian([1.0, -2.0], [[2.0, 0.6], [0.6, 1.0]])
        n = 20_000
        cloud = sample_gaussian(truth, n, rng)
        mix = fit_gmm_em(cloud, EmFitConfig(n_components=1, restarts=1),
                         np.random.default_rng(32))
        band = 3.0 / np.sqrt(n)
        np.testing.assert_allclose(mix.nodes[0].mean, truth.mean,
                                   atol=band * np.sqrt(np.trace(truth.cov)))
        np.testing.assert_allclose(mix.nodes[0].cov, truth.cov, atol=0.1)

    def test_well_separated_weights(self):
        rng = np.random.default_rng(33)
        gen = GaussianMixture([0.3, 0.7], [[-20.0, 0.0], [20.0, 0.0]], [np.eye(2), np.eye(2)])
        cloud = sample_mixture(gen, 5_000, rng)
        mix = fit_gmm_em(cloud, EmFitConfig(n_components=2), np.random.default_rng(34))
        weights = np.sort(mix.weights)
        np.testing.assert_allclose(weights, [0.3, 0.7], atol=0.02)

    def test_determinism(self, rng):
        cloud = rng.standard_normal((500, 2))
        config = EmFitConfig(n_components=3, restarts=2)
        a = fit_gmm_em(cloud, config, np.random.default_rng(35))
        b = fit_gmm_em(cloud, config, np.random.default_rng(35))
        np.testing.assert_array_equal(a.weights, b.weights)
        for ga, gb in zip(a.nodes, b.nodes):
            np.testing.assert_array_equal(ga.mean, gb.mean)
            np.testing.assert_array_equal(ga.cov, gb.cov)

    def test_log_likelihood_monotone(self, rng):
        cloud = np.concatenate([
            rng.standard_normal((400, 2)),
            [4.0, 0.0] + 0.5 * rng.standard_normal((400, 2)),
        ])
        _, diag = fit_gmm_em(cloud, EmFitConfig(n_components=2, restarts=2),
                             np.random.default_rng(36), details=True)
        assert np.all(np.diff(diag.log_likelihoods) >= -1e-9)

    def test_moment_match_sanity(self, rng):
        cloud = propagate_cloud(rng.standard_normal((3_000, 2)), DuffingModel(), 0.5)
        mix = fit_gmm_em(cloud, EmFitConfig(n_components=5), np.random.default_rng(37))
        mean, cov = mixture_mean_cov(mix)
        sample_cov = np.cov(cloud, rowvar=False)
        np.testing.assert_allclose(mean, cloud.mean(axis=0), atol=0.05)
        assert (np.linalg.norm(cov - sample_cov) / np.linalg.norm(sample_cov)) < 0.10

    def test_covariance_floor_applies(self, rng):
        # Duplicated points would give singular covariances without the floor.
        base = rng.standard_normal((30, 2))
        cloud = np.repeat(base, 4, axis=0)
        floor = 1e-4
        mix = fit_gmm_em(cloud, EmFitConfig(n_components=2, covariance_floor=floor),
                         np.random.default_rng(38))
        for node in mix.nodes:
            assert np.linalg.eigvalsh(node.cov).min() >= floor * (1 - 1e-9)

    @pytest.mark.parametrize("offset", [1e2, 1e4])
    def test_tight_clusters_far_from_the_cloud_mean(self, rng, offset):
        # Two clusters of repeated points far from the cloud's mean: their
        # moment-form covariances cancel to roundoff of order eps * offset^2,
        # a little below zero, and the floor lifts them.
        cloud = np.concatenate([rng.standard_normal((200, 2)),
                                np.repeat(offset + rng.standard_normal((1, 2)), 50, axis=0),
                                np.repeat(-offset + rng.standard_normal((1, 2)), 50, axis=0)])
        config = EmFitConfig(n_components=3, restarts=1)
        mix = fit_gmm_em(cloud, config, np.random.default_rng(3))
        np.testing.assert_allclose(np.sort(mix.weights), [1 / 6, 1 / 6, 2 / 3], atol=1e-9)
        low = np.linalg.eigvalsh(mix.covs)[:, 0]
        assert np.sum(low <= config.covariance_floor * (1 + 1e-9)) == 2
        assert low.min() >= config.covariance_floor * (1 - 1e-9)

    def test_rejects_undersized_cloud(self, rng):
        with pytest.raises(ValidationError):
            fit_gmm_em(rng.standard_normal((19, 2)), EmFitConfig(n_components=2),
                       np.random.default_rng(0))

    @pytest.mark.parametrize("dim", [1, 2, 3])
    @pytest.mark.parametrize("k", [1, 3, 8])
    def test_kmeanspp_assignment_is_nearest_center(self, dim, k):
        # Points on a coarse integer grid, many repeated, so that distances to
        # different centers tie exactly: the first nearest center wins, as in
        # an argmin over the full (N, K) distance matrix.
        rng = np.random.default_rng(100 * dim + k)
        points = rng.integers(-2, 3, size=(200, dim)).astype(float)
        centers, nearest = propagation._kmeanspp_centers(points, k, rng)
        assert centers.shape == (k, dim)
        dist = ((points[:, None, :] - centers[None, :, :]) ** 2).sum(-1)
        np.testing.assert_array_equal(nearest, np.argmin(dist, axis=1))


def _loop_logpdfs(points, means, covs):
    """Reference E-step: one Cholesky factor and triangular solve per component."""
    n_points, dim = points.shape
    out = np.empty((n_points, means.shape[0]))
    for k in range(means.shape[0]):
        chol = np.linalg.cholesky(covs[k])
        z = solve_triangular(chol, (points - means[k]).T, lower=True)
        logdet = 2.0 * float(np.sum(np.log(np.diag(chol))))
        out[:, k] = -0.5 * (dim * np.log(2.0 * np.pi) + logdet + np.sum(z * z, axis=0))
    return out


def _spd_stack(rng, k, dim):
    return np.stack([random_spd(rng, dim, base=0.05) for _ in range(k)])


# The whitened-residual E/M step, allocating, and a full-eigh covariance
# floor: the reference the feature-form EM must match to within roundoff.
def _ref_component_logpdfs(points, means, covs):
    n_points, dim = points.shape
    k = means.shape[0]
    chol = np.linalg.cholesky(covs)
    inv = np.linalg.inv(chol)
    z = inv.reshape(k * dim, dim) @ points.T - (inv @ means[:, :, None]).reshape(k * dim, 1)
    z *= z
    out = z.reshape(k, dim, n_points).sum(axis=1)
    out += (dim * np.log(2.0 * np.pi)
            + 2.0 * np.log(np.diagonal(chol, axis1=1, axis2=2)).sum(axis=1))[:, None]
    out *= -0.5
    return out.T


def _ref_e_step(points, weights, means, covs):
    with np.errstate(divide="ignore"):
        joint = _ref_component_logpdfs(points, means, covs) + np.log(weights)
    peak = joint.max(axis=1, keepdims=True)
    dens = np.exp(joint - peak)
    total = dens.sum(axis=1, keepdims=True)
    return (dens / total).T, (peak + np.log(total))[:, 0]


def _ref_floor_cov(covs, floor):
    covs = 0.5 * (covs + np.swapaxes(covs, 1, 2))
    w, v = np.linalg.eigh(covs)
    low = w[:, 0] < floor
    if low.any():
        v = v[low]
        lifted = (v * np.clip(w[low], floor, None)[:, None, :]) @ np.swapaxes(v, 1, 2)
        covs[low] = 0.5 * (lifted + np.swapaxes(lifted, 1, 2))
    return covs


def _ref_m_step(points, resp_t, mass, floor):
    means = (resp_t @ points) / mass[:, None]
    diff = np.ascontiguousarray(points.T)[None, :, :] - means[:, :, None]
    weighted = diff * resp_t[:, None, :]
    covs = weighted @ np.swapaxes(diff, 1, 2) / mass[:, None, None]
    return means, _ref_floor_cov(covs, floor)


def _reference_fit(cloud, config, seed):
    """``fit_gmm_em`` run through the reference E/M step and floor."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(propagation, "_e_step",
                   lambda work, w, m, c: _ref_e_step(work.points, w, m, c))
        mp.setattr(propagation, "_m_step",
                   lambda work, resp_t, mass, floor: _ref_m_step(work.points, resp_t, mass, floor))
        mp.setattr(propagation, "ensure_spd", _ref_floor_cov)
        return fit_gmm_em(cloud, config, np.random.default_rng(seed), details=True)


def _floor_level_case(rng, dim, k=6):
    """Points, means and covariances where component 2 sits at the EM's
    covariance floor, with points on top of it as well as far away, so its
    log densities span many decades."""
    floor = EmFitConfig().covariance_floor
    means = 2.0 * rng.standard_normal((k, dim))
    covs = _spd_stack(rng, k, dim)
    q, _ = np.linalg.qr(rng.standard_normal((dim, dim)))
    covs[2] = q @ np.diag(floor * (1.0 + np.arange(dim))) @ q.T
    points = np.concatenate([2.0 * rng.standard_normal((400, dim)),
                             means[2] + 2e-3 * rng.standard_normal((100, dim))])
    return points, means, covs


class TestBatchedEm:
    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_e_step_matches_component_loop(self, rng, dim):
        points, means, covs = _floor_level_case(rng, dim)
        ref = _loop_logpdfs(points, means, covs)
        assert np.abs(ref).max() > 1e5
        np.testing.assert_allclose(_component_logpdfs(points, means, covs), ref,
                                   rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_feature_form_matches_whitened_logpdfs(self, rng, dim):
        # The feature form trades the whitened residual's square for a sum of
        # terms of size |P| |x|^2, whose roundoff is largest at the floor. Far
        # from the floor component the log densities reach about -2e7, whose
        # own spacing is 4e-9, so a relative 1e-15 rides on the 1e-8.
        points, means, covs = _floor_level_case(rng, dim)
        work = _EmWork(points, len(means))
        joint = _joint_logpdfs(work, np.ones(len(means)), means, covs)
        np.testing.assert_allclose(joint.T, _component_logpdfs(points, means, covs),
                                   rtol=1e-15, atol=1e-8)

    def test_e_step_rejects_non_pd_component(self, rng):
        covs = _spd_stack(rng, 3, 2)
        covs[1] = [[1.0, 2.0], [2.0, 1.0]]
        with pytest.raises(np.linalg.LinAlgError):
            _component_logpdfs(rng.standard_normal((20, 2)), np.zeros((3, 2)), covs)

    def test_m_step_matches_component_loop(self, rng):
        n, k, dim = 500, 5, 2
        points = rng.standard_normal((n, dim)) * [3.0, 0.5]
        resp = rng.dirichlet(np.ones(k), n)
        mass = resp.sum(axis=0)
        means, covs = _m_step(_EmWork(points, k), resp.T, mass, 1e-12)
        for j in range(k):
            mean = resp[:, j] @ points / mass[j]
            diff = points - mean
            cov = (diff * resp[:, j:j + 1]).T @ diff / mass[j]
            np.testing.assert_allclose(means[j], mean, rtol=1e-12)
            np.testing.assert_allclose(covs[j], cov, rtol=1e-12)

    def test_floor_lifts_only_low_components(self, rng):
        floor = 1e-4
        covs = _spd_stack(rng, 5, 2)
        covs[1] = [[1.0, 0.0], [0.0, 1e-7]]
        covs[3] = [[2e-5, 1e-5], [1e-5, 2e-5]]
        covs += 1e-13 * rng.standard_normal(covs.shape)  # slightly asymmetric
        sym = 0.5 * (covs + np.swapaxes(covs, 1, 2))
        out = ensure_spd(covs.copy(), floor)
        for j in (0, 2, 4):
            np.testing.assert_array_equal(out[j], sym[j])
        for j in (1, 3):
            np.testing.assert_array_equal(out[j], out[j].T)
            w_in, v_in = np.linalg.eigh(sym[j])
            w_out = np.linalg.eigvalsh(out[j])
            assert w_out.min() >= floor * (1 - 1e-9)
            np.testing.assert_allclose(w_out, np.clip(w_in, floor, None), rtol=1e-9)
            np.testing.assert_allclose(out[j] @ v_in, v_in * np.clip(w_in, floor, None),
                                       atol=1e-12)

    @pytest.mark.parametrize("dim", [2, 3])
    def test_buffered_fit_matches_allocating_reference(self, dim):
        # A spread cloud plus a tight, nearly flat cluster, so the covariance
        # floor lifts some components on some passes.
        rng = np.random.default_rng(1200 + dim)
        flat = np.zeros(dim)
        flat[0] = 1.0
        cloud = np.concatenate([2.0 * rng.standard_normal((1_200, dim)),
                                4.0 + np.outer(rng.standard_normal(300), flat)
                                + 1e-5 * rng.standard_normal((300, dim))])
        config = EmFitConfig(n_components=6, max_iters=40, restarts=2, covariance_floor=1e-6)

        mix, diag = fit_gmm_em(cloud, config, np.random.default_rng(7), details=True)
        ref, ref_diag = _reference_fit(cloud, config, 7)
        lifted = np.linalg.eigvalsh(ref.covs)[:, 0] <= config.covariance_floor * (1 + 1e-9)
        assert lifted.any()
        for name in ("weights", "means", "covs"):
            np.testing.assert_allclose(getattr(mix, name), getattr(ref, name),
                                       rtol=0.0, atol=1e-10)
        np.testing.assert_allclose(diag.log_likelihoods, ref_diag.log_likelihoods, rtol=1e-9)
        assert diag.final_log_likelihood == pytest.approx(ref_diag.final_log_likelihood, rel=1e-9)
        assert (diag.iterations, diag.restart_index) == (ref_diag.iterations, ref_diag.restart_index)

    @pytest.mark.parametrize("periods", [1, 2, 3, 4])
    def test_duffing_fit_matches_reference(self, periods):
        # Seeded Duffing clouds at the criterion-8 EM settings: the two forms
        # of the same EM reach the same restart and the same likelihood.
        rng = np.random.default_rng(1500 + periods)
        cloud = propagate_cloud(rng.standard_normal((1_500, 2)) * [1.0, 0.5] + [1.0, 0.0],
                                DuffingModel(), 0.5 * periods)
        config = EmFitConfig(n_components=10, max_iters=150, restarts=2)
        _, diag = fit_gmm_em(cloud, config, np.random.default_rng(periods), details=True)
        _, ref_diag = _reference_fit(cloud, config, periods)
        assert diag.restart_index == ref_diag.restart_index
        assert abs(diag.final_log_likelihood - ref_diag.final_log_likelihood) <= 1e-10 * len(cloud)

    def test_three_dimensional_cloud(self, rng):
        gen = GaussianMixture([0.5, 0.5], [[-3.0, 0.0, 1.0], [3.0, 1.0, -1.0]],
                              [np.eye(3), [[1.0, 0.3, 0.0], [0.3, 0.5, 0.1], [0.0, 0.1, 0.8]]])
        cloud = sample_mixture(gen, 2_000, rng)
        mix, diag = fit_gmm_em(cloud, EmFitConfig(n_components=3, restarts=2),
                               np.random.default_rng(39), details=True)
        assert mix.order == 3 and mix.dim == 3
        assert mix.means.shape == (3, 3)
        assert mix.covs.shape == (3, 3, 3)
        assert np.all(np.diff(diag.log_likelihoods) >= -1e-9)


class TestEmDiagnostics:
    def test_single_component_converges(self, rng):
        cloud = rng.standard_normal((1_000, 2)) @ [[1.0, 0.4], [0.0, 0.7]]
        _, diag = fit_gmm_em(cloud, EmFitConfig(n_components=1, restarts=1),
                             np.random.default_rng(40), details=True)
        assert diag.converged
        assert diag.iterations == len(diag.log_likelihoods)
        assert diag.iterations < EmFitConfig().max_iters

    def test_iteration_cap_not_converged(self, rng):
        cloud = propagate_cloud(rng.standard_normal((1_500, 2)), DuffingModel(), 0.5)
        _, diag = fit_gmm_em(cloud, EmFitConfig(n_components=10, max_iters=3),
                             np.random.default_rng(41), details=True)
        assert not diag.converged
        assert diag.iterations == len(diag.log_likelihoods) == 3

    @pytest.mark.parametrize("restarts", [1, 3])
    def test_final_log_likelihood_scores_returned_mixture(self, rng, restarts):
        cloud = propagate_cloud(rng.standard_normal((1_500, 2)), DuffingModel(), 0.5)
        mix, diag = fit_gmm_em(cloud, EmFitConfig(n_components=4, max_iters=20,
                                                  restarts=restarts),
                               np.random.default_rng(42), details=True)
        logpdfs = np.stack([multivariate_normal(m, c).logpdf(cloud)
                            for m, c in zip(mix.means, mix.covs)], axis=1)
        expected = float(logsumexp(logpdfs + np.log(mix.weights), axis=1).sum())
        assert diag.final_log_likelihood == pytest.approx(expected, rel=1e-9)
        # The returned mixture is one M-step past the last scored pass.
        assert diag.final_log_likelihood >= diag.log_likelihoods[-1] - 1e-9

    def test_restart_chosen_on_returned_mixture(self, rng):
        cloud = propagate_cloud(rng.standard_normal((1_500, 2)), DuffingModel(), 0.5)
        config = EmFitConfig(n_components=4, max_iters=5, restarts=1)
        draws = np.random.default_rng(43)
        scores = [fit_gmm_em(cloud, config, draws, details=True)[1].final_log_likelihood
                  for _ in range(4)]
        _, diag = fit_gmm_em(cloud, replace(config, restarts=4),
                             np.random.default_rng(43), details=True)
        assert diag.restart_index == int(np.argmax(scores))
        assert diag.final_log_likelihood == max(scores)
