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

from wassfilter import (DivergenceError, DuffingModel, EmFitConfig, FitError, Gaussian,
                        GaussianMixture, ValidationError, duffing_rhs, fit_gmm_em,
                        integrate_rk4, mixture_mean_cov, propagate_cloud,
                        sample_gaussian, sample_mixture)
from wassfilter import propagation
from wassfilter.gaussian import _component_logpdfs, _floored_eigh
from wassfilter.propagation import (_LOG_RESP_FLOOR, _MAX_SHIFT_GAP, _EmWork, _coefficients,
                                    _e_step, _fit_gmm_em_stack, _kmeanspp_centers,
                                    _log_sum_exp, _m_step)

from conftest import random_spd

# Seed for the non-Gaussianity check; the propagated velocity coordinate has
# excess kurtosis ~ +3.4 at this seed, far beyond the 0.1 threshold.
KURTOSIS_SEED = 20250810


def _excess_kurtosis(v: np.ndarray) -> float:
    centered = v - v.mean()
    return float((centered ** 4).mean() / (centered ** 2).mean() ** 2 - 3.0)


def _ref_duffing_rhs(x, damping: float = 0.25, cubic: float = 1.0) -> np.ndarray:
    # The allocating field: every value a new array.
    x = np.asarray(x, dtype=float)
    x1, x2 = x[..., 0], x[..., 1]
    return np.stack([x2, -x1 - damping * x2 - cubic * (x1 * x1 * x1)], axis=-1)


def _ref_rk4(x0, rhs, dt: float, steps: int) -> np.ndarray:
    # The allocating RK4 loop with an allocating ``rhs(x)``; the in-place
    # integrator must reproduce it bit for bit.
    x = np.asarray(x0, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(steps):
            k1 = rhs(x)
            k2 = rhs(x + 0.5 * dt * k1)
            k3 = rhs(x + 0.5 * dt * k2)
            k4 = rhs(x + dt * k3)
            x = x + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            if not np.all(np.isfinite(x)):
                if x.ndim == 2:
                    bad = int(np.nonzero(~np.isfinite(x).all(axis=1))[0][0])
                    raise DivergenceError(f"particle {bad} diverged")
                raise DivergenceError("integration produced a non-finite state")
    return x


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
        for x in ([1.0, 2.0, 3.0], 1.0):
            with pytest.raises(ValidationError, match="state must have dimension 2"):
                duffing_rhs(x)

    @pytest.mark.parametrize("x", [[[0.0, 1.0], [2.0]], [["a", "b"]]])
    def test_rejects_non_numeric_state(self, x):
        with pytest.raises(ValidationError, match="x must be a numeric array"):
            duffing_rhs(x)

    @pytest.mark.parametrize("shape", [(2,), (1_000, 2), (3, 5, 2)])
    def test_out_is_written_and_returned(self, rng, shape):
        states = rng.standard_normal(shape) * 3.0
        buf = np.full(shape, np.nan)
        assert duffing_rhs(states, 0.3, 1.7, out=buf) is buf
        np.testing.assert_array_equal(buf, duffing_rhs(states, 0.3, 1.7))
        np.testing.assert_array_equal(buf, _ref_duffing_rhs(states, 0.3, 1.7))

    @pytest.mark.parametrize("damping, cubic", [(0.3, 1.7), (0.0, 0.0)])
    def test_stale_first_column_is_never_read(self, rng, damping, cubic):
        # The field computes in out[..., 0] before it copies x2 there; a NaN
        # left in the buffer would reach the second column if it were read.
        # The buffers are Fortran-ordered, as integrate_rk4's are.
        states = np.asfortranarray(rng.standard_normal((500, 2)) * 3.0)
        buf = np.full(states.shape, np.nan, order="F")
        duffing_rhs(states, damping, cubic, out=buf)
        np.testing.assert_array_equal(buf, _ref_duffing_rhs(states, damping, cubic))

    def test_rejects_out_of_another_shape(self):
        # A larger buffer would otherwise take the broadcast field silently.
        with pytest.raises(ValidationError, match="shape"):
            duffing_rhs(np.ones(2), out=np.empty((5, 2)))

    def test_rejects_out_that_shares_memory_with_the_state(self):
        # Writing the field into the state would read half-written entries: on
        # [[1, 2], [0.5, -1]] it returned [[-0.754, -0.754], [-0.375, -0.375]]
        # where the field is [[2, -2.5], [-1, -0.375]].
        states = np.array([[1.0, 2.0], [0.5, -1.0]])
        np.testing.assert_array_equal(duffing_rhs(states), [[2.0, -2.5], [-1.0, -0.375]])
        wide = np.zeros((3, 3))
        wide[:2, :2] = states
        for x, out in ((states, states), (wide[:2, :2], wide[1:, 1:])):
            before = x.copy()
            with pytest.raises(ValidationError,
                               match="^out must not share memory with the state x$"):
                duffing_rhs(x, out=out)
            np.testing.assert_array_equal(x, before)

    @settings(max_examples=200, deadline=None, database=None)
    @given(states=arrays(np.float64, st.tuples(st.integers(1, 64), st.just(2)),
                         elements=st.floats(-1e100, 1e100)),
           damping=st.floats(0.0, 10.0), cubic=st.floats(-10.0, 10.0))
    def test_field_is_exactly_odd(self, states, damping, cubic):
        np.testing.assert_array_equal(duffing_rhs(-states, damping, cubic),
                                      -duffing_rhs(states, damping, cubic))
        mirrored, field = np.empty_like(states), np.empty_like(states)
        duffing_rhs(-states, damping, cubic, out=mirrored)
        duffing_rhs(states, damping, cubic, out=field)
        np.testing.assert_array_equal(mirrored, -field)


class TestRk4:
    def test_equilibrium_fixed_point(self):
        model = DuffingModel()
        out = integrate_rk4(np.zeros(2), model.rhs, 0.01, 500)
        np.testing.assert_array_equal(out, np.zeros(2))

    def test_exponential_decay_oracle(self):
        # Oracle: x' = -x from 1.0 has exact solution exp(-t).
        out = integrate_rk4(np.array([1.0]), lambda x, out: np.negative(x, out=out), 0.01, 100)
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
            integrate_rk4(np.array([1.0]), lambda x, out: np.square(x, out=out), 0.01, 200)

    @pytest.mark.parametrize("dt, steps", [(-0.1, 10), (np.nan, 3), (np.inf, 3), (0.1, 2.5)],
                             ids=["negative_dt", "nan_dt", "infinite_dt", "fractional_steps"])
    def test_rejects_bad_dt(self, dt, steps):
        with pytest.raises(ValidationError):
            integrate_rk4(np.zeros(2), duffing_rhs, dt, steps)

    def test_truth_state_matches_allocating_loop(self):
        model = DuffingModel()
        x0 = np.array([1.0, 1.0])
        np.testing.assert_array_equal(
            integrate_rk4(x0, model.rhs, model.dt, 500),
            _ref_rk4(x0, _ref_duffing_rhs, model.dt, 500))

    @pytest.mark.parametrize("layout", ["C", "F", "strided", "integer"])
    def test_cloud_matches_allocating_loop(self, layout):
        rng = np.random.default_rng(KURTOSIS_SEED)
        cloud = {
            "C": lambda: rng.standard_normal((20_000, 2)),
            "F": lambda: np.asfortranarray(rng.standard_normal((20_000, 2))),
            "strided": lambda: rng.standard_normal((40_000, 2))[::2],
            "integer": lambda: rng.integers(-2, 3, size=(20_000, 2)),
        }[layout]()
        model = DuffingModel()
        out = propagate_cloud(cloud, model, model.sample_time)
        assert out.flags.c_contiguous
        np.testing.assert_array_equal(
            out, _ref_rk4(cloud, _ref_duffing_rhs, model.dt, model.steps_per_sample))

    @pytest.mark.parametrize("shape", [(2,), (50, 2)])
    @pytest.mark.parametrize("steps", [0, 3])
    def test_input_untouched_and_never_aliased(self, rng, shape, steps):
        x0 = rng.standard_normal(shape)
        before = x0.copy()
        out = integrate_rk4(x0, DuffingModel().rhs, 0.01, steps)
        np.testing.assert_array_equal(x0, before)
        assert not np.shares_memory(out, x0)
        assert out.flags.c_contiguous


class TestPropagateCloud:
    def test_zero_duration_identity(self, rng):
        cloud = rng.standard_normal((20, 2))
        out = propagate_cloud(cloud, DuffingModel(), 0.0)
        np.testing.assert_array_equal(out, cloud)
        assert not np.shares_memory(out, cloud)

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

    @pytest.mark.parametrize("model, duration, message", [
        (DuffingModel(), 0.505, "not a finite multiple"),
        (DuffingModel(), np.inf, "not a finite multiple"),
        (DuffingModel(), np.nan, "not a finite multiple"),
        # Exact in binary, so it passes the alignment check and meets the cap.
        (DuffingModel(dt=0.5, sample_time=0.5), (propagation.MAX_STEPS_PER_SAMPLE + 1) * 0.5,
         r"asks for 1e\+06 RK4 substeps; at most 1000000 are allowed"),
    ], ids=["misaligned", "infinite", "nan", "over_cap"])
    def test_duration_must_align_with_dt(self, rng, model, duration, message):
        with pytest.raises(ValidationError, match=message):
            propagate_cloud(rng.standard_normal((5, 2)), model, duration)

    @pytest.mark.parametrize("cloud", [[[0.0, 1.0], [2.0]], [["a", "b"]] * 5],
                             ids=["ragged", "strings"])
    def test_rejects_non_numeric_cloud(self, cloud):
        with pytest.raises(ValidationError, match="cloud must be a numeric array"):
            propagate_cloud(cloud, DuffingModel(), 0.5)

    @pytest.mark.parametrize("shape", [(5,), (5, 3), (2, 5, 2)])
    def test_rejects_cloud_not_n_by_2(self, shape):
        with pytest.raises(ValidationError, match=r"cloud must be \(N, 2\), got shape"):
            propagate_cloud(np.zeros(shape), DuffingModel(), 0.5)

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


class TestFloatFields:
    @pytest.mark.parametrize("cls, name", [(DuffingModel, "damping"), (DuffingModel, "dt"),
                                           (EmFitConfig, "tol"),
                                           (EmFitConfig, "covariance_floor")])
    @pytest.mark.parametrize("value", [np.nan, -np.inf, 10**400, -(10**400)],
                             ids=["nan", "minus_inf", "huge_int", "minus_huge_int"])
    def test_non_finite_rejected(self, cls, name, value):
        # An integer beyond the float range counts as not finite.
        with pytest.raises(ValidationError, match=f"^{name} must be finite, got "):
            cls(**{name: value})

    def test_float32_builds_without_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            model = DuffingModel(damping=np.float32(0.25))
            EmFitConfig(tol=np.float32(1e-8))
        assert model.damping == 0.25

    def test_type_checked_before_finiteness(self):
        # Every field's type is checked before any float's finiteness.
        with pytest.raises(ValidationError, match="^dt must be of type float"):
            DuffingModel(damping=np.nan, dt="0.01")


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

    @pytest.mark.parametrize("cloud, message", [
        (np.zeros(200), r"cloud must be \(N, n\), got shape \(200,\)"),
        (np.zeros((2, 100, 2)), r"cloud must be \(N, n\), got shape \(2, 100, 2\)"),
        (np.full((200, 2), np.nan), "cloud contains non-finite entries"),
        ([[0.0, 1.0], [2.0]], "cloud must be a numeric array"),
        ([["a", "b"]] * 20, "cloud must be a numeric array"),
    ], ids=["one_dim", "three_dim", "non_finite", "ragged", "strings"])
    def test_rejects_malformed_cloud(self, cloud, message):
        with pytest.raises(ValidationError, match=message):
            fit_gmm_em(cloud, EmFitConfig(n_components=2), np.random.default_rng(0))

    def test_rejects_cloud_far_from_the_origin(self, rng):
        # At 1e200 the cloud's mean is off by about 1e185, so its centered
        # squares overflow: the fit used to warn and then blame its covs.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValidationError, match=r"^cloud reaches \S+ from its mean"):
                fit_gmm_em(rng.standard_normal((200, 2)) + 1e200, EmFitConfig(n_components=2),
                           np.random.default_rng(0))

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

    @pytest.mark.parametrize("dim", [2, 3])
    @pytest.mark.parametrize("order", ["C", "F"])
    def test_kmeanspp_column_distances_match_row_sums(self, dim, order):
        # The fit passes the cloud F-ordered, as the transpose of its columns.
        points = propagate_cloud(np.random.default_rng(dim).standard_normal((1_500, 2)),
                                 DuffingModel(), 0.5)
        if dim == 3:
            points = np.column_stack([points, points[:, 0] * points[:, 1]])
        points = np.asarray(points, order=order)
        for seed in range(5):
            draws, ref_draws = np.random.default_rng(seed), np.random.default_rng(seed)
            centers, nearest = propagation._kmeanspp_centers(points, 10, draws)
            ref_centers, ref_nearest = _kmeanspp_rows(points, 10, ref_draws)
            np.testing.assert_array_equal(centers, ref_centers)
            np.testing.assert_array_equal(nearest, ref_nearest)
            assert draws.bit_generator.state == ref_draws.bit_generator.state


def _kmeanspp_rows(points, k, rng):
    """k-means++ with each squared distance summed over the rows of an
    ``(N, d)`` temporary: the reference for the column-wise distances."""
    n = points.shape[0]
    centers = [points[int(rng.integers(n))]]
    d2 = np.sum((points - centers[0]) ** 2, axis=1)
    nearest = np.zeros(n, dtype=np.intp)
    for j in range(1, k):
        total = float(d2.sum())
        if total <= 0.0:
            centers.append(points[int(rng.integers(n))])
            continue
        idx = int(rng.choice(n, p=d2 / total))
        centers.append(points[idx])
        new = np.sum((points - centers[-1]) ** 2, axis=1)
        closer = new < d2
        nearest[closer] = j
        d2[closer] = new[closer]
    return np.stack(centers), nearest


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
# floor: the reference the feature-form EM must match to within roundoff. The
# floor returns its eigenpairs, as the EM's does; the reference E-step reads
# the covariances alone.
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
        vl = v[low]
        lifted = (vl * np.clip(w[low], floor, None)[:, None, :]) @ np.swapaxes(vl, 1, 2)
        covs[low] = 0.5 * (lifted + np.swapaxes(lifted, 1, 2))
    return covs, np.clip(w, floor, None), v


def _ref_m_step(points, resp_t, mass, floor):
    means = (resp_t @ points) / mass[:, None]
    diff = np.ascontiguousarray(points.T)[None, :, :] - means[:, :, None]
    weighted = diff * resp_t[:, None, :]
    covs = weighted @ np.swapaxes(diff, 1, 2) / mass[:, None, None]
    return mass, means, _ref_floor_cov(covs, floor)


def _stack_rows(outs):
    """Stack per-row results, tuples of arrays nested like the EM's steps
    return them, along a new leading axis."""
    if isinstance(outs[0], tuple):
        return tuple(_stack_rows([o[j] for o in outs]) for j in range(len(outs[0])))
    return np.stack(outs)


def _per_row(step, work, *stacks):
    """``step(points, *row)`` on every (cloud, restart) row of the fit's
    ``(F, R, ...)`` stacks, stacked back into ``(F, R, ...)`` arrays."""
    return _stack_rows([_stack_rows([step(points, *row) for row in zip(*rows)])
                        for points, *rows in zip(work.points, *stacks)])


def _reference_fit(cloud, config, seed):
    """``fit_gmm_em`` run through the reference E/M step and floor, each step
    applied to every row of the fit's ``(F, R, K, ...)`` stack."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(propagation, "_e_step", lambda work, w, m, cov: _per_row(
            _ref_e_step, work, w, m, cov[0]))
        mp.setattr(propagation, "_m_step", lambda work, resp_t, mass=None: _per_row(
            lambda points, r, s: _ref_m_step(points, r, s, config.covariance_floor), work,
            resp_t, resp_t.sum(axis=-1) if mass is None else mass))
        mp.setattr(propagation, "_floored_eigh", _ref_floor_cov)
        return fit_gmm_em(cloud, config, np.random.default_rng(seed), details=True)


def _joint_logpdfs(work, weights, means, evals, evecs):
    """``(F, R, K, N)`` joint log densities from the E-step's coefficients,
    unshifted: the product the per-point-peak form starts from."""
    coef, peaks = _coefficients(work, weights, means, evals, evecs)
    coef[..., 0] += peaks
    return coef @ work.feats[:, None]


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
        work = _EmWork(points[None], len(means), EmFitConfig().covariance_floor, 1)
        evals, evecs = np.linalg.eigh(covs)
        joint = _joint_logpdfs(work, np.ones((1, 1, len(means))), means[None, None],
                               evals[None, None], evecs[None, None])[0, 0]
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
        _, means, (covs, evals, evecs) = _m_step(_EmWork(points[None], k, 1e-12, 1),
                                                 resp.T[None, None], mass[None, None])
        means, covs, evals, evecs = means[0, 0], covs[0, 0], evals[0, 0], evecs[0, 0]
        np.testing.assert_allclose((evecs * evals[:, None, :]) @ np.swapaxes(evecs, 1, 2), covs,
                                   rtol=0.0, atol=1e-14 * np.abs(covs).max())
        for j in range(k):
            mean = resp[:, j] @ points / mass[j]
            diff = points - mean
            cov = (diff * resp[:, j:j + 1]).T @ diff / mass[j]
            np.testing.assert_allclose(means[j], mean, rtol=1e-12)
            np.testing.assert_allclose(covs[j], cov, rtol=1e-12)

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_row_clip_matches_scalar_clip(self, rng, dim):
        # The E-step shifts the row by its tallest component peak inside the
        # product and clips against a row of _LOG_RESP_FLOOR; the same chain
        # with numpy's maximum on a scalar operand gives the same bits, only
        # more slowly.
        points, means, covs = _floor_level_case(rng, dim)
        k = len(means)
        work = _EmWork(points[None], k, EmFitConfig().covariance_floor, 1)
        weights = rng.dirichlet(np.ones(k))[None, None]
        evals, evecs = np.linalg.eigh(covs)
        cov = (covs[None, None], evals[None, None], evecs[None, None])
        coef, peaks = _coefficients(work, weights, means[None, None], *cov[1:])
        top = peaks.max(axis=-1, keepdims=True)
        coef[..., 0] += peaks - top
        joint = coef @ work.feats[:, None]
        assert (joint < _LOG_RESP_FLOOR).any()
        np.maximum(joint, _LOG_RESP_FLOOR, out=joint)
        np.exp(joint, out=joint)
        total = np.ones((1, k)) @ joint
        ref_log_norm = np.log(total)[..., 0, :] + top
        joint *= np.reciprocal(total)

        resp_t, log_norm = _e_step(work, weights, means[None, None], cov)
        assert resp_t.tobytes() == joint.tobytes()
        assert log_norm.tobytes() == ref_log_norm.tobytes()

    def test_far_row_takes_the_per_point_peak_form(self, rng):
        # Two restarts' rows of one cloud. In the second, a tight component
        # has the tallest peak and every point lies far from every component,
        # so the shift by the row's tallest peak would clip most of it: that
        # row alone takes the exact per-point-peak chain, bit for bit, while
        # the first keeps the shifted one.
        points = rng.standard_normal((300, 2))
        work = _EmWork(points[None], 2, EmFitConfig().covariance_floor, 2)
        means = np.array([[[0.0, 0.0], [0.5, 0.0]], [[40.0, 40.0], [-40.0, 40.0]]])[None]
        covs = np.array([[np.eye(2), 0.5 * np.eye(2)], [1e-6 * np.eye(2), np.eye(2)]])[None]
        evals, evecs = np.linalg.eigh(covs)
        weights = np.full((1, 2, 2), 0.5)
        cov = (covs, evals, evecs)
        out = tuple(a.copy() for a in _e_step(work, weights, means, cov))

        joint = _joint_logpdfs(work, weights, means, evals, evecs)
        gap = joint.max(axis=-2).min(axis=-1) - _coefficients(work, weights, means, evals,
                                                              evecs)[1].max(axis=-1)
        assert gap[0, 0] > -_MAX_SHIFT_GAP > gap[0, 1]
        ref_log_norm, total = _log_sum_exp(joint[0, 1], work.resp_floor)
        for got, ref in zip(out, (joint[0, 1] * np.reciprocal(total), ref_log_norm)):
            assert got[0, 1].tobytes() == ref.tobytes()
        one = _e_step(_EmWork(points[None], 2, EmFitConfig().covariance_floor, 1),
                      weights[:, :1], means[:, :1], tuple(a[:, :1] for a in cov))
        for got, ref in zip(out, one):
            assert got[0, 0].tobytes() == ref[0, 0].tobytes()

    def test_shifted_e_step_matches_per_point_peaks(self):
        # Criterion-8 Duffing clouds and their fitted mixtures, whose
        # floor-level components put terms of 4e7 into the product. Each
        # form's joint log density is an M-term dot product, off by at most
        # about M eps times the sum of its terms' magnitudes, and the shift
        # only changes which roundoff it carries: the two forms' log
        # densities must agree to twice that, one error per form, taken at
        # each point's largest sum (0.006 of it measured), and their
        # responsibilities, whose logs subtract two such values, to four
        # times that, relative. Entries the clip raises stay below its bound.
        config = EmFitConfig(n_components=10, max_iters=150, restarts=2)
        points = np.stack([_crit8_duffing_cloud(periods) for periods in (2, 6)])
        mixes = [fit_gmm_em(cloud, config, np.random.default_rng(seed))
                 for cloud, seed in zip(points, (2, 5))]
        work = _EmWork(points, config.n_components, config.covariance_floor, 1)
        weights, means, covs = (np.stack([getattr(m, name) for m in mixes])[:, None]
                                for name in ("weights", "means", "covs"))
        cov = _floored_eigh(covs, config.covariance_floor)
        coef, peaks = _coefficients(work, weights, means, *cov[1:])
        coef[..., 0] += peaks
        terms = np.abs(coef) @ np.abs(work.feats[:, None])
        ulps = 2.0 * coef.shape[-1] * np.finfo(float).eps * terms.max(axis=-2)
        joint = _joint_logpdfs(work, weights, means, *cov[1:])
        ref_log_norm, total = _log_sum_exp(joint, work.resp_floor)
        joint *= np.reciprocal(total)

        resp_t, log_norm = _e_step(work, weights, means, cov)
        bound = np.exp(_LOG_RESP_FLOOR + _MAX_SHIFT_GAP)
        assert (joint < bound).any() and (joint > 0.5).any()
        assert np.all(np.abs(log_norm - ref_log_norm) <= ulps)
        assert np.all(np.abs(resp_t - joint) <= 2.0 * ulps[..., None, :] * joint + bound)

    def test_ones_column_masses_match_row_sums(self):
        # Criterion-8 shape: two Duffing clouds, two restarts, K = 10. The
        # M-step product's ones column is a BLAS sum of each row of
        # responsibilities, in another order than numpy's pairwise sum.
        rng = np.random.default_rng(31)
        points = np.stack([propagate_cloud(rng.standard_normal((1_500, 2)) * [1.0, 0.5],
                                           DuffingModel(), 0.5 * periods) for periods in (1, 3)])
        k = 10
        work = _EmWork(points, k, EmFitConfig().covariance_floor, 2)
        means = points[:, rng.integers(1_500, size=(2, k))]
        covs = np.broadcast_to(0.05 * np.eye(2), (2, 2, k, 2, 2))
        evals, evecs = np.linalg.eigh(covs)
        resp_t, _ = _e_step(work, np.full((2, 2, k), 1.0 / k), means, (covs, evals, evecs))
        assert resp_t.min() < 1e-100  # masses that sum tiny and large terms alike
        mass, _, _ = _m_step(work, resp_t)
        np.testing.assert_allclose(mass, resp_t.sum(axis=-1), rtol=1e-13, atol=0.0)

    def test_init_gives_empty_components_their_center_and_overall_cov(self, monkeypatch):
        # Two locations, 30 points each: k-means++ draws the second location,
        # then only repeats, whose centers win no point (ties keep the earlier
        # center). The first E-step sees each empty component at its center,
        # with its cloud's floored overall covariance and weight 1 / (N + empty).
        cloud = np.repeat([[0.0, 0.0], [3.0, 1.0]], 30, axis=0)
        config = EmFitConfig(n_components=4, max_iters=1, restarts=1)
        centers, nearest = _kmeanspp_centers(cloud, 4, np.random.default_rng(5))
        empty = np.bincount(nearest, minlength=4) == 0
        assert empty.sum() == 2

        class Seen(Exception):
            pass

        def first_e_step(work, weights, means, cov):
            raise Seen(work, weights[0, 0], means[0, 0], tuple(part[0, 0] for part in cov))

        monkeypatch.setattr(propagation, "_e_step", first_e_step)
        with pytest.raises(Seen) as seen:
            fit_gmm_em(cloud, config, np.random.default_rng(5))
        work, weights, means, cov = seen.value.args
        np.testing.assert_array_equal(means[empty], centers[empty])
        for part, overall in zip(cov, work.overall):
            np.testing.assert_array_equal(part[empty], np.stack([overall[0]] * 2))
        np.testing.assert_array_equal(weights[empty], 1.0 / 62.0)
        np.testing.assert_array_equal(weights[~empty], 30.0 / 62.0)

    def test_floor_lifts_only_low_components(self, rng):
        floor = 1e-4
        covs = _spd_stack(rng, 5, 2)
        covs[1] = [[1.0, 0.0], [0.0, 1e-7]]
        covs[3] = [[2e-5, 1e-5], [1e-5, 2e-5]]
        covs += 1e-13 * rng.standard_normal(covs.shape)  # slightly asymmetric
        sym = 0.5 * (covs + np.swapaxes(covs, 1, 2))
        out = _floored_eigh(covs.copy(), floor)[0]
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

    def test_history_grows_with_the_passes_run(self, rng):
        # A (restarts, max_iters) pass history would ask for 14.6 TiB here;
        # two separated clusters converge within a few passes.
        cloud = np.concatenate([rng.standard_normal((200, 2)) - 10.0,
                                rng.standard_normal((200, 2)) + 10.0])
        _, diag = fit_gmm_em(cloud, EmFitConfig(n_components=2, max_iters=10**12, restarts=2),
                             np.random.default_rng(44), details=True)
        assert diag.converged
        assert diag.iterations == len(diag.log_likelihoods) < 10

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

    def test_final_log_likelihood_exact_far_from_the_cloud_mean(self):
        # Two repeated-point clusters 1e4 from the cloud's mean, where the
        # feature form's quadratic lost about 5e-3 nats/point: the returned
        # mixture is scored with whitened residuals, to scipy's roundoff.
        rng = np.random.default_rng(3)
        cloud = np.concatenate([rng.standard_normal((200, 2)),
                                np.tile([1e4, 1e4], (50, 1)), np.tile([-1e4, -1e4], (50, 1))])
        mix, diag = fit_gmm_em(cloud, EmFitConfig(n_components=3, restarts=2),
                               np.random.default_rng(1), details=True)
        logpdfs = np.stack([multivariate_normal(m, c).logpdf(cloud)
                            for m, c in zip(mix.means, mix.covs)], axis=1)
        expected = float(logsumexp(logpdfs + np.log(mix.weights), axis=1).sum())
        assert diag.final_log_likelihood == pytest.approx(expected, rel=1e-9)

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


def _sequential_runs(cloud, config, seed):
    """Each restart of ``config`` as its own ``restarts=1`` fit, one after
    another on one shared generator; the first ``FitError`` propagates."""
    draws = np.random.default_rng(seed)
    return [fit_gmm_em(cloud, replace(config, restarts=1), draws, details=True)
            for _ in range(config.restarts)]


def _assert_matches_winner(cloud, config, seed, runs):
    """The stacked fit returns the sequential ``runs``' first best-scoring
    restart, bit for bit."""
    winner = int(np.argmax([d.final_log_likelihood for _, d in runs]))
    ref, ref_diag = runs[winner]
    mix, diag = fit_gmm_em(cloud, config, np.random.default_rng(seed), details=True)
    for name in ("weights", "means", "covs"):
        assert np.array_equal(getattr(mix, name), getattr(ref, name))
    assert np.array_equal(diag.log_likelihoods, ref_diag.log_likelihoods)
    assert diag.restart_index == winner
    for name in ("reseeds", "final_log_likelihood", "iterations", "converged"):
        assert getattr(diag, name) == getattr(ref_diag, name)


def _crit8_duffing_cloud(periods):
    rng = np.random.default_rng(1500 + periods)
    return propagate_cloud(rng.standard_normal((1_500, 2)) * [1.0, 0.5] + [1.0, 0.0],
                           DuffingModel(), 0.5 * periods)


class TestStackedRestarts:
    """A fit runs its restarts as one stack; every restart must come out bit
    for bit as a fit of its own from the same generator state."""

    @pytest.mark.parametrize("case", ["duffing", "tol_compaction", "reseed"])
    def test_matches_sequential_restarts(self, case):
        if case == "reseed":
            cloud = np.repeat([[0.0, 0.0], [1000.0, 1000.0]], 100, axis=0)
            config, seed = EmFitConfig(n_components=3, max_iters=50, restarts=2), 0
        else:
            periods, seed = (2, 2) if case == "duffing" else (6, 5)
            cloud = _crit8_duffing_cloud(periods)
            config = EmFitConfig(n_components=10, max_iters=150, restarts=2)
        runs = _sequential_runs(cloud, config, seed)
        iterations = [d.iterations for _, d in runs]
        if case == "tol_compaction":
            # Restart 0 meets `tol` and freezes in the stack while restart 1 runs on.
            assert iterations == [117, 150]
            assert [d.converged for _, d in runs] == [True, False]
        if case == "reseed":
            assert [d.reseeds for _, d in runs] == [1, 1]
        _assert_matches_winner(cloud, config, seed, runs)

    @pytest.mark.parametrize("cloud, config, seed, message", [
        # Restart 0 passes the reseed limit.
        (np.repeat([[0.0, 0.0], [1000.0, 1000.0]], 100, axis=0),
         EmFitConfig(n_components=6, max_iters=50, restarts=2), 0,
         "EM failed after 4 component reseeds"),
        # Restart 1 passes it; restart 0 still finishes first, and restart 2
        # never counts. Every collapse test misses its threshold by a
        # fifth or more, and restart 0 meets the loose `tol` by 2.1 against
        # score roundoff of 3e-6, so the fit decides the outcome, not roundoff.
        (np.repeat([[17.6, -0.8], [25.4, -5.7], [18.1, -15.0], [-12.2, 2.2]],
                   [39, 57, 58, 42], axis=0),
         EmFitConfig(n_components=7, max_iters=40, restarts=3, tol=1e-3), 34,
         "EM failed after 6 component reseeds"),
        # A later restart passes it on an earlier pass; restart 0's error,
        # raised later, is the one a sequential fit meets first.
        (np.repeat([[-0.7, 9.0], [-13.8, 17.9], [-3.2, -12.0], [-1.4, 7.8]],
                   [104, 50, 103, 82], axis=0),
         EmFitConfig(n_components=7, max_iters=40, restarts=3), 34,
         "EM failed after 4 component reseeds"),
    ])
    def test_reseed_limit_error_matches_sequential(self, cloud, config, seed, message):
        with pytest.raises(FitError) as sequential:
            _sequential_runs(cloud, config, seed)
        assert str(sequential.value) == message
        with pytest.raises(FitError) as stacked:
            fit_gmm_em(cloud, config, np.random.default_rng(seed))
        assert str(stacked.value) == message

    def test_far_point_masses_match_sequential(self):
        # Two point masses 1100 from their mean, with covariances at the
        # floor: there the feature form's score carries roundoff near `tol`'s
        # bound, which decides whether a restart stops or reseeds past the
        # limit. Whichever it is, the stack must do what its restarts do one
        # after another.
        cloud = np.repeat([[-398.8, 1250.3], [276.5, -975.0]], [48, 37], axis=0)
        config = EmFitConfig(n_components=5, max_iters=40, restarts=3)
        try:
            runs = _sequential_runs(cloud, config, 34)
        except FitError as sequential:
            with pytest.raises(FitError) as stacked:
                fit_gmm_em(cloud, config, np.random.default_rng(34))
            assert str(stacked.value) == str(sequential)
            return
        _assert_matches_winner(cloud, config, 34, runs)


def _assert_same_fit(fit, ref):
    (mix, diag), (ref_mix, ref_diag) = fit, ref
    for name in ("weights", "means", "covs"):
        assert np.array_equal(getattr(mix, name), getattr(ref_mix, name))
    assert np.array_equal(diag.log_likelihoods, ref_diag.log_likelihoods)
    for name in ("reseeds", "restart_index", "final_log_likelihood", "iterations", "converged"):
        assert getattr(diag, name) == getattr(ref_diag, name)


# Point masses on which a K = 6, two-restart fit from default_rng(0) passes
# the reseed limit: the first on pass 5, the second on pass 2.
_FAILS_ON_PASS_5 = np.repeat([[-5.2, -4.1], [-24.4, 18.0], [11.4, -3.3], [7.7, 2.8]],
                             [49, 52, 51, 48], axis=0)
_FAILS_ON_PASS_2 = np.repeat([[82.2, 33.0], [-130.3, 90.5], [44.6, -53.7]], [70, 58, 72], axis=0)


class TestStackedClouds:
    """A step's distinct clouds run as one stacked fit; every cloud must come
    out bit for bit as its own ``fit_gmm_em`` call from its own generator,
    and leave that generator where its own call leaves it."""

    @pytest.mark.parametrize("case", ["one", "two", "three", "tol_first", "tol_last", "reseed",
                                      "per_point_peaks"])
    def test_matches_per_cloud_fits(self, case, monkeypatch):
        config = EmFitConfig(n_components=10, max_iters=150, restarts=2)
        exact_rows = []
        if case == "per_point_peaks":
            # One component of the first cloud holds 1400 points at the origin
            # and one at (3, 4), 37 of its deviations out, while the other sits
            # on the 99 points at (1000, 1000): that cloud's rows take the
            # E-step's per-point-peak form, the Duffing cloud's rows the shift.
            def counted(joint, floor_row):
                exact_rows.append(joint.shape)
                return _log_sum_exp(joint, floor_row)

            monkeypatch.setattr(propagation, "_log_sum_exp", counted)
        if case in ("one", "two", "three"):
            count = ("one", "two", "three").index(case) + 1
            clouds = [_crit8_duffing_cloud(periods) for periods in (2, 3, 4)[:count]]
            seeds = (2, 3, 4)[:count]
        elif case.startswith("tol"):
            # Restart 0 of the periods=6 cloud meets `tol` at pass 117 and
            # freezes in the stack while its restart 1 and the other cloud's
            # restarts run on, so the clouds differ in their active rows.
            clouds = [_crit8_duffing_cloud(6), _crit8_duffing_cloud(2)]
            clouds = clouds if case == "tol_first" else clouds[::-1]
            seeds = (5, 5)
        elif case == "reseed":
            config = EmFitConfig(n_components=3, max_iters=50, restarts=2)
            clouds = [np.repeat([[0.0, 0.0], [1000.0, 1000.0]], 100, axis=0),
                      np.random.default_rng(8).standard_normal((200, 2))]
            seeds = (0, 0)
        else:
            config = EmFitConfig(n_components=2, max_iters=150, restarts=2)
            clouds = [np.concatenate([np.zeros((1400, 2)), np.full((99, 2), 1000.0), [[3.0, 4.0]]]),
                      _crit8_duffing_cloud(2)]
            seeds = (0, 2)
        ref_draws = [np.random.default_rng(seed) for seed in seeds]
        refs = [fit_gmm_em(cloud, config, draws, details=True)
                for cloud, draws in zip(clouds, ref_draws)]
        if case.startswith("tol"):
            tol_fit = refs[0 if case == "tol_first" else 1][1]
            assert (tol_fit.restart_index, tol_fit.iterations, tol_fit.converged) == (0, 117, True)
        if case == "reseed":
            assert refs[0][1].reseeds == 1

        draws = [np.random.default_rng(seed) for seed in seeds]
        exact_rows.clear()
        fits = _fit_gmm_em_stack(clouds, config, draws)
        if case == "per_point_peaks":
            # Beyond the final scores, one call per restart of each cloud.
            assert len(exact_rows) > len(clouds) * config.restarts
        assert len(fits) == len(clouds)
        for fit, ref in zip(fits, refs):
            _assert_same_fit(fit, ref)
        for gen, ref_gen in zip(draws, ref_draws):
            assert gen.bit_generator.state == ref_gen.bit_generator.state

    @pytest.mark.parametrize("order, message", [
        # The second of three clouds is the first to fail.
        ((0, 2, 1), "EM failed after 6 component reseeds"),
        # The third cloud fails on an earlier pass than the second; the
        # second's error, met later, is the one a per-cloud loop meets first.
        ((0, 1, 2), "EM failed after 5 component reseeds"),
    ])
    def test_first_failing_cloud_raises(self, order, message):
        candidates = [np.random.default_rng(8).standard_normal((200, 2)), _FAILS_ON_PASS_5,
                      _FAILS_ON_PASS_2]
        clouds = [candidates[i] for i in order]
        config = EmFitConfig(n_components=6, max_iters=50, restarts=2)
        with pytest.raises(FitError) as sequential:
            for cloud in clouds:
                fit_gmm_em(cloud, config, np.random.default_rng(0))
        assert str(sequential.value) == message
        with pytest.raises(FitError) as stacked:
            _fit_gmm_em_stack(clouds, config, [np.random.default_rng(0) for _ in clouds])
        assert str(stacked.value) == message

    def test_clouds_must_share_one_shape(self, rng):
        with pytest.raises(ValidationError, match="clouds must be a numeric array") as err:
            _fit_gmm_em_stack([rng.standard_normal((200, 2)), rng.standard_normal((201, 2))],
                              EmFitConfig(n_components=2), [rng, rng])
        # The message abbreviates the clouds instead of printing 401 points.
        assert len(str(err.value)) < 200
