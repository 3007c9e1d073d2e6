"""Tests for the Gaussian/mixture primitives."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wassfilter import (DegeneracyError, DiracPoint, Gaussian, GaussianMixture,
                        ValidationError, gaussian_logpdf, mixture_mean_cov,
                        sample_gaussian, sample_mixture, spd_sqrt)
from wassfilter.gaussian import _floored_eigh, ensure_spd, psd_sqrt

from conftest import random_gaussian, random_spd


class TestSpdSqrt:
    def test_identity(self):
        np.testing.assert_array_equal(spd_sqrt(np.eye(3)), np.eye(3))

    def test_diagonal_closed_form(self):
        np.testing.assert_allclose(spd_sqrt(np.diag([4.0, 9.0])), np.diag([2.0, 3.0]),
                                   atol=1e-14)

    def test_reconstruction_suite(self):
        # Oracle: multiply the root back together and compare to the input.
        rng = np.random.default_rng(1)
        for _ in range(100):
            n = int(rng.choice([1, 2, 4, 8]))
            m = random_spd(rng, n)
            s = spd_sqrt(m)
            err = np.linalg.norm(s @ s - m) / np.linalg.norm(m)
            assert err < 1e-10

    def test_commutes_with_argument(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            n = int(rng.choice([2, 4, 8]))
            m = random_spd(rng, n)
            s = spd_sqrt(m)
            assert np.linalg.norm(s @ m - m @ s) < 1e-9 * np.linalg.norm(m)

    def test_rejects_non_symmetric(self):
        with pytest.raises(ValidationError):
            spd_sqrt([[1.0, 0.5], [0.0, 1.0]])

    def test_rejects_non_pd_with_eigenvalue_in_message(self):
        with pytest.raises(DegeneracyError, match="-1"):
            spd_sqrt([[1.0, 0.0], [0.0, -1.0]])


class TestLogpdf:
    def test_standard_normal_mode(self):
        g = Gaussian([0.0], [[1.0]])
        assert gaussian_logpdf(g, [0.0]) == pytest.approx(-0.5 * np.log(2 * np.pi), abs=1e-14)

    def test_two_dim_origin(self):
        g = Gaussian([0.0, 0.0], np.eye(2))
        assert gaussian_logpdf(g, [0.0, 0.0]) == pytest.approx(-np.log(2 * np.pi), abs=1e-14)

    def test_quadrature_oracle(self):
        # Oracle: numerically integrate the density over a small box and
        # compare mass/volume against exp(logpdf) at the box center.
        from scipy.integrate import dblquad

        rng = np.random.default_rng(3)
        g = random_gaussian(rng, 2)
        x = g.mean + 0.3 * rng.standard_normal(2)
        half = 5e-4

        cov_inv = np.linalg.inv(g.cov)
        norm = 1.0 / (2 * np.pi * np.sqrt(np.linalg.det(g.cov)))

        def density(x2, x1):
            d = np.array([x1, x2]) - g.mean
            return norm * np.exp(-0.5 * d @ cov_inv @ d)

        mass, _ = dblquad(density, x[0] - half, x[0] + half,
                          lambda _: x[1] - half, lambda _: x[1] + half)
        volume = (2 * half) ** 2
        assert np.exp(gaussian_logpdf(g, x)) == pytest.approx(mass / volume, rel=1e-4)

    def test_dimension_mismatch(self):
        with pytest.raises(ValidationError):
            gaussian_logpdf(Gaussian([0.0], [[1.0]]), [0.0, 1.0])


class TestSampleGaussian:
    def test_law_of_large_numbers_mean(self):
        g = Gaussian(np.zeros(2), np.eye(2))
        x = sample_gaussian(g, 100_000, np.random.default_rng(4))
        bound = 3.0 / np.sqrt(100_000)
        assert np.all(np.abs(x.mean(axis=0)) < bound)
        np.testing.assert_allclose(np.cov(x, rowvar=False), np.eye(2), atol=0.02)

    def test_same_seed_identical(self):
        g = Gaussian([1.0, -2.0], [[2.0, 0.3], [0.3, 1.0]])
        a = sample_gaussian(g, 50, np.random.default_rng(5))
        b = sample_gaussian(g, 50, np.random.default_rng(5))
        np.testing.assert_array_equal(a, b)

    def test_single_sample_shape(self):
        x = sample_gaussian(Gaussian(np.zeros(3), np.eye(3)), 1, np.random.default_rng(6))
        assert x.shape == (1, 3)

    def test_rejects_zero_count(self):
        with pytest.raises(ValidationError):
            sample_gaussian(Gaussian([0.0], [[1.0]]), 0, np.random.default_rng(0))


class TestSampleMixture:
    def test_single_component_matches_gaussian_bitwise(self):
        g = Gaussian([2.0], [[0.5]])
        mix = GaussianMixture([1.0], [g.mean], [g.cov])
        a = sample_mixture(mix, 64, np.random.default_rng(7))
        b = sample_gaussian(g, 64, np.random.default_rng(7))
        np.testing.assert_array_equal(a, b)

    def test_degenerate_weight_selects_first(self):
        mix = GaussianMixture([1.0, 0.0], [[0.0], [100.0]], [[[1.0]], [[1.0]]])
        x = sample_mixture(mix, 1000, np.random.default_rng(8))
        assert np.all(np.abs(x) < 10.0)

    def test_component_frequency(self):
        mix = GaussianMixture([0.5, 0.5], [[-50.0], [50.0]], [[[1.0]], [[1.0]]])
        x = sample_mixture(mix, 100_000, np.random.default_rng(9))
        freq = float(np.mean(x[:, 0] < 0.0))
        assert abs(freq - 0.5) < 0.01


class TestMixtureMeanCov:
    def test_single_component(self):
        g = Gaussian([1.0, 2.0], [[2.0, 0.5], [0.5, 1.0]])
        mean, cov = mixture_mean_cov(GaussianMixture([1.0], [g.mean], [g.cov]))
        np.testing.assert_array_equal(mean, g.mean)
        np.testing.assert_array_equal(cov, g.cov)

    def test_symmetric_pair_closed_form(self):
        a = np.array([1.5, -0.5])
        mix = GaussianMixture([0.5, 0.5], [a, -a], [np.eye(2), np.eye(2)])
        mean, cov = mixture_mean_cov(mix)
        np.testing.assert_allclose(mean, np.zeros(2), atol=1e-15)
        np.testing.assert_allclose(cov, np.eye(2) + np.outer(a, a), atol=1e-15)

    def test_sampling_oracle(self):
        # Oracle: moments of a large sample from the mixture.
        rng = np.random.default_rng(10)
        mix = GaussianMixture.from_unnormalized(
            rng.uniform(0.5, 1.5, 3), [random_gaussian(rng, 2) for _ in range(3)])
        mean, cov = mixture_mean_cov(mix)
        x = sample_mixture(mix, 1_000_000, np.random.default_rng(11))
        np.testing.assert_allclose(x.mean(axis=0), mean, atol=0.01)
        np.testing.assert_allclose(np.cov(x, rowvar=False), cov, atol=0.03)

    def test_result_symmetric_psd(self, rng):
        for _ in range(20):
            order = int(rng.integers(1, 5))
            mix = GaussianMixture.from_unnormalized(
                rng.uniform(0.1, 1.0, order), [random_gaussian(rng, 3) for _ in range(order)])
            _, cov = mixture_mean_cov(mix)
            np.testing.assert_array_equal(cov, cov.T)
            assert np.linalg.eigvalsh(cov).min() > -1e-12


class TestValidation:
    def test_rejects_off_simplex_weights(self):
        for weights in ([0.4, 0.4], [0.5, 0.5 + 1e-11]):
            with pytest.raises(ValidationError):
                GaussianMixture(weights, [[0.0], [0.0]], [[[1.0]], [[1.0]]])

    def test_rejects_negative_weight(self):
        with pytest.raises(ValidationError):
            GaussianMixture([1.2, -0.2], [[0.0], [0.0]], [[[1.0]], [[1.0]]])

    @pytest.mark.parametrize("weights", [[0.0, 0.0], [np.inf, 1.0]], ids=["zero", "infinite"])
    def test_from_unnormalized_rejects_weight_sum(self, weights):
        nodes = [Gaussian([0.0], [[1.0]])] * 2
        with pytest.raises(ValidationError, match="weights must have a positive finite sum"):
            GaussianMixture.from_unnormalized(weights, nodes)

    def test_from_unnormalized_rejects_non_gaussian_nodes(self):
        with pytest.raises(ValidationError, match="must be Gaussian instances"):
            GaussianMixture.from_unnormalized([1.0], [DiracPoint([0.0])])

    def test_rejects_non_spd_covariance(self):
        with pytest.raises(DegeneracyError):
            Gaussian([0.0, 0.0], [[1.0, 2.0], [2.0, 1.0]])
        with pytest.raises(DegeneracyError, match="^component 1: "):
            GaussianMixture([0.5, 0.5], np.zeros((2, 2)),
                            [np.eye(2), [[1.0, 2.0], [2.0, 1.0]]])

    def test_rejects_eigenvalue_below_floor(self):
        with pytest.raises(DegeneracyError):
            Gaussian([0.0], [[1e-13]])
        # Components 1 and 2 are both below the floor; the first is named.
        with pytest.raises(DegeneracyError, match="^component 1: .*-1.000000e-13"):
            GaussianMixture([0.2, 0.3, 0.5], np.zeros((3, 1)),
                            [[[1.0]], [[-1e-13]], [[1e-13]]])

    def test_floor_is_configurable(self):
        g = Gaussian([0.0], [[1e-13]], eig_floor=1e-14)
        assert g.cov[0, 0] == 1e-13
        mix = GaussianMixture([1.0], [[0.0]], [[[1e-13]]], eig_floor=1e-14)
        assert mix.nodes[0].cov[0, 0] == 1e-13

    def test_rejects_mixed_dimensions(self):
        with pytest.raises(ValidationError):
            GaussianMixture.from_unnormalized([0.5, 0.5], [Gaussian([0.0], [[1.0]]),
                                                           Gaussian([0.0, 0.0], np.eye(2))])
        for weights, means, covs in (
                ([0.5, 0.5], [[0.0], [0.0, 0.0]], [[[1.0]], [[1.0]]]),  # ragged means
                ([0.5, 0.5], [[0.0], [0.0]], np.ones((2, 2, 2))),  # covs of dimension 2
                ([0.2, 0.3, 0.5], [[0.0], [0.0]], [[[1.0]], [[1.0]]]),  # 3 weights, 2 rows
                ([0.5, 0.5], [[0.0], [0.0]], [[[1.0]]]),  # 1 covariance
                ([0.5, 0.5], [[0.0], [0.0]], np.ones((2, 1, 2))),  # not square
                ([[0.5, 0.5]], [[0.0], [0.0]], [[[1.0]], [[1.0]]]),  # 2-D weights
                ([], np.zeros((0, 1)), np.zeros((0, 1, 1))),  # no component
        ):
            with pytest.raises(ValidationError):
                GaussianMixture(weights, means, covs)

    @pytest.mark.parametrize("bad", ["weights", "means", "covs"])
    def test_rejects_non_finite_entries(self, bad):
        stacks = {"weights": np.array([0.5, 0.5]), "means": np.zeros((2, 2)),
                  "covs": np.stack([np.eye(2), np.eye(2)])}
        stacks[bad] = stacks[bad].copy()
        stacks[bad].flat[-1] = np.nan
        with pytest.raises(ValidationError, match=f"^{bad} contains non-finite"):
            GaussianMixture(**stacks)

    def test_rejects_asymmetric_covariance(self):
        with pytest.raises(ValidationError):
            Gaussian([0.0, 0.0], [[1.0, 0.5], [0.4, 1.0]])
        # The tolerance is relative to each matrix's own scale: component 0's
        # 1e-8 asymmetry at scale 1e6 passes, component 2's at scale 1 does not.
        covs = np.stack([1e6 * np.eye(2), np.eye(2), np.eye(2), np.eye(2)])
        covs[0, 0, 1] += 1e-8
        covs[2, 0, 1] += 1e-8
        covs[3, 0, 1] += 1e-8
        with pytest.raises(ValidationError, match="^component 2: cov is not symmetric"):
            GaussianMixture(np.full(4, 0.25), np.zeros((4, 2)), covs)

    def test_rejects_mean_cov_mismatch(self):
        with pytest.raises(ValidationError):
            Gaussian([0.0, 1.0], [[1.0]])

    def test_immutable_arrays(self):
        g = Gaussian([0.0], [[1.0]])
        with pytest.raises(ValueError):
            g.mean[0] = 5.0
        mix = GaussianMixture([1.0], [[0.0]], [[[1.0]]])
        for a in (mix.weights, mix.means, mix.covs):
            with pytest.raises(ValueError):
                a.flat[0] = 5.0

    def test_views_are_the_stacked_rows(self, rng):
        raw = rng.uniform(0.1, 1.0, 4)
        nodes = [random_gaussian(rng, 3) for _ in range(4)]
        mix = GaussianMixture.from_unnormalized(raw, nodes)
        total = float(raw.sum())
        assert mix.weights.tolist() == [float(w / total) for w in raw]
        for i, ((w, g), node) in enumerate(zip(mix.components, mix.nodes)):
            assert w == mix.weights[i]
            for view in (g, node):
                np.testing.assert_array_equal(view.mean, mix.means[i])
                np.testing.assert_array_equal(view.cov, mix.covs[i])
            np.testing.assert_array_equal(mix.means[i], nodes[i].mean)
            np.testing.assert_array_equal(mix.covs[i], nodes[i].cov)


class TestJsonInterchange:
    def test_mixture_round_trip(self, rng):
        mix = GaussianMixture.from_unnormalized(
            rng.uniform(0.1, 1.0, 3), [random_gaussian(rng, 2) for _ in range(3)])
        back = GaussianMixture.from_json(mix.to_json())
        np.testing.assert_array_equal(back.weights, mix.weights)
        for a, b in zip(mix.nodes, back.nodes):
            np.testing.assert_array_equal(a.mean, b.mean)
            np.testing.assert_array_equal(a.cov, b.cov)

    def test_schema_keys(self):
        d = Gaussian([1.0], [[2.0]]).to_json_dict()
        assert set(d) == {"weights", "means", "covs"}
        assert d["weights"] == [1.0]
        assert d["means"] == [[1.0]]
        assert d["covs"] == [[[2.0]]]

    def test_gaussian_from_json_rejects_multi_component(self):
        mix = GaussianMixture([0.5, 0.5], [[0.0], [1.0]], [[[1.0]], [[1.0]]])
        with pytest.raises(ValidationError):
            Gaussian.from_json_dict(mix.to_json_dict())

    @pytest.mark.parametrize("data", [{"weights": [1.0], "means": [[0.0]]}, [[1.0]]],
                             ids=["missing_covs", "not_a_dict"])
    def test_mixture_from_json_rejects_missing_keys(self, data):
        with pytest.raises(ValidationError, match="mixture JSON needs weights/means/covs"):
            GaussianMixture.from_json_dict(data)


def test_dirac_point_requires_finite():
    with pytest.raises(ValidationError):
        DiracPoint([np.inf, 0.0])


class TestEnsureSpdStack:
    @settings(max_examples=60, deadline=None, database=None)
    @given(seed=st.integers(0, 2**32 - 1), order=st.integers(1, 10), n=st.integers(1, 3))
    def test_stack_equals_per_matrix(self, seed, order, n):
        # Mixed stack: about half the matrices have a zero eigenvalue, which
        # roundoff leaves below the lift level; the rest are well conditioned.
        # All carry a slight asymmetry.
        rng = np.random.default_rng(seed)
        stack = np.empty((order, n, n))
        for k in range(order):
            q, _ = np.linalg.qr(rng.standard_normal((n, n)))
            w = rng.uniform(0.5, 2.0, n)
            if rng.uniform() < 0.5:
                w[0] = 0.0
            skew = 1e-14 * rng.standard_normal((n, n))
            stack[k] = q @ np.diag(w) @ q.T + (skew - skew.T)
        out = ensure_spd(stack)
        assert out.shape == stack.shape
        for k in range(order):
            np.testing.assert_array_equal(out[k], ensure_spd(stack[k]))
            sym = 0.5 * (stack[k] + stack[k].T)
            w = np.linalg.eigvalsh(sym)
            lift = 1e-14 * w[-1]
            if w[0] < lift:
                assert np.linalg.eigvalsh(out[k]).min() >= 0.5 * lift
            else:
                np.testing.assert_array_equal(out[k], sym)

    def test_stack_names_negative_eigenvalue(self):
        stack = np.stack([np.eye(2), np.diag([1.0, -1e-3]), np.diag([1.0, -1.0])])
        with pytest.raises(DegeneracyError, match="-1.000000e-03"):
            ensure_spd(stack)


def _old_rebuild(w, v):
    root = (v * w[..., None, :]) @ np.swapaxes(v, -1, -2)
    return 0.5 * (root + np.swapaxes(root, -1, -2))


def _old_ensure_spd(cov):
    cov = 0.5 * (cov + np.swapaxes(cov, -1, -2))
    w = np.linalg.eigvalsh(cov)
    low = w[..., 0] < 1e-14 * np.maximum(w[..., -1], 0.0)
    if low.any():
        w_low, v_low = np.linalg.eigh(cov[low])
        cov[low] = _old_rebuild(np.maximum(w_low, 1e-14 * np.maximum(w_low[:, -1:], 0.0)), v_low)
    return cov


def _old_floored_eigh(cov, floor):
    cov = 0.5 * (cov + np.swapaxes(cov, -1, -2))
    w, v = np.linalg.eigh(cov)
    low = w[..., 0] < floor
    if low.any():
        w[low] = np.maximum(w[low], floor)
        cov[low] = _old_rebuild(w[low], v[low])
    return cov, w, v


class TestMatrixHygiene:
    """The one symmetrizer, which halves before it sums, and the one rebuild
    from eigenpairs give the bits of the ``0.5 * (m + m^T)`` formulas they
    replaced, and stay finite where those overflow."""

    @pytest.mark.parametrize("seed", range(5))
    def test_bit_for_bit_the_halving_formulas(self, seed):
        # Slightly asymmetric matrices; a third get a zero eigenvalue, which
        # roundoff leaves below ensure_spd's lift, and a third one below the
        # EM floor.
        rng = np.random.default_rng(seed)
        q, _ = np.linalg.qr(rng.standard_normal((12, 3, 3)))
        w = rng.uniform(0.5, 2.0, (12, 3))
        w[::3, 0] = 0.0
        w[1::3, 0] = 1e-9
        skew = 1e-14 * rng.standard_normal((12, 3, 3))
        stack = (q * w[:, None, :]) @ np.swapaxes(q, 1, 2) + (skew - np.swapaxes(skew, 1, 2))
        for m in stack:
            sym = 0.5 * (m + m.T)
            ws, vs = np.linalg.eigh(sym)
            np.testing.assert_array_equal(psd_sqrt(m),
                                          _old_rebuild(np.sqrt(np.clip(ws, 0.0, None)), vs))
            if ws[0] >= 1e-12:
                np.testing.assert_array_equal(spd_sqrt(m), _old_rebuild(np.sqrt(ws), vs))
        np.testing.assert_array_equal(ensure_spd(stack), _old_ensure_spd(stack.copy()))
        for new, old in zip(_floored_eigh(stack, 1e-6), _old_floored_eigh(stack.copy(), 1e-6)):
            np.testing.assert_array_equal(new, old)

    @pytest.mark.parametrize("root", [psd_sqrt, spd_sqrt])
    def test_root_of_a_huge_diagonal(self, root):
        # 0.5 * (m + m^T) overflows to inf at 1e308; nothing overflows here.
        with np.errstate(all="raise"):
            np.testing.assert_allclose(root(np.diag([1e308, 1.0])), np.diag([1e154, 1.0]),
                                       rtol=1e-15)


class TestTrustedStacks:
    """Mixtures built on the update path skip the symmetry and eigenvalue
    passes but must equal what the public constructor builds."""

    @staticmethod
    def _assert_as_public(mix: GaussianMixture):
        public = GaussianMixture(np.array(mix.weights), np.array(mix.means),
                                 np.array(mix.covs), eig_floor=mix.eig_floor)
        for name in ("weights", "means", "covs"):
            a = getattr(mix, name)
            assert a.dtype == float and not a.flags.writeable
            assert a.shape == getattr(public, name).shape
            assert a.tobytes() == getattr(public, name).tobytes()
        assert mix.eig_floor == public.eig_floor

    def test_update_paths_match_public_constructor(self, rng):
        from wassfilter import (DuffingModel, EmFitConfig, ExperimentConfig,
                                LinearMeasurementModel, gsf_update, run_experiment)
        from wassfilter.ngsf import NgsfProblem, apply_ngsf_solution, ngsf_solve

        nodes = [random_gaussian(rng, 2) for _ in range(5)]
        raw = rng.uniform(0.2, 1.0, 5)
        prior = GaussianMixture.from_unnormalized(raw, nodes)
        self._assert_as_public(prior)
        reference = GaussianMixture(raw / raw.sum(), [g.mean for g in nodes],
                                    [g.cov for g in nodes])
        for name in ("weights", "means", "covs"):
            assert getattr(prior, name).tobytes() == getattr(reference, name).tobytes()

        model = LinearMeasurementModel(rng.standard_normal((1, 2)), [[0.3]])
        y = rng.standard_normal(1)
        warm = gsf_update(prior, model, y)
        self._assert_as_public(warm.posterior)
        problem = NgsfProblem.from_gsf(prior, model, y, gsf_result=warm)
        result = apply_ngsf_solution(problem, ngsf_solve(problem))
        self._assert_as_public(result.posterior)
        # The nGSF swaps weights only: nodes, gains and costs are the GSF's arrays.
        assert result.posterior.means is warm.posterior.means
        assert result.posterior.covs is warm.posterior.covs
        assert result.gains is warm.gains
        assert result.component_costs is warm.component_costs
        # The Kalman baseline is the GSF update of the moment-matched prior.
        config = ExperimentConfig(duffing=DuffingModel(dt=0.05),
                                  em=EmFitConfig(n_components=2, max_iters=5, restarts=1),
                                  ensemble_size=100, horizon_steps=1,
                                  filters=("kf_momentmatch",))
        record = run_experiment(config).records[0].filters["kf_momentmatch"]
        assert record.posterior.order == 1
        self._assert_as_public(record.posterior)

    def test_trusted_keeps_the_cheap_checks(self):
        means, covs = np.zeros((2, 2)), np.stack([np.eye(2), np.eye(2)])
        for weights in ([0.4, 0.4], [1.2, -0.2]):
            with pytest.raises(ValidationError):
                GaussianMixture._trusted(np.array(weights), means.copy(), covs.copy(), 0.0)
        for bad in ("means", "covs"):
            stacks = {"weights": np.array([0.5, 0.5]), "means": means.copy(),
                      "covs": covs.copy()}
            stacks[bad].flat[-1] = np.inf
            with pytest.raises(ValidationError, match=f"^{bad} contains non-finite"):
                GaussianMixture._trusted(eig_floor=0.0, **stacks)
        with pytest.raises(ValidationError):
            GaussianMixture._trusted(np.array([1.0]), means.copy(), covs.copy(), 0.0)

    def test_caller_inputs_cannot_write_the_mixture(self, rng):
        weights, means = np.array([0.25, 0.75]), rng.standard_normal((2, 2))
        covs = np.stack([random_spd(rng, 2) for _ in range(2)])
        mix = GaussianMixture(weights, means, covs)
        # A read-only view of an array the caller can still write is copied.
        frozen = means.view()
        frozen.setflags(write=False)
        shared = GaussianMixture(mix.weights, frozen, mix.covs)
        assert shared.weights is mix.weights and shared.covs is mix.covs
        weights[:] = 0.5
        means += 1.0
        covs *= 2.0
        assert mix.weights.tolist() == [0.25, 0.75]
        assert not np.shares_memory(mix.means, means)
        assert not np.shares_memory(shared.means, means)
        np.testing.assert_array_equal(shared.means, mix.means)
        assert not np.shares_memory(mix.covs, covs)

        raw = rng.uniform(0.2, 1.0, 2)
        nodes = [random_gaussian(rng, 2) for _ in range(2)]
        built = GaussianMixture.from_unnormalized(raw, nodes)
        for a in (built.weights, built.means, built.covs):
            assert not np.shares_memory(a, raw)
            assert not any(np.shares_memory(a, g.mean) or np.shares_memory(a, g.cov)
                           for g in nodes)
