"""Tests for the squared 2-Wasserstein distances and the empirical oracle."""

import numpy as np
import pytest

from wassfilter import (DiracPoint, Gaussian, GaussianMixture, LinearMeasurementModel,
                        ValidationError, kalman_update, sample_gaussian, w2_distance, w2_empirical,
                        w2_gaussian_dirac, w2_gaussian_gaussian, w2_mixture_dirac)

from conftest import random_gaussian, random_mixture


class TestGaussianGaussian:
    def test_identical_is_zero(self, rng):
        g = random_gaussian(rng, 3)
        assert w2_gaussian_gaussian(g, g) == pytest.approx(0.0, abs=1e-12)

    def test_equal_variance_mean_gap(self):
        a = Gaussian([0.0], [[1.0]])
        b = Gaussian([3.0], [[1.0]])
        assert w2_gaussian_gaussian(a, b) == pytest.approx(9.0, abs=1e-12)

    def test_commuting_covariances(self):
        a = Gaussian(np.zeros(2), np.eye(2))
        b = Gaussian(np.zeros(2), 4.0 * np.eye(2))
        # tr(I + 4I - 2*2I) = 2, i.e. (1 - 2)^2 per axis.
        assert w2_gaussian_gaussian(a, b) == pytest.approx(2.0, abs=1e-12)

    def test_symmetry_randomized(self, rng):
        for _ in range(50):
            n = int(rng.choice([1, 2, 4]))
            a, b = random_gaussian(rng, n), random_gaussian(rng, n)
            v1, v2 = w2_gaussian_gaussian(a, b), w2_gaussian_gaussian(b, a)
            assert abs(v1 - v2) <= 1e-10 * (1.0 + abs(v1))

    def test_singular_first_argument(self):
        # An exact position measurement leaves a posterior covariance singular
        # up to roundoff; it is as valid a first argument as a second.
        model = LinearMeasurementModel(C=[[1.0, 0.0]], R=[[0.0]])
        prior = Gaussian([0.0, 0.0], [[1.0, 0.3], [0.3, 2.0]])
        post = kalman_update(prior, prior.cov, model, [0.5])
        forward, backward = w2_gaussian_gaussian(post, prior), w2_gaussian_gaussian(prior, post)
        assert forward == pytest.approx(backward, rel=1e-9)

    def test_triangle_inequality_on_root(self, rng):
        for _ in range(50):
            n = int(rng.choice([1, 2, 3]))
            a, b, c = (random_gaussian(rng, n) for _ in range(3))
            assert w2_distance(a, c) <= w2_distance(a, b) + w2_distance(b, c) + 1e-8

    def test_dimension_mismatch(self):
        with pytest.raises(ValidationError):
            w2_gaussian_gaussian(Gaussian([0.0], [[1.0]]), Gaussian([0.0, 0.0], np.eye(2)))


class TestGaussianDirac:
    def test_centered_equals_trace(self, rng):
        g = random_gaussian(rng, 3)
        assert w2_gaussian_dirac(g, DiracPoint(g.mean)) == pytest.approx(
            float(np.trace(g.cov)), abs=1e-12)

    def test_direct_evaluation(self):
        g = Gaussian([1.0, 0.0], np.eye(2))
        assert w2_gaussian_dirac(g, DiracPoint([0.0, 0.0])) == pytest.approx(3.0, abs=1e-14)

    def test_trace_form_identity(self, rng):
        g = random_gaussian(rng, 2)
        d = DiracPoint(rng.standard_normal(2))
        gap = g.mean - d.location
        trace_form = float(np.trace(np.outer(gap, gap) + g.cov))
        assert w2_gaussian_dirac(g, d) == pytest.approx(trace_form, abs=1e-12)

    def test_small_covariance_limit_rate(self, rng):
        # Oracle: the Dirac value is the eps -> 0 limit of the Gaussian form,
        # with exact gap n*eps - 2*sqrt(eps)*tr(sqrt(cov)), an O(sqrt(eps)) rate.
        from wassfilter import spd_sqrt

        g = random_gaussian(rng, 2)
        c = rng.standard_normal(2)
        dirac_value = w2_gaussian_dirac(g, DiracPoint(c))
        root_trace = float(np.trace(spd_sqrt(g.cov)))
        for eps in (1e-4, 1e-6, 1e-8):
            gap = w2_gaussian_gaussian(g, Gaussian(c, eps * np.eye(2))) - dirac_value
            predicted = 2 * eps - 2 * np.sqrt(eps) * root_trace
            assert gap == pytest.approx(predicted, abs=1e-9)

    def test_small_covariance_limit_absolute(self, rng):
        # At eps = 1e-8 the absolute 1e-5 agreement needs tr(sqrt(cov)) below
        # ~0.05, so this instance uses a small-but-valid covariance scale.
        g = Gaussian(rng.standard_normal(2), 2.5e-4 * np.eye(2))
        c = rng.standard_normal(2)
        narrow = Gaussian(c, 1e-8 * np.eye(2))
        assert abs(w2_gaussian_gaussian(g, narrow)
                   - w2_gaussian_dirac(g, DiracPoint(c))) < 1e-5


class TestMixtureDirac:
    def test_single_component(self, rng):
        g = random_gaussian(rng, 2)
        d = DiracPoint(rng.standard_normal(2))
        mix = GaussianMixture([1.0], [g.mean], [g.cov])
        assert w2_mixture_dirac(mix, d) == w2_gaussian_dirac(g, d)

    def test_duplicated_node(self, rng):
        g = random_gaussian(rng, 2)
        d = DiracPoint(rng.standard_normal(2))
        mix = GaussianMixture([0.5, 0.5], [g.mean] * 2, [g.cov] * 2)
        assert w2_mixture_dirac(mix, d) == pytest.approx(w2_gaussian_dirac(g, d), abs=1e-14)

    def test_term_by_term_oracle(self, rng):
        mix = random_mixture(rng, 3, 2)
        d = DiracPoint(rng.standard_normal(2))
        by_hand = sum(
            w * (float((g.mean - d.location) @ (g.mean - d.location)) + float(np.trace(g.cov)))
            for w, g in mix.components)
        assert abs(w2_mixture_dirac(mix, d) - by_hand) < 1e-12

    def test_linearity_in_weights(self, rng):
        # theta * value(w) + (1 - theta) * value(w') for fixed nodes.
        nodes = [random_gaussian(rng, 2) for _ in range(4)]
        means, covs = np.stack([g.mean for g in nodes]), np.stack([g.cov for g in nodes])
        d = DiracPoint(rng.standard_normal(2))
        w1 = np.array([0.1, 0.2, 0.3, 0.4])
        w2 = np.array([0.4, 0.3, 0.2, 0.1])
        v1 = w2_mixture_dirac(GaussianMixture(w1, means, covs), d)
        v2 = w2_mixture_dirac(GaussianMixture(w2, means, covs), d)
        for theta in (0.15, 0.5, 0.85):
            blend = theta * w1 + (1 - theta) * w2
            vb = w2_mixture_dirac(GaussianMixture(blend, means, covs), d)
            assert abs(vb - (theta * v1 + (1 - theta) * v2)) < 1e-12


def test_mixture_dirac_rejects_dimension_mismatch(rng):
    with pytest.raises(ValidationError, match="dimension mismatch: 2 vs 3"):
        w2_mixture_dirac(random_mixture(rng, 2, 2), DiracPoint(np.zeros(3)))


class TestEmpirical:
    def test_identical_clouds_zero(self, rng):
        cloud = rng.standard_normal((40, 2))
        assert w2_empirical(cloud, cloud) == 0.0

    def test_one_dim_sorted_pairing_oracle(self, rng):
        # Oracle: in 1-D the optimal coupling pairs sorted samples.
        a = rng.standard_normal((64, 1))
        b = 2.0 + 0.5 * rng.standard_normal((64, 1))
        sorted_cost = float(np.mean((np.sort(a[:, 0]) - np.sort(b[:, 0])) ** 2))
        assert w2_empirical(a, b) == pytest.approx(sorted_cost, abs=1e-12)

    def test_gaussian_mean_shift_asymptotic(self):
        # Oracle: for N(0, I) vs N(m, I) the closed form is |m|^2 + 0.
        rng = np.random.default_rng(12)
        m = np.array([2.0, -1.0])
        a = sample_gaussian(Gaussian(np.zeros(2), np.eye(2)), 256, rng)
        b = sample_gaussian(Gaussian(m, np.eye(2)), 256, rng)
        exact = float(m @ m)
        assert abs(w2_empirical(a, b) - exact) < 0.15 * exact

    def test_agreement_improves_with_size(self):
        # Averaged replicates: the gap to the closed form shrinks monotonically.
        rng = np.random.default_rng(13)
        for dim in (1, 2):
            a = random_gaussian(rng, dim, mean_scale=2.0)
            b = random_gaussian(rng, dim, mean_scale=2.0)
            exact = w2_gaussian_gaussian(a, b)
            gaps = []
            for n_points in (32, 128, 256):
                errs = [
                    abs(w2_empirical(sample_gaussian(a, n_points, rng),
                                     sample_gaussian(b, n_points, rng)) - exact)
                    for _ in range(20)
                ]
                gaps.append(np.mean(errs))
            assert gaps[0] > gaps[1] > gaps[2]

    @pytest.mark.parametrize("a, message", [
        (np.zeros(5), r"must be \(N, n\) arrays"),
        (np.array([[0.0], [np.nan]]), "non-finite"),
        (np.zeros((0, 2)), "at least one point"),
    ], ids=["one_dim", "non_finite", "empty"])
    def test_rejects_malformed_clouds(self, a, message):
        with pytest.raises(ValidationError, match=message):
            w2_empirical(a, np.zeros_like(a))

    def test_rejects_unequal_counts(self, rng):
        with pytest.raises(ValidationError):
            w2_empirical(rng.standard_normal((10, 2)), rng.standard_normal((11, 2)))

    def test_rejects_oversized_clouds(self, rng):
        big = rng.standard_normal((257, 1))
        with pytest.raises(ValidationError):
            w2_empirical(big, big)
