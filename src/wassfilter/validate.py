"""Fast self-check battery behind the ``validate`` CLI subcommand.

Each suite re-exercises one library invariant on seeded random inputs and
returns a pass/fail verdict with a one-line detail. The full battery runs in
seconds; it is a smoke test, not a replacement for the pytest suite.
"""

from __future__ import annotations

import tempfile
import zlib
from dataclasses import replace
from pathlib import Path

import numpy as np

from .gaussian import (DiracPoint, Gaussian, GaussianMixture, _component_logpdfs,
                       mixture_mean_cov, sample_mixture, spd_sqrt)
from .harness import ExperimentConfig, run_experiment
from .kalman import (LinearMeasurementModel, LinearPropagationModel, _orthogonality,
                     kalman_gains, kalman_update, stationary_prior_error_cov)
from .gsf import gsf_update
from .ngsf import DOMINANCE_ATOL, NgsfProblem, ngsf_cost, ngsf_solve
from .propagation import DuffingModel, EmFitConfig
from .wasserstein import w2_gaussian_gaussian, w2_mixture_dirac


def _random_spd(rng: np.random.Generator, n: int) -> np.ndarray:
    a = rng.standard_normal((n, n))
    return a @ a.T + (0.3 + rng.uniform()) * np.eye(n)


def _random_prior(rng, order: int) -> GaussianMixture:
    nodes = [Gaussian(rng.standard_normal(2), _random_spd(rng, 2)) for _ in range(order)]
    return GaussianMixture.from_unnormalized(rng.uniform(0.2, 1.0, order), nodes)


def _suite_spd_sqrt(rng):
    worst = 0.0
    for _ in range(20):
        n = int(rng.choice([1, 2, 4, 8]))
        m = _random_spd(rng, n)
        s = spd_sqrt(m)
        worst = max(worst, np.linalg.norm(s @ s - m) / np.linalg.norm(m))
    return worst < 1e-10, f"worst reconstruction error {worst:.2e}"


def _suite_w2(rng):
    worst = 0.0
    for _ in range(20):
        n = int(rng.choice([1, 2, 3]))
        a = Gaussian(rng.standard_normal(n), _random_spd(rng, n))
        b = Gaussian(rng.standard_normal(n), _random_spd(rng, n))
        worst = max(worst, abs(w2_gaussian_gaussian(a, b) - w2_gaussian_gaussian(b, a)))
        worst = max(worst, abs(w2_gaussian_gaussian(a, a)))
    mix = GaussianMixture.from_unnormalized(
        [1.0, 2.0], [Gaussian([0.0], [[1.0]]), Gaussian([3.0], [[2.0]])])
    d = DiracPoint([0.5])
    by_hand = (1.0 / 3.0) * (0.25 + 1.0) + (2.0 / 3.0) * (6.25 + 2.0)
    worst = max(worst, abs(w2_mixture_dirac(mix, d) - by_hand))
    return worst < 1e-10, f"worst identity residual {worst:.2e}"


def _suite_kalman(rng):
    worst = 0.0
    for _ in range(20):
        n = int(rng.choice([1, 2, 4]))
        m = int(rng.choice([1, 2]))
        sigma = _random_spd(rng, n)
        model = LinearMeasurementModel(rng.standard_normal((m, n)), _random_spd(rng, m))
        x = rng.standard_normal(n)
        y = rng.standard_normal(m)
        post = kalman_update(Gaussian(x, sigma), sigma, model, y)
        info_post = np.linalg.inv(np.linalg.inv(sigma) + model.C.T @ np.linalg.inv(model.R) @ model.C)
        info_mean = info_post @ (np.linalg.inv(sigma) @ x + model.C.T @ np.linalg.inv(model.R) @ y)
        worst = max(worst, np.linalg.norm(post.cov - info_post) / np.linalg.norm(info_post))
        worst = max(worst, np.linalg.norm(post.mean - info_mean) / max(1.0, np.linalg.norm(info_mean)))
    return worst < 1e-12, f"worst information-form deviation {worst:.2e}"


def _suite_kalman_recovery(rng):
    # The stationary covariance solves its Riccati equation, and its Kalman gains
    # make the posterior error orthogonal to the prior state and to y.
    worst_riccati = worst_orth = 0.0
    for n, m in ((1, 1), (2, 1), (2, 2), (3, 2)):
        a = rng.standard_normal((n, n))
        a *= 0.7 / np.abs(np.linalg.eigvals(a)).max()
        prop = LinearPropagationModel(a, _random_spd(rng, n))
        model = LinearMeasurementModel(rng.standard_normal((m, n)), _random_spd(rng, m))
        sigma = stationary_prior_error_cov(model, prop)
        g = kalman_gains(sigma, model)
        step = a @ (g.G @ sigma @ g.G.T + g.H @ model.R @ g.H.T) @ a.T + prop.Q
        worst_riccati = max(worst_riccati, np.linalg.norm(step - sigma) / np.linalg.norm(sigma))
        ratios = np.divide(*_orthogonality(g, model, prop))
        worst_orth = max(worst_orth, ratios.max())
    return (worst_riccati < 1e-10 and worst_orth <= 1e-12,
            f"worst Riccati residual {worst_riccati:.2e}, residual/scale {worst_orth:.2e}")


def _suite_gsf(rng):
    for _ in range(20):
        prior = _random_prior(rng, int(rng.choice([2, 5])))
        res = gsf_update(prior, LinearMeasurementModel([[1.0, 0.0]], [[0.4]]), rng.standard_normal(1))
        w = res.posterior.weights
        if abs(w.sum() - 1.0) > 1e-12 or w.min() < 0.0:
            return False, f"posterior weights off simplex: sum={w.sum()!r}"
        traces = [np.trace(mix.covs, axis1=1, axis2=2) for mix in (prior, res.posterior)]
        if np.any(traces[1] > traces[0] + 1e-12):
            return False, "posterior trace exceeded prior trace"
    return True, "simplex and contraction hold"


def _suite_ngsf(rng):
    worst_gap = -np.inf
    for _ in range(10):
        order = int(rng.choice([2, 5]))
        prior = _random_prior(rng, order)
        model = LinearMeasurementModel([[1.0, 0.0]], [[0.4]])
        problem = NgsfProblem.from_gsf(prior, model, rng.standard_normal(1))
        sol = ngsf_solve(problem)
        final = ngsf_cost(sol.weights, sol.gains, prior, model)
        # Oracle: the cheapest simplex vertex at the warm-start gains.
        vertex = min(ngsf_cost(np.eye(order)[j], problem.warm_gains, prior, model)
                     for j in range(order))
        if final != vertex:
            return False, f"final cost {final!r} is not the vertex minimum {vertex!r}"
        warm = ngsf_cost(problem.warm_weights, problem.warm_gains, prior, model)
        worst_gap = max(worst_gap, final - warm)
    return worst_gap <= DOMINANCE_ATOL, f"worst final-minus-warm gap {worst_gap:.2e}"


def _grid_bayes(prior: GaussianMixture, model: LinearMeasurementModel, y, points: int = 801):
    """Bayes posterior of a 2-D mixture prior by brute-force quadrature, with no Kalman algebra.

    Prior density times likelihood ``N(y; C x, R)`` on a uniform 2-D grid
    reaching 10 prior standard deviations past every mean; the trapezoid rule
    is spectrally accurate for these Gaussian integrands. Returns each prior
    component's share of the posterior mass, the posterior mean and its
    covariance.
    """
    means, covs = prior.means, prior.covs
    half = 10.0 * np.sqrt(np.linalg.eigvalsh(covs).max())
    axes = [np.linspace(lo - half, hi + half, points)
            for lo, hi in zip(means.min(axis=0), means.max(axis=0))]
    x = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, 2)
    like = np.exp(_component_logpdfs(x @ model.C.T, np.asarray(y)[None], model.R[None]))
    joint = (np.exp(_component_logpdfs(x, means, covs)) * like * prior.weights).T
    mass = joint.sum(axis=1)
    density = joint.sum(axis=0) / mass.sum()
    mean = density @ x
    d = x - mean
    return mass / mass.sum(), mean, (d * density[:, None]).T @ d


def _suite_gsf_bayes(rng):
    # With a mixture prior and a linear Gaussian sensor the GSF posterior is
    # the exact Bayes posterior, so quadrature of prior x likelihood is an oracle.
    worst = 0.0
    for order, m in ((1, 1), (3, 1), (2, 2)):
        prior = _random_prior(rng, order)
        model = LinearMeasurementModel(rng.standard_normal((m, 2)), _random_spd(rng, m))
        y = model.C @ sample_mixture(prior, 1, rng)[0] + rng.standard_normal(m)
        weights, mean, cov = _grid_bayes(prior, model, y, points=301)
        posterior = gsf_update(prior, model, y).posterior
        gsf_mean, gsf_cov = mixture_mean_cov(posterior)
        worst = max(worst, np.abs(posterior.weights - weights).max(),
                    np.abs(gsf_mean - mean).max(), np.abs(gsf_cov - cov).max())
    return worst < 1e-9, f"worst gap to grid quadrature {worst:.2e}"


def _suite_ngsf_weights_invariance(rng):
    # The nGSF weights come from costs that depend on the prior covariances,
    # C and R only, so neither y nor the prior weights may move a single bit.
    for _ in range(10):
        prior = _random_prior(rng, int(rng.choice([2, 5])))
        model = LinearMeasurementModel(rng.standard_normal((1, 2)), _random_spd(rng, 1))
        reweighted = GaussianMixture(rng.dirichlet(np.ones(prior.order)), prior.means, prior.covs)
        solved = [ngsf_solve(NgsfProblem.from_gsf(p, model, 10.0 * rng.standard_normal(1))).weights
                  for p in (prior, prior, reweighted)]
        if not all(np.array_equal(w, solved[0]) for w in solved):
            return False, "nGSF weights moved with the measurement or the prior weights"
    return True, "nGSF weights bit-identical across measurements and prior weights"


def _suite_determinism(rng):
    config = ExperimentConfig(
        duffing=DuffingModel(dt=0.05),
        em=EmFitConfig(n_components=3, max_iters=50, restarts=2),
        ensemble_size=400,
        horizon_steps=2,
        master_seed=int(rng.integers(1 << 16)),
        filters=("gsf", "ngsf"),
    )

    def _snapshot(root: Path) -> dict:
        return {p.relative_to(root): p.read_bytes()
                for p in sorted(root.rglob("*")) if p.is_file()}

    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "run"
        run_experiment(replace(config, output_dir=str(out)))
        first = _snapshot(out)
        run_experiment(replace(config, output_dir=str(out)))
        second = _snapshot(out)
    if first != second:
        changed = [str(k) for k in first if first[k] != second.get(k)]
        return False, f"second run changed bytes in {changed[:3]}"
    return True, f"{len(first)} files byte-identical across reruns"


SUITES = (
    ("spd_sqrt_reconstruction", _suite_spd_sqrt),
    ("wasserstein_identities", _suite_w2),
    ("kalman_information_form", _suite_kalman),
    ("gsf_simplex_contraction", _suite_gsf),
    ("ngsf_global_minimum_dominance", _suite_ngsf),
    ("gsf_bayes_oracle", _suite_gsf_bayes),
    ("ngsf_weights_ignore_y_and_prior_weights", _suite_ngsf_weights_invariance),
    ("experiment_determinism", _suite_determinism),
    ("kalman_recovery_identities", _suite_kalman_recovery),
)


def run_validation(seed: int = 0) -> list[tuple[str, bool, str]]:
    """Run every suite with a deterministic seed; returns (name, ok, detail) rows.

    Each suite's generator is keyed on ``seed`` and a CRC-32 of the suite's
    name, so adding, removing or reordering suites leaves the others' inputs
    unchanged.
    """
    results = []
    for name, suite in SUITES:
        rng = np.random.default_rng([seed, zlib.crc32(name.encode())])
        try:
            ok, detail = suite(rng)
        except Exception as exc:  # a crash is a failure, not an abort
            ok, detail = False, f"raised {type(exc).__name__}: {exc}"
        results.append((name, ok, detail))
    return results
