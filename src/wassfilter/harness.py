"""Experiment runner for the Duffing benchmark.

One step of the pipeline: integrate the truth, propagate each filter's
posterior-sampled cloud, fit a mixture prior, draw a shared measurement, run
every enabled filter's update, moment-match a point estimate, and resample
each filter's posterior into its next prior cloud.

Every random draw comes from a generator keyed on
``(master_seed, stream, step, filter)``, so reruns are bit-identical and all
filters in a run see the same initial cloud and the same measurements. Each
step propagates and fits every distinct cloud once, keyed by object identity:
at the first step every filter still holds the initial cloud, so one fit, the
identical mixture object, goes to every filter (paired fairness); afterwards
each filter owns its resampled cloud and gets its own fit. A step's distinct
clouds, in filter order, go in groups whose summed EM responsibility stacks
(``restarts * n_components * ensemble_size`` doubles each) fit in
:data:`_STACK_DOUBLES`: each group is propagated by one RK4 call on the
concatenated clouds and fitted by one stacked EM, bit for bit the per-cloud
calls, so small clouds share each pass's fixed cost. A larger cloud is a
group of its own. A failing group's error is that of its own two calls: a
diverging particle is named by its row in the group's stack, the group's
clouds in filter order, ``ensemble_size`` rows each.

A run writes its output tree as it goes, through the functions
:func:`emit_outputs` writes a finished result with: config.json and the
timeseries header before the initial draw, each step's files when the step
ends, and summary.json last, also when a stage fails. Worker work takes one
path: a run submits its cloud writes, and :func:`monte_carlo_compare` its
member runs, to the executor of :func:`_worker_pool`, which alone reads the
CPU count: worker processes with two or more usable CPUs, this process with
one. When the last step ends, this process writes, newest first, the clouds
the worker has not started, so the run does not wait behind the worker's
backlog. A failed cloud write is reported when the run ends, naming its step,
whichever process made it, and the outputs, partial trees included, are the
same bytes either way.
"""

from __future__ import annotations

import json
import numbers
import os
from contextlib import contextmanager, suppress
from dataclasses import MISSING, dataclass, field, fields, is_dataclass, replace
from functools import partial
from pathlib import Path
from typing import get_type_hints

import numpy as np

from .errors import HarnessError, ValidationError
from .gaussian import (GaussianMixture, _as_vector, _check_field_types, _eigvalsh,
                       mixture_mean_cov, _readonly, psd_sqrt, sample_mixture)
from .kalman import LinearMeasurementModel
from .gsf import gsf_update
from .ngsf import DOMINANCE_ATOL, NgsfProblem, apply_ngsf_solution, ngsf_solve
# fit_gmm_em is not called here: the runner fits through _fit_gmm_em_stack.
# It stays a module global because perfbench/layertrace.py patches it by name.
from .propagation import (MIN_POINTS_PER_COMPONENT, DuffingModel, EmFitConfig, _fit_gmm_em_stack,
                          fit_gmm_em, integrate_rk4, propagate_cloud)

KNOWN_FILTERS = ("gsf", "ngsf", "kf_momentmatch")

# Stream tags for seed derivation. Values are part of the output contract:
# changing them changes every emitted file. Streams are keyed by step only,
# never by filter: every filter draws from its own fresh generator seeded
# identically (common random numbers), so filters whose posteriors coincide
# produce bit-identical clouds and fits, and diverged filters still share a
# paired noise realization.
_STREAM_INIT = 0
_STREAM_MEAS = 1
_STREAM_EMFIT = 2
_STREAM_RESAMPLE = 3
_STREAM_RUN = 4

# Most doubles of EM working memory a config may ask for, as
# restarts * n_components * ensemble_size (16 GiB): the (restarts, K, N)
# responsibility stack of one cloud's fit. With restarts and n_components at
# least 1, it also caps ensemble_size at 2**31 particles.
_MAX_EM_DOUBLES = 2**31

# Most summed restarts * n_components * ensemble_size of the clouds one step
# propagates and fits as one stack (512 KiB of responsibilities). Small clouds
# share a pass's fixed cost; a cloud above it runs alone, because a stacked
# RK4 over large clouds ran slower than one call per cloud.
_STACK_DOUBLES = 2**16

_INIT_CLOUD = "step000_init.csv"


def _derived_rng(master_seed: int, *key: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([int(master_seed), *map(int, key)]))


def _default_measurement() -> LinearMeasurementModel:
    # Scalar position sensor with noise variance 0.1.
    return LinearMeasurementModel(C=[[1.0, 0.0]], R=[[0.1]])


def _to_json(value):
    if is_dataclass(value):
        return {f.name: _to_json(getattr(value, f.name)) for f in fields(value)}
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, np.generic):
        # Numpy integers pass the config's type checks; json cannot write them.
        return value.item()
    return list(value) if isinstance(value, tuple) else value


def _from_json(cls, data, where: str):
    """Build dataclass ``cls`` from a JSON object, reading dataclass-typed fields
    recursively; missing keys keep defaults. Unknown keys, missing required keys
    and non-objects raise :class:`ValidationError`; the classes check value types."""
    if not isinstance(data, dict):
        raise ValidationError(f"{where} must be a JSON object, got {data!r}")
    unknown = set(data) - {f.name for f in fields(cls)}
    if unknown:
        raise ValidationError(f"unknown {where} keys: {sorted(unknown)}")
    missing = [f.name for f in fields(cls)
               if f.name not in data and f.default is MISSING and f.default_factory is MISSING]
    if missing:
        raise ValidationError(f"{where} needs the keys {missing}")
    hints = get_type_hints(cls)
    return cls(**{name: _from_json(hints[name], value, name) if is_dataclass(hints[name]) else value
                  for name, value in data.items()})


@dataclass(frozen=True, eq=False)
class ExperimentConfig:
    """Resolved experiment settings; every field has a usable default."""

    duffing: DuffingModel = field(default_factory=DuffingModel)
    em: EmFitConfig = field(default_factory=EmFitConfig)
    measurement: LinearMeasurementModel = field(default_factory=_default_measurement)
    ensemble_size: int = 5000
    horizon_steps: int = 10
    true_x0: np.ndarray = (1.0, 1.0)
    master_seed: int = 0
    filters: tuple = ("gsf", "ngsf")
    output_dir: str | None = None
    save_clouds: bool = True

    def __post_init__(self):
        _check_field_types(self)
        x0 = _as_vector(self.true_x0, "true_x0")
        if x0.shape != (2,):
            raise ValidationError(f"true_x0 must be a finite 2-vector, got {self.true_x0!r}")
        if self.ensemble_size < MIN_POINTS_PER_COMPONENT * self.em.n_components:
            raise ValidationError(
                f"ensemble_size {self.ensemble_size} cannot support {self.em.n_components} "
                f"mixture components (need at least {MIN_POINTS_PER_COMPONENT} per component)")
        em_doubles = _em_doubles(self.em, self.ensemble_size)
        if em_doubles > _MAX_EM_DOUBLES:
            raise ValidationError(
                f"em.restarts * em.n_components * ensemble_size = {em_doubles} doubles of EM "
                f"working memory; at most 2**31 ({_MAX_EM_DOUBLES}) are allowed")
        if self.horizon_steps < 0:
            raise ValidationError(f"horizon_steps must be >= 0, got {self.horizon_steps}")
        if self.master_seed < 0:
            raise ValidationError(f"master_seed must be >= 0, got {self.master_seed}")
        if self.measurement.state_dim != 2:
            raise ValidationError(
                f"measurement C must have 2 columns (the Duffing state), "
                f"got {self.measurement.state_dim}")
        with np.errstate(over="ignore", invalid="ignore"):
            gram = self.measurement.C @ self.measurement.C.T + self.measurement.R
        if not np.all(np.isfinite(gram)):
            raise ValidationError("measurement C C^T + R overflows to a non-finite matrix")
        # Positive definite to working precision: numpy's matrix_rank
        # tolerance on the signed eigenvalues, since a gram negative by
        # roundoff has full rank. Cholesky factors some singular grams.
        w = _eigvalsh(gram)
        if not w[0] > w[-1] * (self.measurement.meas_dim * np.finfo(float).eps):
            raise ValidationError(
                "measurement C C^T + R is not positive definite, so the innovation "
                "covariance C S C^T + R is singular for every prior covariance S")
        filters = tuple(self.filters)
        if not filters:
            raise ValidationError("at least one filter must be enabled")
        unknown = [f for f in filters if f not in KNOWN_FILTERS]
        if unknown:
            raise ValidationError(f"unknown filters {unknown}; known: {list(KNOWN_FILTERS)}")
        if len(set(filters)) != len(filters):
            raise ValidationError(f"duplicate filter names in {filters}")
        object.__setattr__(self, "true_x0", _readonly(x0))
        object.__setattr__(self, "filters", filters)

    def to_json_dict(self) -> dict:
        return _to_json(self)

    @classmethod
    def from_json_dict(cls, data: dict) -> "ExperimentConfig":
        """Build a config from a possibly partial JSON dict; missing keys keep defaults."""
        return _from_json(cls, data, "config")


@dataclass(eq=False)
class FilterStepRecord:
    """One filter's work at one step."""

    name: str
    prior: GaussianMixture
    posterior: GaussianMixture
    estimate: np.ndarray
    estimate_cov: np.ndarray
    error: np.ndarray
    prior_cloud: np.ndarray
    warm_cost: float | None = None
    final_cost: float | None = None


@dataclass(eq=False)
class StepRecord:
    step: int
    time: float
    true_state: np.ndarray
    measurement: np.ndarray
    filters: dict


@dataclass(eq=False)
class ExperimentResult:
    config: ExperimentConfig
    initial_state: np.ndarray
    initial_cloud: np.ndarray
    records: list
    summary: dict


def _error_stats(errors: np.ndarray) -> dict:
    """Per-coordinate RMSE and error variance of an ``(n, 2)`` error stack."""
    mean_err = errors.mean(axis=0)
    return {"rmse": np.sqrt((errors ** 2).mean(axis=0)).tolist(),
            "error_variance": ((errors - mean_err) ** 2).mean(axis=0).tolist()}


def _summarize(records: list, filters: tuple) -> dict:
    summary: dict = {"steps": len(records), "filters": list(filters), "per_filter": {}}
    if not records:
        return summary
    for name in filters:
        errors = np.stack([rec.filters[name].error for rec in records])
        summary["per_filter"][name] = {**_error_stats(errors),
                                       "mean_error": errors.mean(axis=0).tolist()}
    if "ngsf" in filters:
        warm = np.array([rec.filters["ngsf"].warm_cost for rec in records])
        final = np.array([rec.filters["ngsf"].final_cost for rec in records])
        summary["ngsf_objective"] = {
            "mean_warm_cost": float(warm.mean()),
            "mean_final_cost": float(final.mean()),
            "mean_cost_gap": float((final - warm).mean()),
            "dominance_fraction": float(np.mean(final <= warm + DOMINANCE_ATOL)),
        }
    return summary


def _usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask where the platform has one."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity masks on this platform
        return os.cpu_count() or 1


class _InProcessExecutor:
    """The executor of one usable CPU: :meth:`submit` runs the call at once in
    this process and returns its finished future, which holds any
    ``Exception`` the call raised; ``KeyboardInterrupt`` goes through."""

    @staticmethod
    def submit(fn, *args):
        # Imported here so that ``import wassfilter`` does not load concurrent.futures.
        from concurrent.futures import Future

        future = Future()
        try:
            future.set_result(fn(*args))
        except Exception as exc:
            future.set_exception(exc)
        return future


@contextmanager
def _worker_pool(wanted: int):
    """``(pool, workers)``: the executor every worker call is submitted to and
    the calls it runs at once. With two or more usable CPUs it is a pool of
    ``workers = min(wanted, cpus)`` worker processes, which takes the
    platform's default start method and is shut down on every way out,
    dropping calls not yet started when the caller is cut short. With one it
    is an :class:`_InProcessExecutor` and ``workers`` is 1."""
    cpus = _usable_cpus()
    if cpus < 2:
        yield _InProcessExecutor(), 1
        return
    # Imported here so that ``import wassfilter`` does not load multiprocessing.
    from concurrent.futures import ProcessPoolExecutor

    workers = min(wanted, cpus)
    pool = ProcessPoolExecutor(workers)
    try:
        yield pool, workers
    finally:
        pool.shutdown(cancel_futures=True)


def _em_doubles(em: EmFitConfig, ensemble_size: int) -> int:
    """``restarts * n_components * ensemble_size``, the doubles of one
    cloud's EM responsibility stack, as a Python integer."""
    return int(em.restarts) * int(em.n_components) * int(ensemble_size)


def _stack_groups(clouds, em: EmFitConfig, ensemble_size: int) -> list[list]:
    """The distinct objects of ``clouds``, in order, split into the groups
    one step propagates and fits as one stack: a group grows while its
    summed :func:`_em_doubles` stays at or under :data:`_STACK_DOUBLES`, and
    a cloud above that is a group of its own."""
    distinct = list({id(cloud): cloud for cloud in clouds}.values())
    size = max(1, _STACK_DOUBLES // _em_doubles(em, ensemble_size))
    return [distinct[i:i + size] for i in range(0, len(distinct), size)]


def run_experiment(config: ExperimentConfig) -> ExperimentResult:
    """Run one seeded experiment; writes the output tree when ``config.output_dir`` is set.

    Each cloud write is submitted to the executor of :func:`_worker_pool`:
    one worker process writes the clouds while the later steps run, or, with
    one usable CPU, each write runs when it is submitted. When the last step
    ends, this process takes back the writes the worker has not started,
    newest first, and makes them itself while the worker finishes the rest.
    A failed write is reported when the run ends, naming its step. Any other
    module failure aborts the run with the step index and module named.
    Either way the summary of the steps so far is written first.
    """
    if config.output_dir is None or not config.save_clouds:
        return _run_experiment(config, None)
    with _worker_pool(1) as (pool, _):
        return _run_experiment(config, pool)


def _run_experiment(config: ExperimentConfig, pool) -> ExperimentResult:
    """:func:`run_experiment` with ``pool``, the cloud writes' executor, or
    ``None`` when no clouds are written."""
    seed = config.master_seed
    model = config.measurement
    duffing = config.duffing
    x_true = np.array(config.true_x0)
    directory = None if config.output_dir is None else Path(config.output_dir)

    initial_cloud = np.empty((0, 2))
    records: list[StepRecord] = []
    # (step, future, args) of each cloud write submitted to the pool.
    pending: list = []

    def _result() -> ExperimentResult:
        return ExperimentResult(config=config, initial_state=np.array(config.true_x0),
                                initial_cloud=initial_cloud, records=records,
                                summary=_summarize(records, config.filters))

    @contextmanager
    def _stage(step: int, module: str):
        try:
            yield
        except Exception as exc:
            if directory is not None:
                with suppress(OSError):
                    for _, future, _ in pending:
                        future.exception()  # waits; a failed write raises in its own stage
                    _write_summary(_result(), directory)
            raise HarnessError(f"step {step}, module {module}: {exc}") from exc

    def write_cloud(cloud, names):
        # The records so far count the step that a failed write names.
        args = (directory / "clouds", cloud, names)
        pending.append((len(records), pool.submit(_write_cloud, *args), args))

    if directory is not None:
        with _stage(0, "output"):
            _open_tree(config, directory)
    with _stage(0, "initialization"):
        init_rng = _derived_rng(seed, _STREAM_INIT)
        initial_cloud = x_true + init_rng.standard_normal((config.ensemble_size, 2))
    if directory is not None and config.save_clouds:
        with _stage(0, "output"):
            write_cloud(initial_cloud, [_INIT_CLOUD])
    clouds = {name: initial_cloud for name in config.filters}
    r_sqrt = psd_sqrt(model.R)

    for step in range(1, config.horizon_steps + 1):
        with _stage(step, "propagation"):
            x_true = integrate_rk4(x_true, duffing.rhs, duffing.dt, duffing.steps_per_sample)

        with _stage(step, "measurement"):
            meas_rng = _derived_rng(seed, _STREAM_MEAS, step)
            noise = meas_rng.standard_normal(model.meas_dim) @ r_sqrt
            y = model.C @ x_true + noise

        # Propagate and fit each distinct cloud once, before any update runs.
        # At step 1 every filter holds the initial cloud and so gets the same
        # fit object; afterwards each filter owns its lineage. Each group takes
        # one RK4 call on its concatenated clouds and one stacked EM fit, which
        # give each cloud the bits of its own calls.
        fits: dict[int, tuple] = {}
        for group in _stack_groups(clouds.values(), config.em, config.ensemble_size):
            with _stage(step, "propagation"):
                stacked = propagate_cloud(np.concatenate(group), duffing, duffing.sample_time)
            parts = stacked.reshape(len(group), -1, 2)
            with _stage(step, "em_fit"):
                fitted = _fit_gmm_em_stack(parts, config.em, [
                    _derived_rng(seed, _STREAM_EMFIT, step) for _ in parts])
            fits.update((id(cloud), (part, prior))
                        for cloud, part, (prior, _) in zip(group, parts, fitted))
        priors = {name: fits[id(clouds[name])] for name in config.filters}

        step_filters: dict[str, FilterStepRecord] = {}
        for name in config.filters:
            prior_cloud, prior = priors[name]
            extras: dict = {}
            with _stage(step, name):
                if name == "gsf":
                    posterior = gsf_update(prior, model, y).posterior
                elif name == "ngsf":
                    warm = gsf_update(prior, model, y)
                    problem = NgsfProblem.from_gsf(prior, model, y, gsf_result=warm)
                    solution = ngsf_solve(problem)
                    posterior = apply_ngsf_solution(problem, solution).posterior
                    extras = {"warm_cost": solution.warm_cost,
                              "final_cost": solution.final_cost}
                else:
                    # The Kalman baseline: the GSF on the moment-matched prior.
                    mean, cov = mixture_mean_cov(prior)
                    matched = GaussianMixture(np.ones(1), mean[None], cov[None], eig_floor=0.0)
                    posterior = gsf_update(matched, model, y).posterior
            with _stage(step, "resample"):
                resample_rng = _derived_rng(seed, _STREAM_RESAMPLE, step)
                clouds[name] = sample_mixture(posterior, config.ensemble_size, resample_rng)

            estimate, est_cov = mixture_mean_cov(posterior)
            step_filters[name] = FilterStepRecord(
                name=name, prior=prior, posterior=posterior,
                estimate=estimate, estimate_cov=est_cov,
                error=estimate - x_true, prior_cloud=prior_cloud, **extras)

        records.append(StepRecord(step=step, time=step * duffing.sample_time,
                                  true_state=x_true.copy(), measurement=np.array(y),
                                  filters=step_filters))
        if directory is not None:
            with _stage(step, "output"):
                _write_step(records[-1], directory, write_cloud if config.save_clouds else None)

    result = _result()
    if directory is not None:
        # This process writes, newest first, the clouds the worker has not
        # started, instead of waiting behind the ones it has.
        for i in reversed(range(len(pending))):
            step, future, args = pending[i]
            if not future.cancel():
                break
            pending[i] = (step, _InProcessExecutor.submit(_write_cloud, *args), args)
        for step, future, _ in pending:
            with _stage(step, "output"):
                future.result()
        with _stage(config.horizon_steps, "output"):
            _write_summary(result, directory)
    return result


def _fmt(x: float) -> str:
    return repr(float(x))


def _cloud_csv(cloud: np.ndarray) -> str:
    """An ``(N, 2)`` cloud as CSV text, each value formatted as :func:`_fmt` does.

    One ``%`` format over the flat values builds no per-row list or string,
    so it takes less time and peak memory than formatting row by row.
    """
    return "x1,x2\n" + ("%r,%r\n" * len(cloud)) % tuple(cloud.ravel().tolist())


def _write_cloud(cloud_dir: Path, cloud: np.ndarray, names: list[str]) -> None:
    """Format ``cloud`` once and write the text to each file of ``names`` in
    ``cloud_dir``, which :func:`_open_tree` made. It returns nothing, so no
    text travels back from a worker."""
    text = _cloud_csv(cloud)
    for name in names:
        (cloud_dir / name).write_text(text)


def _open_tree(config: ExperimentConfig, directory: Path) -> list[Path]:
    """Make ``directory`` and its ``mixtures/``, write config.json, truncate
    timeseries.csv to its header and, when clouds are saved, make
    ``clouds/``. Returns the two files."""
    (directory / "mixtures").mkdir(parents=True, exist_ok=True)
    config_path = directory / "config.json"
    config_path.write_text(json.dumps(config.to_json_dict(), indent=2, sort_keys=True) + "\n")
    header = ["step", "time", "true_x1", "true_x2"]
    header += [f"meas_y{j + 1}" for j in range(config.measurement.meas_dim)]
    for name in config.filters:
        header += [f"{name}_est_x1", f"{name}_est_x2", f"{name}_sd_x1", f"{name}_sd_x2"]
    ts_path = directory / "timeseries.csv"
    ts_path.write_text(",".join(header) + "\n")
    if config.save_clouds:
        (directory / "clouds").mkdir(exist_ok=True)
    return [config_path, ts_path]


def _write_step(rec: StepRecord, directory: Path, write_cloud) -> list[Path]:
    """Append the step's timeseries row, write each filter's prior and
    posterior mixtures, and pass each distinct prior cloud, with every CSV
    name it goes to, to ``write_cloud`` (``None`` when clouds are not saved):
    the cloud all filters share at step 1 is formatted once. Returns the files."""
    row = [str(rec.step), _fmt(rec.time), _fmt(rec.true_state[0]), _fmt(rec.true_state[1])]
    row += [_fmt(v) for v in rec.measurement]
    written: list[Path] = []
    clouds: dict[int, tuple] = {}
    for name, fr in rec.filters.items():
        sd = np.sqrt(np.diag(fr.estimate_cov))
        row += [_fmt(fr.estimate[0]), _fmt(fr.estimate[1]), _fmt(sd[0]), _fmt(sd[1])]
        for tag, mix in (("prior", fr.prior), ("posterior", fr.posterior)):
            path = directory / "mixtures" / f"step{rec.step:03d}_{name}_{tag}.json"
            path.write_text(json.dumps(mix.to_json_dict(), sort_keys=True) + "\n")
            written.append(path)
        names = clouds.setdefault(id(fr.prior_cloud), (fr.prior_cloud, []))[1]
        names.append(f"step{rec.step:03d}_{name}_prior.csv")
    with open(directory / "timeseries.csv", "a") as handle:
        handle.write(",".join(row) + "\n")
    if write_cloud is not None:
        for cloud, names in clouds.values():
            write_cloud(cloud, names)
            written += [directory / "clouds" / name for name in names]
    return written


def _write_summary(result: ExperimentResult, directory: Path) -> Path:
    summary_path = directory / "summary.json"
    payload = {**result.summary, "initial_state": result.initial_state.tolist()}
    summary_path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return summary_path


def emit_outputs(result: ExperimentResult, directory) -> list[Path]:
    """Write the output tree of ``result`` (config.json, timeseries.csv, cloud
    snapshots, mixtures and summary.json) by the functions :func:`run_experiment`
    writes it with, step by step; returns every file. All are plain JSON/CSV
    with deterministic formatting, so identical runs give byte-identical trees.
    """
    directory = Path(directory)
    write_cloud = partial(_write_cloud, directory / "clouds") if result.config.save_clouds else None
    written = _open_tree(result.config, directory)
    if write_cloud is not None:
        write_cloud(result.initial_cloud, [_INIT_CLOUD])
        written.append(directory / "clouds" / _INIT_CLOUD)
    for rec in result.records:
        written += _write_step(rec, directory, write_cloud)
    written.append(_write_summary(result, directory))
    return written


@dataclass(eq=False)
class ComparisonResult:
    """Aggregated paired Monte Carlo comparison."""

    n_runs: int
    filters: tuple
    per_filter: dict
    paired: dict | None
    run_summaries: list

    def to_json_dict(self) -> dict:
        return {
            "n_runs": self.n_runs,
            "filters": list(self.filters),
            "per_filter": self.per_filter,
            "paired": self.paired,
        }

    def to_text(self) -> str:
        lines = [f"paired Monte Carlo over {self.n_runs} runs"]
        header = f"{'filter':<16}{'rmse_x1':>12}{'rmse_x2':>12}{'var_x1':>12}{'var_x2':>12}"
        lines.append(header)
        for name in self.filters:
            row = self.per_filter[name]
            lines.append(f"{name:<16}{row['rmse'][0]:>12.6f}{row['rmse'][1]:>12.6f}"
                         f"{row['error_variance'][0]:>12.6f}{row['error_variance'][1]:>12.6f}")
        if self.paired is not None:
            gap = self.paired["mean_cost_gap"]
            lines.append(f"mean nGSF-GSF exact-objective gap: {gap:.6e} "
                         f"(dominance {self.paired['cost_dominance_fraction']:.0%})")
            for state, counts in self.paired["error_variance_signs"].items():
                lines.append(
                    f"error variance {state}: nGSF better in {counts['ngsf_better']}"
                    f"/{self.n_runs} runs (mean paired diff {counts['mean_diff']:+.6e})")
        return "\n".join(lines)


def _run_member(config: ExperimentConfig, run: int) -> tuple:
    """Member run ``run`` of :func:`monte_carlo_compare`.

    Returns what the aggregate reads: the run summary, each filter's
    ``(steps, 2)`` error stack and the nGSF's per-step cost gaps (``None``
    without the nGSF); no clouds or mixtures, which a worker would otherwise
    pickle back. A failure names the run before the step and module.
    """
    run_seed = int(np.random.SeedSequence(
        [config.master_seed, _STREAM_RUN, run]).generate_state(1)[0])
    try:
        result = run_experiment(replace(config, master_seed=run_seed, output_dir=None))
    except HarnessError as exc:
        raise HarnessError(f"run {run}, {exc}") from exc
    errors = {name: np.array([rec.filters[name].error for rec in result.records])
              for name in config.filters}
    gaps = None
    if "ngsf" in config.filters:
        gaps = [rec.filters["ngsf"].final_cost - rec.filters["ngsf"].warm_cost
                for rec in result.records]
    return result.summary, errors, gaps


def _map_fail_fast(fn, n: int, pool, workers: int) -> list:
    """``[fn(i) for i in range(n)]`` in ``pool``, which runs ``workers`` calls at once.

    At most ``workers`` calls are in flight, submitted in index order. After
    the first failure seen nothing more is submitted; the calls in flight
    finish and the lowest-index failure is raised. Every index below a failed
    one was submitted before it, so that is the failure a serial loop meets
    first.
    """
    from concurrent.futures import FIRST_COMPLETED, wait

    futures: list = []
    running: set = set()
    for i in range(n):
        if len(running) == workers:
            done, running = wait(running, return_when=FIRST_COMPLETED)
            if any(future.exception() is not None for future in done):
                break
        futures.append(pool.submit(fn, i))
        running.add(futures[-1])
    wait(running)
    return [future.result() for future in futures]


def _check_compare(config: ExperimentConfig, n_runs) -> None:
    if isinstance(n_runs, bool) or not isinstance(n_runs, numbers.Integral):
        raise ValidationError(f"n_runs must be an integer, got {n_runs!r}")
    if n_runs < 2:
        raise ValidationError(f"n_runs must be >= 2, got {n_runs}")
    if config.horizon_steps < 1:
        raise ValidationError("monte_carlo_compare needs horizon_steps >= 1")


def monte_carlo_compare(config: ExperimentConfig, n_runs: int) -> ComparisonResult:
    """Run paired experiments with per-run seeds shared across filters.

    Each run derives its own master seed from the config seed, so all filters
    inside a run see identical clouds and measurements while runs stay
    independent. The members go through :func:`_map_fail_fast` to the
    executor of :func:`_worker_pool`: one worker per usable CPU, never more
    than ``n_runs``, or this process, one member after another, when one CPU
    is usable. Results are gathered in run order, so the result does not
    depend on the worker count, and a failure raises the error of the first
    failing run, as a serial loop would.
    """
    _check_compare(config, n_runs)
    with _worker_pool(n_runs) as (pool, workers):
        members = _map_fail_fast(partial(_run_member, config), n_runs, pool, workers)

    run_summaries = [summary for summary, _, _ in members]
    per_filter = {name: _error_stats(np.concatenate([errors[name] for _, errors, _ in members]))
                  for name in config.filters}

    paired = None
    if "ngsf" in config.filters and "gsf" in config.filters:
        gaps = np.array([run_gaps for _, _, run_gaps in members])
        variances = {name: np.array([s["per_filter"][name]["error_variance"]
                                     for s in run_summaries]) for name in ("ngsf", "gsf")}
        signs = {}
        for j, state in enumerate(("x1", "x2")):
            diffs = variances["ngsf"][:, j] - variances["gsf"][:, j]
            signs[state] = {
                "ngsf_better": int(np.sum(diffs < 0)),
                "gsf_better": int(np.sum(diffs > 0)),
                "ties": int(np.sum(diffs == 0)),
                "mean_diff": float(diffs.mean()),
            }
        paired = {
            "mean_cost_gap": float(gaps.mean()),
            "cost_dominance_fraction": float(np.mean(gaps <= DOMINANCE_ATOL)),
            "error_variance_signs": signs,
        }

    return ComparisonResult(n_runs=int(n_runs), filters=config.filters,
                            per_filter=per_filter, paired=paired,
                            run_summaries=run_summaries)
