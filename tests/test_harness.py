"""Tests for the experiment runner, output emission and CLI."""

import json
import multiprocessing
import os
import shutil
import subprocess
import sys
import warnings
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

import wassfilter
from wassfilter import harness, validate
from wassfilter import (DuffingModel, EmFitConfig, ExperimentConfig, FitError, HarnessError,
                        LinearMeasurementModel, ValidationError, emit_outputs,
                        gsf_update, monte_carlo_compare, run_experiment)
from wassfilter.ngsf import component_costs
from wassfilter.cli import main as cli_main


def _small_config(**overrides) -> ExperimentConfig:
    base = dict(
        duffing=DuffingModel(dt=0.05),
        em=EmFitConfig(n_components=3, max_iters=60, restarts=2),
        ensemble_size=400,
        horizon_steps=2,
        master_seed=123,
        filters=("gsf", "ngsf"),
    )
    base.update(overrides)
    return ExperimentConfig(**base)


def _diverging_config() -> ExperimentConfig:
    # The cubic term overflows in the first RK4 substep of every member run.
    return ExperimentConfig(duffing=DuffingModel(cubic=1e200), ensemble_size=300,
                            horizon_steps=2)


_REAL_MEMBER = harness._run_member


def _marked_member(config: ExperimentConfig, run: int):
    """A member run that first leaves a marker file in ``config.output_dir``."""
    (Path(config.output_dir) / f"run{run}").touch()
    return _REAL_MEMBER(config, run)


def _member_failing_from_run_3(config: ExperimentConfig, run: int):
    """A member run whose dynamics diverge from run 3 on."""
    if run >= 3:
        config = replace(config, duffing=DuffingModel(cubic=1e200))
    return _REAL_MEMBER(config, run)


def _snapshot(root: Path) -> dict:
    return {p.relative_to(root): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


class TestConfig:
    def test_json_round_trip(self):
        config = _small_config(true_x0=(0.5, -1.0), master_seed=9)
        back = ExperimentConfig.from_json_dict(config.to_json_dict())
        assert back.to_json_dict() == config.to_json_dict()

    def test_partial_json_uses_defaults(self):
        config = ExperimentConfig.from_json_dict({"horizon_steps": 4})
        assert config.horizon_steps == 4
        assert config.ensemble_size == 5000
        assert config.filters == ("gsf", "ngsf")
        np.testing.assert_array_equal(config.measurement.C, [[1.0, 0.0]])
        assert config.measurement.R[0, 0] == 0.1

    def test_unknown_keys_rejected(self):
        # "ngsf" held solver settings; the closed-form update has none.
        for data in ({"horizon": 3}, {"ngsf": {}}):
            with pytest.raises(ValidationError):
                ExperimentConfig.from_json_dict(data)

    def test_unknown_filter_rejected(self):
        with pytest.raises(ValidationError):
            _small_config(filters=("gsf", "ukf"))

    def test_empty_filters_rejected(self):
        with pytest.raises(ValidationError):
            _small_config(filters=())

    def test_json_keys_are_the_dataclass_fields(self):
        data = ExperimentConfig().to_json_dict()
        assert set(data) == {f.name for f in fields(ExperimentConfig)}
        assert set(data["em"]) == {"n_components", "max_iters", "tol",
                                   "covariance_floor", "restarts"}
        assert data["measurement"] == {"C": [[1.0, 0.0]], "R": [[0.1]]}
        assert data["filters"] == ["gsf", "ngsf"] and data["true_x0"] == [1.0, 1.0]

    @pytest.mark.parametrize("kwargs", [
        {"horizon_steps": 2.5}, {"master_seed": True}, {"save_clouds": 1},
        {"output_dir": Path("o")}, {"filters": "gsf"},
    ])
    def test_field_types_checked_on_construction(self, kwargs):
        with pytest.raises(ValidationError):
            ExperimentConfig(**kwargs)

    def test_numpy_integers_accepted(self):
        config = ExperimentConfig(master_seed=np.uint64(7), ensemble_size=np.int64(400),
                                  em=EmFitConfig(n_components=np.int32(3)))
        assert config.master_seed == 7

    def test_numpy_integers_written_as_json_numbers(self, tmp_path):
        # The same config.json bytes as Python ints, at the same --out path.
        out = tmp_path / "o"
        written = []
        for n in (np.int32(2), 2):
            run_experiment(_small_config(em=EmFitConfig(n_components=n), horizon_steps=1,
                                         save_clouds=False, output_dir=str(out)))
            written.append((out / "config.json").read_bytes())
            shutil.rmtree(out)
        assert written[0] == written[1]


class TestRunExperiment:
    def test_zero_horizon_initial_record_only(self, tmp_path):
        config = _small_config(horizon_steps=0, output_dir=str(tmp_path / "o"))
        result = run_experiment(config)
        assert result.records == []
        np.testing.assert_array_equal(result.initial_state, [1.0, 1.0])
        assert result.initial_cloud.shape == (400, 2)
        ts = (tmp_path / "o" / "timeseries.csv").read_text().splitlines()
        assert len(ts) == 1 and ts[0].startswith("step,time,")
        summary = json.loads((tmp_path / "o" / "summary.json").read_text())
        assert summary["steps"] == 0
        assert summary["initial_state"] == [1.0, 1.0]

    def test_shared_measurements_and_step1_prior(self):
        result = run_experiment(_small_config())
        rec = result.records[0]
        assert rec.filters["gsf"].prior is rec.filters["ngsf"].prior
        assert rec.filters["gsf"].prior.to_json() == rec.filters["ngsf"].prior.to_json()
        # measurements are drawn once per step, outside the filter loop
        assert rec.measurement.shape == (1,)

    def test_filters_diverge_after_step_one(self):
        result = run_experiment(_small_config(horizon_steps=3))
        rec2 = result.records[1]
        assert rec2.filters["gsf"].prior is not rec2.filters["ngsf"].prior

    def test_per_step_cost_dominance(self):
        result = run_experiment(_small_config(horizon_steps=3))
        for rec in result.records:
            fr = rec.filters["ngsf"]
            assert fr.final_cost <= fr.warm_cost + 1e-12

    def test_near_perfect_measurement_tracks_truth(self):
        config = _small_config(
            measurement=LinearMeasurementModel([[1.0, 0.0]], [[1e-12]]),
            em=EmFitConfig(n_components=4, max_iters=80, restarts=2),
            ensemble_size=600, horizon_steps=1, filters=("gsf",))
        result = run_experiment(config)
        rec = result.records[0]
        assert abs(rec.filters["gsf"].estimate[0] - rec.true_state[0]) < 1e-3

    def test_determinism_byte_identical(self, tmp_path):
        out = tmp_path / "run"
        config = _small_config(output_dir=str(out))
        run_experiment(config)
        first = _snapshot(out)
        run_experiment(config)
        second = _snapshot(out)
        assert first == second
        assert len(first) >= 10

    def test_step1_ngsf_weights_are_cheapest_gsf_components(self):
        # At step 1 both filters share one prior; the nGSF puts equal weight
        # on the components whose GSF (Kalman) cost is the smallest, zero on
        # the rest.
        result = run_experiment(_small_config(horizon_steps=1))
        rec = result.records[0]
        prior = rec.filters["gsf"].prior
        model = result.config.measurement
        gains = gsf_update(prior, model, rec.measurement).gains
        costs = component_costs(gains, prior, model)
        face = costs == costs.min()
        np.testing.assert_array_equal(rec.filters["ngsf"].posterior.weights,
                                      face / face.sum())
        assert rec.filters["ngsf"].final_cost == costs.min()

    def test_kf_momentmatch_baseline(self):
        result = run_experiment(_small_config(filters=("gsf", "kf_momentmatch")))
        rec = result.records[0]
        assert rec.filters["kf_momentmatch"].posterior.order == 1

    def test_abort_names_step_and_module_and_flushes(self, tmp_path, monkeypatch):
        from wassfilter import FitError, HarnessError

        # A failing EM fit at step 1: the error names the step and module,
        # and the partial output tree (config plus headers) is still written.
        def failing_fit(*args, **kwargs):
            raise FitError("EM failed")

        monkeypatch.setattr("wassfilter.harness._fit_gmm_em_stack", failing_fit)
        out = tmp_path / "o"
        config = _small_config(output_dir=str(out))
        with pytest.raises(HarnessError, match=r"step 1, module em_fit"):
            run_experiment(config)
        assert (out / "config.json").exists()
        assert (out / "timeseries.csv").read_text().startswith("step,time,")


class TestStackedSteps:
    """A step's small distinct clouds are propagated and fitted as one stack,
    bit for bit the per-cloud calls, and a failing stack is run again cloud
    by cloud so that its error is the per-cloud one."""

    def test_grouping_rule(self):
        # Criterion 8: 2 restarts x 10 components x 1500 particles per cloud.
        crit8 = EmFitConfig(n_components=10, max_iters=150, restarts=2)
        assert harness._stack_groups(["gsf", "ngsf"], crit8, 1500) == [["gsf", "ngsf"]]
        # The propagate_emit benchmark: 1 x 3 x 20000, at the cap by itself.
        emit = EmFitConfig(n_components=3, max_iters=10, restarts=1)
        assert harness._stack_groups(["gsf", "ngsf", "kf"], emit, 20_000) == [
            ["gsf"], ["ngsf"], ["kf"]]
        assert harness._stack_groups(["gsf", "ngsf"], EmFitConfig(), 5000) == [["gsf"], ["ngsf"]]
        # Groups fill up to the cap in order.
        assert harness._stack_groups(list("abcde"), emit, 10_000) == [["a", "b"], ["c", "d"],
                                                                      ["e"]]

    def test_stacked_run_matches_per_cloud_run(self, monkeypatch):
        config = _small_config(horizon_steps=3, filters=("gsf", "ngsf", "kf_momentmatch"))
        assert len(harness._stack_groups([1, 2, 3], config.em, config.ensemble_size)) == 1
        stacked = run_experiment(config)
        monkeypatch.setattr(harness, "_STACK_DOUBLES", 0)
        alone = run_experiment(config)
        for rec, ref in zip(stacked.records, alone.records, strict=True):
            for name, fr in rec.filters.items():
                other = ref.filters[name]
                assert np.array_equal(fr.prior_cloud, other.prior_cloud)
                for tag in ("prior", "posterior"):
                    for part in ("weights", "means", "covs"):
                        assert np.array_equal(getattr(getattr(fr, tag), part),
                                              getattr(getattr(other, tag), part))
                assert np.array_equal(fr.estimate, other.estimate)
                assert np.array_equal(fr.estimate_cov, other.estimate_cov)

    # The rows of each RK4 call: step 1's one shared cloud, then step 2's
    # stack of two and its per-cloud rerun, or step 2's per-cloud calls alone.
    @pytest.mark.parametrize("case, message, stacked_rows, per_cloud_rows", [
        # The ngsf's step-1 resample gets an overflowing particle at row 7,
        # row 207 of the stacked step-2 cloud.
        ("diverge_second", "step 2, module propagation: particle 7 diverged",
         [200, 400, 200, 200], [200, 200, 200]),
        # The gsf's step-1 resample is two point masses, whose fit passes the
        # reseed limit.
        ("em_fails_first", "step 2, module em_fit: EM failed after 4 component reseeds",
         [200, 400, 200], [200, 200]),
    ])
    def test_failing_stack_raises_the_per_cloud_error(self, monkeypatch, case, message,
                                                      stacked_rows, per_cloud_rows):
        config = _small_config(em=EmFitConfig(n_components=6, max_iters=60, restarts=2),
                               ensemble_size=200)
        real_sample, real_propagate = harness.sample_mixture, harness.propagate_cloud
        resamples, rows = [], []

        def sample(posterior, n, rng):
            cloud = real_sample(posterior, n, rng)
            resamples.append(n)
            if case == "diverge_second" and len(resamples) == 2:
                cloud[7] = [1e200, 0.0]
            if case == "em_fails_first" and len(resamples) == 1:
                cloud = np.repeat([[0.0, 0.0], [2.0, -1.0]], n // 2, axis=0)
            return cloud

        def propagate(cloud, model, duration):
            rows.append(len(cloud))
            return real_propagate(cloud, model, duration)

        monkeypatch.setattr(harness, "sample_mixture", sample)
        monkeypatch.setattr(harness, "propagate_cloud", propagate)
        for cap, expected_rows in ((harness._STACK_DOUBLES, stacked_rows), (0, per_cloud_rows)):
            monkeypatch.setattr(harness, "_STACK_DOUBLES", cap)
            resamples.clear()
            rows.clear()
            with pytest.raises(HarnessError) as caught:
                run_experiment(config)
            assert str(caught.value) == message
            assert rows == expected_rows


class TestEmitOutputs:
    def test_summary_recomputable_from_timeseries(self, tmp_path):
        out = tmp_path / "o"
        result = run_experiment(_small_config(horizon_steps=3, output_dir=str(out)))
        rows = (out / "timeseries.csv").read_text().splitlines()
        header = rows[0].split(",")
        data = np.array([[float(v) for v in row.split(",")] for row in rows[1:]])
        summary = json.loads((out / "summary.json").read_text())
        for name in result.config.filters:
            for j, coord in enumerate(("x1", "x2")):
                est = data[:, header.index(f"{name}_est_{coord}")]
                truth = data[:, header.index(f"true_{coord}")]
                err = est - truth
                rmse = float(np.sqrt((err ** 2).mean()))
                var = float(((err - err.mean()) ** 2).mean())
                assert abs(rmse - summary["per_filter"][name]["rmse"][j]) < 1e-12
                assert abs(var - summary["per_filter"][name]["error_variance"][j]) < 1e-12

    def test_empty_records_emit_headers(self, tmp_path):
        out = tmp_path / "o"
        run_experiment(_small_config(horizon_steps=0, output_dir=str(out)))
        assert (out / "config.json").exists()
        ts = (out / "timeseries.csv").read_text().splitlines()
        assert len(ts) == 1
        assert (out / "clouds" / "step000_init.csv").exists()

    def test_one_step_one_filter_single_row(self, tmp_path):
        out = tmp_path / "o"
        run_experiment(_small_config(horizon_steps=1, filters=("gsf",),
                                     output_dir=str(out)))
        rows = (out / "timeseries.csv").read_text().splitlines()
        assert len(rows) == 2

    def test_mixture_files_match_records(self, tmp_path):
        out = tmp_path / "o"
        result = run_experiment(_small_config(horizon_steps=1, output_dir=str(out)))
        on_disk = json.loads((out / "mixtures" / "step001_gsf_posterior.json").read_text())
        assert on_disk == result.records[0].filters["gsf"].posterior.to_json_dict()

    def test_save_clouds_flag(self, tmp_path):
        out = tmp_path / "o"
        run_experiment(_small_config(horizon_steps=1, save_clouds=False,
                                     output_dir=str(out)))
        assert not (out / "clouds").exists()

    def test_cloud_csvs_match_per_value_repr(self, tmp_path):
        # Each value is written as repr(float(v)), rows in cloud order.
        out = tmp_path / "o"
        result = run_experiment(_small_config(horizon_steps=2, output_dir=str(out),
                                              filters=("gsf", "ngsf", "kf_momentmatch")))

        def old_format(cloud):
            rows = ["x1,x2"] + [f"{repr(float(p[0]))},{repr(float(p[1]))}" for p in cloud]
            return ("\n".join(rows) + "\n").encode()

        expected = {"step000_init.csv": old_format(result.initial_cloud)}
        for rec in result.records:
            for name, fr in rec.filters.items():
                expected[f"step{rec.step:03d}_{name}_prior.csv"] = old_format(fr.prior_cloud)
        on_disk = {p.name: p.read_bytes() for p in (out / "clouds").iterdir()}
        assert on_disk == expected

    @pytest.mark.parametrize("overrides", [{}, {"horizon_steps": 0}, {"save_clouds": False}],
                             ids=["three_steps", "zero_steps", "no_clouds"])
    def test_emit_writes_the_run_tree(self, tmp_path, overrides):
        # The same bytes as the run's own tree, and every file of it returned.
        out, other = tmp_path / "run", tmp_path / "other"
        result = run_experiment(_small_config(**{"horizon_steps": 3, **overrides},
                                              filters=("gsf", "ngsf", "kf_momentmatch"),
                                              output_dir=str(out)))
        written = emit_outputs(result, other)
        assert _snapshot(other) == _snapshot(out)
        assert sorted(p.relative_to(other) for p in written) == list(_snapshot(other))

    def test_rerun_into_the_same_directory_rewrites_the_timeseries(self, tmp_path):
        out = tmp_path / "o"
        config = _small_config(horizon_steps=3, output_dir=str(out))
        for _ in range(2):
            run_experiment(config)
        rows = (out / "timeseries.csv").read_text().splitlines()
        assert rows[0].startswith("step,time,")
        assert [row.split(",")[0] for row in rows[1:]] == ["1", "2", "3"]

    def test_failed_initial_draw_leaves_config_and_header(self, tmp_path, monkeypatch):
        # The tree is opened before the initial draw; no cloud was drawn, so
        # none is written.
        def no_memory(seed, *key):
            raise MemoryError("no memory")

        monkeypatch.setattr(harness, "_derived_rng", no_memory)
        out = tmp_path / "o"
        with pytest.raises(HarnessError, match=r"^step 0, module initialization: no memory$"):
            run_experiment(_small_config(output_dir=str(out)))
        assert sorted(str(p.relative_to(out)) for p in out.rglob("*") if p.is_file()) == [
            "config.json", "summary.json", "timeseries.csv"]
        assert (out / "timeseries.csv").read_text().count("\n") == 1
        assert json.loads((out / "summary.json").read_text())["steps"] == 0

    def test_emit_returns_written_files(self, tmp_path):
        result = run_experiment(_small_config(horizon_steps=1))
        written = emit_outputs(result, tmp_path / "dest")
        assert all(p.exists() for p in written)
        names = {p.name for p in written}
        assert {"config.json", "timeseries.csv", "summary.json"} <= names


class TestCloudWorker:
    """Cloud CSVs written by one worker process during the run (more than one
    usable CPU) or in-process when each step ends (one CPU)."""

    @staticmethod
    def _spy(monkeypatch, cpus: int):
        """Pretend ``cpus`` CPUs are usable; returns the list that counts the
        clouds formatted in this process."""
        formatted = []
        real_csv = harness._cloud_csv

        def counting_csv(cloud):
            formatted.append(len(cloud))
            return real_csv(cloud)

        monkeypatch.setattr(harness, "_usable_cpus", lambda: cpus)
        monkeypatch.setattr(harness, "_cloud_csv", counting_csv)
        return formatted

    def test_worker_and_in_process_trees_identical(self, tmp_path, monkeypatch):
        # One output path for both runs: config.json records it.
        out = tmp_path / "run"
        config = _small_config(horizon_steps=3, output_dir=str(out),
                               filters=("gsf", "ngsf", "kf_momentmatch"))
        trees = {}
        for cpus in (2, 1):
            formatted = self._spy(monkeypatch, cpus)
            result = run_experiment(config)
            trees[cpus] = _snapshot(out)
            # The initial cloud, the step-1 cloud all filters share, then one
            # per filter at steps 2 and 3; the worker formats all of them.
            assert len(formatted) == (0 if cpus > 1 else 8)
            # emit writes the same tree from the result and returns every
            # file of it, the clouds included.
            other = tmp_path / "emit"
            written = emit_outputs(result, other)
            assert sorted(p.relative_to(other) for p in written) == list(trees[cpus])
            assert _snapshot(other) == trees[cpus]
            shutil.rmtree(out)
            shutil.rmtree(other)
        assert len([p for p in trees[1] if p.parent.name == "clouds"]) == 10
        assert trees[2] == trees[1]
        assert multiprocessing.active_children() == []

    def test_failure_at_step_two_flushes_the_same_tree(self, tmp_path, monkeypatch):
        out = tmp_path / "run"
        config = _small_config(horizon_steps=3, output_dir=str(out),
                               filters=("gsf", "ngsf", "kf_momentmatch"))
        real_fit = harness._fit_gmm_em_stack
        trees = {}
        for cpus in (2, 1):
            self._spy(monkeypatch, cpus)
            fits = []

            def fit_failing_at_step_two(clouds, em, rngs):
                # Step 1 fits the one cloud all filters share.
                fits.append(rngs)
                if len(fits) > 1:
                    raise FitError("EM failed")
                return real_fit(clouds, em, rngs)

            monkeypatch.setattr(harness, "_fit_gmm_em_stack", fit_failing_at_step_two)
            with pytest.raises(HarnessError, match=r"^step 2, module em_fit: EM failed$"):
                run_experiment(config)
            trees[cpus] = _snapshot(out)
            shutil.rmtree(out)
        assert sorted(p.name for p in trees[1] if p.parent.name == "clouds") == [
            "step000_init.csv", "step001_gsf_prior.csv", "step001_kf_momentmatch_prior.csv",
            "step001_ngsf_prior.csv"]
        assert trees[2] == trees[1]
        assert multiprocessing.active_children() == []

    def test_output_dir_that_is_a_file_fails_alike(self, tmp_path, monkeypatch):
        # The tree is opened before the initial draw, so the run stops at
        # step 0 with either worker count, before any cloud is drawn.
        out = tmp_path / "taken"
        out.write_text("")
        errors = {}
        for cpus in (2, 1):
            self._spy(monkeypatch, cpus)
            with pytest.raises(HarnessError, match=r"^step 0, module output: ") as caught:
                run_experiment(_small_config(horizon_steps=1, output_dir=str(out)))
            errors[cpus] = (type(caught.value.__cause__), str(caught.value))
        assert errors[2] == errors[1]
        assert multiprocessing.active_children() == []

    def test_no_worker_without_cloud_files(self, tmp_path, monkeypatch):
        # Runs without an output tree (compare's members) or without clouds
        # open no process pool.
        import concurrent.futures

        def refuse(*args, **kwargs):
            raise AssertionError("a process pool was opened")

        monkeypatch.setattr(harness, "_usable_cpus", lambda: 2)
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", refuse)
        run_experiment(_small_config(horizon_steps=1))
        run_experiment(_small_config(horizon_steps=1, save_clouds=False,
                                     output_dir=str(tmp_path / "o")))


class TestWorkerPool:
    def test_one_cpu_yields_no_pool(self, monkeypatch):
        monkeypatch.setattr(harness, "_usable_cpus", lambda: 1)
        with harness._worker_pool(4) as (pool, workers):
            assert pool is None and workers == 1

    @pytest.mark.parametrize("cpus", [2, 5])
    @pytest.mark.parametrize("wanted", [1, 3])
    def test_pool_has_one_worker_per_cpu_up_to_wanted(self, cpus, wanted, monkeypatch):
        monkeypatch.setattr(harness, "_usable_cpus", lambda: cpus)
        with harness._worker_pool(wanted) as (pool, workers):
            assert workers == pool._max_workers == min(wanted, cpus)
            assert pool.submit(abs, -1).result() == 1
        assert multiprocessing.active_children() == []

    def test_exception_in_block_shuts_pool_down(self, monkeypatch):
        monkeypatch.setattr(harness, "_usable_cpus", lambda: 2)
        with pytest.raises(RuntimeError, match="cut short"):
            with harness._worker_pool(2) as (pool, _):
                assert pool.submit(abs, -1).result() == 1
                raise RuntimeError("cut short")
        assert multiprocessing.active_children() == []


class TestMonteCarloCompare:
    def test_single_filter_no_paired_section(self):
        comparison = monte_carlo_compare(_small_config(horizon_steps=1,
                                                       filters=("gsf",)), 2)
        assert comparison.paired is None
        assert set(comparison.per_filter) == {"gsf"}
        assert "gsf" in comparison.to_text()

    def test_paired_runs_cost_dominance(self):
        comparison = monte_carlo_compare(_small_config(horizon_steps=2), 3)
        assert comparison.paired["cost_dominance_fraction"] == 1.0
        assert comparison.paired["mean_cost_gap"] <= 1e-12
        signs = comparison.paired["error_variance_signs"]
        for state in ("x1", "x2"):
            counts = signs[state]
            assert counts["ngsf_better"] + counts["gsf_better"] + counts["ties"] == 3

    def test_rejects_single_run(self):
        with pytest.raises(ValidationError):
            monte_carlo_compare(_small_config(), 1)

    def test_rejects_zero_horizon(self):
        with pytest.raises(ValidationError):
            monte_carlo_compare(_small_config(horizon_steps=0), 2)

    def test_numpy_integer_runs_written_as_json(self):
        comparison = monte_carlo_compare(_small_config(horizon_steps=1, filters=("gsf",)),
                                         np.int64(2))
        assert json.loads(json.dumps(comparison.to_json_dict()))["n_runs"] == 2

    @pytest.mark.parametrize("n_runs", [2.5, "3", None, True])
    def test_rejects_non_integer_runs(self, n_runs):
        with pytest.raises(ValidationError, match="n_runs must be an integer"):
            monte_carlo_compare(_small_config(), n_runs)

    def test_result_independent_of_worker_count(self, monkeypatch):
        # One in-process run, a two-worker pool, and more CPUs than runs.
        config = _small_config(filters=("gsf", "ngsf", "kf_momentmatch"))
        results = []
        for cpus in (1, 2, 5):
            monkeypatch.setattr(harness, "_usable_cpus", lambda: cpus)
            results.append(monte_carlo_compare(config, 3))
        serial, *pooled = results
        for other in pooled:
            assert (json.dumps(other.to_json_dict(), sort_keys=True)
                    == json.dumps(serial.to_json_dict(), sort_keys=True))
            assert other.run_summaries == serial.run_summaries
            assert other.to_text() == serial.to_text()
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_member_failure_names_run_step_and_module(self, cpus, monkeypatch):
        monkeypatch.setattr(harness, "_usable_cpus", lambda: cpus)
        with pytest.raises(HarnessError, match=r"^run 0, step 1, module propagation: "
                                               r"integration produced a non-finite state"):
            monte_carlo_compare(_diverging_config(), 3)
        assert multiprocessing.active_children() == []

    def test_failure_stops_submitting_members(self, tmp_path, monkeypatch):
        # Every member fails: one per worker starts, no later one does.
        monkeypatch.setattr(harness, "_usable_cpus", lambda: 2)
        monkeypatch.setattr(harness, "_run_member", _marked_member)
        config = replace(_diverging_config(), output_dir=str(tmp_path))
        with pytest.raises(HarnessError, match=r"^run 0, step 1, module propagation"):
            monte_carlo_compare(config, 12)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["run0", "run1"]
        assert multiprocessing.active_children() == []

    def test_first_failing_run_is_reported(self, monkeypatch):
        # Runs 0-2 pass and every later one fails; whatever order the pool
        # finishes them in, the error names run 3, as the in-process loop does.
        monkeypatch.setattr(harness, "_run_member", _member_failing_from_run_3)
        for cpus in (1, 2):
            monkeypatch.setattr(harness, "_usable_cpus", lambda: cpus)
            with pytest.raises(HarnessError, match=r"^run 3, step 1, module propagation"):
                monte_carlo_compare(_small_config(horizon_steps=1, filters=("gsf",)), 8)
        assert multiprocessing.active_children() == []

    def test_import_loads_no_process_pool(self):
        # Nor scipy: its solvers are imported inside the functions that use them.
        code = ("import sys, wassfilter; "
                "print([m for m in ('concurrent.futures', 'multiprocessing', 'scipy') "
                "if m in sys.modules])")
        env = {**os.environ, "PYTHONPATH": str(Path(wassfilter.__file__).parents[1])}
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                             text=True, check=True, timeout=60).stdout
        assert out.strip() == "[]"


class TestCli:
    def _write_config(self, path: Path) -> Path:
        config = _small_config(horizon_steps=1)
        cfg_path = path / "config.json"
        cfg_path.write_text(json.dumps(config.to_json_dict()))
        return cfg_path

    def test_run_subcommand(self, tmp_path, capsys):
        cfg = self._write_config(tmp_path)
        code = cli_main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")])
        assert code == 0
        assert (tmp_path / "out" / "summary.json").exists()
        assert "rmse" in capsys.readouterr().out

    def test_run_seed_override_changes_outputs(self, tmp_path):
        cfg = self._write_config(tmp_path)
        assert cli_main(["run", "--config", str(cfg), "--out", str(tmp_path / "a"),
                         "--seed", "1"]) == 0
        assert cli_main(["run", "--config", str(cfg), "--out", str(tmp_path / "b"),
                         "--seed", "2"]) == 0
        a = (tmp_path / "a" / "timeseries.csv").read_text()
        b = (tmp_path / "b" / "timeseries.csv").read_text()
        assert a != b

    def test_compare_subcommand(self, tmp_path, capsys):
        cfg = self._write_config(tmp_path)
        code = cli_main(["compare", "--config", str(cfg), "--runs", "2",
                         "--out", str(tmp_path / "cmp")])
        assert code == 0
        assert (tmp_path / "cmp" / "comparison.json").exists()
        assert "paired Monte Carlo" in capsys.readouterr().out

    def test_run_out_under_a_file_exits_before_step_one(self, tmp_path, capsys, monkeypatch):
        def no_step(*args, **kwargs):
            raise AssertionError("a step ran")

        monkeypatch.setattr(harness, "propagate_cloud", no_step)
        (tmp_path / "afile").write_text("")
        cfg = self._write_config(tmp_path)
        out = tmp_path / "afile" / "sub"
        assert cli_main(["run", "--config", str(cfg), "--out", str(out)]) == 2
        assert capsys.readouterr().err.splitlines() == [
            f"runtime error: step 0, module output: [Errno 20] Not a directory: "
            f"'{out / 'mixtures'}'"]

    def test_compare_out_under_a_file_exits_before_the_first_run(self, tmp_path, capsys,
                                                                 monkeypatch):
        def no_member(*args, **kwargs):
            raise AssertionError("a member run started")

        monkeypatch.setattr(harness, "_usable_cpus", lambda: 1)
        monkeypatch.setattr(harness, "_run_member", no_member)
        (tmp_path / "afile").write_text("")
        cfg = self._write_config(tmp_path)
        out = tmp_path / "afile" / "sub"
        assert cli_main(["compare", "--config", str(cfg), "--runs", "2", "--out", str(out)]) == 2
        assert capsys.readouterr().err.splitlines() == [
            f"runtime error: output directory: [Errno 20] Not a directory: '{out}'"]

    def test_compare_invalid_runs_makes_no_out_directory(self, tmp_path, capsys):
        cfg = self._write_config(tmp_path)
        assert cli_main(["compare", "--config", str(cfg), "--runs", "1",
                         "--out", str(tmp_path / "cmp")]) == 1
        assert capsys.readouterr().err.startswith("invalid input: n_runs must be >= 2")
        assert not (tmp_path / "cmp").exists()

    def test_compare_member_failure_exit_code(self, tmp_path, capsys):
        cfg = tmp_path / "diverging.json"
        cfg.write_text(json.dumps(_diverging_config().to_json_dict()))
        assert cli_main(["compare", "--config", str(cfg), "--runs", "3"]) == 2
        assert ("runtime error: run 0, step 1, module propagation"
                in capsys.readouterr().err)
        assert multiprocessing.active_children() == []

    def test_diverging_run_prints_one_error_line(self, tmp_path, capsys):
        # The truth overflows in its first RK4 substep: exit 2, and the error
        # line is all that reaches stderr (no numpy RuntimeWarning above it).
        cfg = tmp_path / "diverging.json"
        cfg.write_text(json.dumps({"true_x0": [1e300, 1], "ensemble_size": 200,
                                   "horizon_steps": 2, "em": {"n_components": 2}}))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = cli_main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert code == 2
        assert [str(w.message) for w in caught] == []
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith("runtime error: step 1, module propagation: ")

    def test_huge_covariance_floor_exits_at_propagation(self, tmp_path, capsys):
        # Any positive finite EM floor is valid. At 1e300 the step-1 posteriors
        # resample clouds that overflow the dynamics: exit 2 at step 2, with the
        # error line alone on stderr; the step-1 innovation guard, whose
        # eigenvalues reach about 1e300, raises no overflow warning.
        cfg = tmp_path / "huge_floor.json"
        cfg.write_text(json.dumps({"em": {"covariance_floor": 1e300, "n_components": 2},
                                   "ensemble_size": 200, "horizon_steps": 2}))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = cli_main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert code == 2
        assert [str(w.message) for w in caught] == []
        assert capsys.readouterr().err.splitlines() == [
            "runtime error: step 2, module propagation: particle 0 diverged"]

    def test_failed_initial_draw_names_step_zero(self, tmp_path, capsys, monkeypatch):
        # An ensemble the config accepts but memory cannot hold fails at the
        # initial draw: exit 2 naming step 0, with the partial tree flushed.
        real_rng = harness._derived_rng

        class _NoMemory:
            def standard_normal(self, size):
                raise MemoryError(f"Unable to allocate an array of shape {size}")

        monkeypatch.setattr(harness, "_derived_rng", lambda seed, *key: (
            _NoMemory() if key == (harness._STREAM_INIT,) else real_rng(seed, *key)))
        cfg = tmp_path / "huge.json"
        # The largest ensemble the EM working-memory bound lets one component
        # and one restart have: 2**31 particles, a 32 GiB cloud.
        cfg.write_text(json.dumps({"ensemble_size": 2**31,
                                   "em": {"n_components": 1, "restarts": 1}}))
        out = tmp_path / "o"
        assert cli_main(["run", "--config", str(cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert err == ["runtime error: step 0, module initialization: "
                       "Unable to allocate an array of shape (2147483648, 2)"]
        assert (out / "config.json").exists()
        assert (out / "timeseries.csv").read_text().startswith("step,time,")

    def test_filters_flag(self, tmp_path):
        cfg = self._write_config(tmp_path)
        assert cli_main(["run", "--config", str(cfg), "--out", str(tmp_path / "f"),
                         "--filters", "gsf"]) == 0
        header = (tmp_path / "f" / "timeseries.csv").read_text().splitlines()[0]
        assert "ngsf_est_x1" not in header
        assert "gsf_est_x1" in header

    def test_invalid_config_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"filters": ["nope"]}))
        assert cli_main(["run", "--config", str(bad)]) == 1
        assert "invalid input" in capsys.readouterr().err

    def test_measurement_state_dim_exit_code(self, tmp_path, capsys):
        # A 3-column C cannot observe the 2-D Duffing state; it is rejected
        # when the config is built, before any step runs.
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"measurement": {"C": [[1.0, 0.0, 0.0]], "R": [[0.1]]}}))
        assert cli_main(["run", "--config", str(bad), "--out", str(tmp_path / "o")]) == 1
        assert "invalid input" in capsys.readouterr().err

    @pytest.mark.parametrize("data", [
        {"ensemble_size": 5},  # too few particles for 10 mixture components
        {"duffing": {"damping": float("nan")}},
        # C C^T + R singular: every innovation covariance C S C^T + R is too.
        {"measurement": {"C": [[0.0, 0.0]], "R": [[0.0]]}},
        {"duffing": {"dampng": 0.1}},
        {"em": {"n_component": 3}},
        {"measurement": {"C": [[1.0, 0.0]], "R": [[0.1]], "Q": [[0.1]]}},
        {"em": 3},
        {"measurement": {"C": [[1.0, 0.0]]}},
        {"ensemble_size": "many"},
        {"true_x0": "ab"},
        {"horizon_steps": 2.5},
        {"em": {"n_components": 2.5}},
        {"master_seed": 1.5},
        {"save_clouds": "no"},
        {"output_dir": 3},
        {"ensemble_size": True},
        {"em": {"restarts": False}},
        {"duffing": {"dt": "0.01"}},
        # Never took effect: the harness always hands EM a derived generator.
        {"em": {"init_seed": 5}},
        {"em": {"tol": float("nan")}},
        {"em": {"covariance_floor": float("inf")}},
        # Beyond the largest (N, 2) float64 array numpy can index.
        {"ensemble_size": 10**30},
        # Asks for 5e13 doubles (364 TiB) of EM responsibilities.
        {"em": {"restarts": 10**9}},
        # One double over the EM working-memory bound.
        {"ensemble_size": 2**31 + 1, "em": {"n_components": 1, "restarts": 1}},
        # C C^T overflows to inf, whose Cholesky factor numpy returns without raising.
        {"measurement": {"C": [[1e200, 0.0]], "R": [[1.0]]}},
        # Each would ask for about 5e299 RK4 substeps per step.
        {"duffing": {"dt": 1e-300}},
        {"duffing": {"sample_time": 1e300}},
    ], ids=["ensemble_below_components", "nan_damping", "uninformative_sensor",
            "unknown_duffing_key", "unknown_em_key", "unknown_measurement_key",
            "section_not_object", "measurement_without_R", "string_ensemble_size",
            "string_true_x0", "fractional_horizon", "fractional_components",
            "fractional_seed", "string_save_clouds", "numeric_output_dir",
            "bool_ensemble_size", "bool_restarts", "string_dt", "em_init_seed",
            "nan_em_tol", "infinite_covariance_floor", "unallocatable_ensemble",
            "huge_restarts", "em_memory_bound", "overflowing_sensor", "tiny_dt",
            "huge_sample_time"])
    def test_bad_config_rejected_before_step_one(self, tmp_path, capsys, data):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(data))
        assert cli_main(["run", "--config", str(bad), "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("invalid input") and err.count("\n") == 1
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("c", [
        [[1.0, 0.0]],
        # Observes the whole state: the posterior covariances nearly vanish.
        [[1.0, 0.5], [-0.3, 1.0]],
    ], ids=["one_row", "two_rows"])
    def test_noiseless_informative_sensor_runs(self, tmp_path, c):
        # R = 0 is allowed when C alone makes C C^T + R positive definite.
        model = LinearMeasurementModel(c, np.zeros((len(c), len(c))))
        config = _small_config(horizon_steps=1, measurement=model)
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps(config.to_json_dict()))
        assert cli_main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 0

    def test_missing_config_exit_code(self, tmp_path):
        assert cli_main(["run", "--config", str(tmp_path / "absent.json")]) == 1

    @pytest.mark.parametrize("kind", ["directory", "not_utf8"])
    def test_unreadable_config_exit_code(self, tmp_path, capsys, kind):
        path = tmp_path / "config"
        if kind == "directory":
            path.mkdir()
        else:
            path.write_bytes(b'{"horizon_steps": 2, "output_dir": "\xff"}')
        assert cli_main(["run", "--config", str(path), "--out", str(tmp_path / "o")]) == 1
        assert "invalid input" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_validate_subcommand(self, capsys):
        assert cli_main(["validate"]) == 0
        out = capsys.readouterr().out
        assert "PASS" in out
        assert "FAIL" not in out

    def test_validate_reports_independent_of_suite_order(self, monkeypatch):
        # Each suite's generator is keyed on its name, not on its position, so
        # reordering or dropping suites leaves every other report unchanged.
        forward = validate.run_validation(seed=3)
        monkeypatch.setattr(validate, "SUITES", validate.SUITES[:0:-1])
        backward = validate.run_validation(seed=3)
        assert backward == forward[:0:-1]
