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

        monkeypatch.setattr("wassfilter.harness.fit_gmm_em", failing_fit)
        out = tmp_path / "o"
        config = _small_config(output_dir=str(out))
        with pytest.raises(HarnessError, match=r"step 1, module em_fit"):
            run_experiment(config)
        assert (out / "config.json").exists()
        assert (out / "timeseries.csv").read_text().startswith("step,time,")

    def test_wall_time_recorded_not_emitted(self, tmp_path):
        out = tmp_path / "o"
        result = run_experiment(_small_config(horizon_steps=1, output_dir=str(out)))
        assert result.records[0].filters["gsf"].wall_time > 0.0
        emitted = (out / "timeseries.csv").read_text() + (out / "summary.json").read_text()
        assert "wall" not in emitted


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

    def test_emit_returns_written_files(self, tmp_path):
        result = run_experiment(_small_config(horizon_steps=1))
        written = emit_outputs(result, tmp_path / "dest")
        assert all(p.exists() for p in written)
        names = {p.name for p in written}
        assert {"config.json", "timeseries.csv", "summary.json"} <= names


class TestCloudWorker:
    """Cloud CSVs written by one worker process during the run (more than one
    usable CPU) or formatted in-process when the run ends (one CPU)."""

    @staticmethod
    def _spy(monkeypatch, cpus: int):
        """Pretend ``cpus`` CPUs are usable; returns the list that counts the
        clouds formatted in this process and the list of emit's return values."""
        formatted, emitted = [], []
        real_csv, real_emit = harness._cloud_csv, harness.emit_outputs

        def counting_csv(cloud):
            formatted.append(len(cloud))
            return real_csv(cloud)

        def recording_emit(*args):
            emitted.append(real_emit(*args))
            return emitted[-1]

        monkeypatch.setattr(harness, "_usable_cpus", lambda: cpus)
        monkeypatch.setattr(harness, "_cloud_csv", counting_csv)
        monkeypatch.setattr(harness, "emit_outputs", recording_emit)
        return formatted, emitted

    def test_worker_and_in_process_trees_identical(self, tmp_path, monkeypatch):
        # One output path for both runs: config.json records it.
        out = tmp_path / "run"
        config = _small_config(horizon_steps=3, output_dir=str(out),
                               filters=("gsf", "ngsf", "kf_momentmatch"))
        trees = {}
        for cpus in (2, 1):
            formatted, emitted = self._spy(monkeypatch, cpus)
            run_experiment(config)
            trees[cpus] = _snapshot(out)
            # emit returns every file of the tree, the clouds included.
            assert sorted(p.relative_to(out) for p in emitted[-1]) == list(trees[cpus])
            # The initial cloud, the step-1 cloud all filters share, then one
            # per filter at steps 2 and 3; the worker formats all of them.
            assert len(formatted) == (0 if cpus > 1 else 8)
            shutil.rmtree(out)
        assert len([p for p in trees[1] if p.parent.name == "clouds"]) == 10
        assert trees[2] == trees[1]
        assert multiprocessing.active_children() == []

    def test_failure_at_step_two_flushes_the_same_tree(self, tmp_path, monkeypatch):
        out = tmp_path / "run"
        config = _small_config(horizon_steps=3, output_dir=str(out),
                               filters=("gsf", "ngsf", "kf_momentmatch"))
        real_fit = harness.fit_gmm_em
        trees = {}
        for cpus in (2, 1):
            self._spy(monkeypatch, cpus)
            fits = []

            def fit_failing_at_step_two(cloud, em, rng):
                # Step 1 fits the one cloud all filters share.
                fits.append(rng)
                if len(fits) > 1:
                    raise FitError("EM failed")
                return real_fit(cloud, em, rng)

            monkeypatch.setattr(harness, "fit_gmm_em", fit_failing_at_step_two)
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
        # The worker's writes fail too, but emit raises the error an
        # in-process emit meets first.
        out = tmp_path / "taken"
        out.write_text("")
        errors = {}
        for cpus in (2, 1):
            self._spy(monkeypatch, cpus)
            with pytest.raises(OSError) as caught:
                run_experiment(_small_config(horizon_steps=1, output_dir=str(out)))
            errors[cpus] = (type(caught.value), str(caught.value))
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

    @pytest.mark.parametrize("jobs", [0, -1, 1.5, True])
    def test_rejects_bad_jobs(self, jobs):
        with pytest.raises(ValidationError, match="jobs"):
            monte_carlo_compare(_small_config(), 2, jobs=jobs)

    def test_result_independent_of_worker_count(self):
        # One in-process run, a two-worker pool, and more workers than runs.
        config = _small_config(filters=("gsf", "ngsf", "kf_momentmatch"))
        serial, *pooled = [monte_carlo_compare(config, 3, jobs=jobs) for jobs in (1, 2, 5)]
        for other in pooled:
            assert (json.dumps(other.to_json_dict(), sort_keys=True)
                    == json.dumps(serial.to_json_dict(), sort_keys=True))
            assert other.run_summaries == serial.run_summaries
            assert other.to_text() == serial.to_text()
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_member_failure_names_run_step_and_module(self, jobs):
        with pytest.raises(HarnessError, match=r"^run 0, step 1, module propagation: "
                                               r"integration produced a non-finite state"):
            monte_carlo_compare(_diverging_config(), 3, jobs=jobs)
        assert multiprocessing.active_children() == []

    def test_failure_stops_submitting_members(self, tmp_path, monkeypatch):
        # Every member fails: the first `jobs` start, no later one does.
        monkeypatch.setattr(harness, "_run_member", _marked_member)
        config = replace(_diverging_config(), output_dir=str(tmp_path))
        with pytest.raises(HarnessError, match=r"^run 0, step 1, module propagation"):
            monte_carlo_compare(config, 12, jobs=2)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["run0", "run1"]
        assert multiprocessing.active_children() == []

    def test_first_failing_run_is_reported(self, monkeypatch):
        # Runs 0-2 pass and every later one fails; whatever order the pool
        # finishes them in, the error names run 3, as the in-process loop does.
        monkeypatch.setattr(harness, "_run_member", _member_failing_from_run_3)
        for jobs in (1, 2):
            with pytest.raises(HarnessError, match=r"^run 3, step 1, module propagation"):
                monte_carlo_compare(_small_config(horizon_steps=1, filters=("gsf",)), 8,
                                    jobs=jobs)
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
        cfg.write_text(json.dumps({"ensemble_size": 10**17}))
        out = tmp_path / "o"
        assert cli_main(["run", "--config", str(cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert err == ["runtime error: step 0, module initialization: "
                       "Unable to allocate an array of shape (100000000000000000, 2)"]
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
            "overflowing_sensor", "tiny_dt", "huge_sample_time"])
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
