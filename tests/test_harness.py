"""Tests for the experiment runner, output emission and CLI."""

import json
from pathlib import Path

import numpy as np
import pytest

from wassfilter import (DuffingModel, EmFitConfig, ExperimentConfig,
                        LinearMeasurementModel, NgsfOptions, ValidationError,
                        emit_outputs, monte_carlo_compare, run_experiment)
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
        with pytest.raises(ValidationError):
            ExperimentConfig.from_json_dict({"horizon": 3})

    def test_unknown_filter_rejected(self):
        with pytest.raises(ValidationError):
            _small_config(filters=("gsf", "ukf"))

    def test_empty_filters_rejected(self):
        with pytest.raises(ValidationError):
            _small_config(filters=())


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

    def test_ngsf_max_iters_zero_matches_gsf(self):
        # Disabled optimizer: warm start returned unmodified, so both filters
        # apply the same gains and weights (covariance forms differ only at
        # roundoff) and the estimates coincide.
        config = _small_config(horizon_steps=2, ngsf=NgsfOptions(max_iters=0))
        result = run_experiment(config)
        first = result.records[0].filters
        np.testing.assert_array_equal(first["ngsf"].posterior.weights,
                                      first["gsf"].posterior.weights)
        for rec in result.records:
            gsf, ngsf = rec.filters["gsf"], rec.filters["ngsf"]
            # Posterior covariance forms (short vs quadratic) agree only to
            # roundoff, so later steps match to tolerance rather than bitwise.
            np.testing.assert_allclose(ngsf.posterior.weights, gsf.posterior.weights,
                                       atol=1e-12)
            np.testing.assert_allclose(ngsf.estimate, gsf.estimate, rtol=1e-9, atol=1e-12)

    def test_kf_momentmatch_baseline(self):
        result = run_experiment(_small_config(filters=("gsf", "kf_momentmatch")))
        rec = result.records[0]
        assert rec.filters["kf_momentmatch"].posterior.order == 1

    def test_abort_names_step_and_module_and_flushes(self, tmp_path):
        from wassfilter import HarnessError

        # 50 particles cannot support 10 mixture components: the EM fit at
        # step 1 fails, the error names the step and module, and the partial
        # output tree (config plus headers) is still written.
        out = tmp_path / "o"
        config = _small_config(ensemble_size=50,
                               em=EmFitConfig(n_components=10),
                               output_dir=str(out))
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

    def test_emit_returns_written_files(self, tmp_path):
        result = run_experiment(_small_config(horizon_steps=1))
        written = emit_outputs(result, tmp_path / "dest")
        assert all(p.exists() for p in written)
        names = {p.name for p in written}
        assert {"config.json", "timeseries.csv", "summary.json"} <= names


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

    def test_disabled_optimizer_identical_statistics(self):
        config = _small_config(horizon_steps=2, ngsf=NgsfOptions(max_iters=0))
        comparison = monte_carlo_compare(config, 2)
        gsf = comparison.per_filter["gsf"]
        ngsf = comparison.per_filter["ngsf"]
        np.testing.assert_allclose(ngsf["rmse"], gsf["rmse"], rtol=1e-9)
        np.testing.assert_allclose(ngsf["error_variance"], gsf["error_variance"], rtol=1e-9)

    def test_rejects_single_run(self):
        with pytest.raises(ValidationError):
            monte_carlo_compare(_small_config(), 1)

    def test_rejects_zero_horizon(self):
        with pytest.raises(ValidationError):
            monte_carlo_compare(_small_config(horizon_steps=0), 2)


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

    def test_missing_config_exit_code(self, tmp_path):
        assert cli_main(["run", "--config", str(tmp_path / "absent.json")]) == 1

    def test_validate_subcommand(self, capsys):
        assert cli_main(["validate"]) == 0
        out = capsys.readouterr().out
        assert "PASS" in out
        assert "FAIL" not in out
