import csv
import json
from pathlib import Path

import pytest

from mixsense import cli, scaledtgd
from mixsense.errors import ConfigError, MixsenseError, PreconditionerSingularError


def tiny_config(**overrides):
    cfg = {
        "n1": 10,
        "n2": 10,
        "K": 1,
        "ranks": [1],
        "sigma": 0.0,
        "N": 800,
        "seed": 0,
        "trials": 2,
        "pipeline": {"t0": 70, "early_stop_tol": 1e-13},
    }
    cfg.update(overrides)
    return cfg


def write_config(tmp_path, cfg, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return path


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


class TestConfigParsing:
    def test_round_trip_idempotent(self):
        cfg = cli.parse_config(tiny_config())
        again = cli.parse_config(cfg.to_json_dict())
        assert again == cfg

    def test_formula_token(self):
        cfg = cli.parse_config(tiny_config(N="90nrK"))
        assert cfg.resolved_n() == 90 * 10 * 1 * 1

    def test_bad_token(self):
        with pytest.raises(ConfigError):
            cli.parse_config(tiny_config(N="90xyz")).resolved_n()

    def test_defaults(self):
        cfg = cli.parse_config(tiny_config(K=2, ranks=[1, 2]))
        assert cfg.resolved_proportions() == [0.5, 0.5]
        assert cfg.resolved_spectra() == [[1.0], [1.0, 1.0]]
        pipe = cli._pipeline_config(cfg, seed=0)
        assert pipe.supplied_ranks == (1, 2) and pipe.supplied_proportions == (0.5, 0.5)

    def test_validation_errors(self):
        with pytest.raises(ConfigError):
            cli.parse_config(tiny_config(K=2))  # ranks length mismatch
        with pytest.raises(ConfigError):
            cli.parse_config(tiny_config(trials=0))
        with pytest.raises(ConfigError):
            cli.parse_config(tiny_config(bogus=1))
        with pytest.raises(ConfigError):
            cli.parse_config(tiny_config(pipeline={"t0": 0}))
        with pytest.raises(ConfigError):
            cli.parse_config(tiny_config(pipeline={"supplied_proportions": [0.0]}))
        with pytest.raises(ConfigError):
            cli.parse_config({"n1": 4})

    def test_shipped_configs_load(self):
        paths = sorted((Path(__file__).resolve().parents[1] / "configs").glob("*.json"))
        assert paths
        for path in paths:
            cli.load_config(path)  # also builds its PipelineConfig


class TestRunCommand:
    def test_run_writes_summary_and_report(self, tmp_path):
        path = write_config(tmp_path, tiny_config())
        out = tmp_path / "out"
        assert cli.main(["run", "--config", str(path), "--out", str(out)]) == 0
        rows = read_csv(out / "summary.csv")
        assert rows[0] == ["seed", "component", "rel_error", "init_error", "R_used"]
        assert len(rows) == 1 + 2  # header + one row per trial per component
        assert all(float(r[2]) <= 1e-6 for r in rows[1:])
        report = json.loads((out / "report.json").read_text())
        assert len(report["trials"]) == 2
        assert report["config"]["K"] == 1

    def test_malformed_config_exits_2_without_outputs(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        out = tmp_path / "out"
        assert cli.main(["run", "--config", str(path), "--out", str(out)]) == 2
        assert not out.exists()

    def test_byte_identical_reruns(self, tmp_path):
        path = write_config(tmp_path, tiny_config())
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert cli.main(["run", "--config", str(path), "--out", str(out1)]) == 0
        assert cli.main(["run", "--config", str(path), "--out", str(out2)]) == 0
        assert (out1 / "summary.csv").read_bytes() == (out2 / "summary.csv").read_bytes()
        assert (out1 / "report.json").read_bytes() == (out2 / "report.json").read_bytes()

    def test_numerical_failure_exits_3_with_partial_output(self, tmp_path):
        bad = tiny_config(pipeline={"t0": 10, "supplied_r_joint": 99})
        path = write_config(tmp_path, bad)
        out = tmp_path / "out"
        assert cli.main(["run", "--config", str(path), "--out", str(out)]) == 3
        assert (out / "summary.csv").exists()  # header flushed before failure

    def test_failure_keeps_finished_trials(self, tmp_path, monkeypatch):
        real_run_trial = cli._run_trial

        def fail_on_trial_1(cfg, sigma, trial, *args, **kwargs):
            if trial == 1:
                raise MixsenseError("injected failure")
            return real_run_trial(cfg, sigma, trial, *args, **kwargs)

        monkeypatch.setattr(cli, "_run_trial", fail_on_trial_1)
        path = write_config(tmp_path, tiny_config())
        out = tmp_path / "out"
        assert cli.main(["run", "--config", str(path), "--out", str(out)]) == 3
        rows = read_csv(out / "summary.csv")
        assert len(rows) == 1 + 1 and rows[1][0] == "0"  # header + trial 0's component
        report = json.loads((out / "report.json").read_text())
        assert [t["seed"] for t in report["trials"]] == [0]

    def test_failed_trial_keeps_partial_trace(self, tmp_path, monkeypatch):
        real_run_trial, real_solve = cli._run_trial, scaledtgd._gram_solve_factor
        state = {"trial": None, "calls": 0}

        def run_trial(cfg, sigma, trial, *args, **kwargs):
            state["trial"] = trial
            return real_run_trial(cfg, sigma, trial, *args, **kwargs)

        def solve(f):
            # two calls per update: trial 2's fifth is the first of iteration 2
            if state["trial"] == 2:
                state["calls"] += 1
                if state["calls"] == 5:
                    raise PreconditionerSingularError("forced")
            return real_solve(f)

        monkeypatch.setattr(cli, "_run_trial", run_trial)
        monkeypatch.setattr(scaledtgd, "_gram_solve_factor", solve)
        path = write_config(tmp_path, tiny_config(trials=3))
        out = tmp_path / "out"
        assert cli.main(["run", "--config", str(path), "--out", str(out)]) == 3
        report = json.loads((out / "report.json").read_text())
        assert [t["seed"] for t in report["trials"]] == [0, 1000]
        failed = report["failed_trial"]
        assert failed["seed"] == 2000 and failed["stage"] == "stage3"
        assert "forced" in failed["message"]
        trace = failed["trace"]
        assert trace["stop_reason"] == "singular_preconditioner"
        assert trace["iters"] == [0, 1, 2]
        assert all(err is not None for err in trace["rel_errors"])
        assert len(read_csv(out / "summary.csv")) == 1 + 2

    def test_negative_tolerance_exits_2(self, tmp_path):
        path = write_config(tmp_path, tiny_config(pipeline={"t0": 10, "early_stop_tol": -1.0}))
        out = tmp_path / "out"
        assert cli.main(["run", "--config", str(path), "--out", str(out)]) == 2

    def test_sigma_list_rejected_for_run(self, tmp_path):
        path = write_config(tmp_path, tiny_config(sigma=[0.0, 0.1]))
        out = tmp_path / "out"
        assert cli.main(["run", "--config", str(path), "--out", str(out)]) == 2


class TestTraceCommand:
    def test_trace_rows(self, tmp_path):
        path = write_config(tmp_path, tiny_config(trials=1))
        out = tmp_path / "out"
        assert cli.main(["trace", "--config", str(path), "--out", str(out)]) == 0
        rows = read_csv(out / "trace.csv")
        assert rows[0] == ["iter", "component", "rel_error", "tau", "kept"]
        body = rows[1:]
        assert body[0][0] == "0" and body[0][1] == "0"
        # iteration numbers restart per component block and the trace
        # converges
        errs = [float(r[2]) for r in body]
        assert errs[0] > errs[-1] and errs[-1] <= 1e-8

    def test_trace_rejects_t0_zero(self, tmp_path):
        path = write_config(tmp_path, tiny_config(pipeline={"t0": 0}))
        out = tmp_path / "out"
        assert cli.main(["trace", "--config", str(path), "--out", str(out)]) == 2


class TestSweepCommand:
    def test_noiseless_sweep(self, tmp_path):
        path = write_config(tmp_path, tiny_config(sigma=[0.0], trials=2))
        out = tmp_path / "out"
        assert cli.main(["sweep-noise", "--config", str(path), "--out", str(out)]) == 0
        rows = read_csv(out / "sweep.csv")
        assert rows[0] == ["sigma", "mean_max_rel_error", "trials"]
        assert len(rows) == 2
        assert float(rows[1][1]) <= 1e-6
        assert rows[1][2] == "2"

    def test_noise_ordering(self, tmp_path):
        path = write_config(
            tmp_path, tiny_config(sigma=[1e-4, 1e-2], trials=1, N=2000)
        )
        out = tmp_path / "out"
        assert cli.main(["sweep-noise", "--config", str(path), "--out", str(out)]) == 0
        rows = read_csv(out / "sweep.csv")
        assert [r[0] for r in rows[1:]] == ["0.0001", "0.01"]
        assert float(rows[1][1]) < float(rows[2][1])

    def test_empty_sigma_list(self, tmp_path):
        path = write_config(tmp_path, tiny_config(sigma=[]))
        out = tmp_path / "out"
        assert cli.main(["sweep-noise", "--config", str(path), "--out", str(out)]) == 2
