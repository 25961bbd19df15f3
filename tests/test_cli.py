import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from helpers import BAD_INTS, BAD_NUMBERS
from mixsense import cli, scaledtgd
from mixsense.errors import ConfigError, MixsenseError, NumericalError


def tiny_config(**overrides):
    cfg = {
        "n1": 10,
        "n2": 10,
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
        cfg = cli.parse_config(tiny_config(ranks=[1, 2]))
        assert cfg.resolved_proportions() == [0.5, 0.5]
        assert cfg.resolved_spectra() == [[1.0], [1.0, 1.0]]
        pipe = cli._pipeline_config(cfg, seed=0)
        assert pipe.supplied_ranks == (1, 2) and pipe.supplied_proportions == (0.5, 0.5)

    def test_validation_errors(self):
        with pytest.raises(ConfigError):
            cli.parse_config(tiny_config(K=2))  # unknown key: K is the number of ranks
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
        bad = [
            # sigma: non-numeric, negative or non-finite, scalar or list entry
            {"sigma": "abc"}, {"sigma": -1.0}, {"sigma": float("inf")}, {"sigma": float("nan")},
            {"sigma": [0.1, "x"]}, {"sigma": [0.0, -1.0]}, {"sigma": [float("inf")]},
            {"trials": "2"}, {"trials": 1.5},
            {"N": -5}, {"N": 0},
            # a planted mixture that cannot be built
            {"n1": 4, "n2": 4, "ranks": [5]}, {"proportions": [0.7]},
            {"spectra": [[-1.0]]}, {"spectra": [[1.0, 0.5]]},
            {"ranks": 5}, {"ranks": []}, {"n1": "10"},
            # JSON booleans where numbers belong, and a fractional sample count
            {"trials": True}, {"sigma": True}, {"sigma": [0.0, True]}, {"seed": True},
            {"N": True}, {"N": 800.7},
            # booleans that only the library sees: ranks, spectra and the pipeline section
            {"ranks": [True, True]}, {"ranks": [1, 1], "spectra": [[True], [1.0]]},
            {"pipeline": {"t0": True}}, {"pipeline": {"supplied_r_joint": True}},
            {"ranks": [1, 1], "pipeline": {"supplied_ranks": [True, True]}},
            {"pipeline": {"early_stop_tol": True}},
            *({name: v} for name in ("seed", "trials", "N") for v in BAD_INTS),
            *({"sigma": v} for v in BAD_NUMBERS), *({"sigma": [0.0, v]} for v in BAD_NUMBERS),
        ]
        for overrides in bad:
            with pytest.raises(ConfigError):
                cli.parse_config(tiny_config(**overrides))

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
        assert report["config"]["ranks"] == [1]

    def test_malformed_config_exits_2_without_outputs(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        out = tmp_path / "out"
        assert cli.main(["run", "--config", str(path), "--out", str(out)]) == 2
        assert not out.exists()

    def test_out_path_of_a_file_exits_2_before_any_trial(self, tmp_path, monkeypatch, capsys):
        calls = []
        monkeypatch.setattr(cli, "run_pipeline", lambda *args, **kwargs: calls.append(args))
        path = write_config(tmp_path, tiny_config())
        out = tmp_path / "out"
        out.write_text("a file")
        assert cli.main(["run", "--config", str(path), "--out", str(out)]) == 2
        assert calls == [] and out.read_text() == "a file"
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")

    def test_rank_above_joint_rank_exits_2_before_any_trial(self, tmp_path, monkeypatch, capsys):
        calls = []
        monkeypatch.setattr(cli, "_run_trial", lambda *args, **kwargs: calls.append(args))
        bad = tiny_config(ranks=[3, 1], pipeline={"t0": 10, "supplied_r_joint": 2})
        path = write_config(tmp_path, bad)
        out = tmp_path / "out"
        assert cli.main(["run", "--config", str(path), "--out", str(out)]) == 2
        assert calls == [] and not out.exists()
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("config error: ") and "entry 3" in err[0]

    def test_byte_identical_reruns(self, tmp_path):
        path = write_config(tmp_path, tiny_config())
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert cli.main(["run", "--config", str(path), "--out", str(out1)]) == 0
        assert cli.main(["run", "--config", str(path), "--out", str(out2)]) == 0
        assert (out1 / "summary.csv").read_bytes() == (out2 / "summary.csv").read_bytes()
        assert (out1 / "report.json").read_bytes() == (out2 / "report.json").read_bytes()
        assert (out1 / "trace.csv").read_bytes() == (out2 / "trace.csv").read_bytes()

    @pytest.mark.parametrize("pipeline", [{"supplied_r_joint": 9}, {"supplied_ranks": [7]}])
    def test_rank_above_the_matrix_size_exits_2_before_any_trial(
        self, tmp_path, monkeypatch, capsys, pipeline
    ):
        calls = []
        monkeypatch.setattr(cli, "_run_trial", lambda *args, **kwargs: calls.append(args))
        path = write_config(tmp_path, tiny_config(n1=6, n2=6, pipeline={"t0": 10, **pipeline}))
        out = tmp_path / "out"
        assert cli.main(["run", "--config", str(path), "--out", str(out)]) == 2
        assert calls == [] and not out.exists()
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("config error: ") and "min(n1, n2) = 6" in err[0]

    def test_numerical_failure_exits_3_with_partial_output(self, tmp_path, monkeypatch):
        def singular(f):
            raise NumericalError("forced")

        monkeypatch.setattr(scaledtgd, "_gram_solve_factor", singular)  # a stage-3 abort
        path = write_config(tmp_path, tiny_config())
        out = tmp_path / "out"
        assert cli.main(["run", "--config", str(path), "--out", str(out)]) == 3
        # header flushed before failure
        assert read_csv(out / "summary.csv") == [
            ["seed", "component", "rel_error", "init_error", "R_used"]
        ]

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
                    raise NumericalError("forced")
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
        trace = failed["trace"]  # in the form of a finished component's entry
        assert trace["stop_reason"] == "singular_preconditioner"
        assert [row["iter"] for row in trace["trace"]] == [0, 1, 2]
        assert all(row["rel_error"] is not None for row in trace["trace"])
        finished = report["trials"][0]["report"]["per_component"][0]
        assert set(trace) == set(finished) - {"rel_error", "init_error"}
        assert len(read_csv(out / "summary.csv")) == 1 + 2

    def test_negative_tolerance_exits_2(self, tmp_path):
        path = write_config(tmp_path, tiny_config(pipeline={"t0": 10, "early_stop_tol": -1.0}))
        out = tmp_path / "out"
        assert cli.main(["run", "--config", str(path), "--out", str(out)]) == 2

    def test_runs_as_a_process(self, tmp_path):
        # the path the console script and the README take: a fresh interpreter
        path = write_config(tmp_path, tiny_config(trials=1))
        out = tmp_path / "out"
        src = Path(__file__).resolve().parents[1] / "src"
        proc = subprocess.run(
            [sys.executable, "-m", "mixsense.cli", "run", "--config", str(path), "--out", str(out)],
            env={**os.environ, "PYTHONPATH": str(src)},
            capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert sorted(p.name for p in out.iterdir()) == [
            "report.json", "summary.csv", "sweep.csv", "trace.csv"
        ]


class TestTraceOutput:
    def test_trace_rows(self, tmp_path):
        path = write_config(tmp_path, tiny_config(trials=1))
        out = tmp_path / "out"
        assert cli.main(["run", "--config", str(path), "--out", str(out)]) == 0
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
        assert cli.main(["run", "--config", str(path), "--out", str(out)]) == 2

    def test_trace_is_trial_0_of_the_report(self, tmp_path, monkeypatch):
        calls = []
        real_run_pipeline = cli.run_pipeline

        def run_pipeline(*args, **kwargs):
            calls.append(args)
            return real_run_pipeline(*args, **kwargs)

        monkeypatch.setattr(cli, "run_pipeline", run_pipeline)
        path = write_config(tmp_path, tiny_config(ranks=[1, 1], sigma=1e-5, N=1800))
        out = tmp_path / "out"
        assert cli.main(["run", "--config", str(path), "--out", str(out)]) == 0
        assert len(calls) == 2  # one solve per trial
        report = json.loads((out / "report.json").read_text())
        components = report["trials"][0]["report"]["per_component"]
        # a null level or kept count (the final iterate's) is an empty cell
        expected = [
            [str(r["iter"]), str(k)] + ["" if r[key] is None else str(r[key])
                                        for key in ("rel_error", "tau", "kept")]
            for k, comp in enumerate(components) for r in comp["trace"]
        ]
        assert [comp["trace"][-1]["tau"] for comp in components] == [None, None]
        assert [comp["trace"][-1]["kept"] for comp in components] == [None, None]
        rows = read_csv(out / "trace.csv")
        assert rows[0] == ["iter", "component", "rel_error", "tau", "kept"]
        assert rows[1:] == expected
        assert {r[1] for r in rows[1:]} == {"0", "1"}


class TestSweepCommand:
    def test_noiseless_sweep(self, tmp_path):
        path = write_config(tmp_path, tiny_config(sigma=[0.0], trials=2))
        out = tmp_path / "out"
        assert cli.main(["run", "--config", str(path), "--out", str(out)]) == 0
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
        assert cli.main(["run", "--config", str(path), "--out", str(out)]) == 0
        rows = read_csv(out / "sweep.csv")
        assert [r[0] for r in rows[1:]] == ["0.0001", "0.01"]
        assert float(rows[1][1]) < float(rows[2][1])

    def test_failure_keeps_finished_levels(self, tmp_path, monkeypatch):
        real_run_trial = cli._run_trial

        def fail_at_level_1(cfg, sigma, trial, sigma_idx=0):
            if (sigma_idx, trial) == (1, 1):
                raise MixsenseError("injected failure")
            return real_run_trial(cfg, sigma, trial, sigma_idx=sigma_idx)

        monkeypatch.setattr(cli, "_run_trial", fail_at_level_1)
        path = write_config(tmp_path, tiny_config(sigma=[0.0, 1e-3], trials=2))
        out = tmp_path / "out"
        assert cli.main(["run", "--config", str(path), "--out", str(out)]) == 3
        rows = read_csv(out / "sweep.csv")
        # level 1 finished only one of its trials, so it has no row
        assert len(rows) == 1 + 1 and rows[1][0] == "0.0" and rows[1][2] == "2"
        assert float(rows[1][1]) <= 1e-6

    def test_list_fills_every_output(self, tmp_path):
        path = write_config(tmp_path, tiny_config(ranks=[1, 1], sigma=[0.0, 1e-3], N=1800))
        out = tmp_path / "out"
        assert cli.main(["run", "--config", str(path), "--out", str(out)]) == 0
        # one summary row per (level, trial, component); level s, trial t has
        # seed 1000 t + 7919 s
        seeds = [row[0] for row in read_csv(out / "summary.csv")[1:]]
        assert seeds == ["0", "0", "1000", "1000", "7919", "7919", "8919", "8919"]
        report = json.loads((out / "report.json").read_text())
        assert [t["seed"] for t in report["trials"]] == [0, 1000, 7919, 8919]
        first = report["trials"][0]["report"]["per_component"]
        assert read_csv(out / "trace.csv")[1:] == [
            [str(r["iter"]), str(k)] + ["" if r[key] is None else str(r[key])
                                        for key in ("rel_error", "tau", "kept")]
            for k, comp in enumerate(first) for r in comp["trace"]
        ]
        worst = [max(c["rel_error"] for c in t["report"]["per_component"])
                 for t in report["trials"]]
        assert read_csv(out / "sweep.csv") == [
            ["sigma", "mean_max_rel_error", "trials"],
            ["0.0", str(float(np.mean(worst[:2]))), "2"],
            ["0.001", str(float(np.mean(worst[2:]))), "2"],
        ]

    def test_empty_sigma_list(self, tmp_path):
        path = write_config(tmp_path, tiny_config(sigma=[]))
        out = tmp_path / "out"
        assert cli.main(["run", "--config", str(path), "--out", str(out)]) == 2
        assert not out.exists()  # checked before the output directory is made
