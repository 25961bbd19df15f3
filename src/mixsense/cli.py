"""Experiment harness: synthetic recovery runs and noise sweeps driven by
JSON configs, with CSV outputs.

Usage::

    mixsense run         --config cfg.json --out outdir
    mixsense sweep-noise --config cfg.json --out outdir

`run` writes summary.csv, report.json and the convergence trace of its
first trial, trace.csv. Exit codes: 0 success, 2 config error or an output
directory that cannot be made, 3 numerical failure (partial output,
including every trial finished before the failure, is flushed before
exiting).
"""

import argparse
import csv
import json
import re
import sys
from dataclasses import MISSING, asdict, dataclass, field, fields
from pathlib import Path
from typing import List, Optional, Union

import numpy as np

from . import core
from .errors import ConfigError, InvalidInputError, MixsenseError
from .pipeline import PipelineConfig, run_pipeline
from .synth import make_ground_truth, sample_dataset

# Trial t of an experiment uses master seed `seed + TRIAL_STRIDE * t`.
TRIAL_STRIDE = 1000
# In noise sweeps, the dataset seed also moves with the noise-level index so
# the points are independent draws.
SIGMA_STRIDE = 7919

_N_TOKEN = re.compile(r"^(\d+)nrK$")


@dataclass
class ExperimentConfig:
    n1: int
    n2: int
    K: int
    ranks: List[int]
    proportions: Optional[List[float]] = None   # default: equal
    spectra: Optional[List[List[float]]] = None  # default: all-ones per rank
    sigma: Union[float, List[float]] = 0.0
    N: Union[int, str] = "90nrK"
    seed: int = 0
    trials: int = 1
    pipeline: dict = field(default_factory=dict)

    def resolved_n(self) -> int:
        if isinstance(self.N, str):
            m = _N_TOKEN.match(self.N)
            if not m:
                raise ConfigError(f"unrecognized sample-size token {self.N!r}")
            return int(m.group(1)) * max(self.n1, self.n2) * max(self.ranks) * self.K
        return self.N

    def resolved_proportions(self) -> List[float]:
        if self.proportions is None:
            return [1.0 / self.K] * self.K
        return list(self.proportions)

    def resolved_spectra(self) -> List[List[float]]:
        if self.spectra is None:
            return [[1.0] * r for r in self.ranks]
        return [list(s) for s in self.spectra]

    def to_json_dict(self) -> dict:
        return asdict(self)


def parse_config(raw: dict) -> ExperimentConfig:
    """Check a config before any trial runs. The library checks the planted
    mixture, K, the seed and the pipeline section, as trial 0's ground truth
    and `PipelineConfig` are built; the rest, and the supplied ranks against
    the matrix size, is checked here."""
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a JSON object")
    keys = fields(ExperimentConfig)
    unknown = set(raw) - {f.name for f in keys}
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    required = [f.name for f in keys if f.default is MISSING and f.default_factory is MISSING]
    missing = [k for k in required if k not in raw]
    if missing:
        raise ConfigError(f"missing config keys: {missing}")
    cfg = ExperimentConfig(**raw)
    if not isinstance(cfg.ranks, list) or not cfg.ranks or len(cfg.ranks) != cfg.K:
        raise ConfigError(f"need one rank per component, got K={cfg.K!r}, ranks={cfg.ranks!r}")
    if not isinstance(cfg.pipeline, dict):
        raise ConfigError("pipeline section must be an object")
    try:
        core.check_int(cfg.trials, "trials", 1)
        for sigma in cfg.sigma if isinstance(cfg.sigma, list) else [cfg.sigma]:
            core.check_finite(sigma, "sigma")
        make_ground_truth(cfg.n1, cfg.n2, cfg.ranks, cfg.resolved_proportions(),
                          cfg.resolved_spectra(), cfg.seed)
        pipe = _pipeline_config(cfg, seed=cfg.seed)
        core.check_int(cfg.resolved_n(), "N", cfg.K)
    except (TypeError, InvalidInputError) as exc:
        # a TypeError is an unknown pipeline key or a value of the wrong shape
        raise ConfigError(str(exc)) from exc
    for r in (pipe.supplied_r_joint, *(pipe.supplied_ranks or ())):
        if r is not None and r > min(cfg.n1, cfg.n2):
            raise ConfigError(f"supplied rank {r} exceeds min(n1, n2) = {min(cfg.n1, cfg.n2)}")
    return cfg


def load_config(path) -> ExperimentConfig:
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    return parse_config(raw)


def _pipeline_config(cfg: ExperimentConfig, seed: int) -> PipelineConfig:
    section = dict(cfg.pipeline)
    section.setdefault("supplied_ranks", cfg.ranks)
    section.setdefault("supplied_proportions", cfg.resolved_proportions())
    return PipelineConfig(k_components=cfg.K, seed=seed, **section)


def _trial_seed(cfg: ExperimentConfig, trial: int, sigma_idx: int) -> int:
    return cfg.seed + TRIAL_STRIDE * trial + SIGMA_STRIDE * sigma_idx


def _run_trial(cfg: ExperimentConfig, sigma: float, trial: int, sigma_idx: int = 0):
    seed = _trial_seed(cfg, trial, sigma_idx)
    gt = make_ground_truth(
        cfg.n1, cfg.n2, cfg.ranks, cfg.resolved_proportions(), cfg.resolved_spectra(), seed,
    )
    pipe_cfg = _pipeline_config(cfg, seed=seed)
    dataset = sample_dataset(gt, cfg.resolved_n(), sigma, seed)
    report = run_pipeline(dataset, None, pipe_cfg, truth=gt)
    return seed, report


def _run_trials(cfg: ExperimentConfig, sigmas: List[float]):
    """Run `cfg.trials` trials at each noise level in turn. Returns the
    finished trials as (sigma_idx, seed, report) and the failed trial's
    record, None when every trial finished; a numerical failure ends the
    experiment."""
    done = []
    for s_idx, sigma in enumerate(sigmas):
        for t in range(cfg.trials):
            try:
                done.append((s_idx, *_run_trial(cfg, float(sigma), t, sigma_idx=s_idx)))
            except (MixsenseError, np.linalg.LinAlgError) as exc:
                print(f"numerical failure: {exc}", file=sys.stderr)
                trace = getattr(exc, "trace", None)  # a stage-3 abort's partial trace
                return done, {"seed": _trial_seed(cfg, t, s_idx),
                              "stage": getattr(exc, "stage", None), "message": str(exc),
                              "trace": None if trace is None else trace.to_json_dict()}
    return done, None


def _write_csv(path: Path, header: List[str], rows: List[list]):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _sigmas(command: str, cfg: ExperimentConfig) -> List[float]:
    """The noise levels `command` runs at: one scalar for run, a non-empty
    list (or a scalar) for sweep-noise."""
    if command == "run" and isinstance(cfg.sigma, list):
        raise ConfigError("run needs a scalar sigma (lists are for sweep-noise)")
    sigmas = cfg.sigma if isinstance(cfg.sigma, list) else [cfg.sigma]
    if not sigmas:
        raise ConfigError("sweep-noise needs a non-empty sigma list")
    return sigmas


def cmd_run(cfg: ExperimentConfig, sigmas: List[float], out: Path) -> Optional[dict]:
    done, failed = _run_trials(cfg, sigmas)
    _write_csv(out / "summary.csv", ["seed", "component", "rel_error", "init_error", "R_used"],
               [[seed, k, comp.rel_error, comp.init_error, report.stage1.r_used]
                for _, seed, report in done for k, comp in enumerate(report.per_component)])
    # the convergence trace of trial 0, one block per component
    first = done[0][2].per_component if done else []
    _write_csv(out / "trace.csv", ["iter", "component", "rel_error", "tau", "kept"],
               [[t, k, err, tau, kept]
                for k, comp in enumerate(first) for t, tau, kept, err in comp.trace.rows()])
    with open(out / "report.json", "w") as fh:
        json.dump({"config": cfg.to_json_dict(),
                   "trials": [{"seed": seed, "report": report.to_json_dict()}
                              for _, seed, report in done],
                   "failed_trial": failed},
                  fh, sort_keys=True, indent=1)
    return failed


def cmd_sweep_noise(cfg: ExperimentConfig, sigmas: List[float], out: Path) -> Optional[dict]:
    done, failed = _run_trials(cfg, sigmas)
    worst: List[List[float]] = [[] for _ in sigmas]
    for s_idx, _, report in done:
        worst[s_idx].append(max(c.rel_error for c in report.per_component))
    _write_csv(out / "sweep.csv", ["sigma", "mean_max_rel_error", "trials"],
               [[float(sigma), float(np.mean(w)), cfg.trials]
                for sigma, w in zip(sigmas, worst) if len(w) == cfg.trials])
    return failed


COMMANDS = {"run": cmd_run, "sweep-noise": cmd_sweep_noise}


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(prog="mixsense",
                                     description="mixed low-rank matrix sensing experiments")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True)
        p.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    try:
        cfg = load_config(args.config)
        sigmas = _sigmas(args.command, cfg)  # before any output is made
        out = Path(args.out)
        try:
            out.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            print(f"error: cannot make output directory {out}: {exc}", file=sys.stderr)
            return 2
        failed = COMMANDS[args.command](cfg, sigmas, out)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    return 3 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
