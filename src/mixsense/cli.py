"""Experiment harness: synthetic recovery runs and noise sweeps driven by
JSON configs, with CSV outputs.

Usage::

    mixsense run --config cfg.json --out outdir

`run` runs `trials` trials at each noise level of `sigma`, a number or a
non-empty list. It writes summary.csv, report.json, the convergence trace
of the first trial (level 0, trial 0) as trace.csv, and the mean worst
error of each finished level as sweep.csv. Exit codes: 0 success, 2
config error or an output directory that cannot be made, 3 numerical
failure (partial output, including every trial finished before the
failure, is flushed before exiting).
"""

import argparse
import csv
import json
import re
import sys
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import List, Optional, Union

import numpy as np

from . import core
from .errors import ConfigError, InvalidInputError, MixsenseError
from .pipeline import PipelineConfig, run_pipeline
from .synth import make_ground_truth, sample_dataset

# Trial t of an experiment uses master seed `seed + TRIAL_STRIDE * t`.
TRIAL_STRIDE = 1000
# The seed also moves with the noise-level index, so the levels are
# independent draws.
SIGMA_STRIDE = 7919

_N_TOKEN = re.compile(r"^(\d+)nrK$")


@dataclass
class ExperimentConfig:
    n1: int
    n2: int
    ranks: List[int]                             # one per component: K = len(ranks)
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
            return int(m.group(1)) * max(self.n1, self.n2) * max(self.ranks) * len(self.ranks)
        return self.N

    def resolved_proportions(self) -> List[float]:
        if self.proportions is None:
            return [1.0 / len(self.ranks)] * len(self.ranks)
        return list(self.proportions)

    def resolved_spectra(self) -> List[List[float]]:
        if self.spectra is None:
            return [[1.0] * r for r in self.ranks]
        return [list(s) for s in self.spectra]

    def resolved_sigmas(self) -> List[float]:
        return self.sigma if isinstance(self.sigma, list) else [self.sigma]

    def to_json_dict(self) -> dict:
        return asdict(self)


def parse_config(raw: dict) -> ExperimentConfig:
    """Check a config before any trial runs. The library checks the planted
    mixture, the seed and the pipeline section, as trial 0's ground truth
    and `PipelineConfig` are built; the rest, and the supplied ranks against
    the matrix size, is checked here. K is the number of ranks."""
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a JSON object")
    try:
        cfg = ExperimentConfig(**raw)
    except TypeError as exc:  # an unknown or a missing key
        raise ConfigError(f"config keys: {exc}") from exc
    if not isinstance(cfg.ranks, list) or not cfg.ranks:
        raise ConfigError(f"need a non-empty list of ranks, got {cfg.ranks!r}")
    if not isinstance(cfg.pipeline, dict):
        raise ConfigError("pipeline section must be an object")
    sigmas = cfg.resolved_sigmas()
    if not sigmas:
        raise ConfigError("sigma must be a number or a non-empty list")
    try:
        core.check_int(cfg.trials, "trials", 1)
        for sigma in sigmas:
            core.check_finite(sigma, "sigma")
        make_ground_truth(cfg.n1, cfg.n2, cfg.ranks, cfg.resolved_proportions(),
                          cfg.resolved_spectra(), cfg.seed)
        pipe = _pipeline_config(cfg, seed=cfg.seed)
        core.check_int(cfg.resolved_n(), "N", len(cfg.ranks))
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
    return PipelineConfig(k_components=len(cfg.ranks), seed=seed, **section)


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


def cmd_run(cfg: ExperimentConfig, out: Path) -> Optional[dict]:
    sigmas = cfg.resolved_sigmas()
    done, failed = _run_trials(cfg, sigmas)
    _write_csv(out / "summary.csv", ["seed", "component", "rel_error", "init_error", "R_used"],
               [[seed, k, comp.rel_error, comp.init_error, report.stage1.r_used]
                for _, seed, report in done for k, comp in enumerate(report.per_component)])
    # the convergence trace of trial 0 at level 0, one block per component
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
    # one row per level whose trials all finished
    worst: List[List[float]] = [[] for _ in sigmas]
    for s_idx, _, report in done:
        worst[s_idx].append(max(c.rel_error for c in report.per_component))
    _write_csv(out / "sweep.csv", ["sigma", "mean_max_rel_error", "trials"],
               [[float(sigma), float(np.mean(w)), cfg.trials]
                for sigma, w in zip(sigmas, worst) if len(w) == cfg.trials])
    return failed


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(prog="mixsense",
                                     description="mixed low-rank matrix sensing experiments")
    sub = parser.add_subparsers(dest="command", required=True)
    run = sub.add_parser("run")
    run.add_argument("--config", required=True)
    run.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    try:
        cfg = load_config(args.config)  # before any output is made
        out = Path(args.out)
        try:
            out.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            print(f"error: cannot make output directory {out}: {exc}", file=sys.stderr)
            return 2
        failed = cmd_run(cfg, out)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    return 3 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
