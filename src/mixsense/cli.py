"""Experiment harness: synthetic recovery runs, convergence traces, and
noise sweeps driven by JSON configs, with CSV outputs.

Usage::

    mixsense run         --config cfg.json --out outdir
    mixsense trace       --config cfg.json --out outdir
    mixsense sweep-noise --config cfg.json --out outdir

Exit codes: 0 success, 2 config error, 3 numerical failure (partial CSV
output, including every trial finished before the failure, is flushed
before exiting).
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

from .errors import ConfigError, InvalidInputError, MixsenseError
from .pipeline import PipelineConfig, RecoveryReport, run_pipeline
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
        return int(self.N)

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


_REQUIRED = ("n1", "n2", "K", "ranks")
_OPTIONAL = ("proportions", "spectra", "sigma", "N", "seed", "trials", "pipeline")


def parse_config(raw: dict) -> ExperimentConfig:
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a JSON object")
    unknown = set(raw) - set(_REQUIRED) - set(_OPTIONAL)
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    missing = [k for k in _REQUIRED if k not in raw]
    if missing:
        raise ConfigError(f"missing config keys: {missing}")
    try:
        cfg = ExperimentConfig(**raw)
    except TypeError as exc:
        raise ConfigError(str(exc)) from exc
    if cfg.K != len(cfg.ranks):
        raise ConfigError(f"K={cfg.K} but {len(cfg.ranks)} ranks given")
    if cfg.trials < 1:
        raise ConfigError("trials must be >= 1")
    if cfg.proportions is not None and len(cfg.proportions) != cfg.K:
        raise ConfigError("proportions length must equal K")
    if cfg.spectra is not None and len(cfg.spectra) != cfg.K:
        raise ConfigError("spectra length must equal K")
    if not isinstance(cfg.pipeline, dict):
        raise ConfigError("pipeline section must be an object")
    cfg.resolved_n()
    # fail fast on bad pipeline knobs
    _pipeline_config(cfg, seed=cfg.seed)
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
    try:
        return PipelineConfig(k_components=cfg.K, seed=seed, **section)
    except (TypeError, InvalidInputError) as exc:
        raise ConfigError(f"bad pipeline section: {exc}") from exc


def _run_trial(cfg: ExperimentConfig, sigma: float, trial: int, sigma_idx: int = 0):
    seed = cfg.seed + TRIAL_STRIDE * trial + SIGMA_STRIDE * sigma_idx
    gt = make_ground_truth(
        cfg.n1, cfg.n2, cfg.ranks, cfg.resolved_proportions(), cfg.resolved_spectra(), seed,
    )
    pipe_cfg = _pipeline_config(cfg, seed=seed)
    dataset = sample_dataset(gt, cfg.resolved_n(), sigma, seed)
    report = run_pipeline(dataset, None, pipe_cfg, truth=gt)
    return seed, report


def _write_csv(path: Path, header: List[str], rows: List[list]):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _scalar_sigma(cfg: ExperimentConfig) -> float:
    if isinstance(cfg.sigma, list):
        raise ConfigError("this command needs a scalar sigma (lists are for sweep-noise)")
    return float(cfg.sigma)


def cmd_run(cfg: ExperimentConfig, out: Path) -> int:
    sigma = _scalar_sigma(cfg)
    summary_rows: List[list] = []
    reports: List[dict] = []
    failed = None
    code = 0
    try:
        for t in range(cfg.trials):
            seed, report = _run_trial(cfg, sigma, t)
            reports.append({"seed": seed, "report": report.to_json_dict()})
            for k, comp in enumerate(report.per_component):
                summary_rows.append(
                    [seed, k, comp.rel_error, comp.init_error, report.stage1.r_used]
                )
    except (MixsenseError, np.linalg.LinAlgError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        code = 3
        trace = getattr(exc, "trace", None)  # a stage-3 abort's partial trace
        failed = {"seed": cfg.seed + TRIAL_STRIDE * t, "stage": getattr(exc, "stage", None),
                  "message": str(exc), "trace": None if trace is None else asdict(trace)}
    _write_csv(out / "summary.csv", ["seed", "component", "rel_error", "init_error", "R_used"],
               summary_rows)
    with open(out / "report.json", "w") as fh:
        json.dump({"config": cfg.to_json_dict(), "trials": reports, "failed_trial": failed},
                  fh, sort_keys=True, indent=1)
    return code


def cmd_trace(cfg: ExperimentConfig, out: Path) -> int:
    sigma = _scalar_sigma(cfg)
    rows: List[list] = []
    code = 0
    try:
        _, report = _run_trial(cfg, sigma, trial=0)
        for k, comp in enumerate(report.per_component):
            for t, tau, kept, err in comp.trace.rows():
                rows.append([t, k, err, tau, kept])
    except (MixsenseError, np.linalg.LinAlgError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        code = 3
    _write_csv(out / "trace.csv", ["iter", "component", "rel_error", "tau", "kept"], rows)
    return code


def cmd_sweep_noise(cfg: ExperimentConfig, out: Path) -> int:
    sigmas = cfg.sigma if isinstance(cfg.sigma, list) else [cfg.sigma]
    if not sigmas:
        raise ConfigError("sweep-noise needs a non-empty sigma list")
    rows: List[list] = []
    code = 0
    try:
        for s_idx, sigma in enumerate(sigmas):
            worst = []
            for t in range(cfg.trials):
                _, report = _run_trial(cfg, float(sigma), t, sigma_idx=s_idx)
                worst.append(max(c.rel_error for c in report.per_component))
            rows.append([float(sigma), float(np.mean(worst)), cfg.trials])
    except (MixsenseError, np.linalg.LinAlgError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        code = 3
    _write_csv(out / "sweep.csv", ["sigma", "mean_max_rel_error", "trials"], rows)
    return code


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(prog="mixsense",
                                     description="mixed low-rank matrix sensing experiments")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("run", "trace", "sweep-noise"):
        p = sub.add_parser(name)
        p.add_argument("--config", required=True)
        p.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    try:
        cfg = load_config(args.config)
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        if args.command == "run":
            return cmd_run(cfg, out)
        if args.command == "trace":
            return cmd_trace(cfg, out)
        return cmd_sweep_noise(cfg, out)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
