"""Benchmark workloads: problem sizes, solver settings, and the check every
trial's result must pass.

Importing this module puts the checkout's ``src`` directory first on
``sys.path``, so the benchmark always measures the code next to it and never
an installed copy.
"""

import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, List, Optional, Sequence

SRC = Path(__file__).resolve().parent.parent / "src"
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

import mixsense  # noqa: E402

if Path(mixsense.__file__).resolve().parent != SRC / "mixsense":
    raise ImportError(f"mixsense imported from {mixsense.__file__}, not from {SRC}")

# Trial t of a run uses master seed `seed + TRIAL_STRIDE * t`, as `mixsense run` does.
TRIAL_STRIDE = 1000
# Every workload recovers K square n x n components in equal proportions.
N_DIM = 40
K = 3
# Exact recovery threshold of the reference trial (the acceptance suite's).
EXACT_TOL = 1e-9
# Dataset memory may exceed its stored-row budget by this much (labels,
# measurements and array headers).
DATASET_ALLOWANCE_MB = 16.0


@dataclass(frozen=True)
class Workload:
    name: str
    rank: int
    N: int
    t0: int
    early_stop_tol: float
    stored_share: float   # stored_budget as a share of N * n1 * n2
    check: Callable       # (workload, truth, config, seed, dataset, report, inits) -> error or None
    r_joint: Optional[int] = None  # supplied joint rank; None lets stage 1 estimate it

    @property
    def stored_budget(self) -> int:
        return int(self.stored_share * self.N * N_DIM * N_DIM)


def setup(wl: Workload, seed: int):
    """Ground truth and solver config of one trial; no dataset yet."""
    ranks = [wl.rank] * K
    gt = mixsense.make_ground_truth(
        N_DIM, N_DIM, ranks, [1.0 / K] * K, [[1.0] * wl.rank] * K, seed,
    )
    cfg = mixsense.PipelineConfig(
        k_components=K,
        supplied_r_joint=wl.r_joint,
        supplied_ranks=tuple(ranks),
        supplied_proportions=(1.0 / K,) * K,
        t0=wl.t0,
        early_stop_tol=wl.early_stop_tol,
        seed=seed,
    )
    return gt, cfg


def sample(wl: Workload, gt, seed: int, stored_budget: Optional[int] = None):
    budget = wl.stored_budget if stored_budget is None else stored_budget
    return mixsense.sample_dataset(gt, wl.N, 0.0, seed, stored_budget=budget)


def solve(dataset, cfg):
    return mixsense.run_pipeline(dataset, None, cfg, truth=None)


def dataset_mb(dataset) -> float:
    """Memory held by the dataset's arrays, whatever fields it keeps them in."""
    held = sum(v.nbytes for v in vars(dataset).values() if isinstance(v, np.ndarray))
    return held / 2**20


def error_matrix(estimates: Sequence[np.ndarray], truths: Sequence[np.ndarray]) -> np.ndarray:
    """errs[j, k] = relative Frobenius error of estimate j against truth k."""
    return np.array([[mixsense.rel_fro_error(e, t) for t in truths] for e in estimates])


def max_matched_error(estimates, truths) -> float:
    """Worst error over the truths, each matched to its closest estimate."""
    return float(error_matrix(estimates, truths).min(axis=0).max())


def same_bits(a: Sequence[np.ndarray], b: Sequence[np.ndarray]) -> bool:
    return len(a) == len(b) and all(
        x.dtype == y.dtype and x.shape == y.shape and x.tobytes() == y.tobytes()
        for x, y in zip(a, b)
    )


def not_improved(inits, finals, truths) -> List[int]:
    """Components whose final estimate is not below the error of their
    initialization, both against the truth closest to the initialization."""
    init_errs = error_matrix(inits, truths)
    final_errs = error_matrix(finals, truths)
    target = init_errs.argmin(axis=1)
    return [
        j for j, k in enumerate(target) if not final_errs[j, k] < init_errs[j, k]
    ]


def check_exact(wl, gt, cfg, seed, dataset, report, inits) -> Optional[str]:
    err = max_matched_error(report.estimates, gt.matrices())
    if not err <= EXACT_TOL:
        return f"max relative error {err:.3e} above {EXACT_TOL:g}"
    return None


def check_matches_stored(wl, gt, cfg, seed, dataset, report, inits) -> Optional[str]:
    stored = sample(wl, gt, seed, stored_budget=wl.N * N_DIM * N_DIM)
    reference = solve(stored, cfg)
    if not same_bits(report.estimates, reference.estimates):
        return "estimates differ from a stored-mode solve of the same dataset"
    return None


def check_improves_init(wl, gt, cfg, seed, dataset, report, inits) -> Optional[str]:
    if len(inits) != K:
        return f"observed {len(inits)} stage-2 initializations, expected {K}"
    worse = not_improved(inits, report.estimates, gt.matrices())
    if worse:
        return f"components {worse} did not improve on their stage-2 initialization"
    return None


def check_dataset_budget(wl: Workload, dataset) -> Optional[str]:
    limit = wl.stored_budget * 8 / 2**20 + DATASET_ALLOWANCE_MB
    held = dataset_mb(dataset)
    if held > limit:
        return f"dataset holds {held:.1f} MB, budget allows {limit:.1f} MB"
    return None


# Why each workload exists; the README has the layer -> metric map.
WORKLOADS = {
    wl.name: wl
    for wl in (
        # The reference trial: stage 3 over stored designs dominates.
        Workload("stored_desk", rank=2, N=21600, t0=150, early_stop_tol=1e-13,
                 stored_share=1.0, check=check_exact),
        # Same problem with a budget of ~40% of the designs, as at paper
        # scale; every design pass regenerates rows.
        Workload("streamed_budget", rank=2, N=21600, t0=2, early_stop_tol=0.0,
                 stored_share=0.4, check=check_matches_stored),
        # Rank 3: sampling and the stage-2 moments dominate. Two TGD
        # iterations keep stage 3 near 12% of a trial, so that stage-3
        # changes move this workload little. The joint rank is supplied: the
        # rank rule picks 8 or 9 by seed, and the stage-2 moment size (and
        # memory) goes with its square.
        Workload("wide_init", rank=3, N=32400, t0=2, early_stop_tol=1e-13,
                 stored_share=1.0, check=check_improves_init, r_joint=9),
    )
}
