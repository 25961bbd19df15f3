"""Full three-stage recovery: subspace estimation, mixed-regression
initialization, then truncated-gradient refinement of all components."""

import contextlib
import json
from dataclasses import dataclass
from typing import List, NamedTuple, Optional, Sequence, Tuple

import numpy as np
import scipy.optimize

from . import core, spectral
from .errors import InvalidInputError, MixsenseError, PipelineStageError
from .initialization import initialize_all
from .scaledtgd import TgdConfig, TgdTrace, refine_components
from .synth import Dataset, GroundTruth


# Stage-3 step policy: component k gets step size ``ETA_SCALE / p_k`` and
# truncating fraction ``ALPHA_SCALE * p_k``, where p_k is its proportion.
ETA_SCALE = 1.3
ALPHA_SCALE = 0.8


@dataclass(frozen=True)
class PipelineConfig:
    """Knobs for one end-to-end run."""

    k_components: int
    supplied_r_joint: Optional[int] = None
    supplied_ranks: Optional[Tuple[int, ...]] = None
    supplied_proportions: Optional[Tuple[float, ...]] = None
    t0: int = 200
    early_stop_tol: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if not isinstance(self.k_components, (int, np.integer)) or self.k_components < 1:
            raise InvalidInputError(
                f"k_components must be an integer >= 1, got {self.k_components!r}"
            )
        if not isinstance(self.t0, (int, np.integer)) or self.t0 < 1:
            raise InvalidInputError(f"t0 must be an integer >= 1, got {self.t0!r}")
        if not isinstance(self.seed, (int, np.integer)) or self.seed < 0:
            raise InvalidInputError(f"seed must be an integer >= 0, got {self.seed!r}")
        if not self.early_stop_tol >= 0:
            raise InvalidInputError(f"early_stop_tol must be >= 0, got {self.early_stop_tol!r}")
        r_joint = self.supplied_r_joint
        if r_joint is not None and (not isinstance(r_joint, (int, np.integer)) or r_joint < 1):
            raise InvalidInputError(f"supplied_r_joint must be an integer >= 1, got {r_joint!r}")
        for name in ("supplied_ranks", "supplied_proportions"):
            val = getattr(self, name)
            if val is not None:
                object.__setattr__(self, name, tuple(val))
                if len(getattr(self, name)) != self.k_components:
                    raise InvalidInputError(f"{name} must have length {self.k_components}")
        if self.supplied_ranks is not None and not all(
            isinstance(r, (int, np.integer)) and r >= 1 for r in self.supplied_ranks
        ):
            raise InvalidInputError(f"supplied_ranks must be integers >= 1: {self.supplied_ranks}")
        if self.supplied_proportions is not None and not all(
            0.0 < p < np.inf for p in self.supplied_proportions
        ):
            raise InvalidInputError(
                f"supplied_proportions must be positive and finite, got {self.supplied_proportions}"
            )


def default_params(proportions: Sequence[float], cfg: PipelineConfig) -> List[TgdConfig]:
    """Per-component stage-3 configs from proportions.

    The truncating fraction is capped at 1 in case an estimated proportion
    overshoots.
    """
    return [
        TgdConfig(eta=ETA_SCALE / p, alpha=min(ALPHA_SCALE * p, 1.0),
                  t0=cfg.t0, early_stop_tol=cfg.early_stop_tol)
        for p in proportions
    ]


class AlignmentResult(NamedTuple):
    perm: Tuple[int, ...]   # perm[k] = estimate index assigned to truth k
    total_cost: float


def align_components(estimates: Sequence[np.ndarray], truths: Sequence[np.ndarray]) -> AlignmentResult:
    """Assignment of estimates to truths minimizing the summed relative
    error, by linear assignment."""
    if len(estimates) != len(truths) or not estimates:
        raise InvalidInputError("need equally many estimates and truths")
    K = len(truths)
    cost = np.empty((K, K))
    for k, truth in enumerate(truths):
        for j, est in enumerate(estimates):
            cost[k, j] = core.rel_fro_error(est, truth)
    rows, cols = scipy.optimize.linear_sum_assignment(cost)
    # a square cost matrix yields rows == 0..K-1, so cols is the permutation
    return AlignmentResult(
        perm=tuple(int(c) for c in cols), total_cost=float(cost[rows, cols].sum())
    )


@dataclass
class Stage1Report:
    r_used: int
    dist_u: Optional[float] = None
    dist_v: Optional[float] = None


@dataclass
class Stage2Report:
    whitening_ratio: float          # s_K / s_1 of the whitened second moment
    weight_flagged: List[bool]      # weights above the flag bound


@dataclass
class ComponentReport:
    """Diagnostics for one component in extraction order."""

    rel_error: Optional[float]
    init_error: Optional[float]
    trace: TgdTrace


@dataclass
class RecoveryReport:
    estimates: List[np.ndarray]
    permutation: Tuple[int, ...]
    per_component: List[ComponentReport]
    stage1: Stage1Report
    stage2: Stage2Report
    weights: np.ndarray

    def to_json_dict(self) -> dict:
        return {
            "estimates": [m.tolist() for m in self.estimates],
            "permutation": list(self.permutation),
            "per_component": [
                {
                    "rel_error": c.rel_error,
                    "init_error": c.init_error,
                    "stop_reason": c.trace.stop_reason,
                    "trace": [
                        {"iter": t, "tau": tau, "kept": kept, "rel_error": err}
                        for t, tau, kept, err in c.trace.rows()
                    ],
                }
                for c in self.per_component
            ],
            "stage1": {
                "r_used": self.stage1.r_used,
                "dist_u": self.stage1.dist_u,
                "dist_v": self.stage1.dist_v,
            },
            "stage2": {
                "whitening_ratio": self.stage2.whitening_ratio,
                "weight_flagged": self.stage2.weight_flagged,
            },
            "weights": self.weights.tolist(),
        }

    def to_json(self, **kwargs) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True, **kwargs)


def joint_basis(bases: Sequence[np.ndarray]) -> np.ndarray:
    """Orthonormal basis of the union of the given column spaces."""
    stacked = np.hstack(list(bases))
    res = core.svd(stacked)
    rank = int(np.sum(res.s > 1e-10 * res.s[0]))
    return res.u[:, :rank]


@contextlib.contextmanager
def _stage(tag: str):
    """Tag a package error raised inside the block with its stage."""
    try:
        yield
    except MixsenseError as exc:
        raise PipelineStageError(tag, str(exc)) from exc


def run_pipeline(
    d_main: Dataset,
    d_mlr: Optional[Dataset],
    cfg: PipelineConfig,
    truth: Optional[GroundTruth] = None,
) -> RecoveryReport:
    """Run all three stages and assemble an evaluation report.

    Stage 1 (:func:`spectral.subspace_estimate`) estimates the joint rank
    unless `cfg.supplied_r_joint` is set. Stage 2 (:func:`initialize_all`)
    runs on `d_mlr` when it is given and on `d_main` otherwise, and
    estimates each component's rank unless `cfg.supplied_ranks` is set.
    Stage 3 refines all components together on `d_main`, with the
    step policy of :func:`default_params` applied to
    `cfg.supplied_proportions`, or to the stage-2 mixture weights when none
    are supplied. `truth` is read only for evaluation: trace targets,
    initialization errors, the component alignment and the subspace
    distances; it never feeds back into the solver.
    """
    K = cfg.k_components
    with _stage("stage1"):
        sub = spectral.subspace_estimate(spectral.data_matrix(d_main), cfg.supplied_r_joint)

    with _stage("stage2"):
        init = initialize_all(
            d_main if d_mlr is None else d_mlr, sub, cfg.supplied_ranks, cfg.seed,
            k_components=K,
        )

    truth_mats = truth.matrices() if truth is not None else None
    init_products = [f.product() for f in init.factors]
    trace_targets: List[Optional[np.ndarray]] = [None] * K
    init_errors: List[Optional[float]] = [None] * K
    if truth_mats is not None:
        for k in range(K):
            errs = [core.rel_fro_error(init_products[k], m) for m in truth_mats]
            j = int(np.argmin(errs))
            trace_targets[k] = truth_mats[j]
            init_errors[k] = errs[j]

    proportions = (
        init.mlr.weights if cfg.supplied_proportions is None else cfg.supplied_proportions
    )
    with _stage("stage3"):
        runs = refine_components(
            d_main, init.factors, default_params(proportions, cfg), trace_targets
        )

    estimates = [run.final.product() for run in runs]
    if truth_mats is not None:
        alignment = align_components(estimates, truth_mats)
        inverse = {alignment.perm[k]: k for k in range(K)}
        rel_errors = [
            core.rel_fro_error(estimates[j], truth_mats[inverse[j]]) for j in range(K)
        ]
        dist_u = core.subspace_distance(
            sub.u, joint_basis([c.u_star for c in truth.components])
        )
        dist_v = core.subspace_distance(
            sub.v, joint_basis([c.v_star for c in truth.components])
        )
    else:
        alignment = AlignmentResult(perm=tuple(range(K)), total_cost=0.0)
        rel_errors = [None] * K
        dist_u = dist_v = None

    return RecoveryReport(
        estimates=estimates,
        permutation=alignment.perm,
        per_component=[
            ComponentReport(rel_error=rel_errors[k], init_error=init_errors[k], trace=runs[k].trace)
            for k in range(K)
        ],
        stage1=Stage1Report(r_used=sub.r_joint, dist_u=dist_u, dist_v=dist_v),
        stage2=Stage2Report(init.mlr.whitening_ratio, init.mlr.weight_flagged.tolist()),
        weights=init.mlr.weights.copy(),
    )
