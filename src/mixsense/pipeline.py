"""Full three-stage recovery: subspace estimation, mixed-regression
initialization, then one truncated-gradient refinement per component."""

import contextlib
import json
import warnings
from dataclasses import dataclass
from typing import List, NamedTuple, Optional, Sequence, Tuple

import numpy as np
import scipy.optimize

from . import core, spectral
from .errors import InvalidInputError, MixsenseError, PipelineStageError
from .initialization import initialize_all
from .scaledtgd import TgdConfig, TgdTrace, run_scaledtgd
from .synth import Dataset, GroundTruth


@dataclass(frozen=True)
class PipelineConfig:
    """Knobs for one end-to-end run.

    Step sizes and truncating fractions are derived from per-component
    proportions as ``eta_k = eta_scale / p_k`` and ``alpha_k = alpha_scale *
    p_k``. In theory mode the truncating scale is restricted to [0.6, 0.8],
    and stage 2 must run on an independent sample set.
    """

    k_components: int
    supplied_r_joint: Optional[int] = None
    supplied_ranks: Optional[Tuple[int, ...]] = None
    supplied_proportions: Optional[Tuple[float, ...]] = None
    eta_scale: float = 1.3
    alpha_scale: float = 0.8
    t0: int = 200
    early_stop_tol: float = 0.0
    reuse_samples: bool = True
    theory_mode: bool = False
    seed: int = 0

    def __post_init__(self):
        if not isinstance(self.k_components, (int, np.integer)) or self.k_components < 1:
            raise InvalidInputError(
                f"k_components must be an integer >= 1, got {self.k_components!r}"
            )
        if not 0.0 < self.eta_scale <= 1.3:
            raise InvalidInputError(f"eta_scale must lie in (0, 1.3], got {self.eta_scale}")
        if self.theory_mode:
            if not 0.6 <= self.alpha_scale <= 0.8:
                raise InvalidInputError(
                    f"theory mode requires alpha_scale in [0.6, 0.8], got {self.alpha_scale}"
                )
        elif not 0.0 < self.alpha_scale <= 1.0:
            raise InvalidInputError(f"alpha_scale must lie in (0, 1], got {self.alpha_scale}")
        if not isinstance(self.t0, (int, np.integer)) or self.t0 < 1:
            raise InvalidInputError(f"t0 must be an integer >= 1, got {self.t0!r}")
        for name in ("supplied_ranks", "supplied_proportions"):
            val = getattr(self, name)
            if val is not None:
                object.__setattr__(self, name, tuple(val))
                if len(getattr(self, name)) != self.k_components:
                    raise InvalidInputError(f"{name} must have length {self.k_components}")
        if self.supplied_ranks is not None and not all(
            isinstance(r, (int, np.integer)) for r in self.supplied_ranks
        ):
            raise InvalidInputError(f"supplied_ranks must be integers, got {self.supplied_ranks}")


class StepParams(NamedTuple):
    eta: float
    alpha: float


def default_params(proportions: Sequence[float], cfg: PipelineConfig) -> List[StepParams]:
    """Per-component step size and truncating fraction from proportions.

    The truncating fraction is capped at 1 in case an estimated proportion
    overshoots.
    """
    params = []
    for p in proportions:
        if not p > 0:
            raise InvalidInputError(f"proportions must be positive, got {p}")
        params.append(StepParams(eta=cfg.eta_scale / p, alpha=min(cfg.alpha_scale * p, 1.0)))
    return params


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
    weights: np.ndarray

    def to_json_dict(self) -> dict:
        return {
            "estimates": [m.tolist() for m in self.estimates],
            "permutation": list(self.permutation),
            "per_component": [
                {
                    "rel_error": c.rel_error,
                    "init_error": c.init_error,
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
    estimates each component's rank unless `cfg.supplied_ranks` is set; it
    reuses `d_main` unless `cfg.reuse_samples` is False or theory mode is
    on, in which case `d_mlr` must be supplied. Stage 3 refines the
    components one after another on `d_main`. Proportions for the
    per-component step policy come from `cfg.supplied_proportions` first,
    then from `truth` when given, then from the estimated mixture weights.
    The permutation in the report is evaluation-only and never feeds back
    into the solver.
    """
    K = cfg.k_components
    use_split = cfg.theory_mode or not cfg.reuse_samples
    if use_split and d_mlr is None:
        raise InvalidInputError("independent stage-2 samples required when not reusing")

    with _stage("stage1"):
        sub = spectral.subspace_estimate(spectral.data_matrix(d_main), cfg.supplied_r_joint)

    with _stage("stage2"):
        init = initialize_all(
            d_mlr if use_split else d_main, sub, cfg.supplied_ranks, cfg.seed, k_components=K,
        )

    if cfg.supplied_proportions is not None:
        proportions = list(cfg.supplied_proportions)
    elif truth is not None:
        proportions = list(truth.proportions)
    else:
        proportions = list(init.mlr.weights)
    if cfg.theory_mode and min(proportions) < 1.0 / (4.0 * K):
        warnings.warn(
            f"smallest proportion {min(proportions):.3g} is below 1/(4K); "
            "the balanced-mixture regime no longer holds",
            RuntimeWarning,
        )
    params = default_params(proportions, cfg)

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

    with _stage("stage3"):
        runs = [
            run_scaledtgd(
                d_main, init.factors[k],
                TgdConfig(eta=params[k].eta, alpha=params[k].alpha,
                          t0=cfg.t0, early_stop_tol=cfg.early_stop_tol),
                truth=trace_targets[k],
            )
            for k in range(K)
        ]

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
        weights=init.mlr.weights.copy(),
    )
