"""Full three-stage recovery: subspace estimation, mixed-regression
initialization, then truncated-gradient refinement of all components."""

import contextlib
from dataclasses import asdict, dataclass
from statistics import NormalDist
from typing import List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from . import core, spectral
from .errors import InvalidInputError, MixsenseError, PipelineStageError
from .initialization import initialize_all
from .scaledtgd import TgdConfig, TgdTrace, refine_components
from .synth import Dataset, GroundTruth


# Stage-3 step policy: component k gets step size ``ETA_SCALE / p_k`` and
# truncating fraction ``ALPHA_SCALE * p_k``, where p_k is its proportion.
# In the population limit component k's truncated gradient is
# ``p_k w(x) Δ``: x is the level with ``P(|z| <= x) = ALPHA_SCALE``, and
# ``w(x) = erf(x/√2) - 2xφ(x) = ALPHA_SCALE - 2xφ(x)`` is the truncated
# Gaussian second moment (0.3502). The effective step ``e = ETA_SCALE w``
# contracts the error inside both factor spans by |1 - 2e| and across them
# by |1 - e|; the worse of the two is smallest at e = 2/3, so ETA_SCALE is
# 1.9038. The paper's fixed 1.3 gives e ≈ 0.46.
ALPHA_SCALE = 0.8
_X_TRUNC = NormalDist().inv_cdf((1.0 + ALPHA_SCALE) / 2.0)
ETA_SCALE = (2.0 / 3.0) / (ALPHA_SCALE - 2.0 * _X_TRUNC * NormalDist().pdf(_X_TRUNC))


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
        core.check_int(self.k_components, "k_components", 1)
        core.check_int(self.t0, "t0", 1)
        core.check_int(self.seed, "seed")
        core.check_finite(self.early_stop_tol, "early_stop_tol")
        if self.supplied_r_joint is not None:
            core.check_int(self.supplied_r_joint, "supplied_r_joint", 1)
        for name in ("supplied_ranks", "supplied_proportions"):
            val = getattr(self, name)
            if val is not None:
                object.__setattr__(self, name, core.check_seq(val, name))
                if len(getattr(self, name)) != self.k_components:
                    raise InvalidInputError(f"{name} must have length {self.k_components}")
        for r in self.supplied_ranks or ():
            core.check_int(r, "supplied_ranks entry", 1)
            if self.supplied_r_joint is not None and r > self.supplied_r_joint:
                raise InvalidInputError(f"supplied_ranks entry {r} exceeds supplied_r_joint")
        for p in self.supplied_proportions or ():
            if not 0.0 < core.check_finite(p, "supplied_proportions entry") <= 1.0:
                raise InvalidInputError(f"supplied_proportions entries must lie in (0, 1], got {p}")


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
    error, by linear assignment. Only evaluation calls it, so scipy loads
    here rather than with the package."""
    import scipy.optimize

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
    spectrum: List[float]           # top r_used + 1 singular values of the data matrix
    gap_ratio: float                # the rank rule's ratio at r_used
    dist_u: Optional[float] = None
    dist_v: Optional[float] = None


@dataclass
class Stage2Report:
    whitening_ratio: float          # s_K / s_1 of the whitened second moment
    weight_flagged: List[bool]      # weights above the flag bound
    eigenvalues: List[float]        # tensor eigenvalues lam; weight = 1 / lam^2
    ranks: List[int]                # component ranks used, supplied or estimated


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
                {"rel_error": c.rel_error, "init_error": c.init_error, **c.trace.to_json_dict()}
                for c in self.per_component
            ],
            "stage1": asdict(self.stage1),
            "stage2": asdict(self.stage2),
            "weights": self.weights.tolist(),
        }


def joint_basis(bases: Sequence[np.ndarray]) -> np.ndarray:
    """Orthonormal basis of the union of the given column spaces."""
    stacked = np.hstack(list(bases))
    res = core.svd(stacked)
    rank = int(np.sum(res.s > 1e-10 * res.s[0]))
    return res.u[:, :rank]


@contextlib.contextmanager
def _stage(tag: str):
    """Tag a package error raised inside the block with its stage, keeping
    its partial trace."""
    try:
        yield
    except MixsenseError as exc:
        raise PipelineStageError(tag, str(exc), getattr(exc, "trace", None)) from exc


def run_pipeline(
    d_main: Dataset,
    d_mlr: Optional[Dataset],
    cfg: PipelineConfig,
    truth: Optional[GroundTruth] = None,
) -> RecoveryReport:
    """Run all three stages and assemble an evaluation report.

    Stage 1 (:func:`spectral.subspace_estimate`) estimates the joint rank R
    unless `cfg.supplied_r_joint` is set, and fails when R cannot hold K
    components (K > R^2) or a supplied rank exceeds it. Stage 2
    (:func:`initialize_all`) runs on `d_mlr` when it is given and on
    `d_main` otherwise, and estimates each component's rank unless
    `cfg.supplied_ranks` is set.
    Stage 3 refines all components together on `d_main`, with the
    step policy of :func:`default_params` applied to
    `cfg.supplied_proportions`, or to the stage-2 mixture weights when none
    are supplied. A budget of `cfg.t0` steps makes `cfg.t0 - 1` residual
    passes when stage 2 read `d_main`, since its residuals are stage 3's
    first, and `cfg.t0` otherwise: the final iterate takes no step.
    `truth` is read only for evaluation: trace targets, initialization
    errors, the component alignment and the subspace distances; it never
    feeds back into the solver. A `truth` whose shape or K does not match
    the data and `cfg` is rejected before stage 1.
    """
    K = cfg.k_components
    if truth is not None and (truth.n1, truth.n2, truth.K) != (d_main.n1, d_main.n2, K):
        raise InvalidInputError(
            f"truth of shape {(truth.n1, truth.n2)} with K={truth.K} does not match "
            f"data of shape {(d_main.n1, d_main.n2)} with K={K}"
        )
    with _stage("stage1"):
        sub = spectral.subspace_estimate(spectral.data_matrix(d_main), cfg.supplied_r_joint)
        R = sub.r_joint
        above = [r for r in cfg.supplied_ranks or () if r > R]
        if K > R * R or above:
            # stage 2 regresses in R^2 dimensions and lifts each component to rank <= R
            raise InvalidInputError(
                f"joint rank R={R} too small: stage 2 needs K={K} <= R^2 and every "
                f"supplied rank <= R, got {above or 'none'} above R"
            )

    with _stage("stage2"):
        init = initialize_all(
            d_main if d_mlr is None else d_mlr, sub, K, cfg.supplied_ranks, cfg.seed
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
            d_main, init.factors, default_params(proportions, cfg), trace_targets,
            init.residuals if d_mlr is None else None,
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
        stage1=Stage1Report(sub.r_joint, sub.singular_values[: sub.r_joint + 1].tolist(),
                            spectral.gap_ratio(sub.singular_values, sub.r_joint), dist_u, dist_v),
        stage2=Stage2Report(init.mlr.whitening_ratio, init.mlr.weight_flagged.tolist(),
                            init.mlr.eigenvalues.tolist(), [f.l.shape[1] for f in init.factors]),
        weights=init.mlr.weights.copy(),
    )
