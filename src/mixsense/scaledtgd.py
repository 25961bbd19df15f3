"""Stage 3: scaled truncated gradient descent on low-rank factors.

Each iteration keeps the fraction of samples with the smallest absolute
residual (a finite-sample quantile with ties included) and applies one
preconditioned gradient step to both factors simultaneously, normalizing by
the full sample count.
"""

from dataclasses import dataclass, field
from typing import List, NamedTuple, Optional, Sequence

import numpy as np

from . import core
from .errors import InvalidInputError, PreconditionerSingularError
from .initialization import FactorPair
from .synth import SUB, Dataset


@dataclass(frozen=True)
class TgdConfig:
    eta: float                   # step size, > 0
    alpha: float                 # truncating fraction in (0, 1]
    t0: int                      # iteration budget, >= 0
    early_stop_tol: float = 0.0  # relative product change threshold, 0 disables

    def __post_init__(self):
        if not self.eta > 0:
            raise InvalidInputError(f"eta must be > 0, got {self.eta}")
        if not 0.0 < self.alpha <= 1.0:
            raise InvalidInputError(f"alpha must lie in (0, 1], got {self.alpha}")
        if not isinstance(self.t0, (int, np.integer)) or self.t0 < 0:
            raise InvalidInputError(f"t0 must be an integer >= 0, got {self.t0!r}")
        if not self.early_stop_tol >= 0:
            raise InvalidInputError("early_stop_tol must be >= 0")


@dataclass
class TgdTrace:
    """Per-iterate records; row t describes the t-th iterate (row 0 is the
    initialization), including the truncation level and kept-sample count
    computed at that iterate."""

    iters: List[int] = field(default_factory=list)
    taus: List[float] = field(default_factory=list)
    kept_counts: List[int] = field(default_factory=list)
    rel_errors: List[Optional[float]] = field(default_factory=list)
    stop_reason: Optional[str] = None  # "budget", "early_stop" or "singular_preconditioner"

    def append(self, t: int, tau: float, kept: int, rel_error: Optional[float]):
        self.iters.append(int(t))
        self.taus.append(float(tau))
        self.kept_counts.append(int(kept))
        self.rel_errors.append(None if rel_error is None else float(rel_error))

    def __len__(self) -> int:
        return len(self.iters)

    def rows(self):
        return zip(self.iters, self.taus, self.kept_counts, self.rel_errors)


class TruncationSet(NamedTuple):
    indices: np.ndarray
    tau: float


class TgdRun(NamedTuple):
    final: FactorPair
    trace: TgdTrace


def _residual_pass(dataset: Dataset, factor_list: Sequence[FactorPair]) -> np.ndarray:
    """Signed residuals ``<A_i, l r^T> - y_i`` of each factor pair, one row
    per pair. Each SUB-row slice of a design block serves every pair while
    it is in cache."""
    if any(f.l.shape[0] != dataset.n1 or f.r.shape[0] != dataset.n2 for f in factor_list):
        raise InvalidInputError("factor shapes do not match the dataset")
    pvecs = [f.product().ravel() for f in factor_list]
    out = np.empty((len(pvecs), dataset.N))
    for lo, hi, rows in dataset.iter_design_blocks():
        for s in range(0, hi - lo, SUB):
            sub = rows[s : s + SUB]
            for res, pvec in zip(out, pvecs):
                np.matmul(sub, pvec, out=res[lo + s : lo + s + len(sub)])
    out -= dataset.y
    return out


def truncation_set(abs_residuals: np.ndarray, alpha: float) -> TruncationSet:
    """All samples whose absolute residual is at or below the alpha-quantile.

    Ties at the quantile are included, so the set can hold more than
    ``ceil(alpha * N)`` samples.
    """
    abs_residuals = np.asarray(abs_residuals, dtype=np.float64).ravel()
    tau = core.finite_quantile(abs_residuals, alpha)
    return TruncationSet(indices=np.flatnonzero(abs_residuals <= tau), tau=tau)


def _gram_solve_factor(f: np.ndarray) -> np.ndarray:
    """Inverse of f.T @ f via SVD with a conditioning guard."""
    u, s, vt = np.linalg.svd(f, full_matrices=False)
    if s[0] <= 0.0 or (s[-1] / s[0]) ** 2 <= 1e-12:
        raise PreconditionerSingularError(
            "factor Gram matrix numerically singular; iterate left the basin"
        )
    return (vt.T / s**2) @ vt


def _gradient_pass(dataset: Dataset, weights, needed: np.ndarray) -> np.ndarray:
    """Weighted design sums ``w @ A`` for each weight vector w, one row per
    vector, accumulated per SUB-row slice of the design blocks. Unstored rows
    outside `needed` read as zeros, which is exact where every weight is 0."""
    acc = np.zeros((len(weights), dataset.n1 * dataset.n2))
    for lo, hi, rows in dataset.iter_design_blocks(needed):
        for s in range(0, hi - lo, SUB):
            sub = rows[s : s + SUB]
            for grad, w in zip(acc, weights):
                grad += w[lo + s : lo + s + len(sub)] @ sub
    return acc


def _update(factors: FactorPair, grad: np.ndarray, scale: float) -> FactorPair:
    """Preconditioned step ``l - scale * G r (r^T r)^-1``,
    ``r - scale * G^T l (l^T l)^-1`` for the gradient sum G."""
    inv_rr = _gram_solve_factor(factors.r)
    inv_ll = _gram_solve_factor(factors.l)
    l_next = factors.l - scale * (grad @ (factors.r @ inv_rr))
    r_next = factors.r - scale * (grad.T @ (factors.l @ inv_ll))
    return FactorPair(l=l_next, r=r_next)


def refine_components(
    dataset: Dataset,
    inits: Sequence[FactorPair],
    cfgs: Sequence[TgdConfig],
    truths: Optional[Sequence[Optional[np.ndarray]]] = None,
) -> List[TgdRun]:
    """Iterate the truncated update of all components in lockstep, each until
    its own budget or early stop, with one residual pass and one gradient
    pass over the designs per iteration. In each step (:func:`_update`) both
    factors read the incoming iterate, the gradient sums over the truncation
    set, and the normalization is 1/N, whatever the number of samples kept.
    A component reads only its own residuals and weights, so its result is
    bit-identical to its solo run. Trace rows of component k log the error
    against `truths[k]`, if given.
    """
    K, N = len(inits), dataset.N
    truths = [None] * K if truths is None else list(truths)
    if len(cfgs) != K or len(truths) != K:
        raise InvalidInputError("need one config and one truth slot per component")
    factors = list(inits)
    traces = [TgdTrace(stop_reason="budget" if cfg.t0 == 0 else None) for cfg in cfgs]
    pending = list(range(K))  # components whose current iterate has no trace row yet
    t = 0
    while pending:
        res = _residual_pass(dataset, [factors[k] for k in pending])
        active, weights, needed = [], [], np.zeros(N, dtype=bool)
        for k, row in zip(pending, res):
            trunc = truncation_set(np.abs(row), cfgs[k].alpha)
            err = None if truths[k] is None else core.rel_fro_error(factors[k].product(), truths[k])
            traces[k].append(t, trunc.tau, trunc.indices.size, err)
            if traces[k].stop_reason is None:
                active.append(k)
                weights.append(np.where(np.abs(row) <= trunc.tau, row, 0.0))
                needed[trunc.indices] = True
        grads = _gradient_pass(dataset, weights, needed) if active else []
        for k, grad in zip(active, grads):
            f, cfg = factors[k], cfgs[k]
            try:
                factors[k] = _update(f, grad.reshape(dataset.n1, dataset.n2), cfg.eta / N)
            except PreconditionerSingularError as exc:
                traces[k].stop_reason = "singular_preconditioner"
                raise PreconditionerSingularError(str(exc), trace=traces[k]) from exc
            prod = f.product()
            change = np.linalg.norm(factors[k].product() - prod) / max(np.linalg.norm(prod), 1e-300)
            if cfg.early_stop_tol > 0.0 and change < cfg.early_stop_tol:
                traces[k].stop_reason = "early_stop"
            elif t + 1 == cfg.t0:
                traces[k].stop_reason = "budget"
        pending = active
        t += 1
    return [TgdRun(final=f, trace=trace) for f, trace in zip(factors, traces)]

