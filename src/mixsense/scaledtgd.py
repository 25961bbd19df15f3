"""Stage 3: scaled truncated gradient descent on low-rank factors.

Each iteration keeps the fraction of samples with the smallest absolute
residual (a finite-sample quantile with ties included) and applies one
preconditioned gradient step to both factors simultaneously, normalizing by
the full sample count.
"""

from dataclasses import dataclass, field
from typing import List, NamedTuple, Optional

import numpy as np

from . import core
from .errors import InvalidInputError, PreconditionerSingularError
from .initialization import FactorPair
from .synth import BLOCK, Dataset


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
        if self.early_stop_tol < 0:
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


class StepResult(NamedTuple):
    factors: FactorPair
    tau: float
    kept: int


class TgdRun(NamedTuple):
    final: FactorPair
    trace: TgdTrace


def residuals(dataset: Dataset, factors: FactorPair) -> np.ndarray:
    """Signed residuals ``<A_i, l r^T> - y_i`` in sample order."""
    if factors.l.shape[0] != dataset.n1 or factors.r.shape[0] != dataset.n2:
        raise InvalidInputError("factor shapes do not match the dataset")
    pvec = factors.product().ravel()
    out = np.empty(dataset.N)
    for lo, hi, rows in dataset.iter_design_blocks():
        out[lo:hi] = rows @ pvec
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


def _gradient(dataset: Dataset, res: np.ndarray, indices: np.ndarray) -> np.ndarray:
    """Sum of residual-weighted designs over the kept set, chunked in index
    order for deterministic accumulation."""
    acc = np.zeros(dataset.n1 * dataset.n2)
    for lo in range(0, indices.size, BLOCK):
        chunk = indices[lo : lo + BLOCK]
        acc += res[chunk] @ dataset.design_rows(chunk)
    return acc.reshape(dataset.n1, dataset.n2)


def _update(
    dataset: Dataset, factors: FactorPair, res: np.ndarray, kept: np.ndarray, eta: float
) -> FactorPair:
    grad = _gradient(dataset, res, kept)
    inv_rr = _gram_solve_factor(factors.r)
    inv_ll = _gram_solve_factor(factors.l)
    scale = eta / dataset.N
    l_next = factors.l - scale * (grad @ (factors.r @ inv_rr))
    r_next = factors.r - scale * (grad.T @ (factors.l @ inv_ll))
    return FactorPair(l=l_next, r=r_next)


def scaledtgd_step(dataset: Dataset, factors: FactorPair, eta: float, alpha: float) -> StepResult:
    """One simultaneous preconditioned update of both factors.

    Both updates read the incoming iterate, the gradient sum runs over the
    truncation set, and the normalization is 1/N regardless of how many
    samples were kept.
    """
    if eta <= 0 or not 0.0 < alpha <= 1.0:
        raise InvalidInputError("need eta > 0 and alpha in (0, 1]")
    res = residuals(dataset, factors)
    trunc = truncation_set(np.abs(res), alpha)
    nxt = _update(dataset, factors, res, trunc.indices, eta)
    return StepResult(factors=nxt, tau=trunc.tau, kept=int(trunc.indices.size))


def run_scaledtgd(
    dataset: Dataset,
    f0: FactorPair,
    cfg: TgdConfig,
    truth: Optional[np.ndarray] = None,
) -> TgdRun:
    """Iterate the truncated update for `cfg.t0` steps (or until the product
    stops moving, when early stopping is enabled).

    When `truth` is given, every trace row logs the relative Frobenius error
    of the iterate against it.
    """
    truth = None if truth is None else core.as_matrix(truth, "truth")
    trace = TgdTrace()
    f = f0

    def rel_err(fac: FactorPair) -> Optional[float]:
        return None if truth is None else core.rel_fro_error(fac.product(), truth)

    for t in range(cfg.t0):
        res = residuals(dataset, f)
        trunc = truncation_set(np.abs(res), cfg.alpha)
        trace.append(t, trunc.tau, trunc.indices.size, rel_err(f))
        try:
            f_next = _update(dataset, f, res, trunc.indices, cfg.eta)
        except PreconditionerSingularError as exc:
            raise PreconditionerSingularError(str(exc), trace=trace) from exc
        if cfg.early_stop_tol > 0.0:
            prod, prod_next = f.product(), f_next.product()
            denom = max(float(np.linalg.norm(prod)), 1e-300)
            if float(np.linalg.norm(prod_next - prod)) / denom < cfg.early_stop_tol:
                f = f_next
                break
        f = f_next
    final_res = residuals(dataset, f)
    final_trunc = truncation_set(np.abs(final_res), cfg.alpha)
    trace.append(len(trace), final_trunc.tau, final_trunc.indices.size, rel_err(f))
    return TgdRun(final=f, trace=trace)
