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
from .errors import InvalidInputError, NumericalError
from .initialization import FactorPair
from .synth import SUB, Dataset

# Rows of the weight block that each slice's gradient GEMM reads. It is fixed,
# so a component's sum has the same bits whichever row holds its weights and
# whatever the other rows hold, as in its solo run.
WIDTH = 4


@dataclass(frozen=True)
class TgdConfig:
    eta: float                   # step size, > 0
    alpha: float                 # truncating fraction in (0, 1]
    t0: int                      # iteration budget, >= 1
    early_stop_tol: float = 0.0  # relative product change threshold, 0 disables

    def __post_init__(self):
        if core.check_finite(self.eta, "eta") == 0.0:
            raise InvalidInputError("eta must be > 0")
        if not 0.0 < core.check_finite(self.alpha, "alpha") <= 1.0:
            raise InvalidInputError(f"alpha must lie in (0, 1], got {self.alpha}")
        core.check_int(self.t0, "t0", 1)
        core.check_finite(self.early_stop_tol, "early_stop_tol")


@dataclass
class TgdTrace:
    """Per-iterate records; row t describes the t-th iterate (row 0 is the
    initialization), including the truncation level and kept-sample count
    computed at that iterate. The final iterate takes no step, so both are
    None in its row: null in report.json, an empty cell in trace.csv."""

    taus: List[Optional[float]] = field(default_factory=list)
    kept_counts: List[Optional[int]] = field(default_factory=list)
    rel_errors: List[Optional[float]] = field(default_factory=list)
    stop_reason: Optional[str] = None  # "budget", "early_stop" or "singular_preconditioner"

    def append(self, tau: Optional[float], kept: Optional[int], rel_error: Optional[float]):
        self.taus.append(None if tau is None else float(tau))
        self.kept_counts.append(None if kept is None else int(kept))
        self.rel_errors.append(None if rel_error is None else float(rel_error))

    def __len__(self) -> int:
        return len(self.taus)

    def rows(self):
        """(t, tau, kept, rel_error) per row, t the row's position."""
        return zip(range(len(self)), self.taus, self.kept_counts, self.rel_errors)

    def to_json_dict(self) -> dict:
        """The stop reason and one object per row."""
        return {"stop_reason": self.stop_reason,
                "trace": [{"iter": t, "tau": tau, "kept": kept, "rel_error": err}
                          for t, tau, kept, err in self.rows()]}


class TruncationSet(NamedTuple):
    indices: np.ndarray
    tau: float


class TgdRun(NamedTuple):
    final: FactorPair
    trace: TgdTrace


def _residual_pass(dataset: Dataset, factor_list: Sequence[FactorPair],
                   levels=(), sums=None) -> np.ndarray:
    """Signed residuals ``<A_i, l r^T> - y_i`` of each factor pair, one row
    per pair, from one walk over the design blocks SUB rows at a time. Each
    slice, while in cache, fills row j with the residuals of pair j (one
    GEMV each, with the bits of the whole-block product that made y, so
    fixed points stay bit-exact). With `levels`, one summed level per pair,
    it then adds ``r_i A_i`` over its samples with ``|r_i| <= levels[j]`` to
    row j of `sums`, a (K, n1 * n2) array, for r the residuals of pair j; a
    negative level sums nothing. Each group of WIDTH consecutive pairs with
    some level >= 0 takes one GEMM per slice: a zero-padded WIDTH-row
    weight block times the slice."""
    if any(f.l.shape[0] != dataset.n1 or f.r.shape[0] != dataset.n2 for f in factor_list):
        raise InvalidInputError("factor shapes do not match the dataset")
    pvecs = [f.product().ravel() for f in factor_list]
    res = np.empty((len(pvecs), dataset.N))
    levels = np.asarray(levels, dtype=np.float64)
    groups = [slice(g, g + WIDTH) for g in range(0, len(levels), WIDTH)
              if (levels[g : g + WIDTH] >= 0.0).any()]
    block = np.zeros((WIDTH, SUB))
    grads = np.empty((WIDTH, dataset.n1 * dataset.n2))
    for lo, hi, rows in dataset.iter_design_blocks():
        for s in range(0, hi - lo, SUB):
            sub, at = rows[s : s + SUB], slice(lo + s, min(lo + s + SUB, hi))
            for r, pvec in zip(res, pvecs):
                np.matmul(sub, pvec, out=r[at])
            res[:, at] -= dataset.y[at]
            weights = block[:, : len(sub)]
            for group in groups:
                r = res[group, at]
                weights[: len(r)] = np.where(np.abs(r) <= levels[group, None], r, 0.0)
                weights[len(r) :] = 0.0
                np.matmul(weights, sub, out=grads)
                sums[group] += grads[: len(r)]
    return res


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
        raise NumericalError(
            "factor Gram matrix numerically singular; iterate left the basin"
        )
    return (vt.T / s**2) @ vt


def _band_pass(dataset: Dataset, bands) -> None:
    """For each ``(weights, mask, acc)`` in `bands`, add ``w_i A_i`` over the
    samples in `mask` to `acc`, gathering that entry's own masked rows block
    by block. Only unstored rows in some mask are regenerated."""
    for lo, hi, rows in dataset.iter_design_blocks(np.logical_or.reduce([m for _, m, _ in bands])):
        for weights, mask, acc in bands:
            at = np.flatnonzero(mask[lo:hi])
            if at.size:
                acc += weights[lo + at] @ rows[at]


def _update(factors: FactorPair, grad: np.ndarray, scale: float) -> FactorPair:
    """Preconditioned step ``l - scale * G r (r^T r)^-1``,
    ``r - scale * G^T l (l^T l)^-1`` for the gradient sum G."""
    inv_rr = _gram_solve_factor(factors.r)
    inv_ll = _gram_solve_factor(factors.l)
    return FactorPair(l=factors.l - scale * (grad @ (factors.r @ inv_rr)),
                      r=factors.r - scale * (grad.T @ (factors.l @ inv_ll)))


def refine_components(
    dataset: Dataset,
    inits: Sequence[FactorPair],
    cfgs: Sequence[TgdConfig],
    truths: Optional[Sequence[Optional[np.ndarray]]] = None,
    first_residuals: Optional[np.ndarray] = None,
) -> List[TgdRun]:
    """Iterate the truncated update of all components in lockstep, each until
    its own budget or early stop. In each step (:func:`_update`) both factors
    read the incoming iterate, the gradient sums over the truncation set,
    and the normalization is 1/N, whatever the number of samples kept. A
    component's final iterate takes no step: it reads no design, and its
    trace row holds only the error. So a budget of t0 steps makes t0
    residual passes, t0 - 1 with `first_residuals`.

    From the second iterate on, a component whose last level is positive
    predicts its level: ``tau_hat = tau_{t-1}^2 / tau_{t-2}`` (the error
    contracts linearly), or ``tau_hat = tau_{t-1}`` when the level before
    is not positive or there is none. The residual pass also sums the rows
    with ``|r_i| <= tau_hat``. One :func:`_band_pass` then moves every sum
    to the exact level tau: it adds the rows with ``tau_hat < |r_i| <= tau``,
    or subtracts those with ``tau < |r_i| <= tau_hat``, weighted by
    ``-r_i``. A component with no prediction (the first iterate, or after a
    zero level) has summed nothing, so that read covers its whole
    truncation set. A component reads only its own residuals and levels,
    so its result is bit-identical to its solo run. Trace rows of component
    k log the error against `truths[k]`, if given.

    Iteration 0 takes its residuals from `first_residuals`, a (K, N) array
    whose row k holds ``<A_i, l r^T> - y_i`` of `inits[k]` (as
    :func:`initialize_all` returns them), in place of a residual pass.
    """
    K, N = len(inits), dataset.N
    truths = [None] * K if truths is None else list(truths)
    if len(cfgs) != K or len(truths) != K:
        raise InvalidInputError("need one config and one truth slot per component")
    if first_residuals is not None and np.shape(first_residuals) != (K, N):
        raise InvalidInputError(f"first_residuals must have shape {(K, N)}")
    factors, traces = list(inits), [TgdTrace() for _ in cfgs]

    def error(k):
        return None if truths[k] is None else core.rel_fro_error(factors[k].product(), truths[k])

    stepping = list(range(K))  # the components whose iterate takes a step
    # iteration 0 predicts no level, so its residual pass would add no sums
    res = None if first_residuals is None else np.asarray(first_residuals, dtype=np.float64)
    while stepping:
        summed = [taus[-1] * (taus[-1] / taus[-2] if len(taus) > 1 and taus[-2] > 0 else 1.0)
                  if taus and taus[-1] > 0 else -1.0  # -1: below every |r_i|, sums nothing
                  for taus in (traces[k].taus for k in stepping)]
        sums = np.zeros((len(stepping), dataset.n1 * dataset.n2))
        if res is None:
            res = _residual_pass(dataset, [factors[k] for k in stepping], summed, sums)
        bands = []
        for k, row, level, acc in zip(stepping, res, summed, sums):
            abs_row = np.abs(row)
            trunc = truncation_set(abs_row, cfgs[k].alpha)
            traces[k].append(trunc.tau, trunc.indices.size, error(k))
            lo, hi = sorted((level, trunc.tau))
            bands.append((row if level <= trunc.tau else -row,
                          (abs_row > lo) & (abs_row <= hi), acc))
        _band_pass(dataset, bands)
        steps, stepping, res = stepping, [], None
        for j, k in enumerate(steps):
            f, cfg = factors[k], cfgs[k]
            try:
                factors[k] = _update(f, sums[j].reshape(dataset.n1, dataset.n2), cfg.eta / N)
            except NumericalError as exc:
                traces[k].stop_reason = "singular_preconditioner"
                exc.trace = traces[k]
                raise
            prod = f.product()
            change = np.linalg.norm(factors[k].product() - prod) / max(np.linalg.norm(prod), 1e-300)
            early = cfg.early_stop_tol > 0.0 and change < cfg.early_stop_tol
            if early or len(traces[k]) == cfg.t0:  # a final iterate takes no step, so no level
                traces[k].append(None, None, error(k))
                traces[k].stop_reason = "early_stop" if early else "budget"
            else:
                stepping.append(k)
    return [TgdRun(final=f, trace=trace) for f, trace in zip(factors, traces)]
