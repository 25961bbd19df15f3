"""Test-side helpers: a dataset built from given arrays, a design-row reader
over `Dataset.iter_design_blocks`, the truncated Gaussian second moment,
which only tests evaluate, and a two-pass reference for stage 3."""

import math

import numpy as np

from mixsense import core, synth
from mixsense import scaledtgd as tgd
from mixsense.errors import InvalidInputError, NumericalError
from mixsense.synth import SUB

_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)

# Values every boundary must reject where an integer, or a finite
# non-negative number, belongs. A bool is neither.
BAD_INTS = (True, 1.5, "1", math.nan, math.inf, -1)
BAD_NUMBERS = (True, "1", math.nan, math.inf, -1)


def manual_dataset(designs, y):
    """Fully stored noiseless dataset over an (N, n1, n2) stack of designs."""
    designs = np.asarray(designs, dtype=float)
    n, n1, n2 = designs.shape
    return synth.Dataset(
        n1=n1, n2=n2, seed=0,
        y=np.asarray(y, dtype=float),
        designs_flat=designs.reshape(n, n1 * n2).copy(),
    )


def stacked_rows(dataset, indices) -> np.ndarray:
    """Design rows of the given samples, stacked from copies of every block
    the dataset yields (the next block may overwrite a regenerated one)."""
    return np.vstack([rows.copy() for _, _, rows in dataset.iter_design_blocks()])[indices]


def std_normal_pdf(x: float) -> float:
    return _INV_SQRT_2PI * math.exp(-0.5 * x * x)


def truncated_gaussian_second_moment(x: float) -> float:
    """Integral of t^2 phi(t) for t in [-x, x], phi the standard normal pdf.

    Closed form ``erf(x / sqrt(2)) - 2 x phi(x)``; nondecreasing in x with
    limit 1 as x grows.
    """
    x = float(x)
    if not math.isfinite(x) or x < 0.0:
        raise InvalidInputError(f"argument must be finite and >= 0, got {x}")
    return math.erf(x / math.sqrt(2.0)) - 2.0 * x * std_normal_pdf(x)


def two_pass_refine(dataset, inits, cfgs, truths=None):
    """Reference stage 3: `scaledtgd.refine_components` with no predicted
    level, so every step makes a full residual pass and then a full gradient
    pass. Each component sums its kept rows block by block, gathering them
    as the library's correction read does for a step with no prediction,
    and its final iterate, which takes no step, gets a row with no level."""

    def slices():
        for lo, hi, rows in dataset.iter_design_blocks():
            for s in range(0, hi - lo, SUB):
                yield slice(lo + s, min(lo + s + SUB, hi)), rows[s : s + SUB]

    K, N = len(inits), dataset.N
    truths = [None] * K if truths is None else list(truths)
    factors = list(inits)
    traces = [tgd.TgdTrace() for _ in cfgs]

    def error(k):
        return None if truths[k] is None else core.rel_fro_error(factors[k].product(), truths[k])

    active = list(range(K))
    while active:
        res = np.empty((len(active), N))
        pvecs = [factors[k].product().ravel() for k in active]
        for at, sub in slices():
            for row, pvec in zip(res, pvecs):
                np.matmul(sub, pvec, out=row[at])
        res -= dataset.y
        kept = []
        for k, row in zip(active, res):
            trunc = tgd.truncation_set(np.abs(row), cfgs[k].alpha)
            traces[k].append(trunc.tau, trunc.indices.size, error(k))
            kept.append(np.abs(row) <= trunc.tau)
        grads = np.zeros((len(active), dataset.n1 * dataset.n2))
        for lo, hi, rows in dataset.iter_design_blocks(np.logical_or.reduce(kept)):
            for grad, row, mask in zip(grads, res, kept):
                at = np.flatnonzero(mask[lo:hi])
                if at.size:
                    grad += row[lo + at] @ rows[at]
        steps, active = active, []
        for k, grad in zip(steps, grads):
            f, cfg = factors[k], cfgs[k]
            try:
                factors[k] = tgd._update(f, grad.reshape(dataset.n1, dataset.n2), cfg.eta / N)
            except NumericalError:
                traces[k].stop_reason = "singular_preconditioner"
                raise
            prod = f.product()
            change = np.linalg.norm(factors[k].product() - prod) / max(np.linalg.norm(prod), 1e-300)
            early = cfg.early_stop_tol > 0.0 and change < cfg.early_stop_tol
            if early or len(traces[k]) == cfg.t0:
                traces[k].append(None, None, error(k))
                traces[k].stop_reason = "early_stop" if early else "budget"
            else:
                active.append(k)
    return [tgd.TgdRun(final=f, trace=trace) for f, trace in zip(factors, traces)]
