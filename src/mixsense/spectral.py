"""Stage 1: joint column/row subspace estimation from the measurement
average, plus the spectral-gap rank rule."""

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from . import core
from .errors import InvalidInputError
from .synth import Dataset

# Floor of the rank rule's denominator, relative to the top singular value,
# so that exact trailing zeros do not divide by zero.
GAP_FLOOR = 1e-12


@dataclass(frozen=True)
class SubspaceEstimate:
    """Orthonormal bases of the estimated joint column and row spaces.

    `singular_values` keeps the full spectrum of the data matrix for
    diagnostics and rank estimation.
    """

    u: np.ndarray
    v: np.ndarray
    r_joint: int
    singular_values: np.ndarray


def data_matrix(dataset: Dataset) -> np.ndarray:
    """Measurement-weighted design average ``(1/N) sum_i y_i A_i``.

    Accumulated block by block in sample order so the result is
    deterministic and identical across storage modes.
    """
    if dataset.N < 1:
        raise InvalidInputError("dataset is empty")
    acc = np.zeros(dataset.n1 * dataset.n2)
    for lo, hi, rows in dataset.iter_design_blocks():
        acc += dataset.y[lo:hi] @ rows
    return (acc / dataset.N).reshape(dataset.n1, dataset.n2)


def subspace_estimate(y: np.ndarray, r_joint: Optional[int] = None) -> SubspaceEstimate:
    """Top-`r_joint` left/right singular vectors of the data matrix.

    When `r_joint` is None it is estimated from the spectrum by
    :func:`estimate_rank`, scanning up to ``max(1, min(n1, n2) // 2)``. The
    data matrix is decomposed once.
    """
    y = core.as_matrix(y, "data matrix")
    res = core.svd(y)
    if r_joint is None:
        r_joint = estimate_rank(res.s, max(1, min(y.shape) // 2))
    if not 1 <= r_joint <= min(y.shape):
        raise InvalidInputError(f"r_joint={r_joint} out of range for shape {y.shape}")
    return SubspaceEstimate(
        u=res.u[:, :r_joint],
        v=res.v[:, :r_joint],
        r_joint=int(r_joint),
        singular_values=res.s,
    )


def estimate_rank(singular_values: Sequence[float], max_rank: int) -> int:
    """Rank estimate by the largest consecutive singular-value ratio.

    Scans ``s_i / max(s_{i+1}, GAP_FLOOR * s_1)`` for i up to `max_rank`
    (:func:`gap_ratio`; missing trailing values count as 0) and returns the
    smallest argmax. An all-zero spectrum has no rank and raises.
    """
    s = np.asarray(singular_values, dtype=np.float64).ravel()
    if s.size == 0:
        raise InvalidInputError("empty spectrum")
    if not np.isfinite(s).all():
        raise InvalidInputError("spectrum contains non-finite values")
    if not 1 <= max_rank <= s.size:
        raise InvalidInputError(f"max_rank={max_rank} out of range for {s.size} values")
    if s[0] <= 0.0:
        raise InvalidInputError("spectrum is degenerate (all zero)")
    return 1 + int(np.argmax([gap_ratio(s, i) for i in range(1, max_rank + 1)]))


def gap_ratio(singular_values: np.ndarray, rank: int) -> float:
    """The rank rule's ratio ``s_rank / max(s_{rank+1}, GAP_FLOOR * s_1)``
    (1-based; a missing ``s_{rank+1}`` counts as 0)."""
    s = singular_values
    nxt = s[rank] if rank < s.size else 0.0
    return float(s[rank - 1] / max(nxt, GAP_FLOOR * s[0]))
