"""Dense-matrix primitives, input checks, quantiles, and evaluation metrics.

Everything in this module is pure and operates on plain float64 numpy
arrays; values are never mutated after construction, so all functions are
safe to call concurrently.

Designs and stage-3 products are flattened row-major (``ravel``). Only
stage 2's R x R compressed coordinates use ``vec``, which stacks columns,
and ``unvec``, its inverse.
"""

import math
import numbers
from typing import NamedTuple, Sequence

import numpy as np

from .errors import InvalidInputError


class SvdResult(NamedTuple):
    """Compact SVD ``m = u @ diag(s) @ v.T`` with orthonormal u, v columns."""

    u: np.ndarray
    s: np.ndarray
    v: np.ndarray


def as_matrix(m, name: str = "matrix") -> np.ndarray:
    """Validate and return a finite 2-D float64 array."""
    m = np.asarray(m, dtype=np.float64)
    if m.ndim != 2 or m.shape[0] < 1 or m.shape[1] < 1:
        raise InvalidInputError(f"{name} must be a non-empty 2-D array, got shape {m.shape}")
    if not np.isfinite(m).all():
        raise InvalidInputError(f"{name} contains non-finite entries")
    return m


# The input checks of every public constructor and entry point. A bool is
# neither an integer nor a number here, although Python counts it as both.

def check_int(value, name: str, minimum: int = 0) -> int:
    """Return `value` as an int if it is an integer of at least `minimum`."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < minimum:
        raise InvalidInputError(f"{name} must be an integer >= {minimum}, got {value!r}")
    return int(value)


def check_finite(value, name: str) -> float:
    """Return `value` as a float if it is a finite number >= 0."""
    if (isinstance(value, bool) or not isinstance(value, numbers.Real)
            or not (math.isfinite(value) and value >= 0)):
        raise InvalidInputError(f"{name} must be a finite number >= 0, got {value!r}")
    return float(value)


def check_seq(value, name: str) -> tuple:
    """Return `value` as a tuple if it can be iterated."""
    try:
        return tuple(value)
    except TypeError:
        raise InvalidInputError(f"{name} must be a sequence, got {value!r}") from None


def vec(m: np.ndarray) -> np.ndarray:
    """Column-major vectorization of a matrix."""
    return np.asarray(m).reshape(-1, order="F")


def unvec(v: np.ndarray, rows: int) -> np.ndarray:
    """Inverse of :func:`vec` for a square `rows` x `rows` matrix."""
    v = np.asarray(v, dtype=np.float64)
    if v.size != rows * rows:
        raise InvalidInputError(f"cannot reshape length {v.size} into {rows}x{rows}")
    return v.reshape((rows, rows), order="F")


def svd(m) -> SvdResult:
    """Deterministic compact dense SVD.

    Sign convention: each left singular vector is flipped so that its
    largest-magnitude entry is positive (the right vector follows so the
    reconstruction is unchanged). Singular values come back descending with
    LAPACK's stable ordering for ties.
    """
    m = as_matrix(m)
    try:
        u, s, vt = np.linalg.svd(m, full_matrices=False)
    except np.linalg.LinAlgError:
        # gesdd occasionally fails to converge; gesvd is slower but sturdier.
        # scipy loads only here, so that importing mixsense stays quick.
        import scipy.linalg

        u, s, vt = scipy.linalg.svd(m, full_matrices=False, lapack_driver="gesvd")
    anchors = np.argmax(np.abs(u), axis=0)
    signs = np.where(u[anchors, np.arange(u.shape[1])] < 0.0, -1.0, 1.0)
    return SvdResult(u * signs, s, (vt * signs[:, None]).T)


def finite_quantile(values: Sequence[float], alpha: float) -> float:
    """Alpha-quantile of a finite multiset: the smallest element t with
    ``#{x <= t} / m >= alpha`` (an order statistic, no interpolation)."""
    vals = np.asarray(values, dtype=np.float64).ravel()
    if vals.size == 0:
        raise InvalidInputError("quantile of an empty collection")
    if not np.isfinite(vals).all():
        raise InvalidInputError("quantile input contains non-finite values")
    if not (0.0 < alpha <= 1.0):
        raise InvalidInputError(f"alpha must lie in (0, 1], got {alpha}")
    m = vals.size
    j = min(max(math.ceil(alpha * m), 1), m)
    # guard the ceil against float round-off in alpha * m
    while j > 1 and (j - 1) / m >= alpha:
        j -= 1
    while j < m and j / m < alpha:
        j += 1
    return float(np.partition(vals, j - 1)[j - 1])


def rel_fro_error(m, mstar) -> float:
    """Relative Frobenius error ||m - mstar||_F / ||mstar||_F."""
    m = as_matrix(m, "m")
    mstar = as_matrix(mstar, "mstar")
    if m.shape != mstar.shape:
        raise InvalidInputError(f"shape mismatch {m.shape} vs {mstar.shape}")
    denom = np.linalg.norm(mstar)
    if denom == 0.0:
        raise InvalidInputError("reference matrix has zero Frobenius norm")
    return float(np.linalg.norm(m - mstar) / denom)


def check_orthonormal(q: np.ndarray, tol: float = 1e-8, name: str = "matrix") -> np.ndarray:
    q = as_matrix(q, name)
    k = q.shape[1]
    resid = np.linalg.norm(q.T @ q - np.eye(k))
    if resid > tol * math.sqrt(k):
        raise InvalidInputError(f"{name} columns are not orthonormal (residual {resid:.3e})")
    return q


def subspace_distance(u_hat, u_star) -> float:
    """Spectral norm of the difference of the two orthogonal projectors.

    Symmetric in its arguments and invariant under right-multiplication of
    either basis by an orthogonal matrix.
    """
    u_hat = check_orthonormal(u_hat, name="u_hat")
    u_star = check_orthonormal(u_star, name="u_star")
    if u_hat.shape[0] != u_star.shape[0]:
        raise InvalidInputError("bases must live in the same ambient space")
    diff = u_hat @ u_hat.T - u_star @ u_star.T
    return float(np.linalg.norm(diff, 2))
