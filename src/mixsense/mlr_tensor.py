"""Mixed linear regression via the method of moments and a robust tensor
power method.

Pipeline: split the samples in two halves, whiten with the rank-K part of
the first half's second moment, form the second half's third moment directly
in the whitened K-dimensional coordinates (never the d x d x d tensor, so
memory is O(N d)), decompose it into K eigenpairs by deflated power
iteration, and map them back to regression vectors and mixture weights.
"""

import warnings
from dataclasses import dataclass
from typing import List, NamedTuple, Optional, Tuple

import numpy as np

from . import core
from .errors import (
    DegenerateMomentError,
    DegenerateWhiteningError,
    InvalidInputError,
    RankCollapseError,
)

WEIGHT_FLAG_THRESHOLD = 1.5


class VecSamples(NamedTuple):
    """A batch of vector regression samples: designs (N, d) and targets (N,)."""

    a: np.ndarray
    y: np.ndarray

    @property
    def n(self) -> int:
        return int(self.y.size)

    @property
    def dim(self) -> int:
        return int(self.a.shape[1])


class Whitening(NamedTuple):
    w: np.ndarray        # (d, K) map with w.T @ m2 @ w = I_K
    ratio: float         # s_K / s_1 of m2, the whitening conditioning


class MomentSet(NamedTuple):
    m0: float            # mean squared target
    m1: np.ndarray       # (d,) scaled third-order vector moment
    m2: np.ndarray       # (d, d) centered second moment
    whitening: Whitening
    t3: np.ndarray       # (K, K, K) corrected third moment in whitened coordinates


@dataclass(frozen=True)
class MlrEstimate:
    """K recovered regression vectors with mixture weights.

    Component order is the extraction order of the tensor power method (a
    global permutation of the truth is inherent to the problem). A weight is
    flagged when it exceeds 1.5, which finite-sample noise can produce.
    """

    betas: np.ndarray         # (K, d)
    weights: np.ndarray       # (K,)
    weight_flagged: np.ndarray  # (K,) bool
    whitening_ratio: float    # s_K / s_1 of the whitened second moment


def _check_samples(samples: VecSamples) -> VecSamples:
    a = np.asarray(samples.a, dtype=np.float64)
    y = np.asarray(samples.y, dtype=np.float64).ravel()
    if a.ndim != 2 or a.shape[0] != y.size or a.shape[1] < 1:
        raise InvalidInputError(f"inconsistent sample arrays: a {a.shape}, y {y.shape}")
    if not (np.isfinite(a).all() and np.isfinite(y).all()):
        raise InvalidInputError("samples contain non-finite values")
    return VecSamples(a, y)


def split_samples(samples: VecSamples, seed) -> Tuple[VecSamples, VecSamples]:
    """Bernoulli(0.5) split into two disjoint halves.

    If either half comes out empty the split is retried with an incremented
    sub-seed, up to 8 times.
    """
    samples = _check_samples(samples)
    if samples.n < 2:
        raise InvalidInputError("need at least 2 samples to split")
    for attempt in range(8):
        rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(attempt,)))
        mask = rng.random(samples.n) < 0.5
        if mask.any() and (~mask).any():
            return (
                VecSamples(samples.a[mask], samples.y[mask]),
                VecSamples(samples.a[~mask], samples.y[~mask]),
            )
    raise InvalidInputError("sample split degenerate after 8 attempts")


def third_moment_correction(m: np.ndarray, gram: Optional[np.ndarray] = None) -> np.ndarray:
    """Symmetric tensor with entry (a, b, c) ``m_a G_bc + m_b G_ac + m_c G_ab``
    for a Gram matrix G, the identity when None. ``(W^T m, W^T W)`` gives the
    identity-Gram tensor of m contracted by W along all three modes."""
    m = np.asarray(m, dtype=np.float64).ravel()
    g = np.eye(m.size) if gram is None else np.asarray(gram, dtype=np.float64)
    if g.shape != (m.size, m.size):
        raise InvalidInputError(f"Gram shape {g.shape} mismatches vector dim {m.size}")
    return (
        np.einsum("a,bc->abc", m, g)
        + np.einsum("b,ac->abc", m, g)
        + np.einsum("c,ab->abc", m, g)
    )


def third_moment(samples: VecSamples, m1: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Corrected third moment contracted by `w` (d x K) along all three modes:
    ``sum_i y_i^3 b_i x b_i x b_i / (6 n) - third_moment_correction(w^T m1,
    w^T w)`` with ``b_i = w^T a_i``, from an (n, K^2) array. ``w = I`` gives
    the full d x d x d moment."""
    samples = _check_samples(samples)
    w = core.as_matrix(w, "whitening matrix")
    if w.shape[0] != samples.dim:
        raise InvalidInputError(f"map shape {w.shape} mismatches sample dim {samples.dim}")
    K = w.shape[1]
    b = samples.a @ w
    outer = (b[:, :, None] * b[:, None, :]).reshape(samples.n, K * K)
    raw = ((b * samples.y[:, None] ** 3).T @ outer).reshape(K, K, K) / (6.0 * samples.n)
    return raw - third_moment_correction(w.T @ m1, w.T @ w)


def moments(set1: VecSamples, set2: VecSamples, K: int) -> MomentSet:
    """Moment estimates; `set1` feeds the even moments (m0, m2) and `set2`
    the odd ones (m1 and the third moment), mirroring the sample split. The
    third moment comes whitened by the rank-K map of m2."""
    set1, set2 = _check_samples(set1), _check_samples(set2)
    if set1.dim != set2.dim:
        raise InvalidInputError("sample halves have different dimensions")
    y1sq = set1.y**2
    m0 = float(np.mean(y1sq))
    m1 = (set2.y**3 @ set2.a) / (6.0 * set2.n)
    m2 = (set1.a * y1sq[:, None]).T @ set1.a / (2.0 * set1.n) - 0.5 * m0 * np.eye(set1.dim)
    whitening = whiten(m2, K)
    return MomentSet(m0=m0, m1=m1, m2=m2, whitening=whitening,
                     t3=third_moment(set2, m1, whitening.w))


def whiten(m2: np.ndarray, K: int) -> Whitening:
    """Whitening map W = U diag(s)^(-1/2) from the rank-K SVD of m2, so that
    W.T @ m2 @ W is the K x K identity for an exactly rank-K PSD input."""
    m2 = core.as_matrix(m2, "m2")
    d = m2.shape[0]
    if m2.shape != (d, d) or not 1 <= K <= d:
        raise InvalidInputError(f"need square m2 and 1 <= K <= d, got {m2.shape}, K={K}")
    res = core.svd(m2)
    if res.s[0] <= 0.0:
        raise RankCollapseError("second moment is identically zero")
    ratio = float(res.s[K - 1] / res.s[0])
    if res.s[K - 1] <= 1e-10 * res.s[0]:
        raise DegenerateMomentError(f"second moment rank below K={K}: spectrum ratio {ratio:.2e}")
    return Whitening(w=res.u[:, :K] / np.sqrt(res.s[:K]), ratio=ratio)


def robust_tensor_power(
    t3: np.ndarray,
    K: int,
    restarts: int,
    iters: int,
    seed,
) -> List[Tuple[float, np.ndarray]]:
    """Deflated power iteration extracting K eigenpairs of a symmetric
    third-order tensor.

    Each round runs `restarts` random unit starts for `iters` iterations of
    ``u <- normalize(t3(I, u, u))``, keeps the candidate with the largest
    value (ties to the earliest restart), flips the sign so the eigenvalue
    is positive, and deflates. Pairs come back in extraction order.
    """
    if restarts < 1 or iters < 1:
        raise InvalidInputError("restarts and iters must be >= 1")
    t3 = np.asarray(t3, dtype=np.float64).copy()
    d = t3.shape[0]
    rng = np.random.default_rng(seed)
    pairs: List[Tuple[float, np.ndarray]] = []
    for _ in range(K):
        tmat = t3.reshape(d, d * d)
        best_lam, best_u = -np.inf, None
        for _ in range(restarts):
            u = rng.standard_normal(d)
            u /= np.linalg.norm(u)
            for _ in range(iters):
                mapped = tmat @ np.outer(u, u).ravel()
                norm = np.linalg.norm(mapped)
                if norm < 1e-300:
                    break
                u = mapped / norm
            lam = float((tmat @ np.outer(u, u).ravel()) @ u)
            if lam < 0.0:
                lam, u = -lam, -u
            if lam > best_lam:
                best_lam, best_u = lam, u
        if best_u is None or best_lam < 1e-12:
            raise RankCollapseError(
                f"power method found no component after {len(pairs)} extractions"
            )
        pairs.append((best_lam, best_u))
        t3 -= best_lam * np.einsum("i,j,k->ijk", best_u, best_u, best_u)
    return pairs


def unwhiten(pairs: List[Tuple[float, np.ndarray]], whitening: Whitening) -> MlrEstimate:
    """Map whitened eigenpairs back to weights and regression vectors:
    ``weight = 1 / lam^2`` and ``beta = lam * w (w^T w)^(-1) u``."""
    w = core.as_matrix(whitening.w, "whitening matrix")
    sv = np.linalg.svd(w, compute_uv=False)
    if sv[0] == 0.0 or (sv[-1] / sv[0]) ** 2 <= 1e-12:
        raise DegenerateWhiteningError("whitening matrix Gram is numerically singular")
    pinv = w @ np.linalg.inv(w.T @ w)
    lams = np.array([lam for lam, _ in pairs])
    if (lams <= 0.0).any():
        raise InvalidInputError("eigenvalues must be positive after sign fixing")
    betas = np.stack([lam * (pinv @ u) for lam, u in pairs])
    weights = 1.0 / lams**2
    flagged = weights > WEIGHT_FLAG_THRESHOLD
    if flagged.any():
        warnings.warn(
            f"{int(flagged.sum())} mixture weight(s) exceed {WEIGHT_FLAG_THRESHOLD}; "
            "estimates kept but flagged",
            RuntimeWarning,
        )
    return MlrEstimate(betas=betas, weights=weights, weight_flagged=flagged,
                       whitening_ratio=whitening.ratio)


def solve_mlr(
    samples: VecSamples,
    K: int,
    seed,
    restarts: Optional[int] = None,
    iters: int = 100,
) -> MlrEstimate:
    """Full mixed-linear-regression solve on one batch of samples."""
    samples = _check_samples(samples)
    if K < 1:
        raise InvalidInputError("K must be >= 1")
    restarts = 10 + 2 * K if restarts is None else restarts
    split_seed, power_seed = np.random.SeedSequence(entropy=seed).generate_state(2, np.uint64)
    half1, half2 = split_samples(samples, int(split_seed))
    mom = moments(half1, half2, K)
    pairs = robust_tensor_power(mom.t3, K, restarts=restarts, iters=iters, seed=int(power_seed))
    return unwhiten(pairs, mom.whitening)
