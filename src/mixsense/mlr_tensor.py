"""Mixed linear regression via the method of moments and a robust tensor
power method.

Pipeline: split the samples in two halves by a mask, whiten with the rank-K
part of the first half's second moment, form the second half's third moment
in the whitened K-dimensional coordinates (never the d x d x d tensor, and
no copy of either half), decompose it into K eigenpairs by deflated power
iteration, and map them back to regression vectors and mixture weights.
"""

import warnings
from dataclasses import dataclass
from typing import List, NamedTuple, Optional, Tuple

import numpy as np

from . import core
from .errors import InvalidInputError, NumericalError
from .synth import BLOCK

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
    weights: np.ndarray       # (K,), 1 / eigenvalues**2
    eigenvalues: np.ndarray   # (K,) tensor eigenvalues lam, in extraction order
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


def split_mask(n: int, seed) -> np.ndarray:
    """Bernoulli(0.5) split of n samples in two halves, as a boolean mask
    that is True on the first half.

    If either half comes out empty the draw is retried with an incremented
    sub-seed, up to 8 times.
    """
    if n < 2:
        raise InvalidInputError("need at least 2 samples to split")
    for attempt in range(8):
        rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(attempt,)))
        mask = rng.random(n) < 0.5
        if mask.any() and not mask.all():
            return mask
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


def _third_moment(a: np.ndarray, cubes: np.ndarray, m1, w, n: int) -> np.ndarray:
    """Corrected third moment contracted by `w` (d x K) along all three modes:
    ``sum_i cubes_i b_i x b_i x b_i / (6 n) - third_moment_correction(w^T m1,
    w^T w)`` with ``b_i = w^T a_i``, summed over `BLOCK`-row chunks of `a`.
    ``cubes = y**3`` and ``w = I`` give the full d x d x d moment."""
    K = w.shape[1]
    raw = np.zeros((K, K * K))
    for lo in range(0, cubes.size, BLOCK):
        b = a[lo : lo + BLOCK] @ w
        outer = (b[:, :, None] * b[:, None, :]).reshape(len(b), K * K)
        raw += (b * cubes[lo : lo + BLOCK, None]).T @ outer
    return raw.reshape(K, K, K) / (6.0 * n) - third_moment_correction(w.T @ m1, w.T @ w)


def moments(samples: VecSamples, mask: np.ndarray, K: int) -> MomentSet:
    """Moment estimates from one sample array split by a boolean `mask` (see
    `split_mask`): its True samples feed the even moments (m0, m2), the rest
    the odd ones (m1 and the third moment, whitened by the rank-K map of m2).
    Each sum zero-weights the samples outside its half instead of copying."""
    samples = _check_samples(samples)
    mask = np.asarray(mask)
    n1 = int(np.count_nonzero(mask))
    n2 = samples.n - n1
    if mask.dtype != bool or mask.shape != (samples.n,) or not 0 < n1 < samples.n:
        raise InvalidInputError(f"need a ({samples.n},) boolean mask splitting the samples in two")
    a, y = samples
    y1 = np.where(mask, y, 0.0)
    cubes = np.where(mask, 0.0, y**3)
    m0 = float(y1 @ y1) / n1
    m1 = (cubes @ a) / (6.0 * n2)
    m2 = np.zeros((samples.dim, samples.dim))
    for lo in range(0, samples.n, BLOCK):
        scaled = a[lo : lo + BLOCK] * y1[lo : lo + BLOCK, None]
        m2 += scaled.T @ scaled
    m2 = m2 / (2.0 * n1) - 0.5 * m0 * np.eye(samples.dim)
    whitening = whiten(m2, K)
    return MomentSet(m0=m0, m1=m1, m2=m2, whitening=whitening,
                     t3=_third_moment(a, cubes, m1, whitening.w, n2))


def whiten(m2: np.ndarray, K: int) -> Whitening:
    """Whitening map W = U diag(s)^(-1/2) from the rank-K SVD of m2, so that
    W.T @ m2 @ W is the K x K identity for an exactly rank-K PSD input."""
    m2 = core.as_matrix(m2, "m2")
    d = m2.shape[0]
    if m2.shape != (d, d) or not 1 <= K <= d:
        raise InvalidInputError(f"need square m2 and 1 <= K <= d, got {m2.shape}, K={K}")
    res = core.svd(m2)
    if res.s[0] <= 0.0:
        raise NumericalError("second moment is identically zero")
    ratio = float(res.s[K - 1] / res.s[0])
    if res.s[K - 1] <= 1e-10 * res.s[0]:
        raise NumericalError(f"second moment rank below K={K}: spectrum ratio {ratio:.2e}")
    return Whitening(w=res.u[:, :K] / np.sqrt(res.s[:K]), ratio=ratio)


def _images(tmat: np.ndarray, u: np.ndarray) -> np.ndarray:
    """``t3(I, u, u)`` for each row of `u`, one GEMM with ``tmat = t3.reshape(d, d*d)``."""
    return (u[:, :, None] * u[:, None, :]).reshape(len(u), -1) @ tmat.T


def _power_round(tmat: np.ndarray, u: np.ndarray, iters: int) -> Tuple[np.ndarray, np.ndarray]:
    """`iters` steps of ``u <- normalize(t3(I, u, u))`` on every row of `u` (unit
    starts, updated in place) at once; a restart stops for good at an image norm
    below 1e-300. Returns each eigenvalue and vector, signed so the value >= 0."""
    live = np.ones(len(u), dtype=bool)
    for _ in range(iters):
        mapped = _images(tmat, u)
        norm = np.linalg.norm(mapped, axis=1)
        live &= norm >= 1e-300
        u[live] = mapped[live] / norm[live, None]
    lams = np.einsum("rd,rd->r", _images(tmat, u), u)
    return np.abs(lams), u * np.where(lams < 0.0, -1.0, 1.0)[:, None]


def robust_tensor_power(
    t3: np.ndarray,
    K: int,
    restarts: int,
    iters: int,
    seed,
) -> List[Tuple[float, np.ndarray]]:
    """Deflated power iteration extracting K eigenpairs of a symmetric
    third-order tensor.

    Each round runs `restarts` random unit starts, drawn as one
    ``(restarts, d)`` block, for `iters` iterations (:func:`_power_round`),
    keeps the candidate with the largest value (ties to the earliest
    restart), and deflates. Pairs come back in extraction order.
    """
    t3 = np.asarray(t3, dtype=np.float64).copy()
    d = t3.shape[0]
    rng = np.random.default_rng(seed)
    pairs: List[Tuple[float, np.ndarray]] = []
    for _ in range(K):
        starts = rng.standard_normal((restarts, d))
        starts /= np.linalg.norm(starts, axis=1, keepdims=True)
        lams, us = _power_round(t3.reshape(d, d * d), starts, iters)
        best = int(np.argmax(lams))
        if not lams[best] >= 1e-12:
            raise NumericalError(
                f"power method found no component after {len(pairs)} extractions"
            )
        lam, u = float(lams[best]), us[best]
        pairs.append((lam, u))
        t3 -= lam * np.einsum("i,j,k->ijk", u, u, u)
    return pairs


def unwhiten(pairs: List[Tuple[float, np.ndarray]], whitening: Whitening) -> MlrEstimate:
    """Map whitened eigenpairs back to weights and regression vectors:
    ``weight = 1 / lam^2`` and ``beta = lam * w (w^T w)^(-1) u``. The
    pairs of :func:`robust_tensor_power` have ``lam >= 1e-12``, and the `w`
    of :func:`whiten` has a Gram matrix with condition ratio above 1e-10."""
    w = whitening.w
    pinv = w @ np.linalg.inv(w.T @ w)
    lams = np.array([lam for lam, _ in pairs])
    betas = np.stack([lam * (pinv @ u) for lam, u in pairs])
    weights = 1.0 / lams**2
    flagged = weights > WEIGHT_FLAG_THRESHOLD
    if flagged.any():
        warnings.warn(
            f"{int(flagged.sum())} mixture weight(s) exceed {WEIGHT_FLAG_THRESHOLD}; "
            "estimates kept but flagged",
            RuntimeWarning,
        )
    return MlrEstimate(betas=betas, weights=weights, eigenvalues=lams, weight_flagged=flagged,
                       whitening_ratio=whitening.ratio)


def solve_mlr(samples: VecSamples, K: int, seed) -> MlrEstimate:
    """Full mixed-linear-regression solve on one batch of samples, with
    10 + 2K power restarts of 100 iterations per extraction. The samples
    are checked once, by :func:`moments`."""
    split_seed, power_seed = np.random.SeedSequence(entropy=seed).generate_state(2, np.uint64)
    mom = moments(samples, split_mask(np.size(samples.y), int(split_seed)), K)
    pairs = robust_tensor_power(mom.t3, K, restarts=10 + 2 * K, iters=100, seed=int(power_seed))
    return unwhiten(pairs, mom.whitening)
