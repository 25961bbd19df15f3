"""Stage 2: compress measurements into the estimated joint subspaces, solve
the low-dimensional mixed regression, and lift the solutions to low-rank
factor initializations."""

from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from . import core, spectral
from .errors import InvalidInputError, NumericalError
from .mlr_tensor import MlrEstimate, VecSamples, solve_mlr
from .spectral import SubspaceEstimate
from .synth import Dataset


@dataclass(frozen=True)
class FactorPair:
    """Low-rank factorization candidate: product ``l @ r.T``."""

    l: np.ndarray  # (n1, rank)
    r: np.ndarray  # (n2, rank)

    def __post_init__(self):
        object.__setattr__(self, "l", np.asarray(self.l, dtype=np.float64))
        object.__setattr__(self, "r", np.asarray(self.r, dtype=np.float64))
        if self.l.ndim != 2 or self.r.ndim != 2 or self.l.shape[1] != self.r.shape[1]:
            raise InvalidInputError(
                f"factor shapes {self.l.shape} and {self.r.shape} are inconsistent"
            )
        if not (np.isfinite(self.l).all() and np.isfinite(self.r).all()):
            raise InvalidInputError("factors contain non-finite entries")

    def product(self) -> np.ndarray:
        return self.l @ self.r.T


def compress_samples(dataset: Dataset, sub: SubspaceEstimate) -> VecSamples:
    """Project each design into the estimated subspaces.

    Sample i becomes ``a_i = vec(u.T @ A_i @ v)`` (column-major vec), and the
    target passes through, so the batch is an R^2-dimensional regression
    problem.
    """
    if sub.u.shape[0] != dataset.n1 or sub.v.shape[0] != dataset.n2:
        raise InvalidInputError("subspace dimensions do not match the dataset")
    R = sub.r_joint
    a = np.empty((dataset.N, R * R))
    for lo, hi, rows in dataset.iter_design_blocks():
        block = rows.reshape(hi - lo, dataset.n1, dataset.n2)
        small = sub.u.T @ (block @ sub.v)
        # row-major reshape of the transpose == column-major vec
        a[lo:hi] = small.transpose(0, 2, 1).reshape(hi - lo, R * R)
    return VecSamples(a=a, y=dataset.y)


def lift_and_factor(beta_hat: np.ndarray, sub: SubspaceEstimate, r_k: int) -> FactorPair:
    """Matricize a compressed solution, lift it back to the full space, and
    split its best rank-`r_k` approximation into balanced factors."""
    R = sub.r_joint
    if not 1 <= r_k <= R:
        raise InvalidInputError(f"component rank {r_k} out of range for R={R}")
    s_mat = core.unvec(np.asarray(beta_hat, dtype=np.float64), R)
    # SVD of u @ s_mat @ v.T via the small core: the lifted singular vectors
    # are u/v times those of s_mat because the bases are orthonormal
    res = core.svd(s_mat)
    if res.s[0] <= 0.0 or res.s[r_k - 1] < 1e-14 * res.s[0]:
        raise NumericalError(
            f"lifted matrix supports rank < {r_k} (spectrum {res.s[:r_k]})"
        )
    root = np.sqrt(res.s[:r_k])
    return FactorPair(l=(sub.u @ res.u[:, :r_k]) * root, r=(sub.v @ res.v[:, :r_k]) * root)


@dataclass(frozen=True)
class InitializationResult:
    """The lifted factors, the mixed-regression estimate, and the signed
    residuals ``<A_i, l r^T> - y_i`` of each lifted product, one row per
    component, over the dataset that stage 2 read."""

    factors: List[FactorPair]
    mlr: MlrEstimate
    residuals: np.ndarray  # (K, N)


def initialize_all(
    dataset: Dataset,
    sub: SubspaceEstimate,
    k_components: int,
    ranks: Optional[Sequence[int]],
    seed,
) -> InitializationResult:
    """Compress, solve the mixed regression, and lift every component.

    When `ranks` is None, each rank is estimated by
    :func:`spectral.estimate_rank` from the singular values of the
    component's compressed R x R solution, scanning up to R. Components
    come back in the extraction order of the tensor method; alignment to
    any ground truth is the caller's concern.

    The residuals need no design read: a lifted product lies in the
    subspaces, so ``<A_i, l r^T> = <a_i, vec((u^T l)(v^T r)^T)>`` up to
    rounding, and each component's row depends only on its own factors.
    """
    if ranks is not None and len(ranks) != k_components:
        raise InvalidInputError(f"{len(ranks)} ranks given for k_components={k_components}")
    samples = compress_samples(dataset, sub)
    mlr = solve_mlr(samples, K=k_components, seed=seed)
    if ranks is None:
        R = sub.r_joint
        ranks = [
            spectral.estimate_rank(np.linalg.svd(core.unvec(b, R), compute_uv=False), max_rank=R)
            for b in mlr.betas
        ]
    factors = [
        lift_and_factor(mlr.betas[k], sub, int(ranks[k])) for k in range(k_components)
    ]
    residuals = np.empty((k_components, dataset.N))
    for f, row in zip(factors, residuals):
        np.matmul(samples.a, core.vec((sub.u.T @ f.l) @ (sub.v.T @ f.r).T), out=row)
    residuals -= samples.y
    return InitializationResult(factors=factors, mlr=mlr, residuals=residuals)
