"""Stage 2: compress measurements into the estimated joint subspaces, solve
the low-dimensional mixed regression, and lift the solutions to low-rank
factor initializations."""

from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from . import core, spectral
from .errors import InvalidInputError, RankDeficientInitError
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

    @property
    def rank(self) -> int:
        return int(self.l.shape[1])

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
    return VecSamples(a=a, y=dataset.y.copy())


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
        raise RankDeficientInitError(
            f"lifted matrix supports rank < {r_k} (spectrum {res.s[:r_k]})"
        )
    root = np.sqrt(res.s[:r_k])
    return FactorPair(l=(sub.u @ res.u[:, :r_k]) * root, r=(sub.v @ res.v[:, :r_k]) * root)


def estimate_component_ranks(s_hats: Sequence[np.ndarray]) -> List[int]:
    """Spectral-gap rank estimate for each compressed component matrix.

    A rank of 0 marks a degenerate (all-zero) spectrum.
    """
    ranks = []
    for s_hat in s_hats:
        s_hat = core.as_matrix(s_hat, "compressed component")
        if s_hat.shape[0] != s_hat.shape[1]:
            raise InvalidInputError(f"expected square input, got {s_hat.shape}")
        s = np.linalg.svd(s_hat, compute_uv=False)
        ranks.append(spectral.estimate_rank(s, max_rank=s.size))
    return ranks


@dataclass(frozen=True)
class InitializationResult:
    factors: List[FactorPair]
    mlr: MlrEstimate


def initialize_all(
    dataset: Dataset,
    sub: SubspaceEstimate,
    ranks: Optional[Sequence[int]],
    seed,
    k_components: Optional[int] = None,
) -> InitializationResult:
    """Compress, solve the mixed regression, and lift every component.

    When `ranks` is None, `k_components` components are extracted and each
    rank is estimated from its compressed solution by
    :func:`estimate_component_ranks`. Components come back in the
    extraction order of the tensor method; alignment to any ground truth is
    the caller's concern.
    """
    if ranks is not None:
        if k_components not in (None, len(ranks)):
            raise InvalidInputError(f"{len(ranks)} ranks given for k_components={k_components}")
        k_components = len(ranks)
    elif k_components is None:
        raise InvalidInputError("need ranks or k_components")
    samples = compress_samples(dataset, sub)
    mlr = solve_mlr(samples, K=k_components, seed=seed)
    if ranks is None:
        s_hats = [core.unvec(b, sub.r_joint) for b in mlr.betas]
        ranks = estimate_component_ranks(s_hats)
        if any(r == 0 for r in ranks):
            raise InvalidInputError(f"degenerate component spectrum, ranks {ranks}")
    factors = [
        lift_and_factor(mlr.betas[k], sub, int(ranks[k])) for k in range(k_components)
    ]
    return InitializationResult(factors=factors, mlr=mlr)
