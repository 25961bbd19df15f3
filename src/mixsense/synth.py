"""Synthetic planted problems: ground truths, mixed Gaussian measurements,
and incoherence diagnostics.

Randomness layout. Every dataset is derived from one integer master seed:

* label shuffle     -> ``SeedSequence(seed, spawn_key=(0,))``
* sample i          -> ``SeedSequence(seed, spawn_key=(1, i))``, which first
  yields the ``n1*n2`` design entries (row-major) and then one standard
  normal used for the measurement noise.

Because each sample owns an independent stream, a dataset can either store
its designs densely or regenerate them on demand ("streamed" mode) with
bit-identical results, and generation is parallelizable over samples.
"""

from dataclasses import dataclass, field
from typing import Iterator, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from .core import as_matrix
from .errors import InvalidInputError

# Fixed block length for all chunked passes over a dataset. Consumers must
# iterate via Dataset.iter_design_blocks so that accumulation order (and
# hence floating-point rounding) is identical in stored and streamed modes.
BLOCK = 1024

# Default "stored" budget: keep designs dense while N * n1 * n2 stays below
# this entry count (~3.2 GB of float64).
DEFAULT_STORED_BUDGET = 400_000_000


@dataclass(frozen=True)
class Component:
    """One planted low-rank component with its mixture proportion."""

    u_star: np.ndarray      # (n1, r) orthonormal columns
    sigma_star: np.ndarray  # (r,) positive, descending
    v_star: np.ndarray      # (n2, r) orthonormal columns
    p: float                # proportion in (0, 1]
    r: int


@dataclass(frozen=True)
class GroundTruth:
    n1: int
    n2: int
    components: Tuple[Component, ...]

    @property
    def K(self) -> int:
        return len(self.components)

    @property
    def ranks(self) -> List[int]:
        return [c.r for c in self.components]

    @property
    def proportions(self) -> List[float]:
        return [c.p for c in self.components]

    @property
    def max_rank(self) -> int:
        return max(c.r for c in self.components)

    def matrix(self, k: int) -> np.ndarray:
        c = self.components[k]
        return c.u_star @ (c.sigma_star[:, None] * c.v_star.T)

    def matrices(self) -> List[np.ndarray]:
        return [self.matrix(k) for k in range(self.K)]

    def balance_ratio(self) -> float:
        """Ratio of the largest to smallest component Frobenius norm."""
        norms = [float(np.linalg.norm(c.sigma_star)) for c in self.components]
        return max(norms) / min(norms)


def _rng_for_sample(seed: int, i: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(1, i)))


def random_orthonormal(n: int, r: int, seed) -> np.ndarray:
    """Haar-ish random n x r matrix with orthonormal columns.

    QR of an i.i.d. standard Gaussian matrix with the R-diagonal signs made
    positive, so the result is deterministic for a fixed seed.
    """
    if r > n or r < 1:
        raise InvalidInputError(f"need 1 <= r <= n, got r={r}, n={n}")
    rng = np.random.default_rng(seed)
    q, rr = np.linalg.qr(rng.standard_normal((n, r)))
    return q * np.where(np.diag(rr) < 0.0, -1.0, 1.0)


def make_ground_truth(
    n1: int,
    n2: int,
    ranks: Sequence[int],
    proportions: Sequence[float],
    spectra: Sequence[Sequence[float]],
    seed: int,
) -> GroundTruth:
    """Build a planted mixture with random component subspaces.

    Component k draws its column and row bases from independent substreams
    of `seed`, so the whole object is reproducible.
    """
    K = len(ranks)
    if not (len(proportions) == len(spectra) == K) or K < 1:
        raise InvalidInputError("ranks, proportions, spectra must have equal nonzero length")
    if abs(sum(proportions) - 1.0) > 1e-9:
        raise InvalidInputError(f"proportions sum to {sum(proportions)!r}, expected 1")
    comps = []
    for k in range(K):
        r, p = int(ranks[k]), float(proportions[k])
        spec = np.asarray(spectra[k], dtype=np.float64)
        if r < 1 or r > min(n1, n2):
            raise InvalidInputError(f"component {k}: rank {r} out of range")
        if not (0.0 < p < 1.0 or (p == 1.0 and K == 1)):
            raise InvalidInputError(f"component {k}: proportion {p} out of range")
        if spec.shape != (r,) or not (spec > 0).all() or (np.diff(spec) > 0).any():
            raise InvalidInputError(f"component {k}: spectrum must be positive and descending")
        u = random_orthonormal(n1, r, np.random.SeedSequence(entropy=seed, spawn_key=(k, 0)))
        v = random_orthonormal(n2, r, np.random.SeedSequence(entropy=seed, spawn_key=(k, 1)))
        comps.append(Component(u_star=u, sigma_star=spec, v_star=v, p=p, r=r))
    return GroundTruth(n1=n1, n2=n2, components=tuple(comps))


def incoherence(gt: GroundTruth) -> float:
    """Largest normalized cross-correlation between distinct component
    subspaces (0 when there is a single component)."""
    if gt.K == 1:
        return 0.0
    r = gt.max_rank
    mu = 0.0
    for i in range(gt.K):
        for j in range(i + 1, gt.K):
            cu = np.linalg.norm(gt.components[i].u_star.T @ gt.components[j].u_star)
            cv = np.linalg.norm(gt.components[i].v_star.T @ gt.components[j].v_star)
            mu = max(mu, cu * np.sqrt(gt.n1) / r, cv * np.sqrt(gt.n2) / r)
    return float(mu)


class Assumption1Check(NamedTuple):
    holds: bool
    mu: float
    bound: float


def check_assumption1(gt: GroundTruth) -> Assumption1Check:
    """Weak-correlation check: incoherence against its admissible bound
    ``sqrt(min(n1,n2)) / (2 r max(K, sqrt(K) * balance))``."""
    mu = incoherence(gt)
    gamma = gt.balance_ratio()
    r = gt.max_rank
    bound = np.sqrt(min(gt.n1, gt.n2)) / (2.0 * r * max(gt.K, np.sqrt(gt.K) * gamma))
    return Assumption1Check(holds=bool(mu <= bound), mu=mu, bound=float(bound))


def _largest_remainder_counts(proportions: Sequence[float], N: int) -> np.ndarray:
    props = np.asarray(proportions, dtype=np.float64)
    base = np.floor(props * N).astype(np.int64)
    short = N - int(base.sum())
    # hand the leftover slots to the largest fractional parts, ties by index
    frac = props * N - base
    order = np.lexsort((np.arange(props.size), -frac))
    base[order[:short]] += 1
    return base


@dataclass
class Dataset:
    """N mixed linear measurements of a planted mixture.

    `hidden_labels` records which component generated each sample; it exists
    for evaluation only and is never read by the solver stages. In streamed
    mode `designs_flat` is None and design rows are regenerated on demand
    from `seed`.
    """

    n1: int
    n2: int
    sigma: float
    seed: int
    storage_mode: str
    y: np.ndarray
    hidden_labels: np.ndarray
    designs_flat: Optional[np.ndarray] = field(default=None, repr=False)

    def __post_init__(self):
        if self.storage_mode not in ("stored", "streamed"):
            raise InvalidInputError(f"unknown storage mode {self.storage_mode!r}")
        if self.storage_mode == "stored" and self.designs_flat is None:
            raise InvalidInputError("stored mode requires dense designs")
        self.y = np.asarray(self.y, dtype=np.float64)
        self.hidden_labels = np.asarray(self.hidden_labels, dtype=np.int64)
        if self.y.ndim != 1 or not np.isfinite(self.y).all():
            raise InvalidInputError("y must be a finite 1-D array")
        nn = self.n1 * self.n2
        if self.designs_flat is not None and self.designs_flat.shape != (self.y.size, nn):
            raise InvalidInputError(
                f"designs_flat has shape {self.designs_flat.shape}, expected ({self.y.size}, {nn})"
            )
        for arr in (self.y, self.hidden_labels, self.designs_flat):
            if arr is not None:
                arr.setflags(write=False)

    @property
    def N(self) -> int:
        return int(self.y.size)

    @property
    def entry_count(self) -> int:
        return self.N * self.n1 * self.n2

    def _regen_rows(self, indices: np.ndarray) -> np.ndarray:
        nn = self.n1 * self.n2
        out = np.empty((len(indices), nn))
        for j, i in enumerate(indices):
            out[j] = _rng_for_sample(self.seed, int(i)).standard_normal(nn)
        return out

    def design(self, i: int) -> np.ndarray:
        """Dense (n1, n2) design of sample i (a fresh array in either mode)."""
        if not 0 <= i < self.N:
            raise InvalidInputError(f"sample index {i} out of range")
        if self.designs_flat is not None:
            return self.designs_flat[i].reshape(self.n1, self.n2).copy()
        return self._regen_rows(np.array([i])).reshape(self.n1, self.n2)

    def design_rows(self, indices) -> np.ndarray:
        """Row-major vectorized designs for the given sample indices."""
        indices = np.asarray(indices, dtype=np.int64)
        if self.designs_flat is not None:
            return self.designs_flat[indices]
        return self._regen_rows(indices)

    def iter_design_blocks(self) -> Iterator[Tuple[int, int, np.ndarray]]:
        """Yield (lo, hi, rows) over fixed-size blocks in sample order."""
        for lo in range(0, self.N, BLOCK):
            hi = min(lo + BLOCK, self.N)
            if self.designs_flat is not None:
                yield lo, hi, self.designs_flat[lo:hi]
            else:
                yield lo, hi, self._regen_rows(np.arange(lo, hi))


def sample_dataset(
    gt: GroundTruth,
    N: int,
    sigma: float,
    seed: int,
    storage_mode: Optional[str] = None,
    stored_budget: int = DEFAULT_STORED_BUDGET,
) -> Dataset:
    """Draw N measurements from the planted mixture.

    Label counts follow the exact largest-remainder partition of the
    proportions (each count is floor or ceil of p_k * N) and are then
    globally shuffled. Designs have i.i.d. standard normal entries and
    ``y_i = <A_i, M_label(i)> + sigma * z_i``.
    """
    if N < gt.K:
        raise InvalidInputError(f"need at least K={gt.K} samples, got {N}")
    if not np.isfinite(sigma) or sigma < 0:
        raise InvalidInputError(f"sigma must be finite and >= 0, got {sigma}")
    counts = _largest_remainder_counts(gt.proportions, N)
    labels = np.repeat(np.arange(gt.K), counts)
    label_rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(0,)))
    labels = label_rng.permutation(labels)

    if storage_mode is None:
        storage_mode = "stored" if N * gt.n1 * gt.n2 <= stored_budget else "streamed"

    nn = gt.n1 * gt.n2
    vec_ms = [gt.matrix(k).ravel() for k in range(gt.K)]
    y = np.empty(N)
    designs = np.empty((N, nn)) if storage_mode == "stored" else None
    for lo in range(0, N, BLOCK):
        hi = min(lo + BLOCK, N)
        block = np.empty((hi - lo, nn))
        noise = np.empty(hi - lo)
        for j, i in enumerate(range(lo, hi)):
            rng = _rng_for_sample(seed, i)
            block[j] = rng.standard_normal(nn)
            noise[j] = rng.standard_normal()
        yb = np.empty(hi - lo)
        lab = labels[lo:hi]
        for k in range(gt.K):
            mask = lab == k
            if mask.any():
                # full-block product so the arithmetic per row matches the
                # residual passes bit for bit
                vals = block @ vec_ms[k]
                yb[mask] = vals[mask]
        y[lo:hi] = yb + sigma * noise
        if designs is not None:
            designs[lo:hi] = block
    return Dataset(
        n1=gt.n1, n2=gt.n2, sigma=float(sigma), seed=int(seed),
        storage_mode=storage_mode, y=y, hidden_labels=labels, designs_flat=designs,
    )
