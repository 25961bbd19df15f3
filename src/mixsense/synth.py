"""Synthetic planted problems: ground truths, mixed Gaussian measurements,
and incoherence diagnostics.

Randomness layout. Every dataset is derived from one integer master seed:

* label shuffle     -> ``SeedSequence(seed, spawn_key=(0,))``
* sample i          -> ``SeedSequence(seed, spawn_key=(1, i))``, which first
  yields the ``n1*n2`` design entries (row-major) and then one standard
  normal used for the measurement noise.

Because each sample owns an independent stream, a dataset stores the design
rows of a prefix of its samples, as many as its budget allows, and
regenerates the rest on demand with bit-identical results.

The per-sample streams are not built through ``SeedSequence`` objects:
`_draw_rows` derives the PCG64 state words of a whole block of samples in
one numpy pass over SeedSequence's uint32 mixing, bit-identical to
``SeedSequence(seed, spawn_key=(1, i)).generate_state(4, np.uint64)``, and
seeds each sample's generator from its words. The layout is unchanged;
only the route to it is faster (about 1 us per sample to derive the words
and build the generator, against ~25 us through ``SeedSequence`` objects).
Sample indices must fit in one uint32 word (N < 2**32).

Row-block contract. Passes over the designs read them in `BLOCK`-row blocks
and compute per-row products on `SUB`-row slices of a block. The BLAS GEMV
kernel groups rows by 4, and every `BLOCK` and `SUB` boundary is a multiple
of 4 from the first row, so a row's product has the same bits whether it is
computed on a whole block (as `sample_dataset` does for y) or on a slice.
"""

from dataclasses import dataclass, field
from typing import Iterator, List, NamedTuple, Sequence, Tuple

import numpy as np

from .core import as_matrix
from .errors import InvalidInputError

# Fixed block length for all chunked passes over a dataset. Consumers must
# iterate via Dataset.iter_design_blocks so that accumulation order (and
# hence floating-point rounding) does not depend on how many rows are stored.
BLOCK = 1024
# Rows per cache-sized slice of a block, for passes that apply several
# vectors to each slice while it is in cache; a multiple of 4 dividing BLOCK.
SUB = 64

# Default budget for stored design rows, in entries (~3.2 GB of float64);
# a dataset stores min(N, budget // (n1 * n2)) rows.
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
    for evaluation only and is never read by the solver stages.
    `designs_flat` holds the design rows of samples ``[0, stored_rows)``;
    rows from `stored_rows` on are regenerated on demand from `seed`, so 0
    stored rows is a fully streamed dataset and N a fully stored one.
    """

    n1: int
    n2: int
    sigma: float
    seed: int
    y: np.ndarray
    hidden_labels: np.ndarray
    designs_flat: np.ndarray = field(repr=False)

    def __post_init__(self):
        self.y = np.asarray(self.y, dtype=np.float64)
        self.hidden_labels = np.asarray(self.hidden_labels, dtype=np.int64)
        self.designs_flat = np.asarray(self.designs_flat, dtype=np.float64)
        if self.y.ndim != 1 or not np.isfinite(self.y).all():
            raise InvalidInputError("y must be a finite 1-D array")
        if not isinstance(self.seed, (int, np.integer)) or self.seed < 0:
            raise InvalidInputError(f"seed must be a non-negative integer, got {self.seed!r}")
        nn = self.n1 * self.n2
        shape = self.designs_flat.shape
        if len(shape) != 2 or shape[0] > self.y.size or shape[1] != nn:
            raise InvalidInputError(
                f"designs_flat has shape {shape}, expected (<= {self.y.size}, {nn})"
            )
        for arr in (self.y, self.hidden_labels, self.designs_flat):
            arr.setflags(write=False)

    @property
    def N(self) -> int:
        return int(self.y.size)

    @property
    def stored_rows(self) -> int:
        return int(self.designs_flat.shape[0])

    def _read(self, key, end: int, needed=None) -> np.ndarray:
        """Design rows selected by `key`, a slice or an index array whose
        indices all lie below `end`. Rows of the stored prefix come from
        `designs_flat` (a view or a slice copy for a slice, one gather for
        an array); the rest are regenerated from `seed`, or read as zeros
        where `needed` (a boolean mask over the samples) excludes them."""
        if end <= self.stored_rows:
            return self.designs_flat[key]
        idx = np.arange(self.N)[key]
        stored = idx < self.stored_rows
        regen = ~stored if needed is None else ~stored & needed[idx]
        out = np.zeros((idx.size, self.n1 * self.n2))
        if isinstance(key, slice):  # a block: its stored rows are a prefix
            out[: max(self.stored_rows - key.start, 0)] = self.designs_flat[key]
        else:
            out[stored] = self.designs_flat[idx[stored]]
        _draw_rows(self.seed, idx[regen], out, np.flatnonzero(regen))
        return out

    def design_rows(self, indices) -> np.ndarray:
        """Row-major vectorized designs for the given sample indices."""
        idx = np.asarray(indices, dtype=np.int64)
        first, end = (idx.min(), idx.max() + 1) if idx.size else (0, 0)
        if idx.ndim != 1 or first < 0 or end > self.N:
            raise InvalidInputError(f"sample indices must be a 1-D array in [0, {self.N})")
        return self._read(idx, end)

    def iter_design_blocks(self, needed=None) -> Iterator[Tuple[int, int, np.ndarray]]:
        """Yield (lo, hi, rows) over fixed-size blocks in sample order. With
        a boolean mask `needed` over the samples, unstored rows outside it
        read as zeros instead of being regenerated."""
        for lo in range(0, self.N, BLOCK):
            hi = min(lo + BLOCK, self.N)
            yield lo, hi, self._read(slice(lo, hi), hi, needed)


# SeedSequence's constants (numpy/random/bit_generator.pyx): the entropy
# pool size in uint32 words, the hash multipliers of the pool mixing (A) and
# of the state output (B), and the two multipliers of `mix`.
_POOL_SIZE = 4
_MASK32 = 0xFFFF_FFFF
_INIT_A, _MULT_A = 0x43B0_D7E5, 0x931E_8875
_INIT_B, _MULT_B = 0x8B51_F9DD, 0x58F3_8DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01_F9DD, 0x4973_F715


def _hashmix(value, const: int):
    """SeedSequence's hashmix of a uint32 word (a Python int or a uint32
    array) under hash constant `const`; returns the word and the next
    constant."""
    const_next = (const * _MULT_A) & _MASK32
    value = ((value ^ const) * const_next) & _MASK32
    return value ^ (value >> 16), const_next


def _mix(x, y):
    """SeedSequence's mix of two uint32 words, both Python ints or both
    uint32 arrays."""
    value = (_MIX_MULT_L * x - _MIX_MULT_R * y) & _MASK32
    return value ^ (value >> 16)


def _sample_words(seed: int, idx: np.ndarray) -> np.ndarray:
    """``SeedSequence(seed, spawn_key=(1, i)).generate_state(4, np.uint64)``
    for every i in `idx` (each below 2**32), one row per sample.

    The entropy words are the seed's uint32 words, least significant first
    and zero-padded to the pool size, then 1 and i. Only the last word
    differs between samples, so everything before it is mixed once in Python
    ints and i is mixed over the whole array."""
    seed = int(seed)
    entropy = [0] if seed == 0 else []
    while seed:
        entropy.append(seed & _MASK32)
        seed >>= 32
    entropy += [0] * (_POOL_SIZE - len(entropy)) + [1]
    const, pool = _INIT_A, []
    for word in entropy[:_POOL_SIZE]:
        word, const = _hashmix(word, const)
        pool.append(word)
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                word, const = _hashmix(pool[src], const)
                pool[dst] = _mix(pool[dst], word)
    for word in entropy[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            hashed, const = _hashmix(word, const)
            pool[dst] = _mix(pool[dst], hashed)
    idx = np.asarray(idx).astype(np.uint32)
    pool = [np.array([word], dtype=np.uint32) for word in pool]
    for dst in range(_POOL_SIZE):
        hashed, const = _hashmix(idx, const)
        pool[dst] = _mix(pool[dst], hashed)
    # generate_state: 8 uint32 words cycling over the pool, read as 4
    # little-endian uint64 words
    state = np.empty((idx.size, 8), dtype="<u4")
    const = _INIT_B
    for j in range(8):
        word = pool[j % _POOL_SIZE] ^ const
        const = (const * _MULT_B) & _MASK32
        word = word * const
        state[:, j] = word ^ (word >> 16)
    return state.view("<u8").astype(np.uint64)


class _Words(np.random.bit_generator.ISeedSequence):
    """Seed source that hands a PCG64 its precomputed state words."""

    def __init__(self, words: np.ndarray):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        return self.words


def _draw_rows(seed: int, idx, out: np.ndarray, at) -> np.ndarray:
    """Fill ``out[at[j]]`` with the design entries of sample ``idx[j]`` and
    return the samples' noise draws. Sample i's stream
    ``SeedSequence(seed, spawn_key=(1, i))`` yields the design entries first
    and the noise draw after them; its PCG64 is seeded from the words of
    `_sample_words`, so the draws are those of that stream bit for bit."""
    noise = np.empty(len(idx))
    for j, (row, words) in enumerate(zip(at, _sample_words(seed, idx))):
        rng = np.random.Generator(np.random.PCG64(_Words(words)))
        rng.standard_normal(out=out[row])
        noise[j] = rng.standard_normal()
    return noise


def sample_dataset(
    gt: GroundTruth,
    N: int,
    sigma: float,
    seed: int,
    stored_budget: int = DEFAULT_STORED_BUDGET,
) -> Dataset:
    """Draw N measurements from the planted mixture.

    Label counts follow the exact largest-remainder partition of the
    proportions (each count is floor or ceil of p_k * N) and are then
    globally shuffled. Designs have i.i.d. standard normal entries and
    ``y_i = <A_i, M_label(i)> + sigma * z_i``. The first
    ``min(N, stored_budget // (n1 * n2))`` design rows are stored; the rest
    are regenerated whenever they are read.
    """
    if not isinstance(N, (int, np.integer)) or N < gt.K:
        raise InvalidInputError(f"need an integer N of at least K={gt.K} samples, got {N!r}")
    if N >= 2**32:
        raise InvalidInputError(f"need N < 2**32 so that each sample index is one seed word, got {N}")
    if not isinstance(seed, (int, np.integer)) or seed < 0:
        raise InvalidInputError(f"seed must be a non-negative integer, got {seed!r}")
    if not isinstance(stored_budget, (int, np.integer)) or stored_budget < 0:
        raise InvalidInputError(f"stored_budget must be an integer >= 0, got {stored_budget!r}")
    if not np.isfinite(sigma) or sigma < 0:
        raise InvalidInputError(f"sigma must be finite and >= 0, got {sigma}")
    counts = _largest_remainder_counts(gt.proportions, N)
    labels = np.repeat(np.arange(gt.K), counts)
    label_rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(0,)))
    labels = label_rng.permutation(labels)

    nn = gt.n1 * gt.n2
    vec_ms = [gt.matrix(k).ravel() for k in range(gt.K)]
    y = np.empty(N)
    designs = np.empty((min(N, stored_budget // nn), nn))
    for lo in range(0, N, BLOCK):
        hi = min(lo + BLOCK, N)
        block = np.empty((hi - lo, nn))
        noise = _draw_rows(seed, np.arange(lo, hi), block, range(hi - lo))
        yb = np.empty(hi - lo)
        lab = labels[lo:hi]
        for k in range(gt.K):
            mask = lab == k
            if mask.any():
                # full-block product: by the row-block contract its rows
                # match the residual passes' SUB-row products bit for bit
                vals = block @ vec_ms[k]
                yb[mask] = vals[mask]
        y[lo:hi] = yb + sigma * noise
        kept = designs[lo:hi]
        kept[:] = block[: len(kept)]
    return Dataset(
        n1=gt.n1, n2=gt.n2, sigma=float(sigma), seed=int(seed),
        y=y, hidden_labels=labels, designs_flat=designs,
    )
