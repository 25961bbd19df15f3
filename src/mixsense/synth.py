"""Synthetic planted problems: ground truths and mixed Gaussian
measurements.

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
Residuals therefore stay one GEMV per slice and vector. Stage 3's gradient
sums are one GEMM per slice instead, a zero-padded weight block of fixed
width times the slice; they need no match with y, only the same bits for a
component in any row of the block.
"""

from dataclasses import dataclass, field
from typing import Iterator, List, Sequence, Tuple

import numpy as np

from . import core
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


@dataclass(frozen=True)
class GroundTruth:
    n1: int
    n2: int
    components: Tuple[Component, ...]

    @property
    def K(self) -> int:
        return len(self.components)

    @property
    def proportions(self) -> List[float]:
        return [c.p for c in self.components]

    def matrix(self, k: int) -> np.ndarray:
        c = self.components[k]
        return c.u_star @ (c.sigma_star[:, None] * c.v_star.T)

    def matrices(self) -> List[np.ndarray]:
        return [self.matrix(k) for k in range(self.K)]


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
    ranks = core.check_seq(ranks, "ranks")
    proportions = core.check_seq(proportions, "proportions")
    spectra = core.check_seq(spectra, "spectra")
    K = len(ranks)
    if not (len(proportions) == len(spectra) == K) or K < 1:
        raise InvalidInputError("ranks, proportions, spectra must have equal nonzero length")
    n1, n2 = core.check_int(n1, "n1", 1), core.check_int(n2, "n2", 1)
    core.check_int(seed, "seed")
    props = [core.check_finite(p, f"component {k} proportion") for k, p in enumerate(proportions)]
    if abs(sum(props) - 1.0) > 1e-9:
        raise InvalidInputError(f"proportions sum to {sum(props)!r}, expected 1")
    comps = []
    for k, p in enumerate(props):
        r = core.check_int(ranks[k], f"component {k} rank", 1)
        if r > min(n1, n2):
            raise InvalidInputError(f"component {k}: rank {r} out of range")
        if not (0.0 < p < 1.0 or (p == 1.0 and K == 1)):
            raise InvalidInputError(f"component {k}: proportion {p} out of range")
        spec = np.asarray(spectra[k], dtype=object)  # an object array keeps bools for the check
        if spec.shape != (r,):
            raise InvalidInputError(f"component {k}: spectrum must hold {r} values")
        spec = np.array([core.check_finite(s, f"component {k} spectrum entry") for s in spec])
        if not (spec > 0).all() or (np.diff(spec) > 0).any():
            raise InvalidInputError(f"component {k}: spectrum must be positive and descending")
        u = random_orthonormal(n1, r, np.random.SeedSequence(entropy=seed, spawn_key=(k, 0)))
        v = random_orthonormal(n2, r, np.random.SeedSequence(entropy=seed, spawn_key=(k, 1)))
        comps.append(Component(u_star=u, sigma_star=spec, v_star=v, p=p))
    return GroundTruth(n1=n1, n2=n2, components=tuple(comps))


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
    """N mixed linear measurements of a planted mixture. It holds no labels
    and no noise level: those decide each `y` and are not kept.
    `designs_flat` holds the design rows of samples ``[0, stored_rows)``;
    rows from `stored_rows` on are regenerated on demand from `seed`, so 0
    stored rows is a fully streamed dataset and N a fully stored one.
    """

    n1: int
    n2: int
    seed: int
    y: np.ndarray
    designs_flat: np.ndarray = field(repr=False)

    def __post_init__(self):
        self.y = np.asarray(self.y, dtype=np.float64)
        self.designs_flat = np.asarray(self.designs_flat, dtype=np.float64)
        if self.y.ndim != 1 or not np.isfinite(self.y).all():
            raise InvalidInputError("y must be a finite 1-D array")
        nn = core.check_int(self.n1, "n1", 1) * core.check_int(self.n2, "n2", 1)
        core.check_int(self.seed, "seed")
        shape = self.designs_flat.shape
        if len(shape) != 2 or shape[0] > self.y.size or shape[1] != nn:
            raise InvalidInputError(
                f"designs_flat has shape {shape}, expected (<= {self.y.size}, {nn})"
            )
        for arr in (self.y, self.designs_flat):
            arr.setflags(write=False)

    @property
    def N(self) -> int:
        return int(self.y.size)

    @property
    def stored_rows(self) -> int:
        return int(self.designs_flat.shape[0])

    def iter_design_blocks(self, needed=None) -> Iterator[Tuple[int, int, np.ndarray]]:
        """Yield (lo, hi, rows) over fixed-size blocks in sample order. A
        wholly stored block is a view of `designs_flat`; otherwise its stored
        rows are copied and the rest regenerated from `seed`, except that
        with a boolean mask `needed` over the samples, unstored rows outside
        it read as zeros.

        The blocks that are not wholly stored share one buffer, allocated
        once per call: each is overwritten by the next, so a caller that
        keeps rows past the next block must copy them."""
        shape = (min(BLOCK, self.N), self.n1 * self.n2)
        buf = np.empty(shape) if self.stored_rows < self.N else None
        for lo in range(0, self.N, BLOCK):
            hi = min(lo + BLOCK, self.N)
            if hi <= self.stored_rows:
                yield lo, hi, self.designs_flat[lo:hi]
                continue
            rows = buf[: hi - lo]
            kept = max(self.stored_rows - lo, 0)
            rows[:kept] = self.designs_flat[lo:hi]
            at = np.arange(kept, hi - lo)
            if needed is not None:
                inside = needed[lo + kept : hi]
                rows[at[~inside]] = 0.0
                at = at[inside]
            _draw_rows(self.seed, lo + at, rows, at)
            yield lo, hi, rows


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
    if core.check_int(N, "N", gt.K) >= 2**32:
        raise InvalidInputError(f"need N < 2**32 so that each sample index is one seed word, got {N}")
    core.check_int(seed, "seed")
    core.check_int(stored_budget, "stored_budget")
    core.check_finite(sigma, "sigma")
    counts = _largest_remainder_counts(gt.proportions, N)
    labels = np.repeat(np.arange(gt.K), counts)
    label_rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(0,)))
    labels = label_rng.permutation(labels)

    nn = gt.n1 * gt.n2
    vec_ms = [gt.matrix(k).ravel() for k in range(gt.K)]
    y = np.empty(N)
    designs = np.empty((min(N, stored_budget // nn), nn))
    # blocks past the stored prefix are drawn into one reusable buffer
    spare = np.empty((min(BLOCK, N), nn)) if len(designs) < N else None
    for lo in range(0, N, BLOCK):
        hi = min(lo + BLOCK, N)
        block = designs[lo:hi] if hi <= len(designs) else spare[: hi - lo]
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
        if hi > len(designs):
            designs[lo:hi] = block[: max(len(designs) - lo, 0)]
    return Dataset(n1=gt.n1, n2=gt.n2, seed=int(seed), y=y, designs_flat=designs)
