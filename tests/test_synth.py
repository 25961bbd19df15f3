import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from helpers import BAD_INTS, BAD_NUMBERS, stacked_rows
from mixsense import synth
from mixsense.errors import InvalidInputError


def equal_mixture(n, K, r, seed=0):
    return synth.make_ground_truth(n, n, [r] * K, [1.0 / K] * K, [[1.0] * r] * K, seed)


def recovered_labels(gt, ds):
    """Each noiseless sample's component: the one k whose full-block product
    equals y_i bit for bit."""
    vec_ms = [gt.matrix(k).ravel() for k in range(gt.K)]
    labels = []
    for lo, hi, rows in ds.iter_design_blocks():
        hits = np.array([rows @ v for v in vec_ms]) == ds.y[lo:hi]
        assert (hits.sum(axis=0) == 1).all()
        labels.append(hits.argmax(axis=0))
    return np.concatenate(labels)


class TestRandomOrthonormal:
    def test_square_orthogonal(self):
        q = synth.random_orthonormal(3, 3, seed=7)
        assert np.linalg.norm(q.T @ q - np.eye(3)) <= 1e-10

    def test_deterministic(self):
        a = synth.random_orthonormal(5, 2, seed=1)
        b = synth.random_orthonormal(5, 2, seed=1)
        assert (a == b).all()

    def test_rank_too_large(self):
        with pytest.raises(InvalidInputError):
            synth.random_orthonormal(3, 4, seed=0)

    def test_haar_mean_projector(self):
        acc = np.zeros((4, 4))
        for seed in range(2000):
            q = synth.random_orthonormal(4, 1, seed=seed)
            acc += q @ q.T
        acc /= 2000
        assert np.abs(acc - np.eye(4) / 4).max() < 0.05


class TestMakeGroundTruth:
    def test_single_component_unit_norm(self):
        gt = synth.make_ground_truth(6, 5, [1], [1.0], [[1.0]], seed=2)
        m = gt.matrix(0)
        assert abs(np.linalg.norm(m) - 1.0) < 1e-12
        assert np.linalg.matrix_rank(m) == 1

    def test_reference_mixture_norms(self):
        # identity spectra of rank 2 give every component Frobenius norm sqrt(2)
        gt = equal_mixture(120, K=3, r=2)
        for k in range(3):
            assert abs(np.linalg.norm(gt.matrix(k)) - math.sqrt(2)) < 1e-12
        assert gt.proportions == [1 / 3] * 3

    def test_validation(self):
        with pytest.raises(InvalidInputError):
            synth.make_ground_truth(4, 4, [1, 1], [0.6, 0.6], [[1.0], [1.0]], seed=0)
        with pytest.raises(InvalidInputError):
            synth.make_ground_truth(4, 4, [1], [1.0], [[-1.0]], seed=0)
        with pytest.raises(InvalidInputError):
            synth.make_ground_truth(4, 4, [2], [1.0], [[1.0, 2.0]], seed=0)  # ascending
        with pytest.raises(InvalidInputError):
            synth.make_ground_truth(4, 4, [5], [1.0], [[1.0] * 5], seed=0)

    @pytest.mark.parametrize("field, value", [
        *((name, v) for name in ("n1", "n2", "seed") for v in BAD_INTS),
        *(("ranks", [v]) for v in BAD_INTS),
        *(("proportions", [v]) for v in BAD_NUMBERS),
        *(("spectra", [[v]]) for v in BAD_NUMBERS),
        ("ranks", 5), ("proportions", 1.0), ("spectra", 1.0),
    ])
    def test_bad_values(self, field, value):
        args = {"n1": 4, "n2": 4, "ranks": [1], "proportions": [1.0], "spectra": [[1.0]], "seed": 0}
        with pytest.raises(InvalidInputError):
            synth.make_ground_truth(**{**args, field: value})

    def test_deterministic(self):
        a = equal_mixture(10, 2, 2, seed=3)
        b = equal_mixture(10, 2, 2, seed=3)
        for k in range(2):
            assert (a.matrix(k) == b.matrix(k)).all()

    @pytest.mark.xfail(
        strict=True,
        reason="component k's basis streams spawn_key=(k, 0) and (k, 1) are the "
        "sample streams (1, i) for k = 1, so one seed shared by truth and data "
        "makes sample 0 repeat component 1's column-basis draw",
    )
    def test_bases_share_no_sample_stream(self):
        n1, n2, r, seed = 6, 5, 2, 7
        gt = synth.make_ground_truth(n1, n2, [r] * 3, [1 / 3] * 3, [[1.0] * r] * 3, seed)
        ds = synth.sample_dataset(gt, N=3, sigma=0.0, seed=seed)
        q, rr = np.linalg.qr(ds.designs_flat[0, : n1 * r].reshape(n1, r))
        q = q * np.where(np.diag(rr) < 0.0, -1.0, 1.0)
        # the entries are rounded to float32, so a repeated draw agrees to ~1e-8
        assert not np.allclose(q, gt.components[1].u_star, rtol=0.0, atol=1e-6)


class TestSampleDataset:
    def test_exact_divisibility_counts(self):
        gt = equal_mixture(4, K=3, r=1)
        ds = synth.sample_dataset(gt, N=9, sigma=0.0, seed=0)
        assert sorted(np.bincount(recovered_labels(gt, ds)).tolist()) == [3, 3, 3]

    @given(
        st.integers(min_value=2, max_value=5),
        st.integers(min_value=0, max_value=200),
        st.integers(min_value=0, max_value=10),
    )
    def test_largest_remainder_partition(self, K, extra, seed):
        rng = np.random.default_rng(seed)
        raw = rng.random(K) + 0.05
        props = raw / raw.sum()
        N = K + extra
        counts = synth._largest_remainder_counts(props, N)
        assert counts.sum() == N
        for k in range(K):
            assert counts[k] in (math.floor(props[k] * N), math.ceil(props[k] * N))

    def test_measurement_rule_inner_product(self):
        gt = synth.make_ground_truth(2, 2, [2], [1.0], [[1.0, 0.5]], seed=0)
        ds = synth.sample_dataset(gt, N=4, sigma=0.0, seed=1)
        m = gt.matrix(0)
        for i in range(4):
            a = stacked_rows(ds, [i]).reshape(2, 2)
            assert abs(ds.y[i] - np.vdot(a, m)) < 1e-12 * max(1.0, abs(ds.y[i]))

    def test_noiseless_consistency_bitexact(self):
        # stored as float64, as float32, and a float32 prefix: y is formed
        # from the rounded rows, so widened rows give back each y_i bit for bit
        gt = equal_mixture(5, K=2, r=1, seed=4)
        N, nn = 2100, 25
        labels = []
        for budget in (N * nn, N * nn // 2, 1500 * nn // 2):
            ds = synth.sample_dataset(gt, N=N, sigma=0.0, seed=9, stored_budget=budget)
            assert ds.designs_flat.dtype == (np.float64 if budget == N * nn else np.float32)
            # asserts that exactly one component matches each y_i
            labels.append(recovered_labels(gt, ds))
        assert (labels[0] == labels[1]).all() and (labels[0] == labels[2]).all()

    def test_streamed_stored_bit_equality(self):
        gt = equal_mixture(6, K=2, r=2, seed=11)
        nn = 36
        stored = synth.sample_dataset(gt, N=2100, sigma=0.3, seed=13, stored_budget=2100 * nn)
        streamed = synth.sample_dataset(gt, N=2100, sigma=0.3, seed=13, stored_budget=0)
        # every row stored as float32
        narrow = synth.sample_dataset(gt, N=2100, sigma=0.3, seed=13, stored_budget=2100 * nn // 2)
        # the stored float32 prefix ends inside the second block
        hybrid = synth.sample_dataset(gt, N=2100, sigma=0.3, seed=13, stored_budget=1500 * nn // 2)
        rows = (stored.stored_rows, streamed.stored_rows, narrow.stored_rows, hybrid.stored_rows)
        assert rows == (2100, 0, 2100, 1500)
        assert narrow.designs_flat.dtype == hybrid.designs_flat.dtype == np.float32
        idx = np.array([0, 1, 17, 1024, 1499, 1500, 2099])
        for other in (streamed, narrow, hybrid):
            assert (stored.y == other.y).all()
            assert (stacked_rows(stored, idx) == stacked_rows(other, idx)).all()
            blocks = [(lo, hi, rows.copy()) for lo, hi, rows in other.iter_design_blocks()]
            assert len(blocks) == 3
            for (lo1, hi1, b1), (lo2, hi2, b2) in zip(stored.iter_design_blocks(), blocks):
                assert lo1 == lo2 and hi1 == hi2 and (b1 == b2).all()

    def test_needed_mask_reads(self):
        # the stored prefix ends inside the second of three blocks
        gt = equal_mixture(4, K=2, r=1, seed=6)
        N, nn = 2100, 16
        ds = synth.sample_dataset(gt, N=N, sigma=0.0, seed=3, stored_budget=1500 * nn // 2)
        assert ds.stored_rows == 1500
        truth = synth.sample_dataset(gt, N=N, sigma=0.0, seed=3, stored_budget=N * nn)
        needed = np.random.default_rng(0).random(N) < 0.3
        stored = np.arange(N) < ds.stored_rows
        full = np.vstack([rows.copy() for _, _, rows in ds.iter_design_blocks()])
        masked = np.vstack([rows.copy() for _, _, rows in ds.iter_design_blocks(needed)])
        assert (full == truth.designs_flat).all()
        # stored rows whatever the mask says, inside and outside it
        assert (masked[stored] == full[stored]).all()
        assert needed[stored].any() and not needed[stored].all()
        # unstored rows: regenerated inside the mask, zeros outside it
        inside, outside = ~stored & needed, ~stored & ~needed
        assert inside.any() and outside.any()
        assert (masked[inside] == full[inside]).all()
        assert (masked[outside] == 0.0).all() and (full[outside] != 0.0).all()

    def test_streamed_regeneration_is_stable(self):
        gt = equal_mixture(4, K=1, r=1, seed=2)
        ds = synth.sample_dataset(gt, N=10, sigma=1.0, seed=5, stored_budget=0)
        once = stacked_rows(ds, np.arange(10))
        again = stacked_rows(ds, np.arange(10))
        assert (once == again).all()

    def test_auto_storage_policy(self):
        gt = equal_mixture(4, K=1, r=1, seed=2)
        nn = 16
        small = synth.sample_dataset(gt, N=8, sigma=0.0, seed=0)
        assert small.stored_rows == 8 and small.designs_flat.dtype == np.float64
        for budget in (0, 4, nn, 2 * nn + 5, 5 * nn + 3, 8 * nn - 1, 8 * nn, 100 * nn):
            ds = synth.sample_dataset(gt, N=8, sigma=0.0, seed=0, stored_budget=budget)
            if budget >= 8 * nn:
                # the whole dataset fits: every row as float64
                assert ds.stored_rows == 8 and ds.designs_flat.dtype == np.float64
            else:
                # twice the rows as float32
                assert ds.stored_rows == min(8, 2 * budget // nn)
                assert ds.designs_flat.dtype == np.float32
            assert ds.designs_flat.shape == (ds.stored_rows, nn)
            assert ds.designs_flat.nbytes <= 8 * budget
            assert (small.y == ds.y).all()
            assert (stacked_rows(small, np.arange(8)) == stacked_rows(ds, np.arange(8))).all()

    def test_variance_matches_moments(self):
        gt = synth.make_ground_truth(4, 4, [2], [1.0], [[1.2, 0.7]], seed=3)
        sigma = 0.5
        ds = synth.sample_dataset(gt, N=100_000, sigma=sigma, seed=21)
        expected = np.linalg.norm(gt.matrix(0)) ** 2 + sigma**2
        assert abs(np.var(ds.y) - expected) / expected < 0.03

    def test_index_word_bound(self):
        # rejected before any per-sample array is allocated
        gt = equal_mixture(4, K=3, r=1)
        tracemalloc.start()
        try:
            for N in (2**32, 2**40):
                with pytest.raises(InvalidInputError):
                    synth.sample_dataset(gt, N=N, sigma=0.0, seed=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_too_few_samples(self):
        gt = equal_mixture(4, K=3, r=1)
        with pytest.raises(InvalidInputError):
            synth.sample_dataset(gt, N=2, sigma=0.0, seed=0)

    def test_non_finite_sigma(self):
        gt = equal_mixture(4, K=1, r=1)
        for sigma in (math.nan, math.inf):
            with pytest.raises(InvalidInputError):
                synth.sample_dataset(gt, N=5, sigma=sigma, seed=0)
        for seed in (-1, 1.5):
            with pytest.raises(InvalidInputError):
                synth.sample_dataset(gt, N=5, sigma=0.0, seed=seed)
        with pytest.raises(InvalidInputError):
            synth.sample_dataset(gt, N=5.0, sigma=0.0, seed=0)

    def test_dataset_array_checks(self):
        def make(y, designs_flat, seed=0):
            return synth.Dataset(
                n1=2, n2=3, seed=seed, y=y, designs_flat=designs_flat,
            )

        make(np.zeros(4), np.zeros((4, 6)))
        with pytest.raises(InvalidInputError):
            make(np.zeros(3), np.zeros((4, 6)))  # y shorter than the designs
        with pytest.raises(InvalidInputError):
            make(np.zeros(4), np.zeros((4, 5)))  # rows are not n1 * n2 wide
        with pytest.raises(InvalidInputError):
            make(np.array([0.0, np.nan, 0.0, 0.0]), np.zeros((4, 6)))
        with pytest.raises(InvalidInputError):
            make(np.zeros(4), np.zeros((0, 6)), seed=-1)  # rows cannot be regenerated

    def test_caller_float32_designs(self):
        gt = equal_mixture(4, K=1, r=1, seed=2)
        N = 2100
        wide = synth.sample_dataset(gt, N=N, sigma=0.0, seed=3, stored_budget=N * 16)
        for stored in (N, 1500):  # every block wholly stored; a prefix ending in block 2
            designs = wide.designs_flat[:stored].astype(np.float32)
            ds = synth.Dataset(n1=4, n2=4, seed=3, y=wide.y, designs_flat=designs)
            # kept as float32, read-only, with no float64 copy
            assert ds.designs_flat.dtype == np.float32
            assert ds.designs_flat.nbytes == designs.nbytes
            assert not ds.designs_flat.flags.writeable
            widened = synth.Dataset(n1=4, n2=4, seed=3, y=wide.y,
                                    designs_flat=designs.astype(np.float64))
            pairs = zip(ds.iter_design_blocks(), widened.iter_design_blocks(),
                        wide.iter_design_blocks())
            for (lo, hi, rows), (lo2, hi2, rows2), (_, _, rows3) in pairs:
                assert (lo, hi) == (lo2, hi2) and rows.dtype == np.float64
                assert not np.shares_memory(rows, ds.designs_flat)
                assert (rows == rows2).all() and (rows == rows3).all()

    @pytest.mark.parametrize("field, value", [
        *((name, v) for name in ("N", "seed", "stored_budget") for v in BAD_INTS),
        *(("sigma", v) for v in BAD_NUMBERS),
    ])
    def test_sample_bad_values(self, field, value):
        gt = equal_mixture(4, K=1, r=1)
        args = {"N": 5, "sigma": 0.0, "seed": 0, "stored_budget": 80}
        with pytest.raises(InvalidInputError):
            synth.sample_dataset(gt, **{**args, field: value})

    @pytest.mark.parametrize("field, value", [
        *((name, v) for name in ("n1", "n2", "seed") for v in BAD_INTS),
        ("n1", 2.0), ("n2", 3.0),
    ])
    def test_dataset_bad_values(self, field, value):
        args = {"n1": 2, "n2": 3, "seed": 0, "y": np.zeros(4),
                "designs_flat": np.zeros((4, 6))}
        with pytest.raises(InvalidInputError):
            synth.Dataset(**{**args, field: value})

    def test_deterministic(self):
        gt = equal_mixture(5, K=2, r=1, seed=1)
        a = synth.sample_dataset(gt, N=50, sigma=0.1, seed=8)
        b = synth.sample_dataset(gt, N=50, sigma=0.1, seed=8)
        assert (a.y == b.y).all() and (a.designs_flat == b.designs_flat).all()

    def test_immutability(self):
        gt = equal_mixture(4, K=1, r=1)
        ds = synth.sample_dataset(gt, N=5, sigma=0.0, seed=0)
        with pytest.raises(ValueError):
            ds.y[0] = 7.0


class TestSampleStreams:
    """The vectorized route to the per-sample streams against numpy's own
    ``SeedSequence``: if numpy ever changes its seeding, these fail instead
    of the data changing silently."""

    # 0; two entropy words; five words, more than the 4-word pool
    SEEDS = (0, 2**40 + 3, 2**130 + 9)
    N = 64_800
    IDX = np.array([0, synth.BLOCK - 1, synth.BLOCK, synth.BLOCK + 1, N - 1, 2**32 - 1])

    def test_words_match_seed_sequence(self):
        for seed in self.SEEDS:
            words = synth._sample_words(seed, self.IDX)
            assert words.dtype == np.uint64 and words.shape == (self.IDX.size, 4)
            for i, w in zip(self.IDX, words):
                live = np.random.SeedSequence(seed, spawn_key=(1, int(i)))
                assert (w == live.generate_state(4, np.uint64)).all()

    def test_draws_match_seed_sequence(self):
        nn = 37
        # rows written out of order; and in order in runs longer than
        # _ROUND_RUN, split by two rows left untouched
        layouts = [(self.IDX, np.arange(self.IDX.size)[::-1]),
                   (np.arange(5, 45), np.r_[0:20, 22:42])]
        for seed, (idx, at) in itertools.product(self.SEEDS, layouts):
            out = np.full((at.max() + 1, nn), 0.1)  # 0.1 is no float32 value
            noise = synth._draw_rows(seed, idx, out, at)
            assert (np.delete(out, at, axis=0) == 0.1).all()
            for j, i in enumerate(idx):
                rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(1, int(i))))
                rounded = rng.standard_normal(nn).astype(np.float32).astype(np.float64)
                assert out[at[j]].tobytes() == rounded.tobytes()
                # the noise draw is the stream's next float64 draw, not rounded
                assert noise[j] == rng.standard_normal()
