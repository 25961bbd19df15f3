import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from mixsense import synth
from mixsense.errors import InvalidInputError


def equal_mixture(n, K, r, seed=0):
    return synth.make_ground_truth(n, n, [r] * K, [1.0 / K] * K, [[1.0] * r] * K, seed)


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

    def test_deterministic(self):
        a = equal_mixture(10, 2, 2, seed=3)
        b = equal_mixture(10, 2, 2, seed=3)
        for k in range(2):
            assert (a.matrix(k) == b.matrix(k)).all()


def overlapping_mixture(n=4, r=1):
    """Two components sharing the same column space (worst-case coherence)."""
    e1 = np.zeros((n, r))
    e1[0, 0] = 1.0
    e2 = np.zeros((n, r))
    e2[1, 0] = 1.0
    c1 = synth.Component(u_star=e1, sigma_star=np.ones(r), v_star=e1, p=0.5, r=r)
    c2 = synth.Component(u_star=e1, sigma_star=np.ones(r), v_star=e2, p=0.5, r=r)
    return synth.GroundTruth(n1=n, n2=n, components=(c1, c2))


class TestIncoherence:
    def test_single_component(self):
        gt = synth.make_ground_truth(5, 5, [1], [1.0], [[1.0]], seed=0)
        assert synth.incoherence(gt) == 0.0

    def test_shared_column_space(self):
        # identical U's, orthogonal V's in R^4 with rank 1: mu = sqrt(4)/1
        gt = overlapping_mixture()
        assert abs(synth.incoherence(gt) - 2.0) < 1e-14

    def test_random_subspaces_mu_is_order_one(self):
        # mu does not grow with n for random subspaces
        mus = [synth.incoherence(equal_mixture(120, K=3, r=2, seed=s)) for s in range(40)]
        assert max(mus) < 2.5

    def test_random_subspaces_satisfy_assumption(self):
        # the admissible bound grows like sqrt(n); n = 500 puts random
        # rank-2 subspaces comfortably inside it
        hits = 0
        for seed in range(100):
            gt = equal_mixture(500, K=3, r=2, seed=seed)
            hits += synth.check_assumption1(gt).holds
        assert hits >= 95


class TestAssumption1:
    def test_single_component_holds(self):
        gt = synth.make_ground_truth(5, 5, [1], [1.0], [[1.0]], seed=0)
        chk = synth.check_assumption1(gt)
        assert chk.holds and chk.mu == 0.0

    def test_bound_formula(self):
        gt = equal_mixture(120, K=3, r=2, seed=1)
        chk = synth.check_assumption1(gt)
        assert abs(chk.bound - math.sqrt(120) / 12.0) < 1e-12

    def test_constructed_violation(self):
        chk = synth.check_assumption1(overlapping_mixture())
        assert chk.mu > chk.bound and not chk.holds

    def test_scale_invariance(self):
        gt = equal_mixture(30, K=2, r=2, seed=5)
        scaled = synth.GroundTruth(
            n1=gt.n1,
            n2=gt.n2,
            components=tuple(
                dataclasses.replace(c, sigma_star=7.5 * c.sigma_star) for c in gt.components
            ),
        )
        a, b = synth.check_assumption1(gt), synth.check_assumption1(scaled)
        assert a.holds == b.holds and a.mu == b.mu and abs(a.bound - b.bound) < 1e-15


class TestSampleDataset:
    def test_exact_divisibility_counts(self):
        gt = equal_mixture(4, K=3, r=1)
        ds = synth.sample_dataset(gt, N=9, sigma=0.0, seed=0)
        assert sorted(np.bincount(ds.hidden_labels).tolist()) == [3, 3, 3]

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
            a = ds.design_rows([i]).reshape(2, 2)
            assert abs(ds.y[i] - np.vdot(a, m)) < 1e-12 * max(1.0, abs(ds.y[i]))

    def test_noiseless_consistency_bitexact(self):
        gt = equal_mixture(5, K=2, r=1, seed=4)
        ds = synth.sample_dataset(gt, N=500, sigma=0.0, seed=9)
        vec_ms = [gt.matrix(k).ravel() for k in range(gt.K)]
        for lo, hi, rows in ds.iter_design_blocks():
            lab = ds.hidden_labels[lo:hi]
            for k in range(gt.K):
                mask = lab == k
                if mask.any():
                    vals = rows @ vec_ms[k]
                    assert (ds.y[lo:hi][mask] == vals[mask]).all()

    def test_streamed_stored_bit_equality(self):
        gt = equal_mixture(6, K=2, r=2, seed=11)
        nn = 36
        stored = synth.sample_dataset(gt, N=2100, sigma=0.3, seed=13, stored_budget=2100 * nn)
        streamed = synth.sample_dataset(gt, N=2100, sigma=0.3, seed=13, stored_budget=0)
        # the stored prefix ends inside the second block
        hybrid = synth.sample_dataset(gt, N=2100, sigma=0.3, seed=13, stored_budget=1500 * nn)
        assert (stored.stored_rows, streamed.stored_rows, hybrid.stored_rows) == (2100, 0, 1500)
        idx = np.array([0, 1, 17, 1024, 1499, 1500, 2099])
        for other in (streamed, hybrid):
            assert (stored.y == other.y).all()
            assert (stored.hidden_labels == other.hidden_labels).all()
            assert (stored.design_rows(idx) == other.design_rows(idx)).all()
            blocks = list(other.iter_design_blocks())
            assert len(blocks) == 3
            for (lo1, hi1, b1), (lo2, hi2, b2) in zip(stored.iter_design_blocks(), blocks):
                assert lo1 == lo2 and hi1 == hi2 and (b1 == b2).all()

    def test_streamed_regeneration_is_stable(self):
        gt = equal_mixture(4, K=1, r=1, seed=2)
        ds = synth.sample_dataset(gt, N=10, sigma=1.0, seed=5, stored_budget=0)
        once = ds.design_rows(np.arange(10))
        again = ds.design_rows(np.arange(10))
        assert (once == again).all()
        for bad in ([10], [-1], [[0]]):
            with pytest.raises(InvalidInputError):
                ds.design_rows(bad)

    def test_auto_storage_policy(self):
        gt = equal_mixture(4, K=1, r=1, seed=2)
        nn = 16
        small = synth.sample_dataset(gt, N=8, sigma=0.0, seed=0)
        assert small.stored_rows == 8
        for budget in (0, 4, nn, 5 * nn + 3, 8 * nn, 100 * nn):
            ds = synth.sample_dataset(gt, N=8, sigma=0.0, seed=0, stored_budget=budget)
            assert ds.stored_rows == min(8, budget // nn)
            assert ds.designs_flat.shape == (ds.stored_rows, nn)
            assert (small.y == ds.y).all()
            assert (small.design_rows(np.arange(8)) == ds.design_rows(np.arange(8))).all()

    def test_variance_matches_moments(self):
        gt = synth.make_ground_truth(4, 4, [2], [1.0], [[1.2, 0.7]], seed=3)
        sigma = 0.5
        ds = synth.sample_dataset(gt, N=100_000, sigma=sigma, seed=21)
        expected = np.linalg.norm(gt.matrix(0)) ** 2 + sigma**2
        assert abs(np.var(ds.y) - expected) / expected < 0.03

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
                n1=2, n2=3, sigma=0.0, seed=seed, y=y,
                hidden_labels=np.zeros(len(y), dtype=np.int64), designs_flat=designs_flat,
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
