import numpy as np
import pytest

from mixsense import core, spectral, synth
from mixsense.errors import InvalidInputError

from helpers import manual_dataset


class TestDataMatrix:
    def test_single_sample(self):
        ds = manual_dataset([np.eye(2)], [2.0])
        np.testing.assert_array_equal(spectral.data_matrix(ds), 2.0 * np.eye(2))

    def test_two_terms(self):
        a1 = np.diag([1.0, 0.0])
        a2 = np.diag([0.0, 1.0])
        ds = manual_dataset([a1, a2], [1.0, 3.0])
        np.testing.assert_allclose(spectral.data_matrix(ds), np.diag([0.5, 1.5]))

    def test_linear_in_y_exact_for_powers_of_two(self, rng):
        gt = synth.make_ground_truth(4, 4, [1], [1.0], [[1.0]], seed=0)
        ds = synth.sample_dataset(gt, N=300, sigma=0.1, seed=1)
        base = spectral.data_matrix(ds)
        import dataclasses

        for c in (2.0, -1.0, 0.25):
            scaled = dataclasses.replace(ds, y=c * ds.y)
            assert (spectral.data_matrix(scaled) == c * base).all()

    def test_population_mean(self):
        # K=2, sigma=0: the average concentrates on the proportion-weighted
        # component sum
        hits = 0
        for seed in range(10):
            gt = synth.make_ground_truth(8, 8, [1, 1], [0.5, 0.5], [[1.0], [1.0]], seed=seed)
            ds = synth.sample_dataset(gt, N=200_000, sigma=0.0, seed=seed)
            y_mat = spectral.data_matrix(ds)
            target = 0.5 * gt.matrix(0) + 0.5 * gt.matrix(1)
            ref = max(np.linalg.norm(gt.matrix(k)) for k in range(2))
            hits += np.linalg.norm(y_mat - target, 2) <= 0.1 * ref
        assert hits >= 9

    def test_empty_rejected(self):
        ds = manual_dataset([np.eye(2)], [1.0])
        import dataclasses

        empty = dataclasses.replace(
            ds, y=np.zeros(0), designs_flat=np.zeros((0, 4)),
        )
        with pytest.raises(InvalidInputError):
            spectral.data_matrix(empty)


class TestSubspaceEstimate:
    def test_diagonal(self):
        sub = spectral.subspace_estimate(np.diag([3.0, 1.0]), 1)
        np.testing.assert_allclose(sub.u, [[1.0], [0.0]], atol=1e-14)
        np.testing.assert_allclose(sub.v, [[1.0], [0.0]], atol=1e-14)
        assert sub.singular_values.size == 2

    def test_constructed_spectrum(self, rng):
        u0 = np.linalg.qr(rng.standard_normal((7, 3)))[0]
        v0 = np.linalg.qr(rng.standard_normal((6, 3)))[0]
        y = u0 @ np.diag([5.0, 4.0, 1e-12]) @ v0.T
        sub = spectral.subspace_estimate(y, 2)
        assert core.subspace_distance(sub.u, u0[:, :2]) <= 1e-6
        assert core.subspace_distance(sub.v, v0[:, :2]) <= 1e-6

    def test_projector_invariant_under_sign_flips(self, rng):
        y = rng.standard_normal((6, 6))
        sub = spectral.subspace_estimate(y, 3)
        flipped = sub.u * np.array([1.0, -1.0, 1.0])
        assert core.subspace_distance(sub.u, flipped) == 0.0

    def test_scaled_mixture_quality(self):
        # n=40 mixture at the reference sampling rate: the estimated joint
        # spaces land within the empirically calibrated distance of the truth
        dists = []
        for seed in range(3):
            gt = synth.make_ground_truth(40, 40, [2] * 3, [1 / 3] * 3, [[1.0] * 2] * 3, seed)
            ds = synth.sample_dataset(gt, N=90 * 40 * 2 * 3, sigma=0.0, seed=seed)
            sub = spectral.subspace_estimate(spectral.data_matrix(ds), 6)
            ustar = np.linalg.qr(np.hstack([c.u_star for c in gt.components]))[0]
            dists.append(core.subspace_distance(sub.u, ustar))
        assert max(dists) <= 0.4

    def test_range_validation(self):
        with pytest.raises(InvalidInputError):
            spectral.subspace_estimate(np.eye(3), 0)
        with pytest.raises(InvalidInputError):
            spectral.subspace_estimate(np.eye(3), 4)

    def test_single_component_distance_shrinks_with_n(self):
        gt = synth.make_ground_truth(8, 8, [2], [1.0], [[1.0, 1.0]], seed=5)
        ustar = gt.components[0].u_star
        medians = []
        for N in (1_000, 10_000, 100_000):
            d = []
            for seed in range(5):
                ds = synth.sample_dataset(gt, N=N, sigma=0.0, seed=seed)
                sub = spectral.subspace_estimate(spectral.data_matrix(ds), 2)
                d.append(core.subspace_distance(sub.u, ustar))
            medians.append(np.median(d))
        assert medians[0] > medians[1] > medians[2]


class TestEstimateRank:
    def test_gap_rule(self):
        assert spectral.estimate_rank([10, 9, 8, 1e-8, 1e-9], max_rank=4) == 3

    def test_single_value(self):
        assert spectral.estimate_rank([5.0], max_rank=1) == 1

    def test_gap_ratio_is_the_rule_ratio(self):
        s = np.array([10, 9, 8, 1e-8, 1e-9])
        assert spectral.gap_ratio(s, 3) == 8 / 1e-8
        assert spectral.gap_ratio(s, 5) == 1e-9 / (spectral.GAP_FLOOR * 10)  # nothing past the end
        ratios = [spectral.gap_ratio(s, i) for i in range(1, 5)]
        assert spectral.estimate_rank(s, max_rank=4) == 1 + ratios.index(max(ratios))

    def test_degenerate_spectrum_raises(self):
        with pytest.raises(InvalidInputError):
            spectral.estimate_rank([0.0, 0.0], max_rank=2)
        with pytest.raises(InvalidInputError):
            spectral.subspace_estimate(np.zeros((4, 4)))

    def test_tie_breaks_to_smallest(self):
        # equal ratios everywhere: argmax must be the first index
        assert spectral.estimate_rank([8.0, 4.0, 2.0, 1.0], max_rank=3) == 1

    def test_validation(self):
        with pytest.raises(InvalidInputError):
            spectral.estimate_rank([], max_rank=1)
        with pytest.raises(InvalidInputError):
            spectral.estimate_rank([1.0], max_rank=2)

    def test_non_finite_spectrum(self):
        with pytest.raises(InvalidInputError):
            spectral.estimate_rank([np.nan, 1.0, 0.5], max_rank=2)
        with pytest.raises(InvalidInputError):
            spectral.estimate_rank([np.inf, 1.0], max_rank=1)

    def test_desk_scale_recovers_total_rank(self):
        for seed in range(3):
            gt = synth.make_ground_truth(40, 40, [2] * 3, [1 / 3] * 3, [[1.0] * 2] * 3, seed)
            ds = synth.sample_dataset(gt, N=90 * 40 * 2 * 3, sigma=0.0, seed=seed)
            s = core.svd(spectral.data_matrix(ds)).s
            assert spectral.estimate_rank(s, max_rank=20) == 6
