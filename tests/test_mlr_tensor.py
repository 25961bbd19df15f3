import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from mixsense import mlr_tensor as mt
from mixsense.synth import BLOCK
from mixsense.errors import InvalidInputError, NumericalError


def third_moment(samples, m1, w):
    """Corrected third moment of all the given samples, contracted by w."""
    return mt._third_moment(samples.a, samples.y**3, m1, w, samples.n)


def split_oracle(n, seed):
    """The documented split: the first of 8 sub-seeded Bernoulli draws with
    both halves non-empty."""
    for attempt in range(8):
        rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(attempt,)))
        mask = rng.random(n) < 0.5
        if mask.any() and (~mask).any():
            return mask


def restart_loop(tmat, u, iters):
    """One power-method restart, one matrix-vector product per step."""
    for _ in range(iters):
        mapped = tmat @ np.outer(u, u).ravel()
        norm = np.linalg.norm(mapped)
        if norm < 1e-300:
            break
        u = mapped / norm
    lam = float((tmat @ np.outer(u, u).ravel()) @ u)
    return (-lam, -u) if lam < 0.0 else (lam, u)


def power_loop(t3, K, restarts, iters, seed):
    """Deflated power method with one restart at a time, ties to the
    earliest restart: the reference for the batched restarts."""
    t3 = np.array(t3, dtype=float)
    d = t3.shape[0]
    rng = np.random.default_rng(seed)
    pairs = []
    for _ in range(K):
        best_lam, best_u = -np.inf, None
        for _ in range(restarts):
            u = rng.standard_normal(d)
            lam, u = restart_loop(t3.reshape(d, d * d), u / np.linalg.norm(u), iters)
            if lam > best_lam:
                best_lam, best_u = lam, u
        pairs.append((best_lam, best_u))
        t3 -= best_lam * np.einsum("i,j,k->ijk", best_u, best_u, best_u)
    return pairs


def rank1_tensor(u, scale=1.0):
    return scale * np.einsum("i,j,k->ijk", u, u, u)


def corrected_moment_oracle(samples, m1):
    """Full d x d x d corrected third moment, straight from its definition."""
    a, y = samples.a, samples.y
    raw = np.einsum("i,ia,ib,ic->abc", y**3, a, a, a) / (6.0 * y.size)
    eye = np.eye(a.shape[1])
    return raw - (np.einsum("a,bc->abc", m1, eye) + np.einsum("b,ac->abc", m1, eye)
                  + np.einsum("c,ab->abc", m1, eye))


def triple_loop_contract(t3, w):
    d, K = w.shape
    out = np.zeros((K, K, K))
    for m in range(K):
        for n in range(K):
            for p in range(K):
                acc = 0.0
                for i in range(d):
                    for j in range(d):
                        for k in range(d):
                            acc += t3[i, j, k] * w[i, m] * w[j, n] * w[k, p]
                out[m, n, p] = acc
    return out


class TestSplitSamples:
    def test_two_samples(self):
        for seed in range(20):
            mask = mt.split_mask(2, seed=seed)
            assert mask.shape == (2,) and mask.any() and not mask.all()
            # same sub-seeds and retries as the documented draw
            assert (mask == split_oracle(2, seed)).all()

    def test_disjoint_cover(self, rng):
        a = rng.standard_normal((40, 3))
        y = rng.standard_normal(40)
        mask = mt.split_mask(40, seed=5)
        merged = np.sort(np.concatenate([y[mask], y[~mask]]))
        assert (merged == np.sort(y)).all()
        rows = np.concatenate([a[mask], a[~mask]])
        assert (np.sort(rows, axis=0) == np.sort(a, axis=0)).all()
        assert (mask == split_oracle(40, 5)).all()

    def test_deterministic(self):
        assert (mt.split_mask(30, seed=9) == mt.split_mask(30, seed=9)).all()

    def test_binomial_concentration(self):
        hits = 0
        for seed in range(30):
            mask = mt.split_mask(10_000, seed=seed)
            hits += abs(int(mask.sum()) - 5000) <= 300
        assert hits == 30

    def test_too_few(self):
        with pytest.raises(InvalidInputError):
            mt.split_mask(1, seed=0)


class TestThirdMomentCorrection:
    def correction_oracle(self, m):
        d = m.size
        out = np.zeros((d, d, d))
        for a in range(d):
            for b in range(d):
                for c in range(d):
                    out[a, b, c] = m[a] * (b == c) + m[b] * (a == c) + m[c] * (a == b)
        return out

    @given(st.lists(st.floats(-5, 5), min_size=1, max_size=4))
    def test_matches_oracle_and_symmetry(self, m):
        m = np.asarray(m)
        t = mt.third_moment_correction(m)
        assert (t == self.correction_oracle(m)).all()
        for perm in itertools.permutations(range(3)):
            assert (t == np.transpose(t, perm)).all()

    def test_gram_matches_contracted_identity(self, rng):
        d, K = 5, 3
        m = rng.standard_normal(d)
        w = rng.standard_normal((d, K))
        t = mt.third_moment_correction(w.T @ m, w.T @ w)
        assert np.abs(t - triple_loop_contract(mt.third_moment_correction(m), w)).max() < 1e-12

    def test_gram_shape_mismatch(self):
        with pytest.raises(InvalidInputError):
            mt.third_moment_correction(np.ones(2), np.eye(3))


class TestMoments:
    def test_hand_example(self):
        # one sample per half, both with a = e1 and y = 1
        two = mt.VecSamples(np.array([[1.0, 0.0], [1.0, 0.0]]), np.array([1.0, 1.0]))
        mom = mt.moments(two, np.array([True, False]), K=1)
        assert mom.m0 == 1.0
        np.testing.assert_allclose(mom.m1, [1 / 6, 0.0])
        np.testing.assert_allclose(mom.m2, np.diag([0.0, -0.5]))
        one = mt.VecSamples(two.a[1:], two.y[1:])
        m3 = third_moment(one, mom.m1, np.eye(2))
        # raw third moment is e1 x e1 x e1 / 6; correction removes more
        assert abs(m3[0, 0, 0] - (-1 / 3)) < 1e-15
        expected = rank1_tensor(np.array([1.0, 0.0]), 1 / 6) - mt.third_moment_correction(
            np.array([1 / 6, 0.0])
        )
        assert (m3 == expected).all()

    def test_zero_targets(self, rng):
        a = rng.standard_normal((10, 2))
        zero = mt.VecSamples(a, np.zeros(10))
        # a zero second moment has nothing to whiten
        with pytest.raises(NumericalError, match="second moment is identically zero"):
            mt.moments(zero, mt.split_mask(10, seed=0), K=1)
        assert (third_moment(zero, np.zeros(2), np.eye(2)) == 0).all()

    def test_symmetry_of_m3(self, rng):
        samples = mt.VecSamples(rng.standard_normal((50, 3)), rng.standard_normal(50))
        mom = mt.moments(samples, mt.split_mask(50, seed=0), K=1)
        m3 = third_moment(samples, mom.m1, np.eye(3))
        for perm in itertools.permutations(range(3)):
            assert np.abs(m3 - np.transpose(m3, perm)).max() <= 1e-10 * max(
                1.0, np.abs(m3).max()
            )

    def test_population_single_component(self):
        # E[m2] = beta beta^T and E[m3] = beta^(x3) for one component
        beta = np.array([2.0, 0.0])
        hits_m2, hits_m3 = 0, 0
        for seed in range(10):
            g = np.random.default_rng(seed)
            a = g.standard_normal((100_000, 2))
            samples = mt.VecSamples(a, a @ beta)
            mask = mt.split_mask(samples.n, seed=seed)
            mom = mt.moments(samples, mask, K=1)
            m3 = third_moment(mt.VecSamples(a[~mask], samples.y[~mask]), mom.m1, np.eye(2))
            hits_m2 += np.linalg.norm(mom.m2 - np.outer(beta, beta), 2) <= 0.15 * 4.0
            hits_m3 += abs(m3[0, 0, 0] - 8.0) <= 0.8
        assert hits_m2 >= 9 and hits_m3 >= 9

    def test_dim_mismatch(self):
        # one mask entry per sample
        with pytest.raises(InvalidInputError):
            mt.moments(mt.VecSamples(np.ones((2, 2)), np.ones(2)), np.array([True, False, True]),
                       K=1)

    @pytest.mark.parametrize("mask", [[1, 0, 1, 0], [True] * 4, [False] * 4])
    def test_mask_must_split(self, mask):
        with pytest.raises(InvalidInputError):
            mt.moments(mt.VecSamples(np.eye(4), np.ones(4)), np.array(mask), K=1)

    def test_third_moment_is_whitened(self, rng):
        a1, y1 = rng.standard_normal((80, 4)), rng.standard_normal(80)
        a2, y2 = rng.standard_normal((60, 4)), rng.standard_normal(60)
        samples = mt.VecSamples(np.vstack([a1, a2]), np.concatenate([y1, y2]))
        mask = np.arange(140) < 80
        mom = mt.moments(samples, mask, K=2)
        w = mom.whitening.w
        assert w.shape == (4, 2) and mom.t3.shape == (2, 2, 2)
        assert (w == mt.whiten(mom.m2, K=2).w).all()
        cubes = np.where(mask, 0.0, samples.y**3)
        assert (mom.t3 == mt._third_moment(samples.a, cubes, mom.m1, w, 60)).all()

    def test_mask_matches_copied_halves(self, rng):
        # over several BLOCK-row chunks, the masked sums equal the moments of
        # the two halves copied out, from their definitions
        N, d, K = 2 * BLOCK + 37, 5, 2
        samples = mt.VecSamples(rng.standard_normal((N, d)), rng.standard_normal(N))
        mask = mt.split_mask(N, seed=3)
        mom = mt.moments(samples, mask, K)
        a1, y1 = samples.a[mask], samples.y[mask]
        a2, y2 = samples.a[~mask], samples.y[~mask]
        m0 = np.mean(y1**2)
        m1 = y2**3 @ a2 / (6.0 * y2.size)
        m2 = (a1 * y1[:, None] ** 2).T @ a1 / (2.0 * y1.size) - 0.5 * m0 * np.eye(d)
        t3 = triple_loop_contract(corrected_moment_oracle(mt.VecSamples(a2, y2), m1),
                                  mom.whitening.w)
        for got, want in ((mom.m0, m0), (mom.m1, m1), (mom.m2, m2), (mom.t3, t3)):
            assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


class TestWhiten:
    def test_rank_one_diag(self):
        wh = mt.whiten(np.diag([4.0, 0.0]), K=1)
        np.testing.assert_allclose(wh.w, [[0.5], [0.0]], atol=1e-14)
        assert wh.ratio == 1.0

    def test_identity(self):
        w = mt.whiten(np.eye(3), K=3).w
        np.testing.assert_allclose(w.T @ np.eye(3) @ w, np.eye(3), atol=1e-12)

    def test_rank_one_outer(self):
        beta = np.array([2.0, 0.0])
        w = mt.whiten(np.outer(beta, beta), K=1).w
        assert abs(w.T @ np.outer(beta, beta) @ w - 1.0) < 1e-12

    def test_population_mixture_whitening(self, rng):
        d, K = 6, 3
        betas = rng.standard_normal((K, d))
        probs = np.array([0.2, 0.3, 0.5])
        m2 = sum(p * np.outer(b, b) for p, b in zip(probs, betas))
        wh = mt.whiten(m2, K)
        assert np.linalg.norm(wh.w.T @ m2 @ wh.w - np.eye(K)) <= 1e-8
        s = np.linalg.svd(m2, compute_uv=False)
        assert abs(wh.ratio - s[K - 1] / s[0]) <= 1e-12

    def test_rank_deficient(self):
        with pytest.raises(NumericalError, match="second moment rank below K"):
            mt.whiten(np.diag([1.0, 1e-14]), K=2)

    def test_zero_matrix_collapses(self):
        with pytest.raises(NumericalError, match="second moment is identically zero"):
            mt.whiten(np.zeros((2, 2)), K=1)


class TestWhitenedTensor:
    """`_third_moment` forms the whitened tensor straight from the samples."""

    def test_identity_map(self, rng):
        samples = mt.VecSamples(rng.standard_normal((50, 4)), rng.standard_normal(50))
        m1 = rng.standard_normal(4)
        expected = corrected_moment_oracle(samples, m1)
        got = third_moment(samples, m1, np.eye(4))
        assert np.abs(got - expected).max() <= 1e-12 * np.abs(expected).max()

    def test_rank_one_scalar(self):
        one = mt.VecSamples(np.array([[1.0, 0.0]]), np.array([1.0]))
        out = third_moment(one, np.zeros(2), np.array([[0.5], [0.0]]))
        assert out.shape == (1, 1, 1)
        assert abs(out[0, 0, 0] - 0.125 / 6) < 1e-15

    def test_matches_triple_loop(self, rng):
        # the full d x d x d moment from its definition, contracted entry by entry
        for n, d, K in ((1, 1, 1), (40, 3, 2), (300, 6, 3)):
            samples = mt.VecSamples(rng.standard_normal((n, d)), rng.standard_normal(n))
            m1 = rng.standard_normal(d)
            w = rng.standard_normal((d, K))
            expected = triple_loop_contract(corrected_moment_oracle(samples, m1), w)
            got = third_moment(samples, m1, w)
            assert got.shape == (K, K, K)
            assert np.abs(got - expected).max() <= 1e-12 * np.abs(expected).max()

class TestRobustTensorPower:
    def test_exact_rank_one(self):
        pairs = mt.robust_tensor_power(rank1_tensor(np.array([1.0, 0.0]), 2.0), K=1,
                                       restarts=8, iters=50, seed=0)
        lam, u = pairs[0]
        assert abs(lam - 2.0) < 1e-10
        assert np.abs(np.abs(u) - [1.0, 0.0]).max() < 1e-10

    def test_two_orthogonal_components(self):
        t3 = rank1_tensor(np.array([1.0, 0.0]), 3.0) + rank1_tensor(np.array([0.0, 1.0]), 1.0)
        pairs = mt.robust_tensor_power(t3, K=2, restarts=12, iters=100, seed=1)
        lams = [lam for lam, _ in pairs]
        assert abs(lams[0] - 3.0) < 1e-8 and abs(lams[1] - 1.0) < 1e-8
        assert np.abs(pairs[0][1] - [1.0, 0.0]).max() < 1e-8
        assert np.abs(pairs[1][1] - [0.0, 1.0]).max() < 1e-8

    def test_negative_component_sign_flip(self):
        pairs = mt.robust_tensor_power(rank1_tensor(np.array([1.0, 0.0]), -2.0), K=1,
                                       restarts=8, iters=50, seed=2)
        lam, u = pairs[0]
        assert abs(lam - 2.0) < 1e-10
        assert np.abs(u - [-1.0, 0.0]).max() < 1e-10

    def test_deflation_telescope(self, rng):
        q = np.linalg.qr(rng.standard_normal((5, 4)))[0]
        lams = np.array([4.0, 3.0, 2.0, 1.0])
        t3 = sum(rank1_tensor(q[:, i], lams[i]) for i in range(4))
        pairs = mt.robust_tensor_power(t3, K=4, restarts=16, iters=120, seed=3)
        recon = sum(rank1_tensor(u, lam) for lam, u in pairs)
        assert np.linalg.norm((t3 - recon).ravel()) <= 1e-8 * lams.max()

    def test_rank_collapse(self):
        with pytest.raises(NumericalError, match="power method found no component"):
            mt.robust_tensor_power(np.zeros((2, 2, 2)), K=1, restarts=4, iters=10, seed=0)

    def test_matches_per_restart_loop(self, rng):
        # random symmetric tensors: orthogonal components plus symmetrized noise
        for d, K in ((3, 3), (4, 2), (5, 4)):
            q = np.linalg.qr(rng.standard_normal((d, d)))[0]
            noise = rng.standard_normal((d, d, d))
            noise = sum(np.transpose(noise, p) for p in itertools.permutations(range(3))) / 6
            t3 = sum(rank1_tensor(q[:, i], 1.0 + i) for i in range(d)) + 0.05 * noise
            got = mt.robust_tensor_power(t3, K, restarts=10 + 2 * K, iters=100, seed=d)
            want = power_loop(t3, K, restarts=10 + 2 * K, iters=100, seed=d)
            for (lam, u), (lam_ref, u_ref) in zip(got, want):
                assert abs(lam - lam_ref) <= 1e-12 * lam_ref
                assert np.abs(u - u_ref).max() <= 1e-12

    def test_stopped_restarts_match_loop(self, rng):
        # t3 = 2 e0^(x3) plus the symmetric e1 e1 e2 term: t3(I, u, u) is 0 at
        # u = e2, so the start e2 stops at step 1 and the start e1 (mapped to
        # e2) at step 2, while the other starts keep iterating
        t3 = rank1_tensor(np.array([1.0, 0.0, 0.0]), 2.0)
        for i, j, k in ((1, 1, 2), (1, 2, 1), (2, 1, 1)):
            t3[i, j, k] = 1.0
        starts = np.vstack([np.eye(3)[[2, 1]], [[0.6, 0.8, 0.0]],
                            rng.standard_normal((5, 3))])
        starts /= np.linalg.norm(starts, axis=1, keepdims=True)
        lams, us = mt._power_round(t3.reshape(3, 9), starts.copy(), iters=60)
        assert (us[:2] == np.eye(3)[[2, 2]]).all() and (lams[:2] == 0.0).all()
        assert (lams[2:] > 0.0).all()
        for lam, u, start in zip(lams, us, starts):
            lam_ref, u_ref = restart_loop(t3.reshape(3, 9), start, 60)
            assert abs(lam - lam_ref) <= 1e-12 * max(lam_ref, 1.0)
            assert np.abs(u - u_ref).max() <= 1e-12

    def test_deterministic(self):
        t3 = rank1_tensor(np.array([0.6, 0.8]), 2.0)
        p1 = mt.robust_tensor_power(t3, K=1, restarts=6, iters=40, seed=11)
        p2 = mt.robust_tensor_power(t3, K=1, restarts=6, iters=40, seed=11)
        assert p1[0][0] == p2[0][0] and (p1[0][1] == p2[0][1]).all()


class TestUnwhiten:
    def test_end_to_end_hand_computation(self):
        beta = np.array([2.0, 0.0])
        m2 = np.outer(beta, beta)
        wh = mt.whiten(m2, K=1)
        w = wh.w[:, 0]
        t3 = rank1_tensor(beta)  # p = 1
        lam = np.einsum("abc,a,b,c->", t3, w, w, w)
        assert abs(lam - 1.0) < 1e-12
        est = mt.unwhiten([(float(lam), np.array([1.0]))], wh)
        assert abs(est.weights[0] - 1.0) < 1e-10
        np.testing.assert_allclose(est.betas[0], beta, atol=1e-10)

    def test_weight_rule(self):
        est = mt.unwhiten([(2.0, np.array([1.0, 0.0]))], mt.Whitening(np.eye(2), 1.0))
        assert est.weights[0] == 0.25

    def test_identity_whitening(self):
        est = mt.unwhiten([(1.0, np.array([1.0, 0.0]))], mt.Whitening(np.eye(2), 1.0))
        np.testing.assert_array_equal(est.betas[0], [1.0, 0.0])

    def test_weight_flagging(self):
        with pytest.warns(RuntimeWarning):
            est = mt.unwhiten([(0.5, np.array([1.0]))], mt.Whitening(np.array([[1.0], [0.0]]), 1.0))
        assert est.weights[0] == 4.0 and est.weight_flagged[0]
        assert est.whitening_ratio == 1.0


class TestSolveMlr:
    def test_single_component_recovery(self):
        beta = np.array([3.0, -1.0])
        ok_beta, weight_errs = 0, []
        for seed in range(10):
            g = np.random.default_rng(seed)
            a = g.standard_normal((50_000, 2))
            est = mt.solve_mlr(mt.VecSamples(a, a @ beta), K=1, seed=seed)
            ok_beta += np.linalg.norm(est.betas[0] - beta) <= 0.1 * np.linalg.norm(beta)
            weight_errs.append(abs(est.weights[0] - 1.0))
        assert ok_beta >= 9
        # weight estimates carry larger constants than the direction; the
        # calibrated envelope at this sample size is 0.25
        assert sum(w <= 0.25 for w in weight_errs) >= 9

    def test_two_component_recovery(self):
        b1 = np.array([2.0, 0.0, 0.0, 0.0])
        b2 = np.array([0.0, 2.0, 0.0, 0.0])
        hits = 0
        for seed in range(10):
            g = np.random.default_rng(100 + seed)
            n = 200_000
            a = g.standard_normal((n, 4))
            lab = g.integers(0, 2, n)
            y = np.where(lab == 0, a @ b1, a @ b2)
            est = mt.solve_mlr(mt.VecSamples(a, y), K=2, seed=seed)

            def err(bh, bt):
                return np.linalg.norm(bh - bt) / np.linalg.norm(bt)

            direct = max(err(est.betas[0], b1), err(est.betas[1], b2))
            swapped = max(err(est.betas[0], b2), err(est.betas[1], b1))
            hits += min(direct, swapped) <= 0.15
        assert hits >= 8

    def test_zero_observations(self, rng):
        a = rng.standard_normal((100, 3))
        with pytest.raises(NumericalError, match="second moment is identically zero"):
            mt.solve_mlr(mt.VecSamples(a, np.zeros(100)), K=1, seed=0)

    def test_deterministic(self, rng):
        a = rng.standard_normal((5_000, 2))
        y = a @ np.array([1.0, 2.0])
        e1 = mt.solve_mlr(mt.VecSamples(a, y), K=1, seed=4)
        e2 = mt.solve_mlr(mt.VecSamples(a, y), K=1, seed=4)
        assert (e1.betas == e2.betas).all() and (e1.weights == e2.weights).all()

    def test_scaling_covariance(self, rng):
        a = rng.standard_normal((20_000, 2))
        y = a @ np.array([1.5, -0.5])
        base = mt.solve_mlr(mt.VecSamples(a, y), K=1, seed=7)
        doubled = mt.solve_mlr(mt.VecSamples(a, 2.0 * y), K=1, seed=7)
        np.testing.assert_allclose(doubled.betas, 2.0 * base.betas, rtol=1e-8)
        np.testing.assert_allclose(doubled.weights, base.weights, rtol=1e-8)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("field", ["a", "y"])
    def test_nonfinite_samples_rejected(self, rng, field, bad):
        a = rng.standard_normal((200, 3))
        y = a @ np.array([1.0, -1.0, 0.5])
        (a if field == "a" else y)[7] = bad
        samples = mt.VecSamples(a, y)
        with pytest.raises(InvalidInputError):
            mt.solve_mlr(samples, K=1, seed=0)
        with pytest.raises(InvalidInputError):
            mt.moments(samples, mt.split_mask(200, seed=0), K=1)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_memory_copies_no_half(self, rng):
        # the moments sum over the one sample array: copying the two halves
        # and a weighted copy of one would take about 1.5x the input
        N, d, K = 40_000, 36, 3
        a = rng.standard_normal((N, d))
        betas = rng.standard_normal((K, d))
        y = np.einsum("nd,nd->n", a, betas[rng.integers(0, K, N)])
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            mt.solve_mlr(mt.VecSamples(a, y), K=K, seed=0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 0.5 * (a.nbytes + y.nbytes)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_memory_stays_linear_in_dim(self, rng):
        # no stage-2 array may hold d^2 entries per sample: the peak stays
        # a small multiple of the input (a d^2-column outer-product array
        # would be d = 36 times the input's size)
        N, d, K = 4000, 36, 3
        a = rng.standard_normal((N, d))
        betas = rng.standard_normal((K, d))
        y = np.einsum("nd,nd->n", a, betas[rng.integers(0, K, N)])
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            mt.solve_mlr(mt.VecSamples(a, y), K=K, seed=0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4 * a.nbytes
