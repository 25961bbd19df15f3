import numpy as np
import pytest

from helpers import manual_dataset, stacked_rows
from mixsense import core, initialization as ini, scaledtgd, spectral, synth
from mixsense.errors import InvalidInputError, NumericalError
from mixsense.mlr_tensor import MlrEstimate
from mixsense.spectral import SubspaceEstimate


def subspace(u, v):
    u, v = np.atleast_2d(u), np.atleast_2d(v)
    return SubspaceEstimate(u=u, v=v, r_joint=u.shape[1], singular_values=np.ones(u.shape[1]))


class TestCompressSamples:
    def test_identity_subspaces(self, rng):
        designs = rng.standard_normal((5, 3, 3))
        ds = manual_dataset(designs, rng.standard_normal(5))
        sub = subspace(np.eye(3), np.eye(3))
        out = ini.compress_samples(ds, sub)
        for i in range(5):
            np.testing.assert_array_equal(out.a[i], core.vec(designs[i]))
        np.testing.assert_array_equal(out.y, ds.y)

    def test_rank_one_projection(self):
        a = np.array([[0.0, 3.0], [7.0, 0.0]])
        ds = manual_dataset([a], [1.0])
        sub = subspace(np.array([[1.0], [0.0]]), np.array([[0.0], [1.0]]))
        out = ini.compress_samples(ds, sub)
        np.testing.assert_array_equal(out.a, [[3.0]])

    def test_compressed_designs_are_isotropic(self):
        gt = synth.make_ground_truth(4, 4, [1], [1.0], [[1.0]], seed=0)
        ds = synth.sample_dataset(gt, N=100_000, sigma=0.0, seed=3)
        u = synth.random_orthonormal(4, 2, seed=1)
        v = synth.random_orthonormal(4, 2, seed=2)
        out = ini.compress_samples(ds, subspace(u, v))
        cov = out.a.T @ out.a / out.n
        assert np.abs(cov - np.eye(4)).max() < 0.05

    def test_matches_einsum_oracle(self):
        # n1 != n2, and N one block plus 5 rows: all stored, a float32 prefix
        # ending inside the first block, and all streamed give the same bits
        n1, n2, N = 6, 5, synth.BLOCK + 5
        gt = synth.make_ground_truth(n1, n2, [2], [1.0], [[1.0, 0.5]], seed=4)
        u = synth.random_orthonormal(n1, 3, seed=1)
        v = synth.random_orthonormal(n2, 3, seed=2)
        outs = []
        for budget, stored in ((N * n1 * n2, N), (600 * n1 * n2 // 2, 600), (0, 0)):
            ds = synth.sample_dataset(gt, N=N, sigma=0.0, seed=8, stored_budget=budget)
            assert ds.stored_rows == stored
            outs.append(ini.compress_samples(ds, subspace(u, v)).a)
        designs = stacked_rows(ds, np.arange(N)).reshape(N, n1, n2)
        small = np.einsum("ji,mjk,kl->mil", u, designs, v)
        expected = small.transpose(0, 2, 1).reshape(N, 9)  # column-major vec
        assert np.abs(outs[0] - expected).max() <= 1e-13 * np.abs(expected).max()
        assert all((out == outs[0]).all() for out in outs[1:])

    def test_shape_mismatch(self, rng):
        ds = manual_dataset(rng.standard_normal((2, 3, 3)), np.zeros(2))
        with pytest.raises(InvalidInputError):
            ini.compress_samples(ds, subspace(np.eye(4), np.eye(4)))


class TestLiftAndFactor:
    def test_exact_oracle_case(self, rng):
        # a matrix already inside the subspaces lifts back exactly
        u = np.linalg.qr(rng.standard_normal((7, 3)))[0]
        v = np.linalg.qr(rng.standard_normal((6, 3)))[0]
        m = u @ rng.standard_normal((3, 3)) @ v.T
        beta = core.vec(u.T @ m @ v)
        pair = ini.lift_and_factor(beta, subspace(u, v), r_k=3)
        assert np.linalg.norm(pair.product() - m) <= 1e-8 * np.linalg.norm(m)

    def test_scalar_case(self):
        sub = subspace(np.array([[1.0], [0.0]]), np.array([[1.0], [0.0]]))
        pair = ini.lift_and_factor(np.array([6.0]), sub, r_k=1)
        np.testing.assert_allclose(pair.l, [[np.sqrt(6.0)], [0.0]])
        np.testing.assert_allclose(pair.r, [[np.sqrt(6.0)], [0.0]])

    def test_matches_best_rank_r(self, rng):
        # independent oracle: the lifted product equals the truncated SVD of
        # the lifted matrix
        u = np.linalg.qr(rng.standard_normal((6, 4)))[0]
        v = np.linalg.qr(rng.standard_normal((5, 4)))[0]
        beta = rng.standard_normal(16)
        lifted = u @ core.unvec(beta, 4) @ v.T
        uu, ss, vv = np.linalg.svd(lifted)
        best2 = (uu[:, :2] * ss[:2]) @ vv[:2]
        pair = ini.lift_and_factor(beta, subspace(u, v), r_k=2)
        assert np.linalg.norm(pair.product() - best2) <= 1e-10

    def test_eckart_young_spot_check(self, rng):
        u = np.linalg.qr(rng.standard_normal((6, 3)))[0]
        v = np.linalg.qr(rng.standard_normal((6, 3)))[0]
        beta = rng.standard_normal(9)
        lifted = u @ core.unvec(beta, 3) @ v.T
        pair = ini.lift_and_factor(beta, subspace(u, v), r_k=2)
        ours = np.linalg.norm(lifted - pair.product())
        for _ in range(200):
            x = rng.standard_normal((6, 2)) @ rng.standard_normal((2, 6))
            assert ours <= np.linalg.norm(lifted - x) + 1e-12

    def test_rank_deficient(self):
        sub = subspace(np.eye(2), np.eye(2))
        with pytest.raises(NumericalError, match="lifted matrix supports rank"):
            ini.lift_and_factor(core.vec(np.diag([1.0, 0.0])), sub, r_k=2)

    def test_rank_out_of_range(self):
        sub = subspace(np.eye(2), np.eye(2))
        with pytest.raises(InvalidInputError):
            ini.lift_and_factor(np.ones(4), sub, r_k=3)

    def test_norm_preservation_bound(self, rng):
        # ||u mat(b) v^T||_F == ||b||_2, and b = vec(u^T m v) never exceeds
        # ||m||_F
        u = np.linalg.qr(rng.standard_normal((8, 3)))[0]
        v = np.linalg.qr(rng.standard_normal((7, 3)))[0]
        m = rng.standard_normal((8, 7))
        beta = core.vec(u.T @ m @ v)
        lifted_norm = np.linalg.norm(u @ core.unvec(beta, 3) @ v.T)
        assert abs(lifted_norm - np.linalg.norm(beta)) < 1e-12
        assert np.linalg.norm(beta) <= np.linalg.norm(m) + 1e-12


def estimated_ranks(monkeypatch, mats):
    """Ranks that `initialize_all` estimates when the mixed regression
    returns the compressed R x R solutions `mats`, on identity subspaces."""
    R, K = len(mats[0]), len(mats)
    betas = np.array([core.vec(m) for m in mats])
    mlr = MlrEstimate(betas=betas, weights=np.full(K, 1.0 / K), eigenvalues=np.full(K, np.sqrt(K)),
                      weight_flagged=np.zeros(K, dtype=bool), whitening_ratio=1.0)
    monkeypatch.setattr(ini, "solve_mlr", lambda samples, K, seed: mlr)
    designs = np.random.default_rng(0).standard_normal((8, R, R))
    res = ini.initialize_all(manual_dataset(designs, np.zeros(8)),
                             subspace(np.eye(R), np.eye(R)), K, None, seed=0)
    return [f.l.shape[1] for f in res.factors]


class TestEstimateComponentRanks:
    def test_gap(self, monkeypatch):
        assert estimated_ranks(monkeypatch, [np.diag([2.0, 2.0, 1e-9])]) == [2]

    def test_degenerate_spectrum_raises(self, monkeypatch):
        with pytest.raises(InvalidInputError):
            estimated_ranks(monkeypatch, [np.zeros((3, 3))])

    def test_multiple(self, monkeypatch):
        mats = [np.diag([5.0, 1e-12]), np.diag([3.0, 2.0])]
        assert estimated_ranks(monkeypatch, mats) == [1, 2]

    @pytest.mark.xfail(
        strict=True,
        reason="the scan bound R reaches the missing value past the end, whose "
        "floored ratio s_R / (1e-12 s_1) outweighs the real gap",
    )
    def test_scan_stops_before_the_missing_value(self, monkeypatch):
        # R = 6, K = 3: the first component's largest real gap is at rank 2
        spread = np.diag([1.0, 0.919, 0.22, 0.185, 0.119, 0.091])
        exact = np.diag([1.0, 1.0, 0.0, 0.0, 0.0, 0.0])
        assert estimated_ranks(monkeypatch, [spread, exact, exact]) == [2, 2, 2]


class TestInitializeAll:
    def test_single_component_recovery(self):
        # with oracle or estimated subspaces the single-component init lands
        # inside the calibrated envelope; the dominant error is the
        # heavy-tailed third-moment noise, which shrinks like 1/sqrt(N)
        hits_oracle, hits_est = 0, 0
        for seed in range(10):
            gt = synth.make_ground_truth(8, 8, [1], [1.0], [[1.0]], seed=seed)
            ds = synth.sample_dataset(gt, N=50_000, sigma=0.0, seed=seed)
            c = gt.components[0]
            res = ini.initialize_all(ds, subspace(c.u_star, c.v_star), 1, [1], seed=seed)
            hits_oracle += core.rel_fro_error(res.factors[0].product(), gt.matrix(0)) <= 0.2
            sub = spectral.subspace_estimate(spectral.data_matrix(ds), 1)
            res = ini.initialize_all(ds, sub, 1, [1], seed=seed)
            hits_est += core.rel_fro_error(res.factors[0].product(), gt.matrix(0)) <= 0.2
        assert hits_oracle >= 9 and hits_est >= 9

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_nonfinite_designs_rejected(self, rng, bad):
        designs = rng.standard_normal((20, 3, 3))
        designs[4, 1, 2] = bad
        ds = manual_dataset(designs, rng.standard_normal(20))
        with pytest.raises(InvalidInputError):
            ini.initialize_all(ds, subspace(np.eye(3), np.eye(3)), 1, [1], seed=0)

    def test_extraction_order_matches_mlr(self, rng):
        gt = synth.make_ground_truth(6, 6, [1, 1], [0.5, 0.5], [[1.0], [1.0]], seed=3)
        ds = synth.sample_dataset(gt, N=20_000, sigma=0.0, seed=3)
        sub = spectral.subspace_estimate(spectral.data_matrix(ds), 2)
        res = ini.initialize_all(ds, sub, 2, [1, 1], seed=0)
        assert len(res.factors) == 2
        assert res.mlr.betas.shape == (2, 4)
        for k in range(2):
            lifted = sub.u @ core.unvec(res.mlr.betas[k], 2) @ sub.v.T
            uu, ss, vv = np.linalg.svd(lifted)
            best1 = np.outer(uu[:, 0] * ss[0], vv[0])
            assert np.linalg.norm(res.factors[k].product() - best1) <= 1e-10

    def test_estimated_ranks(self):
        gt = synth.make_ground_truth(6, 6, [1, 1], [0.5, 0.5], [[1.0], [1.0]], seed=3)
        ds = synth.sample_dataset(gt, N=20_000, sigma=0.0, seed=3)
        sub = spectral.subspace_estimate(spectral.data_matrix(ds), 2)
        res = ini.initialize_all(ds, sub, 2, None, seed=0)
        expected = [
            spectral.estimate_rank(np.linalg.svd(core.unvec(b, 2), compute_uv=False), 2)
            for b in res.mlr.betas
        ]
        assert [f.l.shape[1] for f in res.factors] == expected
        with pytest.raises(InvalidInputError):
            ini.initialize_all(ds, sub, 3, [1, 1], seed=0)

    def test_residuals_match_a_design_pass(self):
        # the desk problem: n = 40, K = 3, rank 2, N = 90 n r K
        K, r, n = 3, 2, 40
        gt = synth.make_ground_truth(n, n, [r] * K, [1 / K] * K, [[1.0] * r] * K, seed=0)
        ds = synth.sample_dataset(gt, 90 * n * r * K, 0.0, seed=0)
        sub = spectral.subspace_estimate(spectral.data_matrix(ds), K * r)
        init = ini.initialize_all(ds, sub, K, [r] * K, seed=0)
        passed = scaledtgd._residual_pass(ds, init.factors)
        assert init.residuals.shape == passed.shape == (K, ds.N)
        for mine, ref in zip(init.residuals, passed):
            assert np.abs(mine - ref).max() <= 1e-13 * np.abs(ref).max()
            kept = scaledtgd.truncation_set(np.abs(mine), 0.8 / K).indices
            assert (kept == scaledtgd.truncation_set(np.abs(ref), 0.8 / K).indices).all()

    def test_residuals_do_not_depend_on_storage(self):
        gt = synth.make_ground_truth(6, 6, [1, 1], [0.5, 0.5], [[1.0], [1.0]], seed=5)
        results = []
        # all rows stored as float64, all as float32, a float32 prefix that
        # ends inside the second block, none
        for budget, rows in ((2100 * 36, 2100), (2100 * 18, 2100), (1500 * 18, 1500), (0, 0)):
            ds = synth.sample_dataset(gt, 2100, 0.1, seed=5, stored_budget=budget)
            assert ds.stored_rows == rows
            sub = spectral.subspace_estimate(spectral.data_matrix(ds), 2)
            results.append(ini.initialize_all(ds, sub, 2, [1, 1], seed=0).residuals)
        for other in results[1:]:
            assert other.tobytes() == results[0].tobytes()
