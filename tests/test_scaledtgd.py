import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from mixsense import core, spectral, synth
from mixsense import scaledtgd as tgd
from mixsense.errors import InvalidInputError, PreconditionerSingularError
from mixsense.initialization import FactorPair


def manual_dataset(designs_flat, y, n1, n2):
    return synth.Dataset(
        n1=n1, n2=n2, sigma=0.0, seed=0,
        y=np.asarray(y, dtype=float),
        hidden_labels=np.zeros(len(y), dtype=np.int64),
        designs_flat=np.asarray(designs_flat, dtype=float).copy(),
    )


def exact_fit_dataset(rng, l, r, n_samples):
    """Measurements generated with the same matmul used by the residual
    pass, so residuals vanish bit for bit."""
    pair = FactorPair(l=l, r=r)
    n1, n2 = l.shape[0], r.shape[0]
    designs = rng.standard_normal((n_samples, n1 * n2))
    y = designs @ pair.product().ravel()
    return manual_dataset(designs, y, n1, n2), pair


class TestResiduals:
    def test_exact_fit_is_zero_bitwise(self, rng):
        ds, pair = exact_fit_dataset(rng, rng.standard_normal((4, 2)), rng.standard_normal((5, 2)), 300)
        assert (tgd.residuals(ds, pair) == 0.0).all()

    def test_scalar_case(self):
        ds = manual_dataset([[2.0]], [1.0], 1, 1)
        pair = FactorPair(l=np.array([[1.0]]), r=np.array([[1.0]]))
        np.testing.assert_array_equal(tgd.residuals(ds, pair), [1.0])

    def test_residual_distribution(self, rng):
        # residuals over fresh Gaussian designs are N(0, ||delta||_F^2 + sigma^2)
        n, sigma = 5, 0.3
        m_true = rng.standard_normal((n, n))
        l = rng.standard_normal((n, 2))
        r = rng.standard_normal((n, 2))
        delta = FactorPair(l, r).product() - m_true
        designs = rng.standard_normal((100_000, n * n))
        y = designs @ m_true.ravel() + sigma * rng.standard_normal(100_000)
        ds = manual_dataset(designs, y, n, n)
        res = tgd.residuals(ds, FactorPair(l, r))
        expected = np.linalg.norm(delta) ** 2 + sigma**2
        assert abs(np.var(res) - expected) / expected < 0.05

    def test_streamed_mode(self):
        gt = synth.make_ground_truth(4, 4, [1], [1.0], [[1.0]], seed=0)
        stored = synth.sample_dataset(gt, 600, 0.1, seed=2, stored_budget=600 * 16)
        streamed = synth.sample_dataset(gt, 600, 0.1, seed=2, stored_budget=0)
        hybrid = synth.sample_dataset(gt, 600, 0.1, seed=2, stored_budget=300 * 16)
        assert hybrid.stored_rows == 300  # the prefix ends inside the only block
        pair = FactorPair(l=np.ones((4, 1)), r=np.ones((4, 1)))
        expected = tgd.residuals(stored, pair)
        assert (tgd.residuals(streamed, pair) == expected).all()
        assert (tgd.residuals(hybrid, pair) == expected).all()


class TestTruncationSet:
    def test_example(self):
        out = tgd.truncation_set(np.array([3.0, 1.0, 2.0, 4.0]), 0.5)
        assert out.tau == 2.0
        np.testing.assert_array_equal(out.indices, [1, 2])

    def test_full_inclusion(self):
        out = tgd.truncation_set(np.array([5.0, 1.0, 9.0]), 1.0)
        assert out.indices.size == 3

    def test_tie_rule(self):
        out = tgd.truncation_set(np.array([5.0, 5.0, 5.0]), 1 / 3)
        assert out.tau == 5.0
        assert out.indices.size == 3

    @given(
        st.lists(st.floats(0, 100), min_size=1, max_size=30),
        st.floats(0.05, 1.0),
        st.floats(0.05, 1.0),
    )
    def test_monotone_in_alpha(self, values, a, b):
        lo, hi = min(a, b), max(a, b)
        res = np.asarray(values)
        out_lo = tgd.truncation_set(res, lo)
        out_hi = tgd.truncation_set(res, hi)
        assert out_lo.tau <= out_hi.tau
        assert set(out_lo.indices).issubset(set(out_hi.indices))


class TestStep:
    def test_exact_fit_fixed_point_bitexact(self, rng):
        ds, pair = exact_fit_dataset(rng, rng.standard_normal((4, 2)), rng.standard_normal((5, 2)), 200)
        out = tgd.scaledtgd_step(ds, pair, eta=1.3, alpha=0.8)
        assert (out.factors.l == pair.l).all() and (out.factors.r == pair.r).all()
        assert out.tau == 0.0

    def test_scalar_hand_computation(self):
        ds = manual_dataset([[1.0]], [0.0], 1, 1)
        pair = FactorPair(l=np.array([[1.0]]), r=np.array([[1.0]]))
        out = tgd.scaledtgd_step(ds, pair, eta=0.5, alpha=1.0)
        assert out.factors.l[0, 0] == 0.5 and out.factors.r[0, 0] == 0.5
        assert abs(out.factors.product()[0, 0] - 0.25) < 1e-15

    def test_mixed_fixed_point(self, rng):
        # exact fit on component 1; alpha <= p1 keeps only its zero residuals
        n1, n2, r = 4, 4, 1
        l = rng.standard_normal((n1, r))
        rr = rng.standard_normal((n2, r))
        pair = FactorPair(l, rr)
        m2 = rng.standard_normal((n1, n2))
        designs = rng.standard_normal((600, n1 * n2))
        labels = np.repeat([0, 1], 300)
        y = np.where(labels == 0, designs @ pair.product().ravel(), designs @ m2.ravel())
        ds = manual_dataset(designs, y, n1, n2)
        out = tgd.scaledtgd_step(ds, pair, eta=2.6, alpha=0.4)
        assert out.tau == 0.0 and out.kept == 300
        assert (out.factors.l == pair.l).all() and (out.factors.r == pair.r).all()

    def test_preconditioner_singular(self, rng):
        ds, _ = exact_fit_dataset(rng, rng.standard_normal((4, 2)), rng.standard_normal((4, 2)), 50)
        bad = FactorPair(l=np.hstack([np.ones((4, 1)), np.ones((4, 1))]), r=rng.standard_normal((4, 2)))
        with pytest.raises(PreconditionerSingularError):
            tgd.scaledtgd_step(ds, bad, eta=1.0, alpha=1.0)

    def test_reparameterization_invariance(self, rng):
        n1, n2, r = 6, 5, 2
        designs = rng.standard_normal((400, n1 * n2))
        m_true = rng.standard_normal((n1, n2))
        ds = manual_dataset(designs, designs @ m_true.ravel(), n1, n2)
        for _ in range(100):
            l = rng.standard_normal((n1, r))
            rr = rng.standard_normal((n2, r))
            q = rng.standard_normal((r, r)) + 3 * np.eye(r)
            base = tgd.scaledtgd_step(ds, FactorPair(l, rr), eta=0.9, alpha=0.7)
            rep = tgd.scaledtgd_step(
                ds, FactorPair(l @ q, rr @ np.linalg.inv(q).T), eta=0.9, alpha=0.7
            )
            p1, p2 = base.factors.product(), rep.factors.product()
            assert np.linalg.norm(p1 - p2) <= 1e-10 * max(1.0, np.linalg.norm(p1))


class TestRun:
    def test_zero_iterations(self, rng):
        ds, pair = exact_fit_dataset(rng, rng.standard_normal((3, 1)), rng.standard_normal((3, 1)), 60)
        out = tgd.run_scaledtgd(ds, pair, tgd.TgdConfig(eta=1.0, alpha=0.8, t0=0))
        assert out.final is pair
        assert len(out.trace) == 1 and out.trace.iters == [0]

    def test_trace_invariants(self, rng):
        gt = synth.make_ground_truth(6, 6, [1], [1.0], [[1.0]], seed=1)
        ds = synth.sample_dataset(gt, 900, 0.0, seed=1)
        sub = spectral.subspace_estimate(spectral.data_matrix(ds), 1)
        f0 = FactorPair(sub.u * np.sqrt(sub.singular_values[0]),
                        sub.v * np.sqrt(sub.singular_values[0]))
        cfg = tgd.TgdConfig(eta=1.3, alpha=0.8, t0=12)
        out = tgd.run_scaledtgd(ds, f0, cfg, truth=gt.matrix(0))
        assert len(out.trace) == 13
        for t, tau, kept, err in out.trace.rows():
            assert tau >= 0.0
            assert kept >= int(np.ceil(cfg.alpha * ds.N))
            assert err is not None and err >= 0.0

    def test_single_component_scaled_gd_regime(self):
        # alpha = 1 disables truncation; eta = 0.7 sits inside the stable
        # range for the untruncated update, and the iteration count to 1e-8
        # does not depend on the conditioning (checked across seeds)
        for seed in range(3):
            g = np.random.default_rng(seed)
            n, r, kappa = 30, 2, 10
            u = np.linalg.qr(g.standard_normal((n, r)))[0]
            v = np.linalg.qr(g.standard_normal((n, r)))[0]
            m = u @ np.diag([float(kappa), 1.0]) @ v.T
            designs = g.standard_normal((50 * n * r, n * n))
            ds = manual_dataset(designs, designs @ m.ravel(), n, n)
            sub = spectral.subspace_estimate(spectral.data_matrix(ds), r)
            root = np.sqrt(sub.singular_values[:r])
            f0 = FactorPair(sub.u * root, sub.v * root)
            out = tgd.run_scaledtgd(
                ds, f0, tgd.TgdConfig(eta=0.7, alpha=1.0, t0=100), truth=m
            )
            errs = [e for e in out.trace.rel_errors]
            assert min(errs) <= 1e-8
            below = next(i for i, e in enumerate(errs) if e <= 1e-8)
            assert below <= 100

    def test_noiseless_contraction_monotone_after_burn_in(self):
        hits = 0
        for seed in range(10):
            g = np.random.default_rng(100 + seed)
            n, r = 20, 2
            u = np.linalg.qr(g.standard_normal((n, r)))[0]
            v = np.linalg.qr(g.standard_normal((n, r)))[0]
            m = u @ np.diag([1.5, 1.0]) @ v.T
            designs = g.standard_normal((50 * n * r, n * n))
            ds = manual_dataset(designs, designs @ m.ravel(), n, n)
            sub = spectral.subspace_estimate(spectral.data_matrix(ds), r)
            root = np.sqrt(sub.singular_values[:r])
            f0 = FactorPair(sub.u * root, sub.v * root)
            out = tgd.run_scaledtgd(
                ds, f0, tgd.TgdConfig(eta=0.7, alpha=1.0, t0=40), truth=m
            )
            errs = np.array(out.trace.rel_errors[3:])
            hits += (np.diff(errs) <= 1e-12).all()
        assert hits >= 9

    def test_early_stop(self, rng):
        gt = synth.make_ground_truth(6, 6, [1], [1.0], [[1.0]], seed=3)
        ds = synth.sample_dataset(gt, 1_200, 0.0, seed=3)
        sub = spectral.subspace_estimate(spectral.data_matrix(ds), 1)
        f0 = FactorPair(sub.u * np.sqrt(sub.singular_values[0]),
                        sub.v * np.sqrt(sub.singular_values[0]))
        cfg = tgd.TgdConfig(eta=1.3, alpha=0.8, t0=500, early_stop_tol=1e-12)
        out = tgd.run_scaledtgd(ds, f0, cfg, truth=gt.matrix(0))
        assert len(out.trace) < 501
        assert out.trace.rel_errors[-1] <= 1e-8

    def test_config_validation(self):
        with pytest.raises(InvalidInputError):
            tgd.TgdConfig(eta=0.0, alpha=0.5, t0=1)
        with pytest.raises(InvalidInputError):
            tgd.TgdConfig(eta=1.0, alpha=0.0, t0=1)
        with pytest.raises(InvalidInputError):
            tgd.TgdConfig(eta=1.0, alpha=1.2, t0=1)
        with pytest.raises(InvalidInputError):
            tgd.TgdConfig(eta=1.0, alpha=0.5, t0=-1)
        with pytest.raises(InvalidInputError):
            tgd.TgdConfig(eta=1.0, alpha=0.5, t0=2.5)
