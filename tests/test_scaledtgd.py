import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from mixsense import spectral, synth
from mixsense import scaledtgd as tgd
from mixsense.errors import InvalidInputError, NumericalError
from mixsense.initialization import FactorPair

from helpers import BAD_INTS, BAD_NUMBERS, manual_dataset, stacked_rows, two_pass_refine


def exact_fit_dataset(rng, l, r, n_samples):
    """Measurements generated with the same matmul used by the residual
    pass, so residuals vanish bit for bit."""
    pair = FactorPair(l=l, r=r)
    n1, n2 = l.shape[0], r.shape[0]
    designs = rng.standard_normal((n_samples, n1 * n2))
    y = designs @ pair.product().ravel()
    return manual_dataset(designs.reshape(-1, n1, n2), y), pair


class TestResiduals:
    def test_exact_fit_is_zero_bitwise(self, rng):
        ds, pair = exact_fit_dataset(rng, rng.standard_normal((4, 2)), rng.standard_normal((5, 2)), 300)
        assert (tgd._residual_pass(ds, [pair])[0] == 0.0).all()

    def test_scalar_case(self):
        ds = manual_dataset([[[2.0]]], [1.0])
        pair = FactorPair(l=np.array([[1.0]]), r=np.array([[1.0]]))
        np.testing.assert_array_equal(tgd._residual_pass(ds, [pair])[0], [1.0])

    def test_residual_distribution(self, rng):
        # residuals over fresh Gaussian designs are N(0, ||delta||_F^2 + sigma^2)
        n, sigma = 5, 0.3
        m_true = rng.standard_normal((n, n))
        l = rng.standard_normal((n, 2))
        r = rng.standard_normal((n, 2))
        delta = FactorPair(l, r).product() - m_true
        designs = rng.standard_normal((100_000, n * n))
        y = designs @ m_true.ravel() + sigma * rng.standard_normal(100_000)
        ds = manual_dataset(designs.reshape(-1, n, n), y)
        res = tgd._residual_pass(ds, [FactorPair(l, r)])[0]
        expected = np.linalg.norm(delta) ** 2 + sigma**2
        assert abs(np.var(res) - expected) / expected < 0.05

    @pytest.mark.parametrize("n", [4, 40])
    def test_sub_blocks_match_block_products(self, rng, n):
        # N is not a multiple of SUB; every row must carry the bits of the
        # whole-BLOCK product that sample_dataset uses to generate y
        N, nn = 1061, n * n // 2
        designs = rng.standard_normal((N, nn))
        y = rng.standard_normal(N)
        ds = manual_dataset(designs.reshape(-1, n, n // 2), y)
        pair = FactorPair(l=rng.standard_normal((n, 2)), r=rng.standard_normal((n // 2, 2)))
        pvec = pair.product().ravel()
        expected = np.concatenate(
            [designs[lo : lo + synth.BLOCK] @ pvec for lo in range(0, N, synth.BLOCK)]
        ) - y
        assert (tgd._residual_pass(ds, [pair])[0] == expected).all()

    def test_streamed_mode(self):
        gt = synth.make_ground_truth(4, 4, [1], [1.0], [[1.0]], seed=0)
        stored = synth.sample_dataset(gt, 600, 0.1, seed=2, stored_budget=600 * 16)
        streamed = synth.sample_dataset(gt, 600, 0.1, seed=2, stored_budget=0)
        hybrid = synth.sample_dataset(gt, 600, 0.1, seed=2, stored_budget=300 * 16)
        assert hybrid.stored_rows == 300  # the prefix ends inside the only block
        pair = FactorPair(l=np.ones((4, 1)), r=np.ones((4, 1)))
        expected = tgd._residual_pass(stored, [pair])[0]
        assert (tgd._residual_pass(streamed, [pair])[0] == expected).all()
        assert (tgd._residual_pass(hybrid, [pair])[0] == expected).all()


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
        out = tgd.refine_components(ds, [pair], [tgd.TgdConfig(eta=1.3, alpha=0.8, t0=1)])[0]
        assert (out.final.l == pair.l).all() and (out.final.r == pair.r).all()
        assert out.trace.taus[0] == 0.0

    def test_scalar_hand_computation(self):
        ds = manual_dataset([[[1.0]]], [0.0])
        pair = FactorPair(l=np.array([[1.0]]), r=np.array([[1.0]]))
        out = tgd.refine_components(ds, [pair], [tgd.TgdConfig(eta=0.5, alpha=1.0, t0=1)])[0]
        assert out.final.l[0, 0] == 0.5 and out.final.r[0, 0] == 0.5
        assert abs(out.final.product()[0, 0] - 0.25) < 1e-15

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
        ds = manual_dataset(designs.reshape(-1, n1, n2), y)
        out = tgd.refine_components(ds, [pair], [tgd.TgdConfig(eta=2.6, alpha=0.4, t0=1)])[0]
        assert out.trace.taus[0] == 0.0 and out.trace.kept_counts[0] == 300
        assert (out.final.l == pair.l).all() and (out.final.r == pair.r).all()

    def test_preconditioner_singular(self, rng):
        ds, _ = exact_fit_dataset(rng, rng.standard_normal((4, 2)), rng.standard_normal((4, 2)), 50)
        bad = FactorPair(l=np.hstack([np.ones((4, 1)), np.ones((4, 1))]), r=rng.standard_normal((4, 2)))
        with pytest.raises(NumericalError, match="factor Gram matrix numerically singular"):
            tgd.refine_components(ds, [bad], [tgd.TgdConfig(eta=1.0, alpha=1.0, t0=1)])
        with pytest.raises(NumericalError, match="factor Gram matrix numerically singular") as exc_info:
            tgd.refine_components(ds, [bad], [tgd.TgdConfig(eta=1.0, alpha=1.0, t0=5)])
        assert len(exc_info.value.trace) == 1
        assert exc_info.value.trace.stop_reason == "singular_preconditioner"

    def test_reparameterization_invariance(self, rng):
        n1, n2, r = 6, 5, 2
        designs = rng.standard_normal((400, n1 * n2))
        m_true = rng.standard_normal((n1, n2))
        ds = manual_dataset(designs.reshape(-1, n1, n2), designs @ m_true.ravel())
        for _ in range(100):
            l = rng.standard_normal((n1, r))
            rr = rng.standard_normal((n2, r))
            q = rng.standard_normal((r, r)) + 3 * np.eye(r)
            cfg = [tgd.TgdConfig(eta=0.9, alpha=0.7, t0=1)]
            base = tgd.refine_components(ds, [FactorPair(l, rr)], cfg)[0]
            rep = tgd.refine_components(ds, [FactorPair(l @ q, rr @ np.linalg.inv(q).T)], cfg)[0]
            p1, p2 = base.final.product(), rep.final.product()
            assert np.linalg.norm(p1 - p2) <= 1e-10 * max(1.0, np.linalg.norm(p1))


class TestRun:
    def test_trace_invariants(self, rng):
        gt = synth.make_ground_truth(6, 6, [1], [1.0], [[1.0]], seed=1)
        ds = synth.sample_dataset(gt, 900, 0.0, seed=1)
        sub = spectral.subspace_estimate(spectral.data_matrix(ds), 1)
        f0 = FactorPair(sub.u * np.sqrt(sub.singular_values[0]),
                        sub.v * np.sqrt(sub.singular_values[0]))
        cfg = tgd.TgdConfig(eta=1.3, alpha=0.8, t0=12)
        out = tgd.refine_components(ds, [f0], [cfg], [gt.matrix(0)])[0]
        assert len(out.trace) == 13
        rows = list(out.trace.rows())
        for t, tau, kept, err in rows[:-1]:  # the iterates that step
            assert tau >= 0.0
            assert kept >= int(np.ceil(cfg.alpha * ds.N))
        # the final iterate takes no step, so it has no level
        assert rows[-1][1:3] == (None, None)
        assert all(err is not None and err >= 0.0 for *_, err in rows)

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
            ds = manual_dataset(designs.reshape(-1, n, n), designs @ m.ravel())
            sub = spectral.subspace_estimate(spectral.data_matrix(ds), r)
            root = np.sqrt(sub.singular_values[:r])
            f0 = FactorPair(sub.u * root, sub.v * root)
            cfg = tgd.TgdConfig(eta=0.7, alpha=1.0, t0=100)
            out = tgd.refine_components(ds, [f0], [cfg], [m])[0]
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
            ds = manual_dataset(designs.reshape(-1, n, n), designs @ m.ravel())
            sub = spectral.subspace_estimate(spectral.data_matrix(ds), r)
            root = np.sqrt(sub.singular_values[:r])
            f0 = FactorPair(sub.u * root, sub.v * root)
            cfg = tgd.TgdConfig(eta=0.7, alpha=1.0, t0=40)
            out = tgd.refine_components(ds, [f0], [cfg], [m])[0]
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
        out = tgd.refine_components(ds, [f0], [cfg], [gt.matrix(0)])[0]
        assert len(out.trace) < 501
        assert out.trace.rel_errors[-1] <= 1e-8

    def test_stop_reasons(self, rng):
        ds, pair = exact_fit_dataset(rng, rng.standard_normal((3, 1)), rng.standard_normal((3, 1)), 60)
        for t0 in (1, 3):
            out = tgd.refine_components(ds, [pair], [tgd.TgdConfig(1.0, 0.8, t0=t0)])[0]
            assert out.trace.stop_reason == "budget" and len(out.trace) == t0 + 1
        cfg = tgd.TgdConfig(1.0, 0.8, t0=3, early_stop_tol=1e-12)
        out = tgd.refine_components(ds, [pair], [cfg])[0]
        assert out.trace.stop_reason == "early_stop" and len(out.trace) == 2

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
            tgd.TgdConfig(eta=1.0, alpha=0.5, t0=0)
        with pytest.raises(InvalidInputError):
            tgd.TgdConfig(eta=1.0, alpha=0.5, t0=2.5)
        for tol in (-1.0, float("nan")):
            with pytest.raises(InvalidInputError):
                tgd.TgdConfig(eta=1.0, alpha=0.5, t0=1, early_stop_tol=tol)

    @pytest.mark.parametrize("field, value", [
        *((name, v) for name in ("eta", "alpha", "early_stop_tol") for v in BAD_NUMBERS),
        *(("t0", v) for v in BAD_INTS),
    ])
    def test_config_bad_values(self, field, value):
        with pytest.raises(InvalidInputError):
            tgd.TgdConfig(**{"eta": 1.0, "alpha": 0.5, "t0": 1, field: value})


def mixture_problem(stored_budget, N=2100, seed=5):
    """K = 3 rank-1 mixture on 6 x 5 matrices with initializations near the
    planted components; step policy as in the pipeline."""
    gt = synth.make_ground_truth(6, 5, [1] * 3, [1 / 3] * 3, [[1.0]] * 3, seed=seed)
    ds = synth.sample_dataset(gt, N, 0.0, seed=seed, stored_budget=stored_budget)
    g = np.random.default_rng(seed)
    inits = [
        FactorPair(c.u_star + 0.05 * g.standard_normal(c.u_star.shape), c.v_star * c.sigma_star)
        for c in gt.components
    ]
    # a short budget, an early stop and a long budget
    cfgs = [
        tgd.TgdConfig(eta=3.9, alpha=0.8 / 3, t0=4),
        tgd.TgdConfig(eta=3.9, alpha=0.8 / 3, t0=200, early_stop_tol=1e-3),
        tgd.TgdConfig(eta=3.9, alpha=0.8 / 3, t0=20),
    ]
    return gt, ds, inits, cfgs


def same_run(a, b):
    return (
        a.final.l.tobytes() == b.final.l.tobytes()
        and a.final.r.tobytes() == b.final.r.tobytes()
        and a.trace == b.trace
    )


class TestRefineComponents:
    def test_each_component_matches_its_solo_run(self):
        gt, ds, inits, cfgs = mixture_problem(stored_budget=1500 * 30)
        truths = gt.matrices()
        fused = tgd.refine_components(ds, inits, cfgs, truths)
        assert [run.trace.stop_reason for run in fused] == ["budget", "early_stop", "budget"]
        assert [len(run.trace) for run in fused][::2] == [5, 21]
        assert 5 < len(fused[1].trace) < 21  # stops between the two budgets
        for run, f0, cfg, truth in zip(fused, inits, cfgs, truths):
            assert same_run(run, tgd.refine_components(ds, [f0], [cfg], [truth])[0])
            assert run.trace.rel_errors[-1] < run.trace.rel_errors[0]

    def test_first_residuals_replace_the_first_pass(self, monkeypatch):
        gt, ds, inits, cfgs = mixture_problem(stored_budget=1500 * 30)
        first = tgd._residual_pass(ds, inits)
        plain = tgd.refine_components(ds, inits, cfgs, gt.matrices())
        calls, real_pass = [], tgd._residual_pass

        def counting_pass(*args, **kwargs):
            calls.append(1)
            return real_pass(*args, **kwargs)

        monkeypatch.setattr(tgd, "_residual_pass", counting_pass)
        given = tgd.refine_components(ds, inits, cfgs, gt.matrices(), first)
        # iteration 0 adds no sums to its residual pass, so handing over that
        # pass's own residuals changes no bit and saves the pass; the final
        # iterate takes no step and makes no pass
        assert all(same_run(a, b) for a, b in zip(plain, given))
        assert len(calls) == max(len(run.trace) for run in given) - 2

    def test_first_residuals_each_component_matches_its_solo_run(self):
        gt, ds, inits, cfgs = mixture_problem(stored_budget=1500 * 30)
        # residuals off by a rounding-sized amount, as stage 2's are
        first = tgd._residual_pass(ds, inits) * (1 + 1e-14)
        fused = tgd.refine_components(ds, inits, cfgs, gt.matrices(), first)
        for k, (run, truth) in enumerate(zip(fused, gt.matrices())):
            solo = tgd.refine_components(ds, [inits[k]], [cfgs[k]], [truth], first[k : k + 1])
            assert same_run(run, solo[0])

    def test_first_residuals_shape_checked(self):
        _, ds, inits, cfgs = mixture_problem(stored_budget=1500 * 30)
        first = tgd._residual_pass(ds, inits)
        for bad in (first[:2], first[:, :-1], first[0], first.T):
            with pytest.raises(InvalidInputError):
                tgd.refine_components(ds, inits, cfgs, first_residuals=bad)

    def test_storage_does_not_change_bits(self):
        runs = []
        for rows in (2100, 1500, 0):  # stored, prefix ending inside a block, streamed
            _, ds, inits, cfgs = mixture_problem(stored_budget=rows * 30)
            assert ds.stored_rows == rows
            runs.append(tgd.refine_components(ds, inits, cfgs))
        for other in runs[1:]:
            assert all(same_run(a, b) for a, b in zip(runs[0], other))

    def test_regenerated_rows_per_pass(self, monkeypatch):
        _, ds, inits, cfgs = mixture_problem(stored_budget=1500 * 30)
        events = []
        real_draw, real_trunc = synth._draw_rows, tgd.truncation_set

        def draw(seed, idx, out, at):
            events.extend(int(i) for i in idx)
            return real_draw(seed, idx, out, at)

        def trunc(abs_residuals, alpha):
            out = real_trunc(abs_residuals, alpha)
            events.append((set(out.indices.tolist()), abs_residuals.copy(), out.tau))
            return out

        monkeypatch.setattr(synth, "_draw_rows", draw)
        monkeypatch.setattr(tgd, "truncation_set", trunc)
        runs = tgd.refine_components(ds, inits, cfgs)
        unstored = list(range(ds.stored_rows, ds.N))
        lengths = [len(run.trace) for run in runs]
        pos, predicted = 0, 0
        # no residual walk after the last update: the final iterates take
        # no step
        for t in range(max(lengths) - 1):
            active = [k for k, n in enumerate(lengths) if t < n - 1]
            # the residual walk: every unstored row once, for the components
            # that step
            assert events[pos : pos + len(unstored)] == unstored
            pos += len(unstored)
            seen = dict(zip(active, events[pos : pos + len(active)]))
            pos += len(active)
            read, union = set(), set()
            for k in active:
                kept, abs_res, tau = seen[k]
                union |= kept
                taus = runs[k].trace.taus[:t]
                if t == 0:  # no prediction: the whole truncation set
                    read |= kept
                    continue
                # from the second step on the summed level is predicted, with
                # ratio 1 at t = 1
                assert taus[-1] > 0 and (t == 1 or taus[-2] > 0)
                ratio = taus[-1] / taus[-2] if t > 1 else 1.0
                lo, hi = sorted((taus[-1] * ratio, tau))
                read |= set(np.flatnonzero((abs_res > lo) & (abs_res <= hi)).tolist())
                predicted += 1
            # the correction read: only unstored rows between some
            # component's summed level and its exact level
            wanted = [i for i in unstored if i in read]
            if t == 0:
                assert 0 < len(wanted) < len(unstored)
            elif t == 1:  # the band between tau_0 and tau_1, not the kept sets
                assert 0 < len(wanted) < len([i for i in unstored if i in union])
            else:
                assert len(wanted) < len(unstored) // 10
            assert events[pos : pos + len(wanted)] == wanted
            pos += len(wanted)
        assert pos == len(events)
        assert predicted > 0

    def test_second_step_reads_only_its_band(self, monkeypatch):
        # 40% stored, t0 = 2 from stage-2-style residuals: step 0 gathers its
        # kept rows, step 1 walks the residuals once and then reads only the
        # rows between tau_0 and tau_1
        gt, ds, inits, _ = mixture_problem(stored_budget=840 * 30)
        one, two = ([tgd.TgdConfig(eta=3.9, alpha=0.8 / 3, t0=t0)] * 3 for t0 in (1, 2))
        first = tgd._residual_pass(ds, inits)
        iterate1 = [run.final for run in tgd.refine_components(ds, inits, one, None, first)]
        second = tgd._residual_pass(ds, iterate1)
        drawn, real_draw = [], synth._draw_rows

        def draw(seed, idx, out, at):
            drawn.append(len(idx))
            return real_draw(seed, idx, out, at)

        monkeypatch.setattr(synth, "_draw_rows", draw)
        runs = tgd.refine_components(ds, inits, two, None, first)
        taus = np.array([run.trace.taus[:2] for run in runs])
        kept = (np.abs(first) <= taus[:, :1]).any(axis=0)
        lo, hi = taus.min(axis=1, keepdims=True), taus.max(axis=1, keepdims=True)
        band = ((np.abs(second) > lo) & (np.abs(second) <= hi)).any(axis=0)
        unstored = slice(ds.stored_rows, ds.N)
        assert 0 < band[unstored].sum() < kept[unstored].sum()
        assert sum(drawn) == kept[unstored].sum() + (ds.N - ds.stored_rows) + band[unstored].sum()

    def test_mismatched_factor_shape(self):
        _, ds, inits, cfgs = mixture_problem(stored_budget=0, N=60)
        bad = FactorPair(l=np.vstack([inits[0].l, inits[0].l[:1]]), r=inits[0].r)
        assert bad.l.shape[0] == ds.n1 + 1
        with pytest.raises(InvalidInputError, match="factor shapes"):
            tgd.refine_components(ds, [bad, *inits[1:]], cfgs)

    def test_final_iterates_read_no_designs(self, monkeypatch):
        gt, ds, inits, cfgs = mixture_problem(stored_budget=1500 * 30)
        first = tgd._residual_pass(ds, inits)
        events, passes = [], []
        real_draw, real_blocks = synth._draw_rows, synth.Dataset.iter_design_blocks
        real_update, real_pass = tgd._update, tgd._residual_pass

        def draw(seed, idx, out, at):
            events.append("draw")
            return real_draw(seed, idx, out, at)

        def blocks(self, needed=None):
            events.append("read")
            return real_blocks(self, needed)

        def update(*args):
            events.append("update")
            return real_update(*args)

        def residual_pass(dataset, factor_list, *args):
            passes.append(len(factor_list))
            return real_pass(dataset, factor_list, *args)

        monkeypatch.setattr(synth, "_draw_rows", draw)
        monkeypatch.setattr(synth.Dataset, "iter_design_blocks", blocks)
        monkeypatch.setattr(tgd, "_update", update)
        monkeypatch.setattr(tgd, "_residual_pass", residual_pass)
        runs = tgd.refine_components(ds, inits, cfgs, gt.matrices(), first)
        lengths = [len(run.trace) for run in runs]
        assert [run.trace.stop_reason for run in runs] == ["budget", "early_stop", "budget"]
        assert len(set(lengths)) == 3  # the components stop at different iterations
        # no design read after the last update, and each residual pass
        # covers only the components that step at its iterate
        assert "draw" in events and events[-1] == "update"
        assert len(passes) == max(lengths) - 2
        assert passes == [sum(t < n - 1 for n in lengths) for t in range(1, max(lengths) - 1)]
        for run in runs:
            assert run.trace.taus[-1] is None and run.trace.kept_counts[-1] is None
            assert None not in run.trace.taus[:-1] + run.trace.kept_counts[:-1]

    def test_mismatched_lengths(self):
        _, ds, inits, cfgs = mixture_problem(stored_budget=0, N=60)
        with pytest.raises(InvalidInputError):
            tgd.refine_components(ds, inits, cfgs[:2])


def rank2_problem(t0, N=3000, seed=1):
    """K = 2 rank-2 mixture on 12 x 10 matrices, initializations near the
    planted components."""
    gt = synth.make_ground_truth(12, 10, [2, 2], [0.5, 0.5], [[1.0, 1.0]] * 2, seed=seed)
    ds = synth.sample_dataset(gt, N, 0.0, seed=seed)
    g = np.random.default_rng(seed)
    inits = [
        FactorPair(c.u_star + 0.05 * g.standard_normal(c.u_star.shape), c.v_star * c.sigma_star)
        for c in gt.components
    ]
    return gt, ds, inits, [tgd.TgdConfig(eta=2.6, alpha=0.4, t0=t0)] * 2


def assert_agrees_with_the_two_pass_loop(ds, inits, cfgs, truths):
    """Predicted steps sum in another order than the reference loop: same
    kept counts and stop reasons, products within 1e-12, and each
    component bit-identical to its solo run."""
    runs = tgd.refine_components(ds, inits, cfgs, truths)
    for run, ref in zip(runs, two_pass_refine(ds, inits, cfgs, truths)):
        assert len(run.trace) == len(ref.trace)
        assert run.trace.stop_reason == ref.trace.stop_reason
        assert run.trace.kept_counts == ref.trace.kept_counts
        p, q = run.final.product(), ref.final.product()
        assert np.linalg.norm(p - q) <= 1e-12 * np.linalg.norm(q)
    # the rows a component adds or subtracts are its own, so it runs as it
    # would alone
    for run, f0, cfg, truth in zip(runs, inits, cfgs, truths):
        assert same_run(run, tgd.refine_components(ds, [f0], [cfg], [truth])[0])


class TestPredictedBand:
    def test_default_band_agrees_with_the_two_pass_loop(self):
        for gt, ds, inits, cfgs in (mixture_problem(stored_budget=1500 * 30), rank2_problem(t0=30),
                                    five_component_problem()):
            assert_agrees_with_the_two_pass_loop(ds, inits, cfgs, gt.matrices())

    @pytest.mark.parametrize("t0", [1, 2])
    def test_short_runs_are_the_two_pass_loop(self, t0):
        gt, ds, inits, _ = mixture_problem(stored_budget=1500 * 30)
        cfgs = [tgd.TgdConfig(eta=3.9, alpha=0.8 / 3, t0=t0)] * 3
        if t0 == 2:  # the second step sums to a predicted level
            assert_agrees_with_the_two_pass_loop(ds, inits, cfgs, gt.matrices())
            return
        runs = tgd.refine_components(ds, inits, cfgs, gt.matrices())
        for run, ref in zip(runs, two_pass_refine(ds, inits, cfgs, gt.matrices())):
            assert same_run(run, ref)  # no step has a prediction

    def test_refine_both_adds_and_subtracts(self, monkeypatch):
        # from t = 1 on, each correction read adds the rows up to an exact
        # level above the summed one, or subtracts those down to one below it
        residuals, counted = [], {"add": 0, "subtract": 0}
        real_pass, real_band = tgd._residual_pass, tgd._band_pass

        def residual_pass(*args):
            residuals.append(real_pass(*args))
            return residuals[-1]

        def band_pass(dataset, bands):
            if len(residuals) > 1:
                for (weights, _, _), row in zip(bands, residuals[-1]):
                    added = np.array_equal(weights, row)
                    assert added or np.array_equal(weights, -row)
                    counted["add" if added else "subtract"] += 1
            return real_band(dataset, bands)

        monkeypatch.setattr(tgd, "_residual_pass", residual_pass)
        monkeypatch.setattr(tgd, "_band_pass", band_pass)
        _, ds, inits, cfgs = mixture_problem(stored_budget=1500 * 30)
        runs = tgd.refine_components(ds, inits, cfgs)
        expected = {"add": 0, "subtract": 0}
        for run in runs:
            taus = run.trace.taus[:-1]  # the final iterate has no level
            for t in range(1, len(taus)):  # ratio 1 at t = 1
                guess = taus[t - 1] * (taus[t - 1] / taus[t - 2] if t > 1 else 1.0)
                expected["add" if guess <= taus[t] else "subtract"] += 1
        assert counted == expected and min(counted.values()) > 0


def five_component_problem(N=2100, seed=5):
    """K = 5 rank-1 mixture on 6 x 5 matrices, 1500 of its N rows stored;
    component 0 stops after three steps, so the others move up one row in
    the gradient GEMM's weight blocks, and component 4 from the second
    block into the first."""
    gt = synth.make_ground_truth(6, 5, [1] * 5, [0.2] * 5, [[1.0]] * 5, seed=seed)
    ds = synth.sample_dataset(gt, N, 0.0, seed=seed, stored_budget=1500 * 30)
    g = np.random.default_rng(seed)
    inits = [
        FactorPair(c.u_star + 0.05 * g.standard_normal(c.u_star.shape), c.v_star * c.sigma_star)
        for c in gt.components
    ]
    cfgs = [tgd.TgdConfig(eta=6.5, alpha=0.16, t0=3)]
    cfgs += [tgd.TgdConfig(eta=6.5, alpha=0.16, t0=20)] * 3
    cfgs += [tgd.TgdConfig(eta=6.5, alpha=0.16, t0=200, early_stop_tol=1e-3)]
    return gt, ds, inits, cfgs


class TestGradientKernel:
    def test_sums_match_exact_column_sums(self):
        # N = 2100 is not a multiple of SUB, so the last slice is partial;
        # five sums take two weight blocks, the second padded with zeros
        _, ds, inits, _ = five_component_problem()
        assert ds.N % synth.SUB and len(inits) > tgd.WIDTH
        res = tgd._residual_pass(ds, inits)
        cuts = np.quantile(np.abs(res), 0.1, axis=1)
        fused = np.zeros((len(inits), ds.n1 * ds.n2))
        again = tgd._residual_pass(ds, inits, cuts, fused)
        assert again.tobytes() == res.tobytes()  # summing changes no residual
        designs = stacked_rows(ds, np.arange(ds.N))
        for r, cut, got in zip(res, cuts, fused):
            terms = r[np.abs(r) <= cut, None] * designs[np.abs(r) <= cut]
            exact = np.array([math.fsum(col) for col in terms.T])
            assert np.linalg.norm(got - exact) <= 1e-12 * np.linalg.norm(exact)

        # each sum taken alone, a one-factor pass in row 0 of its block, has
        # the same bits
        for j, cut in enumerate(cuts):
            alone = np.zeros((1, ds.n1 * ds.n2))
            tgd._residual_pass(ds, inits[j : j + 1], cuts[j : j + 1], alone)
            assert alone[0].tobytes() == fused[j].tobytes()

        # a negative level sums nothing, and the others in its weight block
        # keep their bits
        partial = np.zeros_like(fused)
        tgd._residual_pass(ds, inits, np.where(np.arange(len(cuts)) == 1, -1.0, cuts), partial)
        assert partial[1].tobytes() == np.zeros(ds.n1 * ds.n2).tobytes()
        assert np.delete(partial, 1, axis=0).tobytes() == np.delete(fused, 1, axis=0).tobytes()

    def test_correction_read_lands_on_the_exact_level(self):
        # a summed level above tau, at tau, below tau, and nothing summed:
        # the fused sum plus the correction read is the sum over |r_i| <= tau
        _, ds, inits, _ = five_component_problem()
        assert ds.N % synth.SUB and len(inits) > tgd.WIDTH
        res = tgd._residual_pass(ds, inits)
        absr = np.abs(res)
        tau = np.array([tgd.truncation_set(a, 0.16).tau for a in absr])[:, None]
        designs = stacked_rows(ds, np.arange(ds.N))
        cases = {  # summed level -> (weights, rows the read covers)
            "above": (1.2 * tau, -res, (absr > tau) & (absr <= 1.2 * tau)),
            "equal": (tau, res, np.zeros_like(absr, dtype=bool)),
            "below": (0.8 * tau, res, (absr > 0.8 * tau) & (absr <= tau)),
            "nothing": (None, res, absr <= tau),
        }
        for case, (level, weights, masks) in cases.items():
            sums = np.zeros((len(inits), ds.n1 * ds.n2))
            if level is not None:
                tgd._residual_pass(ds, inits, level[:, 0], sums)
            tgd._band_pass(ds, list(zip(weights, masks, sums)))
            for r, t, got in zip(res, tau[:, 0], sums):
                kept = np.abs(r) <= t
                exact = np.array([math.fsum(col) for col in (r[kept, None] * designs[kept]).T])
                assert np.linalg.norm(got - exact) <= 1e-12 * np.linalg.norm(exact), case
            if case != "equal":
                assert masks.any(axis=1).all()  # every component reads some rows

    def test_components_moving_between_blocks_match_their_solo_runs(self, monkeypatch):
        gt, ds, inits, cfgs = five_component_problem()
        truths = gt.matrices()
        summed, real_pass = [], tgd._residual_pass

        def residual_pass(dataset, factor_list, levels, sums):
            summed.append(int((np.asarray(levels) >= 0).sum()))
            return real_pass(dataset, factor_list, levels, sums)

        monkeypatch.setattr(tgd, "_residual_pass", residual_pass)
        runs = tgd.refine_components(ds, inits, cfgs, truths)
        lengths = [len(run.trace) for run in runs]
        assert lengths[0] == 4 and min(lengths[1:]) > 5
        # the residual pass summed no component at t = 0, five in two weight
        # blocks at t = 1 and 2, and four in one at t = 3
        assert summed[:4] == [0, 5, 5, 4]
        for run, f0, cfg, truth in zip(runs, inits, cfgs, truths):
            assert same_run(run, tgd.refine_components(ds, [f0], [cfg], [truth])[0])
