"""End-to-end acceptance checks for the full solver at the reference
problem scale (n1 = n2 = 40, K = 3, rank 2, identity spectra, equal
proportions, N = 90 * n * r * K, step scale `pipeline.ETA_SCALE`/p
(1.904/p), truncation scale 0.8p). The step scale departs from the paper's
1.3: it is derived from the truncation scale so that the step along the
truncated gradient is 2/3 (see `pipeline.ETA_SCALE`).

Each check prints one "[acceptance] name: PASS/FAIL" line (run with -s to
see them for passing tests).

Two checks fail by design: the stage-1 subspace distance target (0.1) and
the stage-2 basin/weight targets (0.2 / 0.1) are kept as stated even
though the estimators provably cannot reach them at this sampling rate
(measured distances are ~0.3 and the best possible initialization error
given the stage-1 subspaces is ~0.25). The printed lines carry the
measured values.
"""

import itertools
import math

import numpy as np
import pytest

import mixsense as mx
from helpers import stacked_rows, truncated_gaussian_second_moment
from mixsense import core, mlr_tensor as mt, pipeline as pl, scaledtgd as tgd, synth
from mixsense.initialization import FactorPair

N_SEEDS = 10
DIM = 40
RANK = 2
K = 3
N_SAMPLES = 90 * DIM * RANK * K  # 21600


def report(name, ok, detail):
    print(f"[acceptance] {name}: {'PASS' if ok else 'FAIL'} ({detail})")


def reference_pipeline_config(seed, t0=150):
    return pl.PipelineConfig(
        k_components=K,
        supplied_ranks=(RANK,) * K,
        supplied_proportions=(1.0 / K,) * K,
        t0=t0,
        early_stop_tol=1e-13,
        seed=seed,
    )


def run_reference_trial(seed, sigma=0.0, t0=150):
    gt = synth.make_ground_truth(
        DIM, DIM, [RANK] * K, [1.0 / K] * K, [[1.0] * RANK] * K, seed
    )
    ds = synth.sample_dataset(gt, N_SAMPLES, sigma, seed)
    rep = pl.run_pipeline(ds, None, reference_pipeline_config(seed, t0), truth=gt)
    return gt, rep


@pytest.fixture(scope="module")
def reference_runs():
    runs = []
    for seed in range(N_SEEDS):
        _, rep = run_reference_trial(seed)
        runs.append(
            {
                "seed": seed,
                "max_rel_error": max(c.rel_error for c in rep.per_component),
                "traces": [list(c.trace.rel_errors) for c in rep.per_component],
                "r_used": rep.stage1.r_used,
                "dist": max(rep.stage1.dist_u, rep.stage1.dist_v),
                "init_errors": [c.init_error for c in rep.per_component],
                "weights": np.asarray(rep.weights),
            }
        )
    return runs


def test_exact_recovery(reference_runs):
    passes = sum(r["max_rel_error"] <= 1e-9 for r in reference_runs)
    worst = max(r["max_rel_error"] for r in reference_runs)
    ok = passes >= 9
    report("exact recovery (rel error <= 1e-9)", ok, f"{passes}/{N_SEEDS} seeds, worst {worst:.2e}")
    assert ok


def log_linear_fit(trace):
    """Least-squares fit of log(error) on the window [5, first index below
    1e-8]; returns (slope, r_squared) or None when the window is empty."""
    errs = np.asarray(trace, dtype=float)
    below = np.nonzero(errs < 1e-8)[0]
    if below.size == 0 or below[0] <= 6:
        return None
    hi = below[0]
    ts = np.arange(5, hi + 1)
    ys = np.log(np.maximum(errs[5 : hi + 1], 1e-300))
    slope, intercept = np.polyfit(ts, ys, 1)
    fitted = slope * ts + intercept
    ss_res = float(np.sum((ys - fitted) ** 2))
    ss_tot = float(np.sum((ys - ys.mean()) ** 2))
    return slope, 1.0 - ss_res / ss_tot


def test_linear_convergence_rate(reference_runs):
    passes = 0
    worst_r2 = 1.0
    for run in reference_runs:
        fits = [log_linear_fit(trace) for trace in run["traces"]]
        if all(f is not None and f[0] < 0 and f[1] >= 0.95 for f in fits):
            passes += 1
        worst_r2 = min(worst_r2, min((f[1] for f in fits if f), default=0.0))
    ok = passes >= 9
    report("linear convergence (fit R^2 >= 0.95)", ok, f"{passes}/{N_SEEDS} seeds, worst R^2 {worst_r2:.3f}")
    assert ok


def test_stage3_step_count(reference_runs):
    # trace rows (steps plus the final iterate) per component, over all 30
    lengths = [len(trace) for run in reference_runs for trace in run["traces"]]
    median = float(np.median(lengths))
    ok = median <= 60
    report("stage-3 steps (median trace length <= 60)", ok,
           f"median {median:.1f}, range [{min(lengths)}, {max(lengths)}]")
    assert ok


def test_noise_error_scaling():
    sigmas = [1e-6, 1e-4, 1e-2]
    trials = 10
    means = []
    for s_idx, sigma in enumerate(sigmas):
        errs = []
        for trial in range(trials):
            _, rep = run_reference_trial(1000 * trial + 7919 * s_idx, sigma=sigma, t0=80)
            errs.append(max(c.rel_error for c in rep.per_component))
        means.append(float(np.mean(errs)))
    slope = float(np.polyfit(np.log(sigmas), np.log(means), 1)[0])
    ok = 0.8 <= slope <= 1.2
    report("noise scaling (log-log slope 1.0 +- 0.2)", ok,
           f"slope {slope:.3f}, means {['%.2e' % m for m in means]}")
    assert ok


def test_stage1_rank_and_subspace_quality(reference_runs):
    rank_hits = sum(r["r_used"] == 2 * K for r in reference_runs)
    dist_hits = sum(r["dist"] <= 0.1 for r in reference_runs)
    dists = [r["dist"] for r in reference_runs]
    ok = rank_hits >= 9 and dist_hits >= 9
    report(
        "stage-1 rank and subspace quality",
        ok,
        f"rank=6 in {rank_hits}/{N_SEEDS}; distance <= 0.1 in {dist_hits}/{N_SEEDS}, "
        f"measured range [{min(dists):.3f}, {max(dists):.3f}]",
    )
    assert ok


def test_stage2_basin_entry_and_weights(reference_runs):
    basin_hits = sum(max(r["init_errors"]) <= 0.2 for r in reference_runs)
    weight_hits = sum(
        np.abs(r["weights"] - 1.0 / K).max() <= 0.1 for r in reference_runs
    )
    worst_init = max(max(r["init_errors"]) for r in reference_runs)
    worst_w = max(np.abs(r["weights"] - 1.0 / K).max() for r in reference_runs)
    ok = basin_hits >= 8 and weight_hits >= 8
    report(
        "stage-2 basin entry and weights",
        ok,
        f"init <= 0.2 in {basin_hits}/{N_SEEDS} (worst {worst_init:.3f}); "
        f"|weight - 1/3| <= 0.1 in {weight_hits}/{N_SEEDS} (worst {worst_w:.3f})",
    )
    assert ok


# ---------------------------------------------------------------------------
# deterministic property suite


def check_quantile_brute_force():
    for m in range(1, 9):
        for values in itertools.product(range(4), repeat=m):
            svals = sorted(values)
            for tenth in range(1, 11):
                alpha = tenth / 10.0
                expected = next(
                    t for t in svals if sum(x <= t for x in svals) / m >= alpha
                )
                assert core.finite_quantile(values, alpha) == expected


def check_w_function():
    for x in np.linspace(0.0, 3.0, 16):
        t = np.linspace(-x, x, 1_000_001)
        quad = np.trapezoid(t**2 * np.exp(-0.5 * t**2) / np.sqrt(2 * np.pi), t)
        assert abs(truncated_gaussian_second_moment(x) - quad) <= 1e-9
    xs = np.arange(0.01, 1.351, 0.01)
    ws = np.array([truncated_gaussian_second_moment(x) for x in xs])
    for i in range(xs.size):
        for j in range(i, xs.size):
            assert ws[i] / ws[j] <= xs[i] ** 2 / xs[j] ** 2 + 1e-12


def check_reparameterization_invariance():
    g = np.random.default_rng(7)
    n1, n2, r = 6, 5, 2
    designs = g.standard_normal((400, n1 * n2))
    m_true = g.standard_normal((n1, n2))
    ds = synth.Dataset(
        n1=n1, n2=n2, seed=0,
        y=designs @ m_true.ravel(), designs_flat=designs,
    )
    for _ in range(100):
        l = g.standard_normal((n1, r))
        rr = g.standard_normal((n2, r))
        q = g.standard_normal((r, r)) + 3 * np.eye(r)
        base = tgd.refine_components(
            ds, [FactorPair(l, rr)], [tgd.TgdConfig(eta=0.9, alpha=0.7, t0=1)]
        )[0]
        rep = tgd.refine_components(
            ds, [FactorPair(l @ q, rr @ np.linalg.inv(q).T)],
            [tgd.TgdConfig(eta=0.9, alpha=0.7, t0=1)],
        )[0]
        diff = np.linalg.norm(base.final.product() - rep.final.product())
        assert diff <= 1e-10 * max(1.0, np.linalg.norm(base.final.product()))


def check_fixed_points_bit_exact():
    g = np.random.default_rng(11)
    l, rr = g.standard_normal((4, 2)), g.standard_normal((5, 2))
    pair = FactorPair(l, rr)
    designs = g.standard_normal((400, 20))
    y = designs @ pair.product().ravel()
    ds = synth.Dataset(
        n1=4, n2=5, seed=0, y=y, designs_flat=designs,
    )
    out = tgd.refine_components(ds, [pair], [tgd.TgdConfig(eta=1.3, alpha=0.8, t0=1)])[0]
    assert (out.final.l == pair.l).all() and (out.final.r == pair.r).all()
    # mixed variant: half the samples follow a different component
    other = g.standard_normal((4, 5))
    y_mixed = np.concatenate([y[:200], designs[200:] @ other.ravel()])
    ds_mixed = synth.Dataset(
        n1=4, n2=5, seed=0, y=y_mixed, designs_flat=designs,
    )
    out = tgd.refine_components(ds_mixed, [pair], [tgd.TgdConfig(eta=1.3, alpha=0.4, t0=1)])[0]
    assert out.trace.taus[0] == 0.0
    assert (out.final.l == pair.l).all() and (out.final.r == pair.r).all()


def check_third_moment_symmetry():
    g = np.random.default_rng(3)
    for d in (1, 2, 5):
        t = mt.third_moment_correction(g.standard_normal(d))
        for perm in itertools.permutations(range(3)):
            assert (t == np.transpose(t, perm)).all()


def check_deflation_telescope():
    g = np.random.default_rng(5)
    q = np.linalg.qr(g.standard_normal((5, 4)))[0]
    lams = np.array([4.0, 3.0, 2.0, 1.0])
    t3 = sum(lams[i] * np.einsum("i,j,k->ijk", q[:, i], q[:, i], q[:, i]) for i in range(4))
    pairs = mt.robust_tensor_power(t3, K=4, restarts=16, iters=120, seed=5)
    recon = sum(lam * np.einsum("i,j,k->ijk", u, u, u) for lam, u in pairs)
    assert np.linalg.norm((t3 - recon).ravel()) <= 1e-8 * lams.max()


def check_alignment_brute_force():
    g = np.random.default_rng(13)
    for K_align in range(1, 5):
        for _ in range(4):
            ests = [g.standard_normal((3, 3)) for _ in range(K_align)]
            truths = [g.standard_normal((3, 3)) for _ in range(K_align)]
            res = pl.align_components(ests, truths)
            best, cost = None, np.inf
            for perm in itertools.permutations(range(K_align)):
                c = sum(core.rel_fro_error(ests[perm[k]], truths[k]) for k in range(K_align))
                if c < cost:
                    best, cost = perm, c
            assert res.perm == best and abs(res.total_cost - cost) <= 1e-12


def check_vec_round_trip():
    g = np.random.default_rng(17)
    for r in range(1, 9):
        m = g.integers(-9, 9, size=(r, r)).astype(float)
        assert (core.unvec(core.vec(m), r) == m).all()


def check_streamed_stored_equality():
    gt = synth.make_ground_truth(6, 6, [2, 2], [0.5, 0.5], [[1.0, 1.0]] * 2, seed=23)
    stored = synth.sample_dataset(gt, 2100, 0.25, seed=29, stored_budget=2100 * 36)
    idx = np.arange(2100)
    # none stored, and a float32 prefix of 1500 rows that ends inside the
    # second block
    for budget in (0, 1500 * 36 // 2):
        other = synth.sample_dataset(gt, 2100, 0.25, seed=29, stored_budget=budget)
        assert (stored.y == other.y).all()
        assert (stacked_rows(stored, idx) == stacked_rows(other, idx)).all()


def test_property_suite():
    checks = [
        ("quantile brute force", check_quantile_brute_force),
        ("w closed form + quadratic ratio", check_w_function),
        ("reparameterization invariance", check_reparameterization_invariance),
        ("fixed points bit exact", check_fixed_points_bit_exact),
        ("third-moment correction symmetry", check_third_moment_symmetry),
        ("deflation telescope", check_deflation_telescope),
        ("alignment brute force", check_alignment_brute_force),
        ("vec round trip", check_vec_round_trip),
        ("streamed/stored equality", check_streamed_stored_equality),
    ]
    for name, fn in checks:
        fn()
    report("property suite", True, f"{len(checks)} deterministic checks")


def spectral_init_run(seed, kappa, eta=0.7, n=30, r=2, mult=50, t0=300):
    g = np.random.default_rng(seed)
    u = np.linalg.qr(g.standard_normal((n, r)))[0]
    v = np.linalg.qr(g.standard_normal((n, r)))[0]
    m = u @ np.diag([float(kappa), 1.0]) @ v.T
    designs = g.standard_normal((mult * n * r, n * n))
    ds = synth.Dataset(
        n1=n, n2=n, seed=seed,
        y=designs @ m.ravel(), designs_flat=designs,
    )
    sub = mx.subspace_estimate(mx.data_matrix(ds), r)
    root = np.sqrt(sub.singular_values[:r])
    f0 = FactorPair(sub.u * root, sub.v * root)
    out = tgd.refine_components(ds, [f0], [tgd.TgdConfig(eta=eta, alpha=1.0, t0=t0)], [m])[0]
    hits = [t for t, e in enumerate(out.trace.rel_errors) if e is not None and e <= 1e-8]
    return hits[0] if hits else None


def test_kappa_independent_iteration_counts():
    medians = {}
    for kappa in (2, 50):
        iters = [spectral_init_run(seed, kappa) for seed in range(10)]
        assert all(i is not None for i in iters)
        medians[kappa] = float(np.median(iters))
    lo, hi = min(medians.values()), max(medians.values())
    ok = (hi - lo) <= 0.25 * lo
    report(
        "conditioning-independent refinement",
        ok,
        f"median iterations to 1e-8: kappa=2 -> {medians[2]:.1f}, kappa=50 -> {medians[50]:.1f}",
    )
    assert ok
