import itertools
import json

import numpy as np
import pytest

from mixsense import core, initialization as ini, pipeline as pl, synth
from mixsense.errors import InvalidInputError, MixsenseError, PipelineStageError


def brute_force_alignment(estimates, truths):
    best_perm, best_cost = None, np.inf
    for perm in itertools.permutations(range(len(truths))):
        cost = sum(
            np.linalg.norm(estimates[perm[k]] - truths[k]) / np.linalg.norm(truths[k])
            for k in range(len(truths))
        )
        if cost < best_cost:
            best_perm, best_cost = perm, cost
    return best_perm, best_cost


class TestAlignComponents:
    def test_identity(self, rng):
        mats = [rng.standard_normal((3, 3)) for _ in range(3)]
        res = pl.align_components(mats, mats)
        assert res.perm == (0, 1, 2) and res.total_cost == 0.0

    def test_swapped(self, rng):
        mats = [rng.standard_normal((3, 3)) for _ in range(2)]
        res = pl.align_components([mats[1], mats[0]], mats)
        assert res.perm == (1, 0) and res.total_cost == 0.0

    def test_matches_brute_force(self, rng):
        for _ in range(6):
            ests = [rng.standard_normal((2, 3)) for _ in range(4)]
            truths = [rng.standard_normal((2, 3)) for _ in range(4)]
            res = pl.align_components(ests, truths)
            perm, cost = brute_force_alignment(ests, truths)
            assert res.perm == perm
            assert abs(res.total_cost - cost) < 1e-12

    def test_assignment_path_matches_brute_force(self, rng):
        # K = 9 exercises the linear-assignment branch
        ests = [rng.standard_normal((2, 2)) for _ in range(9)]
        truths = [rng.standard_normal((2, 2)) for _ in range(9)]
        res = pl.align_components(ests, truths)
        _, cost = brute_force_alignment(ests, truths)
        assert sorted(res.perm) == list(range(9))
        assert abs(res.total_cost - cost) < 1e-12

    def test_cost_never_exceeds_identity(self, rng):
        ests = [rng.standard_normal((3, 3)) for _ in range(4)]
        truths = [rng.standard_normal((3, 3)) for _ in range(4)]
        res = pl.align_components(ests, truths)
        identity_cost = sum(core.rel_fro_error(ests[k], truths[k]) for k in range(4))
        assert res.total_cost <= identity_cost + 1e-12


class TestDefaultParams:
    def test_equal_thirds(self):
        cfg = pl.PipelineConfig(k_components=3, t0=7, early_stop_tol=1e-13)
        params = pl.default_params([1 / 3] * 3, cfg)
        for p in params:
            assert abs(p.eta - 3.9) < 1e-12
            assert abs(p.alpha - 0.8 / 3) < 1e-12
            assert p.t0 == 7 and p.early_stop_tol == 1e-13

    def test_halves(self):
        cfg = pl.PipelineConfig(k_components=2)
        params = pl.default_params([0.5, 0.5], cfg)
        assert params[0].eta == 2.6 and params[1].eta == 2.6

    def test_alpha_capped_at_one(self):
        cfg = pl.PipelineConfig(k_components=1)
        assert pl.default_params([2.0], cfg)[0].alpha == 1.0


class TestPipelineConfig:
    def test_t0_and_lengths(self):
        with pytest.raises(InvalidInputError):
            pl.PipelineConfig(k_components=1, t0=0)
        with pytest.raises(InvalidInputError):
            pl.PipelineConfig(k_components=2, supplied_ranks=(1,))

    def test_fractional_t0_and_ranks(self):
        with pytest.raises(InvalidInputError):
            pl.PipelineConfig(k_components=1, t0=2.5)
        with pytest.raises(InvalidInputError):
            pl.PipelineConfig(k_components=1, supplied_ranks=(1.5,))
        with pytest.raises(InvalidInputError):
            pl.PipelineConfig(k_components=1.0)
        for seed in (-1, 1.5):
            with pytest.raises(InvalidInputError):
                pl.PipelineConfig(k_components=1, seed=seed)

    def test_bad_tolerance_and_ranks(self):
        for tol in (-1.0, float("nan")):
            with pytest.raises(InvalidInputError):
                pl.PipelineConfig(k_components=1, early_stop_tol=tol)
        for r_joint in (0, -2, 1.5):
            with pytest.raises(InvalidInputError):
                pl.PipelineConfig(k_components=1, supplied_r_joint=r_joint)
        for ranks in ((0,), (1, -1)):
            with pytest.raises(InvalidInputError):
                pl.PipelineConfig(k_components=len(ranks), supplied_ranks=ranks)

    def test_nonpositive_or_non_finite_proportions(self):
        for props in ((0.0,), (-0.5,), (float("nan"),), (float("inf"),)):
            with pytest.raises(InvalidInputError):
                pl.PipelineConfig(k_components=1, supplied_proportions=props)


def desk_problem(seed, n=16, K=1, r=2, mult=50, sigma=0.0):
    gt = synth.make_ground_truth(n, n, [r] * K, [1.0 / K] * K, [[1.0] * r] * K, seed)
    ds = synth.sample_dataset(gt, mult * n * r * K, sigma, seed)
    return gt, ds


class TestRunPipeline:
    def test_single_component_noiseless(self):
        gt, ds = desk_problem(seed=0)
        cfg = pl.PipelineConfig(k_components=1, supplied_ranks=(2,), supplied_proportions=(1.0,),
                                t0=120, early_stop_tol=1e-13, seed=0)
        rep = pl.run_pipeline(ds, None, cfg, truth=gt)
        assert rep.per_component[0].rel_error <= 1e-8
        assert rep.stage1.r_used == 2

    def test_deterministic_reports(self):
        gt, ds = desk_problem(seed=1)
        cfg = pl.PipelineConfig(k_components=1, supplied_ranks=(2,), t0=40, seed=1)
        rep1 = pl.run_pipeline(ds, None, cfg, truth=gt)
        rep2 = pl.run_pipeline(ds, None, cfg, truth=gt)
        assert rep1.to_json() == rep2.to_json()
        for a, b in zip(rep1.estimates, rep2.estimates):
            assert (a == b).all()

    def test_one_data_matrix_svd_and_k_lifts_per_solve(self, monkeypatch):
        gt, ds = desk_problem(seed=2, K=2, n=12, mult=60)
        svd_shapes, lifts = [], []
        real_svd, real_lift = core.svd, ini.lift_and_factor

        def counting_svd(m, *args, **kwargs):
            svd_shapes.append(np.shape(m))
            return real_svd(m, *args, **kwargs)

        def counting_lift(*args, **kwargs):
            lifts.append(1)
            return real_lift(*args, **kwargs)

        monkeypatch.setattr(core, "svd", counting_svd)
        monkeypatch.setattr(ini, "lift_and_factor", counting_lift)
        cfg = pl.PipelineConfig(k_components=2, supplied_ranks=(2, 2), t0=5, seed=2)
        rep = pl.run_pipeline(ds, None, cfg, truth=None)
        assert rep.stage1.r_used == 4  # estimated by stage 1 itself
        assert svd_shapes.count((12, 12)) == 1
        assert len(lifts) == 2

    def test_stored_prefixes_agree_end_to_end(self):
        gt = synth.make_ground_truth(10, 10, [1], [1.0], [[1.0]], seed=8)
        cfg = pl.PipelineConfig(k_components=1, supplied_ranks=(1,), t0=25, seed=8)
        reports = []
        # all rows stored, none stored, and a prefix that ends inside a block
        for stored_rows in (1_000, 0, 300):
            ds = synth.sample_dataset(gt, 1_000, 0.05, seed=8, stored_budget=stored_rows * 100)
            assert ds.stored_rows == stored_rows
            reports.append(pl.run_pipeline(ds, None, cfg, truth=gt))
        for rep in reports[1:]:
            assert rep.to_json() == reports[0].to_json()
            assert (rep.estimates[0] == reports[0].estimates[0]).all()

    @staticmethod
    def watch_stage2_datasets(monkeypatch):
        seen = []
        real_compress = ini.compress_samples

        def watching_compress(dataset, sub):
            seen.append(dataset)
            return real_compress(dataset, sub)

        monkeypatch.setattr(ini, "compress_samples", watching_compress)
        return seen

    def test_stage2_reads_d_mlr_when_given(self, monkeypatch):
        gt, ds = desk_problem(seed=3)
        ds2 = synth.sample_dataset(gt, ds.N, 0.0, seed=103)
        seen = self.watch_stage2_datasets(monkeypatch)
        cfg = pl.PipelineConfig(k_components=1, supplied_ranks=(2,), supplied_proportions=(1.0,),
                                t0=10, seed=3)
        rep = pl.run_pipeline(ds, ds2, cfg, truth=gt)
        assert rep.stage1.r_used == 2
        pl.run_pipeline(ds, None, cfg, truth=gt)
        assert len(seen) == 2 and seen[0] is ds2 and seen[1] is ds

    def test_stage2_on_d_mlr_then_recovers(self, monkeypatch):
        gt, ds = desk_problem(seed=4)
        ds2 = synth.sample_dataset(gt, ds.N, 0.0, seed=104)
        seen = self.watch_stage2_datasets(monkeypatch)
        cfg = pl.PipelineConfig(k_components=1, supplied_ranks=(2,), supplied_proportions=(1.0,),
                                t0=60, early_stop_tol=1e-13, seed=4)
        rep = pl.run_pipeline(ds, ds2, cfg, truth=gt)
        assert len(seen) == 1 and seen[0] is ds2
        assert rep.per_component[0].rel_error <= 1e-6

    def test_stage_tagging(self):
        gt, ds = desk_problem(seed=5)
        cfg = pl.PipelineConfig(k_components=1, supplied_r_joint=99, supplied_ranks=(2,),
                                t0=10, seed=5)
        with pytest.raises(PipelineStageError) as exc_info:
            pl.run_pipeline(ds, None, cfg, truth=gt)
        assert exc_info.value.stage == "stage1"

    def test_report_json_round_trip(self):
        gt, ds = desk_problem(seed=6)
        cfg = pl.PipelineConfig(k_components=1, supplied_ranks=(2,), t0=15, seed=6)
        rep = pl.run_pipeline(ds, None, cfg, truth=gt)
        parsed = json.loads(rep.to_json())
        assert parsed["stage1"]["r_used"] == 2
        assert len(parsed["per_component"]) == 1
        assert len(parsed["per_component"][0]["trace"]) == len(rep.per_component[0].trace)
        assert parsed["per_component"][0]["stop_reason"] == "budget"
        assert parsed["permutation"] == [0]
        assert parsed["stage2"] == {
            "whitening_ratio": rep.stage2.whitening_ratio,
            "weight_flagged": [bool(w > 1.5) for w in rep.weights],
        }
        assert parsed["stage2"]["whitening_ratio"] == 1.0  # K = 1: s_1 / s_1
        assert parsed["weights"] == rep.weights.tolist()

    def test_without_truth_no_evaluation_fields(self):
        gt, ds = desk_problem(seed=7)
        cfg = pl.PipelineConfig(k_components=1, supplied_ranks=(2,),
                                supplied_proportions=(1.0,), t0=15, seed=7)
        rep = pl.run_pipeline(ds, None, cfg, truth=None)
        assert rep.per_component[0].rel_error is None
        assert rep.stage1.dist_u is None
        # without supplied proportions the step sizes come from the stage-2
        # weights, and truth changes only the evaluation fields
        cfg = pl.PipelineConfig(k_components=1, supplied_ranks=(2,), t0=15, seed=7)
        with_truth = pl.run_pipeline(ds, None, cfg, truth=gt)
        without = pl.run_pipeline(ds, None, cfg, truth=None)
        assert with_truth.per_component[0].rel_error is not None
        assert (with_truth.estimates[0] == without.estimates[0]).all()
        assert with_truth.per_component[0].trace.kept_counts == \
            without.per_component[0].trace.kept_counts

    @pytest.mark.xfail(
        strict=True,
        reason="estimated mixture weights at this sample size are too noisy "
        "to reproduce the supplied-parameter error floor",
    )
    def test_supplied_vs_estimated_parameters_within_factor_two(self):
        hits = 0
        for seed in range(10):
            n, K, r = 28, 3, 2
            gt = synth.make_ground_truth(n, n, [r] * K, [1 / 3] * K, [[1.0] * r] * K, seed)
            ds = synth.sample_dataset(gt, 90 * n * r * K, 0.0, seed)
            supplied = pl.PipelineConfig(
                k_components=K, supplied_r_joint=6, supplied_ranks=(r,) * K,
                supplied_proportions=(1 / 3,) * K, t0=100, early_stop_tol=1e-13, seed=seed,
            )
            rep_a = pl.run_pipeline(ds, None, supplied, truth=gt)
            err_a = max(c.rel_error for c in rep_a.per_component)
            try:
                estimated = pl.PipelineConfig(
                    k_components=K, t0=100, early_stop_tol=1e-13, seed=seed,
                )
                rep_b = pl.run_pipeline(ds, None, estimated, truth=None)
                align = pl.align_components(rep_b.estimates, gt.matrices())
                err_b = max(
                    core.rel_fro_error(rep_b.estimates[align.perm[k]], gt.matrix(k))
                    for k in range(K)
                )
            except MixsenseError:
                err_b = np.inf
            ratio = max(err_a, err_b) / max(min(err_a, err_b), 1e-300)
            hits += ratio <= 2.0
        assert hits >= 8
