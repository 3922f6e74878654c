"""Surgery evaluation and enumeration."""

import numpy as np
import pytest

from repro.core.plan import SurgeryPlan
from repro.core.surgery import (
    DEFAULT_THRESHOLD_GRID,
    enumerate_features,
    evaluate_plan,
)
from repro.errors import PlanError
from repro.network.link import Link
from repro.units import mbps

LINK = Link(mbps(40), rtt_s=10e-3)


def final_only(model, cut):
    return SurgeryPlan(
        kept_exits=(model.num_exits - 1,), thresholds=(0.0,), partition_cut=cut
    )


class TestEvaluatePlan:
    def test_fully_local_features(self, me_resnet18):
        last = len(me_resnet18.backbone.cut_points) - 1
        f = evaluate_plan(me_resnet18, final_only(me_resnet18, last))
        assert f.is_local_only
        assert f.dev_flops == pytest.approx(me_resnet18.final_exit.backbone_flops)
        assert f.srv_flops == 0.0 and f.wire_bytes == 0.0

    def test_full_offload_features(self, me_resnet18):
        f = evaluate_plan(me_resnet18, final_only(me_resnet18, 0))
        assert f.p_offload == pytest.approx(1.0)
        assert f.dev_flops == 0.0
        assert f.srv_flops == pytest.approx(me_resnet18.final_exit.backbone_flops)
        assert f.wire_bytes == pytest.approx(
            me_resnet18.input_bytes + me_resnet18.result_bytes
        )

    def test_flops_conservation(self, me_resnet18):
        """dev + srv FLOPs are independent of WHERE we cut, for the same exit
        distribution (work moves across the cut, it doesn't appear/vanish)."""
        n = len(me_resnet18.backbone.cut_points)
        kept = (1, 4)
        totals = []
        for cut in (0, n // 2, n - 1):
            f = evaluate_plan(
                me_resnet18,
                SurgeryPlan(kept_exits=kept, thresholds=(0.8, 0.0), partition_cut=cut),
            )
            totals.append(f.dev_flops + f.srv_flops)
        # exits-before-cut run on device and their branch flops differ from
        # the identical-exit-distribution invariant only through branch
        # placement, which is the same work; totals must match
        assert max(totals) == pytest.approx(min(totals), rel=1e-9)

    def test_early_exits_reduce_expected_flops(self, me_resnet18):
        n = len(me_resnet18.backbone.cut_points)
        full = evaluate_plan(me_resnet18, final_only(me_resnet18, n - 1))
        exity = evaluate_plan(
            me_resnet18,
            SurgeryPlan(kept_exits=(0, 1, 2, 3, 4), thresholds=(0.5, 0.5, 0.5, 0.5, 0.0), partition_cut=n - 1),
        )
        assert exity.dev_flops < full.dev_flops
        assert exity.accuracy < full.accuracy  # the price of exits

    def test_exit_probs_sum_to_one(self, me_resnet18):
        f = evaluate_plan(
            me_resnet18,
            SurgeryPlan(kept_exits=(1, 3, 4), thresholds=(0.7, 0.7, 0.0), partition_cut=5),
        )
        assert sum(f.exit_probs) == pytest.approx(1.0)

    def test_second_moments_jensen(self, me_resnet18):
        f = evaluate_plan(
            me_resnet18,
            SurgeryPlan(kept_exits=(1, 4), thresholds=(0.8, 0.0), partition_cut=5),
        )
        assert f.dev_flops_sq >= f.dev_flops**2 * (1 - 1e-12)
        assert f.srv_flops_sq >= f.srv_flops**2 * (1 - 1e-12)

    def test_invalid_plan_raises(self, me_resnet18):
        with pytest.raises(PlanError):
            evaluate_plan(
                me_resnet18,
                SurgeryPlan(kept_exits=(1,), thresholds=(0.0,), partition_cut=0),
            )


def one_plan(model, feats):
    """A single-candidate set: the ranking entry prices exactly this plan."""
    from repro.core.candidates import CandidateSet
    from repro.core.plan import TaskSpec

    return CandidateSet(TaskSpec("t", model, "d"), [feats])


class TestPlanLatency:
    """Placement and share validation at the ranking entry
    (:meth:`CandidateSet.latencies`), which the latency kernel sits behind."""

    def test_local_needs_no_server(self, me_resnet18, pi4, latency_model):
        last = len(me_resnet18.backbone.cut_points) - 1
        f = evaluate_plan(me_resnet18, final_only(me_resnet18, last))
        t = one_plan(me_resnet18, f).latencies(pi4, latency_model)
        expected = f.dev_flops / latency_model.throughput(pi4) + pi4.overhead_s
        assert float(t[0]) == pytest.approx(expected)

    def test_offload_requires_server(self, me_resnet18, pi4, edge_gpu, latency_model):
        f = evaluate_plan(me_resnet18, final_only(me_resnet18, 0))
        cs = one_plan(me_resnet18, f)
        # placed locally an offloading plan is infeasible, not an error ...
        assert np.isinf(cs.latencies(pi4, latency_model)[0])
        # ... but half an offload placement is
        with pytest.raises(PlanError):
            cs.latencies(pi4, latency_model, server=edge_gpu)
        with pytest.raises(PlanError):
            cs.latencies(pi4, latency_model, link=LINK)

    def test_share_monotonicity(self, me_resnet18, pi4, edge_gpu, latency_model):
        f = evaluate_plan(me_resnet18, final_only(me_resnet18, 0))
        cs = one_plan(me_resnet18, f)

        def lat(x, y):
            return float(
                cs.latencies(
                    pi4,
                    latency_model,
                    server=edge_gpu,
                    link=LINK,
                    compute_share=x,
                    bandwidth_share=y,
                )[0]
            )

        assert lat(1.0, 1.0) < lat(0.5, 1.0) < lat(0.5, 0.5)

    def test_invalid_shares(self, me_resnet18, pi4, edge_gpu, latency_model):
        f = evaluate_plan(me_resnet18, final_only(me_resnet18, 0))
        cs = one_plan(me_resnet18, f)
        for shares in ({"compute_share": 0.0}, {"bandwidth_share": 1.5}):
            with pytest.raises(PlanError):
                cs.latencies(pi4, latency_model, server=edge_gpu, link=LINK, **shares)


class TestEnumeration:
    def test_covers_extremes(self, me_resnet18):
        feats = enumerate_features(me_resnet18)
        assert any(f.is_local_only for f in feats)
        assert any(f.plan.partition_cut == 0 and len(f.plan.kept_exits) == 1 for f in feats)

    def test_every_subset_contains_final(self, me_resnet18):
        final = me_resnet18.num_exits - 1
        for f in enumerate_features(me_resnet18):
            assert f.plan.kept_exits[-1] == final

    def test_thresholds_from_grid(self, me_resnet18):
        grid = set(DEFAULT_THRESHOLD_GRID) | {0.0}
        for f in enumerate_features(me_resnet18):
            assert set(f.plan.thresholds) <= grid

    def test_matches_evaluate_plan(self, me_resnet18):
        """Vectorized enumeration must agree exactly with single-plan eval."""
        feats = enumerate_features(me_resnet18, threshold_grid=(0.8,), max_cuts=6)
        for f in feats[:: max(1, len(feats) // 15)]:
            ref = evaluate_plan(me_resnet18, f.plan)
            assert f.dev_flops == pytest.approx(ref.dev_flops, rel=1e-9)
            assert f.srv_flops == pytest.approx(ref.srv_flops, rel=1e-9)
            assert f.wire_bytes == pytest.approx(ref.wire_bytes, rel=1e-9)
            assert f.p_offload == pytest.approx(ref.p_offload, abs=1e-12)
            assert f.accuracy == pytest.approx(ref.accuracy, rel=1e-12)

    def test_no_duplicate_plans(self, me_resnet18):
        feats = enumerate_features(me_resnet18)
        keys = [(f.plan.kept_exits, f.plan.thresholds, f.plan.partition_cut) for f in feats]
        assert len(keys) == len(set(keys))

    def test_max_cuts_budget(self, me_alexnet):
        few = enumerate_features(me_alexnet, max_cuts=4)
        many = enumerate_features(me_alexnet, max_cuts=24)
        assert len(few) < len(many)


class TestRefineThresholds:
    def _coarse_best(self, model, pi4, edge_gpu, latency_model, floor=0.6):
        from repro.core.candidates import CandidateSet
        from repro.core.plan import TaskSpec

        task = TaskSpec("t", model, "d", accuracy_floor=floor)
        cs = CandidateSet(task, enumerate_features(model, threshold_grid=(0.8,)))
        cs = cs.filter_accuracy(floor)
        lat = cs.latencies(pi4, latency_model, server=edge_gpu, link=LINK)
        j = int(np.argmin(lat))
        return cs.features[j], float(lat[j])

    def test_never_worse_and_floor_respected(self, me_resnet18, pi4, edge_gpu, latency_model):
        from repro.core.surgery import refine_thresholds

        feats, lat = self._coarse_best(me_resnet18, pi4, edge_gpu, latency_model)
        plan, refined = refine_thresholds(
            me_resnet18, feats.plan, pi4, latency_model, 0.6,
            server=edge_gpu, link=LINK,
        )
        ref_lat = one_plan(me_resnet18, refined).latencies(
            pi4, latency_model, server=edge_gpu, link=LINK
        )[0]
        assert float(ref_lat) <= lat + 1e-12
        assert refined.accuracy >= 0.6 - 1e-12

    def test_improves_coarse_shared_threshold(self, me_resnet18, pi4, edge_gpu, latency_model):
        from repro.core.surgery import refine_thresholds

        feats, lat = self._coarse_best(me_resnet18, pi4, edge_gpu, latency_model, floor=0.55)
        if len(feats.plan.kept_exits) <= 1:
            pytest.skip("coarse best kept no early exits")
        plan, refined = refine_thresholds(
            me_resnet18, feats.plan, pi4, latency_model, 0.55,
            server=edge_gpu, link=LINK,
        )
        ref_lat = one_plan(me_resnet18, refined).latencies(
            pi4, latency_model, server=edge_gpu, link=LINK
        )[0]
        assert float(ref_lat) < lat  # the shared threshold binds here

    def test_noop_for_final_only_plan(self, me_resnet18, pi4, latency_model):
        from repro.core.surgery import refine_thresholds

        p = final_only(me_resnet18, len(me_resnet18.backbone.cut_points) - 1)
        plan, feats = refine_thresholds(
            me_resnet18, p, pi4, latency_model, 0.6,
        )
        assert plan == p

    def test_invalid_floor_rejected(self, me_resnet18, pi4, latency_model):
        from repro.core.surgery import refine_thresholds
        from repro.errors import PlanError

        p = final_only(me_resnet18, 0)
        with pytest.raises(PlanError):
            refine_thresholds(me_resnet18, p, pi4, latency_model, 0.0)

    def test_joint_solver_refinement_recovers_coarse_grid(
        self, small_cluster, small_tasks
    ):
        from repro.core.candidates import build_candidates
        from repro.core.joint import JointOptimizer, JointSolverConfig

        cands = [build_candidates(t, threshold_grid=(0.8,)) for t in small_tasks]
        off = JointOptimizer(
            small_cluster, config=JointSolverConfig(refine_thresholds=False)
        ).solve(small_tasks, candidates=cands, seed=0)
        on = JointOptimizer(
            small_cluster, config=JointSolverConfig(refine_thresholds=True)
        ).solve(small_tasks, candidates=cands, seed=0)
        assert on.plan.objective_value <= off.plan.objective_value + 1e-12
