"""Quantization levels and their integration into surgery."""

import numpy as np
import pytest

from repro.core.plan import SurgeryPlan
from repro.core.surgery import enumerate_features, evaluate_plan
from repro.errors import ConfigError, PlanError
from repro.models.quantization import (
    ALL_LEVELS,
    LEVELS,
    QuantizationLevel,
    quantization_level,
)


class TestLevels:
    def test_registry_complete(self):
        assert set(ALL_LEVELS) == set(LEVELS)

    def test_fp32_is_identity(self):
        l = quantization_level("fp32")
        assert l.compute_speedup == 1.0
        assert l.wire_scale == 1.0
        assert l.accuracy_delta == 0.0

    def test_ordering(self):
        fp16, int8 = quantization_level("fp16"), quantization_level("int8")
        assert 1.0 < fp16.compute_speedup < int8.compute_speedup
        assert int8.wire_scale < fp16.wire_scale < 1.0
        assert int8.accuracy_delta < fp16.accuracy_delta <= 0.0

    def test_unknown_raises(self):
        with pytest.raises(ConfigError):
            quantization_level("fp64")

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(compute_speedup=0.5),
            dict(wire_scale=0.0),
            dict(wire_scale=1.5),
            dict(accuracy_delta=0.1),
        ],
    )
    def test_invalid_level(self, kwargs):
        base = dict(name="x", compute_speedup=2.0, wire_scale=0.5, accuracy_delta=-0.01)
        base.update(kwargs)
        with pytest.raises(ConfigError):
            QuantizationLevel(**base)


class TestSurgeryIntegration:
    def _plan(self, model, q):
        return SurgeryPlan(
            kept_exits=(model.num_exits - 1,),
            thresholds=(0.0,),
            partition_cut=0,
            quantization=q,
        )

    def test_unknown_quantization_in_plan(self):
        with pytest.raises(PlanError):
            SurgeryPlan(kept_exits=(0,), thresholds=(0.0,), partition_cut=0, quantization="fp64")

    def test_int8_scales_costs(self, me_resnet18):
        f32 = evaluate_plan(me_resnet18, self._plan(me_resnet18, "fp32"))
        i8 = evaluate_plan(me_resnet18, self._plan(me_resnet18, "int8"))
        lvl = quantization_level("int8")
        assert i8.srv_flops == pytest.approx(f32.srv_flops / lvl.compute_speedup)
        assert i8.wire_bytes == pytest.approx(f32.wire_bytes * lvl.wire_scale)

    def test_int8_costs_accuracy(self, me_resnet18):
        f32 = evaluate_plan(me_resnet18, self._plan(me_resnet18, "fp32"))
        i8 = evaluate_plan(me_resnet18, self._plan(me_resnet18, "int8"))
        assert i8.accuracy == pytest.approx(
            f32.accuracy + quantization_level("int8").accuracy_delta, abs=1e-9
        )

    def test_enumeration_with_levels_grows(self, me_alexnet):
        base = enumerate_features(me_alexnet, threshold_grid=(0.8,), max_cuts=5)
        quant = enumerate_features(
            me_alexnet, threshold_grid=(0.8,), max_cuts=5, quantization_levels=ALL_LEVELS
        )
        assert len(quant) == 3 * len(base)

    def test_enumeration_matches_evaluate(self, me_alexnet):
        feats = enumerate_features(
            me_alexnet, threshold_grid=(0.8,), max_cuts=4, quantization_levels=("int8",)
        )
        for f in feats[::7]:
            ref = evaluate_plan(me_alexnet, f.plan)
            assert f.dev_flops == pytest.approx(ref.dev_flops, rel=1e-9)
            assert f.wire_bytes == pytest.approx(ref.wire_bytes, rel=1e-9)
            assert f.accuracy == pytest.approx(ref.accuracy, rel=1e-9)

    def test_empty_levels_raise(self, me_alexnet):
        with pytest.raises(PlanError):
            enumerate_features(me_alexnet, quantization_levels=())

    def test_sim_realization_scales(self, me_resnet18):
        from repro.sim.execution import realize_request

        rng = np.random.default_rng(0)
        p32 = self._plan(me_resnet18, "fp32")
        p8 = self._plan(me_resnet18, "int8")
        d32 = realize_request(me_resnet18, p32, 0.5, rng)
        d8 = realize_request(me_resnet18, p8, 0.5, rng)
        lvl = quantization_level("int8")
        assert d8.srv_flops == pytest.approx(d32.srv_flops / lvl.compute_speedup)
        assert d8.up_bytes == pytest.approx(d32.up_bytes * lvl.wire_scale)

    def test_quantized_plan_speeds_up_starved_link(self, me_resnet18, pi4, edge_gpu, latency_model):
        """On a thin link the int8 plan's smaller boundary wins."""
        from repro.core.candidates import CandidateSet
        from repro.core.plan import TaskSpec
        from repro.network.link import Link
        from repro.units import mbps

        task = TaskSpec("t", me_resnet18, "d", accuracy_floor=0.55)
        cs32 = CandidateSet(task, enumerate_features(me_resnet18, threshold_grid=(0.8,)))
        csq = CandidateSet(
            task,
            enumerate_features(me_resnet18, threshold_grid=(0.8,), quantization_levels=ALL_LEVELS),
        )
        link = Link(mbps(3), rtt_s=10e-3)
        lat32 = cs32.filter_accuracy(0.55).latencies(pi4, latency_model, server=edge_gpu, link=link)
        latq = csq.filter_accuracy(0.55).latencies(pi4, latency_model, server=edge_gpu, link=link)
        assert latq.min() < lat32.min()
