"""Stage (segment) times of the latency kernel; LatencyModel's per-layer
predictions."""

import numpy as np
import pytest

from repro.core.queueing import FeatureColumns, plan_latency, stage_params
from repro.devices.latency import layer_class_of
from repro.errors import PlanError
from repro.models.layers import Activation, Conv2D, Dense, DepthwiseConv2D, Pool
from repro.network.link import Link
from repro.units import mbps


def device_segment(flops, device, latency_model):
    """Kernel time of a fully local plan running ``flops`` on ``device``."""
    cols = FeatureColumns(*(np.atleast_1d(np.asarray(v, dtype=float))
                            for v in (flops, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0)))
    return plan_latency(cols, **stage_params(device, latency_model))


def server_segment(flops, device, server, latency_model, share):
    """Kernel time of a full-offload plan with nothing on the wire."""
    cols = FeatureColumns(*(np.array([v]) for v in (0.0, flops, 0.0, 1.0, 0.0, 0.0, 0.0)))
    link = Link(mbps(40), rtt_s=0.0)
    stages = stage_params(device, latency_model, server, link, compute_share=share)
    return float(plan_latency(cols, **stages)[0])


class TestSegmentTime:
    """Stage ("segment") times of the latency kernel: blended-throughput
    division plus a per-invocation overhead that the share does not scale."""

    def test_linear_in_flops(self, pi4, latency_model):
        t1, t2 = device_segment([1e9, 2e9], pi4, latency_model)
        # both include the same fixed overhead
        assert t2 - t1 == pytest.approx(t1 - pi4.overhead_s)

    def test_zero_flops_zero_time(self, pi4, latency_model):
        assert device_segment(0.0, pi4, latency_model)[0] == 0.0

    def test_share_scales_compute(self, pi4, edge_gpu, latency_model):
        t_full = server_segment(1e9, pi4, edge_gpu, latency_model, 1.0)
        t_half = server_segment(1e9, pi4, edge_gpu, latency_model, 0.5)
        oh = edge_gpu.overhead_s
        assert (t_half - oh) == pytest.approx(2 * (t_full - oh))

    def test_invalid_share(self, pi4, edge_gpu, latency_model):
        with pytest.raises(PlanError):
            server_segment(1e9, pi4, edge_gpu, latency_model, 0.0)
        with pytest.raises(PlanError):
            server_segment(1e9, pi4, edge_gpu, latency_model, 1.5)

    def test_vectorized_matches_scalar(self, pi4, latency_model):
        flops = np.array([0.0, 1e8, 5e9])
        vec = device_segment(flops, pi4, latency_model)
        for f, v in zip(flops, vec):
            assert v == device_segment(float(f), pi4, latency_model)[0]

    def test_faster_device_lower_latency(self, pi4, edge_gpu, latency_model):
        assert device_segment(1e9, edge_gpu, latency_model)[0] < device_segment(
            1e9, pi4, latency_model
        )[0]


class TestLayerTime:
    def test_layer_class_mapping(self):
        assert layer_class_of(Conv2D("c", out_channels=2)) == "conv"
        assert layer_class_of(DepthwiseConv2D("d")) == "depthwise"
        assert layer_class_of(Dense("f", out_features=2)) == "dense"
        assert layer_class_of(Activation("a")) == "memory"
        assert layer_class_of(Pool("p")) == "memory"

    def test_depthwise_slower_per_flop_than_conv(self, pi4, latency_model):
        conv = Conv2D("c", out_channels=2)
        dw = DepthwiseConv2D("d")
        assert latency_model.layer_time(dw, 1e9, pi4) > latency_model.layer_time(
            conv, 1e9, pi4
        )

    def test_zero_flops(self, pi4, latency_model):
        assert latency_model.layer_time(Activation("a"), 0, pi4) == 0.0

    def test_no_overhead_per_layer(self, pi4, latency_model):
        conv = Conv2D("c", out_channels=2)
        t = latency_model.layer_time(conv, 1e6, pi4)
        assert t == pytest.approx(1e6 / pi4.effective_flops("conv"))

    def test_throughput_share(self, pi4, latency_model):
        assert latency_model.throughput(pi4, 0.25) == pytest.approx(
            latency_model.throughput(pi4) * 0.25
        )
