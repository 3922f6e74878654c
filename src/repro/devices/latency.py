"""Profile-driven latency prediction.

:class:`LatencyModel` converts FLOP counts into seconds on a given device,
optionally scaled by a *compute share* — the fraction of the device's
capacity the resource allocator granted to this task (servers are shared;
end devices usually run one task at share 1).

The optimizer's inner loop only needs :meth:`LatencyModel.throughput` — the
blended FLOP/s the latency kernel (:func:`repro.core.queueing.plan_latency`)
divides aggregate plan FLOPs by.  :meth:`LatencyModel.layer_time` is the
per-layer granularity, used by the offline profiler to produce the per-layer
latency tables (experiment E1) exactly the way Neurosurgeon-class systems
measure them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Optional

from repro.devices.device import DeviceSpec
from repro.models.layers import (
    Activation,
    Add,
    BatchNorm,
    Concat,
    Conv2D,
    Dense,
    DepthwiseConv2D,
    Dropout,
    Flatten,
    GlobalAvgPool,
    Input,
    Layer,
    LocalResponseNorm,
    Pool,
    Softmax,
)

#: Layer type -> efficiency class used for per-layer predictions.
_LAYER_CLASS = {
    Conv2D: "conv",
    DepthwiseConv2D: "depthwise",
    Dense: "dense",
    Activation: "memory",
    BatchNorm: "memory",
    Pool: "memory",
    GlobalAvgPool: "memory",
    LocalResponseNorm: "memory",
    Softmax: "memory",
    Add: "memory",
    Concat: "memory",
    Flatten: "memory",
    Dropout: "memory",
    Input: "memory",
}


def layer_class_of(layer: Layer) -> str:
    """Efficiency class for a layer instance."""
    for typ, cls in _LAYER_CLASS.items():
        if isinstance(layer, typ):
            return cls
    return "memory"


@dataclass(frozen=True)
class LatencyModel:
    """Latency predictor over :class:`DeviceSpec` objects.

    ``flops_mix`` sets the blended-throughput assumption of
    :meth:`throughput`; the default matches conv-dominated CNNs.
    """

    flops_mix: Optional[Mapping[str, float]] = None

    def layer_time(self, layer: Layer, flops: float, device: DeviceSpec) -> float:
        """Seconds for one layer, using its class-specific efficiency.

        No invocation overhead here — that is per segment, not per layer.
        """
        if flops <= 0:
            return 0.0
        return flops / device.effective_flops(layer_class_of(layer))

    def throughput(self, device: DeviceSpec, share: float = 1.0) -> float:
        """Blended FLOP/s available to a task at the given share."""
        return device.blended_flops(self.flops_mix) * share
