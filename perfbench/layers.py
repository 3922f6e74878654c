"""Per-layer tracing by wrapping each module's public entry points.

Nothing in ``src/`` knows about this file.  :class:`LayerTracer` swaps the
attributes that callers actually resolve for thin wrappers (``fastpath`` and
``coordinator`` import names directly, so the wrapper must replace the name
in *their* namespace, not only in the defining module), records one span per
wrapped call — name, start, end, parent — in memory, and restores the
originals on exit.  Hot scalar kernels called ~10^6 times per solve get a
counting wrapper only: timing them would distort the run they measure.

A layer's *self* time is its spans' duration minus the part covered by child
spans, so self times over all layers partition the traced wall.
"""

from __future__ import annotations

import functools
import importlib
import json
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter
from typing import Callable, Dict, Iterator, List, Optional, Tuple

import numpy as np


def _joint_hook(counts, args, out) -> None:
    counts["joint.iterations"] += out.iterations
    counts["joint.restarts"] += out.perf.restarts


def _draws_hook(counts, args, out) -> None:
    counts["rng_vec.draws"] += int(np.size(out))


def _sweep_hook(counts, args, out) -> None:
    # a job whose service starts at its submit time opens a busy period
    times = np.asarray(args[1], dtype=np.float64)
    counts["queues.jobs"] += int(times.size)
    counts["queues.busy_periods"] += int(np.count_nonzero(out[0] == times))


#: (layer, "module[:Class]", attribute, result hook) — timed wrappers.
#: Every entry names the namespace the caller resolves the attribute from.
TIMED: Tuple[Tuple[str, str, str, Optional[Callable]], ...] = (
    # set-up
    ("workloads.build", "repro.workloads.scenarios", "build_scenario", None),
    ("candidates.build", "repro.core.candidates", "build_candidates", None),
    # control plane
    ("coordinator", "repro.core.coordinator", "solve_sharded", None),
    ("coordinator", "repro.core.coordinator", "resolve_dirty", None),
    ("sharding.index_build", "repro.core.sharding:AffinityIndex", "__init__", None),
    ("sharding.shard_plan", "repro.core.coordinator", "make_shard_plan", None),
    ("joint.shard_solve", "repro.core.joint:JointOptimizer", "solve", _joint_hook),
    ("candidates.latencies", "repro.core.candidates:CandidateSet", "latencies", None),
    ("surgery.refine", "repro.core.surgery", "refine_thresholds", None),
    ("allocation.allocator_solve", "repro.core.allocation:IncrementalAllocator", "solve", None),
    ("allocation.allocator_solve", "repro.core.allocation:IncrementalAllocator", "update", None),
    ("allocation.assign_servers", "repro.core.joint", "assign_servers", None),
    ("allocation.latencies", "repro.core.joint", "solution_latencies", None),
    ("allocation.latencies", "repro.core.coordinator", "solution_latencies", None),
    ("coordinator.package", "repro.core.coordinator", "package_plan", None),
    # data plane
    ("fastpath", "repro.sim.runner", "simulate_plan", None),
    ("sources.take_until", "repro.sim.sources:ArrivalStream", "take_until", None),
    ("rng_vec.first_uniforms", "repro.sim.fastpath", "first_uniforms", _draws_hook),
    ("rng_vec.first_uniforms", "repro.sim.execution", "first_uniforms", _draws_hook),
    ("execution.realize", "repro.sim.execution:RealizationTable", "positions", None),
    ("execution.realize", "repro.sim.execution:RealizationTable", "p_correct", None),
    ("execution.jitter", "repro.sim.fastpath", "jitter_factors", None),
    ("queues.fifo_sweep", "repro.sim.queues:FifoResource", "sweep", _sweep_hook),
    ("queues.link_sweep", "repro.sim.queues:LinkResource", "sweep", _sweep_hook),
    ("metrics.observe", "repro.sim.metrics:StreamingStats", "observe", None),
    ("windows.observe", "repro.telemetry.windows:WindowedMetrics", "observe", None),
    ("runner.report", "repro.sim.metrics:SimulationReport", "from_stream", None),
)

#: (counter, "module[:Class]", attribute) — call-counting wrappers only.
COUNTED: Tuple[Tuple[str, str, str], ...] = (
    ("allocation.latency_task_calls", "repro.core.allocation", "solution_latency_task"),
    ("allocation.latency_task_calls", "repro.core.joint", "solution_latency_task"),
    ("allocation.latency_task_calls", "repro.core.coordinator", "solution_latency_task"),
    ("devices.blended_flops_calls", "repro.devices.device:DeviceSpec", "blended_flops"),
)


def _resolve(target: str):
    module, _, cls = target.partition(":")
    owner = importlib.import_module(module)
    return getattr(owner, cls) if cls else owner


class LayerTracer:
    """In-memory span recorder plus the patch set that feeds it.

    Single-threaded by design: the benchmark pins ``restart_workers=1`` and
    ``sim_workers=1``, so one span stack describes the whole process.
    """

    def __init__(self) -> None:
        self.spans: List[list] = []  # [name, start, end, parent index or -1]
        self.counts: Dict[str, int] = defaultdict(int)
        self._stack: List[int] = []

    # -- wrappers -------------------------------------------------------------

    def _timed(self, layer: str, fn: Callable, hook: Optional[Callable]) -> Callable:
        spans, stack, counts = self.spans, self._stack, self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [layer, perf_counter(), 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            try:
                out = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            if hook is not None:
                hook(counts, args, out)
            return out

        return wrapper

    def _counted(self, key: str, fn: Callable) -> Callable:
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    @contextmanager
    def installed(self) -> Iterator["LayerTracer"]:
        """Patch every wrapper in; restore the original attributes on exit."""
        saved = []
        try:
            for layer, target, attr, hook in TIMED:
                saved.append(self._patch(target, attr, lambda f: self._timed(layer, f, hook)))
            for key, target, attr in COUNTED:
                saved.append(self._patch(target, attr, lambda f: self._counted(key, f)))
            yield self
        finally:
            for owner, attr, raw in reversed(saved):
                setattr(owner, attr, raw)

    @staticmethod
    def _patch(target: str, attr: str, make: Callable):
        owner = _resolve(target)
        raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        if isinstance(raw, classmethod):
            setattr(owner, attr, classmethod(make(raw.__func__)))
        else:
            setattr(owner, attr, make(raw))
        return owner, attr, raw

    # -- aggregation ----------------------------------------------------------

    def reset(self) -> None:
        if self._stack:
            raise RuntimeError("cannot reset the tracer inside an open span")
        self.spans.clear()
        self.counts.clear()

    def layer_times(self) -> Tuple[Dict[str, float], Dict[str, float], Dict[str, float]]:
        """(inclusive, self, longest single span) seconds per layer."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        incl: Dict[str, float] = defaultdict(float)
        excl: Dict[str, float] = defaultdict(float)
        longest: Dict[str, float] = defaultdict(float)
        for (name, start, end, _), covered in zip(self.spans, child):
            dur = end - start
            incl[name] += dur
            excl[name] += dur - covered
            longest[name] = max(longest[name], dur)
        return incl, excl, longest

    def write(self, path, origin: float) -> None:
        """Dump the recorded spans as JSON lines (times relative to ``origin``)."""
        with open(path, "w") as fh:
            for i, (name, start, end, parent) in enumerate(self.spans):
                fh.write(json.dumps(
                    {"id": i, "name": name, "start": start - origin,
                     "end": end - origin, "parent": parent}
                ) + "\n")
