"""Lightweight work counters for the solver hot path.

Wall-clock alone cannot tell whether a speedup came from doing the same work
faster or from doing *less* work (cache hits, incremental re-solves), and it
is too noisy for CI gates.  :class:`PerfCounters` counts the units of work
the joint optimizer performs — closed-form share solves, per-task latency
evaluations, vectorized candidate sweeps, candidate-pipeline cache traffic —
so benchmarks and tests can assert on work done, not just elapsed time.

Counters are plain integers mutated single-threadedly within one solver
descent; parallel restarts each get their own instance, merged afterwards.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import TYPE_CHECKING, Dict, Mapping, Union

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.telemetry.metrics import MetricsRegistry


@dataclass
class PerfCounters:
    """Work counters of one :meth:`JointOptimizer.solve` call.

    Attributes
    ----------
    solve_s:
        Wall-clock seconds of the whole solve (including refinement).
    index_build_s:
        Wall-clock seconds building the coordinator's affinity index
        (template dedup + bound sweep + shortlists); 0 for centralized
        solves, which never build one.
    resolve_dirty_s:
        Wall-clock seconds spent inside incremental shard re-solves
        (:func:`repro.core.coordinator.resolve_dirty`); 0 for full solves.
    allocate_calls:
        Share-allocation solves requested (full or incremental).
    allocate_group_solves:
        Per-server / per-link closed-form group solves actually performed;
        with incremental updates this grows far slower than
        ``allocate_calls × groups``.
    latency_evals:
        Per-task end-to-end latency evaluations (objective bookkeeping).
    candidate_evals:
        (task, placement) candidate rankings (surgery / local search /
        migration); the local search ranks all of a task's placements in one
        kernel call and counts one per placement.
    candidate_cache_hits / candidate_cache_misses:
        Candidate-pipeline cache traffic attributable to this solve (only
        populated when the solver builds its own candidate sets).
    restarts:
        Independent descents run (serially or in parallel).
    shard_solves:
        Shard-local solves run by the sharded control plane (0 for a
        centralized solve).
    migration_rounds:
        Cross-shard migration rounds executed by the coordinator.
    migrations:
        Accepted cross-shard task migrations.
    """

    solve_s: float = 0.0
    index_build_s: float = 0.0
    resolve_dirty_s: float = 0.0
    allocate_calls: int = 0
    allocate_group_solves: int = 0
    latency_evals: int = 0
    candidate_evals: int = 0
    candidate_cache_hits: int = 0
    candidate_cache_misses: int = 0
    restarts: int = 0
    shard_solves: int = 0
    migration_rounds: int = 0
    migrations: int = 0

    def merge(self, other: "PerfCounters") -> "PerfCounters":
        """Accumulate ``other`` into ``self`` (returns self for chaining)."""
        for f in fields(self):
            setattr(self, f.name, getattr(self, f.name) + getattr(other, f.name))
        return self

    @classmethod
    def merged(cls, by_stream: Mapping[int, "PerfCounters"]) -> "PerfCounters":
        """Order-independent merge of per-restart counters.

        Parallel restarts record into per-thread counter instances keyed by
        their deterministic seed-stream index; merging in sorted stream order
        makes the result independent of thread completion order, so serial
        and parallel runs of the same solve report byte-identical counters
        (``solve_s`` included — restart counters never carry wall time).
        """
        out = cls()
        for stream in sorted(by_stream):
            out.merge(by_stream[stream])
        return out

    def as_dict(self) -> Dict[str, Union[int, float]]:
        """JSON-friendly snapshot (benchmark ``extra_info`` payload)."""
        return {f.name: getattr(self, f.name) for f in fields(self)}

    def publish(self, registry: "MetricsRegistry", prefix: str = "solver") -> None:
        """Register this solve's work into a telemetry metrics registry.

        Integer work counters become monotonic counters named
        ``{prefix}.{field}``; wall-clock ``*_s`` timers become gauges.
        The dataclass stays the in-band API — this is the bridge to the
        :mod:`repro.telemetry` layer for trace/metrics dumps.
        """
        for f in fields(self):
            value = getattr(self, f.name)
            if f.name.endswith("_s"):
                registry.gauge(f"{prefix}.{f.name}").set(value)
            else:
                registry.counter(f"{prefix}.{f.name}").inc(value)
