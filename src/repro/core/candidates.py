"""Candidate plan sets: array-of-structs view + dominance pruning.

A :class:`CandidateSet` packs a task's enumerated plan features into parallel
NumPy arrays — the feature columns of the latency kernel
(:func:`repro.core.queueing.plan_latency`) — so the joint optimizer ranks
*all* candidates under a given allocation with one kernel call, then argmins.

Pruning removes plans dominated in the 5-dimensional feature space
(dev_flops, srv_flops, wire_bytes, p_offload | accuracy): if plan B costs at
least as much as plan A on every resource and achieves no more accuracy, no
allocation can ever make B preferable, so B can be dropped *before* any
allocation is known.  This typically shrinks ~10^3 enumerated plans to a few
dozen undominated ones and is what keeps the joint solver fast.
"""

from __future__ import annotations

import threading
import weakref
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.plan import PlanFeatures, SurgeryPlan, TaskSpec
from repro.core.queueing import plan_latency, stage_params
from repro.core.surgery import (
    DEFAULT_MAX_CUTS,
    DEFAULT_THRESHOLD_GRID,
    enumerate_features,
)
from repro.devices.device import DeviceSpec
from repro.devices.latency import LatencyModel
from repro.errors import InfeasibleError, PlanError
from repro.network.link import Link

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.risk import RiskConfig

#: Parallel-array attributes of :class:`CandidateSet`, in construction order.
#: Derived sets are produced by slicing these (see :meth:`CandidateSet._take`)
#: instead of re-listing features and rebuilding every array from Python.
_ARRAY_FIELDS: Tuple[str, ...] = (
    "dev_flops",
    "srv_flops",
    "wire_bytes",
    "p_offload",
    "accuracy",
    "dev_flops_sq",
    "srv_flops_sq",
    "wire_bytes_sq",
)


@dataclass
class CandidateSet:
    """Parallel-array view over a task's candidate plans."""

    task: TaskSpec
    features: List[PlanFeatures]
    dev_flops: np.ndarray = field(init=False)
    srv_flops: np.ndarray = field(init=False)
    wire_bytes: np.ndarray = field(init=False)
    p_offload: np.ndarray = field(init=False)
    accuracy: np.ndarray = field(init=False)

    def __post_init__(self) -> None:
        if not self.features:
            raise PlanError(f"{self.task.name}: empty candidate set")
        self.dev_flops = np.array([f.dev_flops for f in self.features])
        self.srv_flops = np.array([f.srv_flops for f in self.features])
        self.wire_bytes = np.array([f.wire_bytes for f in self.features])
        self.p_offload = np.array([f.p_offload for f in self.features])
        self.accuracy = np.array([f.accuracy for f in self.features])
        self.dev_flops_sq = np.array([f.dev_flops_sq for f in self.features])
        self.srv_flops_sq = np.array([f.srv_flops_sq for f in self.features])
        self.wire_bytes_sq = np.array([f.wire_bytes_sq for f in self.features])

    def __len__(self) -> int:
        return len(self.features)

    # -- transformations -----------------------------------------------------

    def _take(self, indices: Sequence[int]) -> "CandidateSet":
        """Derived set holding ``features[i] for i in indices``.

        Shares no mutable state with ``self``: the feature list is re-listed
        (cheap — it holds frozen objects) and every parallel array is sliced,
        skipping the per-feature Python attribute walk of ``__post_init__``.
        """
        idx = np.asarray(indices, dtype=int)
        if idx.size == 0:
            raise PlanError(f"{self.task.name}: empty candidate set")
        obj = object.__new__(CandidateSet)
        obj.task = self.task
        obj.features = [self.features[int(i)] for i in idx]
        for name in _ARRAY_FIELDS:
            setattr(obj, name, getattr(self, name)[idx])
        return obj

    def position_of(self, feats: PlanFeatures) -> Optional[int]:
        """Index of ``feats`` in this set, or ``None`` if absent.

        Identity is resolved through a lazily built id→index map (tasks of
        one template share a features list, so the map is built once per
        list, not once per lookup), then equality as a fallback — the same
        identity-then-equality semantics as a linear ``is`` scan followed by
        ``list.index``, at amortized O(1) instead of O(candidates).
        """
        cached = self.__dict__.get("_pos_by_id")
        if cached is None or cached[0] != len(self.features):
            pos: Dict[int, int] = {}
            for j, f in enumerate(self.features):
                pos.setdefault(id(f), j)
            cached = (len(self.features), pos)
            self.__dict__["_pos_by_id"] = cached
        j = cached[1].get(id(feats))
        if j is not None:
            return j
        try:
            return self.features.index(feats)
        except ValueError:
            return None

    def _with_task(self, task: TaskSpec) -> "CandidateSet":
        """Rebind a cached set to another task, sharing features and arrays.

        Safe because features are frozen and no caller mutates the parallel
        arrays (derived sets always copy via :meth:`_take`).
        """
        obj = object.__new__(CandidateSet)
        obj.task = task
        obj.features = self.features
        for name in _ARRAY_FIELDS:
            setattr(obj, name, getattr(self, name))
        return obj

    def filter_accuracy(self, floor: float) -> "CandidateSet":
        """Keep plans meeting the accuracy floor; raise if none do."""
        mask = self.accuracy >= floor - 1e-12
        if not mask.any():
            raise InfeasibleError(
                f"{self.task.name}: no plan reaches accuracy {floor:.3f} "
                f"(best attainable {float(self.accuracy.max()):.3f})"
            )
        return self._take(np.flatnonzero(mask))

    def local_only(self) -> "CandidateSet":
        """Subset of plans that never use a server."""
        mask = (self.p_offload <= 0.0) & (self.srv_flops <= 0.0)
        if not mask.any():
            raise InfeasibleError(f"{self.task.name}: no fully-local plan available")
        return self._take(np.flatnonzero(mask))

    def pruned(self) -> "CandidateSet":
        """Drop plans dominated on every resource at no accuracy gain.

        The pairwise dominance tests run as one blocked NumPy pass (the block
        bounds the broadcast temporaries); only the order-dependent keep scan
        — a kept plan cannot be disqualified by a plan dropped earlier —
        remains a Python loop, over precomputed booleans.
        """
        n = len(self.features)
        if n <= 1:
            return self._take(np.arange(n))
        cost = np.stack(
            [self.dev_flops, self.srv_flops, self.wire_bytes, self.p_offload], axis=1
        )
        acc = self.accuracy
        # dom[a, b]: a weakly dominates b on accuracy and every resource, and
        # is strictly better somewhere (same tolerances as the scalar test)
        dom = np.empty((n, n), dtype=bool)
        block = max(1, (1 << 22) // n)
        for start in range(0, n, block):
            sl = slice(start, min(start + block, n))
            dom[:, sl] = (
                (acc[:, None] >= (acc[sl] - 1e-12)[None, :])
                & np.all(cost[:, None, :] <= (cost[sl] + 1e-9)[None, :, :], axis=2)
                & (
                    (acc[:, None] > (acc[sl] + 1e-12)[None, :])
                    | np.any(cost[:, None, :] < (cost[sl] - 1e-9)[None, :, :], axis=2)
                )
            )
        keep_mask = np.ones(n, dtype=bool)
        kept_sofar = np.zeros(n, dtype=bool)
        # scan by accuracy descending so dominators are examined first
        for idx in np.argsort(-acc, kind="stable"):
            if np.any(dom[:, idx] & kept_sofar):
                keep_mask[idx] = False
            else:
                kept_sofar[idx] = True
        return self._take(np.flatnonzero(keep_mask))

    def subsample(self, k: int) -> "CandidateSet":
        """Evenly thin the set to at most ``k`` plans (accuracy-ordered).

        Used where the candidate count itself is the complexity driver
        (exhaustive enumeration in experiment E8).  Keeps both accuracy
        extremes; deterministic.
        """
        if k < 1:
            raise PlanError(f"subsample size must be >= 1, got {k}")
        n = len(self.features)
        if n <= k:
            return self._take(np.arange(n))
        order = np.argsort(self.accuracy, kind="stable")
        picks = np.unique(np.linspace(0, n - 1, k).round().astype(int))
        return self._take(order[picks])

    # -- evaluation ------------------------------------------------------------

    def latencies(
        self,
        device: DeviceSpec,
        latency_model: LatencyModel,
        server: Optional[DeviceSpec] = None,
        link: Optional[Link] = None,
        compute_share: float = 1.0,
        bandwidth_share: float = 1.0,
        arrival_rate: Optional[float] = None,
        risk: Optional["RiskConfig"] = None,
    ) -> np.ndarray:
        """Latency of every candidate under one placement — the ranking.

        One call of the library's latency kernel
        (:func:`repro.core.queueing.plan_latency`) over this set's columns,
        so a candidate scores exactly what
        :func:`repro.core.allocation.solution_latencies` prices it at once
        chosen.  With ``server=None`` only local-only candidates get finite
        latency; offloading candidates are reported as ``inf``.  Passing
        ``arrival_rate`` adds the per-stage M/G/1 congestion terms, with the
        graded overload penalty (never ``inf``) so ranking keeps a gradient
        when the bottleneck stage cannot sustain the task's stream.

        With an active ``risk`` config the returned values are *buffered*
        latencies ``μ + κ(ε)·σ`` (see :mod:`repro.core.risk`), so ranking
        candidates by this vector certifies ``P[latency ≤ deadline] ≥ 1−ε``
        rather than ``E[latency] ≤ deadline``; an inactive or absent risk
        config leaves the deterministic path bit-identical.  Raises
        :class:`~repro.errors.PlanError` for a server without a link (or
        vice versa) or a share outside (0, 1].
        """
        return plan_latency(
            self,
            **stage_params(
                device, latency_model, server, link, compute_share, bandwidth_share
            ),
            arrival_rate=arrival_rate,
            risk=risk,
            overload="penalty",
        )


# -- candidate pipeline cache --------------------------------------------------
#
# The enumerate -> filter_accuracy -> pruned pipeline is a pure function of
# (model, threshold_grid, max_cuts, quantization_levels, accuracy_floor,
# prune) — nothing task-specific beyond the floor enters it.  Experiments
# instantiate many tasks over a handful of model templates (E9 cycles 3
# templates over 64 tasks) and re-plan repeatedly (E11), so the pipeline is
# memoized per process: raw enumerations and derived (filtered + pruned)
# sets are cached per model and rebound to each task by array sharing.
# Models are weakly keyed so ad-hoc models do not pin their candidates.


@dataclass
class CandidateCacheStats:
    """Hit/miss counts of the :func:`build_candidates` pipeline cache."""

    hits: int = 0
    misses: int = 0


_cache_lock = threading.Lock()
_raw_cache: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()
_derived_cache: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()
_cache_stats = CandidateCacheStats()


def candidate_cache_stats() -> CandidateCacheStats:
    """Snapshot of the process-wide candidate-pipeline cache counters."""
    with _cache_lock:
        return CandidateCacheStats(_cache_stats.hits, _cache_stats.misses)


def clear_candidate_cache() -> None:
    """Drop all cached candidate pipelines and reset the counters."""
    with _cache_lock:
        _raw_cache.clear()
        _derived_cache.clear()
        _cache_stats.hits = 0
        _cache_stats.misses = 0


def build_candidates(
    task: TaskSpec,
    threshold_grid: Optional[Sequence[float]] = None,
    max_cuts: Optional[int] = None,
    prune: bool = True,
    quantization_levels: Optional[Sequence[str]] = None,
    cache: bool = True,
) -> CandidateSet:
    """Enumerate, accuracy-filter, and prune a task's candidate plans.

    Pass ``quantization_levels=repro.models.quantization.ALL_LEVELS`` to add
    the precision knob to the search space (default: fp32 only).

    Results are memoized per (model, grid, cuts, levels, floor, prune) —
    see the cache notes above; ``cache=False`` forces a fresh build.  Cached
    and fresh builds are bit-identical (the pipeline is deterministic).
    """
    grid = tuple(threshold_grid) if threshold_grid is not None else DEFAULT_THRESHOLD_GRID
    cuts = int(max_cuts) if max_cuts is not None else DEFAULT_MAX_CUTS
    levels = tuple(quantization_levels) if quantization_levels is not None else ("fp32",)
    raw_key = (grid, cuts, levels)
    derived_key = raw_key + (float(task.accuracy_floor), bool(prune))

    if cache:
        with _cache_lock:
            per_model = _derived_cache.get(task.model)
            tmpl = per_model.get(derived_key) if per_model is not None else None
            if tmpl is not None:
                _cache_stats.hits += 1
        if tmpl is not None:
            return tmpl._with_task(task)

    raw: Optional[CandidateSet] = None
    if cache:
        with _cache_lock:
            per_model_raw = _raw_cache.get(task.model)
            raw = per_model_raw.get(raw_key) if per_model_raw is not None else None
        if raw is not None:
            raw = raw._with_task(task)
    if raw is None:
        feats = enumerate_features(
            task.model, threshold_grid=grid, max_cuts=cuts, quantization_levels=levels
        )
        raw = CandidateSet(task, feats)
        if cache:
            with _cache_lock:
                _raw_cache.setdefault(task.model, {})[raw_key] = raw

    cs = raw.filter_accuracy(task.accuracy_floor)
    if prune:
        cs = cs.pruned()
    if cache:
        with _cache_lock:
            _cache_stats.misses += 1
            _derived_cache.setdefault(task.model, {})[derived_key] = cs
    return cs
