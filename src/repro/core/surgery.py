"""Model-surgery evaluation and enumeration.

Evaluation maps a :class:`~repro.core.plan.SurgeryPlan` to its
allocation-independent :class:`~repro.core.plan.PlanFeatures` (see the
linearity property in :mod:`repro.core.plan`).  Enumeration sweeps

    exit subsets × a shared-threshold grid × partition cut points

and is organized so the expensive part — the exit-probability quadrature —
runs once per (subset, threshold) while the partition-cut sweep is a pure
vectorized pass, making full enumeration cheap enough to run per task.
"""

from __future__ import annotations

import weakref
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.core.plan import PlanFeatures, SurgeryPlan
from repro.core.queueing import FeatureColumns, plan_latency, stage_params
from repro.devices.device import DeviceSpec
from repro.devices.latency import LatencyModel
from repro.errors import PlanError
from repro.models.exits import exit_probabilities
from repro.models.multiexit import MultiExitModel
from repro.network.link import Link

#: Default shared-threshold grid for candidate enumeration.  0 is excluded
#: (a 0 threshold on a non-final exit would swallow every sample); values
#: match the operating points BranchyNet-class papers report.
DEFAULT_THRESHOLD_GRID: Tuple[float, ...] = (0.5, 0.65, 0.8, 0.9, 0.95)

#: Cap on partition cut points examined per model during enumeration (the
#: exits' attach points are always included on top of this budget).
DEFAULT_MAX_CUTS = 16


#: Memo of exit-distribution quadratures, weakly keyed by model:
#: {model: {(kept, thresholds): (p, acc)}}.  The quadrature is the single
#: most expensive step of plan evaluation and depends only on (model, kept
#: exits, thresholds) — enumeration and per-task threshold refinement
#: re-request the same policies over and over, so amortizing it across tasks
#: sharing a model template is a large win.  Cached arrays are read-only.
_EXIT_DIST_CACHE: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()

#: Memo of full plan evaluations, weakly keyed by model:
#: {model: {SurgeryPlan: PlanFeatures}}.  Features are frozen, so sharing
#: one object across callers is safe.  Bounded in practice by the candidate
#: enumeration space plus the refinement grid per model.
_PLAN_FEATURES_CACHE: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()


def _exit_distribution(
    model: MultiExitModel, kept: Sequence[int], thresholds: Sequence[float]
) -> Tuple[np.ndarray, np.ndarray]:
    key = (tuple(int(k) for k in kept), tuple(float(t) for t in thresholds))
    per_model = _EXIT_DIST_CACHE.get(model)
    if per_model is None:
        per_model = _EXIT_DIST_CACHE.setdefault(model, {})
    cached = per_model.get(key)
    if cached is not None:
        return cached
    comp = model.competences[list(kept)]
    p, acc = exit_probabilities(comp, thresholds, model.difficulty, model.accuracy_model)
    p.setflags(write=False)
    acc.setflags(write=False)
    per_model[key] = (p, acc)
    return p, acc


def evaluate_plan(model: MultiExitModel, plan: SurgeryPlan) -> PlanFeatures:
    """Compile one surgery plan into allocation-independent features.

    Semantics: layers at backbone cut index <= ``plan.partition_cut`` run on
    the end device; deeper layers run on the assigned server.  An exit branch
    executes on the side its attach point lives on.  A sample that exits at
    kept position ``i`` has also evaluated (and not taken) all earlier kept
    exits, so their branch FLOPs are charged cumulatively.

    Evaluations are memoized per (model, plan): features are allocation
    independent and frozen, and threshold refinement re-evaluates the same
    trial plans for every task sharing a model template.
    """
    per_model = _PLAN_FEATURES_CACHE.get(model)
    if per_model is None:
        per_model = _PLAN_FEATURES_CACHE.setdefault(model, {})
    cached = per_model.get(plan)
    if cached is not None:
        return cached
    feats = _evaluate_plan_uncached(model, plan)
    per_model[plan] = feats
    return feats


def _evaluate_plan_uncached(model: MultiExitModel, plan: SurgeryPlan) -> PlanFeatures:
    from repro.models.quantization import quantization_level

    plan.validate_against(model)
    lvl = quantization_level(plan.quantization)
    kept = list(plan.kept_exits)
    p, acc = _exit_distribution(model, kept, plan.thresholds)
    acc = np.clip(acc + lvl.accuracy_delta, 0.01, 0.999)

    c = plan.partition_cut
    cut_flops = model.cut_flops  # increasing in cut index
    cut_bytes = model.cut_bytes
    attach = model.exit_cut_indices[kept]  # attach cut index per kept exit
    backbone = np.array([model.exits[k].backbone_flops for k in kept], dtype=float)
    branch = np.array([model.exits[k].branch_flops for k in kept], dtype=float)

    on_device = attach <= c
    dev_backbone = np.minimum(backbone, cut_flops[c])
    srv_backbone = np.maximum(backbone - cut_flops[c], 0.0)
    dev_branch_cum = np.cumsum(np.where(on_device, branch, 0.0))
    srv_branch_cum = np.cumsum(np.where(on_device, 0.0, branch))

    dev_flops_per_exit = dev_backbone + dev_branch_cum
    srv_flops_per_exit = srv_backbone + srv_branch_cum
    offloaded = ~on_device

    # precision scaling: quantized execution is faster (fold the speedup into
    # effective FLOPs so features stay allocation-independent) and quantized
    # activations are smaller on the wire
    dev_flops_per_exit = dev_flops_per_exit / lvl.compute_speedup
    srv_flops_per_exit = srv_flops_per_exit / lvl.compute_speedup

    e_dev = float(np.dot(p, dev_flops_per_exit))
    e_srv = float(np.dot(p, srv_flops_per_exit))
    p_off = float(p[offloaded].sum())
    boundary = (float(cut_bytes[c]) + model.result_bytes) * lvl.wire_scale
    wire = p_off * boundary
    e_acc = float(np.dot(p, acc))

    return PlanFeatures(
        plan=plan,
        dev_flops=e_dev,
        srv_flops=e_srv,
        wire_bytes=wire,
        p_offload=p_off,
        accuracy=e_acc,
        exit_probs=tuple(float(x) for x in p),
        dev_flops_sq=float(np.dot(p, dev_flops_per_exit**2)),
        srv_flops_sq=float(np.dot(p, srv_flops_per_exit**2)),
        wire_bytes_sq=p_off * boundary**2,
    )


#: Fine per-exit threshold grid used by :func:`refine_thresholds`.
REFINE_GRID: Tuple[float, ...] = (
    0.3, 0.4, 0.5, 0.55, 0.6, 0.65, 0.7, 0.75, 0.8, 0.85, 0.9, 0.93, 0.95, 0.97,
)


def refine_thresholds(
    model: MultiExitModel,
    plan: SurgeryPlan,
    device: DeviceSpec,
    latency_model: LatencyModel,
    accuracy_floor: float,
    server: Optional[DeviceSpec] = None,
    link: Optional[Link] = None,
    compute_share: float = 1.0,
    bandwidth_share: float = 1.0,
    grid: Sequence[float] = REFINE_GRID,
    max_sweeps: int = 4,
) -> Tuple[SurgeryPlan, PlanFeatures]:
    """Per-exit threshold refinement by coordinate descent.

    Enumeration couples all early exits to one shared threshold (which keeps
    the candidate space small); given a chosen plan and its allocation, this
    pass re-optimizes each kept early exit's threshold *individually* over a
    finer grid, holding the others fixed, and repeats until a full sweep
    makes no improvement.  Every accepted move strictly decreases expected
    latency while respecting ``accuracy_floor``, so the refined plan is never
    worse than the input plan; typical gains are a few percent where the
    shared-threshold restriction binds.

    Returns the refined plan and its features (possibly the originals).
    """
    plan.validate_against(model)
    if not (0.0 < accuracy_floor <= 1.0):
        raise PlanError(f"accuracy floor must be in (0,1], got {accuracy_floor}")
    stages = stage_params(
        device, latency_model, server, link, compute_share, bandwidth_share
    )

    def evaluate(plans: List[SurgeryPlan]) -> Tuple[np.ndarray, List[PlanFeatures]]:
        feats = [evaluate_plan(model, p) for p in plans]
        lat = plan_latency(FeatureColumns.of(feats), **stages)
        acc = np.array([f.accuracy for f in feats])
        return np.where(acc < accuracy_floor - 1e-12, np.inf, lat), feats

    best_plan = plan
    lats, feats = evaluate([plan])
    best_lat, best_feats = lats[0], feats[0]
    n_early = len(plan.kept_exits) - 1
    if n_early == 0:
        return best_plan, best_feats
    for _ in range(max_sweeps):
        improved = False
        for pos in range(n_early):
            # the trial plans at one position differ from the incumbent only
            # at that position, so they do not depend on which of them gets
            # accepted: price the whole grid in one kernel call, then run the
            # sequential acceptance scan over it
            trials = []
            for theta in grid:
                if theta == best_plan.thresholds[pos]:
                    continue
                thresholds = list(best_plan.thresholds)
                thresholds[pos] = theta
                trials.append(
                    SurgeryPlan(
                        kept_exits=best_plan.kept_exits,
                        thresholds=tuple(thresholds),
                        partition_cut=best_plan.partition_cut,
                        quantization=best_plan.quantization,
                    )
                )
            if not trials:
                continue
            lats, feats = evaluate(trials)
            for trial, lat, f in zip(trials, lats, feats):
                if lat < best_lat - 1e-12:
                    best_plan, best_lat, best_feats = trial, lat, f
                    improved = True
        if not improved:
            break
    return best_plan, best_feats


def enumerate_features(
    model: MultiExitModel,
    threshold_grid: Sequence[float] = DEFAULT_THRESHOLD_GRID,
    max_cuts: int = DEFAULT_MAX_CUTS,
    include_exit_subsets: bool = True,
    quantization_levels: Sequence[str] = ("fp32",),
) -> List[PlanFeatures]:
    """Enumerate candidate surgery plans of ``model`` into features.

    The sweep covers every subset of early exits (all sharing one threshold
    from ``threshold_grid``) crossed with a partition-cut set containing the
    exit attach points, the two extremes (full offload / fully local), an
    even FLOPs-spaced sample of the remaining cut points up to ``max_cuts``,
    and the requested ``quantization_levels`` (default: fp32 only; pass
    :data:`repro.models.quantization.ALL_LEVELS` to enable the precision
    knob).

    The inner cut sweep is vectorized: the exit distribution of a (subset,
    threshold) pair is computed once and reused for every cut and level.
    """
    from repro.models.quantization import quantization_level

    levels = [quantization_level(name) for name in quantization_levels]
    if not levels:
        raise PlanError("need at least one quantization level")
    n_exits = model.num_exits
    final_idx = n_exits - 1
    early = list(range(final_idx))

    # --- partition cut candidates -----------------------------------------
    n_cuts = len(model.backbone.cut_points)
    wanted = {0, n_cuts - 1}
    wanted.update(int(i) for i in model.exit_cut_indices)
    if n_cuts > max_cuts:
        # sample additional cuts evenly in cumulative FLOPs
        targets = np.linspace(0.0, model.cut_flops[-1], max_cuts)
        extra = {int(np.argmin(np.abs(model.cut_flops - t))) for t in targets}
        wanted.update(extra)
    else:
        wanted.update(range(n_cuts))
    cuts = np.array(sorted(wanted), dtype=int)

    # --- exit subsets -------------------------------------------------------
    if include_exit_subsets:
        subsets: List[Tuple[int, ...]] = []
        for mask in range(1 << len(early)):
            chosen = tuple(e for i, e in enumerate(early) if mask >> i & 1)
            subsets.append(chosen + (final_idx,))
    else:
        subsets = [tuple(early) + (final_idx,), (final_idx,)]

    cut_flops = model.cut_flops
    cut_bytes = model.cut_bytes
    result_bytes = float(model.result_bytes)

    out: List[PlanFeatures] = []
    seen: set = set()
    for kept in subsets:
        thetas: Sequence[Tuple[float, ...]]
        if len(kept) == 1:
            thetas = [(0.0,)]
        else:
            thetas = [tuple([th] * (len(kept) - 1) + [0.0]) for th in threshold_grid]
        attach = model.exit_cut_indices[list(kept)]
        backbone = np.array([model.exits[k].backbone_flops for k in kept], dtype=float)
        branch = np.array([model.exits[k].branch_flops for k in kept], dtype=float)
        for thresholds in thetas:
            p, acc = _exit_distribution(model, kept, thresholds)
            # vectorized sweep over cuts: axes (exit k, cut c)
            on_dev = attach[:, None] <= cuts[None, :]
            dev_bb = np.minimum(backbone[:, None], cut_flops[cuts][None, :])
            srv_bb = np.maximum(backbone[:, None] - cut_flops[cuts][None, :], 0.0)
            dev_br = np.cumsum(np.where(on_dev, branch[:, None], 0.0), axis=0)
            srv_br = np.cumsum(np.where(on_dev, 0.0, branch[:, None]), axis=0)
            dev_total = dev_bb + dev_br
            srv_total = srv_bb + srv_br
            e_dev_raw = p @ dev_total
            e_srv_raw = p @ srv_total
            e_dev_sq_raw = p @ dev_total**2
            e_srv_sq_raw = p @ srv_total**2
            p_off = np.where(on_dev, 0.0, p[:, None]).sum(axis=0)
            boundary_raw = cut_bytes[cuts] + result_bytes
            for lvl in levels:
                sp = lvl.compute_speedup
                e_dev = e_dev_raw / sp
                e_srv = e_srv_raw / sp
                e_dev_sq = e_dev_sq_raw / sp**2
                e_srv_sq = e_srv_sq_raw / sp**2
                boundary = boundary_raw * lvl.wire_scale
                wire = p_off * boundary
                wire_sq = p_off * boundary**2
                acc_q = np.clip(acc + lvl.accuracy_delta, 0.01, 0.999)
                e_acc = float(np.dot(p, acc_q))
                for j, c in enumerate(cuts):
                    # deduplicate: cuts at/after the last kept exit's attach
                    # point are all equivalent to "fully local"
                    key = (kept, thresholds, lvl.name, min(int(c), int(attach[-1])))
                    if key in seen:
                        continue
                    seen.add(key)
                    plan = SurgeryPlan(
                        kept_exits=kept,
                        thresholds=thresholds,
                        partition_cut=int(c),
                        quantization=lvl.name,
                    )
                    out.append(
                        PlanFeatures(
                            plan=plan,
                            dev_flops=float(e_dev[j]),
                            srv_flops=float(e_srv[j]),
                            wire_bytes=float(wire[j]),
                            p_offload=float(p_off[j]),
                            accuracy=e_acc,
                            exit_probs=tuple(float(x) for x in p),
                            dev_flops_sq=float(e_dev_sq[j]),
                            srv_flops_sq=float(e_srv_sq[j]),
                            wire_bytes_sq=float(wire_sq[j]),
                        )
                    )
    return out
