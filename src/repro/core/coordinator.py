"""Hierarchical coordinator: parallel shard solves + cross-shard migration.

The second level of the sharded control plane (first level:
:mod:`repro.core.sharding`).  :func:`solve_sharded` runs one joint solve per
shard — each against a :class:`~repro.core.sharding.ShardView`, so shard
solves pay sub-problem cost for every superlinear piece of the centralized
solver (Hungarian matching, local-search sweeps, group member scans) — then
stitches the shard plans into one global solution and runs rounds of
**cross-shard migration**: a local-search move class that re-homes a task to
a server in a *foreign* shard when doing so improves the global objective by
more than a hysteresis margin.  Migration is what recovers (most of) the
coupling the partition severed: tasks homed to an overloaded shard can spill
onto under-used servers elsewhere.

Determinism contract (gated by ``perf_gate.py --suite shard``):

- Shard ``s`` solves with seed ``derive_seed(seed, "shard", s)`` for
  ``s > 0`` and the base seed for shard 0; all seeds are derived upfront in
  shard order, so results do not depend on execution order.
- Shard fan-out reuses the solver's one thread pool (``restart_workers``
  wide); when it runs shards in parallel, each shard runs its restarts
  serially — pools are never nested — and serial vs parallel fan-out is
  bit-identical because shards share nothing mutable.
- A 1-shard solve takes an early path that returns the shard result as-is:
  the view covers every server in order and homing is the identity, so it is
  bit-identical to the centralized solver (same descent, same refinement,
  same packaging).
- Because servers are partitioned, every share group (per-server compute,
  per-(device, server) link bandwidth) lives wholly inside one shard; the
  stitched global allocation is re-solved once from the stitched plan and
  matches the union of the shard solutions.
- :func:`resolve_dirty` re-solves through the same fan-out and stitch, so a
  dirty shard (a nested region included) re-solves exactly as a fresh solve
  solves it.

Telemetry: shard ``s`` records on the stream block ``1 + s*(restarts+1)``
(solve root span) through ``(s+1)*(restarts+1)`` (its restarts), so parallel
shard traces merge deterministically; migration rounds are spans on the
coordinator's stream 0.
"""

from __future__ import annotations

import time
from bisect import bisect_left, insort
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.allocation import (
    Allocation,
    IncrementalAllocator,
    SolutionStages,
    solution_latencies,
    solution_latency_task,
)
from repro.core.candidates import CandidateSet
from repro.core.joint import (
    JointOptimizer,
    JointResult,
    JointSolverConfig,
    package_plan,
    prepare_candidates,
)
from repro.core.objectives import Objective
from repro.core.plan import JointPlan, TaskSpec
from repro.core.sharding import (
    AffinityIndex,
    ShardPlan,
    ShardView,
    make_shard_plan,
)
from repro.devices.cluster import EdgeCluster
from repro.devices.latency import LatencyModel
from repro.errors import ConfigError
from repro.profiling.counters import PerfCounters
from repro.rng import SeedLike, derive_seed
from repro.telemetry.trace import get_tracer


@dataclass
class ShardStats:
    """Diagnostics of one shard-local solve."""

    shard: int
    servers: Tuple[int, ...]
    num_tasks: int
    iterations: int = 0
    converged: bool = True
    objective: float = 0.0  # shard-local objective (penalty-free report)
    solve_s: float = 0.0


@dataclass
class ShardedResult(JointResult):
    """A :class:`JointResult` plus control-plane diagnostics.

    ``iterations`` is the max over shards, ``converged`` requires every shard
    converged *and* migration to have stopped before its round budget, and
    ``history`` is the global (penalty-surrogate) objective after assembly
    and after each migration round.
    """

    shard_plan: Optional[ShardPlan] = None
    shard_stats: List[ShardStats] = field(default_factory=list)
    migration_history: List[int] = field(default_factory=list)  # accepted/round

    def publish_health(self, registry, tasks: Optional[Sequence[TaskSpec]] = None) -> None:
        """Publish per-shard health gauges into a metrics registry.

        Emits ``shard.<s>.{tasks,objective,solve_s,iterations,migrations_in}``
        gauges for every shard, plus ``shard.migration.accepted`` /
        ``shard.migration.rounds`` for the coordinator as a whole.  When the
        solved-over ``tasks`` sequence is supplied (same order as the
        ``solve_sharded`` call), each shard additionally reports
        ``utilization`` (mean compute-share load over its servers) and
        ``violation_rate`` (fraction of homed tasks whose plan latency misses
        the deadline) — the signals ``repro monitor`` renders per shard and
        the drift monitor compares against.  Call once per result; the
        migration counter is cumulative across publishes.
        """
        if self.shard_plan is None:
            raise ConfigError("result has no shard plan to publish health for")
        homed: Dict[int, int] = {}
        for s in self.shard_plan.task_shard:
            homed[s] = homed.get(s, 0) + 1
        server_load: Dict[int, float] = {}
        miss_by_shard: Dict[int, int] = {}
        if tasks is not None:
            if len(tasks) != len(self.shard_plan.task_shard):
                raise ConfigError(
                    "tasks must be the sequence solve_sharded ran over "
                    f"({len(self.shard_plan.task_shard)} tasks, got {len(tasks)})"
                )
            for i, t in enumerate(tasks):
                srv = self.plan.assignment.get(t.name)
                if srv is not None:
                    server_load[srv] = server_load.get(srv, 0.0) + self.plan.compute_shares[t.name]
                if not (self.plan.latencies[t.name] <= t.deadline_s):
                    s = self.shard_plan.task_shard[i]
                    miss_by_shard[s] = miss_by_shard.get(s, 0) + 1
        for st in self.shard_stats:
            n = homed.get(st.shard, 0)
            prefix = f"shard.{st.shard}"
            registry.gauge(f"{prefix}.tasks").set(float(n))
            registry.gauge(f"{prefix}.objective").set(float(st.objective))
            registry.gauge(f"{prefix}.solve_s").set(float(st.solve_s))
            registry.gauge(f"{prefix}.iterations").set(float(st.iterations))
            registry.gauge(f"{prefix}.migrations_in").set(float(n - st.num_tasks))
            if tasks is not None:
                util = (
                    sum(server_load.get(srv, 0.0) for srv in st.servers) / len(st.servers)
                    if st.servers
                    else 0.0
                )
                registry.gauge(f"{prefix}.utilization").set(util)
                registry.gauge(f"{prefix}.violation_rate").set(
                    miss_by_shard.get(st.shard, 0) / n if n else 0.0
                )
        registry.counter("shard.migration.accepted").inc(sum(self.migration_history))
        registry.gauge("shard.migration.rounds").set(float(len(self.migration_history)))


def solve_sharded(
    tasks: Sequence[TaskSpec],
    cluster: EdgeCluster,
    latency_model: Optional[LatencyModel] = None,
    objective: Objective = Objective.AVG_LATENCY,
    config: Optional[JointSolverConfig] = None,
    candidates: Optional[Sequence[CandidateSet]] = None,
    seed: SeedLike = None,
) -> ShardedResult:
    """Solve the joint problem through the sharded control plane.

    Partition → parallel shard solves → stitch → migration rounds.  Usually
    reached through ``JointOptimizer.solve`` with ``config.shards > 1``;
    calling it directly with ``shards=1`` runs the same machinery degenerate
    (one shard, no migration) and is bit-identical to the centralized solver.
    """
    t_start = time.perf_counter()
    cfg = config or JointSolverConfig()
    lm = latency_model or LatencyModel()
    if not tasks:
        raise ConfigError("no tasks to optimize")
    names = [t.name for t in tasks]
    if len(set(names)) != len(names):
        raise ConfigError(f"duplicate task names: {names}")
    for t in tasks:
        cluster.by_name(t.device_name)  # validates membership

    perf = PerfCounters()
    tracer = get_tracer()
    with tracer.span(
        "solve.sharded",
        {"tasks": len(tasks), "servers": cluster.num_servers, "shards": cfg.shards}
        if tracer.enabled
        else None,
    ) as root:
        candsets = prepare_candidates(tasks, cfg, candidates, perf)

        with tracer.span("solve.shard_plan"):
            # one affinity index serves the homing scores, every migration
            # screen, and (via its per-partition caches) any later
            # incremental re-solve (1-shard solves never need it)
            t_idx = time.perf_counter()
            affinity = (
                AffinityIndex(tasks, candsets, cluster, lm)
                if cfg.shards > 1
                else None
            )
            shard_plan = make_shard_plan(
                tasks, candsets, cluster, cfg.shards, cfg.shard_by, lm, affinity
            )
            if affinity is not None:
                perf.index_build_s += time.perf_counter() - t_idx
        k = shard_plan.num_shards
        shard_tasks = shard_plan.tasks_by_shard()
        shard_results = _fan_out(
            tasks, candsets, cluster, lm, objective, cfg, shard_plan,
            shard_tasks, range(k), seed, root.span_id, perf,
        )
        shard_stats = _shard_stats(shard_plan, shard_tasks, shard_results, range(k))

        iterations = max((st.iterations for st in shard_stats), default=0)
        shards_converged = all(st.converged for st in shard_stats)
        candidate_counts: Dict[str, int] = {}
        for r in shard_results:
            if r is not None:
                candidate_counts.update(r.candidate_counts)

        if k == 1:
            # degenerate control plane: the view covers every server in
            # order, homing is the identity, migration has no foreign shard —
            # return the shard result as-is (bit-identical to centralized)
            res = shard_results[0]
            assert res is not None
            perf.solve_s = time.perf_counter() - t_start
            return ShardedResult(
                plan=res.plan,
                iterations=res.iterations,
                converged=res.converged,
                history=res.history,
                candidate_counts=res.candidate_counts,
                perf=perf,
                shard_plan=shard_plan,
                shard_stats=shard_stats,
                migration_history=[],
            )

        with tracer.span("solve.assemble"):
            (candsets, plan_idx, assignment) = _assemble(
                tasks, candsets, shard_plan, shard_tasks, shard_results
            )
            inc = IncrementalAllocator(tasks, candsets, cluster, lm, objective)
            alloc = inc.solve(plan_idx, assignment, perf)
            stages = SolutionStages(tasks, cluster, lm)

        task_shard = list(shard_plan.task_shard)
        obj, base_lat = _global_objective(
            tasks, candsets, plan_idx, alloc, cluster, lm, objective, cfg, perf,
            stages,
        )
        history = [obj]
        migration_history: List[int] = []
        # the screen's (template, home-shard) → best-foreign-server table is
        # built once per solve (the index caches it per partition) and stays
        # valid across every round: accepted migrations re-home tasks — an
        # O(1) patch of task_shard — but never move servers between shards,
        # and the bounds ignore the evolving allocation
        foreign_val, foreign_srv = affinity.foreign_mins(shard_plan.server_shards)
        state = (
            _MigrationState(tasks, objective, affinity, alloc.assignment)
            if cfg.migration_rounds > 0
            else None
        )
        for rnd in range(cfg.migration_rounds):
            with tracer.span(
                "solve.migrate", {"round": rnd} if tracer.enabled else None
            ):
                accepted, obj, base_lat, plan_idx, alloc = _migration_round(
                    tasks, candsets, plan_idx, alloc, base_lat,
                    obj, cluster, lm, cfg, shard_plan, task_shard,
                    inc, stages, foreign_val, foreign_srv, perf, state,
                )
            migration_history.append(accepted)
            perf.migration_rounds += 1
            perf.migrations += accepted
            history.append(obj)
            if accepted == 0:
                break
        migration_converged = (
            cfg.migration_rounds == 0
            or (bool(migration_history) and migration_history[-1] == 0)
            or len(migration_history) < cfg.migration_rounds
        )
        shard_plan = shard_plan.with_task_shard(task_shard)

        with tracer.span("solve.package"):
            jp = package_plan(
                tasks, candsets, plan_idx, alloc, cluster, lm, objective,
                include_queueing=cfg.include_queueing, counters=perf,
                risk=cfg.risk,
            )
        perf.solve_s = time.perf_counter() - t_start
        return ShardedResult(
            plan=jp,
            iterations=iterations,
            converged=shards_converged and migration_converged,
            history=history,
            candidate_counts=candidate_counts,
            perf=perf,
            shard_plan=shard_plan,
            shard_stats=shard_stats,
            migration_history=migration_history,
        )


def _fan_out(
    tasks: Sequence[TaskSpec],
    candsets: Sequence[CandidateSet],
    cluster: EdgeCluster,
    lm: LatencyModel,
    objective: Objective,
    cfg: JointSolverConfig,
    shard_plan: ShardPlan,
    shard_tasks: Sequence[Sequence[int]],
    shards: Sequence[int],
    seed: SeedLike,
    parent_span,
    perf: PerfCounters,
) -> List[Optional[JointResult]]:
    """One joint solve per shard in ``shards`` (ascending), against its view.

    The single shard fan-out behind :func:`solve_sharded` (every shard) and
    :func:`resolve_dirty` (the dirty ones), so a shard re-solves exactly as a
    fresh solve would solve it: same seed, same telemetry stream block
    ``1 + s*(restarts+1)``, same inner config — for ``nested_shards > 1`` a
    region of several servers re-shards its view into racks and runs this
    coordinator one level down.  Returns one entry per
    shard of the plan, ``None`` for shards not solved or without tasks; the
    solved shards' counters merge into ``perf`` in shard order.
    """
    tracer = get_tracer()
    # every shard's seed, derived upfront in shard order (a generator seed is
    # drawn from the same way each time), so a shard's seed depends only on
    # its index — not on execution order, nor on which shards this call
    # solves; shard 0 keeps the base seed, so a 1-shard run reproduces the
    # centralized descent exactly
    seeds = [seed] + [
        derive_seed(seed, "shard", s) for s in range(1, shard_plan.num_shards)
    ]
    stride = cfg.restarts + 1
    # shard fan-out reuses the restart pool: when it is parallel, each shard
    # solves its restarts serially (never nested pools)
    workers = min(cfg.restart_workers, len(shards))
    inner_cfg = replace(
        cfg,
        shards=1,
        nested_shards=0,  # recursion is one level deep: racks never re-shard
        restart_workers=1 if workers > 1 else cfg.restart_workers,
    )

    def _run(s: int) -> Optional[JointResult]:
        ids = shard_tasks[s]
        if not ids:
            return None
        view = ShardView(cluster, shard_plan.server_shards[s])
        cfg_s = inner_cfg
        if cfg.nested_shards > 1 and view.num_servers > 1:
            cfg_s = replace(
                inner_cfg, shards=min(cfg.nested_shards, view.num_servers)
            )
        solver = JointOptimizer(
            view,
            latency_model=lm,
            objective=objective,
            config=cfg_s,
            stream_base=1 + s * stride,
        )
        with tracer.stream(1 + s * stride, parent=parent_span):
            return solver.solve(
                [tasks[i] for i in ids],
                candidates=[candsets[i] for i in ids],
                seed=seeds[s],
            )

    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            solved = list(pool.map(_run, shards))
    else:
        solved = [_run(s) for s in shards]
    results: List[Optional[JointResult]] = [None] * shard_plan.num_shards
    for s, r in zip(shards, solved):
        results[s] = r
    # merge per-shard counters in shard order (order-independent of the
    # pool's completion order); per-shard wall time stays in ShardStats
    perf.merge(
        PerfCounters.merged({s: r.perf for s, r in enumerate(results) if r is not None})
    )
    perf.shard_solves += sum(1 for r in results if r is not None)
    return results


def _shard_stats(
    shard_plan: ShardPlan,
    shard_tasks: Sequence[Sequence[int]],
    results: Sequence[Optional[JointResult]],
    shards: Sequence[int],
) -> List[ShardStats]:
    """:class:`ShardStats` of ``shards`` from their fan-out results."""
    out = []
    for s in shards:
        st = ShardStats(
            shard=s,
            servers=shard_plan.server_shards[s],
            num_tasks=len(shard_tasks[s]),
        )
        r = results[s]
        if r is not None:
            st.iterations = r.iterations
            st.converged = r.converged
            st.objective = r.plan.objective_value
            st.solve_s = r.perf.solve_s
        out.append(st)
    return out


class _PositionResolver:
    """Amortized feature-position lookup across rebound candidate sets.

    The candidate pipeline rebinds one cached set per template to every
    task, so thousands of :class:`CandidateSet` objects share a handful of
    ``features`` *list* objects.  Indexing each distinct list once (keyed by
    list identity) makes a full-plan stitch O(tasks + templates ×
    candidates) instead of O(tasks × candidates).  Resolution order: first
    identity match, else first equality match, else None (caller appends
    the refined feature row).
    """

    def __init__(self) -> None:
        self._maps: Dict[int, Dict[int, int]] = {}

    def resolve(self, cs: CandidateSet, feats) -> Optional[int]:
        key = id(cs.features)
        pmap = self._maps.get(key)
        if pmap is None:
            pmap = {}
            for j, f in enumerate(cs.features):
                pmap.setdefault(id(f), j)
            self._maps[key] = pmap
        j = pmap.get(id(feats))
        if j is not None:
            return j
        try:
            return cs.features.index(feats)
        except ValueError:
            return None


def _assemble(
    tasks: Sequence[TaskSpec],
    candsets: List[CandidateSet],
    shard_plan: ShardPlan,
    shard_tasks: Sequence[Sequence[int]],
    results: Sequence[Optional[JointResult]],
    prior: Optional[JointPlan] = None,
) -> Tuple[List[CandidateSet], List[int], List[Optional[int]]]:
    """Stitch shard plans into global (candsets, plan_idx, assignment).

    Shard ``s``'s tasks take their server and features from ``results[s]``
    (shard-local server indices, mapped back to global) or, for a shard that
    was not re-solved, from ``prior`` — a plan over the same tasks in global
    indices (:func:`resolve_dirty`'s clean shards).  Each chosen feature
    vector is located in the task's candidate set through one
    :class:`_PositionResolver` — O(tasks) for template-shared sets — and
    appended when a shard solve's threshold refinement produced a plan
    outside the enumerated set.
    """
    out_sets = list(candsets)
    plan_idx: List[int] = [0] * len(tasks)
    assignment: List[Optional[int]] = [None] * len(tasks)
    positions = _PositionResolver()
    for s, ids in enumerate(shard_tasks):
        res = results[s]
        if res is not None:
            plan, server_ids = res.plan, shard_plan.server_shards[s]
        elif prior is not None:
            plan, server_ids = prior, None
        else:
            continue  # a shard without tasks
        plan_assignment = plan.assignment
        plan_features = plan.features
        for i in ids:
            name = tasks[i].name
            srv = plan_assignment[name]
            assignment[i] = srv if server_ids is None or srv is None else server_ids[srv]
            feats = plan_features[name]
            j = positions.resolve(out_sets[i], feats)
            if j is None:
                cs = out_sets[i]
                out_sets[i] = CandidateSet(cs.task, list(cs.features) + [feats])
                j = len(cs.features)
            plan_idx[i] = j
    return out_sets, plan_idx, assignment


def _global_objective(
    tasks: Sequence[TaskSpec],
    candsets: Sequence[CandidateSet],
    plan_idx: Sequence[int],
    alloc: Allocation,
    cluster: EdgeCluster,
    lm: LatencyModel,
    objective: Objective,
    cfg: JointSolverConfig,
    counters: PerfCounters,
    stages: SolutionStages,
) -> Tuple[float, np.ndarray]:
    lat = solution_latencies(
        tasks, candsets, plan_idx, alloc, cluster, lm,
        include_queueing=cfg.include_queueing, overload="penalty",
        risk=cfg.risk, stages=stages,
    )
    counters.latency_evals += len(tasks)
    return objective.evaluate(lat, tasks), lat


class _MigrationState:
    """Per-solve state of the migration rounds, kept incrementally.

    - the objective, bound once to the task list
      (:meth:`~repro.core.objectives.Objective.evaluator`), so every
      evaluated objective is the same float without per-call array rebuilds;
    - the server → member-tasks inverse of the assignment (ascending lists,
      exactly what an index scan yields), moved under each trial and moved
      back on rejection;
    - the task → template array for the vectorized screen.
    """

    def __init__(
        self,
        tasks: Sequence[TaskSpec],
        objective: Objective,
        affinity: AffinityIndex,
        assignment: Sequence[Optional[int]],
    ) -> None:
        self.tpl = np.asarray(affinity.template_of, dtype=np.int64)
        self.evaluate = objective.evaluator(tasks)
        self.members: Dict[Optional[int], List[int]] = {}
        for i, a in enumerate(assignment):
            self.members.setdefault(a, []).append(i)

    def move(self, i: int, src: Optional[int], dst: Optional[int]) -> None:
        """Re-home task ``i``'s membership from server ``src`` to ``dst``."""
        lst = self.members.get(src)
        if lst is not None:
            pos = bisect_left(lst, i)
            if pos < len(lst) and lst[pos] == i:
                lst.pop(pos)
        insort(self.members.setdefault(dst, []), i)


def _migration_round(
    tasks: Sequence[TaskSpec],
    candsets: Sequence[CandidateSet],
    plan_idx: List[int],
    alloc: Allocation,
    base_lat: np.ndarray,
    obj: float,
    cluster: EdgeCluster,
    lm: LatencyModel,
    cfg: JointSolverConfig,
    shard_plan: ShardPlan,
    task_shard: List[int],
    inc: IncrementalAllocator,
    stages: SolutionStages,
    foreign_val: np.ndarray,
    foreign_srv: np.ndarray,
    counters: PerfCounters,
    state: _MigrationState,
) -> Tuple[int, float, np.ndarray, List[int], Allocation]:
    """One round of cross-shard migration moves.

    Two stages, mirroring the local search's screen-then-verify shape:

    1. **Screen.**  Every task gets an optimistic lower bound on its latency
       at its best *foreign* server (full share, no queueing) straight from
       the :class:`AffinityIndex`'s per-(template, home shard) table, in one
       vectorized pass.  Tasks whose bound does not undercut their current
       latency by the hysteresis margin are dropped; survivors are ranked by
       bound gain (ties by task index, via a stable sort) and the top
       ``max(8, n // 64)`` proceed.
    2. **Verify.**  Each surviving (task, foreign server) move is priced
       exactly — incremental share re-solve of the two affected groups, plan
       re-picked for the new placement, latencies re-evaluated only for
       tasks in those groups (member lists from ``state``) — and accepted
       iff the *global* objective improves by more than the hysteresis
       margin.

    Accepted moves update the incumbent immediately (greedy, in ranked
    order), re-homing the task to the target server's shard.  All floating
    point follows the same incremental kernels as the centralized local
    search.
    """
    n = len(tasks)
    hyst = cfg.migration_hysteresis

    # -- screen (vectorized) -------------------------------------------------
    home = np.asarray(task_shard, dtype=np.int64)
    fv = foreign_val[state.tpl, home]
    fs = foreign_srv[state.tpl, home]
    margin = hyst * np.maximum(np.abs(base_lat), 1e-12)
    idx = np.flatnonzero((fs >= 0) & (fv < base_lat - margin))
    budget = max(8, n // 64)
    if idx.size:
        gains = fv[idx] - base_lat[idx]
        take = idx[np.argsort(gains, kind="stable")[:budget]]
    else:
        take = idx
    trials = [(int(i), int(fs[i])) for i in take]

    # -- verify --------------------------------------------------------------
    accepted = 0
    assignment = list(alloc.assignment)
    for i, target in trials:
        current = assignment[i]
        if current == target:
            continue
        trial_assign = list(assignment)
        trial_assign[i] = target
        state.move(i, current, target)
        prov = inc.update(
            alloc, plan_idx, trial_assign, (i,), counters,
            members_by_server=state.members,
        )
        device = cluster.by_name(tasks[i].device_name)
        server = cluster.servers[target]
        link = cluster.link(tasks[i].device_name, server.name)
        rate = tasks[i].arrival_rate if cfg.include_queueing else None
        lat_vec = candsets[i].latencies(
            device, lm, server=server, link=link,
            compute_share=float(prov.compute_shares[i]),
            bandwidth_share=float(prov.bandwidth_shares[i]),
            arrival_rate=rate,
            risk=cfg.risk,
        )
        counters.candidate_evals += 1
        j = int(np.argmin(lat_vec))
        if not np.isfinite(lat_vec[j]):
            state.move(i, target, current)
            continue
        trial_idx = list(plan_idx)
        trial_idx[i] = j
        if j == plan_idx[i]:
            trial_alloc = prov
        else:
            trial_alloc = inc.update(
                prov, trial_idx, trial_assign, (i,), counters,
                members_by_server=state.members,
            )
        # task i plus the members of the servers it leaves and joins (it is
        # already in target's list); locally placed tasks share no group with
        # anyone, so a move out of local re-prices no one else
        stay = state.members.get(current, ()) if current is not None else ()
        affected = [*stay, *state.members[target]]
        trial_lat = base_lat.copy()
        trial_lat[affected] = solution_latency_task(
            affected, tasks, candsets, trial_idx, trial_alloc, cluster, lm,
            include_queueing=cfg.include_queueing, overload="penalty",
            risk=cfg.risk, stages=stages,
        )
        counters.latency_evals += len(affected)
        trial_obj = state.evaluate(trial_lat)
        if trial_obj < obj - hyst * max(abs(obj), 1e-12):
            obj = trial_obj
            plan_idx = trial_idx
            alloc = trial_alloc
            base_lat = trial_lat
            assignment[i] = target
            task_shard[i] = shard_plan.shard_of_server(target)
            accepted += 1
        else:
            state.move(i, target, current)
    return accepted, obj, base_lat, plan_idx, alloc


def resolve_dirty(
    tasks: Sequence[TaskSpec],
    cluster: EdgeCluster,
    prior: ShardedResult,
    dirty_shards: Sequence[int],
    latency_model: Optional[LatencyModel] = None,
    objective: Objective = Objective.AVG_LATENCY,
    config: Optional[JointSolverConfig] = None,
    candidates: Optional[Sequence[CandidateSet]] = None,
    seed: SeedLike = None,
) -> ShardedResult:
    """Incrementally re-solve only the *dirty* shards of a prior solve.

    The online controller's drift monitor flags the shards whose traffic
    moved (see :class:`~repro.telemetry.drift.ShardDriftMonitor`); this
    re-plans exactly those, keeps every clean shard's plan **by identity**
    from ``prior`` (same feature objects, same placements), re-solves the
    global shares in closed form, and re-packages — an O(dirty) control
    action instead of a full :func:`solve_sharded`.

    Contracts:

    - ``prior`` must come from a solve over the same ``tasks`` sequence
      (same order) on this cluster; the server partition and task homing are
      carried over unchanged.
    - Dirty shards go through the same fan-out as a full solve
      (:func:`_fan_out`): same derived seed, same inner config, racks
      included under ``nested_shards``.  So a re-solve with every shard
      dirty reproduces the fan-out of a fresh solve, nested or flat.
    - Cross-shard migration is **not** re-run: a delta re-plan deliberately
      leaves the homing alone.  When drift is global (every shard flagged,
      or servers changed), escalate to a full ``solve_sharded`` — the online
      controller does exactly that.

    The wall time lands in ``perf.resolve_dirty_s`` (and ``solve_s``);
    clean shards' :class:`ShardStats` are carried from ``prior``.
    """
    t_start = time.perf_counter()
    cfg = config or JointSolverConfig()
    lm = latency_model or LatencyModel()
    if prior.shard_plan is None:
        raise ConfigError("prior result has no shard plan to re-solve from")
    shard_plan = prior.shard_plan
    k = shard_plan.num_shards
    if len(tasks) != len(shard_plan.task_shard):
        raise ConfigError(
            f"tasks must match the prior solve ({len(shard_plan.task_shard)} "
            f"tasks, got {len(tasks)})"
        )
    dirty = sorted({int(s) for s in dirty_shards})
    if not dirty:
        raise ConfigError("no dirty shards to re-solve")
    for s in dirty:
        if not (0 <= s < k):
            raise ConfigError(f"dirty shard {s} outside 0..{k - 1}")

    perf = PerfCounters()
    tracer = get_tracer()
    with tracer.span(
        "solve.resolve_dirty",
        {"tasks": len(tasks), "shards": k, "dirty": len(dirty)}
        if tracer.enabled
        else None,
    ) as root:
        candsets = prepare_candidates(tasks, cfg, candidates, perf)
        shard_tasks = shard_plan.tasks_by_shard()
        results = _fan_out(
            tasks, candsets, cluster, lm, objective, cfg, shard_plan,
            shard_tasks, dirty, seed, root.span_id, perf,
        )
        # clean shards by identity from the prior plan, dirty shards from the
        # fresh shard results
        out_sets, plan_idx, assignment = _assemble(
            tasks, candsets, shard_plan, shard_tasks, results, prior.plan
        )
        inc = IncrementalAllocator(tasks, out_sets, cluster, lm, objective)
        alloc = inc.solve(plan_idx, assignment, perf)
        jp = package_plan(
            tasks, out_sets, plan_idx, alloc, cluster, lm, objective,
            include_queueing=cfg.include_queueing, counters=perf,
            risk=cfg.risk,
        )

        stats_by_shard = {st.shard: st for st in prior.shard_stats}
        for st in _shard_stats(shard_plan, shard_tasks, results, dirty):
            stats_by_shard[st.shard] = st
        shard_stats = [stats_by_shard[s] for s in sorted(stats_by_shard)]

        candidate_counts = dict(prior.candidate_counts)
        for res in results:
            if res is not None:
                candidate_counts.update(res.candidate_counts)
        solved = [r for r in results if r is not None]

        elapsed = time.perf_counter() - t_start
        perf.resolve_dirty_s += elapsed
        perf.solve_s = elapsed
        return ShardedResult(
            plan=jp,
            iterations=max((r.iterations for r in solved), default=0),
            converged=prior.converged and all(r.converged for r in solved),
            history=[jp.objective_value],
            candidate_counts=candidate_counts,
            perf=perf,
            shard_plan=shard_plan,
            shard_stats=shard_stats,
            migration_history=[],
        )
