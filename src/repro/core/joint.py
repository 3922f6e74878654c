"""The joint optimizer: block-coordinate descent over (surgery, allocation).

The two decision blocks are mutually dependent — the best surgery plan
depends on the shares a task gets, and the right shares depend on how much
work each plan ships to the edge — so the solver alternates:

1. **Surgery step.** Holding assignment + shares fixed, each task re-picks
   the latency-minimal plan from its (accuracy-feasible, dominance-pruned)
   candidate set.  One vectorized argmin per task.
2. **Allocation step.** Holding plans fixed, compute and bandwidth shares are
   re-solved in closed form (sqrt rule); every ``reassign_every`` iterations
   the task→server matching is re-solved too, and the new matching is kept
   only if it improves the objective (hill-climbing safeguard).

Each accepted step weakly decreases the objective over a finite solution
space, so the iteration reaches a fixed point; ``tol`` stops it early when
relative improvement stalls.  ``restarts`` runs the whole descent from
perturbed initial assignments — each from its own deterministically spawned
random stream, optionally in parallel (``restart_workers``) — and returns
the best fixed point found.

**Hot path.**  The local search prices all of a task's options against one
incumbent, together.  The share problem decomposes per server / per access
link, so the groups the task leaves are re-solved once and each option's
join groups on top of that
(:class:`~repro.core.allocation.IncrementalAllocator`); the candidates are
ranked under every option in one kernel call and every option's affected
rows — the task plus the members of the servers it leaves and joins — are
re-priced in one more (:class:`~repro.core.allocation.SolutionStages`).
Candidate sets come from a process-wide memoized pipeline (see
:func:`repro.core.candidates.build_candidates`).  All of this is bit-exact:
a solve produces the same plan, shares, and objective as pricing one option
at a time with full re-solves.  :class:`~repro.profiling.counters.PerfCounters`
threaded through :class:`JointResult` counts the work actually done.
"""

from __future__ import annotations

import math
import time
from bisect import insort
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.allocation import (
    Allocation,
    IncrementalAllocator,
    SolutionStages,
    allocate_shares,
    assign_servers,
    solution_latencies,
    # not called here since trial moves are priced in one gathered
    # SolutionStages.price call per task; still bound under this module
    # because perfbench's layer tracer counts calls through this name
    solution_latency_task,
)
from repro.core.candidates import (
    CandidateSet,
    build_candidates,
    candidate_cache_stats,
)
from repro.core.objectives import Objective
from repro.core.plan import JointPlan, TaskSpec
from repro.core.risk import RiskConfig
from repro.devices.cluster import EdgeCluster
from repro.devices.latency import LatencyModel
from repro.errors import ConfigError, ConvergenceError
from repro.profiling.counters import PerfCounters
from repro.rng import SeedLike, as_generator, spawn
from repro.telemetry.trace import Span, Tracer, get_tracer


def package_plan(
    tasks: Sequence[TaskSpec],
    candsets: Sequence[CandidateSet],
    plan_idx: Sequence[int],
    alloc: "Allocation",
    cluster: EdgeCluster,
    latency_model: LatencyModel,
    objective: Objective,
    include_queueing: bool = True,
    counters: Optional[PerfCounters] = None,
    risk: Optional[RiskConfig] = None,
) -> JointPlan:
    """Package a solver state into a :class:`~repro.core.plan.JointPlan`.

    Reports *honest* latencies and objective — ``inf`` for queue-unstable
    tasks — regardless of the graded overload surrogate the search used
    internally.  Shared by the centralized solver and the sharded
    coordinator so both package identically.  An active ``risk`` config makes
    the packaged latencies the buffered ``μ + κ(ε)·σ`` values, so a plan
    whose latencies meet the deadlines is *certified* at tail level ``ε``.
    """
    lat = solution_latencies(
        tasks,
        candsets,
        plan_idx,
        alloc,
        cluster,
        latency_model,
        include_queueing=include_queueing,
        risk=risk,
    )
    if counters is not None:
        counters.latency_evals += len(tasks)
    obj = objective.evaluate(lat, tasks)
    return JointPlan(
        assignment={t.name: alloc.assignment[i] for i, t in enumerate(tasks)},
        features={t.name: candsets[i].features[plan_idx[i]] for i, t in enumerate(tasks)},
        compute_shares={t.name: float(alloc.compute_shares[i]) for i, t in enumerate(tasks)},
        bandwidth_shares={t.name: float(alloc.bandwidth_shares[i]) for i, t in enumerate(tasks)},
        latencies={t.name: float(lat[i]) for i, t in enumerate(tasks)},
        objective_value=float(obj),
    )


@dataclass(frozen=True)
class JointSolverConfig:
    """Tunables of the BCD joint optimizer.

    ``shards > 1`` switches :meth:`JointOptimizer.solve` to the sharded
    control plane (:mod:`repro.core.coordinator`): the cluster's servers are
    partitioned per ``shard_by``, each shard is solved independently, and up
    to ``migration_rounds`` rounds of cross-shard migration re-home boundary
    tasks whose relative latency gain beats ``migration_hysteresis``.

    ``affinity`` picks the coordinator's index build: ``"sparse"`` (default)
    answers the same homing/migration screens from top-k shortlists at
    sub-O(tasks × servers) cost; ``"dense"`` keeps the original full sweep
    as a bit-identical fallback.  ``nested_shards > 1`` makes each shard's
    solve re-shard its own server view (two-level regions → racks), running
    the same migration machinery one level down.

    ``restart_workers`` is the width of the solver's *one* thread pool.  With
    ``shards == 1`` it fans out restarts; with ``shards > 1`` the same pool
    fans out shard solves and each shard runs its restarts serially — shard
    fan-out reuses the restart pool, pools are never nested (there is no
    separate ``shard_workers`` knob).
    """

    max_iterations: int = 50
    tol: float = 1e-4  # relative objective improvement to keep iterating
    reassign_every: int = 5  # re-run Hungarian matching every k iterations
    local_search: bool = True  # per-task best-response reassignment sweeps
    refine_thresholds: bool = True  # per-exit threshold polish on the winner
    restarts: int = 1  # independent descents from perturbed starts
    restart_workers: int = 1  # threads in the solver pool (1 = serial)
    include_queueing: bool = True
    threshold_grid: Optional[Tuple[float, ...]] = None
    max_cuts: Optional[int] = None
    candidate_cache: bool = True  # reuse the memoized candidate pipeline
    strict_convergence: bool = False  # raise instead of warn on budget hit
    shards: int = 1  # server partitions solved independently (1 = centralized)
    shard_by: str = "contiguous"  # partition strategy (see core.sharding)
    migration_rounds: int = 3  # cross-shard re-homing rounds after shard solves
    migration_hysteresis: float = 1e-3  # relative gain a migration must beat
    affinity: str = "sparse"  # index build mode ("sparse" | "dense" fallback)
    nested_shards: int = 0  # >1: each shard re-shards its view (regions->racks)
    # chance-constrained mode: buffer every latency the solver sees to
    # μ + κ(ε)·σ (see repro.core.risk).  None (or buffer="none") keeps the
    # deterministic solver bit-identical.
    risk: Optional[RiskConfig] = None

    def __post_init__(self) -> None:
        from repro.core.sharding import AFFINITY_MODES, SHARD_STRATEGIES

        if self.max_iterations < 1:
            raise ConfigError("max_iterations must be >= 1")
        if self.tol < 0:
            raise ConfigError("tol must be >= 0")
        if self.reassign_every < 1:
            raise ConfigError("reassign_every must be >= 1")
        if self.restarts < 1:
            raise ConfigError("restarts must be >= 1")
        if self.restart_workers < 1:
            raise ConfigError("restart_workers must be >= 1")
        if self.shards < 1:
            raise ConfigError("shards must be >= 1")
        if self.shard_by not in SHARD_STRATEGIES:
            raise ConfigError(
                f"unknown shard_by {self.shard_by!r}; available {SHARD_STRATEGIES}"
            )
        if self.migration_rounds < 0:
            raise ConfigError("migration_rounds must be >= 0")
        if self.migration_hysteresis < 0:
            raise ConfigError("migration_hysteresis must be >= 0")
        if self.affinity not in AFFINITY_MODES:
            raise ConfigError(
                f"unknown affinity {self.affinity!r}; available {AFFINITY_MODES}"
            )
        if self.nested_shards < 0:
            raise ConfigError("nested_shards must be >= 0")


@dataclass
class JointResult:
    """Solver output: the plan plus convergence diagnostics."""

    plan: JointPlan
    iterations: int
    converged: bool
    history: List[float] = field(default_factory=list)  # objective per iteration
    candidate_counts: Dict[str, int] = field(default_factory=dict)
    perf: PerfCounters = field(default_factory=PerfCounters)


class _SolveContext:
    """Per-solve hoisted lookups shared (read-only) by all restarts.

    ``cluster.by_name`` / ``cluster.link`` resolve the same handful of objects
    for every task on every iteration of every trial move; resolving them once
    per solve removes dictionary traffic from the innermost loops.
    """

    def __init__(
        self,
        cluster: EdgeCluster,
        latency_model: LatencyModel,
        objective: Objective,
        tasks: Sequence[TaskSpec],
        candsets: Sequence[CandidateSet],
    ) -> None:
        self.devices = [cluster.by_name(t.device_name) for t in tasks]
        self.links = [
            [cluster.link(t.device_name, s.name) for s in cluster.servers]
            for t in tasks
        ]
        self.allocator = IncrementalAllocator(
            tasks, candsets, cluster, latency_model, objective
        )
        self.stages = SolutionStages(tasks, cluster, latency_model)
        self.evaluate = objective.evaluator(tasks)


class JointOptimizer:
    """Joint model-surgery + resource-allocation solver for one cluster."""

    def __init__(
        self,
        cluster: EdgeCluster,
        latency_model: Optional[LatencyModel] = None,
        objective: Objective = Objective.AVG_LATENCY,
        config: Optional[JointSolverConfig] = None,
        stream_base: int = 0,
    ) -> None:
        self.cluster = cluster
        self.latency_model = latency_model or LatencyModel()
        self.objective = objective
        self.config = config or JointSolverConfig()
        # telemetry stream offset: restart r records on stream
        # ``stream_base + r + 1``.  The default 0 is the centralized layout;
        # the sharded coordinator gives shard s the disjoint block
        # ``s * (restarts + 1)`` so parallel shard solves never collide.
        self.stream_base = stream_base

    # -- public API -------------------------------------------------------------

    def solve(
        self,
        tasks: Sequence[TaskSpec],
        candidates: Optional[Sequence[CandidateSet]] = None,
        seed: SeedLike = None,
    ) -> JointResult:
        """Solve the joint problem for ``tasks``.

        Precomputed ``candidates`` (one set per task, same order) can be
        passed to amortize enumeration across repeated solves — e.g. the
        dynamic-bandwidth experiment re-solves every trace change-point.

        When the process tracer is enabled (``repro trace``), the solve
        records a span tree: ``solve`` → candidates / context / per-restart
        descend / refine / package (see DESIGN.md §9).  Disabled tracing adds
        no spans and no allocations.

        When ``config.shards > 1`` the solve is delegated to the sharded
        control plane (:func:`repro.core.coordinator.solve_sharded`), which
        returns a :class:`~repro.core.coordinator.ShardedResult` (a
        :class:`JointResult` plus shard/migration diagnostics).
        """
        if self.config.shards > 1:
            from repro.core.coordinator import solve_sharded

            return solve_sharded(
                tasks,
                self.cluster,
                latency_model=self.latency_model,
                objective=self.objective,
                config=self.config,
                candidates=candidates,
                seed=seed,
            )
        tracer = get_tracer()
        with tracer.span(
            "solve",
            {"tasks": len(tasks), "servers": self.cluster.num_servers}
            if tracer.enabled
            else None,
        ) as root:
            return self._solve(tasks, candidates, seed, tracer, root)

    def _solve(
        self,
        tasks: Sequence[TaskSpec],
        candidates: Optional[Sequence[CandidateSet]],
        seed: SeedLike,
        tracer: Tracer,
        root: Span,
    ) -> JointResult:
        t_start = time.perf_counter()
        if not tasks:
            raise ConfigError("no tasks to optimize")
        names = [t.name for t in tasks]
        if len(set(names)) != len(names):
            raise ConfigError(f"duplicate task names: {names}")
        for t in tasks:
            self.cluster.by_name(t.device_name)  # validates membership

        perf = PerfCounters()
        if candidates is None:
            with tracer.span("solve.candidates"):
                stats_before = candidate_cache_stats()
                candsets = [
                    build_candidates(
                        t,
                        threshold_grid=self.config.threshold_grid,
                        max_cuts=self.config.max_cuts,
                        cache=self.config.candidate_cache,
                    )
                    for t in tasks
                ]
                stats_after = candidate_cache_stats()
                perf.candidate_cache_hits += stats_after.hits - stats_before.hits
                perf.candidate_cache_misses += stats_after.misses - stats_before.misses
        else:
            if len(candidates) != len(tasks):
                raise ConfigError("candidates/tasks length mismatch")
            candsets = list(candidates)

        with tracer.span("solve.context"):
            ctx = _SolveContext(
                self.cluster, self.latency_model, self.objective, tasks, candsets
            )

        # one deterministic stream per restart: restart 0 reproduces the
        # single-restart descent exactly, and the spawned streams make the
        # result independent of whether restarts run serially or in parallel
        rng = as_generator(seed)
        restarts = self.config.restarts
        streams = [rng] if restarts == 1 else spawn(rng, restarts)
        restart_counters = [PerfCounters() for _ in range(restarts)]

        def _run(r: int) -> Tuple[float, List[int], Allocation, List[float], int, bool]:
            # telemetry stream base+r+1 == seed stream r; stream 0 is the
            # orchestrating thread, so restart spans merge deterministically
            # whether restarts run serially or on pool threads
            with tracer.stream(self.stream_base + r + 1, parent=root.span_id):
                with tracer.span("solve.descend", {"restart": r} if tracer.enabled else None):
                    return self._descend(
                        tasks, candsets, streams[r], perturb=(r > 0),
                        ctx=ctx, counters=restart_counters[r], tracer=tracer,
                    )

        workers = min(self.config.restart_workers, restarts)
        if workers > 1:
            with ThreadPoolExecutor(max_workers=workers) as pool:
                outs = list(pool.map(_run, range(restarts)))
        else:
            outs = [_run(r) for r in range(restarts)]

        best: Optional[Tuple[float, List[int], Allocation, List[float], int, bool]] = None
        for out in outs:
            if best is None or out[0] < best[0]:
                best = out
        assert best is not None
        # merge per-restart counters in seed-stream order, so parallel and
        # serial runs report byte-identical work counts
        perf.merge(PerfCounters.merged(dict(enumerate(restart_counters))))
        perf.restarts += restarts

        obj, plan_idx, alloc, history, iters, converged = best
        if not converged and self.config.strict_convergence:
            raise ConvergenceError(
                f"joint optimizer did not converge in {self.config.max_iterations} iterations"
            )
        # counts reflect the enumerated search space (before any refinement
        # appends the polished plan as an extra candidate)
        counts = {t.name: len(c) for t, c in zip(tasks, candsets)}
        if self.config.refine_thresholds:
            with tracer.span("solve.refine"):
                candsets, plan_idx, alloc, obj = self._refine(
                    tasks, list(candsets), list(plan_idx), alloc, obj, ctx, perf
                )
        with tracer.span("solve.package"):
            jp = self._package(tasks, candsets, plan_idx, alloc, obj, perf)
        perf.solve_s = time.perf_counter() - t_start
        return JointResult(
            plan=jp,
            iterations=iters,
            converged=converged,
            history=history,
            candidate_counts=counts,
            perf=perf,
        )

    # -- internals -----------------------------------------------------------

    def _descend(
        self,
        tasks: Sequence[TaskSpec],
        candsets: Sequence[CandidateSet],
        rng: np.random.Generator,
        perturb: bool,
        ctx: _SolveContext,
        counters: PerfCounters,
        tracer: Optional[Tracer] = None,
    ) -> Tuple[float, List[int], Allocation, List[float], int, bool]:
        cfg = self.config
        if tracer is None:
            tracer = get_tracer()
        n = len(tasks)
        inc = ctx.allocator
        with tracer.span("solve.descend.init"):
            assignment = assign_servers(
                tasks, candsets, self.cluster, self.latency_model, risk=cfg.risk
            )
            if perturb:
                # randomize a third of the assignments across servers/local
                m = self.cluster.num_servers
                for i in rng.choice(n, size=max(1, n // 3), replace=False):
                    choice = int(rng.integers(m + 1))
                    assignment[i] = None if choice == m else choice

            plan_idx = [0] * n
            # bootstrap plans under optimistic full shares
            alloc = Allocation(list(assignment), np.ones(n), np.ones(n))
            plan_idx = self._surgery_step(tasks, candsets, alloc, ctx, counters)
            alloc = inc.solve(plan_idx, assignment, counters)
            obj = self._objective(tasks, candsets, plan_idx, alloc, ctx, counters)

        history = [obj]
        converged = False
        iters = 0
        for it in range(1, cfg.max_iterations + 1):
            iters = it
            # surgery step; `alloc` is always solved for the current plan_idx,
            # so the share re-solve only needs the groups of changed tasks
            new_idx = self._surgery_step(tasks, candsets, alloc, ctx, counters)
            changed = [i for i in range(n) if new_idx[i] != plan_idx[i]]
            new_alloc = inc.update(alloc, new_idx, alloc.assignment, changed, counters)
            new_obj = self._objective(tasks, candsets, new_idx, new_alloc, ctx, counters)
            if new_obj <= obj:
                plan_idx, alloc, obj = new_idx, new_alloc, new_obj

            # periodic re-assignment (accepted only on improvement)
            if it % cfg.reassign_every == 0:
                with tracer.span("solve.descend.reassign", {"iteration": it} if tracer.enabled else None):
                    cand_assignment = assign_servers(
                        tasks, candsets, self.cluster, self.latency_model,
                        risk=cfg.risk,
                    )
                    cand_alloc = inc.solve(plan_idx, cand_assignment, counters)
                    cand_obj = self._objective(
                        tasks, candsets, plan_idx, cand_alloc, ctx, counters
                    )
                    if cand_obj < obj:
                        alloc, obj = cand_alloc, cand_obj
                if cfg.local_search:
                    with tracer.span("solve.descend.local_search", {"iteration": it} if tracer.enabled else None):
                        plan_idx, alloc, obj = self._local_search(
                            tasks, candsets, plan_idx, alloc, obj, ctx, counters
                        )

            history.append(obj)
            prev = history[-2]
            stalled = prev == obj or (
                math.isfinite(prev)
                and math.isfinite(obj)
                and (prev - obj) <= cfg.tol * max(abs(prev), 1e-12)
            )
            if stalled:
                # before declaring convergence, give local search one shot at
                # escaping the fixed point (unless it just ran this iteration)
                if cfg.local_search and it % cfg.reassign_every != 0:
                    with tracer.span("solve.descend.local_search", {"iteration": it} if tracer.enabled else None):
                        plan_idx, alloc, new_obj = self._local_search(
                            tasks, candsets, plan_idx, alloc, obj, ctx, counters
                        )
                    if new_obj < obj - cfg.tol * max(abs(obj), 1e-12):
                        obj = new_obj
                        history[-1] = obj
                        continue
                    obj = new_obj
                    history[-1] = obj
                converged = True
                break
        return obj, plan_idx, alloc, history, iters, converged

    def _refine(
        self,
        tasks: Sequence[TaskSpec],
        candsets: List[CandidateSet],
        plan_idx: List[int],
        alloc: Allocation,
        obj: float,
        ctx: _SolveContext,
        counters: PerfCounters,
    ) -> Tuple[List[CandidateSet], List[int], Allocation, float]:
        """Per-exit threshold polish of the winning solution.

        Each task's chosen plan is refined by coordinate descent over a fine
        per-exit threshold grid (see :func:`repro.core.surgery.refine_thresholds`)
        under its final shares; shares are then re-solved once and the whole
        refined solution is accepted only if the global objective improves.
        """
        from repro.core.surgery import refine_thresholds

        new_candsets = list(candsets)
        new_idx = list(plan_idx)
        touched = False
        for i, task in enumerate(tasks):
            cs = candsets[i]
            feats = cs.features[plan_idx[i]]
            if len(feats.plan.kept_exits) <= 1:
                continue  # no early exits to tune
            device = ctx.devices[i]
            s = alloc.assignment[i]
            server = self.cluster.servers[s] if s is not None else None
            link = ctx.links[i][s] if s is not None else None
            refined_plan, refined_feats = refine_thresholds(
                task.model,
                feats.plan,
                device,
                self.latency_model,
                task.accuracy_floor,
                server=server,
                link=link,
                compute_share=float(alloc.compute_shares[i]),
                bandwidth_share=float(alloc.bandwidth_shares[i]),
            )
            if refined_plan != feats.plan:
                new_candsets[i] = CandidateSet(cs.task, list(cs.features) + [refined_feats])
                new_idx[i] = len(cs.features)
                touched = True
        if not touched:
            return candsets, plan_idx, alloc, obj
        # refined candidate sets differ from the ones the incremental
        # allocator was built over, so this one-off re-solve stays full
        new_alloc = allocate_shares(
            tasks, new_candsets, new_idx, alloc.assignment,
            self.cluster, self.latency_model, self.objective,
        )
        counters.allocate_calls += 1
        new_obj = self._objective(tasks, new_candsets, new_idx, new_alloc, ctx, counters)
        if new_obj < obj:
            return new_candsets, new_idx, new_alloc, new_obj
        return candsets, plan_idx, alloc, obj

    def _local_search(
        self,
        tasks: Sequence[TaskSpec],
        candsets: Sequence[CandidateSet],
        plan_idx: List[int],
        alloc: Allocation,
        obj: float,
        ctx: _SolveContext,
        counters: PerfCounters,
    ) -> Tuple[List[int], Allocation, float]:
        """One greedy sweep of single-task (server, plan) moves.

        For each task in turn, every alternative placement (local, then each
        server, skipping the current one) is tried with the plan re-picked
        for that placement, and the option with the lowest *global* objective
        is accepted if it strictly improves on the incumbent — ties go to the
        first in that order.  Escapes assignment local optima the Hungarian
        step cannot see because it prices all tasks at once.

        A task's options are all priced against the same incumbent, so they
        are priced together, bit-exactly as one at a time:

        - the groups the task leaves are re-solved once (the task parked
          locally), and each option's join groups on top of that — the same
          members in the same order as a direct move;
        - its candidates are ranked under every option in one kernel call
          (:meth:`SolutionStages.rank`), one row per option;
        - every option's affected rows — the task plus the members of the
          servers it leaves and joins; a locally placed task shares no group,
          so its latency cannot change — are re-priced in one kernel call,
          and every other latency is carried over from the incumbent.
        """
        cfg = self.config
        m = self.cluster.num_servers
        inc = ctx.allocator
        stages = ctx.stages
        assignment = list(alloc.assignment)
        # server -> ascending member tasks, kept in sync with accepted moves
        members: Dict[int, List[int]] = {}
        for t, a in enumerate(assignment):
            if a is not None:
                members.setdefault(a, []).append(t)
        # incumbent per-task latencies, kept in sync with accepted moves
        base_lat = solution_latencies(
            tasks, candsets, plan_idx, alloc, self.cluster, self.latency_model,
            include_queueing=cfg.include_queueing, overload="penalty",
            risk=cfg.risk, stages=stages,
        )
        counters.latency_evals += len(tasks)
        for i in range(len(tasks)):
            current = assignment[i]
            options = [o for o in [None, *range(m)] if o != current]
            if not options:
                continue
            # shares with task i parked locally: the groups it leaves, once
            if current is None:
                stay: List[int] = []
                leave = alloc
            else:
                stay = [t for t in members[current] if t != i]
                leave_assign = list(assignment)
                leave_assign[i] = None
                leave = inc.update(
                    alloc, plan_idx, leave_assign, (i,), counters,
                    members_by_server={current: stay},
                )
            # provisional shares per option (plan unchanged): its join groups
            provs: List[Allocation] = []
            joins: List[Dict[int, List[int]]] = []
            for o in options:
                if o is None:
                    provs.append(leave)
                    joins.append({})
                    continue
                trial_assign = list(leave.assignment)
                trial_assign[i] = o
                joined = list(members.get(o, ()))
                insort(joined, i)
                joins.append({o: joined})
                provs.append(inc.update(
                    leave, plan_idx, trial_assign, (i,), counters,
                    members_by_server=joins[-1],
                ))
            lat = stages.rank(
                candsets[i], i, options,
                np.array([p.compute_shares[i] for p in provs]),
                np.array([p.bandwidth_shares[i] for p in provs]),
                include_queueing=cfg.include_queueing, risk=cfg.risk,
            )
            counters.candidate_evals += len(options)
            picks = lat.argmin(axis=1)
            finite = np.isfinite(lat[np.arange(len(options)), picks])

            # each finite option's trial state, its affected rows gathered
            trials = []
            rows: List[int] = []
            plans: List[int] = []
            servers: List[Optional[int]] = []
            cshares: List[np.ndarray] = []
            bshares: List[np.ndarray] = []
            for k, o in enumerate(options):
                if not finite[k]:
                    continue
                j = int(picks[k])
                trial_idx = list(plan_idx)
                trial_idx[i] = j
                trial_alloc = provs[k]
                if o is not None and j != plan_idx[i]:
                    trial_alloc = inc.update(
                        provs[k], trial_idx, trial_alloc.assignment, (i,), counters,
                        members_by_server=joins[k],
                    )
                affected = [i, *stay, *(members.get(o, ()) if o is not None else ())]
                trials.append((o, j, trial_alloc, affected))
                rows += affected
                plans += [trial_idx[t] for t in affected]
                servers += [trial_alloc.assignment[t] for t in affected]
                cshares.append(trial_alloc.compute_shares[affected])
                bshares.append(trial_alloc.bandwidth_shares[affected])
            if not trials:
                continue
            priced = stages.price(
                candsets, rows, plans, servers,
                np.concatenate(cshares), np.concatenate(bshares),
                include_queueing=cfg.include_queueing, overload="penalty",
                risk=cfg.risk,
            )
            counters.latency_evals += len(rows)

            best = (obj, current, plan_idx[i], alloc, base_lat)
            start = 0
            for o, j, trial_alloc, affected in trials:
                trial_lat = base_lat.copy()
                trial_lat[affected] = priced[start:start + len(affected)]
                start += len(affected)
                trial_obj = ctx.evaluate(trial_lat)
                if trial_obj < best[0]:
                    best = (trial_obj, o, j, trial_alloc, trial_lat)
            if best[0] < obj:
                obj, moved_to, plan_idx[i], alloc, base_lat = best
                assignment[i] = moved_to
                if current is not None:
                    members[current] = stay
                if moved_to is not None:
                    insort(members.setdefault(moved_to, []), i)
        return plan_idx, alloc, obj

    def _surgery_step(
        self,
        tasks: Sequence[TaskSpec],
        candsets: Sequence[CandidateSet],
        alloc: Allocation,
        ctx: _SolveContext,
        counters: PerfCounters,
    ) -> List[int]:
        """Per task, pick the latency-minimal candidate under current shares."""
        rate = lambda t: (t.arrival_rate if self.config.include_queueing else None)
        out: List[int] = []
        for i, task in enumerate(tasks):
            device = ctx.devices[i]
            s = alloc.assignment[i]
            if s is None:
                lat = candsets[i].latencies(
                    device, self.latency_model, arrival_rate=rate(task),
                    risk=self.config.risk,
                )
            else:
                server = self.cluster.servers[s]
                link = ctx.links[i][s]
                lat = candsets[i].latencies(
                    device,
                    self.latency_model,
                    server=server,
                    link=link,
                    compute_share=float(alloc.compute_shares[i]),
                    bandwidth_share=float(alloc.bandwidth_shares[i]),
                    arrival_rate=rate(task),
                    risk=self.config.risk,
                )
            counters.candidate_evals += 1
            out.append(int(np.argmin(lat)))
        return out

    def _objective(
        self,
        tasks: Sequence[TaskSpec],
        candsets: Sequence[CandidateSet],
        plan_idx: Sequence[int],
        alloc: Allocation,
        ctx: _SolveContext,
        counters: Optional[PerfCounters] = None,
    ) -> float:
        # internal search objective: graded overload surrogate, so descent
        # keeps a gradient even when every reachable solution is overloaded
        # (the packaged plan reports honest inf for unstable tasks)
        lat = solution_latencies(
            tasks,
            candsets,
            plan_idx,
            alloc,
            self.cluster,
            self.latency_model,
            include_queueing=self.config.include_queueing,
            overload="penalty",
            risk=self.config.risk,
            stages=ctx.stages,
        )
        if counters is not None:
            counters.latency_evals += len(tasks)
        return ctx.evaluate(lat)

    def _package(
        self,
        tasks: Sequence[TaskSpec],
        candsets: Sequence[CandidateSet],
        plan_idx: Sequence[int],
        alloc: Allocation,
        obj: float,
        counters: Optional[PerfCounters] = None,
    ) -> JointPlan:
        # honest latencies/objective (inf for unstable tasks) — the graded
        # surrogate in `obj` was only for steering the search
        return package_plan(
            tasks,
            candsets,
            plan_idx,
            alloc,
            self.cluster,
            self.latency_model,
            self.objective,
            include_queueing=self.config.include_queueing,
            counters=counters,
            risk=self.config.risk,
        )
