"""Workloads, set-up, the measured cycle and its output checks.

Every workload runs both planes in one cycle — full ``solve_sharded`` →
single-shard ``resolve_dirty`` re-plans → a streamed simulation of the
solved plan — so every end-to-end metric exists on every workload; the
workloads differ in which of those steps dominates (see README.md).
"""

from __future__ import annotations

import dataclasses
import gc
import math
import statistics
from dataclasses import dataclass
from time import perf_counter
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core import candidates as candidates_mod
from repro.core import coordinator
from repro.core.joint import JointSolverConfig
from repro.sim import runner
from repro.sim.runner import SimulationConfig
from repro.telemetry.windows import WindowConfig
from repro.workloads import scenarios

#: set-ups per run; ``setup_s`` is their median
SETUPS = 3
#: tasks in the set-up's warm-up solve and stream
WARM_TASKS = 256
#: distinct shards (evenly spaced) re-planned one at a time per cycle
REPLAN_SHARDS = 8
#: the seed draws each task's arrival rate within ±RATE_JITTER of its
#: template's (and, on heterogeneous clusters, the server mix)
RATE_JITTER = 0.05
#: streaming latency histogram: 2 ms bins up to 8 s.  The simulator's
#: default (0.5 ms to 30 s, 60k int64 bins per task) needs ~2 GiB at 4096
#: tasks; quantiles stay exact within one bin either way.
HIST_BIN_S = 2e-3
HIST_MAX_S = 8.0


@dataclass(frozen=True)
class Workload:
    """One benchmark input: a scenario instance plus how each plane runs it."""

    name: str
    tasks: int
    servers: Optional[int]  # None = the scenario's default 2-server cluster
    rate_scale: float
    shards: int
    local_search: bool
    sim_requests: int  # requests streamed per cycle (≈, from the total rate)
    window_s: Optional[float] = None
    service_noise: float = 0.0
    #: share of ``--seconds`` spent sampling (solve, re-plan, simulate)
    shares: Tuple[float, float, float] = (0.4, 0.4, 0.2)

    def solver_config(self) -> JointSolverConfig:
        return JointSolverConfig(
            shards=self.shards,
            shard_by="interleave",
            migration_rounds=3,
            local_search=self.local_search,
            restart_workers=1,
        )

    def toy(self) -> "Workload":
        """The same workload shape at a size that runs in about a second."""
        servers = None if self.servers is None else 8
        return dataclasses.replace(
            self,
            tasks=min(self.tasks, 24),
            servers=servers,
            shards=min(self.shards, 4 if servers else 1),
            sim_requests=4000,
        )


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload("plan-1k", tasks=1024, servers=256, rate_scale=0.1, shards=32,
                 local_search=True, sim_requests=30_000,
                 shares=(0.4, 0.35, 0.25)),
        Workload("plan-4k-nols", tasks=4096, servers=128, rate_scale=0.1, shards=64,
                 local_search=False, sim_requests=12_000),
        Workload("sim-deep", tasks=16, servers=None, rate_scale=1.0, shards=1,
                 local_search=True, sim_requests=1_000_000,
                 shares=(0.1, 0.1, 0.8)),
        Workload("sim-wide", tasks=1024, servers=256, rate_scale=0.1, shards=32,
                 local_search=False, sim_requests=40_000,
                 window_s=60.0, service_noise=0.2,
                 shares=(0.2, 0.1, 0.7)),
    )
}


class CheckFailed(Exception):
    """An operation's output failed its correctness check."""


@dataclass
class Instance:
    workload: Workload
    seed: int
    cluster: object
    tasks: list
    candidates: list
    config: JointSolverConfig
    sim_config: SimulationConfig
    warm_objective: float
    cache_hits: int
    cache_misses: int


def _sim_config(w: Workload, tasks: Sequence, seed: int, requests: int) -> SimulationConfig:
    horizon = requests / sum(t.arrival_rate for t in tasks)
    return SimulationConfig(
        horizon_s=horizon,
        warmup_s=0.05 * horizon,
        seed=seed,
        streaming=True,
        sim_workers=1,
        hist_bin_s=HIST_BIN_S,
        hist_max_s=HIST_MAX_S,
        windows=WindowConfig(window_s=w.window_s) if w.window_s else None,
        service_noise=w.service_noise,
    )


def _clear_caches() -> None:
    """Drop the process-wide memos so every set-up pays its full cost."""
    scenarios._MODEL_CACHE.clear()
    candidates_mod.clear_candidate_cache()
    gc.collect()


def setup(w: Workload, seed: int) -> Instance:
    """Scenario + candidates + warm-up.

    A process's first solve runs ~1.5x slower than later ones (cold memos);
    the warm-up — a local-search-off plan and a short stream over the first
    ``WARM_TASKS`` tasks, which cover every task template — moves that gap
    here, out of ``solve_s``.
    """
    _clear_caches()
    cluster, tasks = scenarios.build_scenario(
        "smart_city",
        num_tasks=w.tasks,
        num_servers=w.servers,
        server_spread=4.0 if w.servers else None,
        seed=seed,
    )
    scale = w.rate_scale * np.random.default_rng(seed).uniform(
        1.0 - RATE_JITTER, 1.0 + RATE_JITTER, size=len(tasks)
    )
    tasks = [
        dataclasses.replace(t, arrival_rate=t.arrival_rate * float(f))
        for t, f in zip(tasks, scale)
    ]
    before = candidates_mod.candidate_cache_stats()
    cands = [candidates_mod.build_candidates(t) for t in tasks]
    after = candidates_mod.candidate_cache_stats()
    cfg = w.solver_config()
    warm_tasks = tasks[:WARM_TASKS]
    warm = coordinator.solve_sharded(
        warm_tasks, cluster, config=dataclasses.replace(cfg, local_search=False),
        candidates=cands[:WARM_TASKS], seed=seed,
    )
    check_plan(warm.plan, warm_tasks, cluster)
    runner.simulate_plan(
        warm_tasks, warm.plan, cluster,
        _sim_config(w, warm_tasks, seed, max(1000, w.sim_requests // 50)),
    )
    return Instance(
        workload=w, seed=seed, cluster=cluster, tasks=tasks, candidates=cands,
        config=cfg, sim_config=_sim_config(w, tasks, seed, w.sim_requests),
        warm_objective=warm.plan.objective_value,
        cache_hits=after.hits - before.hits, cache_misses=after.misses - before.misses,
    )


# -- output checks ------------------------------------------------------------


def check_plan(plan, tasks, cluster) -> None:
    names = {t.name for t in tasks}
    for field in ("assignment", "features", "compute_shares", "bandwidth_shares", "latencies"):
        if set(getattr(plan, field)) != names:
            raise CheckFailed(f"plan.{field} does not cover every task")
    m = cluster.num_servers
    bad = [n for n, s in plan.assignment.items() if s is not None and not 0 <= s < m]
    if bad:
        raise CheckFailed(f"tasks assigned outside the cluster: {bad[:3]}")
    if not math.isfinite(plan.objective_value):
        raise CheckFailed(f"objective is not finite: {plan.objective_value}")


def check_report(report) -> None:
    c = report.counters
    if not c.conserved():
        raise CheckFailed(f"request conservation broken: {c.as_dict()}")
    if c.requests < 1 or report.stream is None or report.stream.count < 1:
        raise CheckFailed("simulation completed no post-warm-up request")


def plan_key(result) -> tuple:
    p = result.plan
    return (
        p.assignment, p.features, p.compute_shares, p.bandwidth_shares,
        p.latencies, p.objective_value, tuple(result.migration_history),
    )


def latency_quantile(stream, q: float) -> float:
    """Percentile ``q`` of the merged streaming histogram, interpolated.

    Same ceil-rank order statistic as :meth:`StreamingStats.quantile`, which
    returns the upper edge of that element's bin; this spreads the bin's
    elements evenly across it instead, so the value stays inside the same
    bin but moves with the counts rather than snapping to an edge.
    """
    hists = [stream.per_task[name].hist for name in sorted(stream.per_task)]
    counts = np.zeros_like(hists[0].counts)
    for h in hists:
        counts += h.counts
    n = int(sum(h.count for h in hists))
    rank = int(np.ceil((n - 1) * q / 100.0))  # 0-based
    cum = np.cumsum(counts)
    if rank >= cum[-1]:  # in the overflow bucket
        return float(max(h.max_seen_s for h in hists))
    b = int(np.searchsorted(cum, rank + 1, side="left"))
    below = int(cum[b - 1]) if b else 0
    return float((b + (rank - below + 1) / counts[b]) * hists[0].bin_s)


def report_key(report) -> tuple:
    s = report.stream
    return (
        report.counters.as_dict(), s.count, s.met, s.correct_count,
        s.latency_sum_s, latency_quantile(s, 50.0), latency_quantile(s, 99.9),
        report.windowed.fingerprint() if report.windowed is not None else None,
    )


# -- the measured cycle -------------------------------------------------------


@dataclass
class CycleOutput:
    """One cycle's timings and the small results the metrics need."""

    solve_s: float
    replan_s: List[float]
    sim_s: float
    keys: Dict[str, tuple]  # op name -> bit-exact output fingerprint
    plan: Dict[str, float]  # objective / miss ratio of the full solve
    perf: list  # PerfCounters of the solve and each re-plan
    sim: Dict[str, float]  # realized stream metrics
    sim_counters: Dict[str, int]
    result: object  # the full solve's ShardedResult
    shards: List[int]  # the re-planned shards

    @property
    def op_s(self) -> float:
        """Wall time inside the measured calls (excludes the benchmark's own
        gc and checks between them)."""
        return self.solve_s + sum(self.replan_s) + self.sim_s


class OpCounter:
    """Operations attempted / failed, as the result line reports them.

    An operation fails when it raises or its output fails a check —
    including differing, bit for bit, from the same operation's output in
    the run's first cycle.
    """

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.errors: List[str] = []

    def run(self, name: str, fn, check, key, reference: Optional[Dict[str, tuple]]):
        """Time ``fn``, check its output, return ``(output, seconds, key)``."""
        self.attempted += 1
        try:
            gc.collect()
            t0 = perf_counter()
            out = fn()
            seconds = perf_counter() - t0
            check(out)
            k = key(out)
            if reference is not None and reference[name] != k:
                raise CheckFailed("output differs from the first cycle's")
        except Exception as exc:  # an op failure is a result, not a crash
            self.failed += 1
            self.errors.append(f"{name}: {type(exc).__name__}: {exc}")
            raise
        return out, seconds, k


def _plan_check(inst: Instance):
    return lambda result: check_plan(result.plan, inst.tasks, inst.cluster)


def _solve(inst: Instance, ops: OpCounter, reference):
    return ops.run(
        "solve",
        lambda: coordinator.solve_sharded(
            inst.tasks, inst.cluster, config=inst.config,
            candidates=inst.candidates, seed=inst.seed),
        _plan_check(inst), plan_key, reference,
    )


def _replan(inst: Instance, ops: OpCounter, prior, shard: int, reference):
    return ops.run(
        f"replan[{shard}]",
        lambda: coordinator.resolve_dirty(
            inst.tasks, inst.cluster, prior, [shard], config=inst.config,
            candidates=inst.candidates, seed=inst.seed),
        _plan_check(inst), plan_key, reference,
    )


def _simulate(inst: Instance, ops: OpCounter, plan, reference):
    return ops.run(
        "simulate",
        lambda: runner.simulate_plan(inst.tasks, plan, inst.cluster, inst.sim_config),
        check_report, report_key, reference,
    )


def run_cycle(inst: Instance, ops: OpCounter,
              reference: Optional[Dict[str, tuple]] = None) -> CycleOutput:
    """Solve, re-plan each chosen shard once, stream the plan."""
    keys: Dict[str, tuple] = {}
    solve, solve_s, keys["solve"] = _solve(inst, ops, reference)
    k = solve.shard_plan.num_shards
    shards = sorted({(i * k) // REPLAN_SHARDS for i in range(REPLAN_SHARDS)})
    perf, replan_s = [solve.perf], []
    for shard in shards:
        rr, dt, keys[f"replan[{shard}]"] = _replan(inst, ops, solve, shard, reference)
        perf.append(rr.perf)
        replan_s.append(dt)
    report, sim_s, keys["simulate"] = _simulate(inst, ops, solve.plan, reference)
    plan, tasks = solve.plan, inst.tasks
    met = sum(plan.latencies[t.name] <= t.deadline_s for t in tasks)
    stream, c = report.stream, report.counters
    judged = stream.count + c.lost + c.shed  # lost and shed requests miss
    return CycleOutput(
        solve_s=solve_s, replan_s=replan_s, sim_s=sim_s, keys=keys,
        plan={"objective": plan.objective_value, "met_ratio": met / len(tasks)},
        perf=perf,
        sim={
            "miss_rate": (stream.count - stream.met + c.lost + c.shed) / judged,
            "p50_ms": latency_quantile(stream, 50.0) * 1e3,
            "p999_ms": latency_quantile(stream, 99.9) * 1e3,
        },
        sim_counters=c.as_dict(),
        result=solve,
        shards=shards,
    )


@dataclass
class Measured:
    first: CycleOutput
    solve_s: List[float]
    replan_s: List[float]
    sim_s: List[float]


def measure(inst: Instance, ops: OpCounter, seconds: float) -> Measured:
    """One full cycle, then more samples of each operation until each has
    had its share (``Workload.shares``) of ``seconds``.

    Extra samples are interleaved — always the operation furthest below its
    share next — so each metric's samples spread over the whole run, and
    every one is checked bit for bit against the first cycle's output.
    """
    first = run_cycle(inst, ops)
    samples = ([first.solve_s], list(first.replan_s), [first.sim_s])
    budget = [f * seconds for f in inst.workload.shares]
    ref, plan, shards = first.keys, first.result.plan, first.shards
    run_op = (
        lambda: _solve(inst, ops, ref)[1],
        lambda: _replan(inst, ops, first.result,
                        shards[len(samples[1]) % len(shards)], ref)[1],
        lambda: _simulate(inst, ops, plan, ref)[1],
    )
    while True:
        behind = [(sum(t) / b, i) for i, (t, b) in enumerate(zip(samples, budget))
                  if b > 0 and sum(t) < b]
        if not behind:
            break
        i = min(behind)[1]
        samples[i].append(run_op[i]())
    first.result = None  # the plan is no longer needed
    return Measured(first, *samples)


# -- end-to-end metrics -------------------------------------------------------


def end_to_end(setup_s: Sequence[float], m: Measured) -> Dict[str, float]:
    first = m.first  # plan and stream outputs are identical in every sample
    requests = first.sim_counters["requests"]
    return {
        "setup_s": statistics.median(setup_s),
        "solve_s": statistics.median(m.solve_s),
        "replan_p50_s": statistics.median(m.replan_s),
        "plan_objective": first.plan["objective"],
        "sim_req_per_s": statistics.median(requests / t for t in m.sim_s),
        "sim_miss_rate": first.sim["miss_rate"],
        "sim_p50_ms": first.sim["p50_ms"],
        "sim_p999_ms": first.sim["p999_ms"],
    }
