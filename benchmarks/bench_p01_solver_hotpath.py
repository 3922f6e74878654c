"""P1 micro-bench: the solver hot-path primitives in isolation.

E9 times whole solves; this file times the two paths the performance layer
targets so regressions are attributable:

- ``build_candidates`` on a warm cache — the memoized pipeline should make
  repeat builds (same model / grid / floor) effectively free;
- one ``_local_search`` sweep — trial moves re-solve shares incrementally
  and re-evaluate only the tasks in the touched server/link groups.

The sweep bench drives the optimizer's internals directly (same setup as
``_descend``'s bootstrap) so it measures exactly one sweep, not a solve.
"""

import numpy as np

from repro.core.allocation import Allocation, assign_servers
from repro.core.candidates import (
    build_candidates,
    candidate_cache_stats,
)
from repro.core.joint import JointOptimizer, JointSolverConfig, _SolveContext
from repro.profiling.counters import PerfCounters
from repro.workloads.scenarios import build_scenario


def _scenario(n_tasks=16, n_servers=4):
    return build_scenario(
        "smart_city",
        num_tasks=n_tasks,
        num_servers=n_servers,
        server_spread=4.0,
        seed=0,
    )


def test_build_candidates_cache_hit(benchmark):
    cluster, tasks = _scenario()
    for t in tasks:
        build_candidates(t)  # warm the pipeline cache
    before = candidate_cache_stats()
    benchmark(lambda: [build_candidates(t) for t in tasks])
    after = candidate_cache_stats()
    assert after.hits > before.hits
    assert after.misses == before.misses  # every timed build was a hit
    benchmark.extra_info["cache_hits"] = after.hits - before.hits


def test_local_search_sweep(benchmark):
    cluster, tasks = _scenario()
    cands = [build_candidates(t) for t in tasks]
    opt = JointOptimizer(cluster, config=JointSolverConfig())
    n = len(tasks)
    setup_counters = PerfCounters()
    ctx = _SolveContext(cluster, opt.latency_model, opt.objective, tasks, cands)
    assignment = assign_servers(tasks, cands, cluster, opt.latency_model)
    boot = Allocation(list(assignment), np.ones(n), np.ones(n))
    plan_idx = opt._surgery_step(tasks, cands, boot, ctx, setup_counters)
    alloc = ctx.allocator.solve(plan_idx, assignment, setup_counters)
    obj = opt._objective(tasks, cands, plan_idx, alloc, ctx, setup_counters)

    counters = PerfCounters()

    def sweep():
        return opt._local_search(
            tasks, cands, list(plan_idx), alloc, obj, ctx, counters
        )

    new_idx, new_alloc, new_obj = benchmark(sweep)
    assert new_obj <= obj
    assert counters.allocate_calls > 0
    # incremental updates: far fewer group solves than a from-scratch solve
    # per trial (which would pay every populated server + link group)
    assert counters.allocate_group_solves <= counters.allocate_calls * 4
    benchmark.extra_info["perf"] = counters.as_dict()
