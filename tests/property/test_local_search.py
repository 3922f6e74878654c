"""The joint solver's local search: one greedy sweep of single-task moves.

For each task in turn, every alternative placement (local, then servers
0..m-1, skipping the current one) is tried with the plan re-picked for that
placement, and the *best* strictly improving option is accepted — ties go to
the first in option order.  :func:`reference_local_search` is the plain
per-option loop (each trial re-solves its groups, ranks its candidates and
re-prices its rows on its own); the solver must reproduce it bit for bit.
:func:`spec_sweep` restates the contract with full, non-incremental share
solves and full pricing, so the incremental bookkeeping is checked too.
"""

import dataclasses
import functools

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.allocation import solution_latencies, solution_latency_task
from repro.core.candidates import build_candidates
from repro.core.joint import JointOptimizer, JointSolverConfig, _SolveContext
from repro.core.objectives import Objective
from repro.core.risk import RiskConfig
from repro.devices.latency import LatencyModel
from repro.profiling.counters import PerfCounters
from repro.workloads.scenarios import build_scenario

LM = LatencyModel()

RISKS = st.one_of(
    st.none(),
    st.builds(
        RiskConfig,
        epsilon=st.floats(0.01, 0.3),
        buffer=st.sampled_from(["cantelli", "gaussian"]),
        service_noise=st.floats(0.0, 0.5),
    ),
)


def reference_local_search(opt, tasks, candsets, plan_idx, alloc, obj, ctx, counters):
    """The per-option local-search loop, one trial at a time."""
    cfg = opt.config
    m = opt.cluster.num_servers
    inc = ctx.allocator
    assignment = list(alloc.assignment)
    base_lat = solution_latencies(
        tasks, candsets, plan_idx, alloc, opt.cluster, opt.latency_model,
        include_queueing=cfg.include_queueing, overload="penalty",
        risk=cfg.risk, stages=ctx.stages,
    )
    counters.latency_evals += len(tasks)
    for i, task in enumerate(tasks):
        device = ctx.devices[i]
        current = assignment[i]
        best = (obj, assignment[i], plan_idx[i], alloc, base_lat)
        rate = task.arrival_rate if cfg.include_queueing else None
        for option in [None] + list(range(m)):
            if option == current:
                continue
            trial_assign = list(assignment)
            trial_assign[i] = option
            trial_idx = list(plan_idx)
            prov = inc.update(alloc, plan_idx, trial_assign, (i,), counters)
            if option is None:
                lat = candsets[i].latencies(
                    device, opt.latency_model, arrival_rate=rate, risk=cfg.risk,
                )
            else:
                lat = candsets[i].latencies(
                    device,
                    opt.latency_model,
                    server=opt.cluster.servers[option],
                    link=ctx.links[i][option],
                    compute_share=float(prov.compute_shares[i]),
                    bandwidth_share=float(prov.bandwidth_shares[i]),
                    arrival_rate=rate,
                    risk=cfg.risk,
                )
            counters.candidate_evals += 1
            j = int(np.argmin(lat))
            if not np.isfinite(lat[j]):
                continue
            trial_idx[i] = j
            if j == plan_idx[i]:
                trial_alloc = prov
            else:
                trial_alloc = inc.update(prov, trial_idx, trial_assign, (i,), counters)
            affected = [
                t for t, a in enumerate(assignment) if a == current or a == option
            ]
            trial_lat = base_lat.copy()
            trial_lat[affected] = solution_latency_task(
                affected, tasks, candsets, trial_idx, trial_alloc,
                opt.cluster, opt.latency_model,
                include_queueing=cfg.include_queueing, overload="penalty",
                risk=cfg.risk, stages=ctx.stages,
            )
            counters.latency_evals += len(affected)
            trial_obj = opt.objective.evaluate(trial_lat, tasks)
            if trial_obj < best[0]:
                best = (trial_obj, option, j, trial_alloc, trial_lat)
        if best[0] < obj:
            obj, assignment[i], plan_idx[i], alloc, base_lat = best
    return plan_idx, alloc, obj


def spec_sweep(opt, tasks, candsets, plan_idx, assignment, ctx):
    """The sweep's contract with full share solves and full pricing."""
    cfg = opt.config
    m = opt.cluster.num_servers
    plan_idx, assignment = list(plan_idx), list(assignment)
    alloc = ctx.allocator.solve(plan_idx, assignment)
    obj = opt._objective(tasks, candsets, plan_idx, alloc, ctx)
    for i, task in enumerate(tasks):
        best = None
        for option in [None] + list(range(m)):
            if option == assignment[i]:
                continue
            trial_assign = list(assignment)
            trial_assign[i] = option
            prov = ctx.allocator.solve(plan_idx, trial_assign)
            placement = {}
            if option is not None:
                placement = dict(
                    server=opt.cluster.servers[option],
                    link=ctx.links[i][option],
                    compute_share=float(prov.compute_shares[i]),
                    bandwidth_share=float(prov.bandwidth_shares[i]),
                )
            lat = candsets[i].latencies(
                ctx.devices[i], LM,
                arrival_rate=task.arrival_rate if cfg.include_queueing else None,
                risk=cfg.risk, **placement,
            )
            j = int(np.argmin(lat))
            if not np.isfinite(lat[j]):
                continue
            trial_idx = list(plan_idx)
            trial_idx[i] = j
            trial_alloc = ctx.allocator.solve(trial_idx, trial_assign)
            trial_obj = opt._objective(tasks, candsets, trial_idx, trial_alloc, ctx)
            if trial_obj < obj and (best is None or trial_obj < best[0]):
                best = (trial_obj, option, j)
        if best is not None:
            obj, assignment[i], plan_idx[i] = best
    return plan_idx, assignment, obj


@functools.lru_cache(maxsize=None)
def _instance(name, n, m, devices, seed):
    cluster, tasks = build_scenario(name, num_tasks=n, num_servers=m, seed=seed)
    # fold the tasks onto `devices` end devices, so access links are shared
    tasks = [
        dataclasses.replace(t, device_name=f"dev{i % devices}")
        for i, t in enumerate(tasks)
    ]
    return cluster, tasks, [build_candidates(t) for t in tasks]


def _bits(x):
    return np.asarray(x, dtype=np.float64).view(np.uint64)


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_local_search_matches_reference(data):
    name = data.draw(st.sampled_from(["smart_city", "industrial", "mobile_ar"]))
    n = data.draw(st.integers(1, 16), label="tasks")
    m = data.draw(st.integers(1, 4), label="servers")
    devices = data.draw(st.integers(1, n), label="devices")
    cluster, tasks, cands = _instance(name, n, m, devices, data.draw(st.integers(0, 3)))
    objective = data.draw(st.sampled_from(list(Objective)), label="objective")
    config = JointSolverConfig(
        include_queueing=data.draw(st.booleans(), label="include_queueing"),
        risk=data.draw(RISKS, label="risk"),
    )
    opt = JointOptimizer(cluster, LM, objective, config)
    ctx = _SolveContext(cluster, LM, objective, tasks, cands)

    # a random incumbent, local placements included; a locally placed task
    # runs a local-only plan when its set has one
    assignment = [data.draw(st.none() | st.integers(0, m - 1)) for _ in tasks]
    plan_idx = []
    for cs, a in zip(cands, assignment):
        pool = np.arange(len(cs))
        if a is None:
            local = np.flatnonzero((cs.p_offload <= 0.0) & (cs.srv_flops <= 0.0))
            pool = local if local.size else pool
        plan_idx.append(int(pool[data.draw(st.integers(0, len(pool) - 1))]))
    alloc = ctx.allocator.solve(plan_idx, assignment)
    obj = opt._objective(tasks, cands, plan_idx, alloc, ctx)

    ref_perf, got_perf = PerfCounters(), PerfCounters()
    ref_idx, ref_alloc, ref_obj = reference_local_search(
        opt, tasks, cands, list(plan_idx), alloc, obj, ctx, ref_perf
    )
    got_idx, got_alloc, got_obj = opt._local_search(
        tasks, cands, list(plan_idx), alloc, obj, ctx, got_perf
    )

    # bit for bit the per-option loop's result
    assert got_idx == ref_idx
    assert got_alloc.assignment == ref_alloc.assignment
    assert np.array_equal(_bits(got_alloc.compute_shares), _bits(ref_alloc.compute_shares))
    assert np.array_equal(_bits(got_alloc.bandwidth_shares), _bits(ref_alloc.bandwidth_shares))
    assert _bits(got_obj) == _bits(ref_obj)
    # the same (task, placement) rankings; never more share or pricing work
    assert got_perf.candidate_evals == ref_perf.candidate_evals
    assert got_perf.latency_evals <= ref_perf.latency_evals
    assert got_perf.allocate_calls <= ref_perf.allocate_calls
    assert got_perf.allocate_group_solves <= ref_perf.allocate_group_solves

    # the objective never increases, and the incremental state is the state
    # a from-scratch solve of the result gives
    assert got_obj <= obj
    full = ctx.allocator.solve(got_idx, got_alloc.assignment)
    assert np.array_equal(_bits(full.compute_shares), _bits(got_alloc.compute_shares))
    assert np.array_equal(_bits(full.bandwidth_shares), _bits(got_alloc.bandwidth_shares))
    assert _bits(opt._objective(tasks, cands, got_idx, full, ctx)) == _bits(got_obj)

    # every task took its best strictly improving option (first on ties)
    spec_idx, spec_assign, spec_obj = spec_sweep(opt, tasks, cands, plan_idx, assignment, ctx)
    assert (got_idx, got_alloc.assignment) == (spec_idx, spec_assign)
    assert _bits(got_obj) == _bits(spec_obj)
