"""One latency model: candidate ranking and solution pricing agree exactly.

Model surgery ranks a task's candidates with :meth:`CandidateSet.latencies`;
resource allocation prices whole solutions with :func:`solution_latencies`
and re-prices the rows a trial move touched with
:func:`solution_latency_task`.  All three call one kernel, so the value a
chosen candidate was ranked at is, bit for bit, the value its solution row is
priced at — for every placement (local or any server), share, queueing
setting and risk buffer.  A drift between them (a reordered sum, a squared
parameter computed differently) fails here before it can steer the search.
"""

import functools

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.allocation import (
    Allocation,
    IncrementalAllocator,
    solution_latencies,
    solution_latency_task,
)
from repro.core.candidates import build_candidates
from repro.core.risk import RiskConfig
from repro.devices.latency import LatencyModel
from repro.workloads.scenarios import build_scenario

LM = LatencyModel()

#: "solver-state" is the two-task fixture instance at the shares an
#: incremental allocator solves for it; the others are small scenarios
INSTANCES = ("solver-state", "smart_city", "industrial", "mobile_ar")

RISKS = st.one_of(
    st.none(),
    st.builds(
        RiskConfig,
        epsilon=st.floats(0.01, 0.3),
        buffer=st.sampled_from(["cantelli", "gaussian"]),
        service_noise=st.floats(0.0, 0.5),
    ),
)


@functools.lru_cache(maxsize=None)
def _scenario(name):
    cluster, tasks = build_scenario(name, num_tasks=6, num_servers=3, seed=7)
    return cluster, tasks, [build_candidates(t) for t in tasks]


def _bits(x):
    return np.asarray(x, dtype=np.float64).view(np.uint64)


@settings(max_examples=120, deadline=None)
@given(data=st.data())
def test_ranking_equals_pricing(data, request):
    name = data.draw(st.sampled_from(INSTANCES), label="instance")
    if name == "solver-state":
        cluster = request.getfixturevalue("small_cluster")
        tasks = request.getfixturevalue("small_tasks")
        cands = request.getfixturevalue("small_candidates")
    else:
        cluster, tasks, cands = _scenario(name)
    n, m = len(tasks), cluster.num_servers
    if name == "solver-state":
        plan_idx = [len(c) // 2 for c in cands]
        alloc = IncrementalAllocator(tasks, cands, cluster, LM).solve(plan_idx, [0, 1])
    else:
        plan_idx = [data.draw(st.integers(0, len(c) - 1)) for c in cands]
        assignment = [data.draw(st.none() | st.integers(0, m - 1)) for _ in tasks]
        shares = st.lists(st.floats(1e-3, 1.0), min_size=n, max_size=n)
        alloc = Allocation(assignment, data.draw(shares), data.draw(shares))
    queueing = data.draw(st.booleans(), label="include_queueing")
    risk = data.draw(RISKS, label="risk")
    kw = dict(include_queueing=queueing, overload="penalty", risk=risk)

    priced = solution_latencies(tasks, cands, plan_idx, alloc, cluster, LM, **kw)

    # the trial-move entry prices any subset of rows, in any order, the same
    rows = data.draw(st.permutations(range(n)).map(lambda p: list(p[: max(1, n // 2)])))
    sub = solution_latency_task(rows, tasks, cands, plan_idx, alloc, cluster, LM, **kw)
    assert np.array_equal(_bits(sub), _bits(priced[rows]))

    for i, task in enumerate(tasks):
        s = alloc.assignment[i]
        placement = {}
        if s is not None:
            server = cluster.servers[s]
            placement = dict(
                server=server,
                link=cluster.link(task.device_name, server.name),
                compute_share=float(alloc.compute_shares[i]),
                bandwidth_share=float(alloc.bandwidth_shares[i]),
            )
        ranked = cands[i].latencies(
            cluster.by_name(task.device_name),
            LM,
            arrival_rate=task.arrival_rate if queueing else None,
            risk=risk,
            **placement,
        )
        j = plan_idx[i]
        assert _bits(ranked[j]) == _bits(priced[i]), (task.name, j, s, ranked[j], priced[i])
