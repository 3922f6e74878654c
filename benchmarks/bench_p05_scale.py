"""P5 scale bench: the control plane at 10k / 32k / 100k tasks.

The PR 9 scaling work (sparse affinity index, template-compressed homing,
incremental shard re-solve) targets exactly these sizes, so this file
documents the wall times the README/ROADMAP scaling section quotes:

- ``AffinityIndex`` build — sub-O(tasks × servers);
- capacity-bounded homing through the shared index;
- a full ``solve_sharded`` (the per-shard descents dominate; the
  coordinator's own overhead is what the sparse index removed);
- ``resolve_dirty`` of a single drifted shard against that solve — the
  online controller's O(dirty) control action.

Every stage is timed once (``pedantic`` with one round): these are
second-scale runs, not microbenchmarks.
"""

import dataclasses

import pytest

from repro.core.candidates import build_candidates
from repro.core.coordinator import resolve_dirty, solve_sharded
from repro.core.joint import JointSolverConfig
from repro.core.sharding import AffinityIndex, home_tasks, partition_servers
from repro.workloads.scenarios import build_scenario

#: (tasks, servers, shards) — 100k rides on fewer servers so the instance
#: stays buildable in CI-class memory
SCALES = [(10_000, 128, 64), (32_768, 128, 128), (100_000, 64, 64)]


def _config(shards):
    return JointSolverConfig(
        shards=shards,
        shard_by="interleave",
        migration_rounds=3,
        local_search=False,
        refine_thresholds=False,
    )


@pytest.fixture(scope="module", params=SCALES, ids=["10k", "32k", "100k"])
def scale_instance(request):
    n, m, k = request.param
    cluster, tasks = build_scenario(
        "smart_city", num_tasks=n, num_servers=m, server_spread=4.0, seed=0
    )
    # light per-device load keeps the big instances feasible end to end
    tasks = [dataclasses.replace(t, arrival_rate=t.arrival_rate * 0.1) for t in tasks]
    cands = [build_candidates(t) for t in tasks]
    return {
        "n": n, "m": m, "k": k,
        "cluster": cluster, "tasks": tasks, "cands": cands,
    }


def _annotate(benchmark, inst, elapsed_attr=None):
    benchmark.extra_info["tasks"] = inst["n"]
    benchmark.extra_info["servers"] = inst["m"]
    benchmark.extra_info["shards"] = inst["k"]


def test_index_build(benchmark, scale_instance):
    inst = scale_instance

    def build():
        return AffinityIndex(inst["tasks"], inst["cands"], inst["cluster"])

    index = benchmark.pedantic(build, rounds=1, iterations=1)
    assert index.bounds.shape[1] == inst["m"]
    _annotate(benchmark, inst)
    benchmark.extra_info["templates"] = index.bounds.shape[0]


def test_homing(benchmark, scale_instance):
    inst = scale_instance
    shards = partition_servers(inst["m"], inst["k"], "interleave")
    index = AffinityIndex(inst["tasks"], inst["cands"], inst["cluster"])

    homing = benchmark.pedantic(
        lambda: home_tasks(
            inst["tasks"], inst["cands"], inst["cluster"], shards, affinity=index
        ),
        rounds=1,
        iterations=1,
    )
    assert len(homing) == inst["n"]
    _annotate(benchmark, inst)


def test_sharded_solve(benchmark, scale_instance):
    inst = scale_instance
    cfg = _config(inst["k"])

    result = benchmark.pedantic(
        lambda: solve_sharded(
            inst["tasks"], inst["cluster"], config=cfg,
            candidates=inst["cands"], seed=0,
        ),
        rounds=1,
        iterations=1,
    )
    assert len(result.plan.assignment) == inst["n"]
    inst["prior"] = result  # reused by the resolve_dirty bench below
    _annotate(benchmark, inst)
    benchmark.extra_info["index_build_s"] = result.perf.index_build_s
    benchmark.extra_info["migrations"] = sum(result.migration_history or [0])


def test_resolve_dirty_one_shard(benchmark, scale_instance):
    inst = scale_instance
    prior = inst.get("prior") or solve_sharded(
        inst["tasks"], inst["cluster"], config=_config(inst["k"]),
        candidates=inst["cands"], seed=0,
    )

    result = benchmark.pedantic(
        lambda: resolve_dirty(
            inst["tasks"], inst["cluster"], prior, [0],
            config=_config(inst["k"]), candidates=inst["cands"], seed=0,
        ),
        rounds=1,
        iterations=1,
    )
    assert len(result.plan.assignment) == inst["n"]
    _annotate(benchmark, inst)
    benchmark.extra_info["resolve_dirty_s"] = result.perf.resolve_dirty_s
