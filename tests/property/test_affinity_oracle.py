"""Production affinity index and coordinator ≡ the dense reference.

Every instance is drawn from a scenario and seed with up to 48 tasks on up to
8 servers, 2–4 shards of either partition strategy, 0–2 migration rounds and
risk off or Cantelli-buffered.  Two switches defeat the template merging
scenario presets enjoy: heterogeneous per-(device, server) access links
(so ``StarTopology.row_key`` falls back to per-device fingerprints) and
``cache=False`` candidate pipelines (so no two tasks share a features list).

For each instance the bounds, the foreign-mins table, the homing and a full
``solve_sharded`` — then a ``resolve_dirty`` of one shard — through the
dense oracle (``tests/oracles/dense_affinity.py``) must equal production:
plan, objective history, migration history, homing and every
:class:`~repro.profiling.counters.PerfCounters` count except wall time.
"""

import dataclasses

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.candidates import build_candidates
from repro.core.coordinator import resolve_dirty, solve_sharded
from repro.core.joint import JointSolverConfig
from repro.core.risk import RiskConfig
from repro.core.sharding import AffinityIndex, home_tasks, partition_servers
from repro.devices.cluster import EdgeCluster
from repro.network.link import Link
from repro.network.topology import StarTopology
from repro.units import mbps
from repro.workloads.scenarios import build_scenario
from tests.oracles import dense_affinity as dense


def _hetero_links(cluster, seed):
    """The same devices and servers behind one distinct link per pair."""
    rng = np.random.default_rng(seed)
    links = {
        (d.name, s.name): Link(
            mbps(float(rng.uniform(10.0, 80.0))),
            rtt_s=float(rng.uniform(2e-3, 20e-3)),
        )
        for d in cluster.end_devices
        for s in cluster.servers
    }
    topo = StarTopology(
        [d.name for d in cluster.end_devices],
        [s.name for s in cluster.servers],
        links,
    )
    return EdgeCluster(list(cluster.end_devices), list(cluster.servers), topo)


@st.composite
def instances(draw):
    scenario = draw(st.sampled_from(["smart_city", "industrial", "mobile_ar"]))
    seed = draw(st.integers(0, 2**16))
    n = draw(st.integers(4, 48))
    m = draw(st.integers(2, 8))
    cluster, tasks = build_scenario(scenario, num_tasks=n, num_servers=m, seed=seed)
    if draw(st.booleans()):
        cluster = _hetero_links(cluster, seed)
    cache = draw(st.booleans())
    cands = [build_candidates(t, cache=cache) for t in tasks]
    cfg = JointSolverConfig(
        shards=draw(st.integers(2, min(4, m))),
        shard_by=draw(st.sampled_from(["contiguous", "interleave"])),
        migration_rounds=draw(st.integers(0, 2)),
        risk=draw(st.sampled_from([None, RiskConfig(buffer="cantelli")])),
    )
    return cluster, tasks, cands, cfg, seed


def _counts(perf):
    return {
        f.name: getattr(perf, f.name)
        for f in dataclasses.fields(perf)
        if not f.name.endswith("_s")
    }


def _assert_same_result(prod, ref):
    assert prod.plan == ref.plan
    assert prod.history == ref.history
    assert prod.migration_history == ref.migration_history
    assert prod.shard_plan.task_shard == ref.shard_plan.task_shard
    assert prod.iterations == ref.iterations
    assert prod.converged == ref.converged
    assert _counts(prod.perf) == _counts(ref.perf)


@settings(
    max_examples=16,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(inst=instances())
def test_production_matches_dense_oracle(inst):
    cluster, tasks, cands, cfg, seed = inst
    server_shards = partition_servers(cluster.num_servers, cfg.shards, cfg.shard_by)

    sp = AffinityIndex(tasks, cands, cluster)
    de = dense.DenseAffinityIndex(tasks, cands, cluster)
    fv_s, fs_s = sp.foreign_mins(server_shards)
    fv_d, fs_d = de.foreign_mins(server_shards)
    for i in range(len(tasks)):
        ts, td = sp.template_of[i], de.template_of[i]
        np.testing.assert_array_equal(sp.bounds[ts], de.bounds[td])
        np.testing.assert_array_equal(fv_s[ts], fv_d[td])
        np.testing.assert_array_equal(fs_s[ts], fs_d[td])
    assert home_tasks(
        tasks, cands, cluster, server_shards, affinity=sp
    ) == dense.home_tasks(tasks, cands, cluster, server_shards, affinity=de)

    prod = solve_sharded(tasks, cluster, config=cfg, candidates=cands, seed=seed)
    ref = dense.solve_sharded_dense(
        tasks, cluster, config=cfg, candidates=cands, seed=seed
    )
    _assert_same_result(prod, ref)

    dirty = [seed % cfg.shards]
    prod_re = resolve_dirty(
        tasks, cluster, prod, dirty, config=cfg, candidates=cands, seed=seed
    )
    with dense.dense_affinity():
        ref_re = resolve_dirty(
            tasks, cluster, ref, dirty, config=cfg, candidates=cands, seed=seed
        )
    _assert_same_result(prod_re, ref_re)
