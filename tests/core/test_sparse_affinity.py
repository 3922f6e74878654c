"""Affinity index ≡ dense reference, nested sharding, resolve_dirty.

The index's fast paths (top-k shortlists, template compression,
shortlist-walk foreign mins, cursor homing) promise *bit-identical*
decisions to the dense reference in ``tests/oracles/dense_affinity.py``.
The fixed instance here is deliberately non-deduplicating — per-device
heterogeneous access links (so ``StarTopology.row_key`` falls back to
per-device fingerprints) and ``cache=False`` candidate pipelines (so no two
tasks share a features list) — to exercise the index without the template
merging that scenario presets enjoy; ``tests/property/test_affinity_oracle.py``
draws many more such instances.
"""

import dataclasses

import numpy as np
import pytest

from repro.core.candidates import build_candidates
from repro.core.coordinator import resolve_dirty, solve_sharded
from repro.core.joint import JointSolverConfig
from repro.core.plan import TaskSpec
from repro.core.sharding import AffinityIndex, home_tasks
from repro.devices.cluster import EdgeCluster
from repro.devices.presets import SERVER_PRESETS, device_preset
from repro.errors import ConfigError
from repro.network.link import Link
from repro.network.topology import StarTopology
from repro.units import mbps
from repro.workloads.scenarios import build_scenario
from tests.oracles import dense_affinity as dense


@pytest.fixture(scope="module")
def hetero_instance(me_resnet18, me_alexnet):
    """3 devices × 4 servers, every access link distinct, unique candsets."""
    pi4 = device_preset("raspberry_pi4")
    devices = [dataclasses.replace(pi4, name=f"dev{i}") for i in range(3)]
    servers = [
        dataclasses.replace(
            SERVER_PRESETS["edge_gpu" if j % 2 else "edge_cpu"], name=f"srv{j}"
        )
        for j in range(4)
    ]
    links = {
        (d.name, s.name): Link(mbps(18 + 9 * i + 4 * j), rtt_s=(4 + 2 * i + j) * 1e-3)
        for i, d in enumerate(devices)
        for j, s in enumerate(servers)
    }
    topo = StarTopology([d.name for d in devices], [s.name for s in servers], links)
    cluster = EdgeCluster(devices, servers, topo)
    models = [me_resnet18, me_alexnet]
    tasks = [
        TaskSpec(
            f"t{i}",
            models[i % 2],
            f"dev{i % 3}",
            deadline_s=0.2 + 0.03 * i,
            accuracy_floor=0.5,
            arrival_rate=1.5 + 0.5 * i,
        )
        for i in range(9)
    ]
    cands = [build_candidates(t, cache=False) for t in tasks]
    return cluster, tasks, cands


PARTITIONS = [((0, 1), (2, 3)), ((0, 2), (1,), (3,)), ((0,), (1,), (2,), (3,))]


class TestSparseDenseEquivalence:
    def test_row_key_falls_back_on_hetero_links(self, hetero_instance):
        cluster, _, _ = hetero_instance
        assert not cluster.topology.is_row_uniform
        keys = {cluster.topology.row_key(f"dev{i}") for i in range(3)}
        assert len(keys) == 3  # distinct fingerprints, no cross-device merge

    def test_no_dedup_one_template_per_task(self, hetero_instance):
        cluster, tasks, cands = hetero_instance
        sp = AffinityIndex(tasks, cands, cluster)
        assert sp.bounds.shape[0] == len(tasks)

    def test_bounds_identical(self, hetero_instance):
        cluster, tasks, cands = hetero_instance
        sp = AffinityIndex(tasks, cands, cluster)
        de = dense.DenseAffinityIndex(tasks, cands, cluster)
        for i in range(len(tasks)):
            np.testing.assert_array_equal(
                sp.bounds[sp.template_of[i]], de.bounds[de.template_of[i]]
            )

    @pytest.mark.parametrize("shards", PARTITIONS)
    def test_foreign_mins_identical(self, hetero_instance, shards):
        cluster, tasks, cands = hetero_instance
        sp = AffinityIndex(tasks, cands, cluster)
        de = dense.DenseAffinityIndex(tasks, cands, cluster)
        fv_s, fs_s = sp.foreign_mins(shards)
        fv_d, fs_d = de.foreign_mins(shards)
        for i in range(len(tasks)):
            np.testing.assert_array_equal(
                fv_s[sp.template_of[i]], fv_d[de.template_of[i]]
            )
            np.testing.assert_array_equal(
                fs_s[sp.template_of[i]], fs_d[de.template_of[i]]
            )

    @pytest.mark.parametrize("shards", PARTITIONS)
    def test_homing_identical(self, hetero_instance, shards):
        cluster, tasks, cands = hetero_instance
        sp = AffinityIndex(tasks, cands, cluster)
        de = dense.DenseAffinityIndex(tasks, cands, cluster)
        assert home_tasks(
            tasks, cands, cluster, shards, affinity=sp
        ) == dense.home_tasks(tasks, cands, cluster, shards, affinity=de)

    def test_solve_identical(self, hetero_instance):
        cluster, tasks, cands = hetero_instance
        cfg = JointSolverConfig(shards=2, migration_rounds=2)
        sp = solve_sharded(tasks, cluster, config=cfg, candidates=cands, seed=5)
        de = dense.solve_sharded_dense(
            tasks, cluster, config=cfg, candidates=cands, seed=5
        )
        assert sp.plan.assignment == de.plan.assignment
        assert sp.plan.features == de.plan.features
        assert sp.plan.latencies == de.plan.latencies
        assert sp.plan.compute_shares == de.plan.compute_shares
        assert sp.plan.bandwidth_shares == de.plan.bandwidth_shares
        assert sp.migration_history == de.migration_history
        assert sp.plan.objective_value == de.plan.objective_value


@pytest.fixture(scope="module")
def scenario_instance():
    cluster, tasks = build_scenario("smart_city", num_tasks=24, num_servers=8, seed=2)
    return cluster, tasks, [build_candidates(t) for t in tasks]


class TestNestedSharding:
    def test_invalid_config(self):
        with pytest.raises(ConfigError):
            JointSolverConfig(nested_shards=-1)

    def test_valid_plan_and_deterministic(self, scenario_instance):
        cluster, tasks, cands = scenario_instance
        cfg = JointSolverConfig(shards=2, nested_shards=2, migration_rounds=1)
        a = solve_sharded(tasks, cluster, config=cfg, candidates=cands, seed=1)
        b = solve_sharded(tasks, cluster, config=cfg, candidates=cands, seed=1)
        assert set(a.plan.assignment) == {t.name for t in tasks}
        assert all(np.isfinite(v) for v in a.plan.latencies.values())
        assert a.plan.assignment == b.plan.assignment
        assert a.plan.latencies == b.plan.latencies
        assert a.plan.objective_value == b.plan.objective_value

    def test_region_tasks_stay_in_region(self, scenario_instance):
        # nested racks only re-partition *within* a region: each task's final
        # server must still live in the shard its homing (plus migration)
        # assigned at the outer level
        cluster, tasks, cands = scenario_instance
        cfg = JointSolverConfig(shards=2, nested_shards=2, migration_rounds=0)
        r = solve_sharded(tasks, cluster, config=cfg, candidates=cands, seed=1)
        for i, t in enumerate(tasks):
            srv = r.plan.assignment[t.name]
            if srv is None:
                continue
            home = r.shard_plan.task_shard[i]
            assert srv in r.shard_plan.server_shards[home]


class TestResolveDirty:
    @pytest.fixture(scope="class")
    def prior(self, scenario_instance):
        cluster, tasks, cands = scenario_instance
        cfg = JointSolverConfig(shards=4, migration_rounds=2)
        return cfg, solve_sharded(
            tasks, cluster, config=cfg, candidates=cands, seed=3
        )

    def test_clean_shards_kept_by_identity(self, scenario_instance, prior):
        cluster, tasks, cands = scenario_instance
        cfg, before = prior
        after = resolve_dirty(
            tasks, cluster, before, [1], config=cfg, candidates=cands, seed=3
        )
        for i, t in enumerate(tasks):
            if before.shard_plan.task_shard[i] != 1:
                assert after.plan.assignment[t.name] == before.plan.assignment[t.name]
                assert after.plan.features[t.name] == before.plan.features[t.name]
        assert set(after.plan.assignment) == {t.name for t in tasks}
        assert after.perf.resolve_dirty_s > 0.0

    def test_deterministic(self, scenario_instance, prior):
        cluster, tasks, cands = scenario_instance
        cfg, before = prior
        a = resolve_dirty(
            tasks, cluster, before, [0, 2], config=cfg, candidates=cands, seed=3
        )
        b = resolve_dirty(
            tasks, cluster, before, [0, 2], config=cfg, candidates=cands, seed=3
        )
        assert a.plan.assignment == b.plan.assignment
        assert a.plan.latencies == b.plan.latencies
        assert a.plan.objective_value == b.plan.objective_value

    @pytest.mark.parametrize("nested", [0, 2])
    def test_all_dirty_reproduces_migrationless_fanout(
        self, scenario_instance, nested
    ):
        # with every shard dirty and the same seed, the delta path must
        # reproduce a fresh fan-out exactly (migration is never re-run, so
        # compare against a migration_rounds=0 solve) — a nested region
        # re-solves over its racks, as the fresh fan-out solved it
        cluster, tasks, cands = scenario_instance
        cfg = JointSolverConfig(shards=4, nested_shards=nested, migration_rounds=0)
        fresh = solve_sharded(tasks, cluster, config=cfg, candidates=cands, seed=3)
        re = resolve_dirty(
            tasks, cluster, fresh, [0, 1, 2, 3], config=cfg, candidates=cands, seed=3
        )
        assert re.plan.assignment == fresh.plan.assignment
        assert re.plan.features == fresh.plan.features
        assert re.plan.latencies == fresh.plan.latencies
        assert re.plan.compute_shares == fresh.plan.compute_shares
        assert re.plan.bandwidth_shares == fresh.plan.bandwidth_shares
        assert re.plan.objective_value == fresh.plan.objective_value

    def test_validation(self, scenario_instance, prior):
        cluster, tasks, cands = scenario_instance
        cfg, before = prior
        with pytest.raises(ConfigError):
            resolve_dirty(tasks, cluster, before, [], config=cfg, candidates=cands)
        with pytest.raises(ConfigError):
            resolve_dirty(tasks, cluster, before, [4], config=cfg, candidates=cands)
        with pytest.raises(ConfigError):
            resolve_dirty(tasks[:-1], cluster, before, [0], config=cfg)
