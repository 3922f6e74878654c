"""Shard plans, shard views, and task homing."""

import pytest

from repro.core.sharding import (
    AffinityIndex,
    ShardPlan,
    ShardView,
    home_tasks,
    make_shard_plan,
    partition_servers,
)
from repro.errors import ConfigError


class TestPartitionServers:
    def test_contiguous_blocks(self):
        assert partition_servers(6, 3) == ((0, 1), (2, 3), (4, 5))

    def test_contiguous_uneven(self):
        # remainder goes to the leading shards, sizes differ by at most one
        assert partition_servers(7, 3) == ((0, 1, 2), (3, 4), (5, 6))

    def test_interleave_round_robin(self):
        assert partition_servers(6, 2, "interleave") == ((0, 2, 4), (1, 3, 5))

    def test_covers_every_server_once(self):
        for shard_by in ("contiguous", "interleave"):
            parts = partition_servers(10, 4, shard_by)
            flat = [s for shard in parts for s in shard]
            assert sorted(flat) == list(range(10))

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(num_servers=4, shards=0),
            dict(num_servers=4, shards=5),
            dict(num_servers=4, shards=2, shard_by="hash"),
        ],
    )
    def test_invalid(self, kwargs):
        with pytest.raises(ConfigError):
            partition_servers(**kwargs)


class TestShardPlan:
    def test_round_trips_tasks(self):
        plan = ShardPlan(((0, 1), (2,)), (0, 1, 0, 1))
        assert plan.num_shards == 2
        assert plan.num_servers == 3
        assert plan.tasks_by_shard() == [[0, 2], [1, 3]]
        assert plan.shard_of_server(2) == 1

    def test_with_task_shard(self):
        plan = ShardPlan(((0,), (1,)), (0, 0))
        moved = plan.with_task_shard((0, 1))
        assert moved.task_shard == (0, 1)
        assert moved.server_shards == plan.server_shards

    @pytest.mark.parametrize(
        "server_shards,task_shard",
        [
            ((), ()),  # no shards
            (((0,), ()), ()),  # empty shard
            (((0, 1), (1,)), ()),  # duplicate server
            (((0,), (2,)), ()),  # gap: not a partition of 0..1
            (((0,), (1,)), (2,)),  # task homed to unknown shard
        ],
    )
    def test_invalid(self, server_shards, task_shard):
        with pytest.raises(ConfigError):
            ShardPlan(server_shards, task_shard)


class TestShardView:
    def test_subsets_without_copying(self, small_cluster):
        view = ShardView(small_cluster, (1,))
        assert view.num_servers == 1
        assert view.servers[0] is small_cluster.servers[1]
        # name/link lookups delegate to the parent's validated maps
        assert view.by_name("dev0") is small_cluster.by_name("dev0")
        assert view.link("dev0", view.servers[0].name) is small_cluster.link(
            "dev0", small_cluster.servers[1].name
        )

    def test_local_global_round_trip(self, small_cluster):
        view = ShardView(small_cluster, (1, 0))
        assert view.to_global(0) == 1
        assert view.to_local(1) == 0
        assert view.to_global(None) is None
        assert view.to_local(None) is None
        assert view.server_index(small_cluster.servers[0].name) == 1

    def test_rejects_foreign_server(self, small_cluster):
        view = ShardView(small_cluster, (0,))
        with pytest.raises(ConfigError):
            view.to_local(1)

    @pytest.mark.parametrize("ids", [(), (0, 0), (5,), (-1,)])
    def test_invalid_ids(self, small_cluster, ids):
        with pytest.raises(ConfigError):
            ShardView(small_cluster, ids)


class TestHoming:
    def test_every_task_homed(self, small_cluster, small_tasks, small_candidates):
        shards = partition_servers(small_cluster.num_servers, 2)
        homing = home_tasks(small_tasks, small_candidates, small_cluster, shards)
        assert len(homing) == len(small_tasks)
        assert all(0 <= h < 2 for h in homing)

    def test_deterministic(self, small_cluster, small_tasks, small_candidates):
        shards = partition_servers(small_cluster.num_servers, 2)
        a = home_tasks(small_tasks, small_candidates, small_cluster, shards)
        b = home_tasks(small_tasks, small_candidates, small_cluster, shards)
        assert a == b

    def test_capacity_cap_spreads_load(self, small_cluster, small_tasks, small_candidates):
        # both tasks prefer the GPU shard, but the per-shard cap
        # (ceil(2 * 1/2) = 1) forces the second onto the other shard
        shards = partition_servers(small_cluster.num_servers, 2)
        homing = home_tasks(small_tasks, small_candidates, small_cluster, shards)
        assert sorted(homing) == [0, 1]

    def test_affinity_index_reuse_matches(
        self, small_cluster, small_tasks, small_candidates
    ):
        shards = partition_servers(small_cluster.num_servers, 2)
        idx = AffinityIndex(small_tasks, small_candidates, small_cluster)
        assert home_tasks(
            small_tasks, small_candidates, small_cluster, shards, affinity=idx
        ) == home_tasks(small_tasks, small_candidates, small_cluster, shards)


class TestAffinityIndex:
    def test_templates_deduplicate_shared_candidates(
        self, small_cluster, small_tasks, small_candidates
    ):
        # duplicating a task (same candidate set, same device) must not grow
        # the template count or the bounds matrix
        tasks = list(small_tasks) + [small_tasks[0]]
        cands = list(small_candidates) + [small_candidates[0]]
        idx = AffinityIndex(tasks, cands, small_cluster)
        base = AffinityIndex(small_tasks, small_candidates, small_cluster)
        assert idx.bounds.shape == base.bounds.shape
        assert idx.template_of[-1] == idx.template_of[0]

    def test_foreign_excludes_home_shard(
        self, small_cluster, small_tasks, small_candidates
    ):
        idx = AffinityIndex(small_tasks, small_candidates, small_cluster)
        shards = partition_servers(small_cluster.num_servers, 2)
        fval, fsrv = idx.foreign_mins(shards)
        sval, ssrv = idx.shard_mins(shards)
        for tpl in range(idx.bounds.shape[0]):
            for sh, shard in enumerate(shards):
                assert fsrv[tpl, sh] not in shard
                assert ssrv[tpl, sh] in shard
                assert fval[tpl, sh] == min(
                    idx.bounds[tpl, s]
                    for s in range(small_cluster.num_servers)
                    if s not in shard
                )


class TestMakeShardPlan:
    def test_single_shard_is_trivial(self, small_cluster, small_tasks, small_candidates):
        plan = make_shard_plan(small_tasks, small_candidates, small_cluster, 1)
        assert plan.num_shards == 1
        assert plan.task_shard == (0,) * len(small_tasks)

    def test_multi_shard(self, small_cluster, small_tasks, small_candidates):
        plan = make_shard_plan(
            small_tasks, small_candidates, small_cluster, 2, "interleave"
        )
        assert plan.num_shards == 2
        assert plan.shard_by == "interleave"
