"""Hypothesis properties of the sharded control plane.

Two invariants the coordinator's correctness rests on:

- per-shard :class:`PerfCounters` merge is order-independent (serial and
  parallel shard fan-out must report byte-identical counters regardless of
  completion order);
- a shard plan is a *partition*: every server in exactly one shard, every
  task homed to exactly one shard — and migration re-homing preserves that.
"""

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.sharding import ShardPlan, partition_servers
from repro.errors import ConfigError
from repro.profiling.counters import PerfCounters

_COUNTER_FIELDS = [f.name for f in dataclasses.fields(PerfCounters)]


@st.composite
def counters(draw):
    values = {
        name: (
            draw(st.floats(0.0, 100.0, allow_nan=False))
            if name.endswith("_s")  # wall-clock timer fields are floats
            else draw(st.integers(0, 10_000))
        )
        for name in _COUNTER_FIELDS
    }
    return PerfCounters(**values)


@given(
    per_shard=st.lists(counters(), min_size=1, max_size=8),
    seed=st.randoms(use_true_random=False),
)
def test_counter_merge_order_independent(per_shard, seed):
    keyed = dict(enumerate(per_shard))
    merged = PerfCounters.merged(keyed)
    shuffled_keys = list(keyed)
    seed.shuffle(shuffled_keys)
    remerged = PerfCounters.merged({k: keyed[k] for k in shuffled_keys})
    assert merged == remerged


@given(
    per_shard=st.lists(counters(), min_size=1, max_size=6),
)
def test_counter_merge_equals_field_sums(per_shard):
    merged = PerfCounters.merged(dict(enumerate(per_shard)))
    for name in _COUNTER_FIELDS:
        assert getattr(merged, name) == pytest.approx(
            sum(getattr(c, name) for c in per_shard)
        )


@given(
    num_servers=st.integers(1, 64),
    shards=st.integers(1, 64),
    shard_by=st.sampled_from(["contiguous", "interleave"]),
)
def test_partition_covers_every_server_once(num_servers, shards, shard_by):
    if shards > num_servers:
        with pytest.raises(ConfigError):
            partition_servers(num_servers, shards, shard_by)
        return
    parts = partition_servers(num_servers, shards, shard_by)
    flat = [s for shard in parts for s in shard]
    assert sorted(flat) == list(range(num_servers))
    assert all(shard for shard in parts)


@settings(max_examples=50)
@given(
    num_servers=st.integers(2, 32),
    shards=st.integers(2, 8),
    num_tasks=st.integers(1, 64),
    data=st.data(),
)
def test_migration_rehoming_keeps_partition(num_servers, shards, num_tasks, data):
    """Any sequence of migration re-homings keeps every task in exactly one
    (valid) shard — the coordinator's ``with_task_shard`` path."""
    if shards > num_servers:
        return
    server_shards = partition_servers(num_servers, shards, "interleave")
    homing = data.draw(
        st.lists(
            st.integers(0, shards - 1), min_size=num_tasks, max_size=num_tasks
        )
    )
    plan = ShardPlan(server_shards, tuple(homing))
    moves = data.draw(
        st.lists(
            st.tuples(
                st.integers(0, num_tasks - 1), st.integers(0, shards - 1)
            ),
            max_size=16,
        )
    )
    task_shard = list(plan.task_shard)
    for task, target in moves:
        task_shard[task] = target
    rehomed = plan.with_task_shard(task_shard)
    # every task homed to exactly one existing shard...
    assert len(rehomed.task_shard) == num_tasks
    assert all(0 <= s < shards for s in rehomed.task_shard)
    # ...and tasks_by_shard() tiles the task set exactly once
    seen = sorted(i for ids in rehomed.tasks_by_shard() for i in ids)
    assert seen == list(range(num_tasks))
    # the server partition is untouched by re-homing
    assert rehomed.server_shards == plan.server_shards
