"""Dense affinity reference: the full-sweep index, homing, stitch and
migration round the sparse control plane is checked against.

Production (:mod:`repro.core.sharding`, :mod:`repro.core.coordinator`) runs
one implementation of each step.  This module keeps the original
O(tasks × servers) versions as an oracle:

- :class:`DenseAffinityIndex` — dedup keys carry the full per-server link-id
  row (never the topology's row fingerprint) and :meth:`foreign_mins`
  reduces a masked copy of the bound matrix per home shard;
- :func:`home_tasks` — a per-task sort of the shard scores;
- :class:`DenseShardPlan` — per-shard task lists by one scan per shard;
- :func:`assemble` — identity scan then ``list.index`` per task;
- :func:`migration_round` — a Python-loop screen and O(tasks) member scans
  per trial move.

:func:`dense_affinity` swaps these in for the names the coordinator
resolves (the way ``perfbench/layers.py`` installs its tracer), so a whole
``solve_sharded`` / ``resolve_dirty`` runs through the dense pieces;
:func:`solve_sharded_dense` is the one-call form.  Plans, migration
histories and work counters must equal production's bit for bit.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional, Tuple

import numpy as np

from repro.core import coordinator
from repro.core.allocation import solution_latency_task
from repro.core.candidates import CandidateSet
from repro.core.sharding import AffinityIndex, ShardPlan, partition_servers
from repro.devices.latency import LatencyModel
from repro.errors import ConfigError


class DenseAffinityIndex(AffinityIndex):
    """The full-sweep affinity index (same bounds and answers as production)."""

    def __init__(self, tasks, candsets, cluster, latency_model=None) -> None:
        if len(candsets) != len(tasks):
            raise ConfigError("tasks/candsets length mismatch")
        lm = latency_model or LatencyModel()
        m = cluster.num_servers
        keys: Dict[Tuple, int] = {}
        self.template_of: List[int] = []
        reps: List[int] = []
        for i, t in enumerate(tasks):
            device = cluster.by_name(t.device_name)
            links_part = tuple(
                id(cluster.link(t.device_name, srv.name)) for srv in cluster.servers
            )
            key = (
                id(candsets[i].features),
                device.peak_flops,
                tuple(sorted(device.efficiency.items())),
                device.overhead_s,
                links_part,
            )
            tpl = keys.get(key)
            if tpl is None:
                tpl = len(reps)
                keys[key] = tpl
                reps.append(i)
            self.template_of.append(tpl)
        self.bounds = np.empty((len(reps), m))
        for tpl, i in enumerate(reps):
            device = cluster.by_name(tasks[i].device_name)
            for s in range(m):
                server = cluster.servers[s]
                link = cluster.link(tasks[i].device_name, server.name)
                self.bounds[tpl, s] = float(
                    np.min(candsets[i].latencies(device, lm, server=server, link=link))
                )
        self.template_tasks: List[List[int]] = [[] for _ in reps]
        for i, tpl in enumerate(self.template_of):
            self.template_tasks[tpl].append(i)
        self._foreign_cache: Dict[Tuple, Tuple[np.ndarray, np.ndarray]] = {}
        self._orders_cache: Dict[Tuple, np.ndarray] = {}
        self._prefix: Optional[np.ndarray] = None
        self._prefix_k: int = 0

    def _foreign_mins(self, server_shards) -> Tuple[np.ndarray, np.ndarray]:
        m = self.bounds.shape[1]
        vals = []
        srvs = []
        for shard in server_shards:
            mask = np.ones(m, dtype=bool)
            mask[list(shard)] = False
            foreign = np.flatnonzero(mask)
            if foreign.size == 0:
                vals.append(np.full(self.bounds.shape[0], np.inf))
                srvs.append(np.full(self.bounds.shape[0], -1))
                continue
            sub = self.bounds[:, foreign]
            vals.append(sub.min(axis=1))
            srvs.append(foreign[sub.argmin(axis=1)])
        return np.stack(vals, axis=1), np.stack(srvs, axis=1)


def home_tasks(
    tasks, candsets, cluster, server_shards, latency_model=None, affinity=None
) -> Tuple[int, ...]:
    """Capacity-bounded best-affinity homing by a per-task sort of the
    shard scores (ties toward the lower shard index)."""
    if len(candsets) != len(tasks):
        raise ConfigError("tasks/candsets length mismatch")
    n = len(tasks)
    m = cluster.num_servers
    k = len(server_shards)
    caps = [max(1, -(-n * len(shard) // m)) for shard in server_shards]
    loads = [0] * k
    index = affinity or DenseAffinityIndex(tasks, candsets, cluster, latency_model)
    shard_scores, _ = index.shard_mins(server_shards)
    out: List[int] = []
    for i in range(n):
        scores = shard_scores[index.template_of[i]]
        order = sorted(range(k), key=lambda j: (scores[j], j))
        chosen = next((j for j in order if loads[j] < caps[j]), None)
        if chosen is None:  # all caps hit (rounding): least relatively loaded
            chosen = min(range(k), key=lambda j: (loads[j] / caps[j], j))
        loads[chosen] += 1
        out.append(chosen)
    return tuple(out)


class DenseShardPlan(ShardPlan):
    """A :class:`ShardPlan` whose per-shard task lists cost one scan each."""

    def tasks_of(self, shard: int) -> List[int]:
        return [i for i, s in enumerate(self.task_shard) if s == shard]

    def tasks_by_shard(self) -> List[List[int]]:
        return [self.tasks_of(s) for s in range(self.num_shards)]


def make_shard_plan(
    tasks, candsets, cluster, shards, shard_by="contiguous",
    latency_model=None, affinity=None,
) -> ShardPlan:
    server_shards = partition_servers(cluster.num_servers, shards, shard_by)
    if shards == 1:
        task_shard: Tuple[int, ...] = (0,) * len(tasks)
    else:
        task_shard = home_tasks(
            tasks, candsets, cluster, server_shards, latency_model, affinity
        )
    return DenseShardPlan(server_shards, task_shard, shard_by)


def assemble(tasks, candsets, shard_plan, shard_tasks, results, prior=None):
    """Stitch by an identity scan, then ``list.index``, per task."""
    out_sets = list(candsets)
    plan_idx: List[int] = [0] * len(tasks)
    assignment: List[Optional[int]] = [None] * len(tasks)
    for s, ids in enumerate(shard_tasks):
        res = results[s]
        if res is None and prior is None:
            continue
        plan = prior if res is None else res.plan
        for i in ids:
            name = tasks[i].name
            srv = plan.assignment[name]
            if res is not None and srv is not None:
                srv = shard_plan.server_shards[s][srv]
            assignment[i] = srv
            feats = plan.features[name]
            flist = out_sets[i].features
            for j, f in enumerate(flist):
                if f is feats:
                    plan_idx[i] = j
                    break
            else:
                try:
                    plan_idx[i] = flist.index(feats)
                except ValueError:
                    cs = out_sets[i]
                    out_sets[i] = CandidateSet(cs.task, list(cs.features) + [feats])
                    plan_idx[i] = len(cs.features)
    return out_sets, plan_idx, assignment


class MigrationState(coordinator._MigrationState):
    """Carries the objective and index the dense round reads directly."""

    def __init__(self, tasks, objective, affinity, assignment) -> None:
        super().__init__(tasks, objective, affinity, assignment)
        self.objective, self.affinity = objective, affinity


def migration_round(
    tasks, candsets, plan_idx, alloc, base_lat, obj, cluster, lm, cfg,
    shard_plan, task_shard, inc, stages, foreign_val, foreign_srv, counters,
    state,
):
    """One migration round: Python-loop screen, O(tasks) scans per trial."""
    n = len(tasks)
    hyst = cfg.migration_hysteresis
    affinity, objective = state.affinity, state.objective

    shard_of_server = {}
    for sh, ids in enumerate(shard_plan.server_shards):
        for s in ids:
            shard_of_server[s] = sh

    ranked: List[Tuple[float, int, int]] = []  # (-gain, task, server)
    for i in range(n):
        home = task_shard[i]
        tpl = affinity.template_of[i]
        best_bound = float(foreign_val[tpl, home])
        best_s = int(foreign_srv[tpl, home])
        if best_s < 0:
            continue
        margin = hyst * max(abs(base_lat[i]), 1e-12)
        if best_bound < base_lat[i] - margin:
            ranked.append((best_bound - base_lat[i], i, best_s))
    ranked.sort(key=lambda t: (t[0], t[1]))
    trials = ranked[: max(8, n // 64)]

    accepted = 0
    assignment = list(alloc.assignment)
    for _, i, target in trials:
        current = assignment[i]
        if current == target:
            continue
        trial_assign = list(assignment)
        trial_assign[i] = target
        prov = inc.update(alloc, plan_idx, trial_assign, (i,), counters)
        device = cluster.by_name(tasks[i].device_name)
        server = cluster.servers[target]
        link = cluster.link(tasks[i].device_name, server.name)
        rate = tasks[i].arrival_rate if cfg.include_queueing else None
        lat_vec = candsets[i].latencies(
            device, lm, server=server, link=link,
            compute_share=float(prov.compute_shares[i]),
            bandwidth_share=float(prov.bandwidth_shares[i]),
            arrival_rate=rate,
            risk=cfg.risk,
        )
        counters.candidate_evals += 1
        j = int(np.argmin(lat_vec))
        if not np.isfinite(lat_vec[j]):
            continue
        trial_idx = list(plan_idx)
        trial_idx[i] = j
        if j == plan_idx[i]:
            trial_alloc = prov
        else:
            trial_alloc = inc.update(prov, trial_idx, trial_assign, (i,), counters)
        affected = [
            t
            for t, a in enumerate(assignment)
            if t == i or (a is not None and (a == current or a == target))
        ]
        trial_lat = base_lat.copy()
        trial_lat[affected] = solution_latency_task(
            affected, tasks, candsets, trial_idx, trial_alloc, cluster, lm,
            include_queueing=cfg.include_queueing, overload="penalty",
            risk=cfg.risk, stages=stages,
        )
        counters.latency_evals += len(affected)
        trial_obj = objective.evaluate(trial_lat, tasks)
        if trial_obj < obj - hyst * max(abs(obj), 1e-12):
            obj = trial_obj
            plan_idx = trial_idx
            alloc = trial_alloc
            base_lat = trial_lat
            assignment[i] = target
            task_shard[i] = shard_of_server[target]
            accepted += 1
    return accepted, obj, base_lat, plan_idx, alloc


#: coordinator name -> dense stand-in
SWAPS = {
    "AffinityIndex": DenseAffinityIndex,
    "make_shard_plan": make_shard_plan,
    "_assemble": assemble,
    "_MigrationState": MigrationState,
    "_migration_round": migration_round,
}


@contextmanager
def dense_affinity() -> Iterator[None]:
    """Run the coordinator through the dense pieces inside the block."""
    saved = {name: getattr(coordinator, name) for name in SWAPS}
    try:
        for name, dense in SWAPS.items():
            setattr(coordinator, name, dense)
        yield
    finally:
        for name, original in saved.items():
            setattr(coordinator, name, original)


def solve_sharded_dense(*args, **kwargs) -> "coordinator.ShardedResult":
    """:func:`~repro.core.coordinator.solve_sharded` through the dense pieces."""
    with dense_affinity():
        return coordinator.solve_sharded(*args, **kwargs)
