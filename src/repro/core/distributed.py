"""Distributed best-response offloading (the decentralized variant).

The centralized BCD solver assumes a coordinator that sees every task.  The
paper family's deployments also need a decentralized mechanism (LEIME's
"distributed offloading ... with close-to-optimal performance guarantee"):
each task is a selfish player choosing a *strategy* — (server or local,
surgery plan) — to minimize its own expected latency, given the congestion
the other players currently impose.

Congestion model: on each server, shares follow the same sqrt rule the
centralized allocator uses (this is what the platform would grant), so a
player evaluating a move computes the shares that *would* result if it
joined.  Because every improving move strictly decreases the mover's latency
and the share rule is symmetric, the finite strategy space admits a finite
improvement path; in practice a handful of rounds reach a pure Nash
equilibrium.  Experiment E8 measures its optimality gap against the
centralized solver and the exhaustive optimum; E17 uses it as the
decentralized arm of the control-plane comparison at 1k+ tasks.

**Scale.**  A player pricing an option only needs *its own* shares on the
target server/link, and the share problem decomposes per group, so the
engine below maintains group membership incrementally and re-solves only the
O(|group|)-sized groups an option touches — the same decomposition the
centralized :class:`~repro.core.allocation.IncrementalAllocator` exploits,
specialized to the game's join/leave pattern.  One best-response round costs
O(n · m · |group| + n · m sweeps) instead of the O(n² · m) full re-solves of
a naive implementation, which is what makes 1k–10k-player games terminate in
seconds.  Shares are computed with the same float-operation order as
:func:`~repro.core.allocation.allocate_shares`, and the final report is a
fresh full solve, so equilibrium plans remain directly comparable with the
centralized solver's.
"""

from __future__ import annotations

from bisect import insort
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.allocation import (
    Allocation,
    SolutionStages,
    _LazyLinkBW,
    allocate_shares,
    power_shares,
    solution_latencies,
)
from repro.core.candidates import CandidateSet, build_candidates
from repro.core.objectives import Objective
from repro.core.plan import JointPlan, TaskSpec
from repro.devices.cluster import EdgeCluster
from repro.devices.latency import LatencyModel
from repro.errors import ConfigError
from repro.rng import SeedLike, as_generator


@dataclass
class BestResponseResult:
    """Equilibrium plan plus game diagnostics."""

    plan: JointPlan
    rounds: int
    converged: bool  # True if a full round saw no improving move
    moves: int  # total accepted strategy changes
    history: List[float] = field(default_factory=list)  # objective after each round


class _GameShares:
    """Incrementally maintained sqrt-rule shares for the offloading game.

    Tracks, per server and per (device, server) access link, the sorted list
    of member tasks, and keeps the current share arrays consistent with that
    membership.  ``price_join`` answers "what shares would player ``i`` get
    on server ``s``" in O(|group|); ``move`` applies an accepted strategy
    change, re-solving only the groups the player leaves and joins.

    Group shares are solved with the same weight expressions and member
    (task-index) order as :func:`~repro.core.allocation.allocate_shares`, so
    the maintained arrays always equal what a full solve of the current
    state would produce.
    """

    def __init__(
        self,
        tasks: Sequence[TaskSpec],
        candsets: Sequence[CandidateSet],
        cluster: EdgeCluster,
        latency_model: LatencyModel,
        objective: Objective,
    ) -> None:
        n = len(tasks)
        self._candsets = candsets
        self._base_w = [objective.task_weight(t) * t.arrival_rate for t in tasks]
        self._srv_rate = [latency_model.throughput(s) for s in cluster.servers]
        self._dev = [t.device_name for t in tasks]
        self._link_bw = _LazyLinkBW(cluster)
        self._srv_members: Dict[int, List[int]] = {}
        self._link_members: Dict[Tuple[str, int], List[int]] = {}
        self.compute = np.ones(n)
        self.bandwidth = np.ones(n)

    # -- group kernels (float-op order matches allocate_shares) -------------

    def _srv_weights(self, members: Sequence[int], s: int, plan_idx: Sequence[int]) -> np.ndarray:
        rate = self._srv_rate[s]
        return np.array(
            [
                self._base_w[i] * self._candsets[i].srv_flops[plan_idx[i]] / rate
                for i in members
            ]
        )

    def _link_weights(
        self, members: Sequence[int], key: Tuple[str, int], plan_idx: Sequence[int]
    ) -> np.ndarray:
        bw = self._link_bw[key]
        return np.array(
            [
                self._base_w[i] * self._candsets[i].wire_bytes[plan_idx[i]] / bw
                for i in members
            ]
        )

    def _resolve_server(self, s: int, plan_idx: Sequence[int]) -> None:
        members = self._srv_members.get(s)
        if members:
            self.compute[members] = power_shares(self._srv_weights(members, s, plan_idx))

    def _resolve_link(self, key: Tuple[str, int], plan_idx: Sequence[int]) -> None:
        members = self._link_members.get(key)
        if members:
            self.bandwidth[members] = power_shares(self._link_weights(members, key, plan_idx))

    # -- public API ----------------------------------------------------------

    def price_join(
        self, i: int, s: int, plan_idx: Sequence[int]
    ) -> Tuple[float, float]:
        """Shares player ``i`` would receive if placed on server ``s``.

        ``plan_idx[i]`` is the plan the weight is priced under; the other
        members keep their current plans and membership.  Pure — no state
        changes.  (If ``i`` currently sits on ``s``, its current shares are
        returned for the given plan.)
        """
        members = self._srv_members.get(s, [])
        trial = members if i in members else sorted(members + [i])
        xw = self._srv_weights(trial, s, plan_idx)
        x = float(power_shares(xw)[trial.index(i)])
        key = (self._dev[i], s)
        lmembers = self._link_members.get(key, [])
        ltrial = lmembers if i in lmembers else sorted(lmembers + [i])
        yw = self._link_weights(ltrial, key, plan_idx)
        y = float(power_shares(yw)[ltrial.index(i)])
        return x, y

    def move(
        self,
        i: int,
        old: Optional[int],
        new: Optional[int],
        plan_idx: Sequence[int],
    ) -> None:
        """Apply player ``i`` moving ``old → new`` (either may be local).

        Also correct after a plan-only change (``old == new``): the player's
        weight changed, so its groups re-solve.
        """
        if old is not None and (old != new):
            self._srv_members[old].remove(i)
            self._link_members[(self._dev[i], old)].remove(i)
            self._resolve_server(old, plan_idx)
            self._resolve_link((self._dev[i], old), plan_idx)
        if new is not None:
            members = self._srv_members.setdefault(new, [])
            if i not in members:
                insort(members, i)
            key = (self._dev[i], new)
            lmembers = self._link_members.setdefault(key, [])
            if i not in lmembers:
                insort(lmembers, i)
            self._resolve_server(new, plan_idx)
            self._resolve_link(key, plan_idx)
        else:
            self.compute[i] = 1.0
            self.bandwidth[i] = 1.0


def best_response_offloading(
    tasks: Sequence[TaskSpec],
    cluster: EdgeCluster,
    latency_model: Optional[LatencyModel] = None,
    objective: Objective = Objective.AVG_LATENCY,
    candidates: Optional[Sequence[CandidateSet]] = None,
    max_rounds: int = 30,
    improvement_eps: float = 1e-6,
    include_queueing: bool = True,
    seed: SeedLike = None,
) -> BestResponseResult:
    """Run asynchronous best-response dynamics to a pure equilibrium.

    Players are visited in a random order each round (randomized scheduling
    avoids pathological cycling patterns).  A player's best response scans
    every (server, plan) pair — vectorized over plans per server — plus its
    best local-only plan, pricing each option with the incremental group
    engine; the round loop stops at the first round with no improving move.
    Deterministic for a fixed seed.
    """
    if not tasks:
        raise ConfigError("no tasks")
    lm = latency_model or LatencyModel()
    rng = as_generator(seed)
    n = len(tasks)
    m = cluster.num_servers
    if candidates is None:
        candsets = [build_candidates(t) for t in tasks]
    else:
        if len(candidates) != len(tasks):
            raise ConfigError("candidates/tasks length mismatch")
        candsets = list(candidates)

    devices = [cluster.by_name(t.device_name) for t in tasks]
    links = [
        [cluster.link(t.device_name, srv.name) for srv in cluster.servers]
        for t in tasks
    ]

    # strategy state: (server or None, plan index); start all-local at the
    # locally-optimal plan, like a device fleet before any offloading
    assignment: List[Optional[int]] = [None] * n
    plan_idx: List[int] = []
    for i, t in enumerate(tasks):
        lat = candsets[i].latencies(
            devices[i], lm, arrival_rate=t.arrival_rate if include_queueing else None
        )
        plan_idx.append(int(np.argmin(lat)))

    engine = _GameShares(tasks, candsets, cluster, lm, objective)
    stages = SolutionStages(tasks, cluster, lm)

    def player_latency(i: int, s: Optional[int], j: int, x: float, y: float) -> float:
        return float(stages.price(
            candsets, [i], [j], [s], np.array([x]), np.array([y]),
            include_queueing=include_queueing, overload="penalty",
        )[0])

    def eval_objective() -> float:
        # graded overload surrogate keeps improvement dynamics meaningful
        # even in overloaded regimes (final report below is honest)
        alloc = Allocation(list(assignment), engine.compute.copy(), engine.bandwidth.copy())
        lat = solution_latencies(
            tasks, candsets, plan_idx, alloc, cluster, lm, include_queueing,
            overload="penalty", stages=stages,
        )
        return objective.evaluate(lat, tasks)

    history: List[float] = [eval_objective()]
    moves = 0
    converged = False
    rounds = 0
    for rounds in range(1, max_rounds + 1):
        improved_this_round = False
        for i in rng.permutation(n):
            i = int(i)
            cur_s = assignment[i]
            current = player_latency(
                i, cur_s, plan_idx[i],
                float(engine.compute[i]), float(engine.bandwidth[i]),
            )
            best_choice: Optional[Tuple[Optional[int], int]] = None
            best_lat = current
            rate_i = tasks[i].arrival_rate if include_queueing else None
            # local option
            local_lats = candsets[i].latencies(devices[i], lm, arrival_rate=rate_i)
            j_local = int(np.argmin(local_lats))
            if cur_s is not None:
                lat_i = player_latency(i, None, j_local, 1.0, 1.0)
                if lat_i < best_lat - improvement_eps:
                    best_lat, best_choice = lat_i, (None, j_local)
            for option in range(m):
                if option == cur_s:
                    continue
                # two-pass: pick the plan under the shares the current plan's
                # weight would be granted, then re-price under the picked
                # plan's own weight (plan weight feeds back into shares)
                x0, y0 = engine.price_join(i, option, plan_idx)
                lat_vec = candsets[i].latencies(
                    devices[i], lm,
                    server=cluster.servers[option], link=links[i][option],
                    compute_share=x0, bandwidth_share=y0, arrival_rate=rate_i,
                )
                j = int(np.argmin(lat_vec))
                trial_idx = plan_idx
                if j != plan_idx[i]:
                    trial_idx = list(plan_idx)
                    trial_idx[i] = j
                x, y = engine.price_join(i, option, trial_idx)
                lat_i = player_latency(i, option, j, x, y)
                if lat_i < best_lat - improvement_eps:
                    best_lat, best_choice = lat_i, (option, j)
            if best_choice is not None:
                new_s, new_j = best_choice
                plan_idx[i] = new_j
                engine.move(i, cur_s, new_s, plan_idx)
                assignment[i] = new_s
                moves += 1
                improved_this_round = True
        history.append(eval_objective())
        if not improved_this_round:
            converged = True
            break

    # final report: a fresh full solve, honest latencies — directly
    # comparable with the centralized solver's packaged plans
    alloc = allocate_shares(tasks, candsets, plan_idx, assignment, cluster, lm, objective)
    lat = solution_latencies(tasks, candsets, plan_idx, alloc, cluster, lm, include_queueing)
    obj = objective.evaluate(lat, tasks)
    jp = JointPlan(
        assignment={t.name: assignment[i] for i, t in enumerate(tasks)},
        features={t.name: candsets[i].features[plan_idx[i]] for i, t in enumerate(tasks)},
        compute_shares={t.name: float(alloc.compute_shares[i]) for i, t in enumerate(tasks)},
        bandwidth_shares={t.name: float(alloc.bandwidth_shares[i]) for i, t in enumerate(tasks)},
        latencies={t.name: float(lat[i]) for i, t in enumerate(tasks)},
        objective_value=float(obj),
    )
    return BestResponseResult(
        plan=jp, rounds=rounds, converged=converged, moves=moves, history=history
    )
