"""Resource allocation: closed-form shares, server assignment, and the
shared solution-evaluation routine.

**Shares (KKT water-filling).**  Within one server, tasks ``i`` with expected
server work ``a_i`` (seconds at full speed) and weights ``w_i`` receive
compute shares minimizing ``sum_i w_i a_i / x_i`` subject to ``sum x_i <= 1``.
The Lagrangian stationarity condition gives ``x_i ∝ sqrt(w_i a_i)`` — the
classic square-root allocation (Cauchy–Schwarz shows optimality).  Bandwidth
shares on a contended access link follow the same rule with ``a_i`` replaced
by expected bytes.  Tasks with zero expected work on a resource receive a
full (unused) share of 1.

**Assignment (Hungarian).**  Tasks are matched to replicated "server slots"
(plus a private local-execution column per task) via
``scipy.optimize.linear_sum_assignment`` on a cost matrix of best-candidate
latencies under an equal-share estimate.  Slot replication bounds how many
tasks an assignment round can pile onto one server; the joint optimizer's
share re-solve then refines within each server.

**Evaluation.**  :func:`solution_latencies` answers "what latency does this
complete solution predict" — used identically by the BCD solver, the
best-response game, the exhaustive optimum, and the experiment harness, so
their objective values are directly comparable.  It gathers the chosen
plans' feature columns and the placements' stage parameters
(:class:`SolutionStages`) into one call of the library's single latency
kernel, :func:`repro.core.queueing.plan_latency` — the same kernel, in the
same float order, that ranks candidates — so a plan is priced exactly as it
was ranked.  Congestion is charged with a tandem-queue approximation: each
request stream flows through up to three stages (device compute, link,
server compute), each modeled as an independent M/G/1 queue — Poisson
input, service moments from the plan's realized-demand distribution
(multi-exit services are bimodal, which is why
:class:`~repro.core.plan.PlanFeatures` carries second moments).  The link
and server stages see the *thinned* stream (rate ``λ·p_offload``) with
demand moments conditioned on offloading.  Per-stage waits add; any stage at
utilization >= 1 renders the solution infeasible (``inf``).  Experiment E14
validates this against the discrete-event simulator.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Set, Tuple

import numpy as np
from scipy.optimize import linear_sum_assignment

from repro.core.candidates import CandidateSet
from repro.core.objectives import Objective
from repro.core.plan import TaskSpec
from repro.core.queueing import OVERLOAD_MODES, FeatureColumns, plan_latency
from repro.devices.cluster import EdgeCluster
from repro.devices.latency import LatencyModel
from repro.errors import ConfigError, PlanError
from repro.telemetry.trace import traced

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.risk import RiskConfig
    from repro.profiling.counters import PerfCounters


@dataclass
class Allocation:
    """Per-task server choice and resource shares."""

    assignment: List[Optional[int]]  # server index or None (local)
    compute_shares: np.ndarray
    bandwidth_shares: np.ndarray

    def __post_init__(self) -> None:
        n = len(self.assignment)
        self.compute_shares = np.asarray(self.compute_shares, dtype=float)
        self.bandwidth_shares = np.asarray(self.bandwidth_shares, dtype=float)
        if self.compute_shares.shape != (n,) or self.bandwidth_shares.shape != (n,):
            raise ConfigError("share arrays must match assignment length")
        if np.any(self.compute_shares <= 0) or np.any(self.compute_shares > 1 + 1e-9):
            raise ConfigError(f"compute shares outside (0,1]: {self.compute_shares}")
        if np.any(self.bandwidth_shares <= 0) or np.any(
            self.bandwidth_shares > 1 + 1e-9
        ):
            raise ConfigError(f"bandwidth shares outside (0,1]: {self.bandwidth_shares}")


def power_shares(weights: np.ndarray, exponent: float = 0.5) -> np.ndarray:
    """Shares ``x_i ∝ weights_i**exponent`` summing to 1.

    ``exponent`` selects the fairness/efficiency point of a one-parameter
    allocation family (ablation A5):

    - ``0.0`` — equal shares regardless of demand (proportional fairness on
      shares; what a fair OS scheduler gives);
    - ``0.5`` — the KKT optimum of total weighted latency (the default; see
      :func:`sqrt_shares`);
    - ``1.0`` — shares proportional to demand, equalizing per-task latency
      contributions (max-min on latency).

    Zero-weight entries receive share 1 (they do not consume the resource).
    """
    if not (0.0 <= exponent <= 1.0):
        raise ConfigError(f"share exponent must be in [0,1], got {exponent}")
    w = np.asarray(weights, dtype=float)
    if np.any(w < 0):
        raise ConfigError(f"negative share weights: {w}")
    active = w > 0
    x = np.ones_like(w)
    if np.any(active):
        s = w[active] ** exponent
        x[active] = s / s.sum()
    return x


def sqrt_shares(weights: np.ndarray) -> np.ndarray:
    """Optimal shares ``x_i ∝ sqrt(weights_i)`` summing to 1.

    ``weights_i = w_i * a_i`` (importance × full-speed resource seconds);
    the ``exponent=0.5`` member of :func:`power_shares`, which Cauchy–Schwarz
    shows minimizes ``sum_i w_i a_i / x_i`` subject to ``sum x_i <= 1``.
    """
    return power_shares(weights, 0.5)


@traced("alloc.full_solve")
def allocate_shares(
    tasks: Sequence[TaskSpec],
    candsets: Sequence[CandidateSet],
    plan_idx: Sequence[int],
    assignment: Sequence[Optional[int]],
    cluster: EdgeCluster,
    latency_model: LatencyModel,
    objective: Objective = Objective.AVG_LATENCY,
    share_exponent: float = 0.5,
) -> Allocation:
    """Closed-form compute and bandwidth shares given plans + assignment.

    Compute shares are solved per server; bandwidth shares per access link
    (tasks on the same end device contending for the same radio).
    ``share_exponent`` selects the fairness/efficiency point — see
    :func:`power_shares` (0.5 = latency-optimal default).
    """
    n = len(tasks)
    if not (len(candsets) == len(plan_idx) == len(assignment) == n):
        raise ConfigError("tasks/candsets/plan_idx/assignment length mismatch")
    compute = np.ones(n)
    bandwidth = np.ones(n)

    # group by server for compute shares
    by_server: Dict[int, List[int]] = {}
    for i, s in enumerate(assignment):
        if s is not None:
            by_server.setdefault(s, []).append(i)
    for s, members in by_server.items():
        server = cluster.servers[s]
        rate = latency_model.throughput(server)
        weights = np.array(
            [
                objective.task_weight(tasks[i])
                * tasks[i].arrival_rate
                * candsets[i].srv_flops[plan_idx[i]]
                / rate
                for i in members
            ]
        )
        compute[members] = power_shares(weights, share_exponent)

    # group by (device, server) link for bandwidth shares
    by_link: Dict[Tuple[str, int], List[int]] = {}
    for i, s in enumerate(assignment):
        if s is not None:
            by_link.setdefault((tasks[i].device_name, s), []).append(i)
    for (dev_name, s), members in by_link.items():
        link = cluster.link(dev_name, cluster.servers[s].name)
        weights = np.array(
            [
                objective.task_weight(tasks[i])
                * tasks[i].arrival_rate
                * candsets[i].wire_bytes[plan_idx[i]]
                / link.bandwidth_bps
                for i in members
            ]
        )
        bandwidth[members] = power_shares(weights, share_exponent)

    return Allocation(list(assignment), compute, bandwidth)


class _LazyLinkBW(dict):
    """``(device_name, server_idx) -> bandwidth_bps``, fetched on first use."""

    def __init__(self, cluster: "EdgeCluster") -> None:
        super().__init__()
        self._cluster = cluster

    def __missing__(self, key: Tuple[str, int]) -> float:
        name, s = key
        bw = self._cluster.link(name, self._cluster.servers[s].name).bandwidth_bps
        self[key] = bw
        return bw


class IncrementalAllocator:
    """Share allocator with O(affected groups) incremental re-solves.

    The share problem decomposes exactly: compute shares couple only tasks on
    the same server, bandwidth shares only tasks on the same (device, server)
    access link.  A single-task move or plan change therefore invalidates at
    most two server groups and two link groups; every other task's shares are
    unchanged.  :meth:`update` exploits this, while :meth:`solve` is a full
    solve bit-identical to :func:`allocate_shares` (same grouping order, same
    weight expressions, same float operation order) for a fixed problem.

    The constructor hoists everything that is invariant across re-solves —
    per-task ``weight × arrival_rate`` products, server throughputs, and link
    bandwidths — so the per-trial cost in the joint optimizer's local search
    drops from O(n + groups) dictionary/cluster lookups to O(|group|).

    Instances are safe to share across parallel restart threads: the only
    post-construction mutation is the lazy link-bandwidth memo, whose entries
    are deterministic (a racing double-fetch writes the same value); per-call
    work counters are passed in explicitly.
    """

    def __init__(
        self,
        tasks: Sequence[TaskSpec],
        candsets: Sequence[CandidateSet],
        cluster: EdgeCluster,
        latency_model: LatencyModel,
        objective: Objective = Objective.AVG_LATENCY,
        share_exponent: float = 0.5,
    ) -> None:
        if len(candsets) != len(tasks):
            raise ConfigError("tasks/candsets length mismatch")
        self.tasks = list(tasks)
        self.candsets = list(candsets)
        self.cluster = cluster
        self.exponent = share_exponent
        self._n = len(self.tasks)
        # invariant per-task factors of the share weights, multiplied in the
        # same order as allocate_shares: (weight * rate) * work / capacity
        self._base_w = [objective.task_weight(t) * t.arrival_rate for t in self.tasks]
        self._srv_rate = [latency_model.throughput(s) for s in cluster.servers]
        self._dev_name = [t.device_name for t in self.tasks]
        # link bandwidths resolve lazily: hoisting all devices × servers
        # upfront is O(n·m) cluster lookups on big instances, while a solve
        # only ever touches the (device, assigned-server) pairs it visits —
        # hot-path hits stay plain dict lookups
        self._link_bw = _LazyLinkBW(cluster)

    # -- group kernels ------------------------------------------------------

    def _solve_server(
        self, s: int, members: List[int], plan_idx: Sequence[int], out: np.ndarray
    ) -> None:
        rate = self._srv_rate[s]
        weights = np.array(
            [
                self._base_w[i] * self.candsets[i].srv_flops[plan_idx[i]] / rate
                for i in members
            ]
        )
        out[members] = power_shares(weights, self.exponent)

    def _solve_link(
        self,
        dev_name: str,
        s: int,
        members: List[int],
        plan_idx: Sequence[int],
        out: np.ndarray,
    ) -> None:
        bw = self._link_bw[(dev_name, s)]
        weights = np.array(
            [
                self._base_w[i] * self.candsets[i].wire_bytes[plan_idx[i]] / bw
                for i in members
            ]
        )
        out[members] = power_shares(weights, self.exponent)

    # -- public API ---------------------------------------------------------

    def solve(
        self,
        plan_idx: Sequence[int],
        assignment: Sequence[Optional[int]],
        counters: Optional["PerfCounters"] = None,
    ) -> Allocation:
        """Full share solve — bit-identical to :func:`allocate_shares`."""
        n = self._n
        if not (len(plan_idx) == len(assignment) == n):
            raise ConfigError("plan_idx/assignment length mismatch")
        compute = np.ones(n)
        bandwidth = np.ones(n)
        by_server: Dict[int, List[int]] = {}
        by_link: Dict[Tuple[str, int], List[int]] = {}
        for i, s in enumerate(assignment):
            if s is not None:
                by_server.setdefault(s, []).append(i)
                by_link.setdefault((self._dev_name[i], s), []).append(i)
        for s, members in by_server.items():
            self._solve_server(s, members, plan_idx, compute)
        for (dev_name, s), members in by_link.items():
            self._solve_link(dev_name, s, members, plan_idx, bandwidth)
        if counters is not None:
            counters.allocate_calls += 1
            counters.allocate_group_solves += len(by_server) + len(by_link)
        return Allocation(list(assignment), compute, bandwidth)

    def update(
        self,
        base: Allocation,
        plan_idx: Sequence[int],
        assignment: Sequence[Optional[int]],
        changed: Sequence[int],
        counters: Optional["PerfCounters"] = None,
        members_by_server: Optional[Dict[Optional[int], List[int]]] = None,
    ) -> Allocation:
        """Shares for ``(plan_idx, assignment)``, reusing a solved ``base``.

        ``base`` must be a valid allocation for a state that differs from the
        requested one only in the placement and/or plan of the tasks listed in
        ``changed``.  Only the server and link groups containing a changed
        task (in either the old or the new state) are re-solved; every other
        share is carried over.  The result is bit-identical to a full
        :meth:`solve` of the new state.

        ``members_by_server`` may supply the server→tasks inverse of
        ``assignment`` (each list ascending, exactly the order an index scan
        would produce) so touched groups resolve without the O(tasks) member
        scans — the cross-shard migration loop at 100k tasks maintains this
        inverse incrementally.  Shares are bit-identical either way because
        member order (hence float summation order) is unchanged.
        """
        compute = base.compute_shares.copy()
        bandwidth = base.bandwidth_shares.copy()
        servers: Set[int] = set()
        links: Set[Tuple[str, int]] = set()
        for i in changed:
            compute[i] = 1.0
            bandwidth[i] = 1.0
            for s in (base.assignment[i], assignment[i]):
                if s is not None:
                    servers.add(s)
                    links.add((self._dev_name[i], s))
        for s in sorted(servers):
            if members_by_server is not None:
                members = members_by_server.get(s, [])
            else:
                members = [i for i, a in enumerate(assignment) if a == s]
            if members:
                self._solve_server(s, members, plan_idx, compute)
        for dev_name, s in sorted(links):
            if members_by_server is not None:
                members = [
                    i
                    for i in members_by_server.get(s, [])
                    if self._dev_name[i] == dev_name
                ]
            else:
                members = [
                    i
                    for i, a in enumerate(assignment)
                    if a == s and self._dev_name[i] == dev_name
                ]
            if members:
                self._solve_link(dev_name, s, members, plan_idx, bandwidth)
        if counters is not None:
            counters.allocate_calls += 1
            counters.allocate_group_solves += len(servers) + len(links)
        return Allocation(list(assignment), compute, bandwidth)


class SolutionStages:
    """Latency-kernel stage parameters of a solution's rows, hoisted.

    Per task: device throughput, device overhead and arrival rate; per
    server: throughput and overhead; per (device, server) link: bandwidth
    and RTT, resolved on first use.  Built once per solve, so pricing a
    trial move gathers its rows from arrays instead of walking the cluster.
    Safe to share across restart threads: the only post-construction
    mutation is the lazy link memo, whose entries are deterministic.
    """

    def __init__(
        self,
        tasks: Sequence[TaskSpec],
        cluster: EdgeCluster,
        latency_model: LatencyModel,
    ) -> None:
        self.cluster = cluster
        devices = [cluster.by_name(t.device_name) for t in tasks]
        rate: Dict[str, float] = {}
        for d in devices:
            if d.name not in rate:
                rate[d.name] = latency_model.throughput(d)
        self.r_dev = np.array([rate[d.name] for d in devices], dtype=float)
        self.oh_dev = np.array([d.overhead_s for d in devices], dtype=float)
        self.lam = np.array([t.arrival_rate for t in tasks], dtype=float)
        self.dev_name = [t.device_name for t in tasks]
        # (throughput, overhead) per server, plus a last row that locally
        # placed tasks read: finite stand-ins the kernel ignores for them
        self._local = cluster.num_servers
        self._servers = np.array(
            [(latency_model.throughput(s), s.overhead_s) for s in cluster.servers]
            + [(1.0, 0.0)],
            dtype=float,
        )
        self._links: Dict[Tuple[str, Optional[int]], Tuple[float, float]] = {}

    def _link(self, i: int, s: Optional[int]) -> Tuple[float, float]:
        """(bandwidth, rtt) of task ``i``'s link to server ``s``."""
        key = (self.dev_name[i], s)
        params = self._links.get(key)
        if params is None:
            if s is None:
                params = (1.0, 0.0)
            else:
                link = self.cluster.link(key[0], self.cluster.servers[s].name)
                params = (link.bandwidth_bps, link.rtt_s)
            self._links[key] = params
        return params

    def _placements(
        self, rows: Sequence[int], servers: Sequence[Optional[int]]
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Per placement ``k`` (task ``rows[k]`` on ``servers[k]``): the
        server's (throughput, overhead), the link's (bandwidth, rtt), and
        whether it is local."""
        srv_idx = np.array(
            [self._local if s is None else s for s in servers], dtype=np.intp
        )
        link = np.array(
            [self._link(i, s) for i, s in zip(rows, servers)], dtype=float
        ).reshape(-1, 2)
        return self._servers[srv_idx], link, srv_idx == self._local

    def price(
        self,
        candsets: Sequence[CandidateSet],
        rows: Sequence[int],
        plans: Sequence[int],
        servers: Sequence[Optional[int]],
        compute_shares: np.ndarray,
        bandwidth_shares: np.ndarray,
        include_queueing: bool = True,
        overload: str = "inf",
        risk: Optional["RiskConfig"] = None,
    ) -> np.ndarray:
        """Latency of task ``rows[k]`` running plan ``plans[k]`` on server
        ``servers[k]`` (``None`` = local) at the given shares, for every
        ``k`` — one :func:`~repro.core.queueing.plan_latency` call."""
        idx = np.asarray(rows, dtype=np.intp)
        srv, link, local = self._placements(rows, servers)
        return plan_latency(
            FeatureColumns.of([candsets[i].features[j] for i, j in zip(rows, plans)]),
            self.r_dev[idx],
            self.oh_dev[idx],
            r_srv=srv[:, 0] * compute_shares,
            oh_srv=srv[:, 1],
            bw=link[:, 0] * bandwidth_shares,
            rtt=link[:, 1],
            local=local if local.any() else None,
            arrival_rate=self.lam[idx] if include_queueing else None,
            risk=risk,
            overload=overload,
        )

    def rank(
        self,
        candset: CandidateSet,
        i: int,
        servers: Sequence[Optional[int]],
        compute_shares: np.ndarray,
        bandwidth_shares: np.ndarray,
        include_queueing: bool = True,
        risk: Optional["RiskConfig"] = None,
    ) -> np.ndarray:
        """Task ``i``'s candidates ranked under several placements at once.

        Row ``k`` of the ``(len(servers), len(candset))`` result is
        :meth:`CandidateSet.latencies <repro.core.candidates.CandidateSet.latencies>`
        of task ``i`` on server ``servers[k]`` (``None`` = local) at shares
        ``compute_shares[k]`` / ``bandwidth_shares[k]``, bit for bit — one
        :func:`~repro.core.queueing.plan_latency` call with per-placement
        stage parameters of shape ``(placements, 1)``.  Raises
        :class:`~repro.errors.PlanError` for a share outside (0, 1].
        """
        for shares, kind in ((compute_shares, "compute"), (bandwidth_shares, "bandwidth")):
            if not np.all((shares > 0.0) & (shares <= 1.0 + 1e-12)):
                raise PlanError(f"{kind} shares must be in (0,1], got {shares}")
        srv, link, local = self._placements([i] * len(servers), servers)
        local = local[:, None]
        # per-task scalars stay Python floats, as in the one-placement ranking
        return plan_latency(
            candset,
            float(self.r_dev[i]),
            float(self.oh_dev[i]),
            r_srv=(srv[:, 0] * compute_shares)[:, None],
            oh_srv=srv[:, 1:],
            bw=(link[:, 0] * bandwidth_shares)[:, None],
            rtt=link[:, 1:],
            local=local if local.any() else None,
            arrival_rate=float(self.lam[i]) if include_queueing else None,
            risk=risk,
            overload="penalty",
        )


def solution_latencies(
    tasks: Sequence[TaskSpec],
    candsets: Sequence[CandidateSet],
    plan_idx: Sequence[int],
    allocation: Allocation,
    cluster: EdgeCluster,
    latency_model: LatencyModel,
    include_queueing: bool = True,
    overload: str = "inf",
    risk: Optional["RiskConfig"] = None,
    stages: Optional[SolutionStages] = None,
) -> np.ndarray:
    """Predicted expected latency per task for a complete solution.

    Includes per-stage M/G/1 waiting terms when ``include_queueing``
    (default) — see the module docstring.  Structurally infeasible choices
    (offloading plan with no server) are always ``inf``.  Queue-unstable
    choices (any stage utilization >= 1) are ``inf`` in the default
    ``overload="inf"`` mode — the honest report — or a large
    utilization-graded surrogate in ``overload="penalty"`` mode, which the
    iterative solvers use internally so that the search keeps a gradient even
    when every reachable solution is overloaded (degrade gracefully: shed the
    most load first).

    An active ``risk`` config buffers every latency to ``μ + κ(ε)·σ`` (see
    :mod:`repro.core.risk`); ``None`` or ``buffer="none"`` leaves the
    deterministic values bit-identical.

    The solution is validated here, once per call: mismatched lengths or a
    server index outside the cluster raise :class:`~repro.errors.ConfigError`,
    a plan index outside its candidate set raises
    :class:`~repro.errors.PlanError`.  ``stages`` may pass the solve's
    hoisted :class:`SolutionStages`.
    """
    if overload not in OVERLOAD_MODES:
        raise ConfigError(f"overload must be 'inf' or 'penalty', got {overload!r}")
    n = len(tasks)
    if not (len(candsets) == len(plan_idx) == len(allocation.assignment) == n):
        raise ConfigError("tasks/candsets/plan_idx/allocation length mismatch")
    m = cluster.num_servers
    for i in range(n):
        if not 0 <= plan_idx[i] < len(candsets[i]):
            raise PlanError(
                f"{tasks[i].name}: plan index {plan_idx[i]} outside its "
                f"{len(candsets[i])} candidates"
            )
        s = allocation.assignment[i]
        if s is not None and not 0 <= s < m:
            raise ConfigError(f"{tasks[i].name}: server index {s} outside 0..{m - 1}")
    return solution_latency_task(
        list(range(n)), tasks, candsets, plan_idx, allocation, cluster,
        latency_model, include_queueing=include_queueing, overload=overload,
        risk=risk, stages=stages,
    )


def solution_latency_task(
    rows: Sequence[int],
    tasks: Sequence[TaskSpec],
    candsets: Sequence[CandidateSet],
    plan_idx: Sequence[int],
    allocation: Allocation,
    cluster: EdgeCluster,
    latency_model: LatencyModel,
    include_queueing: bool = True,
    overload: str = "inf",
    risk: Optional["RiskConfig"] = None,
    stages: Optional[SolutionStages] = None,
) -> np.ndarray:
    """Predicted latencies of the solution's tasks ``rows`` (in that order).

    The trial-move entry of :func:`solution_latencies`: incremental solvers
    re-price only the tasks whose server or link groups a move touched, in
    one kernel call.  Unvalidated — ``overload`` and the solution are
    assumed checked by the caller; pass the solve's hoisted ``stages`` to
    skip rebuilding them.
    """
    if stages is None:
        stages = SolutionStages(tasks, cluster, latency_model)
    return stages.price(
        candsets,
        rows,
        [plan_idx[i] for i in rows],
        [allocation.assignment[i] for i in rows],
        allocation.compute_shares[rows],
        allocation.bandwidth_shares[rows],
        include_queueing=include_queueing,
        overload=overload,
        risk=risk,
    )


@traced("alloc.assign_servers")
def assign_servers(
    tasks: Sequence[TaskSpec],
    candsets: Sequence[CandidateSet],
    cluster: EdgeCluster,
    latency_model: LatencyModel,
    slots_per_server: Optional[int] = None,
    share_estimate: Optional[float] = None,
    risk: Optional["RiskConfig"] = None,
) -> List[Optional[int]]:
    """Initial task -> server assignment by min-cost matching.

    Cost of (task, server) = best candidate latency under an optimistic
    equal-share estimate; each task also gets a private "run locally" column
    priced at its best local-only latency (``inf`` if it has none).  Servers
    are replicated into ``slots_per_server`` columns (default: enough for all
    tasks to fit, +1 slack) so load spreads before share refinement.  An
    active ``risk`` config prices columns by buffered ``μ + κσ`` latencies so
    the matching already prefers low-variance placements.
    """
    n, m = len(tasks), cluster.num_servers
    if n == 0:
        return []
    if slots_per_server is None:
        slots_per_server = max(1, -(-n // m))  # ceil(n/m)
    if share_estimate is None:
        share_estimate = 1.0 / max(1, min(n, slots_per_server))

    cols = m * slots_per_server + n
    cost = np.full((n, cols), np.inf)
    for i, task in enumerate(tasks):
        device = cluster.by_name(task.device_name)
        for s in range(m):
            server = cluster.servers[s]
            link = cluster.link(task.device_name, server.name)
            lat = candsets[i].latencies(
                device,
                latency_model,
                server=server,
                link=link,
                compute_share=share_estimate,
                bandwidth_share=share_estimate,
                risk=risk,
            )
            best = float(np.min(lat))
            for k in range(slots_per_server):
                cost[i, s * slots_per_server + k] = best
        # private local column
        local_lat = candsets[i].latencies(device, latency_model, risk=risk)
        cost[i, m * slots_per_server + i] = float(np.min(local_lat))

    # linear_sum_assignment rejects inf rows; replace with a huge finite cost
    finite_max = np.nanmax(np.where(np.isinf(cost), np.nan, cost))
    big = (finite_max if np.isfinite(finite_max) else 1.0) * 1e6 + 1e3
    cost_f = np.where(np.isinf(cost), big, cost)
    rows, cols_sel = linear_sum_assignment(cost_f)
    assignment: List[Optional[int]] = [None] * n
    for r, c in zip(rows, cols_sel):
        if c < m * slots_per_server and cost[r, c] != np.inf:
            assignment[r] = int(c // slots_per_server)
        else:
            assignment[r] = None
    return assignment
