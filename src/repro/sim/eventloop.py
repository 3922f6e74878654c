"""The discrete-event engine of :func:`repro.sim.runner.simulate_plan`.

One heap-driven event loop serves every run the vectorized sweep cannot:
per-request telemetry (gauges sample on event boundaries), ``fast_path=False``
(the reference the sweep is checked against), and fault runs.  A request
flows device → uplink → server → downlink as chained events, each stage
submitting to its FIFO resource and scheduling its continuation at the
returned finish time.

**Fault hooks.**  With ``cfg.faults`` set the loop additionally arms a
:class:`~repro.faults.injector.FaultInjector` driving the schedule,
provisions a standby server slice per task (``srv:<task>:fo``), detects
failed offload stages (down-at-submit, crash-during-service, wire loss,
timeout), walks the :class:`~repro.faults.policy.FailurePolicy` recovery
ladder (backoff retry → failover to the standby → graceful local
degradation → lost), and routes arrivals through mid-run
:class:`~repro.faults.policy.PlanUpdate` directives (freshly provisioned
slices of the repaired plan, or shedding).  With ``cfg.faults`` unset none
of that machinery exists: no standby routes, no fault-state or schedule
lookups, and each stage does exactly the submit-and-continue work.

Because FIFO service times are known at submission, every stage's outcome
is decided deterministically *at submission time*: the earliest of
{crash-interrupt, timeout} — both computable from the static schedule and
the policy — wins against the nominal finish, and exactly one continuation
is scheduled.  No cancellation races and no sampling beyond the seed-derived
loss/degradation draws, so fault runs replay bit for bit.  Every request
terminates in exactly one of {recorded, warmup-discarded, lost, shed}; the
conservation identity is checked before the report is returned.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.plan import JointPlan, SurgeryPlan, TaskSpec
from repro.devices.cluster import EdgeCluster
from repro.devices.latency import LatencyModel
from repro.errors import ConfigError, SimulationError
from repro.faults.injector import FaultInjector
from repro.faults.policy import FailurePolicy, PlanUpdate
from repro.faults.schedule import FaultSchedule
from repro.models.multiexit import MultiExitModel
from repro.rng import derive, derive_from, derive_material
from repro.sim.engine import Simulator
from repro.sim.entities import Request, RequestDemand, RequestRecord
from repro.sim.execution import jitter_demand, jitter_materials, realize_request
from repro.sim.metrics import MetricsCollector, SimCounters, SimulationReport
from repro.sim.queues import FifoResource, LinkResource
from repro.sim.sources import arrival_times
from repro.telemetry.timeline import TimelineRecorder
from repro.telemetry.windows import WindowedMetrics

if TYPE_CHECKING:
    from repro.sim.runner import SimulationConfig

__all__ = ["Route", "build_devices", "build_routes", "run_event_loop"]


# -- resources (shared by both engines) ----------------------------------------


@dataclass
class Route:
    """One offload path: a server slice plus its two link directions."""

    server_name: str
    srv: FifoResource
    up: LinkResource
    down: LinkResource
    is_primary: bool = True

    @property
    def reachable(self) -> bool:
        return not (self.srv.is_down or self.up.is_down or self.down.is_down)


def build_devices(
    cluster: EdgeCluster, lm: LatencyModel, rec: Optional[TimelineRecorder]
) -> Dict[str, FifoResource]:
    """One shared FIFO compute resource per end device."""
    return {
        d.name: FifoResource(
            f"dev:{d.name}", lm.throughput(d), overhead_s=d.overhead_s, recorder=rec
        )
        for d in cluster.end_devices
    }


def _make_route(
    task: TaskSpec,
    plan: JointPlan,
    server: int,
    cluster: EdgeCluster,
    lm: LatencyModel,
    cfg: "SimulationConfig",
    rec: Optional[TimelineRecorder],
    tag: str = "",
    primary: bool = True,
) -> Route:
    """The task's dedicated slice of ``server`` and of its access link.

    Compute runs at ``share × server_rate`` (processor sharing realized as
    static partitioning, which is what the allocator grants); the link is
    full-duplex, each direction its own serialization queue.
    """
    srv_spec = cluster.servers[server]
    link = cluster.link(task.device_name, srv_spec.name)
    y = plan.bandwidth_shares[task.name]
    srv = FifoResource(
        f"srv:{task.name}{tag}",
        lm.throughput(srv_spec) * plan.compute_shares[task.name],
        overhead_s=srv_spec.overhead_s,
        recorder=rec,
    )
    up, down = (
        LinkResource(
            f"link:{task.name}:{direction}{tag}", link.bandwidth_bps,
            rtt_s=link.rtt_s, share=y, trace=cfg.bandwidth_trace, recorder=rec,
        )
        for direction in ("up", "down")
    )
    return Route(srv_spec.name, srv, up, down, is_primary=primary)


def build_routes(
    tasks: Sequence[TaskSpec],
    plan: JointPlan,
    cluster: EdgeCluster,
    lm: LatencyModel,
    cfg: "SimulationConfig",
    rec: Optional[TimelineRecorder],
    tag: str = "",
) -> Dict[str, Route]:
    """Primary offload route of every task the plan assigns to a server."""
    return {
        t.name: _make_route(t, plan, s, cluster, lm, cfg, rec, tag)
        for t in tasks
        if (s := plan.assignment[t.name]) is not None
    }


def utilizations(
    device_res: Dict[str, FifoResource],
    servers: Sequence[FifoResource],
    horizon_s: float,
) -> Dict[str, float]:
    utils = {r.name: r.utilization(horizon_s) for r in device_res.values()}
    for r in servers:
        utils[r.name] = r.utilization(horizon_s)
    return utils


# -- graceful degradation ---------------------------------------------------------


@dataclass(frozen=True)
class _DegradeProfile:
    """Precomputed graceful-degradation fallback for one (task, plan)."""

    #: position (within kept exits) of the deepest on-device exit, or -1
    #: when the plan keeps no on-device exit (full-local fallback instead)
    on_device_pos: int
    #: competence of that exit (correctness is re-sampled at it)
    competence: float


def _degrade_profile(model: MultiExitModel, splan: SurgeryPlan) -> _DegradeProfile:
    kept = list(splan.kept_exits)
    attach = model.exit_cut_indices[kept]
    on_device = np.flatnonzero(attach <= splan.partition_cut)
    if on_device.size == 0:
        return _DegradeProfile(on_device_pos=-1, competence=0.0)
    pos = int(on_device[-1])
    return _DegradeProfile(
        on_device_pos=pos, competence=float(model.competences[kept][pos])
    )


@dataclass(frozen=True)
class _FaultRun:
    """Run-level state shared by every request's fault hooks."""

    sim: Simulator
    schedule: FaultSchedule
    policy: Optional[FailurePolicy]
    counters: SimCounters
    rec: Optional[TimelineRecorder]
    wm: Optional[WindowedMetrics]
    seed: int
    warmup_s: float
    #: per plan generation: task -> graceful-degradation fallback
    profiles: List[Dict[str, _DegradeProfile]]

    @property
    def detection_s(self) -> float:
        return self.policy.detection_delay_s if self.policy is not None else 0.0


@dataclass(eq=False, slots=True)
class _FaultHooks:
    """Fault handling of one request on a fault run.

    The request's offload stages call :meth:`resource_down`,
    :meth:`wire_lost` and :meth:`stage_failed`; a failed attempt walks the
    recovery ladder — backoff retry (``retry`` re-enters the request's
    uplink stage, which picks the failover route) → graceful degradation →
    lost.  ``finish`` records a (possibly degraded) completion.
    """

    run: _FaultRun
    task: TaskSpec
    req: Request
    demand: RequestDemand
    dres: FifoResource
    k: int  # plan generation the request launched under
    retry: Callable[[float, int], None]
    finish: Callable[..., None]

    def _fail_at(self, at: float, dev_busy: float, attempt: int, reason: str) -> None:
        self.run.sim.schedule_at(
            at, lambda: self.attempt_failed(at, dev_busy, attempt, reason)
        )

    def resource_down(self, now: float, dev_busy: float, attempt: int) -> None:
        """The stage's resource is down at submission."""
        self._fail_at(now + self.run.detection_s, dev_busy, attempt, "down")

    def wire_lost(
        self, route: Route, now: float, done: float, dev_busy: float, attempt: int
    ) -> bool:
        """Uplink bits that left the device but never arrive."""
        run = self.run
        if not route.is_primary:
            return False
        p_loss = run.schedule.loss_probability(self.task.name, now)
        if p_loss <= 0.0 or not (
            derive(run.seed, "fault_loss", self.task.name, self.req.req_id, attempt).random()
            < p_loss
        ):
            return False
        # without a timeout the sender only "learns" at serialization end
        at = now + run.policy.stage_timeout_s if run.policy is not None else done
        self._fail_at(at, dev_busy, attempt, "wire_loss")
        return True

    def stage_failed(
        self, kind: str, route: Route, now: float, done: float,
        dev_busy: float, attempt: int, reason: str,
    ) -> bool:
        """Schedule the failure of a submitted stage; False on success.

        A crash strictly inside the service window always fails the stage
        (the work is interrupted no matter when the sender finds out,
        ``detection_s`` after the crash); a policy timeout fails it when the
        nominal finish lies beyond the deadline.  The earlier of the two
        failure instants wins.  Link outages only hit the task's primary
        access path.
        """
        run = self.run
        candidates = []
        if kind == "server_crash":
            crash = run.schedule.next_failure_in(kind, route.server_name, now, done)
        else:
            crash = (
                run.schedule.next_failure_in(kind, self.task.name, now, done)
                if route.is_primary else None
            )
        if crash is not None:
            candidates.append(crash + run.detection_s)
        if run.policy is not None and done - now > run.policy.stage_timeout_s:
            candidates.append(now + run.policy.stage_timeout_s)
        if not candidates:
            return False
        self._fail_at(min(candidates), dev_busy, attempt, reason)
        return True

    def attempt_failed(self, at: float, dev_busy: float, attempt: int, reason: str) -> None:
        run, policy, rec = self.run, self.run.policy, self.run.rec
        name, rid = self.task.name, self.req.req_id
        if rec is not None:
            rec.event(at, "timeout", name, rid, resource=reason)
        if policy is not None and attempt < policy.max_retries:
            run.counters.retries += 1
            if rec is not None:
                rec.event(at, "retry", name, rid, value=float(attempt + 1))
                rec.count("sim.retries")
            run.sim.schedule_at(
                at + policy.backoff_s(attempt),
                lambda: self.retry(dev_busy, attempt + 1),
            )
            return
        if policy is not None and policy.degrade_local:
            run.sim.schedule_at(at, lambda: self.degrade(dev_busy))
            return
        run.counters.lost += 1
        if rec is not None:
            rec.event(at, "lost", name, rid)
            rec.count("sim.lost")
        if run.wm is not None and self.req.arrival_s >= run.warmup_s:
            run.wm.mark(name, at, "lost")

    def degrade(self, dev_busy: float) -> None:
        run, task, req, demand = self.run, self.task, self.req, self.demand
        now = run.sim.now
        profile = run.profiles[self.k][task.name]
        if profile.on_device_pos >= 0:
            # deepest on-device exit: backbone-to-cut and its branch were
            # already computed, so accepting its output costs nothing extra
            p_ok = float(
                task.model.accuracy_model.correctness(
                    np.array([profile.competence]), np.array([req.difficulty])
                )[0, 0]
            )
            p_ok = float(np.clip(p_ok, 0.01, 0.999))
            draw = derive(run.seed, "fault_degrade", task.name, req.req_id)
            self.complete(now, dev_busy, profile.on_device_pos, bool(draw.random() < p_ok))
            return
        # no on-device exit kept: run the server-side remainder locally —
        # same exit, same correctness, the work just lands on the device
        start, done = self.dres.submit(now, demand.srv_flops)
        run.sim.schedule_at(
            done,
            lambda: self.complete(
                done, dev_busy + (done - start), demand.exit_position, demand.correct
            ),
        )

    def complete(self, at: float, dev_busy: float, exit_position: int, correct: bool) -> None:
        run = self.run
        run.counters.degraded_completions += 1
        if run.rec is not None:
            run.rec.event(at, "degraded", self.task.name, self.req.req_id)
            run.rec.count("sim.degraded_completions")
        self.finish(at, dev_busy, 0.0, 0.0, degraded_to=(exit_position, correct))


# -- the loop ---------------------------------------------------------------------


def run_event_loop(
    tasks: Sequence[TaskSpec],
    plan: JointPlan,
    cluster: EdgeCluster,
    cfg: "SimulationConfig",
    lm: LatencyModel,
    rec: Optional[TimelineRecorder],
    plan_updates: Sequence[PlanUpdate] = (),
) -> SimulationReport:
    """Replay ``plan`` event by event; fault hooks engage iff ``cfg.faults``."""
    schedule = cfg.faults
    policy = cfg.failure_policy
    faulty = schedule is not None
    failover = policy is not None and policy.failover

    updates = sorted(plan_updates, key=lambda u: u.time_s)
    plans: List[JointPlan] = [plan] + [u.plan for u in updates]
    shed_sets = [frozenset()] + [frozenset(u.shed_tasks) for u in updates]
    update_times = [u.time_s for u in updates]
    for p in plans[1:]:
        for t in tasks:
            if t.name not in p.features:
                raise ConfigError(f"plan has no entry for task {t.name!r}")

    reg = rec.registry if rec is not None else None
    counters = SimCounters(replications=1)
    sim = Simulator()
    if rec is not None:
        sim.on_event = lambda now, pending: rec.sample("sim.pending_events", now, pending)
    metrics = MetricsCollector(warmup_s=cfg.warmup_s)
    # windowed SLO aggregation: completions feed the met/miss counters with
    # the sweep's filter, latency and met test (bit-identical integer
    # state); lost/shed/degraded outcomes annotate their windows
    wm = (
        WindowedMetrics(cfg.windows, cfg.horizon_s)
        if cfg.windows is not None else None
    )

    # -- resources: one route set per plan generation ---------------------------
    device_res = build_devices(cluster, lm, rec)
    route_sets: List[Dict[str, Tuple[Route, Optional[Route]]]] = []
    for k, p in enumerate(plans):
        tag = "" if k == 0 else f":u{k}"
        primaries = build_routes(tasks, p, cluster, lm, cfg, rec, tag)
        routes: Dict[str, Tuple[Route, Optional[Route]]] = {}
        for t in tasks:
            if t.name not in primaries:
                continue
            standby = None
            if faulty and cluster.num_servers > 1:
                standby = _make_route(
                    t, p, (p.assignment[t.name] + 1) % cluster.num_servers,
                    cluster, lm, cfg, rec, tag + ":fo", primary=False,
                )
            routes[t.name] = (primaries[t.name], standby)
        route_sets.append(routes)

    fault_run: Optional[_FaultRun] = None
    if faulty:
        # injector maps: every slice living on a server / behind a task's
        # primary access link, across all plan generations, so one crash
        # takes them all down (a standby reaches another server over
        # another link)
        server_map: Dict[str, List] = {s.name: [] for s in cluster.servers}
        link_map: Dict[str, List] = {t.name: [] for t in tasks}
        for routes in route_sets:
            for name, (primary, standby) in routes.items():
                server_map[primary.server_name].append(primary.srv)
                link_map[name].extend((primary.up, primary.down))
                if standby is not None:
                    server_map[standby.server_name].append(standby.srv)
        fault_run = _FaultRun(
            sim, schedule, policy, counters, rec, wm, cfg.seed, cfg.warmup_s,
            [
                {t.name: _degrade_profile(t.model, p.features[t.name].plan) for t in tasks}
                for p in plans
            ],
        )
        # armed before arrivals: same-time fault transitions outrank stages
        FaultInjector(schedule, server_map, link_map, counters, recorder=rec).arm(sim)

    exec_material = {t.name: derive_material(cfg.seed, "exec", t.name) for t in tasks}
    jitter_mats = (
        {t.name: jitter_materials(cfg.seed, t.name) for t in tasks}
        if cfg.service_noise > 0
        else None
    )

    # -- request lifecycle ------------------------------------------------------
    def launch(task: TaskSpec, req: Request) -> None:
        k = 0
        if update_times:
            k = bisect_right(update_times, req.arrival_s)
            if task.name in shed_sets[k]:
                counters.shed += 1
                if rec is not None:
                    rec.event(req.arrival_s, "shed", task.name, req.req_id)
                    rec.count("sim.shed")
                if wm is not None and req.arrival_s >= cfg.warmup_s:
                    wm.mark(task.name, req.arrival_s, "shed")
                return
        feats = plans[k].features[task.name]
        rng = derive_from(exec_material[task.name], req.req_id)
        demand = realize_request(task.model, feats.plan, req.difficulty, rng, metrics=reg)
        if jitter_mats is not None:
            demand = jitter_demand(
                demand, jitter_mats[task.name], req.req_id, cfg.service_noise
            )
        dres = device_res[task.device_name]
        routes = route_sets[k].get(task.name)
        if demand.offloaded and routes is None:
            raise SimulationError(
                f"{task.name}: offloading demand under a local-only assignment"
            )

        def finish(
            completion: float,
            dev_busy: float,
            srv_busy: float,
            net_busy: float,
            degraded_to: Optional[Tuple[int, bool]] = None,
        ) -> None:
            """Record a completion; ``degraded_to`` = (exit, correct) fallback."""
            if degraded_to is None:
                exit_position = demand.exit_position
                offloaded = demand.offloaded
                correct = demand.correct
            else:
                (exit_position, correct), offloaded = degraded_to, False
            if rec is not None:
                rec.event(completion, "exit_taken", task.name, req.req_id,
                          value=float(exit_position))
                rec.event(completion, "complete", task.name, req.req_id)
                rec.registry.histogram("sim.latency_ms").observe(
                    (completion - req.arrival_s) * 1e3
                )
            metrics.record(
                RequestRecord(
                    task_name=task.name,
                    req_id=req.req_id,
                    arrival_s=req.arrival_s,
                    completion_s=completion,
                    deadline_s=req.deadline_s,
                    exit_position=exit_position,
                    offloaded=offloaded,
                    correct=correct,
                    dev_busy_s=dev_busy,
                    srv_busy_s=srv_busy,
                    net_busy_s=net_busy,
                    degraded=degraded_to is not None,
                )
            )
            if wm is not None and req.arrival_s >= cfg.warmup_s:
                wm.observe_one(
                    task.name,
                    completion,
                    completion - req.arrival_s,
                    completion <= req.deadline_s + 1e-12,
                )
                if degraded_to is not None:
                    wm.mark(task.name, completion, "degraded")

        def stage_device() -> None:
            if rec is not None:
                rec.event(sim.now, "enqueue", task.name, req.req_id, resource=dres.name)
            start, done = dres.submit(sim.now, demand.dev_flops)
            if rec is not None:
                rec.event(start, "dequeue", task.name, req.req_id, resource=dres.name)
                rec.event(start, "exec_start", task.name, req.req_id, resource=dres.name)
            dev_busy = done - start
            if not demand.offloaded:
                sim.schedule_at(done, lambda: finish(done, dev_busy, 0.0, 0.0))
                return
            sim.schedule_at(done, lambda: stage_uplink(dev_busy, 0))

        def stage_uplink(dev_busy: float, attempt: int) -> None:
            now = sim.now
            route = routes[0]
            if failover and routes[1] is not None and not route.reachable:
                route = routes[1]
                counters.failovers += 1
                if rec is not None:
                    rec.event(now, "failover", task.name, req.req_id,
                              resource=route.srv.name)
                    rec.count("sim.failovers")
            lres = route.up
            if hooks is not None and lres.is_down:
                return hooks.resource_down(now, dev_busy, attempt)
            start, done = lres.submit(now, demand.up_bytes)
            if hooks is not None and (
                hooks.wire_lost(route, now, done, dev_busy, attempt)
                or hooks.stage_failed(
                    "link_outage", route, now, done, dev_busy, attempt, "uplink"
                )
            ):
                return
            if rec is not None:
                rec.event(start, "transfer_start", task.name, req.req_id, resource=lres.name)
                rec.event(done, "transfer_end", task.name, req.req_id, resource=lres.name)
            net1 = done - start
            sim.schedule_at(done, lambda: stage_server(route, dev_busy, net1, attempt))

        def stage_server(route: Route, dev_busy: float, net1: float, attempt: int) -> None:
            now = sim.now
            sres = route.srv
            if hooks is not None and sres.is_down:
                return hooks.resource_down(now, dev_busy, attempt)
            start, done = sres.submit(now, demand.srv_flops)
            if hooks is not None and hooks.stage_failed(
                "server_crash", route, now, done, dev_busy, attempt, "server"
            ):
                return
            if rec is not None:
                rec.event(start, "exec_start", task.name, req.req_id, resource=sres.name)
            srv_busy = done - start
            sim.schedule_at(
                done, lambda: stage_downlink(route, dev_busy, net1, srv_busy, attempt)
            )

        def stage_downlink(
            route: Route, dev_busy: float, net1: float, srv_busy: float, attempt: int
        ) -> None:
            now = sim.now
            lres = route.down
            if hooks is not None and lres.is_down:
                return hooks.resource_down(now, dev_busy, attempt)
            start, done = lres.submit(now, demand.down_bytes)
            if hooks is not None and hooks.stage_failed(
                "link_outage", route, now, done, dev_busy, attempt, "downlink"
            ):
                return
            if rec is not None:
                rec.event(start, "transfer_start", task.name, req.req_id, resource=lres.name)
                rec.event(done, "transfer_end", task.name, req.req_id, resource=lres.name)
            net = net1 + (done - start)
            sim.schedule_at(done, lambda: finish(done, dev_busy, srv_busy, net))

        hooks = (
            _FaultHooks(fault_run, task, req, demand, dres, k, stage_uplink, finish)
            if fault_run is not None else None
        )
        stage_device()

    # -- arrivals -----------------------------------------------------------------
    total = 0
    for t in tasks:
        times = arrival_times(
            t.arrival_rate, cfg.horizon_s, cfg.arrival, cfg.burst_factor,
            derive(cfg.seed, "arrivals", t.name),
        )
        diff_rng = derive(cfg.seed, "difficulty", t.name)
        difficulties = t.model.difficulty.sample(diff_rng, times.size)
        for i, (at, d) in enumerate(zip(times, difficulties)):
            req = Request(
                task_name=t.name,
                req_id=i,
                arrival_s=float(at),
                difficulty=float(np.clip(d, 0.0, 1.0)),
                deadline_s=float(at) + t.deadline_s,
            )
            sim.schedule_at(float(at), (lambda tt=t, rr=req: launch(tt, rr)))
            total += 1
    if total == 0:
        raise SimulationError("no requests generated; horizon or rates too small")

    sim.run()  # drain everything (all arrivals are bounded by the horizon)

    servers = [
        r.srv
        for routes in route_sets
        for primary, standby in routes.values()
        for r in (primary, standby)
        if r is not None
    ]
    report = metrics.report(
        cfg.horizon_s,
        utilizations(device_res, servers, cfg.horizon_s),
        timeline=rec.timeline if rec is not None else None,
        registry=reg,
    )
    counters.requests = total
    counters.records = len(metrics.records)
    counters.discarded_warmup = metrics.discarded
    counters.events = sim.events_processed
    report.counters = counters
    report.windowed = wm
    if not counters.conserved():
        raise SimulationError(
            f"request conservation violated: {counters.requests} launched != "
            f"{counters.records} recorded + {counters.discarded_warmup} warmup "
            f"+ {counters.lost} lost + {counters.shed} shed"
        )
    if reg is not None:
        counters.publish(reg)
    return report
