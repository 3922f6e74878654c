"""Vectorized fast path for :func:`repro.sim.runner.simulate_plan`.

The event loop's work factors into (a) per-request stochastic realization —
arrival times, difficulties, exit positions, correctness draws — and (b) a
device→uplink→server→downlink FIFO pipeline whose only coupling is each
resource's ``busy_until`` horizon.  Neither needs a heap: (a) vectorizes
completely (``RealizationTable`` + :mod:`repro.rng_vec`), and (b) reduces to
per-resource *sweeps* — one lean recurrence per resource over submissions in
the exact order the event loop would have made them.

The hard part is reproducing the event loop **bit for bit**, which pins two
orderings:

- *submission order* per resource: the shared device resource receives
  requests in ``(arrival, global-index)`` order; each per-task stage resource
  receives its task's offloaded requests in the stable sort of the previous
  stage's completion times over the previous stage's processing order (each
  stage event is scheduled while its predecessor fires, so heap sequence
  numbers inherit the predecessor's order);
- *record order*: completion callbacks interleave globally by
  ``(completion time, heap sequence)``, where the sequence comparison
  recurses through each request's scheduling chain.  That collapses to a
  lexicographic key — offloaded: ``(completion, server_done,
  uplink_delivery, device_done, arrival, gidx)``; non-offloaded:
  ``(completion, arrival, -inf, -inf, -inf, gidx)`` (the ``-inf`` padding
  encodes that arrival events always beat same-time dynamic events, since
  all arrivals are scheduled before the run starts and hold the lowest
  sequence numbers).

There is one sweep, :func:`sweep_chunked`, and it runs window by window.
Three facts make the chunking lossless:

1. Every stochastic column is chunkable: arrival streams replay the
   whole-horizon draw order (``repro.sim.sources.ArrivalStream``), difficulty
   draws are stream-sequential, and exec/jitter uniforms are counter-based
   (addressed by request index), so realizing requests window by window
   yields bit-identical columns.
2. Device submissions are ordered by ``(arrival, task order)``, and window
   boundaries split by arrival — every submission of window *k* precedes
   every submission of window *k+1*, so per-window sweeps see the global
   submission order.
3. Offload-stage submissions are ordered by the *previous* stage's finish
   times, which do not respect window boundaries; each stage therefore
   buffers pending submissions and only flushes entries whose stage key is
   strictly below the window edge ``t1``.  That is safe because any
   request realized in a later window has all stage timestamps ≥ its
   arrival ≥ ``t1``; within the flush, a stable argsort over
   ``[sorted carry-over ‖ new batch in request order]`` reproduces the
   global stable submission order (carry-over entries hold smaller request
   ids than any new entry, so ties resolve identically).

Each resource's ``sweep`` carries its busy horizon and busy-time
accumulator across calls with sequential-scalar semantics, so splitting one
sweep into many changes no bits.  Completed requests go to a *sink*:
streaming runs fold them into a bounded :class:`StreamingStats` accumulator
(observation order is irrelevant to every value it keeps), record-backed
runs hand them to a :class:`RecordSink`, which orders the collected columns
by the record-order key at the end.  Per-request state travels as one 2-D
float64 payload (rows below), so stage timestamps ride along at no extra
per-window concatenation.

Eligibility is decided by the caller (:func:`~repro.sim.runner.simulate_plan`):
telemetry, ``fast_path=False`` and fault runs take the event loop.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.core.plan import JointPlan, TaskSpec
from repro.errors import SimulationError
from repro.rng import derive, derive_material
from repro.rng_vec import first_uniforms
from repro.sim.entities import RequestRecord
from repro.sim.execution import RealizationTable, jitter_factors, jitter_materials
from repro.sim.metrics import SimCounters, StreamingStats
from repro.sim.queues import FifoResource
from repro.sim.sources import arrival_stream
from repro.telemetry.windows import WindowedMetrics

if TYPE_CHECKING:
    from repro.sim.eventloop import Route
    from repro.sim.runner import SimulationConfig

__all__ = ["RecordSink", "sweep_chunked"]

#: rows of the per-request payload (one column per request, all float64)
(
    _REQ, _ARRIVAL, _DEADLINE, _POS, _CORRECT,
    _DEV_FLOPS, _UP_BYTES, _SRV_FLOPS, _DOWN_BYTES,
    _DEV_BUSY, _NET_BUSY, _SRV_BUSY,
    _DEV_DONE, _UP_DONE, _SRV_DONE,
) = range(15)
_ROWS = 15

#: ``emit(task_index, payload, completion, offloaded)`` — a sink's intake
Emit = Callable[[int, np.ndarray, np.ndarray, bool], None]


def _record_order(
    completion: np.ndarray,
    arrival: np.ndarray,
    offloaded: np.ndarray,
    server_done: np.ndarray,
    uplink_delivery: np.ndarray,
    device_done: np.ndarray,
    task_index: np.ndarray,
    req_id: np.ndarray,
) -> np.ndarray:
    """Global completion-callback order of the event loop.

    Ties in completion time resolve by heap sequence number, which recurses
    through each request's scheduling chain (finish ← downlink ← server ←
    uplink ← arrival for offloaded; finish ← arrival for non-offloaded).
    ``-inf`` in the offload-only key slots encodes that an arrival event
    outranks any same-time dynamic event; remaining full ties fall back to
    the global scheduling index, i.e. ``(task index, request id)``.
    """
    neg_inf = np.float64(-np.inf)
    k2 = np.where(offloaded, server_done, arrival)
    k3 = np.where(offloaded, uplink_delivery, neg_inf)
    k4 = np.where(offloaded, device_done, neg_inf)
    k5 = np.where(offloaded, arrival, neg_inf)
    return np.lexsort((req_id, task_index, k5, k4, k3, k2, completion))


class RecordSink:
    """Completion sink of record-backed runs: records in event-loop order.

    Collects every warm completion's payload columns as the sweep emits
    them and, in :meth:`records`, orders them by :func:`_record_order` —
    the order in which the event loop's completion callbacks would have
    recorded them.  With ``windowed`` set, completions also fold into the
    tumbling-window aggregator as they arrive (the same feed the streaming
    accumulator uses, so the integer state is engine-independent).
    """

    def __init__(
        self, names: Sequence[str], windowed: Optional[WindowedMetrics] = None
    ) -> None:
        self.names = list(names)
        self.windowed = windowed
        self._parts: List[Tuple[int, np.ndarray, np.ndarray, bool]] = []

    def __call__(
        self, i: int, pay: np.ndarray, completion: np.ndarray, offloaded: bool
    ) -> None:
        self._parts.append((i, pay, completion, offloaded))
        if self.windowed is not None:
            self.windowed.observe(
                self.names[i],
                completion,
                completion - pay[_ARRIVAL],
                completion <= pay[_DEADLINE] + 1e-12,
            )

    def records(self) -> List[RequestRecord]:
        if not self._parts:
            return []
        parts = self._parts
        pay = np.concatenate([p for _, p, _, _ in parts], axis=1)
        completion = np.concatenate([c for _, _, c, _ in parts])
        offloaded = np.concatenate([np.full(c.size, o) for _, _, c, o in parts])
        task = np.concatenate([np.full(c.size, i, dtype=np.intp) for i, _, c, _ in parts])
        if np.any(completion < pay[_ARRIVAL]):  # pragma: no cover - structural invariant
            bad = int(np.argmax(completion < pay[_ARRIVAL]))
            raise SimulationError(f"request #{bad} completes before it arrives")
        order = _record_order(
            completion, pay[_ARRIVAL], offloaded, pay[_SRV_DONE], pay[_UP_DONE],
            pay[_DEV_DONE], task, pay[_REQ],
        )
        pay = pay[:, order]
        names = self.names
        return [
            RequestRecord(
                task_name=names[t],
                req_id=r,
                arrival_s=a,
                completion_s=c,
                deadline_s=d,
                exit_position=p,
                offloaded=o,
                correct=ok,
                dev_busy_s=db,
                srv_busy_s=sb,
                net_busy_s=nb,
            )
            for t, r, a, c, d, p, o, ok, db, sb, nb in zip(
                task[order].tolist(),
                pay[_REQ].astype(np.int64).tolist(),
                pay[_ARRIVAL].tolist(),
                completion[order].tolist(),
                pay[_DEADLINE].tolist(),
                pay[_POS].astype(np.int64).tolist(),
                offloaded[order].tolist(),
                (pay[_CORRECT] != 0).tolist(),
                pay[_DEV_BUSY].tolist(),
                pay[_SRV_BUSY].tolist(),
                pay[_NET_BUSY].tolist(),
            )
        ]


def _stats_emitter(stats: StreamingStats, names: Sequence[str]) -> Emit:
    """Adapt a :class:`StreamingStats` accumulator to the sweep's sink intake."""

    def emit(i: int, pay: np.ndarray, completion: np.ndarray, offloaded: bool) -> None:
        stats.observe(
            names[i],
            pay[_REQ].astype(np.int64),
            pay[_ARRIVAL],
            completion,
            pay[_DEADLINE],
            pay[_POS].astype(np.int64),
            np.full(completion.size, offloaded),
            pay[_CORRECT].astype(bool),
            pay[_DEV_BUSY],
            pay[_SRV_BUSY],
            pay[_NET_BUSY],
        )

    return emit


_EMPTY = np.empty((_ROWS, 0), dtype=np.float64)


class _StageBuffer:
    """Pending submissions of one pipeline stage, in submission order.

    Holds payload columns keyed by row ``key_row`` — the previous stage's
    finish time (= this stage's submission time).  :meth:`push_flush`
    appends a batch in request order, restores global submission order with
    a stable argsort, and splits off every column with ``key < threshold``.
    """

    __slots__ = ("key_row", "payload")

    def __init__(self, key_row: int) -> None:
        self.key_row = key_row
        self.payload = _EMPTY

    def push_flush(self, batch: np.ndarray, threshold: float) -> np.ndarray:
        if batch.shape[1]:
            merged = (
                np.concatenate([self.payload, batch], axis=1)
                if self.payload.shape[1] else batch
            )
            merged = merged[:, np.argsort(merged[self.key_row], kind="stable")]
        else:
            merged = self.payload
        split = int(np.searchsorted(merged[self.key_row], threshold, side="left"))
        # copy the (in-flight) remainder so the flushed columns' storage is
        # freed once the next stage has consumed them
        self.payload = merged[:, split:].copy() if split else merged
        return merged[:, :split]


class _ChunkedTaskStream:
    """Incremental realization of one task's request stream.

    Arrivals come from the replaying :func:`arrival_stream`, difficulties
    from the derived generator (stream-sequential draws), and exec/jitter
    uniforms from counter-based draws addressed by request index — so any
    window split realizes the same columns.
    """

    __slots__ = (
        "task", "table", "arrivals", "diff_rng", "exec_material",
        "generated", "offloaded_total", "up_buf", "srv_buf", "down_buf",
        "sigma", "jitter_mats",
    )

    def __init__(self, task: TaskSpec, plan: JointPlan, cfg: "SimulationConfig") -> None:
        self.task = task
        self.table = RealizationTable(task.model, plan.features[task.name].plan)
        self.arrivals = arrival_stream(
            task.arrival_rate,
            cfg.horizon_s,
            cfg.arrival,
            cfg.burst_factor,
            derive(cfg.seed, "arrivals", task.name),
        )
        self.diff_rng = derive(cfg.seed, "difficulty", task.name)
        self.exec_material = derive_material(cfg.seed, "exec", task.name)
        self.generated = 0
        self.offloaded_total = 0
        self.up_buf = _StageBuffer(_DEV_DONE)
        self.srv_buf = _StageBuffer(_UP_DONE)
        self.down_buf = _StageBuffer(_SRV_DONE)
        self.sigma = cfg.service_noise
        self.jitter_mats = (
            jitter_materials(cfg.seed, task.name) if self.sigma > 0 else None
        )

    def realize(self, t_end: float) -> Tuple[np.ndarray, np.ndarray]:
        """Payload and offload mask of the requests arriving by ``t_end``."""
        arrival = self.arrivals.take_until(t_end)
        m = arrival.size
        difficulties = np.clip(
            self.task.model.difficulty.sample(self.diff_rng, m), 0.0, 1.0
        )
        table = self.table
        pos = table.positions(difficulties)
        req_id = np.arange(self.generated, self.generated + m, dtype=np.int64)
        uniforms = first_uniforms(self.exec_material, req_id)
        self.generated += m
        offloaded = table.offloaded[pos]
        self.offloaded_total += int(np.count_nonzero(offloaded))
        pay = np.empty((_ROWS, m), dtype=np.float64)
        pay[_REQ] = req_id
        pay[_ARRIVAL] = arrival
        pay[_DEADLINE] = arrival + self.task.deadline_s
        pay[_POS] = pos
        pay[_CORRECT] = uniforms < table.p_correct(pos, difficulties)
        pay[_DEV_FLOPS] = table.dev_flops[pos]
        pay[_UP_BYTES] = table.up_bytes[pos]
        pay[_SRV_FLOPS] = table.srv_flops[pos]
        pay[_DOWN_BYTES] = table.down_bytes[pos]
        if self.jitter_mats is not None:
            # the same per-(task, stage) factors the event loop applies per
            # request via jitter_demand, regardless of window splits
            for row, stage in (
                (_DEV_FLOPS, "dev"), (_SRV_FLOPS, "srv"),
                (_UP_BYTES, "up"), (_DOWN_BYTES, "down"),
            ):
                pay[row] *= jitter_factors(self.jitter_mats[stage], req_id, self.sigma)
        pay[_NET_BUSY] = 0.0
        pay[_SRV_BUSY] = 0.0
        pay[_UP_DONE] = -np.inf
        pay[_SRV_DONE] = -np.inf
        return pay, offloaded


def _sweep_devices_window(
    streams: Sequence[_ChunkedTaskStream],
    payloads: Sequence[np.ndarray],
    device_res: Dict[str, FifoResource],
) -> None:
    """Merged arrival-order sweep of every shared device over one window.

    The event loop submits device work while arrival events fire, i.e. in
    ``(arrival time, global scheduling index)`` order; concatenating the
    device's payloads in task order *is* global-index order, so a stable
    argsort by arrival reproduces it exactly.  Fills each payload's
    ``_DEV_BUSY`` / ``_DEV_DONE`` rows in place.
    """
    by_device: Dict[str, List[np.ndarray]] = {}
    for s, pay in zip(streams, payloads):
        by_device.setdefault(s.task.device_name, []).append(pay)
    for dname, members in by_device.items():
        arrival = np.concatenate([p[_ARRIVAL] for p in members])
        if arrival.size == 0:
            continue
        work = np.concatenate([p[_DEV_FLOPS] for p in members])
        order = np.argsort(arrival, kind="stable")
        starts, finishes = device_res[dname].sweep(arrival[order], work[order])
        done = np.empty_like(arrival)
        busy = np.empty_like(arrival)
        done[order] = finishes
        busy[order] = finishes - starts
        off = 0
        for p in members:
            n = p.shape[1]
            p[_DEV_DONE] = done[off : off + n]
            p[_DEV_BUSY] = busy[off : off + n]
            off += n


def _emit_warm(
    emit: Emit, i: int, pay: np.ndarray, completion: np.ndarray,
    offloaded: bool, warmup_s: float,
) -> int:
    """Hand the post-warmup completions to the sink; return the discards."""
    keep = pay[_ARRIVAL] >= warmup_s
    kept = int(np.count_nonzero(keep))
    if kept == keep.size:
        emit(i, pay, completion, offloaded)
    elif kept:
        emit(i, pay[:, keep], completion[keep], offloaded)
    return keep.size - kept


def _advance_task_window(
    s: _ChunkedTaskStream,
    i: int,
    pay: np.ndarray,
    offloaded: np.ndarray,
    threshold: float,
    warmup_s: float,
    route: "Optional[Route]",
    emit: Emit,
) -> int:
    """Advance one task through uplink → server → downlink for one window.

    Locally-completed requests are emitted immediately; offloaded ones enter
    the stage buffers and are flushed stage by stage up to ``threshold``
    (the window edge, or ``inf`` on the final drain).  Returns the number
    of warmup-discarded completions this window.
    """
    discarded = 0
    n_off = int(np.count_nonzero(offloaded))
    if n_off < offloaded.size:
        local = pay if n_off == 0 else pay[:, ~offloaded]
        discarded += _emit_warm(emit, i, local, local[_DEV_DONE], False, warmup_s)
    if n_off == 0:
        pay = _EMPTY
    elif n_off < offloaded.size:
        pay = pay[:, offloaded]

    # uplink: submissions keyed by device completion
    up = s.up_buf.push_flush(pay, threshold)
    if up.shape[1]:
        start, deliver = route.up.sweep(up[_DEV_DONE], up[_UP_BYTES])
        up[_NET_BUSY] = deliver - start
        up[_UP_DONE] = deliver

    # server: submissions keyed by uplink delivery
    srv = s.srv_buf.push_flush(up, threshold)
    if srv.shape[1]:
        start, done = route.srv.sweep(srv[_UP_DONE], srv[_SRV_FLOPS])
        srv[_SRV_BUSY] = done - start
        srv[_SRV_DONE] = done

    # downlink: submissions keyed by server completion
    down = s.down_buf.push_flush(srv, threshold)
    if down.shape[1]:
        start, deliver = route.down.sweep(down[_SRV_DONE], down[_DOWN_BYTES])
        down[_NET_BUSY] += deliver - start
        discarded += _emit_warm(emit, i, down, deliver, True, warmup_s)
    return discarded


def sweep_chunked(
    tasks: Sequence[TaskSpec],
    plan: JointPlan,
    cfg: "SimulationConfig",
    device_res: Dict[str, FifoResource],
    routes: "Dict[str, Route]",
    sink: Union[StreamingStats, RecordSink],
) -> Tuple[int, SimCounters]:
    """Vectorized equivalent of the event loop over already-built resources.

    Realizes arrivals in windows of roughly ``cfg.chunk_size`` requests,
    sweeps each resource window by window (bit-identical recurrences — see
    module docstring), and hands warm completions to ``sink``.  Mutates the
    resources exactly as the event loop would (busy horizons, busy time,
    job counts) and returns ``(discarded, counters)``; per-request results
    (and therefore utilizations, counters, and every integer-derived
    aggregate) are bit-identical to the event loop on the same seed for
    any chunk size.

    Memory stays O(chunk + in-flight requests) plus whatever the sink
    keeps: stage buffers only grow with queue backlog, which is bounded in
    any stable configuration.
    """
    names = [t.name for t in tasks]
    emit = sink if isinstance(sink, RecordSink) else _stats_emitter(sink, names)
    streams = [_ChunkedTaskStream(t, plan, cfg) for t in tasks]
    task_routes = [routes.get(name) for name in names]
    total_rate = sum(t.arrival_rate for t in tasks)
    window_s = max(cfg.chunk_size / total_rate, 1e-9) if total_rate > 0 else cfg.horizon_s
    warmup = cfg.warmup_s
    discarded = 0

    t = 0.0
    while True:
        t1 = t + window_s
        last = t1 >= cfg.horizon_s
        threshold = np.inf if last else t1
        batches = [s.realize(min(t1, cfg.horizon_s)) for s in streams]
        _sweep_devices_window(streams, [pay for pay, _ in batches], device_res)
        for i, (s, (pay, offloaded)) in enumerate(zip(streams, batches)):
            discarded += _advance_task_window(
                s, i, pay, offloaded, threshold, warmup, task_routes[i], emit
            )
        if last:
            break
        t = t1

    total = sum(s.generated for s in streams)
    if total == 0 and not cfg.allow_empty:
        raise SimulationError("no requests generated; horizon or rates too small")
    n_off = sum(s.offloaded_total for s in streams)
    counters = SimCounters(
        requests=total,
        records=total - discarded,
        discarded_warmup=discarded,
        events=2 * (total - n_off) + 5 * n_off,
        replications=1,
    )
    return discarded, counters
