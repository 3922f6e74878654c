"""Hypothesis differential matrix over every simulator configuration axis.

Each drawn example fixes a workload (seed × arrival model × load ×
``service_noise`` × ``windows`` × chunk size × cell count) and runs it on
every engine configuration that accepts it:

- the event loop with ``faults=None`` — the reference;
- the event loop under an empty ``FaultSchedule()`` (fault hooks engaged,
  nothing scheduled);
- the record-backed sweep (``fast_path=True``, chunked at the drawn size);
- the streaming sweep (``streaming=True``, keep-all reservoir);
- the sharded cell fan-out (``run_cells``) when more than one cell is drawn,
  against the per-cell event-loop references merged.

Per the existing engine contracts every run must match the reference on:
records (record-backed runs: content *and* event-loop order; streaming runs:
content), counters, warm-up discards, ``per_task`` (exactly for
record-backed runs, integer-derived state for streaming runs), utilizations
on the reference's keys (fault runs add standby ``srv:*:fo`` slices), and
the windowed integer state (``WindowedMetrics.fingerprint()``).
"""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.joint import JointOptimizer
from repro.faults import FaultSchedule
from repro.rng import derive_seed
from repro.sim import SimCounters, SimulationConfig, run_cells
from repro.sim.runner import simulate_plan
from repro.telemetry.windows import WindowConfig, WindowedMetrics

KEEP_ALL = 10**6
HORIZON_S = 5.0


@pytest.fixture(scope="module")
def solved(small_cluster, small_tasks, small_candidates):
    return JointOptimizer(small_cluster).solve(
        small_tasks, candidates=small_candidates, seed=0
    ).plan


def _record_key(r):
    return (r.task_name, r.req_id, r.arrival_s)


def _task_ints_from_records(records):
    """Integer-derived per-task state of a record list."""
    out = {}
    for r in records:
        c = out.setdefault(r.task_name, [0, 0, 0, 0, 0])
        c[0] += 1
        c[1] += r.met_deadline
        c[2] += r.correct
        c[3] += r.offloaded
        c[4] += r.exit_position
    return out


def _task_ints_from_stream(report):
    return {
        name: [s.count, s.met, s.correct, s.offloaded, s.exit_sum]
        for name, s in report.stream.per_task.items()
        if s.count
    }


def _fingerprint(report):
    return None if report.windowed is None else report.windowed.fingerprint()


def _shared_utils(report, ref):
    return {k: report.utilizations[k] for k in ref.utilizations}


def _assert_record_backed_equal(got, ref):
    assert got.records == ref.records  # every field, event-loop order
    assert got.counters == ref.counters
    assert got.discarded_warmup == ref.discarded_warmup
    assert got.per_task == ref.per_task
    assert _shared_utils(got, ref) == ref.utilizations
    assert _fingerprint(got) == _fingerprint(ref)


def _assert_streamed_equal(got, ref):
    assert sorted(got.records, key=_record_key) == sorted(ref.records, key=_record_key)
    assert got.counters == ref.counters
    assert got.discarded_warmup == ref.discarded_warmup
    assert _task_ints_from_stream(got) == _task_ints_from_records(ref.records)
    assert _shared_utils(got, ref) == ref.utilizations
    assert _fingerprint(got) == _fingerprint(ref)


@settings(max_examples=20, deadline=None)
@given(
    seed=st.integers(0, 1000),
    arrival=st.sampled_from(["poisson", "deterministic", "mmpp"]),
    load=st.sampled_from([1.0, 3.0]),
    noise=st.sampled_from([0.0, 0.3]),
    windowed=st.booleans(),
    chunk=st.one_of(st.integers(1, 128), st.just(65536), st.just(10**9)),
    cells=st.sampled_from([1, 1, 2, 3]),
)
def test_engine_matrix(
    small_cluster, small_tasks, solved,
    seed, arrival, load, noise, windowed, chunk, cells,
):
    tasks = [replace(t, arrival_rate=t.arrival_rate * load) for t in small_tasks]
    base = SimulationConfig(
        horizon_s=HORIZON_S, warmup_s=0.5, seed=seed, arrival=arrival,
        service_noise=noise, chunk_size=chunk,
        windows=WindowConfig(window_s=0.5) if windowed else None,
    )
    event = replace(base, fast_path=False)

    if cells == 1:
        ref = simulate_plan(tasks, solved, small_cluster, event)
        faulted = simulate_plan(
            tasks, solved, small_cluster, replace(event, faults=FaultSchedule())
        )
        _assert_record_backed_equal(faulted, ref)
        swept = simulate_plan(tasks, solved, small_cluster, base)
        _assert_record_backed_equal(swept, ref)
        streamed = simulate_plan(
            tasks, solved, small_cluster,
            replace(base, streaming=True, max_records=KEEP_ALL),
        )
        _assert_streamed_equal(streamed, ref)
        return

    # cell c runs the 1/cells-thinned workload under its derived seed; the
    # fan-out's merge must equal the merge of per-cell event-loop references
    thinned = [replace(t, arrival_rate=t.arrival_rate / cells) for t in tasks]
    refs = [
        simulate_plan(
            thinned, solved, small_cluster,
            replace(event, seed=seed if c == 0 else derive_seed(seed, "cell", c)),
        )
        for c in range(cells)
    ]
    merged = run_cells(
        tasks, solved, small_cluster, replace(base, max_records=KEEP_ALL), cells
    )
    assert merged.counters == SimCounters.merged(
        {c: r.counters for c, r in enumerate(refs)}
    )
    assert merged.discarded_warmup == sum(r.discarded_warmup for r in refs)
    records = [rec for r in refs for rec in r.records]
    assert sorted(merged.records, key=_record_key) == sorted(records, key=_record_key)
    assert _task_ints_from_stream(merged) == _task_ints_from_records(records)
    assert merged.utilizations == {
        k: float(np.mean([r.utilizations[k] for r in refs]))
        for k in refs[0].utilizations
    }
    if windowed:
        pooled = WindowedMetrics(base.windows, HORIZON_S)
        for r in refs:
            pooled.merge(r.windowed)
        assert merged.windowed.fingerprint() == pooled.fingerprint()
    else:
        assert merged.windowed is None
