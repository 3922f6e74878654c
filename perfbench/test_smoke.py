"""Smoke tests of the benchmark itself, on toy-sized workloads.

Run from the repository root:  python3 -m pytest -q perfbench/test_smoke.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import bench  # noqa: E402
import run  # noqa: E402
from layers import COUNTED, TIMED, LayerTracer, _resolve  # noqa: E402


def _declared(key: str) -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[key]}


def test_benchmark_json_matches_the_metric_tables():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert _declared("end_to_end") == run.END_TO_END
    assert _declared("per_layer") == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(bench.WORKLOADS)


@pytest.mark.parametrize("name", list(bench.WORKLOADS))
@pytest.mark.parametrize("trace", [False, True])
def test_toy_workload_emits_every_metric(name, trace):
    result, errors = run.run_workload(bench.WORKLOADS[name].toy(), 3, 0.2, trace)
    assert errors == []
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    units = run.PER_LAYER if trace else run.END_TO_END
    assert {k: m["unit"] for k, m in result["metrics"].items()} == units
    for metric, m in result["metrics"].items():
        assert np.isfinite(m["value"]), metric
    if not trace:
        # end-to-end metrics are never 0
        assert all(m["value"] > 0 for m in result["metrics"].values())
    else:
        # the traced cycle reproduced the untraced one bit for bit (else the
        # run is incorrect), and the layer split explains the measured calls
        assert result["metrics"]["trace.coverage"]["value"] >= 0.95
        assert result["metrics"]["sim.requests"]["value"] == (
            result["metrics"]["sim.records"]["value"]
            + result["metrics"]["sim.discarded_warmup"]["value"]
        )


def test_tracer_restores_every_patched_attribute():
    targets = [(t, a) for _, t, a, _ in TIMED] + [(t, a) for _, t, a in COUNTED]

    def current():
        out = []
        for target, attr in targets:
            owner = _resolve(target)
            out.append(owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr))
        return out

    before = current()
    tracer = LayerTracer()
    with tracer.installed():
        assert all(a is not b for a, b in zip(current(), before))
    assert all(a is b for a, b in zip(current(), before))


def test_self_times_partition_nested_spans():
    tracer = LayerTracer()
    tracer.spans.extend([
        ["outer", 0.0, 10.0, -1],
        ["inner", 1.0, 4.0, 0],
        ["leaf", 2.0, 3.0, 1],
        ["inner", 5.0, 6.0, 0],
    ])
    incl, excl, longest = tracer.layer_times()
    assert incl == {"outer": 10.0, "inner": 4.0, "leaf": 1.0}
    assert excl == {"outer": 6.0, "inner": 3.0, "leaf": 1.0}
    assert sum(excl.values()) == 10.0 and longest["inner"] == 3.0


def test_a_differing_repeat_counts_as_a_failed_operation():
    inst = bench.setup(bench.WORKLOADS["sim-deep"].toy(), 0)
    ops = bench.OpCounter()
    first = bench.run_cycle(inst, ops)
    wrong = dict(first.keys, solve=("not", "the", "plan"))
    with pytest.raises(bench.CheckFailed):
        bench.run_cycle(inst, ops, wrong)
    assert ops.failed == 1 and ops.errors[0].startswith("solve:")


def test_interpolated_quantile_stays_within_the_simulator_bin():
    inst = bench.setup(bench.WORKLOADS["sim-deep"].toy(), 1)
    out = bench.run_cycle(inst, bench.OpCounter())
    plan = out.result.plan
    report = bench.runner.simulate_plan(inst.tasks, plan, inst.cluster, inst.sim_config)
    for q in (50.0, 99.9):
        edge = report.stream.quantile(q)  # upper edge of the rank's bin
        value = bench.latency_quantile(report.stream, q)
        assert edge - bench.HIST_BIN_S <= value <= edge


def test_fails_without_printing_a_result_when_the_program_is_missing(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "sim-deep",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
