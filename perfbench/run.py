#!/usr/bin/env python3
"""The repository's benchmark: plan and simulate workloads, both planes.

Usage (from the repository root)::

    python3 perfbench/run.py --workload plan-1k --seed 0 --seconds 12 --trace 0
    python3 perfbench/run.py            # every workload, one process each

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs the same
cycle untraced, then traced, and prints the per-layer split.  The last
stdout line is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics`` (name -> value + unit).  The host block, the full result and the
traced spans land in ``perfbench/out/``.  See README.md for the workloads
and the layer -> end-to-end metric map.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

END_TO_END = {
    "setup_s": "s",
    "solve_s": "s",
    "replan_p50_s": "s",
    "plan_objective": "s",
    "sim_req_per_s": "1/s",
    "sim_miss_rate": "ratio",
    "sim_p50_ms": "ms",
    "sim_p999_ms": "ms",
    "peak_rss_mib": "MiB",
}

#: per-layer metric -> unit; ``*_s`` layers are self time per cycle unless
#: the README says otherwise
PER_LAYER = {
    "workloads.build_s": "s",
    "candidates.build_s": "s",
    "candidates.cache_hits": "count",
    "candidates.cache_misses": "count",
    "sharding.index_build_s": "s",
    "sharding.shard_plan_s": "s",
    "joint.shard_solve_s": "s",
    "joint.shard_solve_max_s": "s",
    "joint.self_s": "s",
    "joint.restarts": "count",
    "joint.iterations": "count",
    "joint.plan_met_ratio": "ratio",
    "candidates.latencies_s": "s",
    "surgery.refine_s": "s",
    "allocation.allocator_solve_s": "s",
    "allocation.assign_servers_s": "s",
    "allocation.latencies_s": "s",
    "allocation.latency_task_calls": "count",
    "allocation.allocate_calls": "count",
    "allocation.group_solves_per_call": "ratio",
    "allocation.latency_evals": "count",
    "allocation.candidate_evals": "count",
    "devices.blended_flops_calls": "count",
    "coordinator.self_s": "s",
    "coordinator.package_s": "s",
    "coordinator.migration_rounds": "count",
    "coordinator.migrations": "count",
    "sources.take_until_s": "s",
    "rng_vec.first_uniforms_s": "s",
    "rng_vec.draws": "count",
    "execution.realize_s": "s",
    "execution.jitter_s": "s",
    "queues.fifo_sweep_s": "s",
    "queues.link_sweep_s": "s",
    "queues.jobs": "count",
    "queues.jobs_per_busy_period": "ratio",
    "metrics.observe_s": "s",
    "windows.observe_s": "s",
    "fastpath.self_s": "s",
    "runner.report_s": "s",
    "sim.requests": "count",
    "sim.records": "count",
    "sim.discarded_warmup": "count",
    "sim.events": "count",
    "sim.lost": "count",
    "sim.shed": "count",
    "trace.coverage": "ratio",
    "trace.overhead_ratio": "ratio",
}

#: traced layer (as recorded by perfbench/layers.py) -> per-layer metric
SELF_TIMES = {
    "sharding.index_build": "sharding.index_build_s",
    "sharding.shard_plan": "sharding.shard_plan_s",
    "joint.shard_solve": "joint.self_s",
    "candidates.latencies": "candidates.latencies_s",
    "surgery.refine": "surgery.refine_s",
    "allocation.allocator_solve": "allocation.allocator_solve_s",
    "allocation.assign_servers": "allocation.assign_servers_s",
    "allocation.latencies": "allocation.latencies_s",
    "coordinator": "coordinator.self_s",
    "coordinator.package": "coordinator.package_s",
    "sources.take_until": "sources.take_until_s",
    "rng_vec.first_uniforms": "rng_vec.first_uniforms_s",
    "execution.realize": "execution.realize_s",
    "execution.jitter": "execution.jitter_s",
    "queues.fifo_sweep": "queues.fifo_sweep_s",
    "queues.link_sweep": "queues.link_sweep_s",
    "metrics.observe": "metrics.observe_s",
    "windows.observe": "windows.observe_s",
    "fastpath": "fastpath.self_s",
    "runner.report": "runner.report_s",
}


# -- host block ---------------------------------------------------------------


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_sha() -> str:
    """HEAD's sha read from ``.git`` directly; "unknown" outside a checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.exists():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def host_block(seed: int) -> dict:
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_sha": _git_sha(),
        "seed": seed,
    }


# -- one workload ---------------------------------------------------------------


def _setups(bench, w, seed, ops, tracer=None):
    """``SETUPS`` cold set-ups, each counted as one checked operation.

    Returns the last instance, the set-up walls and (traced) each set-up's
    layer self times.  Every set-up must warm up to the same plan.
    """
    inst, walls, layers = None, [], []
    for _ in range(bench.SETUPS):
        ops.attempted += 1
        t0 = perf_counter()
        prev, inst = inst, bench.setup(w, seed)
        walls.append(perf_counter() - t0)
        if prev is not None and prev.warm_objective != inst.warm_objective:
            ops.failed += 1
            ops.errors.append("setup: warm-up plans differ between set-ups")
            raise bench.CheckFailed("set-ups disagree")
        if tracer is not None:
            layers.append(tracer.layer_times()[1])
            tracer.reset()
    return inst, walls, layers


def per_layer(inst, setup_layers, untraced, traced, tracer) -> dict:
    """Per-layer split of one traced cycle (plus the set-up layers)."""
    incl, excl, longest = tracer.layer_times()
    counts = tracer.counts
    perf = traced.perf  # the solve's counters, then each re-plan's
    alloc_calls = sum(p.allocate_calls for p in perf)
    out = {
        "workloads.build_s": statistics.median(l["workloads.build"] for l in setup_layers),
        "candidates.build_s": statistics.median(l["candidates.build"] for l in setup_layers),
        "candidates.cache_hits": inst.cache_hits,
        "candidates.cache_misses": inst.cache_misses,
        "joint.shard_solve_s": incl.get("joint.shard_solve", 0.0),
        "joint.shard_solve_max_s": longest.get("joint.shard_solve", 0.0),
        "allocation.allocate_calls": alloc_calls,
        "allocation.group_solves_per_call":
            sum(p.allocate_group_solves for p in perf) / max(alloc_calls, 1),
        "allocation.latency_evals": sum(p.latency_evals for p in perf),
        "allocation.candidate_evals": sum(p.candidate_evals for p in perf),
        "joint.plan_met_ratio": traced.plan["met_ratio"],
        "coordinator.migration_rounds": perf[0].migration_rounds,
        "coordinator.migrations": perf[0].migrations,
        "queues.jobs_per_busy_period":
            counts["queues.jobs"] / max(counts["queues.busy_periods"], 1),
        "trace.coverage": sum(excl.values()) / traced.op_s,
        "trace.overhead_ratio": traced.op_s / untraced.op_s,
    }
    for name in ("joint.restarts", "joint.iterations", "allocation.latency_task_calls",
                 "devices.blended_flops_calls", "rng_vec.draws", "queues.jobs"):
        out[name] = counts[name]
    for layer, metric in SELF_TIMES.items():
        out[metric] = excl.get(layer, 0.0)
    for field, value in traced.sim_counters.items():
        if f"sim.{field}" in PER_LAYER:
            out[f"sim.{field}"] = value
    return out


def run_workload(w, seed: int, seconds: float, trace: bool):
    """Set up, measure and check one workload.

    Returns the result payload (the last stdout line) and the
    failed operations' messages.
    """
    import bench
    from layers import LayerTracer

    ops = bench.OpCounter()
    tracer = LayerTracer() if trace else None
    spans_origin = perf_counter()
    metrics: dict = {}
    samples: dict = {}
    try:
        if tracer is None:
            inst, setup_s, _ = _setups(bench, w, seed, ops)
            measured = bench.measure(inst, ops, seconds)
            samples = {"setup_s": setup_s, "solve_s": measured.solve_s,
                       "replan_s": measured.replan_s, "sim_s": measured.sim_s}
            metrics = bench.end_to_end(setup_s, measured)
            metrics["peak_rss_mib"] = (
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            )
        else:
            with tracer.installed():
                inst, _, setup_layers = _setups(bench, w, seed, ops, tracer)
            untraced = bench.run_cycle(inst, ops)
            with tracer.installed():
                # the traced cycle must reproduce the untraced outputs exactly
                traced = bench.run_cycle(inst, ops, untraced.keys)
            metrics = per_layer(inst, setup_layers, untraced, traced, tracer)
    except bench.CheckFailed:
        pass  # already counted as a failed operation
    except Exception as exc:  # a failed run still reports what it attempted
        traceback.print_exc()
        if not ops.errors:
            ops.failed += 1
            ops.errors.append(f"{type(exc).__name__}: {exc}")
    correct = ops.failed == 0 and bool(metrics)
    units = PER_LAYER if trace else END_TO_END
    result = {
        "correct": correct,
        "attempted": ops.attempted,
        "failed": ops.failed,
        "metrics": {
            name: {"value": metrics[name], "unit": unit}
            for name, unit in units.items()
            if name in metrics
        },
    }
    OUT.mkdir(exist_ok=True)
    stem = f"{w.name}-seed{seed}-trace{int(trace)}"
    (OUT / f"{stem}.json").write_text(json.dumps(
        {"workload": w.name, "host": host_block(seed), "seconds": seconds,
         "errors": ops.errors, "samples": samples, "result": result}, indent=2,
    ))
    if tracer is not None:
        tracer.write(OUT / f"{stem}.spans.jsonl", spans_origin)
    return result, ops.errors


# -- command line ---------------------------------------------------------------


def _print_result(name: str, result: dict, errors) -> None:
    for metric, m in result["metrics"].items():
        print(f"{name:>13s}  {metric:<34s} {m['value']:>16.6g} {m['unit']}")
    for err in errors:
        print(f"{name:>13s}  FAILED {err}")


def _run_all(args) -> int:
    """Every workload in its own process, one after another."""
    import bench

    ok, summary = True, {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in bench.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, check=False,
        )
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            print(f"{name}: no result (exit {proc.returncode})", file=sys.stderr)
            ok = False
            continue
        ok = ok and proc.returncode == 0 and result["correct"]
        summary["attempted"] += result["attempted"]
        summary["failed"] += result["failed"]
        for metric, m in result["metrics"].items():
            summary["metrics"][f"{name}/{metric}"] = m
    summary["correct"] = ok
    print(json.dumps(summary))
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all",
                        help="workload name, or 'all' (default)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=12.0,
                        help="measurement time per run (at least one cycle)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no program source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import bench

    if args.workload == "all":
        return _run_all(args)
    if args.workload not in bench.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {sorted(bench.WORKLOADS)} or 'all'")
    w = bench.WORKLOADS[args.workload]
    result, errors = run_workload(w, args.seed, args.seconds, bool(args.trace))
    print("host " + json.dumps(host_block(args.seed)))
    _print_result(w.name, result, errors)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
