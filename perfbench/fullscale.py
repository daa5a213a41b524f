"""Workload ``fullscale-cold-job``: cold jobs in a fresh process.

Each pass starts a fresh interpreter with ``REPRO_BENCH_SCALE=1.0`` and
runs two jobs cold, as a pool worker or service shard does for a new
scene: full-scale BUNNY (about 160K triangles, BVH build dominates) on
the stepped backend, then full-scale SHIP (about 6K triangles, trace
generation plus cold vector prep) on the vector backend.

The untraced pass calls ``SimulationJob.run()``.  The traced pass spells
the same job out as the chain of public calls it makes, with a span
around each, and must reproduce the same counters.

Run as ``python3 -m perfbench.fullscale`` this module is the child
process of one pass; it prints one JSON line.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import subprocess
import sys
import time

from repro.bvh.api import DEFAULT_WIDTH
from repro.bvh.builder import build_binary_bvh
from repro.bvh.layout import assign_addresses
from repro.bvh.wide import collapse_to_wide
from repro.core.presets import named_config
from repro.gpu.simulator import GPUSimulator
from repro.runtime.job import SimulationJob
from repro.trace.depth import depth_statistics
from repro.traversal.registry import resolve_strategy
from repro.workloads.lumibench import load_scene
from repro.workloads.params import DEFAULT_PARAMS, WorkloadParams

from perfbench.common import add_counts, gpu_counts, self_rss_mb
from perfbench.oracle import check_expected, check_op, counters_digest, job_key
from perfbench.spans import SpanRecorder, maybe_op
from perfbench.sweep import vector_prep

NAME = "fullscale-cold-job"
CONFIG = "RB_8+SH_8+SK+RA"
#: (scene, backend) of the two jobs, in run order.
JOBS = (("BUNNY", "stepped"), ("SHIP", "vector"))
#: A pass that takes longer than this is a failure, not a measurement.
CHILD_TIMEOUT_S = 150


def params(seed: int, tiny: bool) -> WorkloadParams:
    """Workload parameters: defaults, or a tiny frame for smoke tests."""
    if tiny:
        return WorkloadParams(width=8, height=8, max_bounces=2, seed=seed)
    return dataclasses.replace(DEFAULT_PARAMS, seed=seed)


def _child_env(ctx) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ctx.root / "src"), str(ctx.root)]
    )
    env.pop("REPRO_BENCH_SCALE", None)
    if not ctx.tiny:
        env["REPRO_BENCH_SCALE"] = "1.0"
    return env


def spawn(ctx, jobs, traced: bool) -> dict:
    """Run ``jobs`` cold in a fresh child process; its JSON report."""
    command = [
        sys.executable, "-m", "perfbench.fullscale",
        "--seed", str(ctx.seed), "--traced", str(int(traced)),
        "--tiny", str(int(ctx.tiny)),
        "--jobs", ",".join(f"{scene}:{backend}" for scene, backend in jobs),
    ]
    proc = subprocess.run(
        command, cwd=ctx.root, env=_child_env(ctx), capture_output=True,
        text=True, timeout=CHILD_TIMEOUT_S, check=False,
    )
    if proc.returncode != 0:
        raise RuntimeError(
            f"cold-job child exited {proc.returncode}:\n{proc.stderr[-2000:]}"
        )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def setup(ctx, rec=None):
    """Start a fresh interpreter that imports what a pass imports."""
    command = [sys.executable, "-c", "import perfbench.fullscale"]
    subprocess.run(command, cwd=ctx.root, env=_child_env(ctx), check=True,
                   timeout=CHILD_TIMEOUT_S)
    return {}


def run_pass(ctx, state, rec=None) -> dict:
    start = time.perf_counter()
    data = spawn(ctx, JOBS, traced=rec is not None)
    wall = time.perf_counter() - start
    if rec is not None:
        rec.extend(data["spans"])
    counts = dict(data["counts"])
    for op in data["ops"]:
        check_op(op, "simulated work is non-empty",
                 op["cycles"] > 0 and op["instructions"] > 0)
        check_expected(op, ctx.oracle, op["key"], op["digest"])
    counts["gpu.vector.fallbacks"] = sum(
        1 for op in data["ops"]
        if op["requested"] == "vector" and op["backend"] != "vector"
    )
    return {"wall": wall, "latencies": [wall], "ops": data["ops"],
            "counts": counts, "rss_mb": data["maxrss_mb"]}


def finish(ctx, state, ops, rec=None) -> dict:
    """Cross-pass and cross-backend checks once every pass is done."""
    by_key = {}
    for op in ops:
        by_key.setdefault(op["key"], []).append(op)
    for group in by_key.values():
        agree = len({op["digest"] for op in group}) == 1
        for op in group:
            check_op(op, "fresh-process passes agree", agree)
    # Vector jobs without a committed digest are checked against a
    # stepped run of the same job, in another fresh process.
    unpinned = sorted({
        op["scene"] for op in ops
        if op["requested"] == "vector"
        and ctx.oracle.expected(op["key"]) is None
    })
    if unpinned:
        reference = spawn(ctx, [(s, "stepped") for s in unpinned], False)
        stepped = {op["key"]: op["digest"] for op in reference["ops"]}
        for op in ops:
            if op["requested"] == "vector" and op["key"] in stepped:
                check_op(op, "vector equals stepped",
                         op["digest"] == stepped[op["key"]])
    return {}


# ----------------------------------------------------------------------
# the child process of one pass
# ----------------------------------------------------------------------


def _spelled_out(job, rec, counts):
    """``SimulationJob.run()`` as its chain of public calls, with spans."""
    with rec.span("workloads.load_scene", "workloads"):
        scene = load_scene(job.scene)
    with rec.span("bvh.build_binary", "bvh"):
        binary = build_binary_bvh(scene)
    with rec.span("bvh.collapse_wide", "bvh"):
        wide = collapse_to_wide(binary, width=DEFAULT_WIDTH)
    with rec.span("bvh.assign_addresses", "bvh"):
        assign_addresses(wide)
    strategy = resolve_strategy(job.strategy)
    with rec.span("trace.build_workload", "trace"):
        workload = strategy.build_workload(
            wide, width=job.width, height=job.height, spp=job.spp,
            max_bounces=job.max_bounces, seed=job.seed,
        )
    traces = workload.all_traces
    with rec.span("trace.depth_statistics", "trace"):
        depth_statistics(traces)
    simulator = GPUSimulator(
        config=job.config, verify_pops=job.verify_pops,
        strategy=job.strategy, backend=job.backend,
    )
    if job.backend == "vector":
        vector_prep(traces, simulator, rec)
        with rec.span("gpu.vector.run_traces", "gpu.vector"):
            output = simulator.run_traces(traces)
    else:
        with rec.span("gpu.stepped.run_traces", "gpu"):
            output = simulator.run_traces(traces)
    add_counts(counts, {
        "bvh.nodes": wide.node_count,
        "trace.rays": workload.ray_count,
        "trace.steps": workload.total_steps,
    })
    return output.counters, output.backend


def child_main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--traced", type=int, default=0)
    parser.add_argument("--tiny", type=int, default=0)
    parser.add_argument("--jobs", required=True)
    args = parser.parse_args(argv)
    tiny = bool(args.tiny)

    rec = SpanRecorder("cold") if args.traced else None
    run_params = params(args.seed, tiny)
    counts = {}
    ops = []
    for item in args.jobs.split(","):
        scene, backend = item.split(":")
        job = SimulationJob.from_params(
            scene, named_config(CONFIG), run_params, backend=backend,
        )
        name = job.describe()
        begin = time.perf_counter()
        with maybe_op(rec, name):
            if rec is not None:
                counters, used = _spelled_out(job, rec, counts)
            else:
                result = job.run()
                counters, used = result.counters, result.backend
        seconds = time.perf_counter() - begin
        add_counts(counts, gpu_counts(counters))
        ops.append({
            "name": name, "scene": scene, "seconds": seconds,
            "requested": backend, "backend": used,
            "cycles": counters.cycles, "instructions": counters.instructions,
            "digest": counters_digest(counters),
            "key": job_key(scene, CONFIG, job.strategy, job.width,
                           job.height, job.spp, job.max_bounces, job.seed,
                           None if tiny else 1.0),
        })
    print(json.dumps({
        "ops": ops,
        "counts": counts,
        "spans": rec.spans if rec is not None else [],
        "maxrss_mb": self_rss_mb(),
    }))
    return 0


if __name__ == "__main__":
    sys.exit(child_main())
