"""Workload ``config-sweep``: the paper's experiment shape, in process.

Set-up builds and traces CRNVL (clutter), SHIP (leaf-heavy) and ROBOT
(deep stacks) at default scale, including phase one of the ``stackless``
and ``reorder`` strategies.  Each pass replays every scene under the
paper's configuration ladder plus the two strategies at ``RB_8``, each
on the stepped and the vector backend through
``GPUSimulator.run_traces``.  Vector artifacts are dropped from the
traces before every vector run, so each config pays its SoA pack and
plan build as a fresh worker would.  BVH build and tracing happen only
in set-up, so this workload bypasses the ``bvh`` and ``trace`` layers.
"""

from __future__ import annotations

import time

from repro.bvh.api import build_bvh
from repro.core.presets import named_config
from repro.gpu.simulator import GPUSimulator
from repro.gpu.vector import (
    VectorUnsupported,
    pack_trace,
    vector_unsupported_reason,
    warp_plan,
)
from repro.gpu.vector.soa import trace_cache
from repro.gpu.warp import pack_warps
from repro.traversal.registry import resolve_strategy
from repro.workloads.lumibench import load_scene
from repro.workloads.params import DEFAULT_PARAMS

from perfbench.common import add_counts, geomean, gpu_counts, self_rss_mb
from perfbench.oracle import (
    check_expected,
    check_op,
    counters_digest,
    job_key,
)
from perfbench.spans import maybe_op, maybe_span

NAME = "config-sweep"
SCENES = ("CRNVL", "SHIP", "ROBOT")
CONFIGS = (
    "RB_2", "RB_8", "RB_16", "RB_FULL", "RB_8+SH_8", "RB_8+SH_8+SK",
    "RB_8+SH_8+SK+RA", "RB_8+SH_16+SK+RA",
)
#: (config, strategy) pairs replayed per scene.
RUNS = tuple((c, "sms") for c in CONFIGS) + (
    ("RB_8", "stackless"), ("RB_8", "reorder"),
)
BACKENDS = ("stepped", "vector")
#: The SMS gain the paper reports, IPC(RB_8+SH_8+SK+RA) / IPC(RB_8).
GAIN_CONFIGS = ("RB_8+SH_8+SK+RA", "RB_8")

TINY_SCENES = ("SHIP",)
TINY_RUNS = (("RB_8", "sms"), ("RB_8+SH_8+SK+RA", "sms"),
             ("RB_8", "stackless"))


def shape(ctx, scene):
    """(width, height, spp, max_bounces) of one scene's frame."""
    if ctx.tiny:
        return 8, 8, 1, 2
    width, height, spp = DEFAULT_PARAMS.for_scene(scene)
    return width, height, spp, DEFAULT_PARAMS.max_bounces


def runs(ctx):
    return TINY_RUNS if ctx.tiny else RUNS


def setup(ctx, rec=None):
    """Build and trace every scene under every strategy's phase one."""
    strategies = sorted({strategy for _, strategy in runs(ctx)})
    traces = {}
    for scene_name in TINY_SCENES if ctx.tiny else SCENES:
        width, height, spp, bounces = shape(ctx, scene_name)
        with maybe_span(rec, "workloads.load_scene", "workloads"):
            scene = load_scene(scene_name)
        with maybe_span(rec, "bvh.build_bvh", "bvh"):
            bvh = build_bvh(scene)
        for name in strategies:
            with maybe_span(rec, "trace.build_workload", "trace"):
                workload = resolve_strategy(name).build_workload(
                    bvh, width=width, height=height, spp=spp,
                    max_bounces=bounces, seed=ctx.seed,
                )
            traces[scene_name, name] = workload.all_traces
    return {"traces": traces}


def vector_prep(traces, simulator, rec):
    """The cold SoA pack and plan build, spelled out for the traced run."""
    if vector_unsupported_reason(simulator.config) is not None:
        return
    with rec.span("gpu.vector.pack_trace", "gpu.vector"):
        for trace in traces:
            pack_trace(trace)
    with rec.span("gpu.vector.warp_plan", "gpu.vector"):
        try:
            for warp in pack_warps(traces,
                                   warp_size=simulator.config.warp_size):
                warp_plan(warp, simulator.config, simulator.strategy)
        except VectorUnsupported:
            return


def _replay(traces, config_name, strategy, backend, rec):
    """One op: a whole-frame replay through ``GPUSimulator.run_traces``."""
    simulator = GPUSimulator(
        config=named_config(config_name), verify_pops=False,
        strategy=strategy, backend=backend,
    )
    if rec is None:
        return simulator.run_traces(traces)
    if backend == "vector":
        vector_prep(traces, simulator, rec)
    layer = "gpu.vector" if backend == "vector" else "gpu"
    with rec.span(f"gpu.{backend}.run_traces", layer):
        return simulator.run_traces(traces)


def run_pass(ctx, state, rec=None) -> dict:
    ops = []
    counts = {"gpu.vector.fallbacks": 0}
    ipc = {}
    wall = 0.0
    for (scene, strategy), traces in state["traces"].items():
        width, height, spp, bounces = shape(ctx, scene)
        for config_name, run_strategy in runs(ctx):
            if run_strategy != strategy:
                continue
            key = job_key(scene, config_name, strategy, width, height, spp,
                          bounces, ctx.seed, None)
            stepped = None
            for backend in BACKENDS:
                for trace in traces:
                    trace_cache(trace).clear()
                name = f"{scene}/{config_name}/{strategy}@{backend}"
                begin = time.perf_counter()
                with maybe_op(rec, name):
                    output = _replay(traces, config_name, strategy, backend,
                                     rec)
                seconds = time.perf_counter() - begin
                wall += seconds
                digest = counters_digest(output.counters)
                op = {"name": name, "seconds": seconds, "digest": digest}
                check_expected(op, ctx.oracle, key, digest)
                if backend == "stepped":
                    stepped = op
                    ipc[scene, config_name, strategy] = output.counters.ipc
                else:
                    # The pair passes or fails together.
                    for member in (stepped, op):
                        check_op(member, "vector equals stepped",
                                 digest == stepped["digest"])
                    if output.backend != "vector":
                        counts["gpu.vector.fallbacks"] += 1
                ops.append(op)
                add_counts(counts, gpu_counts(output.counters))
    gains = [
        ipc[scene, GAIN_CONFIGS[0], "sms"] / ipc[scene, GAIN_CONFIGS[1], "sms"]
        for scene in sorted({scene for scene, _, _ in ipc})
        if (scene, GAIN_CONFIGS[0], "sms") in ipc
        and (scene, GAIN_CONFIGS[1], "sms") in ipc
    ]
    counts["gpu.sms_ipc_gain_pct"] = (geomean(gains) - 1.0) * 100.0
    return {"wall": wall, "latencies": [wall], "ops": ops, "counts": counts,
            "rss_mb": self_rss_mb()}


def finish(ctx, state, ops, rec=None) -> dict:
    """Every check already ran inside the pass."""
    return {}
