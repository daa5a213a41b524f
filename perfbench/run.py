"""Run one benchmark workload and print its metrics.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload config-sweep --seed 0 --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics with no tracing.
``--trace 1`` measures untraced passes, then traced passes with spans
around every call into a ``repro`` layer, and prints the per-layer
metrics; the spans are written as a Chrome-trace/Perfetto file under
``.perfbench/``.  Every operation's output is checked (see
``oracle.py``); a failed check makes the run exit 1.  The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.
"""

from __future__ import annotations

import time

_STARTED = time.perf_counter()

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import multiprocessing  # noqa: E402
import os  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent

#: Workload name -> the module that implements it (``setup``,
#: ``run_pass`` and ``finish``).
WORKLOADS = {
    "fullscale-cold-job": "perfbench.fullscale",
    "config-sweep": "perfbench.sweep",
    "service-campaign": "perfbench.service",
    "lint-snapshot": "perfbench.lint",
}

#: Set-up repetitions per run; ``setup_s`` reports their median.
SETUP_REPS = 3

END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("latency_p50_s", "s"),
    ("latency_p95_s", "s"),
    ("jobs_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
)

#: Metrics whose value is the summed duration of spans of the same name
#: (without the ``_s``) in one traced pass.
SPAN_METRICS = (
    "workloads.load_scene_s",
    "bvh.build_binary_s", "bvh.collapse_wide_s", "bvh.assign_addresses_s",
    "trace.build_workload_s",
    "gpu.stepped.run_traces_s",
    "gpu.vector.pack_trace_s", "gpu.vector.warp_plan_s",
    "gpu.vector.run_traces_s",
    "runtime.store_get_s", "runtime.store_put_s",
)

PER_LAYER = (
    ("sim_cycles_per_s", "cycles/s"),
    ("failed_frac", "fraction"),
    ("workloads.load_scene_s", "s"),
    ("bvh.build_binary_s", "s"),
    ("bvh.collapse_wide_s", "s"),
    ("bvh.assign_addresses_s", "s"),
    ("bvh.nodes", "count"),
    ("bvh.share", "fraction"),
    ("trace.build_workload_s", "s"),
    ("trace.rays", "count"),
    ("trace.steps", "count"),
    ("trace.steps_per_s", "1/s"),
    ("gpu.stepped.run_traces_s", "s"),
    ("gpu.sim_cycles", "cycles"),
    ("gpu.warp_steps", "count"),
    ("gpu.offchip_accesses", "count"),
    ("gpu.stack_global_ops", "count"),
    ("gpu.sms_ipc_gain_pct", "%"),
    ("gpu.vector.pack_trace_s", "s"),
    ("gpu.vector.warp_plan_s", "s"),
    ("gpu.vector.run_traces_s", "s"),
    ("gpu.vector.prep_share", "fraction"),
    ("gpu.vector.fallbacks", "count"),
    ("runtime.job_run_s", "s"),
    ("runtime.store_get_s", "s"),
    ("runtime.store_put_s", "s"),
    ("runtime.store_hits", "count"),
    ("service.submitted", "count"),
    ("service.admitted", "count"),
    ("service.coalesced", "count"),
    ("service.memory_hits", "count"),
    ("service.cache_hits", "count"),
    ("service.shed", "count"),
    ("service.steals", "count"),
    ("service.redeliveries", "count"),
    ("service.serial_fallbacks", "count"),
    ("service.trace_evictions", "count"),
    ("service.reuse_ratio", "fraction"),
    ("service.queue_wait_s", "s"),
    ("service.shard_s", "s"),
    ("service.hit_latency_p50_s", "s"),
    ("simlint.cold_s", "s"),
    ("simlint.warm_s", "s"),
    ("simlint.files", "count"),
    ("simlint.findings", "count"),
    ("bench.trace_overhead_frac", "fraction"),
    ("bench.span_coverage", "fraction"),
    ("bench.latency_samples", "count"),
    ("selftime.bench_s", "s"),
    ("selftime.workloads_s", "s"),
    ("selftime.bvh_s", "s"),
    ("selftime.trace_s", "s"),
    ("selftime.gpu_s", "s"),
    ("selftime.gpu.vector_s", "s"),
    ("selftime.runtime_s", "s"),
    ("selftime.service_s", "s"),
    ("selftime.simlint_s", "s"),
)


class CheckoutError(RuntimeError):
    """The benchmark cannot run against this directory."""


def bind_checkout(scratch: Path) -> None:
    """Import ``repro`` from this checkout's ``src/`` and nowhere else."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        raise CheckoutError(f"no repro package under {src}")
    sys.path[:0] = [str(src), str(ROOT)]
    import repro

    if Path(repro.__file__).resolve().parent != (src / "repro").resolve():
        raise CheckoutError(f"repro imported from {repro.__file__}")
    tmp = scratch / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(tmp)
    tempfile.tempdir = str(tmp)
    os.environ["REPRO_CACHE_DIR"] = str(scratch / "repro-cache")
    # The parent runs at the default geometry scale; the cold-job child
    # sets its own.
    os.environ.pop("REPRO_BENCH_SCALE", None)


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="tiny inputs, for the smoke tests")
    parser.add_argument("--expected", default=None,
                        help="expected-digest file (default: expected.json)")
    return parser.parse_args(argv)


def _passes(module, ctx, state, seconds, traced):
    from perfbench.spans import SpanRecorder

    out = []
    begin = time.perf_counter()
    while True:
        rec = SpanRecorder(f"pass{len(out)}") if traced else None
        result = module.run_pass(ctx, state, rec)
        result["spans"] = rec.spans if rec is not None else []
        out.append(result)
        if time.perf_counter() - begin >= seconds:
            return out


def _end_to_end(setup_s, untraced):
    from perfbench.common import median, quantile

    latencies = [s for p in untraced for s in p["latencies"]]
    walls = [p["wall"] for p in untraced]
    return {
        "setup_s": setup_s,
        "wall_s": median(walls),
        "latency_p50_s": quantile(latencies, 0.50),
        "latency_p95_s": quantile(latencies, 0.95),
        "jobs_per_s": sum(len(p["ops"]) for p in untraced) / sum(walls),
        "peak_rss_mb": median([p["rss_mb"] for p in untraced]),
    }, len(latencies)


def _pass_layers(p):
    from perfbench import spans as sp

    metrics = {name: 0.0 for name, _ in PER_LAYER}
    times = sp.layer_times(p["spans"])
    for name in SPAN_METRICS:
        metrics[name] = times.get(name[:-2], 0.0)
    metrics.update(p["counts"])
    op_s = sp.op_seconds(p["spans"])
    bvh_s = sum(metrics[n] for n in (
        "bvh.build_binary_s", "bvh.collapse_wide_s", "bvh.assign_addresses_s"
    ))
    metrics["bvh.share"] = bvh_s / op_s if op_s else 0.0
    if metrics["trace.build_workload_s"]:
        metrics["trace.steps_per_s"] = (
            metrics["trace.steps"] / metrics["trace.build_workload_s"]
        )
    prep = metrics["gpu.vector.pack_trace_s"] + metrics["gpu.vector.warp_plan_s"]
    if prep + metrics["gpu.vector.run_traces_s"]:
        metrics["gpu.vector.prep_share"] = (
            prep / (prep + metrics["gpu.vector.run_traces_s"])
        )
    for layer, seconds in sp.self_times(p["spans"]).items():
        metrics[f"selftime.{layer}_s"] = seconds
    metrics["bench.span_coverage"] = sp.coverage(p["spans"])
    return metrics


def _per_layer(untraced, traced, extra, attempted, failed, samples):
    from perfbench.common import median

    per_pass = [_pass_layers(p) for p in traced]
    metrics = {
        name: median([m.get(name, 0.0) for m in per_pass])
        for name, _ in PER_LAYER
    }
    metrics.update(extra)
    untraced_wall = median([p["wall"] for p in untraced])
    traced_wall = median([p["wall"] for p in traced])
    metrics["bench.trace_overhead_frac"] = traced_wall / untraced_wall - 1.0
    cycles = median([p["counts"].get("gpu.sim_cycles", 0) for p in untraced])
    metrics["sim_cycles_per_s"] = cycles / untraced_wall
    metrics["failed_frac"] = failed / attempted
    metrics["bench.latency_samples"] = samples
    return metrics


def run(args) -> int:
    from perfbench.common import WORK_DIR, Context, median
    from perfbench.oracle import EXPECTED_PATH, Oracle, failures
    from perfbench.spans import SpanRecorder, write_chrome_trace

    work = ROOT / WORK_DIR
    scratch = work / f"run-{os.getpid()}"
    try:
        bind_checkout(scratch)
        oracle = Oracle(Path(args.expected) if args.expected else EXPECTED_PATH)
    except (CheckoutError, ImportError, OSError, ValueError, KeyError) as error:
        shutil.rmtree(scratch, ignore_errors=True)
        print(f"perfbench: cannot run here: {error}", file=sys.stderr)
        return 2
    module = importlib.import_module(WORKLOADS[args.workload])
    import_s = time.perf_counter() - _STARTED

    ctx = Context(root=ROOT, seed=args.seed, trace=bool(args.trace),
                  tiny=args.tiny, oracle=oracle, scratch=scratch)
    recorders = []
    untraced, traced, extra, ops = [], [], {}, []
    crashed = None
    try:
        setup_times = []
        for rep in range(SETUP_REPS):
            rec = (SpanRecorder("setup")
                   if ctx.trace and rep == SETUP_REPS - 1 else None)
            begin = time.perf_counter()
            state = module.setup(ctx, rec)
            setup_times.append(time.perf_counter() - begin)
            if rec is not None:
                recorders.append(rec)
        setup_s = import_s + median(setup_times)
        untraced = _passes(module, ctx, state, args.seconds, traced=False)
        if ctx.trace:
            traced = _passes(module, ctx, state, args.seconds / 2, traced=True)
        ops = [op for p in untraced + traced for op in p["ops"]]
        finish_rec = SpanRecorder("finish") if ctx.trace else None
        extra = module.finish(ctx, state, ops, finish_rec)
        if finish_rec is not None:
            recorders.append(finish_rec)
    except Exception:  # a crashed pass is a failed operation
        crashed = traceback.format_exc()
        print(crashed, file=sys.stderr)
    finally:
        for child in multiprocessing.active_children():
            child.join(timeout=10)
            if child.is_alive():
                child.kill()
                child.join()
        shutil.rmtree(scratch, ignore_errors=True)

    attempted = len(ops) + (1 if crashed else 0)
    failed = sum(
        1 for op in ops if not op.get("checks")
        or not all(ok for _, ok in op["checks"])
    ) + (1 if crashed else 0)
    if attempted == 0:
        attempted = failed = 1
    for problem in failures(ops):
        print(f"FAILED {problem}", file=sys.stderr)
    correct = failed == 0

    metrics = {}
    if untraced:
        e2e, samples = _end_to_end(setup_s, untraced)
        if not ctx.trace:
            metrics = {n: {"value": e2e[n], "unit": u} for n, u in END_TO_END}
        elif traced:
            layer = _per_layer(untraced, traced, extra, attempted, failed,
                               samples)
            metrics = {n: {"value": layer[n], "unit": u} for n, u in PER_LAYER}
            spans = [s for r in recorders for s in r.spans]
            spans += [s for p in traced for s in p["spans"]]
            trace_path = work / f"trace-{args.workload}-seed{args.seed}.json"
            write_chrome_trace(trace_path, spans, _STARTED)
            print(f"# spans written to {trace_path.relative_to(ROOT)}")
        for name, entry in metrics.items():
            print(f"# {name} = {entry['value']:.6g} {entry['unit']}")
        print(f"# {samples} latency samples from {len(untraced)} untraced "
              f"pass(es), {len(traced)} traced")
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": metrics,
    }))
    return 0 if correct else 1


def main(argv=None) -> int:
    # Import the benchmark as the ``perfbench`` package, never its files
    # as top-level modules.
    here = str(Path(__file__).resolve().parent)
    sys.path[:] = [p for p in sys.path if p and Path(p).resolve() != Path(here)]
    sys.path.insert(0, str(ROOT))
    return run(_parse(argv))


if __name__ == "__main__":
    sys.exit(main())
