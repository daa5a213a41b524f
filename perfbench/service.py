"""Workload ``service-campaign``: a closed loop against the service.

Two clients share an in-process ``SimulationService`` with two shards
and a fresh ``ResultStore`` each pass.  Each client waits for every
result before it submits again (closed loop, so a slow service gets
less load; an open-loop rate sweep is not part of this benchmark).  The
jobs are small (16x16, two bounces), so admission, routing, polling,
coalescing, the done-cache, store reads and writes and trace-memo
locality make up much of each request's latency.  A third of each
client's requests repeat a key that is done or in flight, so hits (reads)
sit beside misses (compute plus store writes).
"""

from __future__ import annotations

import asyncio
import random
import shutil
import time

from repro.core.presets import named_config
from repro.errors import ServiceOverloadError
from repro.runtime.job import SimulationJob
from repro.runtime.store import ResultStore
from repro.service import ServiceConfig, SimulationService

from perfbench.common import (
    add_counts,
    children_rss_mb,
    gpu_counts,
    quantile,
    self_rss_mb,
)
from perfbench.oracle import (
    check_expected,
    check_op,
    counters_digest,
    job_key,
)
from perfbench.spans import maybe_op, maybe_span

NAME = "service-campaign"
SCENES = ("SHIP", "CRNVL", "BUNNY", "SPNZA")
CONFIGS = ("RB_8", "RB_8+SH_8", "RB_8+SH_8+SK+RA", "RB_FULL")
SIZE = 16
BOUNCES = 2
CLIENTS = 2
SHARDS = 2
#: Repeated keys per client: a third of its 12 requests.
REPEATS = 4

TINY_SCENES = ("SHIP",)
TINY_CONFIGS = ("RB_8", "RB_FULL")
TINY_SIZE = 8
TINY_REPEATS = 1

#: Service counters reported per pass, as ``service.<name>``.
SERVICE_COUNTERS = (
    "submitted", "admitted", "coalesced", "memory_hits", "cache_hits",
    "shed", "steals", "redeliveries", "serial_fallbacks", "trace_evictions",
)


def jobs_for(ctx):
    size = TINY_SIZE if ctx.tiny else SIZE
    return [
        SimulationJob(scene=scene, config=named_config(config), width=size,
                      height=size, spp=1, max_bounces=BOUNCES, seed=ctx.seed)
        for scene in (TINY_SCENES if ctx.tiny else SCENES)
        for config in (TINY_CONFIGS if ctx.tiny else CONFIGS)
    ]


def request_plan(n_jobs: int, seed: int, repeats: int):
    """Per-client job-index lists, drawn from ``seed``.

    The jobs are dealt out to the clients in a seeded order; each client
    then repeats ``repeats`` keys that some client has reached by that
    point (done, or still in flight on the other client).
    """
    rng = random.Random(seed)
    order = list(range(n_jobs))
    rng.shuffle(order)
    own = [order[c::CLIENTS] for c in range(CLIENTS)]
    plans = []
    for mine in own:
        slots = set(rng.sample(range(1, len(mine) + 1), repeats))
        plan = []
        for i in range(len(mine) + 1):
            if i in slots:
                plan.append(rng.choice([k for o in own for k in o[:i]]))
            if i < len(mine):
                plan.append(mine[i])
        plans.append(plan)
    return plans


class TimedStore(ResultStore):
    """The store instance the traced pass hands to the service."""

    def __init__(self, root, rec):
        super().__init__(root)
        self.rec = rec
        self.hits = 0

    def get(self, key):
        with self.rec.span("runtime.store_get", "runtime"):
            result = super().get(key)
        if result is not None:
            self.hits += 1
        return result

    def put(self, key, result, spec=None):
        with self.rec.span("runtime.store_put", "runtime"):
            return super().put(key, result, spec=spec)


def _join(service) -> None:
    """Wait until every shard process has ended."""
    for handle in service.shards:
        process = handle.process
        if process is None:
            continue
        process.join(timeout=10)
        if process.is_alive():
            process.kill()
            process.join()


async def _start_stop():
    service = SimulationService(ServiceConfig(shards=SHARDS))
    await service.start()
    await service.stop()
    _join(service)


def setup(ctx, rec=None):
    """Build the jobs and request plan; start and stop a shard fleet."""
    jobs = jobs_for(ctx)
    plans = request_plan(len(jobs), ctx.seed,
                         TINY_REPEATS if ctx.tiny else REPEATS)
    with maybe_span(rec, "service.start_stop", "service"):
        asyncio.run(_start_stop())
    return {"jobs": jobs, "plans": plans}


async def _client(service, jobs, plan, rec):
    ops = []
    for index in plan:
        job = jobs[index]
        name = job.describe()
        begin = time.perf_counter()
        with maybe_op(rec, name):
            while True:
                try:
                    with maybe_span(rec, "service.submit", "service"):
                        ticket = service.submit(job)
                    break
                except ServiceOverloadError as overload:
                    await asyncio.sleep(max(overload.retry_after, 0.001))
            with maybe_span(rec, "service.result", "service"):
                result = await service.result(ticket["ticket"])
        seconds = time.perf_counter() - begin
        if ticket["coalesced"]:
            kind = "coalesced"
        elif ticket["state"] == "done":
            kind = "hit"
        else:
            kind = "miss"
        ops.append({
            "name": name, "seconds": seconds, "index": index, "kind": kind,
            "ticket": ticket["ticket"],
            "digest": counters_digest(result.counters),
            "gpu": gpu_counts(result.counters),
        })
    return ops


def _event_times(status):
    return {e["event"]: e["t"] for e in (status or {}).get("events", [])}


async def _campaign(jobs, plans, store, rec):
    service = SimulationService(ServiceConfig(shards=SHARDS), store=store)
    await service.start()
    try:
        begin = time.perf_counter()
        per_client = await asyncio.gather(
            *(_client(service, jobs, plan, rec) for plan in plans)
        )
        wall = time.perf_counter() - begin
        ops = [op for client_ops in per_client for op in client_ops]
        queue_wait = shard = 0.0
        for op in ops:
            if op["kind"] != "miss":
                continue
            t = _event_times(service.status(op["ticket"]))
            if {"admitted", "dispatched", "done"} <= t.keys():
                queue_wait += t["dispatched"] - t["admitted"]
                shard += t["done"] - t["dispatched"]
    finally:
        await service.stop()
        _join(service)
    counts = {f"service.{name}": getattr(service.metrics, name)
              for name in SERVICE_COUNTERS}
    counts["service.queue_wait_s"] = queue_wait
    counts["service.shard_s"] = shard
    return wall, ops, counts


def run_pass(ctx, state, rec=None) -> dict:
    root = ctx.fresh_dir("store")
    store = TimedStore(root, rec) if rec is not None else ResultStore(root)
    try:
        wall, ops, counts = asyncio.run(
            _campaign(state["jobs"], state["plans"], store, rec)
        )
    finally:
        shutil.rmtree(root, ignore_errors=True)
    reused = (counts["service.coalesced"] + counts["service.memory_hits"]
              + counts["service.cache_hits"])
    counts["service.reuse_ratio"] = reused / max(1, counts["service.submitted"])
    counts["service.hit_latency_p50_s"] = quantile(
        [op["seconds"] for op in ops if op["kind"] == "hit"], 0.50
    )
    counts["runtime.store_hits"] = getattr(store, "hits", 0)
    computed = set()
    for op in ops:
        if op["index"] not in computed:
            computed.add(op["index"])
            add_counts(counts, op["gpu"])
    return {"wall": wall, "latencies": [op["seconds"] for op in ops],
            "ops": ops, "counts": counts,
            "rss_mb": max(self_rss_mb(), children_rss_mb())}


def finish(ctx, state, ops, rec=None) -> dict:
    """Check every service result against the in-process result."""
    jobs = state["jobs"]
    reference = {}
    job_run_s = 0.0
    for index in sorted({op["index"] for op in ops}):
        job = jobs[index]
        begin = time.perf_counter()
        with maybe_span(rec, "runtime.job_run", "runtime"):
            result = job.run()
        job_run_s += time.perf_counter() - begin
        reference[index] = counters_digest(result.counters)
    for op in ops:
        job = jobs[op["index"]]
        check_op(op, "service equals in-process",
                 op["digest"] == reference[op["index"]])
        check_expected(op, ctx.oracle, job_key(
            job.scene, job.config.describe(), job.strategy, job.width,
            job.height, job.spp, job.max_bounces, job.seed, None,
        ), op["digest"])
    return {"runtime.job_run_s": job_run_s}
