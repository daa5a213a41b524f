"""Trace-stream golden: every tracer emits the same events, bit for bit.

``golden_traces.json`` pins a SHA-256 per scene over every
:class:`~repro.trace.events.RayTrace` of a small default-scale workload,
for the reference wave tracer (strategy ``sms``) and the escape-link
tracer (strategy ``stackless``).  A digest covers each ray's id, pixel,
kind, closest hit and the bits of its hit distance, and every step's
address, size, kind, test count, pushes and pop flag.  It also pins the
result tuples of the restart-trail, short-stack-restart and packet
tracers on a fixed ray sample of three scenes.  Any change to a tracer,
or to the BVH arrays it reads, that moves one event fails here.

Regenerate only when a trace change is intended::

    PYTHONPATH=src python tests/trace/test_golden_traces.py
"""

import hashlib
import json
import struct
import sys
from functools import lru_cache
from pathlib import Path

import numpy as np
import pytest

from repro.bvh.api import build_bvh
from repro.geometry.ray import Ray
from repro.geometry.vec import normalize
from repro.trace.packet import packet_trace
from repro.trace.restart import restart_trail_trace, short_stack_restart_trace
from repro.traversal.registry import resolve_strategy
from repro.workloads.lumibench import BENCH_SCALE_ENV, SCENE_NAMES, load_scene

GOLDEN_PATH = Path(__file__).parent / "golden_traces.json"
WORKLOAD = {"width": 6, "height": 6, "spp": 1, "max_bounces": 2, "seed": 0}
STRATEGIES = ("sms", "stackless")
SAMPLE_SCENES = ("CRNVL", "SHIP", "PARTY")
SAMPLE_RAYS = 24
PACKET_SIZE = 8
SHORT_STACK_ENTRIES = (1, 4)


def _bits(value) -> str:
    return struct.pack("<d", float(value)).hex()


@lru_cache(maxsize=None)
def _bvh(scene_name):
    return build_bvh(load_scene(scene_name))


def workload_digest(scene_name: str, strategy: str) -> str:
    """SHA-256 over every trace of the golden workload under ``strategy``."""
    workload = resolve_strategy(strategy).build_workload(_bvh(scene_name), **WORKLOAD)
    h = hashlib.sha256()
    for trace in workload.all_traces:
        h.update(repr((
            int(trace.ray_id), int(trace.pixel), trace.kind.value,
            int(trace.hit_prim), _bits(trace.hit_t),
        )).encode())
        for step in trace.steps:
            h.update(repr((
                int(step.address), int(step.size_bytes), step.kind.value,
                int(step.tests), [int(a) for a in step.pushes], bool(step.popped),
            )).encode())
    return h.hexdigest()


def sample_rays(scene_name: str):
    """A fixed ray sample: origins around the scene, aimed near its center."""
    bounds = load_scene(scene_name).bounds()
    rng = np.random.default_rng(20250)
    center, extent = bounds.centroid(), bounds.extent()
    rays = []
    for _ in range(SAMPLE_RAYS):
        origin = center + rng.uniform(-0.75, 0.75, 3) * extent
        target = center + rng.uniform(-0.25, 0.25, 3) * extent
        rays.append(Ray(origin=origin, direction=normalize(target - origin)))
    return rays


def _restart_record(result) -> tuple:
    return (int(result.hit_prim), _bits(result.hit_t), int(result.node_visits),
            int(result.restarts), int(result.max_trail_depth))


def variants_digest(scene_name: str) -> str:
    """SHA-256 over restart, short-stack and packet results on the sample."""
    bvh = _bvh(scene_name)
    rays = sample_rays(scene_name)
    h = hashlib.sha256()
    for ray in rays:
        h.update(repr(("restart", _restart_record(restart_trail_trace(bvh, ray)))).encode())
        for entries in SHORT_STACK_ENTRIES:
            result = short_stack_restart_trace(bvh, ray, stack_entries=entries)
            h.update(repr(("short", entries, _restart_record(result))).encode())
    for start in range(0, len(rays), PACKET_SIZE):
        result = packet_trace(bvh, rays[start : start + PACKET_SIZE])
        h.update(repr((
            "packet", [int(p) for p in result.hit_prims],
            [_bits(t) for t in result.hit_ts], int(result.node_visits),
            int(result.stack_pushes), int(result.max_stack_depth),
            int(result.ray_box_tests), int(result.ray_tri_tests),
        )).encode())
    return h.hexdigest()


def digests() -> dict:
    """``{key: digest}`` for every pinned workload and ray sample."""
    out = {"workload": WORKLOAD}
    for name in SCENE_NAMES:
        for strategy in STRATEGIES:
            out[f"{name}:{strategy}"] = workload_digest(name, strategy)
    for name in SAMPLE_SCENES:
        out[f"{name}:variants"] = variants_digest(name)
    return out


GOLDEN = json.loads(GOLDEN_PATH.read_text()) if GOLDEN_PATH.exists() else {}


@pytest.fixture(autouse=True)
def _default_scale(monkeypatch):
    monkeypatch.delenv(BENCH_SCALE_ENV, raising=False)


def test_golden_workload_shape_is_pinned():
    assert GOLDEN.get("workload") == WORKLOAD


@pytest.mark.parametrize("strategy", STRATEGIES)
@pytest.mark.parametrize("scene_name", SCENE_NAMES)
def test_trace_stream_matches_golden(scene_name, strategy):
    key = f"{scene_name}:{strategy}"
    assert key in GOLDEN, f"no golden digest for {key}"
    assert workload_digest(scene_name, strategy) == GOLDEN[key], f"{key} traces changed"


@pytest.mark.parametrize("scene_name", SAMPLE_SCENES)
def test_traversal_variants_match_golden(scene_name):
    key = f"{scene_name}:variants"
    assert key in GOLDEN, f"no golden digest for {key}"
    assert variants_digest(scene_name) == GOLDEN[key], f"{key} results changed"


if __name__ == "__main__":
    import os

    os.environ.pop(BENCH_SCALE_ENV, None)
    GOLDEN_PATH.write_text(json.dumps(digests(), indent=2, sort_keys=True) + "\n")
    sys.exit(0)
