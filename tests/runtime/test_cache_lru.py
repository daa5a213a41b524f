"""In-memory caches: the workload cache's traced scenes and the LRU trace memo."""

import importlib

from repro.core.presets import named_config
from repro.experiments.common import WorkloadCache
from repro.workloads.params import WorkloadParams

PARAMS = WorkloadParams().scaled(0.25)
SCENES = ["WKND", "SPRNG", "FOX", "LANDS"]


def test_workload_cache_unbounded_by_default():
    cache = WorkloadCache(scene_names=SCENES, params=PARAMS)
    traced = [cache.traced(name) for name in SCENES]
    assert list(cache._cache) == SCENES
    assert [cache.traced(name) for name in SCENES] == traced


def test_trace_memo_capacity_env_knob(monkeypatch):
    job_module = importlib.import_module("repro.runtime.job")
    monkeypatch.setenv("REPRO_TRACE_MEMO", "2")
    assert job_module._trace_memo_capacity() == 2
    monkeypatch.setenv("REPRO_TRACE_MEMO", "bogus")
    assert job_module._trace_memo_capacity() == job_module._TRACE_MEMO_CAPACITY
    monkeypatch.delenv("REPRO_TRACE_MEMO")
    assert job_module._trace_memo_capacity() == job_module._TRACE_MEMO_CAPACITY


def test_trace_memo_evicts_at_capacity(monkeypatch):
    job_module = importlib.import_module("repro.runtime.job")
    monkeypatch.setenv("REPRO_TRACE_MEMO", "1")
    config = named_config("RB_8")
    before = job_module.trace_memo_evictions()
    from repro.runtime.job import SimulationJob

    for scene in ("WKND", "SPRNG"):
        SimulationJob(
            scene=scene, config=config, width=6, height=6, spp=1,
            max_bounces=2,
        ).run()
    assert len(job_module._TRACE_MEMO) <= 1
    assert job_module.trace_memo_evictions() > before


def test_traced_scene_seeds_the_trace_memo():
    from repro.workloads.lumibench import SCENE_NAMES

    job_module = importlib.import_module("repro.runtime.job")
    # One process can keep the whole suite traced across sweeps.
    assert job_module._TRACE_MEMO_CAPACITY >= len(SCENE_NAMES)
    cache = WorkloadCache(scene_names=["WKND"], params=PARAMS)
    traced = cache.traced("WKND")
    job = cache.job("WKND", named_config("RB_8"))
    assert job_module._workload_traces(job) == ("WKND", traced.traces)
    assert job_module._workload_traces(job)[1] is traced.traces
