"""Job model tests: content addressing, spec resolution, purity."""

import pytest

from repro.core.presets import named_config
from repro.errors import ConfigError
from repro.runtime.job import SimulationJob, cache_salt
from repro.workloads.params import WorkloadParams

PARAMS = WorkloadParams().scaled(0.25)


def job_for(config_name="RB_8", scene="SHIP", **overrides):
    job = SimulationJob.from_params(scene, named_config(config_name), PARAMS)
    if overrides:
        from dataclasses import replace

        job = replace(job, **overrides)
    return job


def test_key_is_deterministic():
    assert job_for().key() == job_for().key()


def test_key_is_hex_sha256():
    key = job_for().key()
    assert len(key) == 64
    int(key, 16)  # raises if not hex


def test_key_changes_with_config():
    assert job_for("RB_8").key() != job_for("RB_FULL").key()
    assert job_for("RB_8").key() != job_for("RB_8+SH_8").key()


def test_key_changes_with_scene_and_workload():
    base = job_for()
    assert base.key() != job_for(scene="CRNVL").key()
    assert base.key() != job_for(width=base.width + 1).key()
    assert base.key() != job_for(seed=99).key()
    assert base.key() != job_for(max_bounces=base.max_bounces + 1).key()


def test_key_changes_with_salt(monkeypatch):
    base = job_for().key()
    monkeypatch.setenv("REPRO_CACHE_SALT", "experiment-42")
    assert job_for().key() != base
    assert "experiment-42" in cache_salt()


def test_from_params_resolves_complex_tier():
    params = WorkloadParams(width=32, height=32, complex_width=8,
                            complex_height=8)
    simple = SimulationJob.from_params("SHIP", named_config("RB_8"), params)
    complex_ = SimulationJob.from_params("ROBOT", named_config("RB_8"), params)
    assert (simple.width, simple.height) == (32, 32)
    assert (complex_.width, complex_.height) == (8, 8)


def test_from_params_uppercases_scene():
    assert SimulationJob.from_params(
        "ship", named_config("RB_8"), PARAMS
    ).scene == "SHIP"


def test_run_matches_direct_simulation():
    from repro.core.api import time_traces
    from repro.experiments.common import WorkloadCache

    job = job_for()
    traced = WorkloadCache(params=PARAMS, scene_names=["SHIP"]).traced("SHIP")
    direct = time_traces(
        traced.traces, config=named_config("RB_8"),
        scene_name=traced.scene.name,
    )
    via_job = job.run()
    assert via_job == direct


def test_job_is_hashable_and_spec_is_json_canonical():
    import json

    job = job_for()
    assert hash(job) == hash(job_for())
    blob = json.dumps(job.spec(), sort_keys=True)
    assert json.loads(blob)["scene"] == "SHIP"


BAD_RUN_SHAPES = [
    {"spp": 0},
    {"max_bounces": -3},
    {"spp": "2"},
    {"width": 0},
    {"height": -1},
    {"width": True},
    {"spp": 1.0},
    {"seed": "7"},
]


@pytest.mark.parametrize("bad", BAD_RUN_SHAPES, ids=repr)
def test_bad_run_shape_is_rejected_at_construction(bad):
    fields = dict(scene="SHIP", config=named_config("RB_8"), width=8, height=8,
                  spp=1, max_bounces=2)
    fields.update(bad)
    with pytest.raises(ConfigError):
        SimulationJob(**fields)


@pytest.mark.parametrize("bad", [{"spp": 0}, {"max_bounces": -1}, {"width": 0}], ids=repr)
def test_generate_workload_rejects_bad_run_shape(small_bvh, bad):
    from repro.trace.path import generate_workload

    with pytest.raises(ConfigError):
        generate_workload(small_bvh, **{"width": 4, "height": 4, **bad})


def test_zero_bounces_is_a_valid_run_shape():
    job = SimulationJob(scene="SHIP", config=named_config("RB_8"), width=1,
                        height=1, spp=1, max_bounces=0)
    assert job.max_bounces == 0
