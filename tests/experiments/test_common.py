"""Experiment plumbing tests (small scenes, scaled resolution)."""

import pytest

from repro.core.presets import baseline_config, full_stack_config
from repro.experiments.common import (
    WorkloadCache,
    geomean,
    mean_row,
    normalized_ipc,
)
from repro.workloads.params import WorkloadParams


@pytest.fixture(scope="module")
def tiny_cache():
    return WorkloadCache(
        params=WorkloadParams().scaled(0.25),
        scene_names=["SHIP", "REF"],
    )


def test_geomean_basic():
    assert geomean([1.0, 4.0]) == pytest.approx(2.0)
    assert geomean([]) == 0.0
    assert geomean([3.0]) == 3.0


def test_cache_names(tiny_cache):
    assert tiny_cache.names == ["SHIP", "REF"]


def test_default_cache_covers_suite():
    assert len(WorkloadCache().names) == 16


def test_traced_is_cached(tiny_cache):
    a = tiny_cache.traced("SHIP")
    b = tiny_cache.traced("ship")
    assert a is b
    assert a.traces
    assert a.bvh_stats.triangle_count == a.scene.triangle_count


def test_simulate_one(tiny_cache):
    result = tiny_cache.sweep([baseline_config()])["SHIP"]["RB_8"]
    assert result.ipc > 0
    assert result.scene_name == "SHIP"


def test_sweep_shape(tiny_cache):
    results = tiny_cache.sweep([baseline_config(), full_stack_config()])
    assert set(results) == {"SHIP", "REF"}
    assert set(results["SHIP"]) == {"RB_8", "RB_FULL"}


def test_sweep_disambiguates_duplicate_labels(tiny_cache):
    results = tiny_cache.sweep([baseline_config(), baseline_config()])
    assert len(results["SHIP"]) == 2


def test_normalized_ipc_baseline_is_one(tiny_cache):
    results = tiny_cache.sweep([baseline_config(), full_stack_config()])
    norm = normalized_ipc(results, "RB_8")
    for scene in norm:
        assert norm[scene]["RB_8"] == pytest.approx(1.0)
        assert norm[scene]["RB_FULL"] >= 0.9


def test_mean_row(tiny_cache):
    results = tiny_cache.sweep([baseline_config(), full_stack_config()])
    means = mean_row(normalized_ipc(results, "RB_8"))
    assert means["RB_8"] == pytest.approx(1.0)
    assert mean_row({}) == {}
