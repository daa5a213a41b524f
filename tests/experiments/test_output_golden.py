"""Output-identity golden: every driver renders the same text on every runner.

``golden_outputs.json`` pins the rendered report of every paper and
extra experiment driver, plus the config-only ablation sweeps, on a tiny
suite (two scenes, reduced resolution).  The simulation is
deterministic, so the text must match byte for byte through the default
serial runner; ``fig13`` and ``compare`` must also match through a
2-worker process pool and through an in-process simulation service.

Regenerate only when an output change is intended::

    PYTHONPATH=src python tests/experiments/test_output_golden.py
"""

import asyncio
import json
import threading
from pathlib import Path

import pytest

from repro.experiments.common import WorkloadCache
from repro.workloads.params import WorkloadParams

GOLDEN_PATH = Path(__file__).parent / "golden_outputs.json"

PARAMS = WorkloadParams(width=10, height=10, spp=1, max_bounces=2,
                        complex_width=6, complex_height=6, complex_spp=1)
SCENES = ("SHIP", "CRNVL")

#: Drivers that run through a runner (not only ``traced()``).
RUNNER_DRIVERS = ("fig13", "compare")


def _sweep_json(result) -> str:
    return json.dumps(
        {"means": result.means, "per_scene": result.per_scene},
        sort_keys=True,
    )


def _ablation_outputs(cache):
    from repro.experiments import ablations

    return {
        "ablations.borrow": _sweep_json(ablations.borrow_limit_sweep(cache)),
        "ablations.flush": _sweep_json(ablations.flush_limit_sweep(cache)),
        "ablations.skew": json.dumps(
            ablations.skew_scaling(cache), sort_keys=True
        ),
        "ablations.spill": json.dumps(
            ablations.spill_policy_study(cache), sort_keys=True
        ),
        "ablations.inter_warp": _sweep_json(ablations.inter_warp_study(cache)),
        "ablations.occupancy": _sweep_json(
            ablations.warp_occupancy_sweep(cache)
        ),
    }


def capture(cache, names=None):
    """Rendered output of ``names`` (default: every driver and sweep)."""
    from repro.experiments.runner import (
        EXPERIMENTS,
        EXTRA_EXPERIMENTS,
        run_experiment,
    )

    drivers = names or list(EXPERIMENTS) + list(EXTRA_EXPERIMENTS)
    outputs = {
        name: run_experiment(name, cache) for name in drivers
        if name != "fig10"
    }
    if "fig10" in drivers:
        # fig10 defaults to PARTY; a suite scene keeps the capture small.
        fig10 = EXPERIMENTS["fig10"]
        outputs["fig10"] = fig10.render(fig10.run(cache, scene=SCENES[0]))
    if names is None:
        outputs.update(_ablation_outputs(cache))
    return outputs


def tiny_cache(**options) -> WorkloadCache:
    return WorkloadCache(params=PARAMS, scene_names=SCENES, **options)


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN_PATH.read_text())


def test_serial_runner_matches_golden(golden):
    assert capture(tiny_cache()) == golden


def test_pooled_runner_matches_golden(golden):
    from repro.runtime.executor import ExecutionPolicy, LocalRunner

    runner = LocalRunner(policy=ExecutionPolicy(workers=2))
    outputs = capture(tiny_cache(runner=runner), RUNNER_DRIVERS)
    assert outputs == {name: golden[name] for name in RUNNER_DRIVERS}
    assert runner.metrics.simulated == runner.metrics.jobs_total > 0


@pytest.fixture(scope="module")
def server():
    from repro.service import (
        ServiceConfig,
        ServiceHTTPServer,
        SimulationService,
    )

    ready = threading.Event()
    state = {}

    def serve():
        async def main():
            config = ServiceConfig(
                shards=2, poll_tick=0.01, heartbeat_interval=0.02,
            )
            async with SimulationService(config) as service:
                http = ServiceHTTPServer(service, "127.0.0.1", 0)
                await http.start()
                state["port"] = http.port
                state["stop"] = asyncio.Event()
                state["loop"] = asyncio.get_running_loop()
                ready.set()
                await state["stop"].wait()
                await http.stop()

        asyncio.run(main())

    thread = threading.Thread(target=serve, daemon=True)
    thread.start()
    assert ready.wait(15), "server never came up"
    yield state
    state["loop"].call_soon_threadsafe(state["stop"].set)
    thread.join(timeout=10)


def test_service_runner_matches_golden(golden, server):
    from repro.service import ServiceClient

    client = ServiceClient(port=server["port"], timeout=120.0)
    outputs = capture(tiny_cache(runner=client.run_jobs), RUNNER_DRIVERS)
    assert outputs == {name: golden[name] for name in RUNNER_DRIVERS}


if __name__ == "__main__":
    GOLDEN_PATH.write_text(
        json.dumps(capture(tiny_cache()), indent=2, sort_keys=True) + "\n"
    )
