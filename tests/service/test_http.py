"""HTTP API tests: wire round-trip, endpoints, streaming, error codes."""

import asyncio
import json
import threading

import pytest

from repro.core.presets import named_config
from repro.errors import ConfigError, ServiceError
from repro.runtime.job import SimulationJob
from repro.service import (
    ServiceClient,
    ServiceConfig,
    ServiceHTTPServer,
    SimulationService,
)
from repro.service.wire import job_from_wire, job_to_wire


def tiny_job(scene="FOX", **overrides) -> SimulationJob:
    fields = dict(
        scene=scene, config=named_config("RB_8"), width=8, height=8,
        spp=1, max_bounces=2,
    )
    fields.update(overrides)
    return SimulationJob(**fields)


# ---------------------------------------------------------------- wire


def test_wire_round_trip_preserves_the_key():
    job = tiny_job()
    assert job_from_wire(job_to_wire(job)).key() == job.key()


def test_wire_accepts_preset_labels():
    rebuilt = job_from_wire({"scene": "FOX", "config": "RB_8",
                             "width": 8, "height": 8, "spp": 1,
                             "max_bounces": 2})
    assert rebuilt == tiny_job()


def test_wire_rejects_unknown_fields():
    with pytest.raises(ConfigError):
        job_from_wire({"scene": "FOX", "evil": True})
    with pytest.raises(ConfigError):
        job_from_wire({"width": 8})  # no scene
    with pytest.raises(ConfigError):
        job_from_wire({"scene": "FOX", "config": 42})


BAD_RUN_SHAPES = [{"spp": 0}, {"max_bounces": -3}, {"spp": "2"}, {"width": 0},
                  {"height": True}, {"width": "24"}, {"seed": "7"}]


@pytest.mark.parametrize("bad", BAD_RUN_SHAPES, ids=repr)
def test_wire_rejects_bad_run_shapes(bad):
    with pytest.raises(ConfigError):
        job_from_wire({"scene": "FOX", "config": "RB_8", **bad})


# ------------------------------------------------------------- server


@pytest.fixture(scope="module")
def server():
    """A live service + HTTP server on an ephemeral port, own thread."""
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


@pytest.fixture(scope="module")
def client(server):
    return ServiceClient(port=server["port"], timeout=60.0)


def test_submit_status_result_round_trip(client):
    job = tiny_job()
    ticket = client.submit(job)["ticket"]
    result = client.result(ticket)
    assert result.to_dict() == job.run().to_dict()
    status = client.status(ticket)
    assert status["state"] == "done"
    assert [e["event"] for e in status["events"]][-1] == "done"


def test_resubmission_is_deduplicated(client):
    job = tiny_job(scene="WKND")
    first = client.submit(job)
    second = client.submit(job)
    assert second["key"] == first["key"]
    assert client.result(second["ticket"]).to_dict() == \
        client.result(first["ticket"]).to_dict()


def test_healthz_and_metrics(client):
    health = client.healthz()
    assert health["status"] == "ok"
    assert health["healthy_shards"] == 2
    metrics = client.metrics()
    assert metrics["submitted"] >= 1
    assert "shed" in metrics and "serial_fallbacks" in metrics


def test_bad_submission_is_a_400(client):
    with pytest.raises(ConfigError):
        client._request("POST", "/submit", {"scene": "FOX", "evil": 1})


@pytest.mark.parametrize("bad", BAD_RUN_SHAPES, ids=repr)
def test_bad_run_shape_is_a_400(client, bad):
    with pytest.raises(ConfigError):
        client._request("POST", "/submit", {"scene": "FOX", "config": "RB_8", **bad})


def test_unknown_ticket_is_a_404(client):
    with pytest.raises(ServiceError):
        client.status("missing-99")
    with pytest.raises(ServiceError):
        client.result("missing-99")


def test_unknown_endpoint_is_a_404(client):
    with pytest.raises(ServiceError):
        client._request("GET", "/nope")


def test_stream_emits_lifecycle_events(server, client):
    import http.client as http_client

    ticket = client.submit(tiny_job(scene="SPRNG"))["ticket"]
    connection = http_client.HTTPConnection(
        "127.0.0.1", server["port"], timeout=60.0
    )
    connection.request("GET", f"/stream/{ticket}")
    response = connection.getresponse()
    assert response.status == 200
    assert response.getheader("Content-Type") == "application/x-ndjson"
    events = [json.loads(line) for line in response.read().splitlines()]
    connection.close()
    kinds = [event["event"] for event in events]
    assert kinds[0] == "admitted"
    assert kinds[-1] == "settled"
    assert events[-1]["state"] == "done"


def test_client_url_parsing():
    parsed = ServiceClient.from_url("http://127.0.0.1:9999")
    assert (parsed.host, parsed.port) == ("127.0.0.1", 9999)
    assert ServiceClient.from_url("localhost:8642/").port == 8642
    with pytest.raises(ConfigError):
        ServiceClient.from_url("not a url")
