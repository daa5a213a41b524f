"""Coordinator tests: dedup, retry policy, stealing, tickets, store."""

import asyncio

import pytest

from repro.errors import JobExecutionError, ServiceError
from repro.runtime.store import ResultStore
from repro.service.config import ServiceConfig
from repro.service.coordinator import SimulationService

from tests.service.stubs import GuardStubJob, StubJob


def fast_config(**overrides) -> ServiceConfig:
    base = dict(
        shards=2, queue_depth=16, rate=500.0, burst=128,
        heartbeat_interval=0.02, heartbeat_timeout=1.0, poll_tick=0.01,
        backoff_base=0.01, backoff_cap=0.05, breaker_cooldown=0.05,
    )
    base.update(overrides)
    return ServiceConfig(**base)


def run(coro):
    return asyncio.run(coro)


def test_run_jobs_returns_in_submission_order():
    async def main():
        async with SimulationService(fast_config()) as service:
            jobs = [StubJob(f"order-{i}") for i in range(8)]
            results = await service.run_jobs(jobs)
            assert [r.name for r in results] == [j.name for j in jobs]
            assert results == [j.run() for j in jobs]
            assert service.metrics.completed == 8
            assert sum(service.metrics.per_shard_completed) == 8

    run(main())


def test_single_flight_coalesces_duplicates():
    async def main():
        async with SimulationService(fast_config()) as service:
            job = StubJob("dup")
            first = service.submit(job)
            second = service.submit(job)
            assert second["coalesced"] is True
            assert first["key"] == second["key"]
            assert first["ticket"] != second["ticket"]
            a = await service.result(first["ticket"])
            b = await service.result(second["ticket"])
            assert a == b
            assert service.metrics.admitted == 1
            assert service.metrics.coalesced == 1

    run(main())


def test_done_cache_serves_repeat_submissions():
    async def main():
        async with SimulationService(fast_config()) as service:
            job = StubJob("memo")
            ticket = service.submit(job)["ticket"]
            await service.result(ticket)
            again = service.submit(job)
            assert again["state"] == "done"
            assert service.metrics.memory_hits == 1
            assert await service.result(again["ticket"]) == job.run()

    run(main())


def test_persistent_store_hit_skips_execution(tmp_path):
    # A real SimulationJob: the store round-trips SimulationResult
    # payloads (stub results would quarantine as schema mismatches).
    from repro.core.presets import named_config
    from repro.runtime.job import SimulationJob

    job = SimulationJob(
        scene="FOX", config=named_config("RB_8"), width=8, height=8,
        spp=1, max_bounces=2,
    )

    async def main():
        store = ResultStore(tmp_path / "store")
        async with SimulationService(fast_config(), store=store) as service:
            first = await service.result(service.submit(job)["ticket"])
            assert store.path_for(job.key()).exists()
        # A fresh service (cold memory) must hit the disk store.
        async with SimulationService(fast_config(), store=store) as service:
            ticket = service.submit(job)
            assert ticket["state"] == "done"
            assert service.metrics.cache_hits == 1
            assert service.metrics.admitted == 0
            assert await service.result(ticket["ticket"]) == first

    run(main())


def test_transient_job_failure_retries_with_backoff(tmp_path):
    async def main():
        async with SimulationService(fast_config()) as service:
            job = StubJob("flaky", fail_times=1, marker_dir=str(tmp_path))
            result = await service.result(service.submit(job)["ticket"])
            assert result.name == "flaky"
            assert service.metrics.retries == 1
            assert service.metrics.backoff_total_s > 0

    run(main())


def test_retry_budget_exhaustion_fails_structurally(tmp_path):
    async def main():
        config = fast_config(retries=1)
        async with SimulationService(config) as service:
            job = StubJob("doomed", fail_times=5, marker_dir=str(tmp_path))
            ticket = service.submit(job)["ticket"]
            with pytest.raises(JobExecutionError) as caught:
                await service.result(ticket)
            assert "ValueError" in str(caught.value)
            assert service.metrics.failed == 1
            assert service.metrics.retries == 1

    run(main())


def test_guard_violation_never_retried(tmp_path):
    async def main():
        store = ResultStore(tmp_path / "store")
        async with SimulationService(fast_config(), store=store) as service:
            job = GuardStubJob("broken")
            ticket = service.submit(job)["ticket"]
            with pytest.raises(JobExecutionError):
                await service.result(ticket)
            assert service.metrics.retries == 0
            assert service.metrics.failed == 1
            # The failure is persisted as evidence, like the executor's.
            assert sum(1 for _ in store.failures()) == 1

    run(main())


def test_idle_shards_steal_from_long_queues():
    # Pick job names that all hash-route to shard 0: shard 1 starts
    # idle with an empty queue and can only get work by stealing.
    def routed_to_zero(count):
        jobs, index = [], 0
        while len(jobs) < count:
            job = StubJob(f"steal-{index}")
            if int(job.key()[:8], 16) % 2 == 0:
                jobs.append(job)
            index += 1
        return jobs

    async def main():
        async with SimulationService(fast_config(shards=2)) as service:
            jobs = routed_to_zero(12)
            await service.run_jobs(jobs)
            assert service.metrics.completed == 12
            assert service.metrics.steals > 0
            # The thief did real work, not just bookkeeping.
            assert service.metrics.per_shard_completed[1] > 0

    run(main())


def test_status_and_events_trace_the_lifecycle():
    async def main():
        async with SimulationService(fast_config()) as service:
            ticket = service.submit(StubJob("traced"))["ticket"]
            await service.result(ticket)
            status = service.status(ticket)
            assert status["state"] == "done"
            kinds = [event["event"] for event in status["events"]]
            assert kinds[0] == "admitted"
            assert kinds[-1] == "done"
            assert "dispatched" in kinds

    run(main())


def test_unknown_ticket_raises_service_error():
    async def main():
        async with SimulationService(fast_config()) as service:
            assert service.status("nope-1") is None
            with pytest.raises(ServiceError):
                await service.result("nope-1")

    run(main())


def test_submit_before_start_is_an_error():
    service = SimulationService(fast_config())
    with pytest.raises(ServiceError):
        service.submit(StubJob("early"))


def test_healthz_reports_fleet_shape():
    async def main():
        async with SimulationService(fast_config(shards=2)) as service:
            await service.run_jobs([StubJob("health")])
            health = service.healthz()
            assert health["status"] == "ok"
            assert health["healthy_shards"] == 2
            assert len(health["shards"]) == 2

    run(main())


def test_requests_do_not_wait_for_the_tick():
    # A 30 s health tick: the campaign can only finish in time if
    # submissions and shard responses wake the coordinator themselves.
    async def main():
        async with SimulationService(fast_config(poll_tick=30.0)) as service:
            jobs = [StubJob(f"eventful-{i}") for i in range(8)]
            results = await asyncio.wait_for(service.run_jobs(jobs), 5.0)
            assert results == [job.run() for job in jobs]
            assert service.metrics.completed == 8

    run(main())


def test_stop_fails_in_flight_waiters():
    async def main():
        service = SimulationService(fast_config(shards=1))
        await service.start()
        ticket = service.submit(StubJob("stranded", duration=1.0))["ticket"]
        waiter = asyncio.ensure_future(service.result(ticket))
        await asyncio.sleep(0.1)
        await service.stop()
        with pytest.raises(ServiceError, match="service stopped"):
            await asyncio.wait_for(waiter, 3.0)
        assert service.status(ticket)["state"] == "failed"

    run(main())
