"""Failover tests: crashes, hangs, corruption, redelivery, fallback.

The headline assertion, per the service contract: kill a shard
mid-campaign and the aggregate counters are bit-identical to a clean
serial run — placement and recovery never leak into results.
"""

import asyncio

from repro.service.config import ServiceConfig
from repro.service.coordinator import SimulationService
from repro.service.faults import ServiceFaultSpec

from tests.service.stubs import StubJob, SuicideJob


def fast_config(**overrides) -> ServiceConfig:
    base = dict(
        shards=2, queue_depth=16, rate=500.0, burst=128,
        heartbeat_interval=0.02, heartbeat_timeout=0.35, poll_tick=0.01,
        backoff_base=0.01, backoff_cap=0.05, breaker_cooldown=0.05,
    )
    base.update(overrides)
    return ServiceConfig(**base)


def run(coro):
    return asyncio.run(coro)


def test_shard_kill_mid_campaign_is_bit_identical():
    async def main():
        fault = ServiceFaultSpec(kind="shard_kill", shard=0, trigger=1)
        async with SimulationService(fast_config(), fault=fault) as service:
            jobs = [StubJob(f"kill-{i}") for i in range(8)]
            results = await service.run_jobs(jobs)
            clean = [job.run() for job in jobs]
            assert [r.to_dict() for r in results] == [
                c.to_dict() for c in clean
            ]
            metrics = service.metrics
            assert metrics.shard_crashes == 1
            assert metrics.redeliveries == 1
            assert metrics.shard_restarts == 1
            assert metrics.completed == 8

    run(main())


def test_heartbeat_freeze_detected_and_killed():
    async def main():
        fault = ServiceFaultSpec(
            kind="heartbeat_freeze", shard=1, trigger=1
        )
        async with SimulationService(fast_config(), fault=fault) as service:
            jobs = [StubJob(f"hang-{i}") for i in range(6)]
            results = await service.run_jobs(jobs)
            assert results == [job.run() for job in jobs]
            assert service.metrics.heartbeat_timeouts == 1
            assert service.metrics.redeliveries == 1

    run(main())


def test_corrupt_payload_rejected_by_checksum():
    async def main():
        fault = ServiceFaultSpec(
            kind="corrupt_result", shard=0, trigger=1
        )
        async with SimulationService(fast_config(), fault=fault) as service:
            jobs = [StubJob(f"corrupt-{i}") for i in range(6)]
            results = await service.run_jobs(jobs)
            assert results == [job.run() for job in jobs]
            assert service.metrics.corrupt_payloads == 1
            # The corrupted answer was redelivered and recomputed, never
            # served: values are the pure function of the name.
            assert all(
                result.value == job.run().value
                for result, job in zip(results, jobs)
            )

    run(main())


def test_restarted_shard_rejoins_the_fleet():
    async def main():
        fault = ServiceFaultSpec(kind="shard_kill", shard=0, trigger=1)
        config = fast_config()
        async with SimulationService(config, fault=fault) as service:
            await service.run_jobs([StubJob(f"wave1-{i}") for i in range(4)])
            # Give the restart a moment, then prove shard 0 works again.
            await service.clock.sleep(0.1)
            await service.run_jobs([StubJob(f"wave2-{i}") for i in range(8)])
            health = service.healthz()
            assert health["status"] == "ok"
            assert health["healthy_shards"] == 2
            assert service.metrics.per_shard_completed[0] > 0

    run(main())


def test_breaker_trips_on_repeat_crashes_then_recovers():
    """A shard that keeps dying trips its breaker on schedule; the
    breaker recovers once a healthy replacement serves a probe."""

    async def main():
        config = fast_config(
            shards=2, breaker_threshold=2, breaker_cooldown=0.2,
            max_redeliveries=4, max_restarts=10,
        )
        async with SimulationService(config) as service:
            # Every SuicideJob kills whichever worker runs it; with two
            # shards and several victims, some shard eats >= 2 crashes
            # consecutively and must trip.
            jobs = [SuicideJob(f"victim-{i}") for i in range(4)]
            results = await service.run_jobs(jobs)
            assert [r.to_dict() for r in results] == [
                j.run().to_dict() for j in jobs
            ]
            assert service.metrics.shard_crashes >= 4
            assert service.metrics.breaker_trips >= 1
            # Recovery: clean jobs after the storm close the breakers.
            clean = [StubJob(f"after-{i}") for i in range(6)]
            await service.run_jobs(clean)
            health = service.healthz()
            assert all(
                shard["breaker"] != "open" or shard["retired"]
                for shard in health["shards"]
            )

    run(main())


def test_redelivery_budget_falls_back_to_serial():
    async def main():
        config = fast_config(
            shards=1, max_redeliveries=1, max_restarts=2,
            breaker_threshold=10,
        )
        async with SimulationService(config) as service:
            job = SuicideJob("stubborn")
            result = await service.result(service.submit(job)["ticket"])
            # The worker died on every delivery; the serial fallback (in
            # this process, where SuicideJob behaves) produced the result.
            assert result.to_dict() == job.run().to_dict()
            assert service.metrics.serial_fallbacks >= 1
            # One shard, so the first redelivery already exhausts the
            # alternatives and marks the entry for serial fallback.
            assert service.metrics.redeliveries >= 1

    run(main())


def test_crash_is_detected_without_the_tick():
    # With a 30 s tick only the process-exit wake can notice the kill
    # in time; the survivor then takes the redelivered job.
    async def main():
        fault = ServiceFaultSpec(kind="shard_kill", shard=0, trigger=1)
        config = fast_config(poll_tick=30.0)
        async with SimulationService(config, fault=fault) as service:
            jobs = [StubJob(f"sentinel-{i}") for i in range(8)]
            results = await asyncio.wait_for(service.run_jobs(jobs), 5.0)
            assert results == [job.run() for job in jobs]
            assert service.metrics.shard_crashes == 1
            assert service.metrics.redeliveries == 1

    run(main())


def test_serial_fallback_does_not_block_the_fleet():
    async def main():
        config = fast_config(max_redeliveries=0, breaker_threshold=10)
        async with SimulationService(config) as service:
            slow = SuicideJob("slow-serial", duration=1.5)
            slow_ticket = service.submit(slow)["ticket"]

            async def serial_started():
                while not any(
                    event["event"] == "serial_run"
                    for event in service.status(slow_ticket)["events"]
                ):
                    await asyncio.sleep(0.01)

            await asyncio.wait_for(serial_started(), 3.0)
            quick = StubJob("quick-beside-serial")
            result = await service.result(service.submit(quick)["ticket"])
            assert result == quick.run()
            # The quick job settled while the in-process run still held
            # the fallback.
            assert service.status(slow_ticket)["state"] == "running"
            slow_result = await service.result(slow_ticket)
            assert slow_result.to_dict() == slow.run().to_dict()
            assert service.metrics.serial_fallbacks == 1

    run(main())
