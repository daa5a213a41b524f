"""Configuration for the sharded simulation service.

One frozen dataclass holds every serving knob: fleet size, queue and
admission bounds, failure-detection timing, retry/redelivery budgets and
the degradation ladder's parameters.  All time values are in seconds on
the injected clock's axis (:mod:`repro.runtime.clock`), so tests drive
them with a :class:`~repro.runtime.clock.ManualClock`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.errors import ConfigError


@dataclass(frozen=True)
class ServiceConfig:
    """Knobs for one :class:`~repro.service.coordinator.SimulationService`.

    Degradation ladder (in order): identical in-flight requests
    *coalesce* (single-flight); new work *queues* on bounded per-shard
    queues; work beyond ``rate``/``burst``/``queue_depth`` is *shed*
    with a retry-after hint; and when the fleet cannot help (shard dead
    beyond ``max_restarts``, job beyond ``max_redeliveries``) the job
    falls back to *serial in-process execution* — a campaign always
    completes.
    """

    #: Worker shard processes.
    shards: int = 2
    #: Bounded queue depth per shard; totals shards*queue_depth queued.
    queue_depth: int = 16
    #: Token-bucket refill rate (admissions per second).
    rate: float = 500.0
    #: Token-bucket capacity (burst admissions).
    burst: int = 128

    #: Worker heartbeat increment interval.
    heartbeat_interval: float = 0.05
    #: Seconds without a heartbeat change before a shard is declared hung.
    heartbeat_timeout: float = 2.0
    #: Coordinator health timer: how often heartbeat staleness, restart
    #: backoff and breaker cooldowns are checked.  Requests never wait
    #: for it (submissions, responses and shard exits wake the
    #: coordinator at once); it bounds failure-detection latency and
    #: floors the retry-after hint of a queue-full shed.
    poll_tick: float = 0.02

    #: Additional attempts for a job that *errors* deterministically
    #: (mirrors the executor's retry budget; guard violations skip it).
    retries: int = 2
    #: Redeliveries for a job lost to a shard failure (crash/hang/corrupt)
    #: before it degrades to serial in-process execution.
    max_redeliveries: int = 2
    #: Restarts per shard before the coordinator stops reviving it.
    max_restarts: int = 3
    #: Consecutive shard failures that trip its circuit breaker.
    breaker_threshold: int = 2
    #: Seconds a tripped breaker stays open before a half-open probe.
    breaker_cooldown: float = 1.0

    #: Backoff schedule (shared :func:`repro.runtime.backoff.backoff_delay`).
    backoff_base: float = 0.05
    backoff_cap: float = 1.0
    seed: int = 0

    #: LRU capacity of completed results held in coordinator memory for
    #: the status/result endpoints (the persistent store keeps
    #: everything; this bounds the *resident* set).
    result_cache_entries: int = 512
    #: Forwarded to workers as ``REPRO_TRACE_MEMO`` (per-process traced-
    #: workload memo capacity); ``None`` keeps the library default.
    trace_memo_entries: Optional[int] = None
    #: Interval between progress-stream snapshots on ``/stream``.
    stream_interval: float = 0.05

    def __post_init__(self) -> None:
        if self.shards < 1:
            raise ConfigError("service needs at least one shard")
        if self.queue_depth < 1:
            raise ConfigError("queue_depth must be >= 1")
        if self.rate <= 0 or self.burst < 1:
            raise ConfigError("token bucket needs rate > 0 and burst >= 1")
        for name in ("poll_tick", "heartbeat_interval", "stream_interval"):
            if not getattr(self, name) > 0:
                raise ConfigError(f"{name} must be > 0")
        if self.heartbeat_timeout <= self.heartbeat_interval:
            raise ConfigError(
                "heartbeat_timeout must exceed heartbeat_interval"
            )
        if self.result_cache_entries < 1:
            raise ConfigError("result_cache_entries must be >= 1")
