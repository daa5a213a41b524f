"""The async coordinator: shard fleet, admission, failover, degradation.

:class:`SimulationService` owns a fleet of worker shards
(:mod:`repro.service.shard`) and resolves content-addressed jobs against
them with the full robustness ladder:

1. **coalesce** — submissions are keyed by content hash; an identical
   in-flight request attaches to the existing entry (single-flight), a
   completed one is served from the in-memory done cache or the
   persistent store;
2. **queue** — new work lands on bounded per-shard queues, hash-routed
   for trace-memo locality; idle shards *steal* from the longest queue
   so one hot shard never serializes a campaign;
3. **shed** — past the token bucket or the queue bounds, submission
   raises :class:`~repro.errors.ServiceOverloadError` with a
   retry-after hint instead of queuing unboundedly;
4. **recover** — heartbeat-monitored shards are restarted on crash or
   hang with deterministic seeded backoff, their in-flight job is
   redelivered (at most ``max_redeliveries`` times), corrupt payloads
   are rejected by checksum, and a per-shard circuit breaker routes
   around repeat offenders;
5. **serial fallback** — when the fleet cannot run a job (redelivery
   budget spent, every shard down), it runs serially in-process: a
   campaign always completes, because the simulation itself is
   deterministic and shard placement never changes results.

The coordinator is event-driven.  One task (:meth:`_serve_loop`) owns
every state transition and runs one pass — drain responses, check
health, restart due shards, dispatch, hand stranded work to the serial
fallback — each time its wake event is set.  Four sources set it:

- :meth:`submit` admitting work (``submit`` itself never dispatches, so
  a synchronous burst of submissions fills the queues first);
- a shard's response pipe becoming readable (``loop.add_reader``);
- a shard process exiting (its ``Process.sentinel``, same mechanism);
- the ``poll_tick`` timer, which only paces heartbeat staleness,
  restart backoff and breaker cooldowns — it is off the request path.

The serial fallback runs as its own tracked task, one job at a time, so
an in-process job never stalls dispatch or health checks.  Everything
time-dependent reads the injected clock, so the module stays inside
simlint's timing scope with no host-clock reads.
"""

from __future__ import annotations

import asyncio
import pickle
from collections import OrderedDict
from typing import Any, Dict, List, Optional, Tuple

from repro.errors import (
    JobExecutionError,
    ServiceError,
    ServiceOverloadError,
    ShardFailureError,
)
from repro.runtime.backoff import backoff_delay
from repro.runtime.clock import Clock, MonotonicClock
from repro.runtime.store import ResultStore
from repro.service.breaker import CircuitBreaker
from repro.service.config import ServiceConfig
from repro.service.faults import ServiceFaultSpec
from repro.service.limiter import TokenBucket
from repro.service.metrics import ServiceMetrics
from repro.service.shard import (
    MSG_DONE,
    MSG_ERROR,
    ShardHandle,
    payload_digest,
    spawn_shard,
    stop_shard,
)

#: Entry states, in lifecycle order.
QUEUED = "queued"
RUNNING = "running"
DONE = "done"
FAILED = "failed"


class _Entry:
    """One distinct in-flight job (possibly many coalesced tickets)."""

    __slots__ = (
        "job", "key", "state", "attempts", "redeliveries", "shard_id",
        "result", "error", "finished", "events", "stolen",
    )

    def __init__(self, job: Any, key: str) -> None:
        self.job = job
        self.key = key
        self.state = QUEUED
        self.attempts = 0
        self.redeliveries = 0
        self.shard_id: Optional[int] = None
        self.result: Any = None
        self.error: Optional[Exception] = None
        self.finished: Optional[asyncio.Event] = None
        self.events: List[Dict] = []
        self.stolen = False

    def record(self, event: str, now: float, **detail) -> None:
        entry = {"event": event, "state": self.state, "t": round(now, 6)}
        entry.update(detail)
        self.events.append(entry)


class SimulationService:
    """Async coordinator over a fleet of process shards.

    Generic over the job model exactly like the executor: anything
    picklable with ``key() -> str`` and ``run()`` works, and results
    with ``to_dict()`` are written back to the persistent ``store``.
    ``fault`` injects one deterministic serving-layer fault (chaos).
    """

    def __init__(
        self,
        config: Optional[ServiceConfig] = None,
        store: Optional[ResultStore] = None,
        clock: Optional[Clock] = None,
        fault: Optional[ServiceFaultSpec] = None,
    ) -> None:
        self.config = config or ServiceConfig()
        self.store = store
        self.clock = clock or MonotonicClock()
        self.fault = fault
        self.metrics = ServiceMetrics(
            per_shard_completed=[0] * self.config.shards
        )
        self.limiter = TokenBucket(
            self.config.rate, self.config.burst, self.clock
        )
        self.shards: List[ShardHandle] = []
        self._entries: Dict[str, _Entry] = {}
        self._done: "OrderedDict[str, _Entry]" = OrderedDict()
        self._tickets: Dict[str, str] = {}
        self._ticket_sequence = 0
        self._wake: Optional[asyncio.Event] = None
        self._tasks: List[asyncio.Task] = []
        #: Shard id -> the file descriptors registered with the loop.
        self._watched: Dict[int, Tuple[int, int]] = {}
        self._serial_task: Optional[asyncio.Task] = None
        self._serial_lock: Optional[asyncio.Lock] = None
        self._serial_pending: List[_Entry] = []
        self._started = False

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------

    async def start(self) -> None:
        """Spawn the shard fleet, the serve loop and its tick."""
        if self._started:
            return
        self._started = True
        self._wake = asyncio.Event()
        self._serial_lock = asyncio.Lock()
        now = self.clock.now()
        for shard_id in range(self.config.shards):
            handle = self._spawn(shard_id, with_fault=True)
            handle.last_beat_changed = now
            self.shards.append(handle)
            self._watch(handle)
        self._tasks = [
            asyncio.ensure_future(self._serve_loop()),
            asyncio.ensure_future(self._tick_loop()),
        ]

    async def stop(self) -> None:
        """Stop the loops and the fleet; fail every unsettled job."""
        if not self._started:
            return
        self._started = False
        tasks = self._tasks
        if self._serial_task is not None:
            tasks.append(self._serial_task)
        self._tasks = []
        self._serial_task = None
        for task in tasks:
            task.cancel()
        for task in tasks:
            try:
                await task
            except asyncio.CancelledError:
                continue
        for handle in self.shards:
            self._unwatch(handle)
            stop_shard(handle, kill=handle.current is not None)
            handle.current = None
            handle.queue.clear()
        self._serial_pending.clear()
        now = self.clock.now()
        for entry in list(self._entries.values()):
            entry.state = FAILED
            entry.error = ServiceError("service stopped")
            entry.record("stopped", now)
            self._finish(entry)

    async def __aenter__(self) -> "SimulationService":
        await self.start()
        return self

    async def __aexit__(self, exc_type, exc, tb) -> None:
        await self.stop()

    def _spawn(self, shard_id: int, with_fault: bool) -> ShardHandle:
        fault = self.fault if with_fault else None
        if fault is not None and fault.shard != shard_id:
            fault = None
        handle = spawn_shard(
            shard_id, self.config.heartbeat_interval, fault=fault
        )
        handle.breaker = CircuitBreaker(
            self.config.breaker_threshold,
            self.config.breaker_cooldown,
            self.clock,
        )
        return handle

    def _watch(self, handle: ShardHandle) -> None:
        """Wake the serve loop when the shard answers or exits."""
        loop = asyncio.get_running_loop()
        fds = (handle.responses.fileno(), handle.process.sentinel)
        for fd in fds:
            loop.add_reader(fd, self._wake.set)
        self._watched[handle.shard_id] = fds

    def _unwatch(self, handle: ShardHandle) -> None:
        """Deregister the shard's fds; call before they are closed."""
        loop = asyncio.get_running_loop()
        for fd in self._watched.pop(handle.shard_id, ()):
            loop.remove_reader(fd)

    # ------------------------------------------------------------------
    # submission (admission control + single-flight)
    # ------------------------------------------------------------------

    def submit(self, job: Any) -> Dict:
        """Admit one job; returns the ticket descriptor.

        Raises :class:`ServiceOverloadError` when admission control
        sheds the submission (the work was *not* accepted).
        """
        if not self._started:
            raise ServiceError("service is not started")
        self.metrics.submitted += 1
        key = job.key()
        now = self.clock.now()

        entry = self._entries.get(key)
        if entry is not None:
            # Single-flight: identical request already queued or running.
            self.metrics.coalesced += 1
            return self._ticket(entry, coalesced=True)
        done = self._done.get(key)
        if done is not None:
            self._done.move_to_end(key)
            self.metrics.memory_hits += 1
            return self._ticket(done, coalesced=False)
        if self.store is not None:
            hit = self.store.get(key)
            if hit is not None:
                self.metrics.cache_hits += 1
                entry = _Entry(job, key)
                entry.state = DONE
                entry.result = hit
                entry.record("store_hit", now)
                self._remember_done(entry)
                return self._ticket(entry, coalesced=False)

        # Admission control: token bucket, then bounded queues.
        retry_after = self.limiter.try_acquire()
        if retry_after > 0.0:
            self.metrics.shed += 1
            self.metrics.shed_rate += 1
            raise ServiceOverloadError(
                f"admission rate exceeded; retry in {retry_after:.3f}s",
                retry_after=retry_after,
                reason="rate",
            )
        depth = sum(len(handle.queue) for handle in self.shards)
        capacity = self.config.shards * self.config.queue_depth
        if depth >= capacity:
            self.metrics.shed += 1
            self.metrics.shed_queue += 1
            hint = max(self.config.poll_tick * 4, 1.0 / self.config.rate)
            raise ServiceOverloadError(
                f"all shard queues full ({depth}/{capacity}); "
                f"retry in {hint:.3f}s",
                retry_after=hint,
                reason="queue",
            )

        self.metrics.admitted += 1
        entry = _Entry(job, key)
        entry.finished = asyncio.Event()
        entry.record("admitted", now)
        self._entries[key] = entry
        self._route(entry)
        depth += 1
        self.metrics.queue_depth = depth
        if depth > self.metrics.queue_depth_peak:
            self.metrics.queue_depth_peak = depth
        self._wake.set()
        return self._ticket(entry, coalesced=False)

    def _ticket(self, entry: _Entry, coalesced: bool) -> Dict:
        self._ticket_sequence += 1
        ticket = f"{entry.key[:12]}-{self._ticket_sequence}"
        self._tickets[ticket] = entry.key
        return {
            "ticket": ticket,
            "key": entry.key,
            "state": entry.state,
            "coalesced": coalesced,
        }

    def _route(self, entry: _Entry) -> None:
        """Hash-route to the job's home shard, spilling to the shortest.

        The home shard (key mod fleet) keeps trace-memo locality; a
        retired/tripped/full home queue falls through to the shortest
        healthy queue.  Work stealing rebalances later anyway — routing
        only has to be a good first guess.
        """
        home = int(entry.key[:8], 16) % self.config.shards
        order = [self.shards[home]] + [
            handle for handle in self.shards if handle.shard_id != home
        ]
        usable = [
            handle for handle in order
            if not handle.retired and handle.breaker.allow_routing()
        ]
        if not usable:
            usable = [handle for handle in order if not handle.retired]
        if not usable:
            usable = order
        target = usable[0]
        if len(target.queue) >= self.config.queue_depth:
            target = min(usable, key=lambda handle: len(handle.queue))
        target.queue.append(entry)

    # ------------------------------------------------------------------
    # lookup / waiting
    # ------------------------------------------------------------------

    def _entry_for_ticket(self, ticket: str) -> Optional[_Entry]:
        key = self._tickets.get(ticket)
        if key is None:
            return None
        entry = self._entries.get(key)
        if entry is not None:
            return entry
        return self._done.get(key)

    def status(self, ticket: str) -> Optional[Dict]:
        """The ticket's current state, or ``None`` for unknown tickets."""
        entry = self._entry_for_ticket(ticket)
        if entry is None:
            key = self._tickets.get(ticket)
            if key is not None and self.store is not None:
                # Evicted from memory but persisted: still answerable.
                hit = self.store.get(key)
                if hit is not None:
                    return {"ticket": ticket, "key": key, "state": DONE,
                            "events": []}
            return None
        return {
            "ticket": ticket,
            "key": entry.key,
            "state": entry.state,
            "shard": entry.shard_id,
            "redeliveries": entry.redeliveries,
            "events": list(entry.events),
        }

    async def result(self, ticket: str) -> Any:
        """Wait for and return the ticket's result (or raise its error)."""
        entry = self._entry_for_ticket(ticket)
        if entry is None:
            key = self._tickets.get(ticket)
            if key is not None and self.store is not None:
                hit = self.store.get(key)
                if hit is not None:
                    return hit
            raise ServiceError(f"unknown ticket {ticket!r}")
        if entry.finished is not None:
            await entry.finished.wait()
        if entry.state == FAILED:
            raise entry.error or JobExecutionError(
                f"job {entry.key} failed"
            )
        return entry.result

    async def run_jobs(self, jobs: List[Any]) -> List[Any]:
        """Submit a whole campaign, resubmitting shed jobs until done.

        The convenience path used by ``Campaign.run(service=...)`` in
        process and by the chaos flood: overloads back off for the
        server's ``retry_after`` hint and resubmit, so the campaign
        always completes.
        """
        tickets: List[Optional[str]] = [None] * len(jobs)
        for index, job in enumerate(jobs):
            while True:
                try:
                    tickets[index] = self.submit(job)["ticket"]
                    break
                except ServiceOverloadError as overload:
                    await self.clock.sleep(
                        max(overload.retry_after, self.config.poll_tick)
                    )
        results = []
        for ticket in tickets:
            results.append(await self.result(ticket))
        return results

    def healthz(self) -> Dict:
        """Liveness/degradation summary for the ``/healthz`` endpoint."""
        shards = []
        for handle in self.shards:
            shards.append({
                "shard": handle.shard_id,
                "alive": handle.alive,
                "retired": handle.retired,
                "breaker": handle.breaker.state if handle.breaker else None,
                "queued": len(handle.queue),
                "busy": handle.current is not None,
                "restarts": handle.restarts,
            })
        healthy = sum(
            1 for s in shards
            if s["alive"] and not s["retired"] and s["breaker"] != "open"
        )
        status = "ok" if healthy == len(shards) else (
            "degraded" if healthy else "serial-fallback"
        )
        return {"status": status, "healthy_shards": healthy,
                "shards": shards}

    # ------------------------------------------------------------------
    # the serve loop: responses, health, restarts, dispatch
    # ------------------------------------------------------------------

    async def _serve_loop(self) -> None:
        while True:
            await self._wake.wait()
            self._wake.clear()
            self._drain_responses()
            self._check_health()
            self._restart_due_shards()
            self._dispatch()
            self._degrade_stranded()
            self.metrics.queue_depth = sum(
                len(handle.queue) for handle in self.shards
            )

    async def _tick_loop(self) -> None:
        """The health timer: heartbeats, restart backoff, cooldowns."""
        while True:
            await self.clock.sleep(self.config.poll_tick)
            self._wake.set()

    def _drain_responses(self) -> None:
        for handle in self.shards:
            if handle.process is None:
                continue
            responses = handle.responses
            try:
                while responses.poll():
                    self._handle_message(handle, responses.recv())
                    if handle.responses is not responses:
                        break  # the message failed the shard over
            except (EOFError, OSError):
                # The worker exited; its sentinel wakes _check_health.
                continue

    def _handle_message(self, handle: ShardHandle, message) -> None:
        now = self.clock.now()
        tag = message[1]
        key = message[2]
        entry = self._entries.get(key)
        if entry is None or entry.shard_id != handle.shard_id:
            return  # stale answer from a shard we already failed over
        if tag == MSG_DONE:
            _, _, _, payload, digest, evictions = message
            handle.trace_evictions = max(handle.trace_evictions, evictions)
            self.metrics.trace_evictions = sum(
                h.trace_evictions for h in self.shards
            )
            if payload_digest(payload) != digest:
                self.metrics.corrupt_payloads += 1
                entry.record("corrupt_payload", now, shard=handle.shard_id)
                self._shard_failed(
                    handle,
                    ShardFailureError(
                        f"shard {handle.shard_id} returned a corrupt "
                        f"payload for {key[:12]}",
                        shard_id=handle.shard_id,
                        reason="corrupt",
                    ),
                    kill=False,
                )
                return
            result = pickle.loads(payload)
            handle.current = None
            self._complete(entry, result, handle)
        elif tag == MSG_ERROR:
            info = message[3]
            handle.current = None
            # The *shard* behaved; the *job* failed.  Mirrors executor
            # policy: guard violations are deterministic, never retried.
            handle.breaker.record_success()
            if not info["guard"] and entry.attempts < self.config.retries:
                entry.attempts += 1
                self.metrics.retries += 1
                delay = backoff_delay(
                    entry.attempts,
                    base=self.config.backoff_base,
                    cap=self.config.backoff_cap,
                    seed=self.config.seed,
                    key=entry.key,
                )
                self.metrics.backoff_total_s += delay
                entry.state = QUEUED
                entry.shard_id = None
                entry.record("retry", now, attempt=entry.attempts,
                             backoff=round(delay, 6))
                self._route(entry)
                return
            self._fail(entry, info)

    def _complete(self, entry: _Entry, result: Any,
                  handle: Optional[ShardHandle]) -> None:
        now = self.clock.now()
        entry.state = DONE
        entry.result = result
        entry.record(
            "done", now,
            shard=handle.shard_id if handle else None,
            stolen=entry.stolen,
        )
        if handle is not None:
            handle.breaker.record_success()
            self.metrics.per_shard_completed[handle.shard_id] += 1
        self.metrics.completed += 1
        if self.store is not None and hasattr(result, "to_dict"):
            spec = entry.job.spec() if hasattr(entry.job, "spec") else None
            self.store.put(entry.key, result, spec=spec)
        self._finish(entry)

    def _fail(self, entry: _Entry, info: Dict) -> None:
        now = self.clock.now()
        entry.state = FAILED
        error = JobExecutionError(
            f"job {entry.key[:12]} failed after {entry.attempts + 1} "
            f"attempt(s): {info['type']}: {info['message']}"
        )
        error.traceback_text = info.get("traceback")
        entry.error = error
        entry.record("failed", now, error=info["type"], guard=info["guard"])
        self.metrics.failed += 1
        if info["guard"] and self.store is not None:
            spec = entry.job.spec() if hasattr(entry.job, "spec") else None
            # Persist the structured failure exactly like the executor:
            # deterministic integrity failures are evidence, not cache.
            self.store.record_failure(
                entry.key, error, spec=spec,
                traceback_text=info.get("traceback"),
            )
        self._finish(entry)

    def _finish(self, entry: _Entry) -> None:
        self._entries.pop(entry.key, None)
        self._remember_done(entry)
        if entry.finished is not None:
            entry.finished.set()
            entry.finished = None

    def _remember_done(self, entry: _Entry) -> None:
        self._done[entry.key] = entry
        self._done.move_to_end(entry.key)
        while len(self._done) > self.config.result_cache_entries:
            self._done.popitem(last=False)
            self.metrics.result_evictions += 1

    # -- health / failover ---------------------------------------------

    def _check_health(self) -> None:
        now = self.clock.now()
        for handle in self.shards:
            if handle.retired or handle.process is None:
                continue
            if handle.restart_at is not None:
                continue  # already down, waiting for its restart slot
            if not handle.alive:
                self.metrics.shard_crashes += 1
                self._shard_failed(
                    handle,
                    ShardFailureError(
                        f"shard {handle.shard_id} process died "
                        f"(exitcode {handle.process.exitcode})",
                        shard_id=handle.shard_id,
                        reason="crash",
                    ),
                    kill=False,
                )
                continue
            stale = handle.observe_heartbeat(now)
            if stale > self.config.heartbeat_timeout:
                self.metrics.heartbeat_timeouts += 1
                self._shard_failed(
                    handle,
                    ShardFailureError(
                        f"shard {handle.shard_id} heartbeat stale for "
                        f"{stale:.2f}s (timeout "
                        f"{self.config.heartbeat_timeout}s)",
                        shard_id=handle.shard_id,
                        reason="hung",
                    ),
                    kill=True,
                )

    def _shard_failed(self, handle: ShardHandle, error: ShardFailureError,
                      kill: bool) -> None:
        """Common failover path: breaker, redelivery, restart schedule."""
        now = self.clock.now()
        if handle.breaker.record_failure():
            self.metrics.breaker_trips += 1
        self._unwatch(handle)
        stop_shard(handle, kill=kill)
        handle.process = None
        handle.requests = handle.responses = None
        # Redelivered work may now sit on a queue this pass already
        # dispatched from: go round again.
        self._wake.set()
        entry = handle.current
        handle.current = None
        if entry is not None:
            entry.redeliveries += 1
            self.metrics.redeliveries += 1
            entry.record(
                "redelivered", now,
                shard=handle.shard_id, reason=error.reason,
                redelivery=entry.redeliveries,
            )
            entry.state = QUEUED
            entry.shard_id = None
            if entry.redeliveries > self.config.max_redeliveries:
                entry.record("serial_fallback", now)
                # Picked up by _degrade_stranded later in this pass.
                entry.stolen = False
                self._serial_queue_mark(entry)
            else:
                self._route_avoiding(entry, handle.shard_id)
        handle.restarts += 1
        if handle.restarts > self.config.max_restarts:
            handle.retired = True
            handle.restart_at = None
            self._reassign_queue(handle)
        else:
            self.metrics.shard_restarts += 1
            delay = backoff_delay(
                handle.restarts,
                base=self.config.backoff_base,
                cap=self.config.backoff_cap,
                seed=self.config.seed,
                key=f"shard-{handle.shard_id}",
            )
            self.metrics.backoff_total_s += delay
            handle.restart_at = now + delay

    def _serial_queue_mark(self, entry: _Entry) -> None:
        entry.shard_id = None
        entry.state = QUEUED
        self._serial_pending.append(entry)

    def _route_avoiding(self, entry: _Entry, avoid: int) -> None:
        others = [
            handle for handle in self.shards
            if handle.shard_id != avoid and not handle.retired
        ]
        if not others:
            self._serial_queue_mark(entry)
            return
        target = min(others, key=lambda handle: len(handle.queue))
        target.queue.append(entry)

    def _reassign_queue(self, handle: ShardHandle) -> None:
        """A retired shard's queued work moves to surviving queues."""
        stranded = list(handle.queue)
        handle.queue.clear()
        for entry in stranded:
            self._route_avoiding(entry, handle.shard_id)

    def _restart_due_shards(self) -> None:
        now = self.clock.now()
        for handle in self.shards:
            if handle.retired or handle.restart_at is None:
                continue
            if now < handle.restart_at:
                continue
            # Replacement workers never carry the chaos fault: faults
            # fire once, so recovery is observable.
            fresh = self._spawn(handle.shard_id, with_fault=False)
            handle.process = fresh.process
            handle.requests = fresh.requests
            handle.responses = fresh.responses
            handle.heartbeat = fresh.heartbeat
            handle.last_beat = -1
            handle.last_beat_changed = now
            handle.restart_at = None
            self._watch(handle)

    # -- dispatch + stealing -------------------------------------------

    def _dispatch(self) -> None:
        now = self.clock.now()
        for handle in self.shards:
            if not handle.idle or handle.retired:
                continue
            if not handle.breaker.allow():
                continue
            entry = self._next_for(handle)
            if entry is None:
                continue
            entry.state = RUNNING
            entry.shard_id = handle.shard_id
            entry.record("dispatched", now, shard=handle.shard_id,
                         stolen=entry.stolen)
            handle.current = entry
            try:
                handle.requests.send(("job", entry.key, entry.job))
            except (OSError, ValueError) as error:
                self._shard_failed(
                    handle,
                    ShardFailureError(
                        f"shard {handle.shard_id} request pipe broken: "
                        f"{error}",
                        shard_id=handle.shard_id,
                        reason="crash",
                    ),
                    kill=True,
                )

    def _next_for(self, handle: ShardHandle) -> Optional[_Entry]:
        if handle.queue:
            return handle.queue.pop(0)
        # Work stealing: take the *tail* of the longest other queue (the
        # victim keeps its hot head), deterministic tie-break by id.
        victims = [
            other for other in self.shards
            if other.shard_id != handle.shard_id and other.queue
        ]
        if not victims:
            return None
        victim = max(
            victims, key=lambda other: (len(other.queue), -other.shard_id)
        )
        entry = victim.queue.pop()
        entry.stolen = True
        self.metrics.steals += 1
        return entry

    # -- terminal degradation ------------------------------------------

    def _degrade_stranded(self) -> None:
        """Serial in-process execution: the ladder's last rung.

        Stranded work runs on a tracked task, so the serve loop keeps
        draining, health-checking and dispatching meanwhile.
        """
        fleet_dead = all(
            handle.retired or (handle.process is None
                               and handle.restart_at is None)
            for handle in self.shards
        )
        if fleet_dead:
            for handle in self.shards:
                self._serial_pending.extend(handle.queue)
                handle.queue.clear()
        if self._serial_pending and (
            self._serial_task is None or self._serial_task.done()
        ):
            self._serial_task = asyncio.ensure_future(self._serial_drain())

    async def _serial_drain(self) -> None:
        pending = self._serial_pending
        while pending:
            entry = pending.pop(0)
            if entry.state == DONE or entry.state == FAILED:
                continue
            await self._run_serial(entry)

    async def _run_serial(self, entry: _Entry) -> None:
        now = self.clock.now()
        entry.state = RUNNING
        entry.shard_id = None
        entry.record("serial_run", now)
        self.metrics.serial_fallbacks += 1
        loop = asyncio.get_running_loop()
        async with self._serial_lock:
            try:
                result = await loop.run_in_executor(None, entry.job.run)
            except Exception as exc:
                from repro.service.shard import _error_info

                self._fail(entry, _error_info(exc))
                return
        self._complete(entry, result, handle=None)
