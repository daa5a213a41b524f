"""Worker shards: one process per shard, heartbeats, integrity digests.

A shard is a long-lived worker process (same execution semantics as the
:mod:`repro.runtime.executor` pool workers: it calls ``job.run()`` on
picklable content-addressed jobs) plus the machinery fault tolerance
needs:

- a **heartbeat counter** (a shared ``multiprocessing.Value``)
  incremented by a daemon thread every ``heartbeat_interval`` — it keeps
  beating while a long job computes, so "busy" and "hung" are
  distinguishable.  The counter deliberately carries no timestamp: the
  coordinator tracks *when the count last changed* on its own clock, so
  no cross-process clock comparison ever happens;
- an **integrity digest**: results travel back as pickled bytes plus
  their SHA-256, so a payload corrupted in flight (or by a sick worker)
  is detected before it can reach a client or the store;
- two one-way **pipes**, requests in and responses out.  A shard holds
  at most one job, so at most one message is in flight each way; the
  coordinator registers the response pipe's read end (and the process
  sentinel) with its event loop to wake the moment an answer or an
  exit lands;
- deterministic **fault injection** hooks for the ``service`` chaos
  family (:mod:`repro.service.faults`) — kill, heartbeat-freeze and
  payload corruption fire on the n-th job of the configured shard,
  exactly once (restarted replacements carry no fault).

The module is inside simlint's timing scope: it never reads the host
clock (interruptible ``Event.wait`` provides the heartbeat cadence) and
every failure is reported as a structured message, never a bare raise.
"""

from __future__ import annotations

import hashlib
import multiprocessing
import pickle
import threading
import traceback
from dataclasses import dataclass, field
from typing import Any, Optional

from repro.errors import GuardViolationError
from repro.service.faults import ServiceFaultSpec

#: Exit code a chaos-killed worker dies with (distinguishable from 0).
KILL_EXIT_CODE = 17

#: Message tags on the shard's response queue.
MSG_DONE = "done"
MSG_ERROR = "error"


def payload_digest(payload: bytes) -> str:
    """The integrity checksum carried beside every result payload."""
    return hashlib.sha256(payload).hexdigest()


def _heartbeat_loop(value, interval: float, stop, frozen) -> None:
    """Daemon thread: bump the shared counter until stopped or frozen."""
    while not stop.wait(interval):
        if frozen.is_set():
            continue
        with value.get_lock():
            value.value += 1


def _error_info(exc: Exception) -> dict:
    """A structured, picklable description of a job failure."""
    diagnostics = getattr(exc, "diagnostics", None)
    return {
        "type": type(exc).__name__,
        "message": str(exc),
        "guard": isinstance(exc, GuardViolationError),
        "diagnostics": diagnostics() if callable(diagnostics) else {},
        "traceback": "".join(
            traceback.format_exception(type(exc), exc, exc.__traceback__)
        ),
    }


def shard_main(
    shard_id: int,
    requests,
    responses,
    heartbeat,
    heartbeat_interval: float,
    fault: Optional[ServiceFaultSpec] = None,
) -> None:
    """The worker-process entry point.

    Protocol: the coordinator sends ``("job", key, job)`` and
    ``("stop",)`` on ``requests``; the worker answers with
    ``(shard_id, "done", key, payload, digest, trace_evictions)`` or
    ``(shard_id, "error", key, error_info)`` on ``responses``.  Both are
    one-way :func:`multiprocessing.Pipe` ends.
    """
    import os

    from repro.runtime.job import trace_memo_evictions

    stop = threading.Event()
    frozen = threading.Event()
    beat = threading.Thread(
        target=_heartbeat_loop,
        args=(heartbeat, heartbeat_interval, stop, frozen),
        daemon=True,
    )
    beat.start()
    jobs_executed = 0
    while True:
        try:
            message = requests.recv()
        except EOFError:
            break  # the coordinator is gone
        if message[0] == "stop":
            break
        _, key, job = message
        jobs_executed += 1
        fault_due = (
            fault is not None
            and fault.shard == shard_id
            and jobs_executed == fault.trigger
        )
        if fault_due and fault.kind == "heartbeat_freeze":
            # The hung-shard scenario: stop proving liveness and stop
            # making progress.  Only the coordinator's kill ends this.
            frozen.set()
            threading.Event().wait()
        try:
            result = job.run()
        except Exception as exc:
            responses.send((shard_id, MSG_ERROR, key, _error_info(exc)))
            continue
        if fault_due and fault.kind == "shard_kill":
            os._exit(KILL_EXIT_CODE)
        payload = pickle.dumps(result)
        digest = payload_digest(payload)
        if fault_due and fault.kind == "corrupt_result":
            # Flip one byte *after* digesting: the checksum must catch it.
            payload = payload[:-1] + bytes([payload[-1] ^ 0xFF])
        responses.send(
            (shard_id, MSG_DONE, key, payload, digest,
             trace_memo_evictions())
        )
    stop.set()


@dataclass
class ShardHandle:
    """The coordinator's view of one worker shard."""

    shard_id: int
    process: Any = None
    #: Coordinator ends of the request (send) and response (recv) pipes.
    requests: Any = None
    responses: Any = None
    heartbeat: Any = None
    #: Last heartbeat count observed, and the coordinator-clock time it
    #: changed (liveness is "the count moved recently").
    last_beat: int = -1
    last_beat_changed: float = 0.0
    #: Jobs handed to this shard and not yet answered (at most one).
    current: Optional[Any] = None
    #: Lifetime restarts; beyond the budget the shard stays down.
    restarts: int = 0
    #: Coordinator-clock time before which the shard must not be
    #: restarted (deterministic backoff), or ``None`` when running.
    restart_at: Optional[float] = None
    #: Permanently retired (restart budget exhausted).
    retired: bool = False
    #: Highest trace-memo eviction count reported by this worker.
    trace_evictions: int = 0
    breaker: Any = None
    #: Queued jobs routed to this shard (the coordinator owns it).
    queue: list = field(default_factory=list)

    @property
    def alive(self) -> bool:
        return self.process is not None and self.process.is_alive()

    @property
    def idle(self) -> bool:
        return self.alive and self.current is None

    def observe_heartbeat(self, now: float) -> float:
        """Update liveness bookkeeping; returns seconds since last beat."""
        count = self.heartbeat.value if self.heartbeat is not None else -1
        if count != self.last_beat:
            self.last_beat = count
            self.last_beat_changed = now
        return now - self.last_beat_changed


def spawn_shard(
    shard_id: int,
    heartbeat_interval: float,
    fault: Optional[ServiceFaultSpec] = None,
    context=None,
) -> ShardHandle:
    """Start one worker process and return its handle."""
    ctx = context if context is not None else multiprocessing.get_context()
    request_reader, requests = ctx.Pipe(duplex=False)
    responses, response_writer = ctx.Pipe(duplex=False)
    heartbeat = ctx.Value("Q", 0)
    process = ctx.Process(
        target=shard_main,
        args=(shard_id, request_reader, response_writer, heartbeat,
              heartbeat_interval, fault),
        daemon=True,
    )
    process.start()
    # Only the worker keeps the far ends: once it exits, reads on
    # `responses` see EOF and sends on `requests` fail fast.
    request_reader.close()
    response_writer.close()
    return ShardHandle(
        shard_id=shard_id,
        process=process,
        requests=requests,
        responses=responses,
        heartbeat=heartbeat,
    )


def stop_shard(handle: ShardHandle, kill: bool = False) -> None:
    """Shut a worker down (graceful stop, or kill for hung workers)."""
    if handle.process is None:
        return
    if not kill and handle.alive:
        try:
            handle.requests.send(("stop",))
        except (OSError, ValueError):
            kill = True
    if kill and handle.alive:
        handle.process.kill()
    handle.process.join(timeout=2.0)
    handle.requests.close()
    handle.responses.close()
