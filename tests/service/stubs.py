"""Picklable stub jobs for the service tests.

They live in an importable module (not a test file) because shard worker
processes must unpickle them; they mimic the job surface the service
relies on — ``key()``, ``run()``, picklability — while steering failure
behavior through flags and cross-process marker files (same idiom as
the executor tests).
"""

from __future__ import annotations

import hashlib
import multiprocessing
import os
import signal
import time
from dataclasses import dataclass

from repro.errors import GuardViolationError


def _in_worker() -> bool:
    return multiprocessing.parent_process() is not None


@dataclass(frozen=True)
class StubResult:
    name: str
    value: int

    def to_dict(self):
        return {"name": self.name, "value": self.value}


@dataclass(frozen=True)
class StubJob:
    """Deterministic toy job: value is a pure function of the name.

    ``fail_times`` makes the first N attempts raise, counted through a
    marker file under ``marker_dir`` so the count survives process
    boundaries — point it at a per-test temp directory.
    ``duration`` busy-holds the worker so queues observably fill.
    """

    name: str
    fail_times: int = 0
    marker_dir: str = "/tmp"
    duration: float = 0.0

    def key(self) -> str:
        return hashlib.sha256(f"stub:{self.name}".encode()).hexdigest()

    def run(self) -> StubResult:
        if self.duration:
            time.sleep(self.duration)
        if self.fail_times:
            marker = os.path.join(
                self.marker_dir, f"stub-{self.key()[:12]}"
            )
            seen = 0
            if os.path.exists(marker):
                with open(marker) as handle:
                    seen = int(handle.read() or 0)
            if seen < self.fail_times:
                with open(marker, "w") as handle:
                    handle.write(str(seen + 1))
                raise ValueError(f"transient failure {seen + 1}")
        digest = hashlib.sha256(self.name.encode()).digest()
        return StubResult(self.name, int.from_bytes(digest[:4], "big"))


@dataclass(frozen=True)
class GuardStubJob:
    """Always raises a guard violation (deterministic, never retried)."""

    name: str

    def key(self) -> str:
        return hashlib.sha256(f"guard:{self.name}".encode()).hexdigest()

    def run(self):
        raise GuardViolationError(f"stack invariant broken in {self.name}")


@dataclass(frozen=True)
class SuicideJob:
    """Kills its worker process mid-job — but runs fine in-process.

    The in-process path matters: after the redelivery budget is spent
    the coordinator's serial fallback runs the job in the main process,
    which must yield the real result, not kill the test.  ``duration``
    holds that in-process run (never the worker, which dies at once),
    so tests can watch the coordinator while the fallback is busy.
    """

    name: str
    duration: float = 0.0

    def key(self) -> str:
        return hashlib.sha256(f"suicide:{self.name}".encode()).hexdigest()

    def run(self) -> StubResult:
        if _in_worker():
            os.kill(os.getpid(), signal.SIGKILL)
        if self.duration:
            time.sleep(self.duration)
        digest = hashlib.sha256(self.name.encode()).digest()
        return StubResult(self.name, int.from_bytes(digest[:4], "big"))
