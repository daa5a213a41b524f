"""Parallel campaign execution engine with a persistent result store.

Every figure and table in the reproduction is a (scene x configuration)
sweep, and each cell of that sweep is a *pure* computation: trace the
scene deterministically, replay the traces through the timing model.
This package turns that purity into throughput:

- :mod:`repro.runtime.job` — one simulation as a hashable, picklable
  spec with a deterministic content-address key;
- :mod:`repro.runtime.store` — a JSON-per-key on-disk result store so
  repeated sweeps load instead of re-simulating;
- :mod:`repro.runtime.executor` — a process-pool executor with per-job
  timeouts, bounded retry with backoff, and graceful degradation to
  serial in-process execution when workers fail;
- :mod:`repro.runtime.metrics` — queued/running/done/failed/cache-hit
  counters, per-job latency and throughput, plus a live progress line.

Every sweep runs as a list of jobs handed to one *runner* — any
callable ``jobs -> results``.  There are two: :class:`LocalRunner`
(:func:`run_jobs` with a store and a policy, accumulating
:class:`RuntimeMetrics`) and a service client's ``run_jobs``;
:func:`resolve_runner` picks between them.  Because the simulation is
deterministic, serial, pooled, cached and served sweeps are
bit-identical.  The experiment layer builds on this package, never the
other way round: :func:`repro.experiments.common.runtime_cache` turns
user knobs into a :class:`~repro.experiments.common.WorkloadCache` whose
runner is a :class:`LocalRunner`.
"""

from repro.runtime.executor import (
    ExecutionPolicy,
    LocalRunner,
    Runner,
    RunReport,
    resolve_runner,
    run_jobs,
)
from repro.runtime.job import CACHE_SCHEMA_VERSION, SimulationJob, cache_salt
from repro.runtime.metrics import ProgressReporter, RuntimeMetrics
from repro.runtime.store import DEFAULT_CACHE_DIR, ResultStore

__all__ = [
    "CACHE_SCHEMA_VERSION",
    "DEFAULT_CACHE_DIR",
    "ExecutionPolicy",
    "LocalRunner",
    "ProgressReporter",
    "ResultStore",
    "RunReport",
    "Runner",
    "RuntimeMetrics",
    "SimulationJob",
    "cache_salt",
    "resolve_runner",
    "run_jobs",
]
