"""Shared experiment plumbing.

Every timing run is a (scene x config) list of content-addressed
:class:`~repro.runtime.job.SimulationJob` cells handed to one *runner*
(any callable ``jobs -> results``, see :mod:`repro.runtime.executor`).
A :class:`WorkloadCache` holds what the drivers share — workload params,
the scene suite, the timing backend and the runner — and traces scenes
once for the drivers that read traces directly (``traced()``).
:func:`runtime_cache` turns user-facing knobs into a cache whose runner
has a persistent store and a worker pool.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence

from repro.bvh.api import build_bvh
from repro.bvh.stats import BVHStats, compute_stats
from repro.bvh.wide import WideBVH
from repro.core.results import SimulationResult
from repro.gpu.config import GPUConfig
from repro.runtime.executor import ExecutionPolicy, LocalRunner, Runner
from repro.runtime.job import SimulationJob, remember_traces
from repro.runtime.store import ResultStore
from repro.scene.scene import Scene
from repro.trace.events import RayTrace
from repro.trace.path import generate_workload
from repro.workloads.lumibench import SCENE_NAMES, load_scene
from repro.workloads.params import DEFAULT_PARAMS, WorkloadParams


def geomean(values: Iterable[float]) -> float:
    """Geometric mean (the conventional average for normalized IPC)."""
    values = list(values)
    if not values:
        return 0.0
    product = 1.0
    for value in values:
        product *= value
    return product ** (1.0 / len(values))


@dataclass
class TracedScene:
    """One scene's cached functional-trace results."""

    scene: Scene
    bvh: WideBVH
    traces: List[RayTrace]
    bvh_stats: BVHStats


@dataclass
class WorkloadCache:
    """The shared setting of a set of experiments, and their trace cache.

    ``scene_names=None`` means the full Table II suite.  ``params``
    controls resolution; experiments pass a scaled-down copy for quick
    smoke runs.  ``runner`` executes every sweep; the default runs the
    jobs serially in this process with no store.
    """

    params: WorkloadParams = field(default_factory=lambda: DEFAULT_PARAMS)
    scene_names: Optional[Sequence[str]] = None
    max_bounces: Optional[int] = None
    #: Timing backend every simulation in this cache requests
    #: (``"stepped"`` or ``"vector"``); backends are bit-identical by
    #: contract, so this only changes wall-clock, never results.
    backend: str = "stepped"
    #: How sweeps execute: a :class:`~repro.runtime.executor.LocalRunner`
    #: or a service client's ``run_jobs``.
    runner: Runner = field(default_factory=LocalRunner)
    _cache: Dict[str, TracedScene] = field(default_factory=dict)

    @property
    def names(self) -> List[str]:
        """Scene names this cache covers."""
        return list(self.scene_names) if self.scene_names else list(SCENE_NAMES)

    def traced(self, name: str) -> TracedScene:
        """Trace (or fetch cached traces for) one scene.

        The traces also go to the per-process job trace memo, so sweeps
        run in this process do not trace the scene again.
        """
        key = name.upper()
        if key not in self._cache:
            # Phase one ignores the config; any one names the workload.
            job = self.job(key, GPUConfig())
            scene = load_scene(key)
            bvh = build_bvh(scene)
            traces = generate_workload(
                bvh,
                width=job.width,
                height=job.height,
                spp=job.spp,
                max_bounces=job.max_bounces,
                seed=job.seed,
            ).all_traces
            remember_traces(job, scene.name, traces)
            self._cache[key] = TracedScene(
                scene=scene,
                bvh=bvh,
                traces=traces,
                bvh_stats=compute_stats(bvh),
            )
        return self._cache[key]

    def job(
        self,
        name: str,
        config: GPUConfig,
        strategy: str = "sms",
        verify_pops: bool = False,
    ) -> SimulationJob:
        """The content-addressed job for one (scene, config) cell."""
        return SimulationJob.from_params(
            name,
            config,
            params=self.params,
            max_bounces=self.max_bounces,
            verify_pops=verify_pops,
            strategy=strategy,
            backend=self.backend,
        )

    def sweep(
        self, configs: Sequence[GPUConfig], verify_pops: bool = False
    ) -> Dict[str, Dict[str, SimulationResult]]:
        """Run every (scene, config) pair through the runner.

        Returns ``{scene_name: {config_label: result}}`` with config
        labels from :func:`unique_labels`.  Jobs go out scene-major, so
        a worker that draws several configs of one scene traces it once.
        """
        labels = unique_labels(configs)
        names = self.names
        jobs = [
            self.job(name, config, verify_pops=verify_pops)
            for name in names
            for config in configs
        ]
        flat = iter(self.runner(jobs))
        return {
            name: {label: next(flat) for label in labels} for name in names
        }


def runtime_cache(
    params: Optional[WorkloadParams] = None,
    scene_names: Optional[Sequence[str]] = None,
    jobs: Optional[int] = None,
    use_cache: bool = True,
    cache_dir=None,
    timeout: Optional[float] = None,
    retries: int = 2,
    progress: bool = False,
    backend: str = "stepped",
) -> WorkloadCache:
    """A :class:`WorkloadCache` whose runner is a store-backed pool.

    The one translation of user-facing knobs into a store plus a
    policy: ``jobs`` is the worker count (``None`` auto-sizes, ``1``
    forces serial), ``use_cache=False`` drops the persistent store,
    ``cache_dir`` overrides the store location (default
    ``~/.cache/repro-sms`` or ``$REPRO_CACHE_DIR``), ``timeout`` and
    ``retries`` bound each job, ``progress`` draws a live stderr line,
    and ``backend`` selects the timing backend every job requests.  The
    runner is a :class:`~repro.runtime.executor.LocalRunner`, so its
    ``metrics`` accumulate over every sweep.
    """
    return WorkloadCache(
        params=params or DEFAULT_PARAMS,
        scene_names=scene_names,
        backend=backend,
        runner=LocalRunner(
            store=ResultStore(cache_dir) if use_cache else None,
            policy=ExecutionPolicy(workers=jobs, timeout=timeout,
                                   retries=retries, progress=progress),
        ),
    )


def unique_labels(configs: Sequence[GPUConfig]) -> List[str]:
    """Figure labels for ``configs``, suffixed ``#i`` where they collide.

    :meth:`GPUConfig.describe` omits some fields (``max_borrows``,
    ``spill_cache_policy``, ...), so two distinct configs can share a
    label; the later one gets its position as a suffix.
    """
    labels: List[str] = []
    for config in configs:
        label = config.describe()
        if label in labels:
            label = f"{label}#{len(labels)}"
        labels.append(label)
    return labels


def normalized_ipc(
    results: Dict[str, Dict[str, SimulationResult]], baseline_label: str
) -> Dict[str, Dict[str, float]]:
    """Per-scene IPC normalized to ``baseline_label`` (paper convention)."""
    normalized: Dict[str, Dict[str, float]] = {}
    for scene, per_scene in results.items():
        base = per_scene[baseline_label].ipc
        normalized[scene] = {
            label: (result.ipc / base if base else 0.0)
            for label, result in per_scene.items()
        }
    return normalized


def mean_row(per_scene: Dict[str, Dict[str, float]]) -> Dict[str, float]:
    """Geometric-mean row across scenes for each config label."""
    if not per_scene:
        return {}
    labels = next(iter(per_scene.values())).keys()
    return {
        label: geomean(per_scene[scene][label] for scene in per_scene)
        for label in labels
    }
