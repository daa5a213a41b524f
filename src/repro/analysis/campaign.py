"""One-call measurement campaigns: sweep, summarize, export.

A :class:`Campaign` wraps the scene-by-configuration sweep the experiment
drivers use, but returns the raw :class:`SimulationResult` objects and
offers CSV/JSON/markdown export — the entry point for users running their
own studies rather than regenerating the paper's figures.

A campaign is one :meth:`WorkloadCache.sweep
<repro.experiments.common.WorkloadCache.sweep>` whose runner comes from
:func:`~repro.experiments.common.runtime_cache` (a process pool sized by
``jobs``, every cell served from the persistent result store when its
content key matches a previous run) or from a running ``repro serve``.
The simulation is deterministic, so parallel, cached and served runs are
bit-identical to serial ones.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence

from repro.analysis.export import (
    results_by_scene,
    results_markdown,
    write_csv,
    write_json,
)
from repro.core.presets import named_config
from repro.core.results import SimulationResult
from repro.experiments.common import geomean, runtime_cache
from repro.gpu.config import GPUConfig
from repro.runtime.executor import resolve_runner
from repro.runtime.metrics import RuntimeMetrics
from repro.workloads.params import DEFAULT_PARAMS, WorkloadParams


@dataclass
class CampaignResult:
    """All runs of one campaign plus summary helpers."""

    results: List[SimulationResult]
    baseline_label: str
    #: Executor counters for the run (``None`` when a service ran it).
    metrics: Optional[RuntimeMetrics] = None

    def normalized_means(self) -> Dict[str, float]:
        """Geomean normalized IPC per (unique) configuration label."""
        ratios: Dict[str, List[float]] = {}
        for per_scene in results_by_scene(self.results).values():
            base = per_scene.get(self.baseline_label)
            if base is None or base.ipc == 0:
                continue
            for label, result in per_scene.items():
                ratios.setdefault(label, []).append(result.ipc / base.ipc)
        return {label: geomean(values) for label, values in ratios.items()}

    def to_csv(self, path) -> Path:
        """Export all runs as CSV."""
        return write_csv(self.results, path)

    def to_json(self, path) -> Path:
        """Export all runs as JSON."""
        return write_json(self.results, path)

    def to_markdown(self) -> str:
        """Normalized-IPC markdown table."""
        return results_markdown(self.results, self.baseline_label)


@dataclass
class Campaign:
    """A sweep specification: which scenes under which configurations.

    The runtime knobs mirror the CLI: ``jobs`` is the worker-process
    count (``None`` auto-sizes to the machine, ``1`` forces serial
    in-process execution), ``use_cache``/``cache_dir`` control the
    persistent result store, ``timeout``/``retries`` bound each job, and
    ``progress`` draws a live stderr progress line.
    """

    configs: Sequence = ("RB_8", "RB_8+SH_8+SK+RA", "RB_FULL")
    scenes: Optional[Sequence[str]] = None
    params: WorkloadParams = field(default_factory=lambda: DEFAULT_PARAMS)
    baseline_label: str = "RB_8"
    jobs: Optional[int] = None
    use_cache: bool = True
    cache_dir: Optional[Path] = None
    timeout: Optional[float] = None
    retries: int = 2
    progress: bool = False

    def _resolved_configs(self) -> List[GPUConfig]:
        return [
            config if isinstance(config, GPUConfig) else named_config(config)
            for config in self.configs
        ]

    def run(self, service=None) -> CampaignResult:
        """Execute every (scene, config) pair.

        ``service`` routes the sweep to a running ``repro serve``
        instance instead of the local runner: pass a
        :class:`~repro.service.client.ServiceClient` or a
        ``http://host:port`` URL.  The service path aggregates
        bit-identically to local execution (the simulation is
        deterministic, and the server sheds rather than drops), so the
        two are interchangeable; campaign shedding is absorbed by the
        client's backoff-and-resubmit loop.
        """
        cache = runtime_cache(
            params=self.params,
            scene_names=self.scenes,
            jobs=self.jobs,
            use_cache=self.use_cache,
            cache_dir=self.cache_dir,
            timeout=self.timeout,
            retries=self.retries,
            progress=self.progress,
        )
        local = cache.runner
        cache.runner = resolve_runner(service, local)
        sweep = cache.sweep(self._resolved_configs())
        return CampaignResult(
            results=[
                result for per_scene in sweep.values()
                for result in per_scene.values()
            ],
            baseline_label=self.baseline_label,
            metrics=local.metrics if service is None else None,
        )
