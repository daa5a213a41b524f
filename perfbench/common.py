"""Shared plumbing: the run context, statistics and memory readings."""

from __future__ import annotations

import math
import resource
import shutil
import statistics
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Sequence

import numpy as np

#: Directory (inside the checkout) for everything a run writes.
WORK_DIR = ".perfbench"


@dataclass
class Context:
    """What every workload needs to know about the current run."""

    root: Path
    seed: int
    trace: bool
    tiny: bool
    oracle: object
    #: Per-run scratch space under the checkout; removed at the end.
    scratch: Path = None

    def fresh_dir(self, name: str) -> Path:
        """An empty directory under the run's scratch space."""
        path = self.scratch / name
        shutil.rmtree(path, ignore_errors=True)
        path.mkdir(parents=True)
        return path


def median(values: Sequence[float]) -> float:
    return statistics.median(values) if values else 0.0


def quantile(values: Sequence[float], q: float) -> float:
    """Harrell-Davis estimate of the ``q`` quantile, ``q`` in (0, 1).

    A Beta-weighted mean of all order statistics.  Service latencies
    come in poll-tick steps, and a plain sample quantile that sits on a
    step jumps a whole tick between runs; this estimate moves smoothly
    with the share of samples on each side.
    """
    if not values:
        return 0.0
    ordered = np.sort(np.asarray(values, dtype=float))
    n = len(ordered)
    a, b = q * (n + 1), (1.0 - q) * (n + 1)
    grid = np.linspace(0.0, 1.0, 20001)
    inner = grid[1:-1]
    density = np.exp(
        (a - 1) * np.log(inner) + (b - 1) * np.log1p(-inner)
        - (math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b))
    )
    density = np.concatenate([[0.0], density, [0.0]])
    cdf = np.concatenate(
        [[0.0], np.cumsum((density[1:] + density[:-1]) / 2 * np.diff(grid))]
    )
    cdf /= cdf[-1]
    weights = np.diff(np.interp(np.arange(n + 1) / n, grid, cdf))
    return float(np.dot(weights, ordered))


def geomean(values: Sequence[float]) -> float:
    if not values:
        return 0.0
    return math.exp(sum(math.log(v) for v in values) / len(values))


def self_rss_mb() -> float:
    """Peak resident memory of this process so far, in MB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def children_rss_mb() -> float:
    """Peak resident memory of the largest waited-for child, in MB."""
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0


def gpu_counts(counters) -> Dict[str, float]:
    """The exact simulated statistics the gpu layer reports."""
    return {
        "gpu.sim_cycles": counters.cycles,
        "gpu.warp_steps": counters.warp_steps,
        "gpu.offchip_accesses": counters.offchip_accesses,
        "gpu.stack_global_ops": counters.stack_global_ops,
    }


def add_counts(total: Dict[str, float], more: Dict[str, float]) -> None:
    for name, value in more.items():
        total[name] = total.get(name, 0) + value
