"""Fig. 8 — IPC with different L1D / shared-memory splits of the 64 KB SRAM.

Paper values, normalized to RB_8: RB_8+SH_4 +11.0%, RB_8+SH_8 +17.4%,
RB_8+SH_16 +21.2%, RB_FULL +25.3%.  Every SH entry carved out of the
unified SRAM shrinks the L1D correspondingly (the config derives the
split automatically), which is the resource trade-off this figure
studies.  Note the figure evaluates the plain SH stack *without* the SK
and RA optimizations.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.core.presets import baseline_config, full_stack_config, sms_config
from repro.experiments.common import WorkloadCache, mean_row, normalized_ipc
from repro.experiments.report import format_bar_series, format_table
from repro.gpu.config import GPUConfig

SH_SIZES = (4, 8, 16)
PAPER = {
    "RB_8": 1.0,
    "RB_8+SH_4": 1.110,
    "RB_8+SH_8": 1.174,
    "RB_8+SH_16": 1.212,
    "RB_FULL": 1.253,
}


@dataclass
class Fig8Result:
    """Geomean normalized IPC per configuration."""

    means: Dict[str, float]
    per_scene: Dict[str, Dict[str, float]]
    shared_memory_bytes: Dict[str, int]


def configs() -> List[GPUConfig]:
    """The figure's bars: RB_8, the plain SH sizes, and RB_FULL."""
    return (
        [baseline_config()]
        + [sms_config(sh_entries=n, skewed=False, realloc=False)
           for n in SH_SIZES]
        + [full_stack_config()]
    )


def run(cache: Optional[WorkloadCache] = None) -> Fig8Result:
    """Run the SH-size sweep over the workload suite."""
    cache = cache or WorkloadCache()
    bars = configs()
    results = cache.sweep(bars)
    per_scene = normalized_ipc(results, "RB_8")
    return Fig8Result(
        means=mean_row(per_scene),
        per_scene=per_scene,
        shared_memory_bytes={
            config.describe(): config.shared_memory_bytes for config in bars
        },
    )


def render(result: Fig8Result) -> str:
    """The figure's bars with the paper's values and the SRAM split."""
    rows = []
    for label, value in result.means.items():
        shared = result.shared_memory_bytes.get(label, 0)
        l1d = 64 * 1024 - shared
        rows.append(
            (
                label,
                value,
                PAPER.get(label, float("nan")),
                f"{l1d // 1024}KB L1D + {shared // 1024}KB SH",
            )
        )
    table = format_table(
        ["config", "IPC (norm)", "paper", "unified SRAM split"],
        rows,
        title="Fig. 8: IPC with different L1D/shared-memory configurations",
    )
    return table + "\n\n" + format_bar_series(result.means, title="Fig. 8 bars")
