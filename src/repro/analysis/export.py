"""Flat export of simulation results (CSV / JSON / markdown)."""

from __future__ import annotations

import csv
import json
from pathlib import Path
from typing import Dict, List, Sequence

from repro.core.results import SimulationResult
from repro.experiments.common import unique_labels

#: Column order for tabular exports.
COLUMNS = [
    "scene",
    "config",
    "ipc",
    "cycles",
    "instructions",
    "offchip_accesses",
    "stack_global_ops",
    "stack_shared_ops",
    "bank_conflict_delay_cycles",
    "borrows",
    "flushes",
    "l1_hit_rate",
    "ray_count",
]


def results_to_rows(results: Sequence[SimulationResult]) -> List[Dict]:
    """Flatten results into one dict per (scene, config) run."""
    rows = []
    for result in results:
        counters = result.counters
        rows.append(
            {
                "scene": result.scene_name,
                "config": result.label,
                "ipc": result.ipc,
                "cycles": result.cycles,
                "instructions": counters.instructions,
                "offchip_accesses": result.offchip_accesses,
                "stack_global_ops": counters.stack_global_ops,
                "stack_shared_ops": counters.stack_shared_ops,
                "bank_conflict_delay_cycles": counters.bank_conflict_delay_cycles,
                "borrows": counters.borrows,
                "flushes": counters.flushes,
                "l1_hit_rate": counters.l1_hit_rate,
                "ray_count": result.ray_count,
            }
        )
    return rows


def write_csv(results: Sequence[SimulationResult], path) -> Path:
    """Write results as CSV; returns the path written."""
    path = Path(path)
    with path.open("w", newline="") as handle:
        writer = csv.DictWriter(handle, fieldnames=COLUMNS)
        writer.writeheader()
        for row in results_to_rows(results):
            writer.writerow(row)
    return path


def write_json(results: Sequence[SimulationResult], path) -> Path:
    """Write results as a JSON list; returns the path written."""
    path = Path(path)
    path.write_text(json.dumps(results_to_rows(results), indent=2))
    return path


def results_by_scene(
    results: Sequence[SimulationResult],
) -> Dict[str, Dict[str, SimulationResult]]:
    """``{scene: {label: result}}`` in result order.

    Labels follow :func:`~repro.experiments.common.unique_labels`, the
    rule :meth:`WorkloadCache.sweep` uses, so two configs that share a
    figure label (say, differing only in ``max_borrows``) keep separate
    cells instead of one silently overwriting the other.
    """
    grouped: Dict[str, List[SimulationResult]] = {}
    for result in results:
        grouped.setdefault(result.scene_name, []).append(result)
    return {
        scene: dict(zip(unique_labels([r.config for r in cells]), cells))
        for scene, cells in grouped.items()
    }


def results_markdown(
    results: Sequence[SimulationResult], baseline_label: str = "RB_8"
) -> str:
    """A markdown table of IPC per scene/config, normalized to a baseline.

    Rows are scenes, columns configurations; cells are normalized IPC.
    """
    by_scene = results_by_scene(results)
    labels: List[str] = []
    for per_scene in by_scene.values():
        for label in per_scene:
            if label not in labels:
                labels.append(label)
    lines = ["| scene | " + " | ".join(labels) + " |",
             "|---" * (len(labels) + 1) + "|"]
    for scene, per_scene in by_scene.items():
        base = per_scene.get(baseline_label)
        cells = []
        for label in labels:
            result = per_scene.get(label)
            if result is None:
                cells.append("—")
            elif base is None or base.ipc == 0:
                cells.append(f"{result.ipc:.3f}")
            else:
                cells.append(f"{result.ipc / base.ipc:.3f}")
        lines.append(f"| {scene} | " + " | ".join(cells) + " |")
    return "\n".join(lines)
