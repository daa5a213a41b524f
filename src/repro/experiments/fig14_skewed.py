"""Fig. 14 — effect of skewed bank access on bank-conflict delay cycles.

The paper compares the delay cycles caused by shared-memory bank
conflicts before (RB_8+SH_8) and after (+SK) skewing, reporting a 27.3%
average reduction.  We measure the same counter
(``Counters.bank_conflict_delay_cycles``) under both configurations.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from repro.core.presets import sms_config
from repro.experiments.common import WorkloadCache
from repro.experiments.report import format_table

PAPER_REDUCTION = 0.273


@dataclass
class Fig14Result:
    """Delay cycles per scene with and without skewing."""

    delay_no_skew: Dict[str, int]
    delay_skew: Dict[str, int]

    @property
    def reduction(self) -> float:
        """Aggregate fractional reduction in delay cycles.

        Computed over summed delays so scenes with near-zero conflict
        activity (where a 4 -> 0 change is a meaningless "100%") do not
        dominate the average.
        """
        before = sum(self.delay_no_skew.values())
        after = sum(self.delay_skew.values())
        if before == 0:
            return 0.0
        return 1.0 - after / before


def run(cache: Optional[WorkloadCache] = None) -> Fig14Result:
    """Measure bank-conflict delays with and without skewed access."""
    cache = cache or WorkloadCache()
    results = cache.sweep([
        sms_config(skewed=False, realloc=False),
        sms_config(skewed=True, realloc=False),
    ])
    delays = {
        name: [r.counters.bank_conflict_delay_cycles for r in per.values()]
        for name, per in results.items()
    }
    return Fig14Result(
        delay_no_skew={name: pair[0] for name, pair in delays.items()},
        delay_skew={name: pair[1] for name, pair in delays.items()},
    )


def render(result: Fig14Result) -> str:
    """Per-scene delay cycles and the average reduction."""
    rows = []
    for scene, before in result.delay_no_skew.items():
        after = result.delay_skew[scene]
        change = (1.0 - after / before) if before else 0.0
        rows.append((scene, before, after, f"{change:+.1%}"))
    table = format_table(
        ["scene", "delay (SH_8)", "delay (+SK)", "reduction"],
        rows,
        title="Fig. 14: bank-conflict delay cycles, before/after skewed access",
    )
    summary = (
        f"\nmean reduction: {result.reduction:.1%} "
        f"(paper: {PAPER_REDUCTION:.1%})"
    )
    return table + summary
