"""One-call regeneration of every table and figure.

``run_experiment("fig13")`` runs one driver; ``run_all()`` regenerates
the whole evaluation section, sharing a single workload cache (params,
scenes, backend and the runner every sweep goes through).

Both default to :func:`~repro.experiments.common.runtime_cache`, so
every driver's sweep runs on the runtime's process pool and is served
from the persistent result store on repeat runs; pass a cache built by
``runtime_cache(jobs=1, use_cache=False)`` (or a plain
:class:`WorkloadCache`, whose runner is serial with no store) to opt
out.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.errors import ExperimentError
from repro.experiments import (
    fig4_stack_depths,
    fig5_depth_distribution,
    fig6_stack_l1d,
    fig8_sh_configs,
    fig10_thread_depths,
    fig13_sms_ipc,
    fig14_skewed,
    fig15_rb_sizes,
    table1,
    table2,
)
from repro.experiments.common import WorkloadCache, runtime_cache

#: Experiment id -> driver module.  Every driver has run()/render().
EXPERIMENTS = {
    "table1": table1,
    "table2": table2,
    "fig4": fig4_stack_depths,
    "fig5": fig5_depth_distribution,
    "fig6": fig6_stack_l1d,
    "fig8": fig8_sh_configs,
    "fig10": fig10_thread_depths,
    "fig13": fig13_sms_ipc,
    "fig14": fig14_skewed,
    "fig15": fig15_rb_sizes,
}

#: Extra (non-paper) studies runnable through the same interface.
from repro.experiments import ablate, compare_strategies, energy_study

EXTRA_EXPERIMENTS = {
    "energy": energy_study,
    "compare": compare_strategies,
    "ablate": ablate,
}

#: Drivers that take no workload cache.
_CACHELESS = ("table1",)


def run_experiment(name: str, cache: Optional[WorkloadCache] = None) -> str:
    """Run one experiment and return its rendered report."""
    key = name.lower()
    if key in EXTRA_EXPERIMENTS:
        driver = EXTRA_EXPERIMENTS[key]
        return driver.render(driver.run(cache or runtime_cache()))
    if key not in EXPERIMENTS:
        available = ", ".join(list(EXPERIMENTS) + list(EXTRA_EXPERIMENTS))
        raise ExperimentError(
            f"unknown experiment {name!r}; available: {available}"
        )
    driver = EXPERIMENTS[key]
    if key in _CACHELESS:
        return driver.render(driver.run())
    return driver.render(driver.run(cache or runtime_cache()))


def run_all(cache: Optional[WorkloadCache] = None) -> Dict[str, str]:
    """Regenerate every table and figure; returns id -> rendered report.

    Without a ``cache`` this runs on ``runtime_cache()``'s defaults; pass
    ``runtime_cache(jobs=..., use_cache=..., ...)`` to configure them.
    """
    cache = cache or runtime_cache()
    return {name: run_experiment(name, cache) for name in EXPERIMENTS}
