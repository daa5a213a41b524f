"""Workload execution parameters (paper section VII-A).

The paper renders most scenes at 128x128 with 2 spp and the three most
complex (CHSNT, ROBOT, PARK) at 32x32 with 1 spp, noting that trends are
consistent across workload sizes.  We apply the same two-tier scheme at
our scaled-down default resolution; both tiers are configurable.
"""

from __future__ import annotations

from dataclasses import dataclass
from numbers import Integral

from repro.errors import ConfigError

#: Scenes the paper runs at reduced scale due to simulation cost.
COMPLEX_SCENES = ("CHSNT", "ROBOT", "PARK")


@dataclass(frozen=True)
class WorkloadParams:
    """Resolution/sampling for one simulation campaign."""

    width: int = 32
    height: int = 32
    spp: int = 1
    max_bounces: int = 3
    complex_width: int = 16
    complex_height: int = 16
    complex_spp: int = 1
    seed: int = 0

    def for_scene(self, scene_name: str) -> "tuple[int, int, int]":
        """(width, height, spp) for a given scene."""
        if scene_name.upper() in COMPLEX_SCENES:
            return self.complex_width, self.complex_height, self.complex_spp
        return self.width, self.height, self.spp

    def scaled(self, factor: float) -> "WorkloadParams":
        """A resolution-scaled copy (for quick test runs)."""
        return WorkloadParams(
            width=max(4, int(self.width * factor)),
            height=max(4, int(self.height * factor)),
            spp=self.spp,
            max_bounces=self.max_bounces,
            complex_width=max(4, int(self.complex_width * factor)),
            complex_height=max(4, int(self.complex_height * factor)),
            complex_spp=self.complex_spp,
            seed=self.seed,
        )


def validate_run_shape(width, height, spp, max_bounces, seed=0) -> None:
    """Raise :class:`~repro.errors.ConfigError` unless the run shape is sane.

    ``width``, ``height`` and ``spp`` must be integers >= 1,
    ``max_bounces`` an integer >= 0 and ``seed`` an integer (``bool`` is
    not an integer here).  Anything else would trace a different
    experiment than the one asked for (``spp=0`` traces no rays; a
    negative bounce budget runs as 0), or fail deep in a worker.
    """
    for name, value, least in (("width", width, 1), ("height", height, 1),
                               ("spp", spp, 1), ("max_bounces", max_bounces, 0),
                               ("seed", seed, None)):
        if not isinstance(value, Integral) or isinstance(value, bool):
            raise ConfigError(f"{name} must be an integer, got {value!r}")
        if least is not None and value < least:
            raise ConfigError(f"{name} must be >= {least}, got {value}")


#: Defaults used by the experiment drivers and benchmarks.
DEFAULT_PARAMS = WorkloadParams()
