"""JSON wire format for jobs and results (HTTP API <-> client).

A submitted job travels as its resolved field dict (not the content
key): the server rebuilds the exact :class:`SimulationJob`, re-derives
the key itself, and therefore never trusts a client-supplied hash.
Results reuse :meth:`SimulationResult.to_dict` — the same payload the
persistent store holds.
"""

from __future__ import annotations

from dataclasses import asdict
from typing import Dict

from repro.core.presets import named_config
from repro.core.results import SimulationResult
from repro.errors import ConfigError
from repro.gpu.config import GPUConfig
from repro.runtime.job import SimulationJob

#: SimulationJob fields a submission may set (everything but the config).
_JOB_FIELDS = (
    "scene", "width", "height", "spp", "max_bounces", "seed",
    "verify_pops", "guard", "max_cycles", "strategy", "backend",
)


def job_to_wire(job: SimulationJob) -> Dict:
    """The submission payload for one job."""
    wire = {name: getattr(job, name) for name in _JOB_FIELDS}
    wire["config"] = asdict(job.config)
    return wire


def job_from_wire(wire: Dict) -> SimulationJob:
    """Rebuild a job from a submission payload.

    ``config`` may be a preset label (``"RB_8+SH_8+SK+RA"``) or a full
    field dict; unknown fields anywhere raise
    :class:`~repro.errors.ConfigError` so a bad submission is a 400, not
    a worker crash.
    """
    if not isinstance(wire, dict):
        raise ConfigError("submission body must be a JSON object")
    config_wire = wire.get("config", "RB_8+SH_8+SK+RA")
    if isinstance(config_wire, str):
        config = named_config(config_wire)
    elif isinstance(config_wire, dict):
        try:
            config = GPUConfig(**config_wire)
        except TypeError as error:
            raise ConfigError(f"bad config fields: {error}") from error
    else:
        raise ConfigError("config must be a preset label or a field dict")
    fields = {}
    for name in _JOB_FIELDS:
        if name in wire:
            fields[name] = wire[name]
    unknown = sorted(set(wire) - set(_JOB_FIELDS) - {"config"})
    if unknown:
        raise ConfigError(f"unknown job fields: {', '.join(unknown)}")
    if "scene" not in fields:
        raise ConfigError("submission needs a scene")
    scene = fields.pop("scene")
    try:
        return SimulationJob(scene=str(scene).upper(), config=config,
                             width=fields.pop("width", 24),
                             height=fields.pop("height", 24),
                             **fields)
    except (TypeError, ValueError) as error:
        raise ConfigError(f"bad job fields: {error}") from error


def result_to_wire(result: SimulationResult) -> Dict:
    return result.to_dict()


def result_from_wire(wire: Dict) -> SimulationResult:
    return SimulationResult.from_dict(wire)
