"""Path-traced workload generation (paper section VII-A).

Generates the ray population of a path-traced frame: camera (primary)
rays, then per-bounce waves of shadow and bounce rays from the previous
wave's hit points.  Waves are kept separate because they are what a GPU
schedules: primary-ray warps are coherent, deeper waves increasingly
divergent — which is precisely the incoherence the paper's stack traffic
analysis depends on.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List

import numpy as np

from repro.bvh.wide import WideBVH
from repro.geometry.ray import Ray
from repro.geometry.vec import normalize
from repro.scene.camera import PinholeCamera
from repro.trace.events import RayKind, RayTrace
from repro.trace.rng import DeterministicRng
from repro.trace.tracer import Tracer
from repro.workloads.params import validate_run_shape


@dataclass
class PathTracerWorkload:
    """All ray traces of one path-traced frame, grouped into waves.

    ``waves[0]`` holds primary rays in pixel order; ``waves[i]`` for
    ``i > 0`` alternates shadow and bounce rays spawned by earlier hits.
    ``all_traces`` flattens the waves in scheduling order.
    """

    scene_name: str
    width: int
    height: int
    spp: int
    max_bounces: int
    waves: List[List[RayTrace]] = field(default_factory=list)

    @property
    def all_traces(self) -> List[RayTrace]:
        """Every trace in wave order (the order warps are formed in)."""
        return [trace for wave in self.waves for trace in wave]

    @property
    def ray_count(self) -> int:
        """Total number of rays traced."""
        return sum(len(wave) for wave in self.waves)

    @property
    def total_steps(self) -> int:
        """Total node visits across all rays."""
        return sum(trace.step_count for wave in self.waves for trace in wave)


def _default_camera(bvh: WideBVH, width: int, height: int) -> PinholeCamera:
    """A camera framing the whole scene from a 3/4 view."""
    bounds = bvh.scene.bounds()
    center = bounds.centroid()
    extent = bounds.extent()
    radius = max(float(np.linalg.norm(extent)) / 2.0, 1e-3)
    position = center + np.array([0.8, 0.6, 1.4]) * radius * 1.8
    return PinholeCamera(
        position=position, look_at=center, width=width, height=height
    )


def generate_workload(
    bvh: WideBVH,
    width: int = 16,
    height: int = 16,
    spp: int = 1,
    max_bounces: int = 2,
    seed: int = 0,
    camera: PinholeCamera = None,
    tracer_factory=None,
) -> PathTracerWorkload:
    """Path-trace a frame and return every ray's traversal trace.

    Args:
        bvh: laid-out wide BVH over the scene.
        width, height: image resolution (the paper uses 128x128 or 32x32;
            defaults here are small so full sweeps stay fast — the paper
            itself notes trends are consistent across workload sizes).
        spp: samples per pixel.
        max_bounces: path depth; each bounce wave adds shadow+bounce rays.
        seed: workload RNG seed.
        camera: optional camera override.
        tracer_factory: ``bvh -> tracer`` constructor; defaults to the
            reference :class:`~repro.trace.tracer.Tracer`.  Traversal
            strategies substitute their own tracer here (e.g. the
            escape-link tracer).  The ray *population* is
            tracer-independent as long as closest hits agree: bounce and
            shadow spawning uses only closest-hit results.

    Returns:
        A :class:`PathTracerWorkload` with per-wave traces.

    Raises:
        ConfigError: the run shape is invalid (see
            :func:`~repro.workloads.params.validate_run_shape`).
    """
    validate_run_shape(width, height, spp, max_bounces, seed)
    tracer = (tracer_factory or Tracer)(bvh)
    rng = DeterministicRng(seed)
    scene = bvh.scene
    if camera is None:
        camera = _default_camera(bvh, width, height)
    workload = PathTracerWorkload(
        scene_name=scene.name, width=width, height=height,
        spp=spp, max_bounces=max_bounces,
    )

    next_ray_id = 0
    # Wave 0: primary rays for every sample of every pixel, traced as one
    # wavefront.  Ray ids run in generation order, exactly as the scalar
    # loop assigned them.
    primary_rays: List[Ray] = []
    primary_ids: List[int] = []
    primary_pixels: List[int] = []
    primary_samples: List[int] = []
    for sample in range(spp):
        for pixel in range(camera.pixel_count):
            px, py = pixel % camera.width, pixel // camera.width
            jitter = (
                rng.uniform(pixel, sample, 1),
                rng.uniform(pixel, sample, 2),
            ) if spp > 1 else (0.5, 0.5)
            primary_rays.append(camera.ray_for_pixel(px, py, jitter=jitter))
            primary_ids.append(next_ray_id)
            primary_pixels.append(pixel)
            primary_samples.append(sample)
            next_ray_id += 1
    primary_results = tracer.trace_wave(
        primary_rays, primary_ids, primary_pixels, kind=RayKind.PRIMARY
    )
    workload.waves.append([result.trace for result in primary_results])
    frontier = [  # (pixel, sample, ray, trace_result) hits to extend
        (primary_pixels[i], primary_samples[i], primary_rays[i], result)
        for i, result in enumerate(primary_results)
        if result.hit
    ]

    for bounce in range(max_bounces):
        if not frontier:
            break
        # Spawn this wave's shadow and bounce rays first (ray ids
        # interleave per frontier entry: shadow — when the hit point is
        # not on the light — then bounce), then trace each wave batched.
        shadow_rays: List[Ray] = []
        shadow_ids: List[int] = []
        shadow_pixels: List[int] = []
        bounce_rays: List[Ray] = []
        bounce_ids: List[int] = []
        bounce_pixels: List[int] = []
        bounce_samples: List[int] = []
        for pixel, sample, ray, result in frontier:
            hit_point = ray.at(result.hit_t)
            tri = scene.triangle(result.hit_prim)
            normal = tri.normal()
            # Face the normal toward the incoming ray.
            if float(np.dot(normal, ray.direction)) > 0.0:
                normal = -normal
            # Shadow ray toward the light (any-hit).
            to_light = scene.light_position - hit_point
            distance = float(np.linalg.norm(to_light))
            if distance > 1e-6:
                shadow_rays.append(Ray(
                    origin=hit_point + normal * 1e-4,
                    direction=normalize(to_light),
                    t_max=distance,
                ))
                shadow_ids.append(next_ray_id)
                shadow_pixels.append(pixel)
                next_ray_id += 1
            # Bounce ray in a cosine-weighted random direction.
            direction = rng.cosine_hemisphere(normal, pixel, sample, bounce)
            bounce_rays.append(
                Ray(origin=hit_point + normal * 1e-4, direction=direction)
            )
            bounce_ids.append(next_ray_id)
            bounce_pixels.append(pixel)
            bounce_samples.append(sample)
            next_ray_id += 1
        shadow_results = tracer.trace_wave(
            shadow_rays, shadow_ids, shadow_pixels,
            kind=RayKind.SHADOW, any_hit=True,
        )
        bounce_results = tracer.trace_wave(
            bounce_rays, bounce_ids, bounce_pixels, kind=RayKind.BOUNCE
        )
        if shadow_results:
            workload.waves.append([result.trace for result in shadow_results])
        if bounce_results:
            workload.waves.append([result.trace for result in bounce_results])
        frontier = [
            (bounce_pixels[i], bounce_samples[i], bounce_rays[i], result)
            for i, result in enumerate(bounce_results)
            if result.hit
        ]

    return workload
