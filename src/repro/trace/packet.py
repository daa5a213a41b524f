"""Packet (grouped) traversal with a group-local stack (paper VIII-B).

The second family of related work: rays with similar paths traverse the
BVH *together*, sharing one traversal stack per group.  A node is visited
when **any** ray in the group intersects it, so coherent groups amortize
both node fetches and stack entries, while incoherent groups drag every
ray through the union of their paths — the weakness the paper notes
("often struggle with incoherent ray types").

This implementation traverses a whole group per node visit and reports
both the shared-stack activity and the per-ray intersection work, so the
``packet_study`` ablation can compare stack-entry and node-visit counts
against per-ray traversal on coherent (primary) and incoherent (bounce)
waves.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Sequence

import numpy as np

from repro.bvh.wide import WideBVH
from repro.geometry.intersect import ray_aabb_intersect_batch, ray_triangle_intersect
from repro.geometry.ray import Ray


@dataclass
class PacketTraceResult:
    """Outcome of tracing one ray group with a shared stack."""

    hit_prims: List[int]
    hit_ts: List[float]
    node_visits: int          # nodes fetched once for the whole group
    stack_pushes: int         # pushes onto the single shared stack
    max_stack_depth: int
    ray_box_tests: int        # per-ray AABB tests actually performed
    ray_tri_tests: int

    @property
    def ray_count(self) -> int:
        """Rays in the group."""
        return len(self.hit_prims)


def packet_trace(bvh: WideBVH, rays: Sequence[Ray]) -> PacketTraceResult:
    """Trace ``rays`` as one packet sharing a single traversal stack.

    Descends into any child hit by at least one live ray (children ordered
    by the earliest entry distance over the group), with per-ray intervals
    shrinking as closest hits are found.
    """
    scene = bvh.scene
    count = len(rays)
    best_t = np.array([ray.t_max for ray in rays])
    best_prim = [-1] * count

    stack: List[int] = []
    node_visits = 0
    pushes = 0
    max_depth = 0
    box_tests = 0
    tri_tests = 0

    current = bvh.root
    while True:
        node_visits += 1
        next_node = None
        count = int(bvh.child_count[current])
        if not count:
            for prim_id in bvh.leaf_prims(current):
                triangle = scene.triangle(prim_id)
                for i, ray in enumerate(rays):
                    tri_tests += 1
                    clipped = Ray(ray.origin, ray.direction, ray.t_min,
                                  float(best_t[i]))
                    t = ray_triangle_intersect(clipped, triangle)
                    if t is not None and t < best_t[i]:
                        best_t[i] = t
                        best_prim[i] = prim_id
        else:
            first = int(bvh.first_child[current])
            los = bvh.lo[first : first + count]
            his = bvh.hi[first : first + count]
            # Earliest entry over the group decides the visit order.
            group_enter = np.full(count, np.inf)
            group_hit = np.zeros(count, dtype=bool)
            for i, ray in enumerate(rays):
                box_tests += count
                clipped = Ray(ray.origin, ray.direction, ray.t_min,
                              float(best_t[i]))
                hit, t_enter = ray_aabb_intersect_batch(clipped, los, his)
                group_hit |= hit
                group_enter = np.where(
                    hit, np.minimum(group_enter, t_enter), group_enter
                )
            order = [
                (float(group_enter[slot]), first + slot)
                for slot in range(count)
                if group_hit[slot]
            ]
            if order:
                order.sort(key=lambda pair: pair[0])
                next_node = order[0][1]
                for _, child in reversed(order[1:]):
                    stack.append(child)
                    pushes += 1
                max_depth = max(max_depth, len(stack))
        if next_node is None:
            if not stack:
                break
            next_node = stack.pop()
        current = next_node

    return PacketTraceResult(
        hit_prims=best_prim,
        hit_ts=[float(t) if p >= 0 else float("inf")
                for t, p in zip(best_t, best_prim)],
        node_visits=node_visits,
        stack_pushes=pushes,
        max_stack_depth=max_depth,
        ray_box_tests=box_tests,
        ray_tri_tests=tri_tests,
    )
