"""Depth-first wide-BVH traversal with stack-event recording.

Implements the traversal loop of paper section II-A / Fig. 3: visit a node,
test the ray against all child bounds, continue into the nearest hit child
and push the remaining hit children (far-to-near); at leaves run
ray-triangle tests; obtain the next node by popping.  Closest-hit rays
shrink ``t_max`` as hits are found; any-hit (shadow) rays terminate on the
first triangle hit.

Two tracing entry points share one set of kernels:

* :meth:`Tracer.trace` — the scalar reference: one ray, one DFS, all data
  read from the BVH's flat node arrays and its cached triangle edge form
  (no per-visit ``Ray`` or ``Triangle`` boxing).
* :meth:`Tracer.trace_wave` — the batched path: a whole wavefront of rays
  streamed through the DFS node-major.  Each round groups active rays by
  the node they currently occupy and intersects the group against that
  node's children in a single ``(m, k, 3)`` slab call; rays fall back to
  the per-ray kernel only where divergence leaves a group of one.  The
  per-ray push/pop bookkeeping stays scalar, so the emitted event stream
  is byte-identical to :meth:`Tracer.trace` — traversal decisions depend
  only on per-ray arithmetic, and the broadcast slab test evaluates the
  exact same IEEE expressions as the scalar one.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import itemgetter
from typing import List, Optional, Sequence

import numpy as np

from repro.bvh.wide import WideBVH
from repro.geometry.intersect import moeller_trumbore, slab_test
from repro.geometry.ray import Ray
from repro.trace.events import NodeKind, RayKind, RayTrace, Step

#: Node groups at least this large take the broadcast slab path; smaller
#: groups use the per-ray kernel (same bits, less numpy overhead).
_BATCH_THRESHOLD = 2


@dataclass
class TraceResult:
    """Outcome of tracing one ray."""

    trace: RayTrace
    hit_prim: int
    hit_t: float

    @property
    def hit(self) -> bool:
        """True when the ray intersected a primitive."""
        return self.hit_prim >= 0


class Tracer:
    """Traces rays through one wide BVH, emitting :class:`RayTrace` records."""

    def __init__(self, bvh: WideBVH) -> None:
        self.bvh = bvh
        self.scene = bvh.scene
        self.tris = bvh.triangles()
        # Plain-list mirrors of the BVH arrays: the scalar inner loop
        # indexes lists faster than ndarray scalars.
        self.address = bvh.address.tolist()
        self.size_bytes = bvh.size_bytes.tolist()
        self.first_child = bvh.first_child.tolist()
        self.child_count = bvh.child_count.tolist()
        self.prim_start = bvh.prim_start.tolist()
        self.prim_count = bvh.prim_count.tolist()
        self.prim_ids = bvh.prim_ids.tolist()

    def trace(
        self,
        ray: Ray,
        ray_id: int = 0,
        pixel: int = 0,
        kind: RayKind = RayKind.PRIMARY,
        any_hit: bool = False,
    ) -> TraceResult:
        """Trace one ray to its closest hit (or first hit when ``any_hit``).

        Returns a :class:`TraceResult` whose trace carries the full stack
        event stream.
        """
        node_address = self.address
        node_size = self.size_bytes
        first_child = self.first_child
        child_count = self.child_count
        node_lo = self.bvh.lo
        node_hi = self.bvh.hi
        prim_start = self.prim_start
        prim_count = self.prim_count
        prim_ids = self.prim_ids
        tri_a, tri_e1, tri_e2, tri_e1_f, tri_e2_f = self.tris

        origin = ray.origin
        direction = ray.direction
        inv = ray.inv_direction
        d0 = float(direction[0])
        d1 = float(direction[1])
        d2 = float(direction[2])
        t_min = ray.t_min
        best_t = ray.t_max
        best_prim = -1

        trace = RayTrace(ray_id=ray_id, pixel=pixel, kind=kind)
        steps = trace.steps
        # Traversal stack of node indices (the *logical* stack; physical
        # placement is the timing model's concern).
        stack: List[int] = []
        current: int = self.bvh.root
        done = False
        with np.errstate(invalid="ignore"):
            while not done:
                pushes: List[int] = []
                tests = child_count[current]
                if not tests:
                    node_kind = NodeKind.LEAF
                    p0 = prim_start[current]
                    tests = prim_count[current]
                    for prim_id in prim_ids[p0 : p0 + tests]:
                        t = moeller_trumbore(
                            origin, d0, d1, d2, direction, t_min, best_t,
                            tri_a[prim_id], tri_e1[prim_id], tri_e2[prim_id],
                            tri_e1_f[prim_id], tri_e2_f[prim_id],
                        )
                        if t is not None and t < best_t:
                            best_t = t
                            best_prim = prim_id
                            if any_hit:
                                break
                    next_node: Optional[int] = None
                else:
                    node_kind = NodeKind.INTERNAL
                    c0 = first_child[current]
                    hit_mask, t_enter = slab_test(
                        origin, inv, t_min, best_t,
                        node_lo[c0 : c0 + tests], node_hi[c0 : c0 + tests],
                    )
                    hits = hit_mask.tolist()
                    enters = t_enter.tolist()
                    hit_children = [
                        (enters[i], c0 + i) for i in range(tests) if hits[i]
                    ]
                    if hit_children:
                        # Nearest child visited next; others pushed far-to-near
                        # so the nearest remaining sibling pops first.
                        hit_children.sort(key=itemgetter(0))
                        next_node = hit_children[0][1]
                        for pos in range(len(hit_children) - 1, 0, -1):
                            child = hit_children[pos][1]
                            pushes.append(node_address[child])
                            stack.append(child)
                    else:
                        next_node = None

                popped = False
                if next_node is None:
                    if any_hit and best_prim >= 0:
                        done = True  # shadow ray satisfied; abandon the stack
                    elif stack:
                        next_node = stack.pop()
                        popped = True
                    else:
                        done = True
                steps.append(
                    Step(
                        node_address[current], node_size[current],
                        node_kind, tests, pushes, popped,
                    )
                )
                if next_node is not None:
                    current = next_node

        trace.hit_prim = best_prim
        trace.hit_t = best_t if best_prim >= 0 else float("inf")
        return TraceResult(trace=trace, hit_prim=best_prim, hit_t=trace.hit_t)

    def trace_wave(
        self,
        rays: Sequence[Ray],
        ray_ids: Sequence[int],
        pixels: Sequence[int],
        kind: RayKind = RayKind.PRIMARY,
        any_hit: bool = False,
    ) -> List[TraceResult]:
        """Trace a wavefront of rays concurrently, node-major.

        All rays share ``kind`` and ``any_hit`` (a wave is homogeneous by
        construction).  Results come back in input order, and each ray's
        event stream is byte-identical to what :meth:`trace` emits for
        it — the wavefront only changes *when* each ray's per-node work
        runs, never its arithmetic.
        """
        count = len(rays)
        if count == 0:
            return []
        node_address = self.address
        node_size = self.size_bytes
        first_child = self.first_child
        child_count = self.child_count
        node_lo = self.bvh.lo
        node_hi = self.bvh.hi
        prim_start = self.prim_start
        prim_count = self.prim_count
        prim_ids = self.prim_ids
        tri_a, tri_e1, tri_e2, tri_e1_f, tri_e2_f = self.tris

        origins = np.stack([ray.origin for ray in rays])
        invs = np.stack([ray.inv_direction for ray in rays])
        t_mins = np.array([ray.t_min for ray in rays])
        directions = [ray.direction for ray in rays]
        dir_f = [
            (float(d[0]), float(d[1]), float(d[2])) for d in directions
        ]
        best_t = [ray.t_max for ray in rays]
        best_prim = [-1] * count
        stacks: List[List[int]] = [[] for _ in range(count)]
        traces = [
            RayTrace(ray_id=ray_ids[i], pixel=pixels[i], kind=kind)
            for i in range(count)
        ]
        current = [self.bvh.root] * count
        active = list(range(count))

        with np.errstate(invalid="ignore"):
            while active:
                # Group the wavefront by occupied node; each group is one
                # batched children test (or a scalar visit for leaves and
                # fully diverged singleton rays).
                groups = {}
                for i in active:
                    node = current[i]
                    bucket = groups.get(node)
                    if bucket is None:
                        groups[node] = [i]
                    else:
                        bucket.append(i)
                next_active: List[int] = []
                # Insertion-ordered by construction: groups is keyed in
                # first-visit order of the (list-ordered) active rays, and
                # that order is part of the wave≡scalar byte-identity
                # contract.  # simlint: disable=SL103
                for node, members in groups.items():
                    tests = child_count[node]
                    leaf = not tests
                    if leaf:
                        p0 = prim_start[node]
                        tests = prim_count[node]
                        leaf_prims = prim_ids[p0 : p0 + tests]
                    else:
                        c0 = first_child[node]
                        los = node_lo[c0 : c0 + tests]
                        his = node_hi[c0 : c0 + tests]
                        if len(members) >= _BATCH_THRESHOLD:
                            sel = np.array(members)
                            hit_mask, t_enter = slab_test(
                                origins[sel][:, None, :],
                                invs[sel][:, None, :],
                                t_mins[sel][:, None],
                                np.array([best_t[i] for i in members])[:, None],
                                los, his,
                            )
                            hit_rows = hit_mask.tolist()
                            enter_rows = t_enter.tolist()
                        else:
                            i = members[0]
                            hit_mask, t_enter = slab_test(
                                origins[i], invs[i], t_mins[i], best_t[i],
                                los, his,
                            )
                            hit_rows = [hit_mask.tolist()]
                            enter_rows = [t_enter.tolist()]
                    address = node_address[node]
                    size_bytes = node_size[node]
                    for row, i in enumerate(members):
                        pushes: List[int] = []
                        if leaf:
                            node_kind = NodeKind.LEAF
                            origin = origins[i]
                            d0, d1, d2 = dir_f[i]
                            direction = directions[i]
                            t_min = t_mins[i]
                            bt = best_t[i]
                            bp = best_prim[i]
                            for prim_id in leaf_prims:
                                t = moeller_trumbore(
                                    origin, d0, d1, d2, direction, t_min, bt,
                                    tri_a[prim_id], tri_e1[prim_id],
                                    tri_e2[prim_id],
                                    tri_e1_f[prim_id], tri_e2_f[prim_id],
                                )
                                if t is not None and t < bt:
                                    bt = t
                                    bp = prim_id
                                    if any_hit:
                                        break
                            best_t[i] = bt
                            best_prim[i] = bp
                            next_node: Optional[int] = None
                        else:
                            node_kind = NodeKind.INTERNAL
                            hits = hit_rows[row]
                            enters = enter_rows[row]
                            hit_children = [
                                (enters[q], c0 + q)
                                for q in range(tests)
                                if hits[q]
                            ]
                            if hit_children:
                                hit_children.sort(key=itemgetter(0))
                                next_node = hit_children[0][1]
                                stack = stacks[i]
                                for pos in range(len(hit_children) - 1, 0, -1):
                                    child = hit_children[pos][1]
                                    pushes.append(node_address[child])
                                    stack.append(child)
                            else:
                                next_node = None

                        popped = False
                        if next_node is None:
                            if any_hit and best_prim[i] >= 0:
                                pass  # shadow ray satisfied; abandon stack
                            elif stacks[i]:
                                next_node = stacks[i].pop()
                                popped = True
                        traces[i].steps.append(
                            Step(
                                address, size_bytes, node_kind,
                                tests, pushes, popped,
                            )
                        )
                        if next_node is not None:
                            current[i] = next_node
                            next_active.append(i)
                active = next_active

        results = []
        for i in range(count):
            trace = traces[i]
            trace.hit_prim = best_prim[i]
            trace.hit_t = best_t[i] if best_prim[i] >= 0 else float("inf")
            results.append(
                TraceResult(
                    trace=trace, hit_prim=trace.hit_prim, hit_t=trace.hit_t
                )
            )
        return results
