"""Structural validation of BVHs.

These checks back the property-based tests: every triangle reachable
exactly once, child bounds contained in parent bounds, addresses unique
and non-overlapping, leaf/internal invariants respected.
"""

from __future__ import annotations

from typing import Set

import numpy as np

from repro.errors import BVHError
from repro.bvh.builder import NO_NODE, BinaryBVH
from repro.bvh.wide import WideBVH

_EPS = 1e-9


def validate_binary(bvh: BinaryBVH) -> None:
    """Raise :class:`BVHError` if the binary BVH violates an invariant."""
    seen_prims: Set[int] = set()
    stack = [bvh.root]
    visited = 0
    while stack:
        index = stack.pop()
        left, right = int(bvh.left[index]), int(bvh.right[index])
        visited += 1
        if bvh.is_leaf(index):
            if left != NO_NODE or right != NO_NODE:
                raise BVHError(f"leaf {index} has children")
            for prim in bvh.leaf_prims(index):
                if int(prim) in seen_prims:
                    raise BVHError(f"primitive {prim} reachable from two leaves")
                seen_prims.add(int(prim))
        else:
            if left == NO_NODE or right == NO_NODE:
                raise BVHError(f"internal node {index} is missing a child")
            for child in (left, right):
                if not _contained(bvh.lo[index], bvh.hi[index], bvh.lo[child], bvh.hi[child]):
                    raise BVHError(f"child {child} bounds escape parent {index} bounds")
                stack.append(child)
    if visited != bvh.node_count:
        raise BVHError(f"{bvh.node_count - visited} binary nodes unreachable from root")
    if seen_prims != set(range(bvh.scene.triangle_count)):
        raise BVHError("binary BVH does not cover every scene primitive exactly once")


def validate_wide(wide: WideBVH) -> None:
    """Raise :class:`BVHError` if the wide BVH violates an invariant.

    Every node but the root has exactly one parent and sits one level
    below it, so the child links form one tree and every node is
    reachable from the root.
    """
    n = wide.node_count
    first, count, prims = wide.first_child, wide.child_count, wide.prim_count
    internal = np.flatnonzero(count > 0)
    leaves = np.flatnonzero(count == 0)
    _fail_at(internal[prims[internal] > 0], "node {} is both internal and leaf")
    _fail_at(leaves[prims[leaves] == 0], "leaf {} owns no primitives")
    _fail_at(internal[count[internal] > wide.width],
             f"node {{}} has more than {wide.width} children")
    _fail_at(internal[(first[internal] < 1) | (first[internal] + count[internal] > n)],
             f"node {{}} has a child range outside [1, {n})")
    children = _ranges(first[internal], count[internal])
    parents = np.repeat(internal, count[internal])
    parent_count = np.bincount(children, minlength=n)
    parent_count[0] += 1  # the root is nobody's child
    _fail_at(np.flatnonzero(parent_count != 1), "node {} does not have exactly one parent")
    _fail_at(children[wide.depth[children] != wide.depth[parents] + 1],
             "node {} has wrong depth annotation")
    escaping = (wide.lo[children] < wide.lo[parents] - _EPS).any(axis=1) | (
        wide.hi[children] > wide.hi[parents] + _EPS
    ).any(axis=1)
    _fail_at(children[escaping], "child {} bounds escape its parent's bounds")
    addresses, uses = np.unique(wide.address, return_counts=True)
    _fail_at(addresses[uses > 1], "duplicate node address {:#x}")
    starts, ends = wide.prim_start[leaves], wide.prim_start[leaves] + prims[leaves]
    _fail_at(leaves[(starts < 0) | (ends > len(wide.prim_ids))],
             "leaf {} has a primitive range outside prim_ids")
    owned = wide.prim_ids[_ranges(starts, prims[leaves])]
    triangles = wide.scene.triangle_count
    _fail_at(owned[(owned < 0) | (owned >= triangles)], "primitive {} is not in the scene")
    uses = np.bincount(owned, minlength=triangles)
    _fail_at(np.flatnonzero(uses > 1), "primitive {} reachable from two leaves")
    if (uses == 0).any():
        raise BVHError("wide BVH does not cover every scene primitive exactly once")


def _ranges(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """``arange(s, s + c)`` for every ``(s, c)`` pair, concatenated."""
    return np.repeat(starts - (np.cumsum(counts) - counts), counts) + np.arange(counts.sum())


def _fail_at(offenders: np.ndarray, message: str) -> None:
    """Raise ``message`` formatted with the first offender, if there is one."""
    if len(offenders):
        raise BVHError(message.format(int(offenders[0])))


def _contained(parent_lo, parent_hi, child_lo, child_hi) -> bool:
    """Containment with a small epsilon for floating-point slack."""
    return bool(
        (child_lo >= parent_lo - _EPS).all() and (child_hi <= parent_hi + _EPS).all()
    )
