"""Collapse a binary BVH into a wide BVH (BVHk).

Wide BVHs raise the branching factor so each internal node can push up to
``k - 1`` sibling addresses per visit — exactly the behaviour that stresses
short traversal stacks in the paper (Fig. 3 shows a BVH6 with a 4-entry
stack).  Collapse follows the usual approach: repeatedly replace the
largest-surface-area internal slot with its two binary children until the
node has ``k`` slots or only leaves remain — here for every wide node of
one level at once.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

import numpy as np

from repro.errors import BVHError
from repro.bvh.builder import BinaryBVH
from repro.bvh.node import WideNode
from repro.geometry.aabb import AABB, surface_areas
from repro.scene.scene import Scene


@dataclass
class WideBVH:
    """The wide BVH consumed by traversal and the timing model.

    ``child_los[i]`` / ``child_his[i]`` hold node ``i``'s child bounds as
    ``(c, 3)`` arrays for the batched ray/AABB kernel.  ``address_to_node``
    is populated by the layout pass.
    """

    scene: Scene
    width: int
    nodes: List[WideNode] = field(default_factory=list)
    root: int = 0
    child_los: List[np.ndarray] = field(default_factory=list)
    child_his: List[np.ndarray] = field(default_factory=list)
    address_to_node: Dict[int, int] = field(default_factory=dict)
    total_bytes: int = 0
    _soa: object = field(default=None, repr=False, compare=False)
    _escape: object = field(default=None, repr=False, compare=False)

    #: Cache slots of lazily built derived structures; every slot listed
    #: here is cleared together by :meth:`invalidate_derived`.
    _DERIVED_SLOTS = ("_soa", "_escape")

    @property
    def node_count(self) -> int:
        """Total number of wide nodes."""
        return len(self.nodes)

    def _derived(self, slot: str, build):
        """Shared build-once logic for every derived-structure cache."""
        value = getattr(self, slot)
        if value is None:
            value = build(self)
            setattr(self, slot, value)
        return value

    def invalidate_derived(self) -> None:
        """Drop every cached derived structure.

        The layout pass calls this when it reassigns node addresses —
        addresses are baked into the SoA mirror, and the escape index's
        DFS link order mirrors the address assignment walk.
        """
        for slot in self._DERIVED_SLOTS:
            setattr(self, slot, None)

    def soa(self):
        """The flat structure-of-arrays mirror (built once, cached).

        Must be requested after layout assigns node addresses; the tracer
        does so via its constructor.
        """
        from repro.bvh.soa import BVHSoA

        return self._derived("_soa", BVHSoA)

    def escape(self):
        """The escape-link index for stackless traversal (built once, cached).

        Same caching and invalidation contract as :meth:`soa`.
        """
        from repro.bvh.escape import EscapeIndex

        return self._derived("_escape", EscapeIndex)

    def node_at_address(self, address: int) -> WideNode:
        """Resolve a global-memory address back to its node."""
        try:
            return self.nodes[self.address_to_node[address]]
        except KeyError:
            raise BVHError(f"no BVH node at address {address:#x}") from None

    def max_depth(self) -> int:
        """Depth of the deepest node (root = 0)."""
        return max((node.depth for node in self.nodes), default=0)


def _gather_wide_children(
    binary: BinaryBVH, area: np.ndarray, roots: np.ndarray, width: int
) -> np.ndarray:
    """Row ``g``: the binary children of the wide node over ``roots[g]``.

    Rows are padded with -1.  Each step expands, in every row at once,
    the slot of largest ``area`` (first slot wins ties) into its two
    binary children; leaves and the padding (``area[-1]``) are ``-inf``.
    """
    slots = np.full((len(roots), width), -1, dtype=np.int64)
    slots[:, 0] = roots
    cols = np.arange(width)
    for _ in range(width - 1):
        slot_area = area[slots]
        best = slot_area.argmax(axis=1)
        grow = np.flatnonzero(slot_area[np.arange(len(slots)), best] > -np.inf)
        if not len(grow):
            break
        pos = best[grow]
        rows = slots[grow]
        expanded = rows[np.arange(len(grow)), pos]
        rows = np.take_along_axis(rows, np.where(cols > pos[:, None], cols - 1, cols), 1)
        rows[np.arange(len(grow)), pos] = binary.left[expanded]
        rows[np.arange(len(grow)), pos + 1] = binary.right[expanded]
        slots[grow] = rows
    return slots


def collapse_to_wide(binary: BinaryBVH, width: int = 6) -> WideBVH:
    """Collapse ``binary`` into a :class:`WideBVH` with branching factor ``width``.

    Binary leaves map 1:1 to wide leaves; binary internal nodes are grouped
    so every wide internal node has between 2 and ``width`` children.
    Wide indices follow a LIFO work stack: each node's children are
    numbered consecutively, and the last internal child is expanded first.
    """
    if width < 2:
        raise BVHError("wide BVH width must be >= 2")
    internal = (binary.prim_count == 0).tolist()
    area = np.append(np.where(internal, surface_areas(binary.lo, binary.hi), -np.inf), -np.inf)
    children_of: Dict[int, List[int]] = {}
    level = np.array([binary.root] if internal[binary.root] else [], dtype=np.int64)
    while len(level):
        slots = _gather_wide_children(binary, area, level, width)
        for root, row in zip(level.tolist(), slots.tolist()):
            children_of[root] = [b for b in row if b >= 0]
        level = slots[slots >= 0]
        level = level[binary.prim_count[level] == 0]

    backing = [binary.root]  # binary node behind each wide index
    depth = [0]
    first_child = [0]
    child_count = [0]
    work = [0] if internal[binary.root] else []
    while work:
        wide_index = work.pop()
        kids = children_of[backing[wide_index]]
        first_child[wide_index] = len(backing)
        child_count[wide_index] = len(kids)
        for child in kids:
            if internal[child]:
                work.append(len(backing))
            backing.append(child)
        depth += [depth[wide_index] + 1] * len(kids)
        first_child += [0] * len(kids)
        child_count += [0] * len(kids)

    backing_arr = np.array(backing, dtype=np.int64)
    los = binary.lo[backing_arr]
    his = binary.hi[backing_arr]
    wide = WideBVH(scene=binary.scene, width=width)
    wide.nodes = [
        WideNode(index=index, bounds=AABB(lo=lo, hi=hi), depth=d,
                 children=list(range(first, first + count)))
        for index, (lo, hi, d, first, count)
        in enumerate(zip(los, his, depth, first_child, child_count))
    ]
    prims = list(binary.prim_order)  # np.int64 elements, one list slice per leaf
    starts = binary.first_prim[backing_arr]
    ends = (starts + binary.prim_count[backing_arr]).tolist()
    for node, count, start, end in zip(wide.nodes, child_count, starts.tolist(), ends):
        if not count:
            node.prim_ids = prims[start:end]
    wide.child_los = [los[f : f + c] for f, c in zip(first_child, child_count)]
    wide.child_his = [his[f : f + c] for f, c in zip(first_child, child_count)]
    return wide
