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
from typing import ClassVar, Dict, List, Optional

import numpy as np

from repro.errors import BVHError
from repro.bvh.builder import NO_NODE, BinaryBVH
from repro.geometry.aabb import surface_areas
from repro.geometry.triangle import EdgeForm, edge_form
from repro.scene.scene import Scene


@dataclass
class WideBVH:
    """The wide BVH consumed by layout, traversal and the timing model.

    Flat per-node arrays, root at 0.  Node ``i`` is bounded by ``lo[i]`` /
    ``hi[i]`` and sits ``depth[i]`` levels below the root.  Siblings are
    numbered consecutively: an internal node's children are the rows
    ``first_child[i] : first_child[i] + child_count[i]`` (so their bounds
    are ``lo[f : f + c]``), and a leaf has ``child_count[i] == 0`` and
    ``first_child[i] == NO_NODE``.  Leaves own the scene prim ids
    ``prim_ids[prim_start[i] : prim_start[i] + prim_count[i]]`` — the
    binary build's primitive order, shared, not copied.  ``address`` /
    ``size_bytes`` / ``total_bytes`` are filled by the layout pass.
    """

    scene: Scene
    width: int
    lo: np.ndarray
    hi: np.ndarray
    first_child: np.ndarray
    child_count: np.ndarray
    depth: np.ndarray
    prim_start: np.ndarray
    prim_count: np.ndarray
    prim_ids: np.ndarray
    address: np.ndarray
    size_bytes: np.ndarray
    total_bytes: int = 0
    _triangles: Optional[EdgeForm] = field(default=None, repr=False, compare=False)
    _escape: Optional[List[int]] = field(default=None, repr=False, compare=False)

    #: Index of the root node.
    root: ClassVar[int] = 0

    @property
    def node_count(self) -> int:
        """Total number of wide nodes."""
        return len(self.child_count)

    def leaf_prims(self, node: int) -> np.ndarray:
        """Scene prim ids owned by ``node`` (empty for internal nodes)."""
        start = self.prim_start[node]
        return self.prim_ids[start : start + self.prim_count[node]]

    def triangles(self) -> EdgeForm:
        """The scene's triangles in Moeller-Trumbore form (built once, cached).

        Every tracer over this BVH shares one copy; building it costs
        more than the tracers' per-node mirrors on a full-scale scene.
        """
        if self._triangles is None:
            self._triangles = edge_form(self.scene.vertices)
        return self._triangles

    def escape(self) -> List[int]:
        """Escape links for stackless traversal (built once, cached).

        Stackless traversal replaces the stack with two links per node
        (Smits-style ropes; see Prokopenko & Lebrun-Grandie, arXiv
        2402.00665): on a box hit an internal node is left for
        ``first_child``, otherwise for ``escape`` — its next sibling, or
        the parent's link when it is the last child; ``NO_NODE`` ends the
        walk.  Following them with every box hit enumerates the
        depth-first, slot-order walk of :func:`~repro.bvh.layout.assign_addresses`.
        """
        if self._escape is None:
            first = self.first_child.tolist()
            count = self.child_count.tolist()
            escape = [NO_NODE] * self.node_count
            # A node's own link is final before its children are visited.
            stack = [self.root]
            while stack:
                index = stack.pop()
                f, c = first[index], count[index]
                if c:
                    escape[f : f + c] = [*range(f + 1, f + c), escape[index]]
                    stack.extend(range(f, f + c))
            self._escape = escape
        return self._escape

    def max_depth(self) -> int:
        """Depth of the deepest node (root = 0)."""
        return int(self.depth.max(initial=0))


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
    first_child = [NO_NODE]
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
        first_child += [NO_NODE] * len(kids)
        child_count += [0] * len(kids)

    backing_arr = np.array(backing, dtype=np.int64)
    zeros = np.zeros(len(backing), dtype=np.int64)
    return WideBVH(
        scene=binary.scene, width=width,
        lo=binary.lo[backing_arr], hi=binary.hi[backing_arr],
        first_child=np.array(first_child, dtype=np.int64),
        child_count=np.array(child_count, dtype=np.int64),
        depth=np.array(depth, dtype=np.int64),
        prim_start=binary.first_prim[backing_arr],
        prim_count=binary.prim_count[backing_arr],
        prim_ids=binary.prim_order, address=zeros, size_bytes=zeros.copy(),
    )
