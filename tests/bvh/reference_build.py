"""Per-node BVH builder and wide collapse: the test-only oracle.

This is the builder the simulator used before construction moved onto
numpy arrays one depth level at a time: a work stack of nodes, each
split with its own small reductions, and a per-node wide collapse.  It
is kept verbatim as an independent reference; the level-synchronous
build in :mod:`repro.bvh.builder` / :mod:`repro.bvh.wide` must produce
the same trees bit for bit (``test_reference_oracle.py``), the same way
the stepped timing backend is the oracle for the vector one.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Tuple

import numpy as np

from repro.errors import BVHError
from repro.bvh.node import WideNode
from repro.bvh.wide import WideBVH
from repro.geometry.aabb import AABB, surface_area
from repro.scene.scene import Scene

#: Sentinel index meaning "no node".
NO_NODE = -1

_SAH_BINS = 16
_SAH_TRAVERSAL_COST = 1.0
_SAH_INTERSECT_COST = 2.0


@dataclass
class BinaryNode:
    """A node of the intermediate binary BVH.

    Leaves carry a primitive range ``[first_prim, first_prim + prim_count)``
    into the builder's primitive-order array; internal nodes carry the two
    child indices.
    """

    bounds: AABB
    left: int = NO_NODE
    right: int = NO_NODE
    first_prim: int = 0
    prim_count: int = 0

    @property
    def is_leaf(self) -> bool:
        """Leaves own primitives; internal nodes own children."""
        return self.prim_count > 0


@dataclass
class BinaryBVH:
    """The intermediate binary BVH over a scene.

    ``prim_order`` maps leaf primitive ranges to scene ``prim_id``s: leaf
    node ``n`` owns ``prim_order[n.first_prim : n.first_prim + n.prim_count]``.
    """

    scene: Scene
    nodes: List[BinaryNode] = field(default_factory=list)
    prim_order: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=np.int64))
    root: int = NO_NODE

    @property
    def node_count(self) -> int:
        """Total number of nodes."""
        return len(self.nodes)

    def leaf_prims(self, node_index: int) -> np.ndarray:
        """Scene prim ids owned by leaf ``node_index``."""
        node = self.nodes[node_index]
        if not node.is_leaf:
            raise BVHError(f"node {node_index} is not a leaf")
        return self.prim_order[node.first_prim : node.first_prim + node.prim_count]


def _prim_bounds_arrays(scene: Scene) -> Tuple[np.ndarray, np.ndarray]:
    """Per-triangle (lo, hi) arrays, each of shape (n, 3)."""
    los = scene.vertices.min(axis=1)
    his = scene.vertices.max(axis=1)
    return los, his


def _range_bounds(los: np.ndarray, his: np.ndarray, ids: np.ndarray) -> AABB:
    return AABB(lo=los[ids].min(axis=0), hi=his[ids].max(axis=0))


def _median_split(
    centroids: np.ndarray, ids: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Split ``ids`` at the centroid median of the longest-extent axis."""
    cents = centroids[ids]
    extent = cents.max(axis=0) - cents.min(axis=0)
    axis = int(np.argmax(extent))
    order = ids[np.argsort(cents[:, axis], kind="stable")]
    mid = len(order) // 2
    return order[:mid], order[mid:]


def _sah_split(
    centroids: np.ndarray,
    los: np.ndarray,
    his: np.ndarray,
    ids: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray]:
    """Binned SAH split; falls back to median when SAH finds no gain."""
    cents = centroids[ids]
    lo = cents.min(axis=0)
    hi = cents.max(axis=0)
    extent = hi - lo
    axis = int(np.argmax(extent))
    if extent[axis] <= 1e-12:
        return _median_split(centroids, ids)

    bins = np.minimum(
        ((cents[:, axis] - lo[axis]) / extent[axis] * _SAH_BINS).astype(np.int64),
        _SAH_BINS - 1,
    )
    # Sweep bin boundaries accumulating bounds+counts from both ends.
    best_cost = np.inf
    best_boundary = -1
    counts = np.bincount(bins, minlength=_SAH_BINS)
    left_area = np.zeros(_SAH_BINS)
    right_area = np.zeros(_SAH_BINS)
    acc = AABB.empty()
    for b in range(_SAH_BINS):
        members = ids[bins == b]
        if len(members):
            acc = AABB(
                lo=np.minimum(acc.lo, los[members].min(axis=0)),
                hi=np.maximum(acc.hi, his[members].max(axis=0)),
            )
        left_area[b] = surface_area(acc)
    acc = AABB.empty()
    for b in range(_SAH_BINS - 1, -1, -1):
        members = ids[bins == b]
        if len(members):
            acc = AABB(
                lo=np.minimum(acc.lo, los[members].min(axis=0)),
                hi=np.maximum(acc.hi, his[members].max(axis=0)),
            )
        right_area[b] = surface_area(acc)
    left_counts = np.cumsum(counts)
    for b in range(_SAH_BINS - 1):
        n_left = left_counts[b]
        n_right = len(ids) - n_left
        if n_left == 0 or n_right == 0:
            continue
        cost = _SAH_TRAVERSAL_COST + _SAH_INTERSECT_COST * (
            left_area[b] * n_left + right_area[b + 1] * n_right
        )
        if cost < best_cost:
            best_cost = cost
            best_boundary = b
    if best_boundary < 0:
        return _median_split(centroids, ids)
    left_mask = bins <= best_boundary
    return ids[left_mask], ids[~left_mask]


def build_binary_bvh(
    scene: Scene,
    max_leaf_size: int = 4,
    strategy: str = "median",
) -> BinaryBVH:
    """Build a binary BVH over ``scene``.

    Args:
        scene: the scene to index; must contain at least one triangle.
        max_leaf_size: maximum primitives per leaf.
        strategy: ``"median"`` or ``"sah"``.

    Returns:
        The built :class:`BinaryBVH` with root index 0.
    """
    if scene.triangle_count == 0:
        raise BVHError("cannot build a BVH over an empty scene")
    if max_leaf_size < 1:
        raise BVHError("max_leaf_size must be >= 1")
    if strategy not in ("median", "sah"):
        raise BVHError(f"unknown split strategy {strategy!r}")

    los, his = _prim_bounds_arrays(scene)
    centroids = scene.centroids()
    bvh = BinaryBVH(scene=scene)
    prim_order: List[np.ndarray] = []
    next_prim_offset = 0

    all_ids = np.arange(scene.triangle_count, dtype=np.int64)
    bvh.nodes.append(BinaryNode(bounds=_range_bounds(los, his, all_ids)))
    bvh.root = 0
    # Work stack of (node_index, prim ids to place under it).
    work: List[Tuple[int, np.ndarray]] = [(0, all_ids)]
    while work:
        node_index, ids = work.pop()
        node = bvh.nodes[node_index]
        if len(ids) <= max_leaf_size:
            node.first_prim = next_prim_offset
            node.prim_count = len(ids)
            prim_order.append(ids)
            next_prim_offset += len(ids)
            continue
        if strategy == "sah":
            left_ids, right_ids = _sah_split(centroids, los, his, ids)
        else:
            left_ids, right_ids = _median_split(centroids, ids)
        if len(left_ids) == 0 or len(right_ids) == 0:
            # Degenerate split (all centroids identical): force a half split.
            mid = len(ids) // 2
            left_ids, right_ids = ids[:mid], ids[mid:]
        left_index = len(bvh.nodes)
        bvh.nodes.append(BinaryNode(bounds=_range_bounds(los, his, left_ids)))
        right_index = len(bvh.nodes)
        bvh.nodes.append(BinaryNode(bounds=_range_bounds(los, his, right_ids)))
        node.left = left_index
        node.right = right_index
        # LIFO order: right first so left subtrees materialize first.
        work.append((right_index, right_ids))
        work.append((left_index, left_ids))

    bvh.prim_order = (
        np.concatenate(prim_order) if prim_order else np.zeros(0, dtype=np.int64)
    )
    return bvh


def _gather_wide_children(binary: BinaryBVH, binary_root: int, width: int) -> List[int]:
    """Pick up to ``width`` binary-node indices forming one wide node's children."""
    slots = [binary_root]
    while len(slots) < width:
        # Expand the internal slot with the largest surface area.
        best = -1
        best_area = -1.0
        for pos, b_index in enumerate(slots):
            node = binary.nodes[b_index]
            if node.is_leaf:
                continue
            area = surface_area(node.bounds)
            if area > best_area:
                best_area = area
                best = pos
        if best < 0:
            break  # all slots are leaves
        node = binary.nodes[slots[best]]
        slots[best : best + 1] = [node.left, node.right]
    return slots


def collapse_to_wide(binary: BinaryBVH, width: int = 6) -> WideBVH:
    """Collapse ``binary`` into a :class:`WideBVH` with branching factor ``width``.

    Binary leaves map 1:1 to wide leaves; binary internal nodes are grouped
    so every wide internal node has between 2 and ``width`` children.
    """
    if width < 2:
        raise BVHError("wide BVH width must be >= 2")
    wide = WideBVH(scene=binary.scene, width=width)

    root_binary = binary.nodes[binary.root]
    wide.nodes.append(WideNode(index=0, bounds=root_binary.bounds, depth=0))
    if root_binary.is_leaf:
        wide.nodes[0].prim_ids = list(binary.leaf_prims(binary.root))
        _finalize_child_arrays(wide)
        return wide

    # Work stack of (wide node index, binary node index backing it).
    work: List[Tuple[int, int]] = [(0, binary.root)]
    while work:
        wide_index, binary_index = work.pop()
        parent = wide.nodes[wide_index]
        for child_binary in _gather_wide_children(binary, binary_index, width):
            child_node = binary.nodes[child_binary]
            child_index = len(wide.nodes)
            child = WideNode(
                index=child_index, bounds=child_node.bounds, depth=parent.depth + 1
            )
            wide.nodes.append(child)
            parent.children.append(child_index)
            if child_node.is_leaf:
                child.prim_ids = list(binary.leaf_prims(child_binary))
            else:
                work.append((child_index, child_binary))
    _finalize_child_arrays(wide)
    return wide


def _finalize_child_arrays(wide: WideBVH) -> None:
    """Precompute per-node child-bounds arrays for the batched slab test."""
    wide.child_los = []
    wide.child_his = []
    for node in wide.nodes:
        if node.is_leaf:
            wide.child_los.append(np.zeros((0, 3)))
            wide.child_his.append(np.zeros((0, 3)))
        else:
            wide.child_los.append(
                np.stack([wide.nodes[c].bounds.lo for c in node.children])
            )
            wide.child_his.append(
                np.stack([wide.nodes[c].bounds.hi for c in node.children])
            )
