"""Binary BVH construction, one depth level at a time.

Two split strategies: ``"median"`` sorts centroids along the longest
axis and splits in half (the default every scene and driver uses);
``"sah"`` is a binned surface-area heuristic, reachable only through
the ``strategy`` parameter of :func:`repro.bvh.api.build_bvh`.

Every node owns a contiguous range of one primitive permutation, its
left child's range before its right's.  Each level splits all nodes
that are still too large at once, with segmented numpy reductions and
one segmented stable sort.  Ties resolve as in a per-node build (first
axis of largest extent, stable sort, first SAH boundary of least cost),
so the trees are the same as a per-node build's, bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import BVHError
from repro.bvh.node import NO_NODE
from repro.geometry.aabb import surface_areas
from repro.scene.scene import Scene

_SAH_BINS = 16
_SAH_TRAVERSAL_COST = 1.0
_SAH_INTERSECT_COST = 2.0


@dataclass
class BinaryBVH:
    """The intermediate binary BVH over a scene, as flat per-node arrays.

    Node ``n`` is bounded by ``lo[n]`` / ``hi[n]``.  Internal nodes have
    children ``left[n]`` / ``right[n]`` and ``prim_count[n] == 0``;
    leaves have ``NO_NODE`` children and own the scene prim ids
    ``prim_order[first_prim[n] : first_prim[n] + prim_count[n]]``.
    Nodes are numbered level by level from the root, 0.
    """

    scene: Scene
    lo: np.ndarray
    hi: np.ndarray
    left: np.ndarray
    right: np.ndarray
    first_prim: np.ndarray
    prim_count: np.ndarray
    prim_order: np.ndarray
    root: int = 0

    @property
    def node_count(self) -> int:
        """Total number of nodes."""
        return len(self.left)

    def is_leaf(self, node_index: int) -> bool:
        """Leaves own primitives; internal nodes own children."""
        return bool(self.prim_count[node_index] > 0)

    def leaf_prims(self, node_index: int) -> np.ndarray:
        """Scene prim ids owned by leaf ``node_index``."""
        if not self.is_leaf(node_index):
            raise BVHError(f"node {node_index} is not a leaf")
        first = self.first_prim[node_index]
        return self.prim_order[first : first + self.prim_count[node_index]]


def _segment_extremes(ufunc, values: np.ndarray, starts: np.ndarray) -> np.ndarray:
    """``ufunc.reduceat(values, starts, axis=0)``, signed zeros included.

    ``-0.0 == 0.0``, so which zero a reduction keeps depends on its
    order; a per-node ``.min(axis=0)`` keeps the last, and so does this.
    """
    out = ufunc.reduceat(values, starts, axis=0)
    zero = out == 0
    if zero.any():
        rows = np.where(values == 0, np.arange(len(values))[:, None], -1)
        last = np.maximum.reduceat(rows, starts, axis=0)
        out[zero] = values[last[zero], np.nonzero(zero)[1]]
    return out


def _sah_partition(cents, axis, cmin, extent, seg, counts, los, his, ids):
    """Per-segment binned SAH: ``(sort key, left count, usable)``.

    The key sorts a segment's left side (bins up to the best boundary)
    before its right; ``usable`` is False where the centroid extent is
    degenerate or no boundary leaves both sides non-empty, and those
    segments fall back to the median split.
    """
    groups = len(counts)
    rows = np.arange(groups)
    ext_axis = extent[rows, axis]
    degenerate = ext_axis <= 1e-12
    scale = np.where(degenerate, 1.0, ext_axis)[seg]
    bins = np.minimum(
        ((cents - cmin[rows, axis][seg]) / scale * _SAH_BINS).astype(np.int64),
        _SAH_BINS - 1,
    )
    group = seg * _SAH_BINS + bins
    bin_lo = np.full((groups * _SAH_BINS, 3), np.inf)
    bin_hi = np.full((groups * _SAH_BINS, 3), -np.inf)
    np.minimum.at(bin_lo, group, los[ids])
    np.maximum.at(bin_hi, group, his[ids])
    bin_lo = bin_lo.reshape(groups, _SAH_BINS, 3)
    bin_hi = bin_hi.reshape(groups, _SAH_BINS, 3)
    left_area = surface_areas(
        np.minimum.accumulate(bin_lo, axis=1), np.maximum.accumulate(bin_hi, axis=1)
    )
    right_area = surface_areas(
        np.minimum.accumulate(bin_lo[:, ::-1], axis=1)[:, ::-1],
        np.maximum.accumulate(bin_hi[:, ::-1], axis=1)[:, ::-1],
    )
    bin_counts = np.bincount(group, minlength=groups * _SAH_BINS)
    n_left = np.cumsum(bin_counts.reshape(groups, _SAH_BINS), axis=1)[:, :-1]
    n_right = counts[:, None] - n_left
    cost = _SAH_TRAVERSAL_COST + _SAH_INTERSECT_COST * (
        left_area[:, :-1] * n_left + right_area[:, 1:] * n_right
    )
    valid = (n_left > 0) & (n_right > 0) & (cost < np.inf)
    cost = np.where(valid, cost, np.inf)
    best = np.argmin(cost, axis=1)  # first strict minimum
    usable = ~degenerate & valid[rows, best]
    key = (bins > best[seg]).astype(np.float64)
    return key, n_left[rows, best], usable


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

    los = scene.vertices.min(axis=1)
    his = scene.vertices.max(axis=1)
    centroids = scene.centroids()
    prim_order = np.empty(scene.triangle_count, dtype=np.int64)
    levels = []
    # One level: the prim ids of its nodes, concatenated in node order,
    # each node's prim count and its range start in ``prim_order``.
    ids = np.arange(scene.triangle_count, dtype=np.int64)
    counts = np.array([scene.triangle_count], dtype=np.int64)
    first = np.zeros(1, dtype=np.int64)
    next_index = 1
    while True:
        starts = np.cumsum(counts) - counts
        lo = _segment_extremes(np.minimum, los[ids], starts)
        hi = _segment_extremes(np.maximum, his[ids], starts)
        split = counts > max_leaf_size
        leaf_elems = np.repeat(~split, counts)
        positions = np.repeat(first - starts, counts) + np.arange(len(ids))
        prim_order[positions[leaf_elems]] = ids[leaf_elems]

        n_split = int(split.sum())
        left = np.full(len(counts), NO_NODE, dtype=np.int64)
        left[split] = next_index + 2 * np.arange(n_split)
        right = np.where(split, left + 1, NO_NODE)
        levels.append((lo, hi, left, right, first, np.where(split, 0, counts)))
        next_index += 2 * n_split

        ids = ids[np.repeat(split, counts)]
        counts, first = counts[split], first[split]
        if not n_split:
            break
        starts = np.cumsum(counts) - counts
        seg = np.repeat(np.arange(n_split), counts)
        cents = centroids[ids]
        cmin = np.minimum.reduceat(cents, starts, axis=0)
        extent = np.maximum.reduceat(cents, starts, axis=0) - cmin
        axis = np.argmax(extent, axis=1)  # first axis wins ties
        cents = cents[np.arange(len(ids)), axis[seg]]
        key, n_left = cents, counts // 2
        if strategy == "sah":
            sah_key, sah_left, usable = _sah_partition(
                cents, axis, cmin, extent, seg, counts, los, his, ids
            )
            key = np.where(usable[seg], sah_key, cents)
            n_left = np.where(usable, sah_left, n_left)
        ids = ids[np.lexsort((key, seg))]  # stable sort within each segment
        counts = np.stack([n_left, counts - n_left], axis=1).ravel()
        first = np.stack([first, first + n_left], axis=1).ravel()

    lo, hi, left, right, first_prim, prim_count = (
        np.concatenate(column) for column in zip(*levels)
    )
    return BinaryBVH(
        scene=scene, lo=lo, hi=hi, left=left, right=right,
        first_prim=first_prim, prim_count=prim_count, prim_order=prim_order,
    )
