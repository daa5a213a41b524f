"""BVH statistics (feeds the paper's Table II and scene characterization)."""

from __future__ import annotations

from dataclasses import dataclass

from repro.bvh.wide import WideBVH


@dataclass
class BVHStats:
    """Structural statistics of a wide BVH."""

    node_count: int
    internal_count: int
    leaf_count: int
    max_depth: int
    avg_leaf_prims: float
    max_children: int
    avg_children: float
    total_bytes: int
    triangle_count: int

    @property
    def megabytes(self) -> float:
        """Footprint in MB."""
        return self.total_bytes / (1024.0 * 1024.0)

    @property
    def leaf_ratio(self) -> float:
        """Fraction of nodes that are leaves."""
        if self.node_count == 0:
            return 0.0
        return self.leaf_count / self.node_count


def compute_stats(wide: WideBVH) -> BVHStats:
    """Compute :class:`BVHStats` for a laid-out wide BVH."""
    counts = wide.child_count
    internal_count = int((counts > 0).sum())
    leaf_count = wide.node_count - internal_count
    child_total = int(counts.sum())
    return BVHStats(
        node_count=wide.node_count,
        internal_count=internal_count,
        leaf_count=leaf_count,
        max_depth=wide.max_depth(),
        avg_leaf_prims=int(wide.prim_count.sum()) / leaf_count if leaf_count else 0.0,
        max_children=int(counts.max(initial=0)),
        avg_children=child_total / internal_count if internal_count else 0.0,
        total_bytes=wide.total_bytes,
        triangle_count=wide.scene.triangle_count,
    )
