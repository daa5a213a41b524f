"""Triangles — the only scene primitive, as in the paper's benchmarks."""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, NamedTuple, Tuple

import numpy as np

from repro.geometry.aabb import AABB
from repro.geometry.vec import Vec3, cross, length, normalize


@dataclass
class Triangle:
    """A triangle with vertices ``a``, ``b``, ``c`` and a primitive id.

    ``prim_id`` is the index of the triangle inside its scene; leaf BVH
    nodes refer to triangles by this id.
    """

    a: Vec3
    b: Vec3
    c: Vec3
    prim_id: int = 0

    def vertices(self) -> np.ndarray:
        """The three vertices stacked into a ``(3, 3)`` array."""
        return np.stack([self.a, self.b, self.c])

    def is_degenerate(self, eps: float = 1e-12) -> bool:
        """True when the triangle has (numerically) zero area."""
        return self.area() < eps

    def area(self) -> float:
        """Surface area of the triangle."""
        return 0.5 * length(cross(self.b - self.a, self.c - self.a))

    def normal(self) -> Vec3:
        """Unit geometric normal (right-handed winding ``a -> b -> c``)."""
        return normalize(cross(self.b - self.a, self.c - self.a))


def triangle_aabb(tri: Triangle) -> AABB:
    """Tight bounding box of a triangle."""
    return AABB.from_points(tri.vertices())


def triangle_centroid(tri: Triangle) -> Vec3:
    """Barycenter of a triangle, used as the BVH split key."""
    return (tri.a + tri.b + tri.c) / 3.0


class EdgeForm(NamedTuple):
    """Every triangle of a scene in Moeller-Trumbore form.

    Vertex ``a`` and the edges ``e1 = b - a``, ``e2 = c - a`` as
    ``(n, 3)`` float64 arrays (rows feed ``np.dot``), plus the edges as
    python-float triples (components feed the manual cross products).
    The subtractions are the ones :func:`~repro.geometry.intersect.ray_triangle_intersect`
    performs per call, so both paths see the same bits.
    """

    a: np.ndarray
    e1: np.ndarray
    e2: np.ndarray
    e1_f: List[Tuple[float, float, float]]
    e2_f: List[Tuple[float, float, float]]


def edge_form(vertices: np.ndarray) -> EdgeForm:
    """:class:`EdgeForm` of an ``(n, 3, 3)`` vertex array."""
    e1 = np.ascontiguousarray(vertices[:, 1, :] - vertices[:, 0, :])
    e2 = np.ascontiguousarray(vertices[:, 2, :] - vertices[:, 0, :])
    return EdgeForm(
        a=np.ascontiguousarray(vertices[:, 0, :]), e1=e1, e2=e2,
        e1_f=[tuple(row) for row in e1.tolist()],
        e2_f=[tuple(row) for row in e2.tolist()],
    )
