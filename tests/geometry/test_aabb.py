"""AABB unit and property tests."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.geometry.aabb import AABB, surface_area, surface_areas, union
from repro.geometry.vec import vec3

coord = st.floats(min_value=-100, max_value=100, allow_nan=False)
points = st.builds(vec3, coord, coord, coord)


def box_from(lo, hi):
    return AABB(lo=np.minimum(lo, hi), hi=np.maximum(lo, hi))


boxes = st.builds(box_from, points, points)


def test_empty_box_is_empty():
    assert AABB.empty().is_empty()


def test_default_box_is_empty():
    assert AABB().is_empty()


def test_from_points_tight():
    pts = np.array([[0, 0, 0], [1, 2, 3], [-1, 1, 0]])
    box = AABB.from_points(pts)
    assert np.allclose(box.lo, [-1, 0, 0])
    assert np.allclose(box.hi, [1, 2, 3])


def test_from_no_points_empty():
    assert AABB.from_points(np.zeros((0, 3))).is_empty()


def test_contains_point_boundary():
    box = box_from(vec3(0, 0, 0), vec3(1, 1, 1))
    assert box.contains_point(vec3(0, 0, 0))
    assert box.contains_point(vec3(1, 1, 1))
    assert not box.contains_point(vec3(1.001, 0.5, 0.5))


def test_contains_box_accepts_empty():
    box = box_from(vec3(0, 0, 0), vec3(1, 1, 1))
    assert box.contains_box(AABB.empty())


def test_grown_covers_new_point():
    box = box_from(vec3(0, 0, 0), vec3(1, 1, 1)).grown(vec3(5, -2, 0.5))
    assert box.contains_point(vec3(5, -2, 0.5))
    assert box.contains_point(vec3(0, 0, 0))


def test_centroid_center():
    box = box_from(vec3(0, 0, 0), vec3(2, 4, 6))
    assert np.allclose(box.centroid(), [1, 2, 3])


def test_extent_empty_is_zero():
    assert np.allclose(AABB.empty().extent(), [0, 0, 0])


def test_longest_axis():
    box = box_from(vec3(0, 0, 0), vec3(1, 5, 2))
    assert box.longest_axis() == 1


def test_overlaps_disjoint():
    a = box_from(vec3(0, 0, 0), vec3(1, 1, 1))
    b = box_from(vec3(2, 2, 2), vec3(3, 3, 3))
    assert not a.overlaps(b)


def test_overlaps_touching():
    a = box_from(vec3(0, 0, 0), vec3(1, 1, 1))
    b = box_from(vec3(1, 0, 0), vec3(2, 1, 1))
    assert a.overlaps(b)


def test_overlaps_empty_never():
    a = box_from(vec3(0, 0, 0), vec3(1, 1, 1))
    assert not a.overlaps(AABB.empty())


def test_union_with_empty_is_identity():
    a = box_from(vec3(0, 0, 0), vec3(1, 1, 1))
    u = union(a, AABB.empty())
    assert np.allclose(u.lo, a.lo) and np.allclose(u.hi, a.hi)


def test_surface_area_unit_cube():
    assert surface_area(box_from(vec3(0, 0, 0), vec3(1, 1, 1))) == pytest.approx(6.0)


def test_surface_area_empty_zero():
    assert surface_area(AABB.empty()) == 0.0


@given(st.lists(boxes, min_size=1, max_size=8))
def test_surface_areas_is_bitwise_surface_area(box_list):
    box_list = box_list + [AABB.empty()]
    lo = np.stack([b.lo for b in box_list])
    hi = np.stack([b.hi for b in box_list])
    expected = np.array([surface_area(b) for b in box_list])
    assert surface_areas(lo, hi).tobytes() == expected.tobytes()


@given(boxes, boxes)
def test_union_contains_both(a, b):
    u = union(a, b)
    assert u.contains_box(a)
    assert u.contains_box(b)


@given(boxes, boxes)
def test_union_commutative(a, b):
    u1, u2 = union(a, b), union(b, a)
    assert np.allclose(u1.lo, u2.lo) and np.allclose(u1.hi, u2.hi)


@given(boxes)
def test_union_idempotent(a):
    u = union(a, a)
    assert np.allclose(u.lo, a.lo) and np.allclose(u.hi, a.hi)


@given(boxes, boxes)
def test_union_surface_area_monotone(a, b):
    assert surface_area(union(a, b)) >= max(surface_area(a), surface_area(b)) - 1e-9


@given(boxes, points)
def test_grown_monotone(box, p):
    grown = box.grown(p)
    assert grown.contains_box(box)
    assert grown.contains_point(p)
