"""Binary BVH builder tests."""

import numpy as np
import pytest

from repro.bvh.builder import build_binary_bvh
from repro.bvh.validate import validate_binary
from repro.errors import BVHError
from repro.geometry.aabb import AABB
from repro.scene.generators import scatter_mesh
from repro.scene.scene import Scene


@pytest.fixture(scope="module")
def cluttered_scene():
    return Scene("clutter", scatter_mesh(500, seed=11))


def test_empty_scene_raises():
    with pytest.raises(BVHError):
        build_binary_bvh(Scene("empty", np.zeros((0, 3, 3))))


def test_bad_leaf_size_raises(cluttered_scene):
    with pytest.raises(BVHError):
        build_binary_bvh(cluttered_scene, max_leaf_size=0)


def test_bad_strategy_raises(cluttered_scene):
    with pytest.raises(BVHError):
        build_binary_bvh(cluttered_scene, strategy="bogus")


def test_single_triangle_scene():
    scene = Scene("one", scatter_mesh(1, seed=1))
    bvh = build_binary_bvh(scene)
    assert bvh.node_count == 1
    assert bvh.is_leaf(0)
    assert list(bvh.leaf_prims(0)) == [0]


@pytest.mark.parametrize("strategy", ["median", "sah"])
def test_valid_tree(cluttered_scene, strategy):
    bvh = build_binary_bvh(cluttered_scene, strategy=strategy)
    validate_binary(bvh)


@pytest.mark.parametrize("max_leaf", [1, 2, 4, 8])
def test_leaf_size_respected(cluttered_scene, max_leaf):
    bvh = build_binary_bvh(cluttered_scene, max_leaf_size=max_leaf)
    leaves = bvh.prim_count > 0
    assert (bvh.prim_count[leaves] <= max_leaf).all()


def test_all_primitives_reachable(cluttered_scene):
    bvh = build_binary_bvh(cluttered_scene)
    assert sorted(bvh.prim_order) == list(range(cluttered_scene.triangle_count))


def test_root_bounds_cover_scene(cluttered_scene):
    bvh = build_binary_bvh(cluttered_scene)
    scene_bounds = cluttered_scene.bounds()
    root = AABB(lo=bvh.lo[bvh.root], hi=bvh.hi[bvh.root])
    assert root.contains_box(scene_bounds)


def test_internal_nodes_have_two_children(cluttered_scene):
    bvh = build_binary_bvh(cluttered_scene)
    internal = bvh.prim_count == 0
    assert (bvh.left[internal] >= 0).all() and (bvh.right[internal] >= 0).all()


def test_identical_centroids_terminate():
    # All triangles at the same position: every centroid ties, so each
    # median split keeps the input order and halves the node; the build
    # must still terminate with a valid tree.
    verts = np.tile(
        np.array([[[0, 0, 0], [1, 0, 0], [0, 1, 0]]], dtype=float), (20, 1, 1)
    )
    scene = Scene("coincident", verts)
    bvh = build_binary_bvh(scene, max_leaf_size=2)
    validate_binary(bvh)


def test_leaf_prims_on_internal_raises(cluttered_scene):
    bvh = build_binary_bvh(cluttered_scene)
    internal = int(np.flatnonzero(bvh.prim_count == 0)[0])
    with pytest.raises(BVHError):
        bvh.leaf_prims(internal)


def test_sah_not_worse_than_median_node_count(cluttered_scene):
    median = build_binary_bvh(cluttered_scene, strategy="median")
    sah = build_binary_bvh(cluttered_scene, strategy="sah")
    # Same primitive count => comparable node counts (within 2x).
    assert sah.node_count <= 2 * median.node_count


def test_deterministic_build(cluttered_scene):
    a = build_binary_bvh(cluttered_scene)
    b = build_binary_bvh(cluttered_scene)
    assert a.node_count == b.node_count
    assert np.array_equal(a.prim_order, b.prim_order)
