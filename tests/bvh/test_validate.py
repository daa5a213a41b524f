"""Validator tests: each must catch deliberately corrupted trees."""

import pytest

from repro.bvh.api import build_bvh
from repro.bvh.builder import build_binary_bvh
from repro.bvh.validate import validate_binary, validate_wide
from repro.errors import BVHError
from repro.geometry.vec import vec3
from repro.scene.generators import scatter_mesh
from repro.scene.scene import Scene


@pytest.fixture
def binary():
    return build_binary_bvh(Scene("clutter", scatter_mesh(200, seed=51)))


@pytest.fixture
def wide():
    return build_bvh(Scene("clutter", scatter_mesh(200, seed=51)))


def test_valid_binary_passes(binary):
    validate_binary(binary)


def test_valid_wide_passes(wide):
    validate_wide(wide)


def test_binary_detects_escaping_child_bounds(binary):
    child = binary.left[binary.root]
    binary.hi[child, 0] += 100.0
    with pytest.raises(BVHError):
        validate_binary(binary)


def test_binary_detects_duplicate_prims(binary):
    binary.prim_order[1] = binary.prim_order[0]
    with pytest.raises(BVHError):
        validate_binary(binary)


def _leaves(wide):
    return [int(i) for i in (wide.child_count == 0).nonzero()[0]]


def test_wide_detects_escaping_child_bounds(wide):
    child = wide.first_child[wide.root]
    wide.lo[child, 2] -= 50.0
    with pytest.raises(BVHError, match="bounds escape"):
        validate_wide(wide)


def test_wide_detects_duplicate_prims(wide):
    leaves = _leaves(wide)
    wide.prim_ids = wide.prim_ids.copy()
    wide.prim_ids[wide.prim_start[leaves[1]]] = wide.prim_ids[wide.prim_start[leaves[0]]]
    with pytest.raises(BVHError, match="reachable from two leaves"):
        validate_wide(wide)


def test_wide_detects_missing_prims(wide):
    leaf = next(i for i in _leaves(wide) if wide.prim_count[i] > 1)
    wide.prim_count[leaf] -= 1
    with pytest.raises(BVHError, match="does not cover"):
        validate_wide(wide)


def test_wide_detects_overwide_node(wide):
    wide.child_count[wide.root] += 10
    with pytest.raises(BVHError, match="more than 6 children"):
        validate_wide(wide)


def test_wide_detects_bad_depth(wide):
    child = wide.first_child[wide.root]
    wide.depth[child] = 5
    with pytest.raises(BVHError, match="wrong depth"):
        validate_wide(wide)


def test_wide_detects_duplicate_addresses(wide):
    child = wide.first_child[wide.root]
    wide.address[child] = wide.address[wide.root]
    with pytest.raises(BVHError, match="duplicate node address"):
        validate_wide(wide)


def test_wide_detects_empty_leaf(wide):
    wide.prim_count[_leaves(wide)[0]] = 0
    with pytest.raises(BVHError, match="owns no primitives"):
        validate_wide(wide)


def test_wide_detects_internal_leaf(wide):
    wide.prim_count[wide.root] = 1
    with pytest.raises(BVHError, match="both internal and leaf"):
        validate_wide(wide)


@pytest.mark.parametrize("first", [0, -1, "end"])
def test_wide_detects_child_range_outside_nodes(wide, first):
    wide.first_child[wide.root] = wide.node_count if first == "end" else first
    with pytest.raises(BVHError, match="child range outside"):
        validate_wide(wide)


def test_wide_detects_node_with_two_parents(wide):
    # Point an internal child's range at its sibling's children: they
    # gain a second parent and the original children lose theirs.
    root_children = range(wide.first_child[wide.root],
                          wide.first_child[wide.root] + wide.child_count[wide.root])
    a, b = [int(i) for i in root_children if wide.child_count[i]][:2]
    wide.first_child[a] = wide.first_child[b]
    wide.child_count[a] = wide.child_count[b]
    with pytest.raises(BVHError, match="exactly one parent"):
        validate_wide(wide)


def test_wide_detects_cycle_cut_off_from_root(wide):
    # Swap the child ranges of the root and a deeper internal node: every
    # non-root node keeps exactly one parent, but the root's old children
    # now hang below one of their own descendants, in a cycle the root
    # cannot reach.  The depth annotations are what catch it.
    deep = next(int(i) for i in (wide.child_count > 0).nonzero()[0] if wide.depth[i] >= 2)
    for name in ("first_child", "child_count"):
        array = getattr(wide, name)
        array[wide.root], array[deep] = array[deep], array[wide.root]
    with pytest.raises(BVHError, match="wrong depth"):
        validate_wide(wide)


def test_wide_detects_prim_range_outside_prim_ids(wide):
    wide.prim_start[_leaves(wide)[-1]] = len(wide.prim_ids)
    with pytest.raises(BVHError, match="primitive range outside"):
        validate_wide(wide)


def test_wide_detects_prim_id_outside_scene(wide):
    wide.prim_ids = wide.prim_ids.copy()
    wide.prim_ids[wide.prim_start[_leaves(wide)[0]]] = wide.scene.triangle_count
    with pytest.raises(BVHError, match="not in the scene"):
        validate_wide(wide)
