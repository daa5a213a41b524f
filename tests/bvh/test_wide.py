"""Wide-BVH collapse tests."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bvh.api import build_bvh
from repro.bvh.builder import build_binary_bvh
from repro.bvh.validate import validate_wide
from repro.bvh.wide import collapse_to_wide
from repro.errors import BVHError
from repro.scene.generators import scatter_mesh
from repro.scene.scene import Scene


@pytest.fixture(scope="module")
def scene():
    return Scene("clutter", scatter_mesh(400, seed=21))


@pytest.fixture(scope="module")
def binary(scene):
    return build_binary_bvh(scene)


def test_invalid_width_raises(binary):
    with pytest.raises(BVHError):
        collapse_to_wide(binary, width=1)


@pytest.mark.parametrize("width", [2, 4, 6, 8])
def test_width_respected(binary, width):
    wide = collapse_to_wide(binary, width=width)
    assert (wide.child_count <= width).all()
    validate_wide_no_addresses(wide)


def validate_wide_no_addresses(wide):
    """Structural checks that don't need the layout pass."""
    seen = set()
    stack = [wide.root]
    while stack:
        index = stack.pop()
        for prim in wide.leaf_prims(index).tolist():
            assert prim not in seen
            seen.add(prim)
        first = int(wide.first_child[index])
        stack.extend(range(first, first + int(wide.child_count[index])))
    assert seen == set(range(wide.scene.triangle_count))


def test_wider_bvh_has_fewer_nodes(binary):
    narrow = collapse_to_wide(binary, width=2)
    wide = collapse_to_wide(binary, width=8)
    assert wide.node_count <= narrow.node_count


def test_wider_bvh_is_shallower(binary):
    narrow = collapse_to_wide(binary, width=2)
    wide = collapse_to_wide(binary, width=8)
    assert wide.max_depth() <= narrow.max_depth()


def test_depth_annotations_consistent(binary):
    wide = collapse_to_wide(binary)
    for index in range(wide.node_count):
        first, count = wide.first_child[index], wide.child_count[index]
        assert (wide.depth[first : first + count] == wide.depth[index] + 1).all()


def test_child_arrays_match_children(binary):
    """Children are consecutive rows; their bounds are their binary nodes'."""
    wide = collapse_to_wide(binary)
    n = wide.node_count
    for name in ("lo", "hi", "first_child", "child_count", "depth",
                 "prim_start", "prim_count", "address", "size_bytes"):
        assert len(getattr(wide, name)) == n, name
    assert wide.lo.shape == wide.hi.shape == (n, 3)
    assert wide.prim_ids is binary.prim_order
    leaf = wide.child_count == 0
    assert (wide.first_child[leaf] == -1).all()
    children = sorted(
        child
        for index in np.flatnonzero(~leaf)
        for child in range(wide.first_child[index],
                           wide.first_child[index] + wide.child_count[index])
    )
    assert children == list(range(1, n))
    binary_leaf_bounds = {
        binary.lo[b].tobytes() + binary.hi[b].tobytes()
        for b in np.flatnonzero(binary.prim_count)
    }
    for index in np.flatnonzero(leaf):
        assert wide.lo[index].tobytes() + wide.hi[index].tobytes() in binary_leaf_bounds


def test_single_triangle_collapse():
    scene = Scene("one", scatter_mesh(1, seed=1))
    wide = build_bvh(scene)
    assert wide.node_count == 1
    assert wide.child_count[0] == 0
    assert wide.leaf_prims(0).tolist() == [0]


def test_leaf_prims_preserved(binary, scene):
    wide = collapse_to_wide(binary)
    assert int(wide.prim_count.sum()) == scene.triangle_count


def test_internal_nodes_have_multiple_children(binary):
    wide = collapse_to_wide(binary, width=6)
    counts = wide.child_count
    assert (counts[counts > 0] >= 2).all()


@settings(max_examples=20, deadline=None)
@given(
    count=st.integers(min_value=2, max_value=60),
    width=st.integers(min_value=2, max_value=8),
    seed=st.integers(min_value=0, max_value=1000),
)
def test_collapse_valid_for_random_scenes(count, width, seed):
    scene = Scene("rand", scatter_mesh(count, seed=seed))
    wide = build_bvh(scene, width=width)
    validate_wide(wide)
