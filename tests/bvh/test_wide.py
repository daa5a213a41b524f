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
    for node in wide.nodes:
        assert node.child_count <= width
    validate_wide_no_addresses(wide)


def validate_wide_no_addresses(wide):
    """Structural checks that don't need the layout pass."""
    seen = set()
    stack = [wide.root]
    while stack:
        node = wide.nodes[stack.pop()]
        for prim in node.prim_ids:
            assert prim not in seen
            seen.add(prim)
        stack.extend(node.children)
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
    for node in wide.nodes:
        for child in node.children:
            assert wide.nodes[child].depth == node.depth + 1


def test_child_arrays_match_children(binary):
    wide = collapse_to_wide(binary)
    for node in wide.nodes:
        assert wide.child_los[node.index].shape == (node.child_count, 3)
        assert wide.child_his[node.index].shape == (node.child_count, 3)
        for slot, child in enumerate(node.children):
            bounds = wide.nodes[child].bounds
            assert wide.child_los[node.index][slot].tobytes() == bounds.lo.tobytes()
            assert wide.child_his[node.index][slot].tobytes() == bounds.hi.tobytes()


def test_single_triangle_collapse():
    scene = Scene("one", scatter_mesh(1, seed=1))
    wide = build_bvh(scene)
    assert wide.node_count == 1
    assert wide.nodes[0].is_leaf


def test_leaf_prims_preserved(binary, scene):
    wide = collapse_to_wide(binary)
    total = sum(len(n.prim_ids) for n in wide.nodes)
    assert total == scene.triangle_count


def test_internal_nodes_have_multiple_children(binary):
    wide = collapse_to_wide(binary, width=6)
    for node in wide.nodes:
        if not node.is_leaf:
            assert node.child_count >= 2


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
