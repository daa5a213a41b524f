"""Level-synchronous build ≡ per-node reference build, bit for bit.

``reference_build`` keeps the per-node builder and wide collapse as an
oracle.  The array build must reproduce its trees exactly: the same
binary shape, bound bits and leaf ranges (node numbering may differ),
the same primitive order, and the same wide nodes — indices, children,
primitive ids and their element type, bound bits, depths, addresses,
sizes and child-bound arrays.  The edge draws put ties where the tie
rules decide the tree: coincident centroids, duplicated triangles, a
flat axis holding both signed zeros, and fully identical triangles.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bvh.builder import build_binary_bvh
from repro.bvh.layout import assign_addresses
from repro.bvh.wide import collapse_to_wide
from repro.scene.generators import scatter_mesh
from repro.scene.scene import Scene
from tests.bvh import reference_build as ref

EDGE_MODES = ("coincident", "duplicate", "flat", "identical")


def _edge_vertices(count, seed, mode):
    rng = np.random.default_rng(seed)
    # A coarse grid keeps vertex sums exact, so equal vertex sets have
    # bit-equal centroids whatever their order.
    verts = np.round(scatter_mesh(count, clusters=3, seed=seed) * 2.0) / 2.0
    if mode == "coincident":
        source = rng.integers(0, count, size=count)
        verts = verts[source][:, rng.permutation(3)]
    elif mode == "duplicate":
        verts = verts[rng.integers(0, count, size=count)]
    elif mode == "flat":
        signs = rng.random(verts.shape[:2]) < 0.5
        verts[..., int(rng.integers(0, 3))] = np.where(signs, 0.0, -0.0)
    else:
        verts = np.repeat(verts[:1], count, axis=0)
    return verts


def _assert_same_binary(expected, actual):
    assert actual.node_count == expected.node_count
    assert actual.prim_order.dtype == expected.prim_order.dtype
    assert np.array_equal(actual.prim_order, expected.prim_order)
    stack = [(expected.root, actual.root)]
    while stack:
        e_index, a_index = stack.pop()
        node = expected.nodes[e_index]
        assert node.bounds.lo.tobytes() == actual.lo[a_index].tobytes()
        assert node.bounds.hi.tobytes() == actual.hi[a_index].tobytes()
        assert node.is_leaf == actual.is_leaf(a_index)
        if node.is_leaf:
            assert node.first_prim == actual.first_prim[a_index]
            assert node.prim_count == actual.prim_count[a_index]
        else:
            stack.append((node.left, int(actual.left[a_index])))
            stack.append((node.right, int(actual.right[a_index])))


def _assert_same_wide(expected, actual):
    assert actual.node_count == expected.node_count
    assert actual.total_bytes == expected.total_bytes
    assert actual.address_to_node == expected.address_to_node
    for e, a in zip(expected.nodes, actual.nodes):
        assert (a.index, a.children, a.depth, a.address, a.size_bytes) == (
            e.index, e.children, e.depth, e.address, e.size_bytes
        )
        assert a.prim_ids == e.prim_ids
        assert [type(p) for p in a.prim_ids] == [type(p) for p in e.prim_ids]
        assert a.bounds.lo.tobytes() == e.bounds.lo.tobytes()
        assert a.bounds.hi.tobytes() == e.bounds.hi.tobytes()
    for name in ("child_los", "child_his"):
        for e, a in zip(getattr(expected, name), getattr(actual, name)):
            assert (a.shape, a.dtype) == (e.shape, e.dtype)
            assert a.tobytes() == e.tobytes()


def _check(verts, max_leaf_size, width, strategy):
    scene = Scene("oracle", verts)
    expected = ref.build_binary_bvh(scene, max_leaf_size, strategy)
    actual = build_binary_bvh(scene, max_leaf_size=max_leaf_size, strategy=strategy)
    _assert_same_binary(expected, actual)
    expected_wide = ref.collapse_to_wide(expected, width=width)
    actual_wide = collapse_to_wide(actual, width=width)
    assign_addresses(expected_wide)
    assign_addresses(actual_wide)
    _assert_same_wide(expected_wide, actual_wide)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    count=st.integers(min_value=1, max_value=300),
    clusters=st.integers(min_value=1, max_value=4),
    seed=st.integers(min_value=0, max_value=10_000),
    max_leaf_size=st.integers(min_value=1, max_value=8),
    width=st.integers(min_value=2, max_value=8),
    strategy=st.sampled_from(["median", "sah"]),
)
def test_matches_reference_on_scatter_scenes(
    count, clusters, seed, max_leaf_size, width, strategy
):
    verts = scatter_mesh(count, clusters=clusters, seed=seed)
    _check(verts, max_leaf_size, width, strategy)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    count=st.integers(min_value=1, max_value=300),
    seed=st.integers(min_value=0, max_value=10_000),
    mode=st.sampled_from(EDGE_MODES),
    max_leaf_size=st.integers(min_value=1, max_value=8),
    width=st.integers(min_value=2, max_value=8),
    strategy=st.sampled_from(["median", "sah"]),
)
def test_matches_reference_on_tie_heavy_scenes(
    count, seed, mode, max_leaf_size, width, strategy
):
    _check(_edge_vertices(count, seed, mode), max_leaf_size, width, strategy)


def test_edge_scenes_have_the_ties_they_claim():
    flat = _edge_vertices(50, 3, "flat")
    axis = int(np.flatnonzero((flat == 0.0).all(axis=(0, 1)))[0])
    assert np.signbit(flat[..., axis]).any() and not np.signbit(flat[..., axis]).all()
    cents = Scene("c", _edge_vertices(200, 5, "coincident")).centroids()
    assert len(np.unique(cents, axis=0)) < len(cents)
    same = _edge_vertices(20, 7, "identical")
    assert (same == same[0]).all()
