"""Unit tests for :mod:`repro.indexes.base` (IndexGraph)."""

import pytest
from hypothesis import given, settings

from conftest import small_graphs
import repro.partition.columnar as columnar
from repro.exceptions import IndexInvariantError
from repro.graph.builder import graph_from_edges
from repro.indexes.base import IndexGraph
from repro.partition.blocks import Partition
from repro.partition.refinement import label_partition


def two_x_graph():
    return graph_from_edges(
        ["a", "b", "x", "x"], [(0, 1), (0, 2), (1, 3), (2, 4)]
    )


def build(graph, k=0):
    return IndexGraph.from_partition(graph, label_partition(graph), k)


def test_from_partition_basic():
    g = two_x_graph()
    idx = build(g)
    assert idx.num_nodes == 4
    assert idx.num_edges == 4  # ROOT->a, ROOT->b, a->x, b->x
    idx.check_invariants()


def test_index_edges_are_quotient_edges():
    g = two_x_graph()
    idx = build(g)
    x_block = idx.node_of[3]
    a_block, b_block = idx.node_of[1], idx.node_of[2]
    assert x_block in idx.children[a_block]
    assert x_block in idx.children[b_block]


def test_extents_and_node_of_consistent():
    g = two_x_graph()
    idx = build(g)
    for node in range(idx.num_nodes):
        for member in idx.extents[node]:
            assert idx.node_of[member] == node


def test_per_block_k_values():
    g = two_x_graph()
    idx = IndexGraph.from_partition(g, label_partition(g), [0, 1, 2, 3])
    assert idx.k == [0, 1, 2, 3]
    with pytest.raises(IndexInvariantError):
        IndexGraph.from_partition(g, label_partition(g), [0, 1])


def test_rejects_label_mixed_blocks():
    g = two_x_graph()
    bad = Partition([0] * g.num_nodes)
    with pytest.raises(IndexInvariantError):
        IndexGraph.from_partition(g, bad, 0)


@pytest.mark.parametrize("array_path", [False, True], ids=["scalar", "numpy"])
@pytest.mark.parametrize("size", [4, 6])
def test_rejects_mis_sized_partitions(size, array_path, monkeypatch):
    # A 5-node graph with a 4- or 6-node partition: a typed error on
    # both quotient paths, raised before any index state is built.
    if array_path:
        if columnar._numpy is None:
            pytest.skip("numpy extra not installed")
        monkeypatch.setattr(columnar, "NUMPY_NODE_THRESHOLD", 0)
    else:
        monkeypatch.setattr(columnar, "_numpy", None)
    g = two_x_graph()
    built = []
    monkeypatch.setattr(
        IndexGraph, "__init__", lambda self, graph: built.append(graph)
    )
    with pytest.raises(IndexInvariantError, match=f"covers {size} nodes"):
        IndexGraph.from_partition(g, Partition(list(range(size))), 0)
    assert built == []


def test_label_lookup():
    g = two_x_graph()
    idx = build(g)
    xs = idx.nodes_with_label("x")
    assert len(xs) == 1
    assert idx.label(next(iter(xs))) == "x"
    assert idx.nodes_with_label("missing") == set()


def test_root_index_node():
    g = two_x_graph()
    idx = build(g)
    assert idx.node_of[g.root] == idx.root_index_node
    assert idx.label(idx.root_index_node) == "ROOT"


def test_add_remove_index_edge():
    g = two_x_graph()
    idx = build(g)
    a_block = idx.node_of[1]
    root_block = idx.root_index_node
    assert idx.add_index_edge(a_block, root_block) is True
    assert idx.add_index_edge(a_block, root_block) is False
    idx.remove_index_edge(a_block, root_block)
    assert root_block not in idx.children[a_block]


def test_split_node_rewires_edges():
    g = two_x_graph()
    idx = build(g)
    x_block = idx.node_of[3]
    ids = idx.split_node(x_block, [[3], [4]])
    assert len(ids) == 2
    assert idx.node_of[3] == ids[0]
    assert idx.node_of[4] == ids[1]
    # Edges now separate: a -> piece(3), b -> piece(4).
    a_block, b_block = idx.node_of[1], idx.node_of[2]
    assert idx.children[a_block] == {ids[0]}
    assert idx.children[b_block] == {ids[1]}
    idx.check_invariants()


def test_split_node_single_part_is_noop():
    g = two_x_graph()
    idx = build(g)
    x_block = idx.node_of[3]
    assert idx.split_node(x_block, [[3, 4]]) == [x_block]
    idx.check_invariants()


def test_split_node_validates_partition():
    g = two_x_graph()
    idx = build(g)
    x_block = idx.node_of[3]
    with pytest.raises(IndexInvariantError):
        idx.split_node(x_block, [[3], [3, 4]])
    with pytest.raises(IndexInvariantError):
        idx.split_node(x_block, [[3], []])


def test_split_inherits_label_and_k():
    g = two_x_graph()
    idx = IndexGraph.from_partition(g, label_partition(g), 2)
    x_block = idx.node_of[3]
    ids = idx.split_node(x_block, [[3], [4]])
    for piece in ids:
        assert idx.label(piece) == "x"
        assert idx.k[piece] == 2


def test_check_invariants_detects_missing_edge():
    g = two_x_graph()
    idx = build(g)
    a_block = idx.node_of[1]
    x_block = idx.node_of[3]
    idx.remove_index_edge(a_block, x_block)
    with pytest.raises(IndexInvariantError):
        idx.check_invariants()


def test_extent_result_union():
    g = two_x_graph()
    idx = build(g)
    xs = idx.nodes_with_label("x")
    assert idx.extent_result(xs) == {3, 4}


def test_to_partition_roundtrip():
    g = two_x_graph()
    idx = build(g)
    assert idx.to_partition() == label_partition(g)


@given(small_graphs())
@settings(max_examples=50, deadline=None)
def test_invariants_hold_for_random_graphs(graph):
    idx = build(graph)
    idx.check_invariants()
    assert sum(len(e) for e in idx.extents) == graph.num_nodes
