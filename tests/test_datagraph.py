"""Unit tests for :mod:`repro.graph.datagraph`."""

import pytest

from repro.exceptions import GraphError, UnknownLabelError, UnknownNodeError
from repro.graph.datagraph import ROOT_LABEL, VALUE_LABEL, DataGraph


def test_new_graph_has_root():
    g = DataGraph()
    assert g.num_nodes == 1
    assert g.root == 0
    assert g.label(g.root) == ROOT_LABEL
    assert g.num_edges == 0


def test_add_node_assigns_dense_ids():
    g = DataGraph()
    assert g.add_node("a") == 1
    assert g.add_node("b") == 2
    assert g.add_node("a") == 3
    assert g.num_nodes == 4


def test_labels_are_interned():
    g = DataGraph()
    a1 = g.add_node("a")
    a2 = g.add_node("a")
    assert g.label_ids[a1] == g.label_ids[a2]
    assert g.num_labels == 2  # ROOT and a


def test_label_table_is_a_read_only_live_view():
    g = DataGraph()
    table = g.label_table
    assert dict(table) == {ROOT_LABEL: 0}
    g.add_node("movie")
    assert table["movie"] == g.label_id("movie") == 1
    with pytest.raises(TypeError):
        table["movie"] = 5


def test_add_nodes_bulk():
    g = DataGraph()
    ids = g.add_nodes(["x", "y", "z"])
    assert ids == [1, 2, 3]
    assert [g.label(i) for i in ids] == ["x", "y", "z"]


def test_add_edge_and_adjacency():
    g = DataGraph()
    a, b = g.add_node("a"), g.add_node("b")
    g.add_edge(g.root, a)
    g.add_edge(a, b)
    assert g.children[a] == [b]
    assert g.parents[b] == [a]
    assert g.has_edge(a, b)
    assert not g.has_edge(b, a)
    assert g.num_edges == 2


def test_duplicate_edge_rejected():
    g = DataGraph()
    a = g.add_node("a")
    g.add_edge(g.root, a)
    with pytest.raises(GraphError):
        g.add_edge(g.root, a)


def test_add_edge_if_absent():
    g = DataGraph()
    a = g.add_node("a")
    assert g.add_edge_if_absent(g.root, a) is True
    assert g.add_edge_if_absent(g.root, a) is False
    assert g.num_edges == 1


def test_self_loop_allowed():
    g = DataGraph()
    a = g.add_node("a")
    g.add_edge(a, a)
    assert g.has_edge(a, a)
    assert g.in_degree(a) == 1
    assert g.out_degree(a) == 1


def test_unknown_node_errors():
    g = DataGraph()
    with pytest.raises(UnknownNodeError):
        g.add_edge(0, 5)
    with pytest.raises(UnknownNodeError):
        g.label(99)
    with pytest.raises(UnknownNodeError):
        g.out_degree(-1)


def test_unknown_label_errors():
    g = DataGraph()
    with pytest.raises(UnknownLabelError):
        g.label_id("nope")
    with pytest.raises(UnknownLabelError):
        g.label_name(42)


def test_nodes_with_label():
    g = DataGraph()
    a1, _b, a2 = g.add_node("a"), g.add_node("b"), g.add_node("a")
    assert g.nodes_with_label("a") == [a1, a2]
    assert g.nodes_with_label("missing") == []


def test_edges_iteration():
    g = DataGraph()
    a, b = g.add_node("a"), g.add_node("b")
    g.add_edge(g.root, a)
    g.add_edge(a, b)
    assert sorted(g.edges()) == [(0, a), (a, b)]


def test_degrees():
    g = DataGraph()
    a, b, c = g.add_nodes(["a", "b", "c"])
    g.add_edge(g.root, a)
    g.add_edge(g.root, b)
    g.add_edge(a, c)
    g.add_edge(b, c)
    assert g.out_degree(g.root) == 2
    assert g.in_degree(c) == 2


def test_copy_is_independent():
    g = DataGraph()
    a = g.add_node("a")
    g.add_edge(g.root, a)
    clone = g.copy()
    clone.add_node("b")
    clone.add_edge(a, 2)
    assert g.num_nodes == 2
    assert clone.num_nodes == 3
    assert not g.has_edge(a, 2) if g.has_node(2) else True
    assert g.num_edges == 1
    assert clone.num_edges == 2


def test_copy_preserves_labels_and_edges():
    g = DataGraph()
    a, b = g.add_node("x"), g.add_node("y")
    g.add_edge(g.root, a)
    g.add_edge(a, b)
    clone = g.copy()
    assert list(clone.edges()) == list(g.edges())
    assert [clone.label(i) for i in clone.nodes()] == [
        g.label(i) for i in g.nodes()
    ]


def test_graft_copies_subgraph_under_root():
    g = DataGraph()
    a = g.add_node("a")
    g.add_edge(g.root, a)

    h = DataGraph()
    x = h.add_node("x")
    y = h.add_node("y")
    h.add_edge(h.root, x)
    h.add_edge(x, y)

    mapping = g.graft(h)
    assert mapping[h.root] == g.root
    assert g.label(mapping[x]) == "x"
    assert g.has_edge(g.root, mapping[x])
    assert g.has_edge(mapping[x], mapping[y])
    assert g.num_nodes == 4


def test_graft_rejects_edge_into_foreign_root():
    g = DataGraph()
    h = DataGraph()
    x = h.add_node("x")
    h.add_edge(h.root, x)
    h.add_edge(x, h.root)  # back edge into the root
    with pytest.raises(GraphError):
        g.graft(h)


def test_repr_and_len():
    g = DataGraph()
    g.add_node("a")
    assert len(g) == 2
    assert "nodes=2" in repr(g)


def test_value_label_constant():
    g = DataGraph()
    v = g.add_node(VALUE_LABEL)
    assert g.label(v) == "VALUE"
