"""Unit tests for :mod:`repro.graph.datagraph`."""

import gc
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import deadline, needs_alarm
from repro.core.dindex import DKIndex
from repro.datasets.dtd import (
    DTDGeneratorConfig,
    RandomDocumentGenerator,
    parse_dtd,
)
from repro.exceptions import (
    GraphError,
    UnknownLabelError,
    UnknownNodeError,
)
from repro.graph.builder import GraphBuilder, graph_from_edges
from repro.graph.datagraph import ROOT_LABEL, VALUE_LABEL, DataGraph
from repro.graph.xmlio import parse_xml
from repro.graph.serialize import graph_from_dict, graph_to_dict
from repro.maintenance.transaction import (
    GraphCheckpoint,
    UpdateTransaction,
    state_fingerprint,
)


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
    assert g.children[a] == (b,)
    assert g.parents[b] == (a,)
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


# ----------------------------------------------------------------------
# The row contract: rows are immutable tuples that mutation replaces
# ----------------------------------------------------------------------


class ListModel:
    """The adjacency a graph should have, as plain lists of lists."""

    def __init__(self, graph):
        self.labels = [graph.label(node) for node in graph.nodes()]
        self.children = [list(row) for row in graph.children]
        self.parents = [list(row) for row in graph.parents]

    def add_node(self, label):
        self.labels.append(label)
        self.children.append([])
        self.parents.append([])
        return len(self.labels) - 1

    def add_edge(self, src, dst):
        self.children[src].append(dst)
        self.parents[dst].append(src)

    def remove_edge(self, src, dst):
        self.children[src].remove(dst)
        self.parents[dst].remove(src)

    def assert_matches(self, graph):
        assert [graph.label(node) for node in graph.nodes()] == self.labels
        assert all(type(row) is tuple for row in graph.children)
        assert all(type(row) is tuple for row in graph.parents)
        assert [list(row) for row in graph.children] == self.children
        assert [list(row) for row in graph.parents] == self.parents
        assert graph.num_edges == sum(map(len, self.children))
        # The lazily built child sets agree with the rows.
        for src in graph.nodes():
            for dst in graph.nodes():
                assert graph.has_edge(src, dst) == (dst in self.children[src])


#: One step: (kind, a, b); ``a`` and ``b`` pick nodes modulo the count.
steps = st.lists(
    st.tuples(
        st.sampled_from(
            ["node", "edge", "edge_if_absent", "edges", "remove", "graft"]
        ),
        st.integers(0, 63),
        st.integers(0, 63),
    ),
    max_size=25,
)


def apply(step, graph, model):
    """Run one step on the graph and the model alike."""
    kind, a, b = step
    n = graph.num_nodes
    src, dst = a % n, b % n
    if kind == "node":
        assert graph.add_node("abc"[a % 3]) == model.add_node("abc"[a % 3])
    elif kind == "edge":
        if dst in model.children[src]:
            with pytest.raises(GraphError):
                graph.add_edge(src, dst)
        else:
            graph.add_edge(src, dst)
            model.add_edge(src, dst)
    elif kind == "edge_if_absent":
        added = dst not in model.children[src]
        assert graph.add_edge_if_absent(src, dst) == added
        if added:
            model.add_edge(src, dst)
    elif kind == "edges":
        # A batch fanning out of src; it may repeat or meet an edge.
        batch = [(src, (dst + step) % n) for step in range(1 + a % 4)]
        if len(set(batch)) < len(batch) or any(
            d in model.children[s] for s, d in batch
        ):
            before = (graph.children[:], graph.parents[:], graph.num_edges)
            with pytest.raises(GraphError):
                graph.add_edges(*zip(*batch))
            assert (graph.children, graph.parents, graph.num_edges) == before
        else:
            graph.add_edges(*zip(*batch))
            for s, d in batch:
                model.add_edge(s, d)
    elif kind == "remove":
        row = model.children[src]
        if row:
            dst = row[b % len(row)]
            graph.remove_edge(src, dst)
            model.remove_edge(src, dst)
        else:
            with pytest.raises(GraphError):
                graph.remove_edge(src, dst)
    else:
        other = DataGraph()
        x, y = other.add_node("a"), other.add_node("b")
        other.add_edge(other.root, x)
        other.add_edge(x, y)
        other.add_edge(y, x)
        mapping = graph.graft(other)
        assert model.add_node("a") == mapping[x]
        assert model.add_node("b") == mapping[y]
        model.add_edge(0, mapping[x])
        model.add_edge(mapping[x], mapping[y])
        model.add_edge(mapping[y], mapping[x])


def build(base_steps):
    graph = DataGraph()
    model = ListModel(graph)
    for step in base_steps:
        apply(step, graph, model)
    return graph, model


@settings(max_examples=60, deadline=None)
@given(base=steps, on_copy=steps, on_original=steps)
def test_rows_match_a_list_model_and_copies_never_touch_each_other(
    base, on_copy, on_original
):
    graph, model = build(base)
    model.assert_matches(graph)
    clone, clone_model = graph.copy(), ListModel(graph)
    for step in on_copy:
        apply(step, clone, clone_model)
    for step in on_original:
        apply(step, graph, model)
    model.assert_matches(graph)
    clone_model.assert_matches(clone)


@settings(max_examples=40, deadline=None)
@given(base=steps, inside=steps, pick=st.integers(0, 10**6))
@pytest.mark.parametrize("scope", ["full", "add-edge", "remove-edge"])
def test_rolled_back_transactions_restore_rows_and_spare_copies(
    scope, base, inside, pick
):
    graph, model = build(base)
    index = DKIndex.build(graph, {}).index
    clone, clone_model = graph.copy(), ListModel(graph)
    before = state_fingerprint(graph, index)
    edges = list(graph.edges())
    if scope == "full":
        edge = None
    elif scope == "add-edge":
        n = graph.num_nodes
        edge = (pick % n, (pick // n) % n)
    elif edges:
        edge = edges[pick % len(edges)]
    else:
        return
    scratch = ListModel(graph)
    with pytest.raises(RuntimeError):
        with UpdateTransaction(graph, index, scope, edge):
            for step in inside:
                apply(step, clone, clone_model)
            if edge is None:
                for step in inside:
                    apply(step, graph, scratch)
            elif scope == "add-edge":
                graph.add_edge_if_absent(*edge)
            else:
                graph.remove_edge(*edge)
            raise RuntimeError("roll back")
    # The graph is back as it was; the copy keeps what was done to it.
    assert state_fingerprint(graph, index) == before
    model.assert_matches(graph)
    clone_model.assert_matches(clone)
    # The rolled-back graph stays fully usable, and still apart from its copy.
    for step in inside:
        apply(step, graph, model)
    model.assert_matches(graph)
    clone_model.assert_matches(clone)


def test_from_arrays_rows_equal_the_add_edge_rows():
    graph, _model = build(
        [("node", i, 0) for i in range(40)]
        + [("edge_if_absent", 7 * i + 1, 11 * i + 3) for i in range(120)]
        + [("remove", i, i) for i in range(0, 40, 3)]
    )
    loaded = graph_from_dict(graph_to_dict(graph))
    assert loaded.children == graph.children
    assert loaded.parents == graph.parents
    assert all(type(row) is tuple for row in loaded.children + loaded.parents)


def tracked_containers_added_by(action):
    """Tracked containers that ``action``'s result adds to a collected heap."""
    gc.collect()
    before = len(gc.get_objects())
    result = action()  # referenced, so alive, while counting
    return len(gc.get_objects()) - before


def test_copy_and_checkpoint_add_constant_tracked_containers():
    graph = DataGraph()
    for node in range(1, 10_000):
        graph.add_node("abc"[node % 3])
        graph.add_edge(node // 2, node)
        if node > 2:
            graph.add_edge(node, node // 3)
    assert graph.num_nodes == 10_000
    assert tracked_containers_added_by(graph.copy) < 20
    assert tracked_containers_added_by(lambda: GraphCheckpoint(graph)) < 20


# ----------------------------------------------------------------------
# Batched edges: one row replacement per touched row
# ----------------------------------------------------------------------


def test_add_edges_equals_an_add_edge_loop():
    edges = [(0, 1), (1, 2), (1, 3), (3, 2), (0, 3), (2, 2), (3, 1)]
    looped = DataGraph()
    looped.add_nodes("abc")
    for src, dst in edges[:2]:
        looped.add_edge(src, dst)
    batched = looped.copy()
    assert batched.has_edge(1, 2)  # builds node 1's child set first
    for src, dst in edges[2:]:
        looped.add_edge(src, dst)
    batched.add_edges([s for s, _ in edges[2:]], [d for _, d in edges[2:]])
    assert batched.children == looped.children
    assert batched.parents == looped.parents
    assert batched.num_edges == looped.num_edges == len(edges)
    assert [batched.has_edge(1, dst) for dst in range(4)] == [
        False, False, True, True
    ]


@pytest.mark.parametrize(
    "sources, targets, error",
    [
        ([1, 2], [2, 3], GraphError),  # 1 -> 2 exists
        ([2, 2], [3, 3], GraphError),  # repeats within the batch
        ([2], [9], UnknownNodeError),
        ([2, 3], [3], GraphError),  # lengths differ
    ],
)
def test_add_edges_rejects_a_bad_batch_and_leaves_the_graph(
    sources, targets, error
):
    graph = DataGraph()
    graph.add_nodes("abc")
    graph.add_edge(1, 2)
    view = graph.freeze()
    with pytest.raises(error):
        graph.add_edges(sources, targets)
    assert graph.children == [(), (2,), (), ()]
    assert graph.parents == [(), (), (1,), ()]
    assert graph.num_edges == 1
    assert graph.frozen_view is view


WIDE = 200_000


def _wide_xml():
    return parse_xml("<r>" + "<c/>" * WIDE + "</r>")


def _wide_dtd():
    generator = RandomDocumentGenerator(
        parse_dtd("<!ELEMENT r (c*)> <!ELEMENT c EMPTY>"),
        config=DTDGeneratorConfig(fanout={"c": (WIDE, WIDE)}),
    )
    return generator.generate("r", random.Random(0)).graph


def _wide_builder():
    builder = GraphBuilder()
    builder.node("r", "r", parent="root")
    for node in range(WIDE):
        builder.node(f"c{node}", "c", parent="r")
    return builder.graph


def _wide_edge_list():
    return graph_from_edges(
        ["r"] + ["c"] * WIDE, [(0, 1)] + [(1, node) for node in range(2, WIDE + 2)]
    )


def _wide_graft():
    other = DataGraph()
    other.add_nodes(["r"] + ["c"] * WIDE)
    other.add_edges([0] + [1] * WIDE, range(1, WIDE + 2))
    graph = DataGraph()
    graph.add_node("x")
    graph.add_edge(0, 1)
    graph.graft(other)
    assert graph.children[0] == (1, 2)
    return graph


@needs_alarm
@pytest.mark.parametrize(
    "build",
    [_wide_xml, _wide_dtd, _wide_builder, _wide_edge_list, _wide_graft],
    ids=["parse_xml", "dtd", "GraphBuilder", "graph_from_edges", "graft"],
)
def test_a_node_with_many_children_builds_in_linear_time(build):
    # One row copy per edge would copy about WIDE**2 / 2 pointers here:
    # minutes, where the batched rows take well under a second.
    with deadline(10):
        graph = build()
    widest = max(graph.nodes(), key=graph.out_degree)
    assert graph.out_degree(widest) == WIDE
    assert graph.children[widest] == tuple(sorted(graph.children[widest]))
    assert all(graph.parents[child] == (widest,) for child in graph.children[widest])
