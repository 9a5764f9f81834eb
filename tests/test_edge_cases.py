"""Edge-case and regression tests across modules.

Targets behaviours the module-level suites do not reach: safety valves,
degenerate graphs, report-field details and API misuse handling.
"""

import pytest

import repro.core.updates as updates_module
from repro.core.construction import build_dk_index
from repro.core.dindex import DKIndex
from repro.core.updates import (
    dk_add_edge,
    enforce_dk_constraint,
    update_local_similarity,
)
from repro.graph.builder import graph_from_edges
from repro.graph.datagraph import DataGraph
from repro.graph.xmlio import graph_to_xml, parse_xml
from repro.indexes.base import IndexGraph
from repro.indexes.labelsplit import build_labelsplit_index
from repro.indexes.metrics import index_metrics
from repro.paths.cost import CostCounter
from repro.paths.evaluator import evaluate_on_data_graph
from repro.paths.query import make_query


# ------------------------- Algorithm 4 safety valve --------------------


def test_update_local_similarity_path_cap(monkeypatch):
    # With the label-path cap forced to 1 the search stops early and
    # returns a conservative (lower) similarity — never a higher one.
    g = graph_from_edges(
        ["a", "b", "c", "c", "d"],
        [(0, 1), (1, 2), (0, 3), (2, 4), (3, 4), (4, 5)],
    )
    index, _ = build_dk_index(g, {"d": 3})
    c_nodes = sorted(index.nodes_with_label("c"))
    d_node = next(iter(index.nodes_with_label("d")))
    unrestricted = update_local_similarity(index, c_nodes[0], d_node)
    monkeypatch.setattr(updates_module, "MAX_LABEL_PATHS", 1)
    capped = update_local_similarity(index, c_nodes[0], d_node)
    assert capped <= unrestricted


def test_update_local_similarity_dead_end_parent():
    # The source index node has no parents at all: new label paths run
    # dry, so every longer path vacuously matches -> cap is reached.
    g = DataGraph()
    a, b = g.add_node("a"), g.add_node("b")
    g.add_edge(g.root, b)
    # `a` is parentless (not even under the root).
    index, _ = build_dk_index(g, {"b": 2})
    a_node = next(iter(index.nodes_with_label("a")))
    b_node = next(iter(index.nodes_with_label("b")))
    k_new = update_local_similarity(index, a_node, b_node)
    assert k_new <= min(index.k[a_node] + 1, index.k[b_node])


# ------------------------- report details ------------------------------


def test_edge_report_preserves_original_old_k():
    # A node lowered twice in one sweep must report its *original* k.
    g = graph_from_edges(
        ["q", "x1", "x2"],
        [(0, 1), (0, 2), (2, 3), (1, 3)],
    )
    index, _ = build_dk_index(g, {"x2": 2})
    original = {n: index.k[n] for n in range(index.num_nodes)}
    report = dk_add_edge(g, index, 1, 2)
    for node, (old, new) in report.lowered.items():
        assert old == original[node]
        assert new == index.k[node]


def test_enforce_dk_constraint_counts_lowered():
    g = graph_from_edges(["a", "b"], [(0, 1), (1, 2)])
    index, _ = build_dk_index(g, {"b": 1})
    index.k[index.node_of[2]] = 9  # corrupt upward
    lowered = enforce_dk_constraint(index)
    assert lowered >= 1
    from repro.core.dindex import check_dk_constraint

    check_dk_constraint(index)


def test_promote_report_raised_entries():
    from repro.core.promote import promote_requirements

    g = graph_from_edges(
        ["a", "b", "x", "x"], [(0, 1), (0, 2), (1, 3), (2, 4)]
    )
    index, _ = build_dk_index(g, {})
    report = promote_requirements(g, index, {"x": 1})
    assert report.rounds == 1
    assert any(new == 1 for _old, new in report.raised.values())


# ------------------------- degenerate graphs ---------------------------


def test_everything_on_root_only_graph():
    g = DataGraph()
    dk = DKIndex.build(g, {})
    dk.check_invariants()
    assert dk.size == 1
    assert dk.evaluate(make_query("anything")) == set()
    assert index_metrics(dk.index).compression == 1.0


def test_single_chain_graph_promote_to_excess():
    # Promoting beyond the graph's depth must terminate and stay honest.
    g = graph_from_edges(["a", "b", "c"], [(0, 1), (1, 2), (2, 3)])
    dk = DKIndex.build(g, {})
    dk.promote({"c": 50})
    dk.check_invariants()
    counter = CostCounter()
    q = make_query("a.b.c")
    assert dk.evaluate(q, counter) == {3}
    assert counter.validated_queries == 0


def test_parallel_labels_single_nodes():
    # Every node uniquely labeled: all indexes coincide with the data.
    g = graph_from_edges(["a", "b", "c"], [(0, 1), (0, 2), (0, 3)])
    for build in (build_labelsplit_index,):
        index = build(g)
        assert index.num_nodes == g.num_nodes
        m = index_metrics(index)
        assert m.singleton_extents == g.num_nodes


def test_self_loop_through_whole_stack():
    g = graph_from_edges(["a"], [(0, 1), (1, 1)])
    dk = DKIndex.build(g, {"a": 2})
    dk.check_invariants()
    q = make_query("a.a.a")
    assert dk.evaluate(q) == evaluate_on_data_graph(g, q) == {1}


# ------------------------- xml round trips -----------------------------


def test_graph_to_xml_multiple_top_elements():
    from repro.graph.xmlio import XmlOptions

    g = DataGraph()
    a, b = g.add_node("a"), g.add_node("b")
    g.add_edge(g.root, a)
    g.add_edge(g.root, b)
    text = graph_to_xml(g)
    assert text.startswith("<document>")
    reparsed = parse_xml(text, XmlOptions(keep_values=False))
    # The synthetic <document> wrapper adds one node.
    assert reparsed.num_nodes == g.num_nodes + 1


def test_index_graph_duck_typing_for_traversal():
    # IndexGraph satisfies the Adjacency protocol used by traversal.
    from repro.graph.traversal import reachable_from

    g = graph_from_edges(["a", "b"], [(0, 1), (1, 2)])
    index = build_labelsplit_index(g)
    reached = reachable_from(index, [index.root_index_node])
    assert reached == set(range(index.num_nodes))


# ------------------------- misuse handling -----------------------------


def test_from_partition_rejects_int_mismatch():
    g = graph_from_edges(["a"], [(0, 1)])
    from repro.partition.refinement import label_partition
    from repro.exceptions import IndexInvariantError

    with pytest.raises(IndexInvariantError):
        IndexGraph.from_partition(g, label_partition(g), [1, 2, 3])


def test_evaluate_on_index_rejects_unknown_query_type():
    from repro.indexes.evaluation import evaluate_on_index

    g = graph_from_edges(["a"], [(0, 1)])
    index = build_labelsplit_index(g)
    with pytest.raises(TypeError):
        evaluate_on_index(index, object())


def test_evaluate_on_data_graph_rejects_unknown_query_type():
    g = graph_from_edges(["a"], [(0, 1)])
    with pytest.raises(TypeError):
        evaluate_on_data_graph(g, "not-a-query")
