"""Unit tests for :mod:`repro.graph.xmlio`."""

import pytest

from repro.exceptions import GraphError
from repro.graph.xmlio import XmlOptions, graph_to_xml, parse_xml, parse_xml_file


NO_VALUES = XmlOptions(keep_values=False)


def test_elements_become_labeled_nodes():
    g = parse_xml("<db><movie><title>Heat</title></movie></db>", NO_VALUES)
    assert g.nodes_with_label("db") == [1]
    assert g.nodes_with_label("movie") == [2]
    assert g.nodes_with_label("title") == [3]
    assert g.has_edge(1, 2) and g.has_edge(2, 3)


def test_text_becomes_value_node():
    g = parse_xml("<db><t>x</t></db>")
    values = g.nodes_with_label("VALUE")
    assert len(values) == 1
    t = g.nodes_with_label("t")[0]
    assert g.has_edge(t, values[0])


def test_tail_text_becomes_value_node():
    g = parse_xml("<db><a/>tail</db>")
    values = g.nodes_with_label("VALUE")
    db = g.nodes_with_label("db")[0]
    assert len(values) == 1
    assert g.has_edge(db, values[0])


def test_whitespace_only_text_ignored():
    g = parse_xml("<db>\n  <a/>\n</db>")
    assert g.nodes_with_label("VALUE") == []


def test_attributes_become_child_nodes():
    g = parse_xml('<db><m year="1995"/></db>', NO_VALUES)
    year = g.nodes_with_label("year")
    assert len(year) == 1
    m = g.nodes_with_label("m")[0]
    assert g.has_edge(m, year[0])


def test_attribute_values_get_value_nodes():
    g = parse_xml('<db><m year="1995"/></db>')
    year = g.nodes_with_label("year")[0]
    assert any(g.label(c) == "VALUE" for c in g.children[year])


def test_idref_creates_reference_edge():
    g = parse_xml('<db><m id="m1"/><ref idref="m1"/></db>', NO_VALUES)
    m = g.nodes_with_label("m")[0]
    ref = g.nodes_with_label("ref")[0]
    assert g.has_edge(ref, m)


def test_idrefs_creates_multiple_edges():
    g = parse_xml(
        '<db><m id="m1"/><m id="m2"/><ref idrefs="m1 m2"/></db>', NO_VALUES
    )
    ref = g.nodes_with_label("ref")[0]
    assert len(g.children[ref]) == 2


def test_duplicate_id_rejected():
    with pytest.raises(GraphError):
        parse_xml('<db><a id="x"/><b id="x"/></db>')


def test_dangling_idref_dropped_by_default():
    g = parse_xml('<db><ref idref="missing"/></db>', NO_VALUES)
    ref = g.nodes_with_label("ref")[0]
    assert g.children[ref] == ()


def test_dangling_idref_strict():
    options = XmlOptions(keep_values=False, strict_refs=True)
    with pytest.raises(GraphError):
        parse_xml('<db><ref idref="missing"/></db>', options)


def test_namespace_prefixes_stripped():
    g = parse_xml('<db xmlns:x="urn:x"><x:item/></db>', NO_VALUES)
    assert g.nodes_with_label("item") != []


def test_forward_reference_resolves():
    g = parse_xml('<db><ref idref="late"/><m id="late"/></db>', NO_VALUES)
    ref = g.nodes_with_label("ref")[0]
    m = g.nodes_with_label("m")[0]
    assert g.has_edge(ref, m)


def test_keep_attributes_false():
    options = XmlOptions(keep_values=False, keep_attributes=False)
    g = parse_xml('<db><m year="1995"/></db>', options)
    assert not g.has_label("year")


def test_roundtrip_through_xml():
    original = parse_xml(
        '<db><m id="m1"><t/></m><ref idref="m1"/></db>', NO_VALUES
    )
    text = graph_to_xml(original)
    reparsed = parse_xml(text, NO_VALUES)
    assert reparsed.num_nodes == original.num_nodes
    assert reparsed.num_edges == original.num_edges
    assert sorted(
        (reparsed.label(s), reparsed.label(d)) for s, d in reparsed.edges()
    ) == sorted((original.label(s), original.label(d)) for s, d in original.edges())


def test_roundtrip_random_graphs_isomorphic():
    from hypothesis import given, settings

    from conftest import small_graphs
    from repro.partition.refinement import bisim_partition

    @given(small_graphs(max_nodes=10, labels="abc"))
    @settings(max_examples=60, deadline=None)
    def run(graph):
        text = graph_to_xml(graph)
        reparsed = parse_xml(text, NO_VALUES)
        # Graphs whose root has several tree children render inside a
        # synthetic <document> wrapper element: one extra node and the
        # root edges re-routed through it.
        wrapped = text.startswith("<document>")
        wrapper_nodes = 1 if wrapped else 0
        assert reparsed.num_nodes == graph.num_nodes + wrapper_nodes
        if not wrapped:
            assert reparsed.num_edges == graph.num_edges
            assert sorted(
                (graph.label(s), graph.label(d)) for s, d in graph.edges()
            ) == sorted(
                (reparsed.label(s), reparsed.label(d))
                for s, d in reparsed.edges()
            )
            # Same bisimulation structure: a strong isomorphism proxy.
            assert (
                bisim_partition(graph)[0].num_blocks
                == bisim_partition(reparsed)[0].num_blocks
            )

    run()


def test_graph_to_xml_rejects_unreachable():
    from repro.graph.datagraph import DataGraph

    g = DataGraph()
    g.add_node("orphan")  # never connected
    with pytest.raises(GraphError):
        graph_to_xml(g)


DEPTH = 5000


def nested_document(depth):
    """``depth`` nested ``<a>`` elements: the innermost holds text, and
    every closing tag but the document's is followed by tail text."""
    return "<a>" * depth + "x" + "</a>t" * (depth - 1) + "</a>"


def test_deeply_nested_document_parses(tmp_path):
    text = nested_document(DEPTH)
    path = tmp_path / "deep.xml"
    path.write_text(text, encoding="utf-8")
    for graph in (parse_xml(text), parse_xml_file(str(path))):
        # Nodes 1..DEPTH are the elements, level by level; then the
        # text's VALUE, then one VALUE per tail, innermost first, each
        # below the parent of the element it follows.
        assert graph.num_nodes == 2 * DEPTH + 1
        assert [graph.label(node) for node in range(1, DEPTH + 1)] == ["a"] * DEPTH
        assert graph.children[DEPTH] == (DEPTH + 1,)
        for level in range(1, DEPTH):
            assert graph.children[level] == (level + 1, 2 * DEPTH + 1 - level)
