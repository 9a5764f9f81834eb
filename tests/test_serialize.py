"""Unit tests for :mod:`repro.graph.serialize`."""

import io
import json
import sys
from array import array

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import json_values, small_graphs
from repro.core.dindex import DKIndex
from repro.exceptions import GraphError, ReproError, SerializationError
from repro.graph.builder import graph_from_edges
from repro.graph.datagraph import DataGraph
from repro.graph.columnar import BUFFER_TYPECODE
from repro.graph.serialize import (
    buffer_from_bytes,
    buffer_to_bytes,
    dumps,
    graph_from_dict,
    graph_to_dict,
    load_graph,
    loads,
    save_graph,
)
from repro.graph.xmlio import parse_xml, parse_xml_file
from repro.indexes.serialize import index_to_dict, load_dk_index, load_index
from repro.maintenance.store import seal
from repro.paths.query import make_query
from repro.workload.queryload import QueryLoad
from repro.workload.serialize import load_query_load, load_to_dict


def sample():
    return graph_from_edges(["a", "b", "a"], [(0, 1), (1, 2), (0, 3), (3, 2)])


def version_1(graph):
    """``graph`` as a version-1 document: one ``[src, dst]`` per edge."""
    return {
        "format": "repro-datagraph",
        "version": 1,
        "labels": list(graph.label_names()),
        "nodes": list(graph.label_ids),
        "edges": [[src, dst] for src, dst in graph.edges()],
    }


def test_roundtrip_string():
    g = sample()
    restored = loads(dumps(g))
    assert restored.num_nodes == g.num_nodes
    assert sorted(restored.edges()) == sorted(g.edges())
    assert [restored.label(i) for i in restored.nodes()] == [
        g.label(i) for i in g.nodes()
    ]


def test_roundtrip_file(tmp_path):
    g = sample()
    path = tmp_path / "graph.json"
    save_graph(g, path)
    restored = load_graph(path)
    assert sorted(restored.edges()) == sorted(g.edges())


def test_dict_shape():
    data = graph_to_dict(sample())
    assert data["format"] == "repro-datagraph"
    assert data["version"] == 2
    assert data["labels"][data["nodes"][0]] == "ROOT"
    assert list(zip(data["sources"], data["targets"])) == list(sample().edges())


def test_rejects_wrong_format():
    data = graph_to_dict(sample())
    data["format"] = "nope"
    with pytest.raises(SerializationError):
        graph_from_dict(data)


def test_rejects_wrong_version():
    data = graph_to_dict(sample())
    data["version"] = 99
    with pytest.raises(SerializationError):
        graph_from_dict(data)


def test_rejects_bad_root():
    data = graph_to_dict(sample())
    data["nodes"][0] = 1  # not the ROOT label id
    with pytest.raises(SerializationError):
        graph_from_dict(data)


def test_rejects_out_of_range_label():
    data = graph_to_dict(sample())
    data["nodes"].append(999)
    with pytest.raises(SerializationError):
        graph_from_dict(data)


def test_rejects_malformed_edge():
    data = version_1(sample())
    data["edges"].append([1])
    with pytest.raises(SerializationError):
        graph_from_dict(data)


def test_rejects_edge_to_unknown_node():
    data = version_1(sample())
    data["edges"].append([0, 999])
    with pytest.raises(SerializationError):
        graph_from_dict(data)


def test_rejects_duplicate_edge():
    data = version_1(sample())
    data["edges"].append(data["edges"][0])
    with pytest.raises(SerializationError):
        graph_from_dict(data)


def test_rejects_non_object():
    with pytest.raises(SerializationError):
        graph_from_dict([1, 2, 3])


def test_rejects_empty_nodes():
    data = graph_to_dict(sample())
    data["nodes"] = []
    with pytest.raises(SerializationError):
        graph_from_dict(data)


def test_json_is_plain():
    text = dumps(sample())
    parsed = json.loads(text)
    assert isinstance(parsed, dict)


# ----------------------------------------------------------------------
# Graph documents: version 2 against version 1
# ----------------------------------------------------------------------


def test_version_1_document_loads_to_the_same_graph():
    for graph in (sample(), graph_from_edges(["x"], [(0, 1)])):
        from_v1 = graph_from_dict(json.loads(json.dumps(version_1(graph))))
        from_v2 = graph_from_dict(json.loads(json.dumps(graph_to_dict(graph))))
        assert_same_graph(from_v1, graph)
        assert_same_graph(from_v2, graph)


def with_arrays(sources, targets):
    data = graph_to_dict(sample())
    data["sources"], data["targets"] = sources, targets
    return data


@pytest.mark.parametrize(
    "data, message",
    [
        (with_arrays([0, 0, 1, 3], [1, 3, 2]), "differ in length"),
        (with_arrays([0, 0, 1, 3, 0], [1, 3, 2, 2, 1]), "corrupt graph document"),
        (with_arrays([0, 0, 1, 3, 0], [1, 3, 2, 2, 999]), "unknown node"),
        (with_arrays([0, 0, 1, -1], [1, 3, 2, 2]), "unknown node"),
        (with_arrays([0, 0, True, 3], [1, 3, 2, 2]), "node ids"),
        (with_arrays([0, 0, 1, 3], [1, 3, 2.0, 2]), "node ids"),
        (with_arrays([[0, 1]], [1]), "node ids"),
        (with_arrays(None, [1, 3, 2, 2]), "node ids"),
        ({**graph_to_dict(sample()), "version": True}, "version"),
        ({**version_1(sample()), "edges": None}, "'edges' must be a list"),
    ],
)
def test_rejects_bad_edge_arrays(data, message):
    with pytest.raises(SerializationError, match=message):
        graph_from_dict(json.loads(json.dumps(data)))


# ----------------------------------------------------------------------
# Frozen buffers: the byte-order doors of the paged store
# ----------------------------------------------------------------------


def test_opposite_endian_payload_round_trips_bit_identically():
    # Regression: a page written on a foreign-endian host must load
    # byte-swapped, not be rejected or (worse) misread, and encoding a
    # native buffer for that host must produce exactly its bytes.
    view = sample().freeze()
    foreign = "big" if sys.byteorder == "little" else "little"
    for name in ("label_ids", "child_offsets", "child_targets",
                 "parent_offsets", "parent_targets"):
        native = getattr(view, name)
        swapped = array(BUFFER_TYPECODE, native)
        swapped.byteswap()
        raw = buffer_to_bytes(native, foreign)
        assert raw == swapped.tobytes() != native.tobytes()  # forgery is real
        assert buffer_from_bytes(name, raw, foreign) == native
        assert buffer_to_bytes(native, sys.byteorder) == native.tobytes()
        assert buffer_from_bytes(name, native.tobytes(), sys.byteorder) == native


def test_frozen_rejects_ragged_buffer():
    raw = buffer_to_bytes(sample().freeze().child_targets, sys.byteorder)
    with pytest.raises(SerializationError, match="64-bit"):
        buffer_from_bytes("child_targets", raw[:-3], sys.byteorder)


@given(small_graphs())
def test_roundtrip_random_graphs(graph):
    restored = loads(dumps(graph))
    assert restored.num_nodes == graph.num_nodes
    assert restored.num_edges == graph.num_edges
    assert sorted(restored.edges()) == sorted(graph.edges())
    assert [restored.label(i) for i in restored.nodes()] == [
        graph.label(i) for i in graph.nodes()
    ]


# ----------------------------------------------------------------------
# Malformed label ids and JSON booleans
# ----------------------------------------------------------------------


def test_rejects_root_label_id_outside_labels():
    data = graph_to_dict(sample())
    data["nodes"][0] = len(data["labels"])  # read before any range check
    with pytest.raises(SerializationError, match="out of range"):
        graph_from_dict(data)


def test_rejects_negative_root_label_id():
    # labels[-1] is "ROOT": negative indexing must not make it valid.
    data = {
        "format": "repro-datagraph",
        "version": 1,
        "labels": ["a", "ROOT"],
        "nodes": [-1, 0],
        "edges": [[0, 1]],
    }
    with pytest.raises(SerializationError, match="out of range"):
        graph_from_dict(data)


@pytest.mark.parametrize("position", [0, 1])
def test_rejects_boolean_label_ids(position):
    data = graph_to_dict(sample())
    data["nodes"][position] = bool(data["nodes"][position])
    with pytest.raises(SerializationError, match="label ids"):
        graph_from_dict(json.loads(json.dumps(data)))


@pytest.mark.parametrize("endpoint", [0, 1])
def test_rejects_boolean_edge_endpoints(endpoint):
    data = version_1(sample())
    data["edges"].append([1, 3])
    data["edges"][-1][endpoint] = True
    with pytest.raises(SerializationError, match="malformed edge"):
        graph_from_dict(json.loads(json.dumps(data)))


# ----------------------------------------------------------------------
# Bulk construction against a per-element build
# ----------------------------------------------------------------------


def reference_build(data):
    """The graph an ``add_node`` / ``add_edge`` loop builds from a
    well-formed ``repro-datagraph`` document."""
    graph = DataGraph()
    for name in data["labels"]:
        graph.intern_label(name)
    for label_id in data["nodes"][1:]:
        graph.add_node(data["labels"][label_id])
    for src, dst in document_edges(data):
        graph.add_edge(src, dst)
    return graph


@st.composite
def graph_documents(draw):
    """Well-formed documents of either version: labels in any order
    (ROOT anywhere, names possibly repeated or unused) and edges in any
    order."""
    labels = draw(st.lists(st.sampled_from("abcd"), max_size=5))
    labels.insert(draw(st.integers(min_value=0, max_value=len(labels))), "ROOT")
    label_ids = st.integers(min_value=0, max_value=len(labels) - 1)
    nodes = [labels.index("ROOT")] + draw(st.lists(label_ids, max_size=12))
    node_ids = st.integers(min_value=0, max_value=len(nodes) - 1)
    edges = draw(st.lists(st.tuples(node_ids, node_ids), unique=True, max_size=30))
    data = {"format": "repro-datagraph", "labels": labels, "nodes": nodes}
    if draw(st.booleans()):
        data.update(version=1, edges=[list(edge) for edge in edges])
    else:
        data.update(
            version=2,
            sources=[src for src, _ in edges],
            targets=[dst for _, dst in edges],
        )
    return data


def document_edges(data):
    """``(src, dst)`` of every edge of a document of either version."""
    if data["version"] == 1:
        return [tuple(edge) for edge in data["edges"]]
    return list(zip(data["sources"], data["targets"]))


def assert_same_graph(loaded, expected):
    assert loaded.label_ids == expected.label_ids
    assert loaded.children == expected.children
    assert loaded.parents == expected.parents
    assert loaded.num_edges == expected.num_edges
    assert loaded.label_names() == expected.label_names()


@given(graph_documents())
def test_bulk_decode_matches_a_per_element_build(data):
    loaded = graph_from_dict(data)
    expected = reference_build(data)
    assert_same_graph(loaded, expected)


@given(graph_documents())
def test_bulk_decoded_graph_mutates_like_any_other(data):
    loaded = graph_from_dict(data)
    expected = reference_build(data)
    for src, dst in document_edges(data)[:3]:
        with pytest.raises(GraphError):
            loaded.add_edge(src, dst)
    view = loaded.freeze()
    node = loaded.add_node("z")
    assert expected.add_node("z") == node
    loaded.add_edge(0, node)
    expected.add_edge(0, node)
    assert loaded.has_edge(0, node)
    rebuilt = loaded.freeze()
    assert rebuilt is not view
    assert rebuilt.num_nodes == view.num_nodes + 1
    assert rebuilt.num_edges == view.num_edges + 1
    assert_same_graph(loaded, expected)


@given(graph_documents(), st.data())
def test_mutated_documents_of_either_version_raise_only_typed_errors(data, draw):
    # One field of a valid document replaced by an arbitrary JSON value:
    # the loader returns a graph or raises SerializationError.
    key = draw.draw(st.sampled_from(sorted(data) + ["edges", "sources"]))
    data[key] = draw.draw(json_values)
    try:
        graph_from_dict(json.loads(json.dumps(data)))
    except SerializationError:
        pass


# ----------------------------------------------------------------------
# Every text entry point fails with a typed error
# ----------------------------------------------------------------------


def _valid_texts():
    """One valid document per entry point, as a saved file holds it."""
    graph = graph_from_edges(
        ["site", "person", "item", "person"], [(0, 1), (1, 2), (0, 3), (3, 2)]
    )
    dk = DKIndex.build(graph, {"item": 1})
    load = QueryLoad()
    load.add(make_query("site.person.item"), 2)
    documents = [
        graph_to_dict(graph),
        index_to_dict(dk.index, requirements=dk.requirements),
        load_to_dict(load),
    ]
    xml = '<site><person id="p1"><item idref="p2"/></person><person id="p2"/></site>'
    return [seal(json.dumps(document)) for document in documents] + [xml]


VALID_TEXTS = _valid_texts()

TEXT_ENTRY_POINTS = {
    "load_graph": lambda text: load_graph(io.StringIO(text)),
    "load_index": lambda text: load_index(io.StringIO(text)),
    "load_dk_index": lambda text: load_dk_index(io.StringIO(text)),
    "load_query_load": lambda text: load_query_load(io.StringIO(text)),
    "parse_xml": parse_xml,
    "parse_xml_file": lambda text: parse_xml_file(io.BytesIO(text.encode())),
}


@st.composite
def loader_texts(draw):
    """Arbitrary text, or a valid document or an XML document nested
    thousands of elements deep, cut short anywhere."""
    kind = draw(st.sampled_from(["text", "valid", "deep"]))
    if kind == "text":
        return draw(st.text())
    if kind == "deep":
        depth = draw(st.integers(1_000, 5_000))
        document = "<a>" * depth + "</a>" * depth
    else:
        document = draw(st.sampled_from(VALID_TEXTS))
    cut = st.integers(0, len(document))
    return document[: draw(st.one_of(st.just(len(document)), cut))]


@given(loader_texts())
@settings(max_examples=150, deadline=None)
def test_text_entry_points_return_or_raise_typed_errors(text):
    for load in TEXT_ENTRY_POINTS.values():
        try:
            load(text)
        except ReproError:
            pass


@pytest.mark.parametrize("name", sorted(TEXT_ENTRY_POINTS))
def test_valid_documents_load_through_every_entry_point(name):
    # The fuzz above is vacuous if nothing ever loads.
    loaded = 0
    for text in VALID_TEXTS:
        try:
            TEXT_ENTRY_POINTS[name](text)
            loaded += 1
        except ReproError:
            pass
    assert loaded == 1


def test_stream_and_path_loads_fail_alike(tmp_path):
    path = tmp_path / "doc.json"
    path.write_text("{", encoding="utf-8")
    for load in (load_graph, load_index, load_dk_index, load_query_load):
        with pytest.raises(SerializationError, match="not valid JSON"):
            load(path)
        with pytest.raises(SerializationError, match="not valid JSON"):
            load(io.StringIO("{"))


def test_parse_xml_file_read_failures_are_typed(tmp_path):
    with pytest.raises(SerializationError, match="cannot read"):
        parse_xml_file(str(tmp_path / "missing.xml"))
    malformed = tmp_path / "bad.xml"
    malformed.write_text("<a><b></a>", encoding="utf-8")
    with pytest.raises(SerializationError, match="cannot parse XML"):
        parse_xml_file(str(malformed))


#: JSON that ``json.loads`` itself refuses with something other than a
#: ``JSONDecodeError``: an integer literal past Python's 4,300-digit
#: conversion limit (a plain ``ValueError``) and nesting past the
#: recursion limit (a ``RecursionError``).
LONG_INT = "1" * 5000
DEEP = "[" * 100_000 + "]" * 100_000

UNDECODABLE_TEXTS = {
    "long-int-body": '{"format": ' + LONG_INT + "}",
    "long-int-sealed-body": seal('{"format": ' + LONG_INT + "}"),
    "long-int-footer": '{"format": 1}\n{"format": ' + LONG_INT + "}\n",
    "deep-body": DEEP,
    "deep-footer": '{"format": 1}\n' + DEEP + "\n",
}


@pytest.mark.parametrize("text", UNDECODABLE_TEXTS.values(), ids=UNDECODABLE_TEXTS)
@pytest.mark.parametrize(
    "load", [load_graph, load_index, load_dk_index, load_query_load],
    ids=lambda load: load.__name__,
)
def test_undecodable_json_is_a_serialization_error(load, text):
    with pytest.raises(SerializationError):
        load(io.StringIO(text))
