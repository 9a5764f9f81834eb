"""Unit tests for :mod:`repro.graph.serialize`."""

import base64
import io
import json
import sys
from array import array

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import small_graphs
from repro.core.dindex import DKIndex
from repro.exceptions import (
    FrozenGraphError,
    GraphError,
    ReproError,
    SerializationError,
)
from repro.graph.builder import graph_from_edges
from repro.graph.datagraph import DataGraph
from repro.graph.serialize import (
    dumps,
    frozen_from_dict,
    frozen_to_dict,
    graph_from_dict,
    graph_to_dict,
    load_frozen_graph,
    load_graph,
    loads,
    save_frozen_graph,
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
    assert data["version"] == 1
    assert data["labels"][data["nodes"][0]] == "ROOT"


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
    data = graph_to_dict(sample())
    data["edges"].append([1])
    with pytest.raises(SerializationError):
        graph_from_dict(data)


def test_rejects_edge_to_unknown_node():
    data = graph_to_dict(sample())
    data["edges"].append([0, 999])
    with pytest.raises(SerializationError):
        graph_from_dict(data)


def test_rejects_duplicate_edge():
    data = graph_to_dict(sample())
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
# Frozen documents: endianness and seal state
# ----------------------------------------------------------------------


def _forge_opposite_endian(data):
    """Rewrite a frozen document as a foreign-endian producer would.

    Every buffer's base64 payload is byte-swapped and the byteorder
    stamp flipped — exactly the document a host of the other endianness
    writes for the same graph.
    """
    forged = dict(data)
    forged["byteorder"] = "big" if sys.byteorder == "little" else "little"
    swapped_buffers = {}
    for name, text in data["buffers"].items():
        values = array("q")
        values.frombytes(base64.b64decode(text))
        values.byteswap()
        swapped_buffers[name] = base64.b64encode(values.tobytes()).decode(
            "ascii"
        )
    forged["buffers"] = swapped_buffers
    return forged


def test_opposite_endian_payload_round_trips_bit_identically():
    # Regression: a frozen file written on a foreign-endian host must
    # load byte-swapped, not be rejected or (worse) misread.  Loading
    # the forged document and re-serializing natively must reproduce
    # the original native document exactly.
    graph = sample()
    native = frozen_to_dict(graph)
    forged = _forge_opposite_endian(native)
    assert forged["buffers"] != native["buffers"]  # the forgery is real

    restored = frozen_from_dict(forged)
    assert sorted(restored.edges()) == sorted(graph.edges())
    view, original = restored.freeze(), graph.freeze()
    for name in ("label_ids", "child_offsets", "child_targets",
                 "parent_offsets", "parent_targets"):
        assert getattr(view, name) == getattr(original, name)
    assert frozen_to_dict(restored)["buffers"] == native["buffers"]


def test_frozen_round_trip_random_graphs_survive_forged_endianness():
    for seed_edges in ([(0, 1)], [(0, 1), (1, 2), (0, 2)]):
        graph = graph_from_edges(["x", "y"], seed_edges)
        restored = frozen_from_dict(
            _forge_opposite_endian(frozen_to_dict(graph))
        )
        assert sorted(restored.edges()) == sorted(graph.edges())


def test_frozen_round_trip_preserves_seal(tmp_path):
    graph = sample()
    graph.freeze(mode="seal")
    path = tmp_path / "frozen.json"
    save_frozen_graph(graph, path)

    loaded = load_frozen_graph(path)
    assert loaded.sealed
    with pytest.raises(FrozenGraphError):
        loaded.add_node("z")
    loaded.thaw()
    loaded.add_node("z")  # mutable again after the explicit thaw
    assert loaded.num_nodes == graph.num_nodes + 1


def test_frozen_round_trip_unsealed_stays_mutable(tmp_path):
    graph = sample()
    graph.freeze()  # snapshot without sealing
    path = tmp_path / "frozen.json"
    save_frozen_graph(graph, path)
    loaded = load_frozen_graph(path)
    assert not loaded.sealed
    loaded.add_node("z")


def test_frozen_sealed_flag_defaults_to_unsealed():
    # Version-1 documents written before the flag existed load mutable.
    data = frozen_to_dict(sample())
    del data["sealed"]
    assert not frozen_from_dict(data).sealed


def test_paged_manifest_rejected_by_inline_loader():
    data = frozen_to_dict(sample())
    data["version"] = 2  # a paged manifest: buffers live in page files
    with pytest.raises(SerializationError, match="PagedCSRGraph.open"):
        frozen_from_dict(data)


def test_frozen_rejects_invalid_byteorder():
    data = frozen_to_dict(sample())
    data["byteorder"] = "middle"
    with pytest.raises(SerializationError, match="byteorder"):
        frozen_from_dict(data)


def test_frozen_rejects_ragged_buffer():
    data = frozen_to_dict(sample())
    raw = base64.b64decode(data["buffers"]["child_targets"])
    data["buffers"]["child_targets"] = base64.b64encode(raw[:-3]).decode(
        "ascii"
    )
    with pytest.raises(SerializationError, match="64-bit"):
        frozen_from_dict(data)


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
    data = graph_to_dict(sample())
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
    for src, dst in data["edges"]:
        graph.add_edge(src, dst)
    return graph


@st.composite
def graph_documents(draw):
    """Well-formed documents: labels in any order (ROOT anywhere, names
    possibly repeated or unused) and edges in any order."""
    labels = draw(st.lists(st.sampled_from("abcd"), max_size=5))
    labels.insert(draw(st.integers(min_value=0, max_value=len(labels))), "ROOT")
    label_ids = st.integers(min_value=0, max_value=len(labels) - 1)
    nodes = [labels.index("ROOT")] + draw(st.lists(label_ids, max_size=12))
    node_ids = st.integers(min_value=0, max_value=len(nodes) - 1)
    edges = draw(st.lists(st.tuples(node_ids, node_ids), unique=True, max_size=30))
    return {
        "format": "repro-datagraph",
        "version": 1,
        "labels": labels,
        "nodes": nodes,
        "edges": [list(edge) for edge in edges],
    }


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
    # The frozen view's rebuild takes the same bulk path.
    restored = loaded.freeze().to_datagraph(list(loaded.label_names()))
    assert sorted(restored.edges()) == sorted(expected.edges())
    assert restored.label_ids == expected.label_ids
    assert [sorted(ins) for ins in restored.parents] == [
        sorted(ins) for ins in expected.parents
    ]


@given(graph_documents())
def test_bulk_decoded_graph_mutates_like_any_other(data):
    loaded = graph_from_dict(data)
    expected = reference_build(data)
    for src, dst in data["edges"][:3]:
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
    """Arbitrary text, or a valid document cut short anywhere."""
    if draw(st.booleans()):
        return draw(st.text())
    document = draw(st.sampled_from(VALID_TEXTS))
    return document[: draw(st.integers(0, len(document)))]


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
