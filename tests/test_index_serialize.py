"""Tests for :mod:`repro.indexes.serialize`."""

import io
import json

import pytest

from repro.core.dindex import DKIndex
from repro.exceptions import SerializationError
from repro.graph.builder import graph_from_edges
from repro.indexes.akindex import build_ak_index
from repro.indexes.serialize import (
    index_from_dict,
    index_to_dict,
    load_dk_index,
    load_index,
    save_dk_index,
    save_index,
)


def sample_graph():
    return graph_from_edges(
        ["a", "b", "x", "x"], [(0, 1), (0, 2), (1, 3), (2, 4)]
    )


def test_roundtrip_embedded_graph(tmp_path):
    g = sample_graph()
    index = build_ak_index(g, 2)
    path = tmp_path / "index.json"
    save_index(index, path)
    restored, requirements = load_index(path)
    assert requirements is None
    assert restored.to_partition() == index.to_partition()
    assert restored.k == index.k
    assert restored.num_edges == index.num_edges


def test_roundtrip_external_graph():
    g = sample_graph()
    index = build_ak_index(g, 1)
    buffer = io.StringIO()
    save_index(index, buffer, embed_graph=False)
    buffer.seek(0)
    restored, _ = load_index(buffer, graph=g)
    assert restored.to_partition() == index.to_partition()


def test_load_without_graph_fails():
    g = sample_graph()
    index = build_ak_index(g, 1)
    buffer = io.StringIO()
    save_index(index, buffer, embed_graph=False)
    buffer.seek(0)
    with pytest.raises(SerializationError):
        load_index(buffer)


def test_load_with_conflicting_graph_fails():
    g = sample_graph()
    index = build_ak_index(g, 1)
    buffer = io.StringIO()
    save_index(index, buffer)
    buffer.seek(0)
    with pytest.raises(SerializationError):
        load_index(buffer, graph=g)


def test_corrupt_node_of_rejected():
    g = sample_graph()
    data = index_to_dict(build_ak_index(g, 1))
    data["node_of"] = data["node_of"][:-1]
    with pytest.raises(SerializationError):
        index_from_dict(data)


def test_label_mixing_rejected():
    g = sample_graph()
    data = index_to_dict(build_ak_index(g, 1))
    data["node_of"] = [0] * g.num_nodes  # everything in one block
    data["k"] = [0]
    with pytest.raises(SerializationError):
        index_from_dict(data)


def test_negative_k_rejected():
    g = sample_graph()
    data = index_to_dict(build_ak_index(g, 1))
    data["k"] = [-1] * len(data["k"])
    with pytest.raises(SerializationError):
        index_from_dict(data)


@pytest.mark.parametrize("bad", [-1, True, 2**63])
def test_bad_requirement_values_rejected(bad):
    # A JSON true would load as the requirement 1, a negative one would
    # fail later, in promote, as a raw ValueError, and one past int64
    # would overflow the first int64 copy of the index's ``k``.
    dk = DKIndex.build(sample_graph(), {"x": 2})
    data = index_to_dict(dk.index, requirements={"x": bad})
    with pytest.raises(SerializationError, match="requirements"):
        index_from_dict(data)


def test_k_past_int64_rejected():
    # Freezing the index copies ``k`` into an int64 buffer, which would
    # raise a raw OverflowError long after the load.
    data = index_to_dict(build_ak_index(sample_graph(), 1))
    data["k"][0] = 2**63
    with pytest.raises(SerializationError, match="'k'"):
        index_from_dict(data)
    data["k"][0] = 2**63 - 1
    index, _ = index_from_dict(data, validate=False)
    assert index.freeze().k[0] == 2**63 - 1


def test_boolean_k_rejected():
    data = index_to_dict(build_ak_index(sample_graph(), 1))
    data["k"][0] = True
    with pytest.raises(SerializationError, match="'k'"):
        index_from_dict(data)


@pytest.mark.parametrize("bad", ["a", 1.5, None, 10**12])
def test_bad_block_id_rejected(bad):
    # 10**12 is an int, but no partition of five nodes has that many
    # blocks; it must be refused before any per-block allocation.
    data = index_to_dict(build_ak_index(sample_graph(), 1))
    data["node_of"][1] = bad
    with pytest.raises(SerializationError):
        index_from_dict(data)


def test_wrong_format_rejected():
    with pytest.raises(SerializationError):
        index_from_dict({"format": "nope"})
    with pytest.raises(SerializationError):
        index_from_dict([1, 2])


def test_dk_roundtrip(tmp_path):
    g = sample_graph()
    dk = DKIndex.build(g, {"x": 2})
    path = tmp_path / "dk.json"
    save_dk_index(dk, path)
    restored = load_dk_index(path)
    assert restored.requirements == {"x": 2}
    assert restored.size == dk.size
    assert restored.index.k == dk.index.k
    restored.check_invariants()


def test_dk_constraint_checked_on_load(tmp_path):
    g = sample_graph()
    dk = DKIndex.build(g, {"x": 2})
    path = tmp_path / "dk.json"
    save_dk_index(dk, path)
    from repro.maintenance.store import seal, unseal

    body, _sealed = unseal(path.read_text(), str(path))
    data = json.loads(body)
    data["k"] = [0] * len(data["k"])
    data["k"][-1] = 5  # violates Definition 3 somewhere
    path.write_text(seal(json.dumps(data)))
    with pytest.raises(SerializationError):
        load_dk_index(path)


def test_dk_roundtrip_preserves_answers(tmp_path):
    from repro.paths.query import make_query

    g = sample_graph()
    dk = DKIndex.build(g, {"x": 1})
    path = tmp_path / "dk.json"
    save_dk_index(dk, path)
    restored = load_dk_index(path)
    q = make_query("a.x")
    assert restored.evaluate(q) == dk.evaluate(q)
