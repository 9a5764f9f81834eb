"""The frozen columnar (CSR) view: buffers, freeze contract, persistence.

Covers the tentpole invariants of ``repro.graph.columnar``:

- CSR buffers agree with the mutable adjacency in both directions, and
  an index graph's view holds its adjacency sorted;
- the freeze/invalidation contract — ``freeze()`` caches the view, any
  structural mutation drops it, and the mutation version counts every
  structural change;
- a paged snapshot written on a host of the other endianness loads
  byte-swapped.
"""

import sys
from types import SimpleNamespace

import pytest
from hypothesis import given, settings

from conftest import small_graphs
from repro.exceptions import GraphError
from repro.graph.columnar import BUFFER_TYPECODE, CSRGraph, flatten_adjacency
from repro.graph.datagraph import DataGraph
from repro.indexes.base import IndexGraph
from repro.partition.refinement import bisim_partition
from test_engine_equivalence import cyclic_idref_graph


def movie_like_graph():
    g = DataGraph()
    db = g.add_node("db")
    g.add_edge(g.root, db)
    movies = [g.add_node("movie") for _ in range(3)]
    actors = [g.add_node("actor") for _ in range(2)]
    for m in movies:
        g.add_edge(db, m)
    for a in actors:
        g.add_edge(db, a)
        for m in movies[:2]:
            g.add_edge(a, m)  # shared subtrees: movies get many parents
    return g


# ----------------------------------------------------------------------
# CSR buffer correctness
# ----------------------------------------------------------------------


def test_flatten_adjacency_offsets_and_sort():
    offsets, targets = flatten_adjacency([[2, 1], [], [0]])
    assert list(offsets) == [0, 2, 2, 3]
    assert list(targets) == [2, 1, 0]
    sorted_offsets, sorted_targets = flatten_adjacency(
        [{2, 1}, set(), {0}], sort=True
    )
    assert list(sorted_offsets) == [0, 2, 2, 3]
    assert list(sorted_targets) == [1, 2, 0]


def test_freeze_matches_mutable_adjacency():
    g = movie_like_graph()
    view = g.freeze()
    assert view.num_nodes == g.num_nodes
    assert view.num_edges == g.num_edges
    assert view.num_labels == g.num_labels
    for node in g.nodes():
        assert list(view.children(node)) == list(g.children[node])
        assert list(view.parents(node)) == list(g.parents[node])
        assert view.out_degree(node) == len(g.children[node])
        assert view.in_degree(node) == len(g.parents[node])
        assert view.label_ids[node] == g.label_ids[node]
    view.check_invariants()
    assert len(view) == g.num_nodes
    assert repr(view) == (
        f"CSRGraph(nodes={g.num_nodes}, edges={g.num_edges}, "
        f"labels={g.num_labels})"
    )


@given(small_graphs(max_nodes=12))
@settings(max_examples=40, deadline=None)
def test_freeze_invariants_hold_on_random_graphs(graph):
    view = graph.freeze()
    view.check_invariants()
    edges = sorted(graph.edges())
    csr_edges = sorted(
        (src, dst)
        for src in graph.nodes()
        for dst in view.children(src)
    )
    assert csr_edges == edges


def test_csr_constructor_validates_shapes():
    from array import array

    ids = array(BUFFER_TYPECODE, [0])
    empty = array(BUFFER_TYPECODE)
    span = array(BUFFER_TYPECODE, [0, 0])
    with pytest.raises(GraphError):
        CSRGraph(ids, empty, empty, span, empty, num_labels=1)
    with pytest.raises(GraphError):
        CSRGraph(
            ids, span, array(BUFFER_TYPECODE, [0]), span, empty, num_labels=1
        )


def test_check_invariants_catches_corruption():
    g = movie_like_graph()
    view = g.freeze()
    view.child_targets[0] = 10_000
    with pytest.raises(GraphError):
        view.check_invariants()


# ----------------------------------------------------------------------
# Freeze contract: caching, invalidation, versions
# ----------------------------------------------------------------------


def test_freeze_is_cached_until_mutation():
    g = movie_like_graph()
    version = g.mutation_version
    first = g.freeze()
    assert g.freeze() is first  # cached
    assert g.frozen_view is first
    assert first.source_version == version
    g.add_node("x")  # invalidates the view
    assert g.frozen_view is None
    assert g.mutation_version == version + 1
    second = g.freeze()
    assert second is not first
    assert second.num_nodes == first.num_nodes + 1


def test_every_mutator_bumps_the_version():
    g = DataGraph()
    v = g.mutation_version
    a = g.add_node("a")
    assert g.mutation_version == v + 1
    g.add_edge(g.root, a)
    assert g.mutation_version == v + 2
    assert g.add_edge_if_absent(a, g.root)
    assert g.mutation_version == v + 3
    assert not g.add_edge_if_absent(a, g.root)  # no-op: no bump
    assert g.mutation_version == v + 3
    g.remove_edge(a, g.root)
    assert g.mutation_version == v + 4
    view = g.freeze()
    g.add_edges([a], [g.root])
    assert g.mutation_version == v + 5
    assert g.frozen_view is None and g.freeze() is not view


def test_unknown_freeze_mode_rejected():
    # freeze() takes no mode: there is one contract, and no seal.
    g = DataGraph()
    with pytest.raises(TypeError):
        g.freeze(mode="seal")
    index = IndexGraph.from_partition(
        g, bisim_partition(g, engine="legacy")[0], [0]
    )
    with pytest.raises(TypeError):
        index.freeze(mode="seal")


def test_copy_shares_a_current_view():
    # The copy of a frozen graph shares its view, current for both.
    g = movie_like_graph()
    view = g.freeze()
    clone = g.copy()
    assert clone.frozen_view is view
    assert clone.freeze() is view
    assert view.source_version == clone.mutation_version
    # A graph mutated after its freeze has no view to share.
    g.add_node("x")
    assert g.copy().frozen_view is None
    # Mutating the copy drops only the copy's view...
    g = movie_like_graph()
    view = g.freeze()
    clone = g.copy()
    clone.add_node("x")
    assert clone.frozen_view is None
    assert g.frozen_view is view and g.freeze() is view
    assert clone.freeze().num_nodes == view.num_nodes + 1
    # ...and mutating the original drops only the original's.
    clone = g.copy()
    g.add_edge(0, g.add_node("y"))
    assert g.frozen_view is None
    assert clone.frozen_view is view and clone.freeze() is view
    assert g.freeze().num_nodes == view.num_nodes + 1


def test_index_graph_freeze_carries_sorted_adjacency():
    g = cyclic_idref_graph(3, size=60)
    partition, _rounds = bisim_partition(g, engine="legacy")
    k_values = [2] * partition.num_blocks
    index = IndexGraph.from_partition(g, partition, k_values)
    view = index.freeze()
    view.check_invariants()
    assert view.num_nodes == index.num_nodes
    assert view.num_labels == g.num_labels
    for node in range(index.num_nodes):
        assert list(view.children(node)) == sorted(index.children[node])
        assert list(view.parents(node)) == sorted(index.parents[node])
        assert view.label_ids[node] == index.label_ids[node]
    # Local similarities are not in the view: changing one keeps it.
    version = index.mutation_version
    index.k[0] += 1
    assert index.mutation_version == version
    assert index.freeze() is view
    # A structural mutation drops it.
    index.add_index_edge(0, 0)
    assert index.mutation_version == version + 1
    assert index.freeze() is not view
    index.remove_index_edge(0, 0)
    assert index.mutation_version == version + 2


# ----------------------------------------------------------------------
# Frozen persistence
# ----------------------------------------------------------------------


def test_frozen_loader_swaps_foreign_endianness(tmp_path, monkeypatch):
    # A paged store created on a host of the other endianness: its
    # pages hold foreign-order bytes under a foreign byteorder stamp.
    from repro.storage import paged

    foreign = "big" if sys.byteorder == "little" else "little"
    g = movie_like_graph()
    view = g.freeze()
    monkeypatch.setattr(paged, "sys", SimpleNamespace(byteorder=foreign))
    paged.PagedCSRGraph.create(tmp_path / "csr", g).close()
    monkeypatch.undo()
    loaded = paged.PagedCSRGraph.open(tmp_path / "csr")
    assert loaded.store.byteorder == foreign
    restored = loaded.to_csr()
    for name in ("label_ids", "child_offsets", "child_targets",
                 "parent_offsets", "parent_targets"):
        assert getattr(restored, name) == getattr(view, name)
    loaded.close()
