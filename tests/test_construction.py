"""Tests for :mod:`repro.core.construction` (Algorithm 2 + re-indexing)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    brute_force_kbisim,
    extent_is_homogeneous,
    label_requirements,
    small_graphs,
)
from repro.core.construction import (
    build_dk_index,
    reindex_index_graph,
    resolve_requirements,
)
from repro.core.dindex import check_dk_constraint
from repro.core.requirements import requirements_from_queries
from repro.datasets.nasa import generate_nasa
from repro.datasets.xmark import generate_xmark
from repro.graph.builder import graph_from_edges
from repro.indexes.akindex import build_ak_index
from repro.indexes.labelsplit import build_labelsplit_index
from repro.indexes.oneindex import build_1index
from repro.partition.refinement import kbisim_partition
from repro.workload.generator import WorkloadConfig, generate_test_paths


def paper_figure2_graph():
    """Figure 2's construction example shape: label E requires 2, the
    rest 1; a chain ROOT -> A -> B/C -> D -> E with two D parents."""
    return graph_from_edges(
        ["A", "B", "C", "D", "D", "E", "E"],
        [(0, 1), (1, 2), (1, 3), (2, 4), (3, 5), (4, 6), (5, 7)],
    )


def test_dk_zero_requirements_is_labelsplit():
    g = paper_figure2_graph()
    index, levels = build_dk_index(g, {})
    assert index.num_nodes == build_labelsplit_index(g).num_nodes
    assert set(index.k) == {0}


def test_dk_uniform_requirements_equals_ak():
    g = paper_figure2_graph()
    requirements = {g.label_name(i): 2 for i in range(g.num_labels)}
    index, _ = build_dk_index(g, requirements)
    ak = build_ak_index(g, 2)
    assert index.to_partition() == ak.to_partition()


def test_figure2_style_construction():
    g = paper_figure2_graph()
    index, levels = build_dk_index(g, {"E": 2, "D": 1, "B": 1, "C": 1, "A": 1})
    check_dk_constraint(index)
    index.check_invariants()
    # D requires max(1, 2-1) = 1 via broadcast from E.
    d_level = levels[g.label_id("D")]
    assert d_level == 1
    # The two E nodes differ at distance 2 (through B vs C), so they split.
    e_nodes = index.nodes_with_label("E")
    assert len(e_nodes) == 2


def test_unknown_labels_in_requirements_ignored():
    g = paper_figure2_graph()
    index, _ = build_dk_index(g, {"nonexistent": 3})
    assert set(index.k) == {0}


def test_negative_requirement_rejected():
    g = paper_figure2_graph()
    with pytest.raises(ValueError):
        build_dk_index(g, {"A": -1})
    with pytest.raises(ValueError):
        resolve_requirements(g, {"A": -2})


def test_assigned_k_follows_broadcast_levels():
    g = paper_figure2_graph()
    index, levels = build_dk_index(g, {"E": 2})
    for node in range(index.num_nodes):
        assert index.k[node] == levels[index.label_ids[node]]


def test_reindex_to_same_levels_is_identity():
    g = paper_figure2_graph()
    index, levels = build_dk_index(g, {"E": 2})
    again = reindex_index_graph(index, levels)
    assert again.to_partition() == index.to_partition()
    assert again.k == index.k


def test_reindex_to_lower_levels_merges():
    g = paper_figure2_graph()
    index, _ = build_dk_index(g, {"E": 2})
    coarse = reindex_index_graph(index, [0] * g.num_labels)
    assert coarse.num_nodes == build_labelsplit_index(g).num_nodes
    assert set(coarse.k) == {0}
    coarse.check_invariants()


def test_reindex_requires_full_level_table():
    g = paper_figure2_graph()
    index, _ = build_dk_index(g, {"E": 2})
    from repro.exceptions import IndexInvariantError

    with pytest.raises(IndexInvariantError):
        reindex_index_graph(index, [0])


@given(small_graphs(), label_requirements())
@settings(max_examples=80, deadline=None)
def test_dk_construction_invariants(graph, requirements):
    index, levels = build_dk_index(graph, requirements)
    index.check_invariants()
    check_dk_constraint(index)
    # Honest k: every extent is truly k(n)-bisimilar.
    for node in range(index.num_nodes):
        assert extent_is_homogeneous(graph, index.extents[node], index.k[node])


@given(small_graphs(), st.integers(0, 3))
@settings(max_examples=40, deadline=None)
def test_dk_uniform_matches_brute_force(graph, k):
    requirements = {graph.label_name(i): k for i in range(graph.num_labels)}
    index, _ = build_dk_index(graph, requirements)
    assert index.to_partition() == brute_force_kbisim(graph, k)


@given(small_graphs(), label_requirements())
@settings(max_examples=60, deadline=None)
def test_dk_partition_between_labelsplit_and_max_bisim(graph, requirements):
    index, levels = build_dk_index(graph, requirements)
    partition = index.to_partition()
    assert partition.refines(brute_force_kbisim(graph, 0))
    max_level = max(levels, default=0)
    assert brute_force_kbisim(graph, max_level).refines(partition)


# ----------------------------------------------------------------------
# D(k) as a read of the uniform k-bisimulation chain
# ----------------------------------------------------------------------


def chain_groups(graph, levels, kbisim):
    """Nodes grouped by ``(level of their label, block of the
    k-bisimulation at that level)``, as sorted tuples."""
    partitions = {level: kbisim(graph, level) for level in set(levels)}
    groups = {}
    for node in graph.nodes():
        level = levels[graph.label_ids[node]]
        key = (level, partitions[level].block_of[node])
        groups.setdefault(key, []).append(node)
    return sorted(tuple(members) for members in groups.values())


def extent_groups(index):
    return sorted(tuple(sorted(extent)) for extent in index.extents)


@given(small_graphs(), label_requirements())
@settings(max_examples=200, deadline=None)
def test_dk_extents_are_the_chain_at_each_label_level(graph, requirements):
    """Each D(k) extent is one k-bisimulation class at its label's
    broadcast level: the partition a shared chain of uniform rounds
    would give, read at per-label levels."""
    index, levels = build_dk_index(graph, requirements)
    assert extent_groups(index) == chain_groups(graph, levels, brute_force_kbisim)


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("generate", [generate_xmark, generate_nasa])
def test_dk_extents_are_the_chain_on_paper_datasets(generate, seed):
    graph = generate(scale=0.05, seed=seed).graph
    load = generate_test_paths(graph, WorkloadConfig(count=100), seed=seed)
    index, levels = build_dk_index(graph, requirements_from_queries(load))
    assert extent_groups(index) == chain_groups(graph, levels, kbisim_partition)


# ----------------------------------------------------------------------
# Builds leave the frozen-view cache as they found it
# ----------------------------------------------------------------------

BUILDS = {
    "dk": lambda graph: build_dk_index(graph, {"E": 2})[0],
    "ak": lambda graph: build_ak_index(graph, 2),
    "1index": build_1index,
}


@pytest.mark.parametrize("build", BUILDS.values(), ids=BUILDS.keys())
def test_build_drops_a_view_it_flattened(build):
    graph = paper_figure2_graph().copy()
    index = build(graph)
    assert graph.frozen_view is None
    assert index.to_partition() == build(paper_figure2_graph()).to_partition()
    view = graph.freeze()
    assert graph.freeze() is view


@pytest.mark.parametrize("build", BUILDS.values(), ids=BUILDS.keys())
def test_build_borrows_a_shared_view(build):
    graph = paper_figure2_graph()
    view = graph.freeze()
    copy = graph.copy()
    build(copy)
    assert copy.frozen_view is view
    assert graph.frozen_view is view

