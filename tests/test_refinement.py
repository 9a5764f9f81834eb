"""Tests for :mod:`repro.partition.refinement`.

The property tests compare every refinement against the brute-force
pairwise oracle from Definition 2 — the definitional ground truth.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import brute_force_full_bisim, brute_force_kbisim, small_graphs
from repro.graph.builder import graph_from_edges
from repro.graph.datagraph import DataGraph
from repro.partition.engine import refine_once
from repro.partition.refinement import (
    bisim_partition,
    kbisim_partition,
    label_partition,
    leveled_partition,
)


def two_x_graph():
    """Two x nodes distinguishable only at distance 1."""
    return graph_from_edges(
        ["a", "b", "x", "x"], [(0, 1), (0, 2), (1, 3), (2, 4)]
    )


def test_label_partition_groups_by_label():
    g = two_x_graph()
    p = label_partition(g)
    assert p.num_blocks == 4  # ROOT, a, b, x
    assert p.same_block(3, 4)


def test_kbisim_zero_is_label_partition():
    g = two_x_graph()
    assert kbisim_partition(g, 0) == label_partition(g)


def test_kbisim_one_splits_by_parent_labels():
    g = two_x_graph()
    p = kbisim_partition(g, 1)
    assert not p.same_block(3, 4)


def test_kbisim_negative_rejected():
    with pytest.raises(ValueError):
        kbisim_partition(two_x_graph(), -1)


def test_paper_figure1_movie_bisimilarity(movie_graph):
    # "nodes 7 and 10 (movie) are bisimilar, while nodes 7 and 9 are not"
    g = movie_graph.graph
    p, _rounds = bisim_partition(g)
    m1 = movie_graph.id_of("m1")
    m2 = movie_graph.id_of("m2")
    m3 = movie_graph.id_of("m3")
    # m1 and m2 both sit under director+actor; m3 only under an actor.
    assert p.same_block(m1, m2)
    assert not p.same_block(m1, m3)


def test_refine_once_monotone():
    g = two_x_graph()
    p0 = label_partition(g)
    p1 = refine_once(g, p0)
    assert p1.refines(p0)
    assert p1.num_blocks >= p0.num_blocks


def test_refine_once_rejects_wrong_participating_length():
    # A short (or long) participating vector used to silently freeze a
    # suffix of the node set; it must be an error instead.
    g = two_x_graph()
    p0 = label_partition(g)
    with pytest.raises(ValueError):
        refine_once(g, p0, [True])
    with pytest.raises(ValueError):
        refine_once(g, p0, [True] * (g.num_nodes + 1))


def test_refine_once_with_frozen_nodes():
    g = two_x_graph()
    p0 = label_partition(g)
    frozen = [False] * g.num_nodes  # nobody participates: no change
    assert refine_once(g, p0, frozen) == p0
    participating = [True] * g.num_nodes
    assert refine_once(g, p0, participating) == refine_once(g, p0)


def test_bisim_reaches_fixpoint():
    g = two_x_graph()
    p, rounds = bisim_partition(g)
    assert rounds >= 1
    assert refine_once(g, p) == p


def test_bisim_trivial_graph():
    partition, rounds = bisim_partition(DataGraph())  # the root alone
    assert partition.num_blocks == 1
    assert rounds == 0


def test_bisim_cycle():
    g = graph_from_edges(
        ["a", "b", "a", "b"],
        [(0, 1), (1, 2), (2, 3), (3, 4), (4, 1)],
    )
    partition, _rounds = bisim_partition(g)
    assert partition == brute_force_full_bisim(g)


def test_bisim_self_loop():
    g = graph_from_edges(["a", "a"], [(0, 1), (1, 1), (0, 2)])
    partition, _rounds = bisim_partition(g)
    assert partition == brute_force_full_bisim(g)
    assert not partition.same_block(1, 2)  # only node 1 is its own parent


def test_bisim_deep_chain_splits_fully():
    g = graph_from_edges(["x"] * 6, [(i, i + 1) for i in range(6)])
    partition, rounds = bisim_partition(g)
    # Every chain position has distinct incoming paths.
    assert partition.num_blocks == 7
    assert rounds == 5


def test_bisim_shared_children():
    g = graph_from_edges(
        ["a", "b", "c", "d"],
        [(0, 1), (0, 2), (1, 3), (2, 3), (3, 4), (1, 4)],
    )
    partition, _rounds = bisim_partition(g)
    assert partition == brute_force_full_bisim(g)


def test_leveled_uniform_equals_kbisim():
    g = two_x_graph()
    for k in range(3):
        levels = [k] * g.num_nodes
        assert leveled_partition(g, levels) == kbisim_partition(g, k)


def test_leveled_zero_everywhere_is_label_split():
    g = two_x_graph()
    assert leveled_partition(g, [0] * g.num_nodes) == label_partition(g)


def test_leveled_validates_input():
    g = two_x_graph()
    with pytest.raises(ValueError):
        leveled_partition(g, [0])
    with pytest.raises(ValueError):
        leveled_partition(g, [-1] * g.num_nodes)


def test_leveled_partial_freeze():
    # Only the x nodes require level 1: they split, everything else stays
    # grouped by label.
    g = two_x_graph()
    levels = [1 if g.label(n) == "x" else 0 for n in g.nodes()]
    p = leveled_partition(g, levels)
    assert not p.same_block(3, 4)
    assert p.num_blocks == 5


@given(small_graphs(), st.integers(0, 3))
@settings(max_examples=80, deadline=None)
def test_kbisim_matches_brute_force(graph, k):
    assert kbisim_partition(graph, k) == brute_force_kbisim(graph, k)


@given(small_graphs())
@settings(max_examples=60, deadline=None)
def test_full_bisim_matches_brute_force(graph):
    partition, _rounds = bisim_partition(graph)
    assert partition == brute_force_full_bisim(graph)


@given(small_graphs(), st.integers(1, 3))
@settings(max_examples=60, deadline=None)
def test_kbisim_chain_refines(graph, k):
    coarser = kbisim_partition(graph, k - 1)
    finer = kbisim_partition(graph, k)
    assert finer.refines(coarser)


@given(small_graphs())
@settings(max_examples=60, deadline=None)
def test_leveled_blocks_are_homogeneous_at_their_level(graph):
    # Per-label requirements (label id mod 3), adjusted by the broadcast
    # (Algorithm 1) so the parent constraint holds; every block of the
    # leveled partition must then sit inside the brute-force class of its
    # level — the "honest k" guarantee the D(k)-index relies on.  Without
    # the broadcast this is FALSE: frozen coarse parents would let
    # non-k-bisimilar nodes share a block, which is exactly why the
    # broadcast algorithm exists.
    from repro.core.broadcast import broadcast_for_graph

    initial = {
        label_id: label_id % 3 for label_id in range(graph.num_labels)
    }
    levels_by_label = broadcast_for_graph(graph, graph.num_labels, initial)
    levels = [levels_by_label[graph.label_ids[n]] for n in graph.nodes()]
    partition = leveled_partition(graph, levels)
    max_level = max(levels, default=0)
    oracles = {k: brute_force_kbisim(graph, k) for k in range(max_level + 1)}
    for members in partition.blocks:
        level = levels[members[0]]
        oracle = oracles[level]
        first = oracle.block_of[members[0]]
        assert all(oracle.block_of[m] == first for m in members)
