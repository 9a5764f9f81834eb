"""Unit tests for :mod:`repro.core.broadcast` (Algorithm 1)."""

import signal
from contextlib import contextmanager

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import small_graphs
from repro.core.broadcast import (
    broadcast_for_graph,
    broadcast_levels,
    label_parent_graph,
)
from repro.core.construction import build_dk_index
from repro.datasets.xmark import generate_xmark
from repro.graph.builder import graph_from_edges


def chain_parent_labels():
    # label graph c <- b <- a (parent adjacency by child).
    return [set(), {0}, {1}]


def test_paper_example_parent_reset():
    # "if the local similarities of n_i and n_j ... are 0 and 2, the
    # local similarity of n_i should be reset to 1."
    levels = broadcast_levels([set(), {0}], {1: 2})
    assert levels == [1, 2]


def test_chain_propagation():
    assert broadcast_levels(chain_parent_labels(), {2: 3}) == [1, 2, 3]


def test_default_zero_for_unqueried_labels():
    assert broadcast_levels(chain_parent_labels(), {}) == [0, 0, 0]


def test_max_of_initial_and_broadcast():
    # b already requires 5; c's requirement of 2 must not lower it.
    levels = broadcast_levels(chain_parent_labels(), {1: 5, 2: 2})
    assert levels[1] == 5
    assert levels[0] == 4  # raised by b's 5


def test_self_loop_label():
    # A label that is its own parent: requirement k forces itself >= k-1,
    # which is already satisfied; no infinite loop.
    levels = broadcast_levels([{0}], {0: 3})
    assert levels == [3]


def test_cycle_between_labels():
    # a <-> b cycle with b requiring 4: a >= 3, which pushes b >= 2 (already 4).
    levels = broadcast_levels([{1}, {0}], {1: 4})
    assert levels == [3, 4]


def test_negative_requirement_rejected():
    with pytest.raises(ValueError):
        broadcast_levels([set()], {0: -1})


def test_unknown_label_rejected():
    with pytest.raises(ValueError):
        broadcast_levels([set()], {5: 1})


def test_label_parent_graph():
    g = graph_from_edges(["a", "b", "b"], [(0, 1), (1, 2), (0, 3)])
    parents = label_parent_graph(g, g.num_labels)
    a, b = g.label_id("a"), g.label_id("b")
    root = g.label_id("ROOT")
    assert parents[b] == {a, root}
    assert parents[a] == {root}
    assert parents[root] == set()


@given(small_graphs(), st.dictionaries(st.integers(0, 3), st.integers(0, 4)))
@settings(max_examples=80, deadline=None)
def test_broadcast_postconditions(graph, raw_requirements):
    initial = {
        label: req
        for label, req in raw_requirements.items()
        if label < graph.num_labels
    }
    levels = broadcast_for_graph(graph, graph.num_labels, initial)
    # 1. Broadcast never lowers a requirement.
    for label, req in initial.items():
        assert levels[label] >= req
    # 2. The structural constraint holds on every label edge.
    parents = label_parent_graph(graph, graph.num_labels)
    for child in range(graph.num_labels):
        for parent in parents[child]:
            assert levels[parent] >= levels[child] - 1
    # 3. Minimality: no level exceeds what some chain of constraints
    #    forces (each level is either an initial requirement or one less
    #    than some child's level).
    for label, level in enumerate(levels):
        if level == 0:
            continue
        children_of = [
            c for c in range(graph.num_labels) if label in parents[c]
        ]
        forced = max(
            [initial.get(label, 0)]
            + [levels[c] - 1 for c in children_of]
        )
        assert level == forced


# ----------------------------------------------------------------------
# Requirements of any size
# ----------------------------------------------------------------------


def one_level_per_loop(parent_labels, initial):
    """The broadcast as it was first written: one pass per level, from
    the largest requirement down to 1.  Kept as the oracle."""
    levels = [0] * len(parent_labels)
    for label, requirement in initial.items():
        levels[label] = requirement
    buckets = {}
    for label, level in enumerate(levels):
        if level > 0:
            buckets.setdefault(level, set()).add(label)
    processed = [False] * len(parent_labels)
    for level in range(max(levels, default=0), 0, -1):
        for label in sorted(buckets.get(level, ())):
            if processed[label] or levels[label] != level:
                continue
            processed[label] = True
            floor = level - 1
            if floor == 0:
                continue
            for parent in parent_labels[label]:
                if levels[parent] < floor:
                    levels[parent] = floor
                    buckets.setdefault(floor, set()).add(parent)
    return levels


@st.composite
def label_graphs_and_requirements(draw):
    count = draw(st.integers(1, 8))
    labels = st.integers(0, count - 1)
    parent_labels = [
        draw(st.sets(labels, max_size=3)) for _ in range(count)
    ]
    initial = draw(st.dictionaries(labels, st.integers(0, 12)))
    return parent_labels, initial


@given(label_graphs_and_requirements())
@settings(max_examples=200, deadline=None)
def test_levels_match_the_one_pass_per_level_oracle(case):
    parent_labels, initial = case
    assert broadcast_levels(parent_labels, initial) == one_level_per_loop(
        parent_labels, initial
    )


@contextmanager
def deadline(seconds):
    """Fail the test, instead of hanging it, if the block overruns."""

    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


needs_alarm = pytest.mark.skipif(
    not hasattr(signal, "setitimer"), reason="needs SIGALRM"
)


@needs_alarm
def test_huge_requirement_returns_at_once():
    # A run ends by round num_nodes, so any level past num_nodes plus
    # the broadcast's label-graph depth gives the same extents; the
    # largest int64 requirement must cost no more than such a level.
    graph = generate_xmark(scale=0.05, seed=0).graph
    label = graph.label_name(graph.label_ids[graph.num_nodes - 1])
    enough = graph.num_nodes + graph.num_labels + 1
    with deadline(20):
        huge, _ = build_dk_index(graph, {label: 2**63 - 1})
    expected, _ = build_dk_index(graph, {label: enough})
    assert huge.freeze().k[huge.node_of[graph.num_nodes - 1]] == 2**63 - 1
    assert sorted(map(sorted, huge.extents)) == sorted(
        map(sorted, expected.extents)
    )


@needs_alarm
@pytest.mark.parametrize("requirement", [2**63, 10**30])
def test_requirement_past_int64_rejected(requirement):
    with deadline(20):
        with pytest.raises(ValueError, match="2\\*\\*63"):
            broadcast_levels(chain_parent_labels(), {2: requirement})
