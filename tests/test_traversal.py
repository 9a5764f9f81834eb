"""Unit tests for :mod:`repro.graph.traversal`."""

from hypothesis import given

from conftest import small_graphs
from repro.graph.builder import graph_from_edges
from repro.graph.traversal import reachable_from


def diamond():
    #      root -> a -> b,c -> d
    return graph_from_edges(
        ["a", "b", "c", "d"],
        [(0, 1), (1, 2), (1, 3), (2, 4), (3, 4)],
    )


def test_reachable_from_subset():
    g = diamond()
    assert reachable_from(g, [2]) == {2, 4}
    assert reachable_from(g, [2, 3]) == {2, 3, 4}


@given(small_graphs())
def test_reachable_from_is_the_least_closed_superset(graph):
    # Reference: grow the start set by whole layers of children until
    # nothing changes.
    starts = {graph.root, graph.num_nodes - 1}
    expected = set(starts)
    while True:
        grown = expected.union(
            *(graph.children[node] for node in expected)
        )
        if grown == expected:
            break
        expected = grown
    assert reachable_from(graph, starts) == expected
