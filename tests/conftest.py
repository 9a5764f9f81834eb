"""Shared test fixtures, reference graphs and independent oracles.

The oracles here are deliberately *independent* of the library's own
algorithms: brute-force pairwise k-bisimilarity (straight from
Definition 2) and exhaustive node-path enumeration, so the property
tests check the implementation against the paper's definitions rather
than against itself.
"""

from __future__ import annotations

import random
import signal
from contextlib import contextmanager
from functools import lru_cache

import pytest
from hypothesis import strategies as st

from repro.graph.builder import GraphBuilder
from repro.graph.datagraph import DataGraph
from repro.partition.blocks import Partition

# ----------------------------------------------------------------------
# Deadlines
# ----------------------------------------------------------------------


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


# ----------------------------------------------------------------------
# Reference graphs
# ----------------------------------------------------------------------


@pytest.fixture
def movie_graph() -> GraphBuilder:
    """The paper's Figure 1 movie database (structure-faithful).

    A movieDB with directors and actors; movies hang under both their
    director (via subtree) and their actors (via reference edges), and
    nodes 7/10-style bisimilar movie pairs exist.
    """
    b = GraphBuilder()
    b.node("db", "movieDB", parent="root")

    b.node("d1", "director", parent="db")
    b.node("d1name", "name", parent="d1")
    b.node("m1", "movie", parent="d1")
    b.node("m1title", "title", parent="m1")

    b.node("d2", "director", parent="db")
    b.node("d2name", "name", parent="d2")
    b.node("m2", "movie", parent="d2")
    b.node("m2title", "title", parent="m2")

    b.node("a1", "actor", parent="db")
    b.node("a1name", "name", parent="a1")
    b.node("a2", "actor", parent="db")
    b.node("a2name", "name", parent="a2")

    # Reference edges: actors point at the movies they act in; one movie
    # hangs only under an actor (the 7-vs-9 asymmetry of Figure 1).
    b.node("m3", "movie", parent="a2")
    b.node("m3title", "title", parent="m3")
    b.edge("a1", "m1")
    b.edge("a1", "m3")
    b.edge("a2", "m2")
    return b


# ----------------------------------------------------------------------
# Brute-force oracles
# ----------------------------------------------------------------------


def brute_force_kbisim(graph: DataGraph, k: int) -> Partition:
    """k-bisimulation straight from Definition 2 (pairwise, memoised)."""

    @lru_cache(maxsize=None)
    def bisimilar(u: int, v: int, depth: int) -> bool:
        if graph.label_ids[u] != graph.label_ids[v]:
            return False
        if depth == 0:
            return True
        if not bisimilar(u, v, depth - 1):
            return False
        for one, other in ((u, v), (v, u)):
            for parent in graph.parents[one]:
                if not any(
                    bisimilar(parent, q, depth - 1) for q in graph.parents[other]
                ):
                    return False
        return True

    block_of = [-1] * graph.num_nodes
    representatives: list[int] = []
    for node in graph.nodes():
        for block, representative in enumerate(representatives):
            if bisimilar(node, representative, k):
                block_of[node] = block
                break
        else:
            block_of[node] = len(representatives)
            representatives.append(node)
    return Partition(block_of)


def brute_force_full_bisim(graph: DataGraph) -> Partition:
    """Full bisimulation: k-bisim stabilises for k >= number of nodes."""
    return brute_force_kbisim(graph, graph.num_nodes)


def enumerate_label_path_matches(
    graph: DataGraph, labels: list[str], anchored: bool = False
) -> set[int]:
    """All nodes matched by a label path, by explicit path search."""
    if not all(graph.has_label(name) for name in labels):
        return set()
    wanted = [graph.label_id(name) for name in labels]
    if anchored:
        frontier = {
            child
            for child in graph.children[graph.root]
            if graph.label_ids[child] == wanted[0]
        }
    else:
        frontier = {
            node for node in graph.nodes() if graph.label_ids[node] == wanted[0]
        }
    for want in wanted[1:]:
        frontier = {
            child
            for node in frontier
            for child in graph.children[node]
            if graph.label_ids[child] == want
        }
    return frontier


def extent_is_homogeneous(graph: DataGraph, extent: list[int], k: int) -> bool:
    """True if all extent members are mutually k-bisimilar (Definition 2).

    This is the *strong* invariant: freshly built D(k)/A(k)/1-indexes
    satisfy it.  After edge-addition updates only the weaker
    :func:`extent_paths_consistent` is guaranteed (and is all that query
    soundness needs) — a distinction surfaced by property testing; see
    DESIGN.md §5.
    """
    if len(extent) <= 1:
        return True
    partition = brute_force_kbisim(graph, min(k, graph.num_nodes))
    first = partition.block_of[extent[0]]
    return all(partition.block_of[node] == first for node in extent[1:])


def incoming_label_paths(
    graph: DataGraph, node: int, max_length: int
) -> set[tuple[int, ...]]:
    """All incoming label paths of length <= max_length ending at ``node``
    (each path includes the node's own label as its last element)."""
    paths: set[tuple[int, ...]] = set()
    frontier: set[tuple[int, tuple[int, ...]]] = {
        (node, (graph.label_ids[node],))
    }
    for _ in range(max_length):
        paths.update(path for _n, path in frontier)
        next_frontier: set[tuple[int, tuple[int, ...]]] = set()
        for current, path in frontier:
            for parent in graph.parents[current]:
                next_frontier.add((parent, (graph.label_ids[parent],) + path))
        frontier = next_frontier
    paths.update(path for _n, path in frontier)
    return paths


def extent_paths_consistent(graph: DataGraph, extent: list[int], k: int) -> bool:
    """The weak ("all-or-none") invariant behind Theorem 1's soundness:
    every extent member has the same set of incoming label paths up to
    length k, so a matching label path matches all members or none.

    Implied by k-bisimilarity but strictly weaker; this is the invariant
    the edge-addition update (Algorithm 4+5) maintains.
    """
    if len(extent) <= 1:
        return True
    bound = min(k, graph.num_nodes)
    reference = incoming_label_paths(graph, extent[0], bound)
    return all(
        incoming_label_paths(graph, node, bound) == reference
        for node in extent[1:]
    )


# ----------------------------------------------------------------------
# Hypothesis strategies
# ----------------------------------------------------------------------


@st.composite
def small_graphs(
    draw,
    max_nodes: int = 10,
    labels: str = "abc",
    allow_cycles: bool = True,
    extra_edge_factor: int = 1,
):
    """Random connected data graphs with a small label alphabet.

    Every non-root node gets one parent among the earlier nodes (so the
    graph is root-connected), plus a few random extra edges — backward
    ones too when ``allow_cycles`` (reference edges create cycles in
    real XML graphs).
    """
    count = draw(st.integers(min_value=1, max_value=max_nodes))
    graph = DataGraph()
    nodes = [graph.add_node(draw(st.sampled_from(labels))) for _ in range(count)]
    for position, node in enumerate(nodes):
        choice = draw(st.integers(min_value=0, max_value=position))
        parent = graph.root if choice == 0 else nodes[choice - 1]
        graph.add_edge_if_absent(parent, node)
    extras = draw(
        st.lists(
            st.tuples(
                st.integers(min_value=1, max_value=count),
                st.integers(min_value=1, max_value=count),
            ),
            max_size=count * extra_edge_factor,
        )
    )
    for a, b in extras:
        src, dst = nodes[a - 1], nodes[b - 1]
        if src == dst:
            continue
        if not allow_cycles and src > dst:
            src, dst = dst, src
        graph.add_edge_if_absent(src, dst)
    return graph


#: Arbitrary JSON values, for fuzzing the document and journal decoders.
json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(), children, max_size=3),
    max_leaves=6,
)


@st.composite
def label_requirements(draw, labels: str = "abc", max_k: int = 3):
    """Random per-label requirement maps over the small alphabet."""
    return {
        label: draw(st.integers(min_value=0, max_value=max_k))
        for label in labels
        if draw(st.booleans())
    }


def random_label_path(
    graph: DataGraph, rng: random.Random, max_length: int = 4
) -> list[str]:
    """A label path that actually occurs in the graph (walk-based)."""
    candidates = [n for n in graph.nodes() if n != graph.root]
    if not candidates:
        return [graph.label(graph.root)]
    node = rng.choice(candidates)
    path = [graph.label(node)]
    length = rng.randint(1, max_length)
    while len(path) < length and graph.children[node]:
        node = rng.choice(graph.children[node])
        path.append(graph.label(node))
    return path
