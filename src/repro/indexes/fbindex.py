"""The F&B-index (Kaushik, Bohannon, Naughton, Korth — SIGMOD 2002).

The D(k) paper's conclusion names the F&B index as the structure for
*branching* path queries.  Bisimulation-based indexes (1-index, A(k),
D(k)) summarise *incoming* paths only, so they are covering indexes for
linear path expressions but not for twigs: two data nodes with the same
incoming paths may differ in what hangs *below* them, and a predicate
like ``movie[actor]`` distinguishes them.

The F&B-index is the coarsest partition stable under both directions:
it refines by parents (backward bisimilarity) and by children (forward
bisimilarity) alternately until a fixpoint.  Every twig query can then
be answered exactly from the index graph alone — evaluated with the
same two-phase algorithm as on the data graph, over far fewer nodes.

The price is size: the F&B-index is at least as large as the 1-index
(the test suite and the EXT bench measure by how much).
"""

from __future__ import annotations

from repro.graph.datagraph import DataGraph
from repro.indexes.base import K_UNBOUNDED, IndexGraph
from repro.partition.blocks import Partition
from repro.partition.refinement import label_partition
from repro.paths.cost import CostCounter
from repro.paths.twig import TwigQuery, evaluate_twig_over


def fb_partition(graph: DataGraph) -> tuple[Partition, int]:
    """The forward-and-backward bisimulation partition.

    Alternates backward (parents) and forward (children) signature
    rounds until neither direction refines further.

    Returns:
        ``(partition, rounds)`` — the stable partition and the number of
        refinement rounds (both directions counted).
    """
    partition = label_partition(graph)
    rounds = 0
    parents = graph.parents
    children = graph.children
    while True:
        changed = False
        for adjacency in (parents, children):
            block_of = partition.block_of
            keys = [
                (block_of[node], frozenset(block_of[n] for n in adjacency[node]))
                for node in range(graph.num_nodes)
            ]
            refined = Partition.from_keys(keys)
            if refined.num_blocks != partition.num_blocks:
                partition = refined
                changed = True
                rounds += 1
        if not changed:
            return partition, rounds


def build_fb_index(graph: DataGraph) -> IndexGraph:
    """Build the F&B-index of ``graph``.

    Extent members agree on all incoming *and* outgoing structure, so
    the index is sound for branching path queries of any shape; the
    assigned local similarity is :data:`~repro.indexes.base.K_UNBOUNDED`
    (linear queries never validate either).

    Example:
        >>> from repro.graph.builder import graph_from_edges
        >>> # two movies with identical incoming paths; only one has an actor
        >>> g = graph_from_edges(
        ...     ["m", "m", "t", "t", "a"],
        ...     [(0, 1), (0, 2), (1, 3), (2, 4), (2, 5)],
        ... )
        >>> from repro.indexes.oneindex import build_1index
        >>> len(build_1index(g).nodes_with_label("m"))
        1
        >>> len(build_fb_index(g).nodes_with_label("m"))
        2
    """
    partition, _rounds = fb_partition(graph)
    return IndexGraph.from_partition(graph, partition, K_UNBOUNDED)


def evaluate_twig_on_fb(
    index: IndexGraph,
    query: TwigQuery,
    counter: CostCounter | None = None,
) -> set[int]:
    """Evaluate a twig query on an F&B-index; returns *data* node ids.

    The pattern is matched over index nodes (each visit counted as an
    index-node visit); the answer is the union of matched output
    extents — no validation needed, because F&B extents are
    structurally indistinguishable in both directions.
    """
    counter = counter if counter is not None else CostCounter()
    matched = evaluate_twig_over(
        index,
        index.label_ids,
        index.graph.label_table,
        index.root_index_node,
        query,
        counter,
        count_as_index=True,
    )
    return index.extent_result(matched)
