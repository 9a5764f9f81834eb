"""The 1-index (Milo & Suciu — ICDT 1999).

Groups data nodes by *full* bisimilarity: extents agree on every
incoming label path up to the root, so the index is both safe and sound
for path expressions of any length — at the cost of a large index graph
(up to one index node per data node in the worst case).

Implementation note: the paper cites Paige & Tarjan's O(m·log n)
partition-refinement algorithm.  We run signature-hash refinement rounds
to the fixpoint instead — O(d·m) for bisimulation depth d — which
produces the identical partition and is fast in practice because
document-shaped graphs have small d; in Python the smaller-half
bookkeeping costs far more than the log factor saves (DESIGN.md gives
the timings).  The number of rounds is reported so callers can observe
the depth.
"""

from __future__ import annotations

from repro.graph.datagraph import DataGraph
from repro.indexes.base import K_UNBOUNDED, IndexGraph
from repro.partition.refinement import bisim_partition


def build_1index(graph: DataGraph) -> IndexGraph:
    """Build the 1-index of ``graph``.

    Every index node's assigned local similarity is
    :data:`~repro.indexes.base.K_UNBOUNDED`, so evaluation never
    validates: the 1-index is sound for all path expressions.  The
    build runs the columnar engine; it borrows the graph's frozen view
    when it is current and drops one it had to flatten
    (:meth:`DataGraph.transient_view`).

    Args:
        graph: the data graph.

    Example:
        >>> from repro.graph.builder import graph_from_edges
        >>> g = graph_from_edges(
        ...     ["a", "b", "x", "x"], [(0, 1), (0, 2), (1, 3), (2, 4)]
        ... )
        >>> build_1index(g).num_nodes
        5
    """
    with graph.transient_view():
        partition, _rounds = bisim_partition(graph)
        return IndexGraph.from_partition(graph, partition, K_UNBOUNDED)


def bisimulation_depth(graph: DataGraph) -> int:
    """Number of refinement rounds until the bisimulation fixpoint.

    Useful for sizing experiments: A(k) for k at or beyond this depth
    *is* the 1-index.
    """
    _partition, rounds = bisim_partition(graph)
    return rounds
