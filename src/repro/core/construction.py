"""Algorithm 2 — D(k)-index construction (and index re-indexing).

Construction pipeline:

1. label-split the data graph (0-bisimulation);
2. broadcast the query-load requirements over the label graph
   (Algorithm 1) to obtain the *level* each label must be refined to;
3. run leveled partition refinement: in round ``i`` only nodes whose
   label level is at least ``i`` participate — newly created blocks
   inherit their label's level ("set the local similarity requirements
   to newly created index nodes by inheritance");
4. materialise the index graph; each index node's assigned local
   similarity is its label's broadcast level.

:func:`reindex_index_graph` implements the "treat the index graph as a
data graph and index *it*" trick that powers both subgraph addition
(Algorithm 3 / Theorem 2) and demoting (Section 5.4): the current index
is a refinement of the target, so quotient-level refinement reproduces
the target index while only touching index nodes, never the data graph.
"""

from __future__ import annotations

from typing import Mapping, Sequence

from repro.core.broadcast import broadcast_for_graph
from repro.exceptions import IndexInvariantError
from repro.graph.datagraph import DataGraph
from repro.indexes.base import IndexGraph
from repro.partition.blocks import Partition
from repro.partition.refinement import leveled_partition


def resolve_requirements(
    graph: DataGraph, requirements: Mapping[str, int]
) -> dict[int, int]:
    """Convert ``{label name: k}`` to ``{label id: k}``.

    Labels absent from the graph are ignored: a query load may mention
    labels the current document collection does not contain, and those
    impose no constraint on the index.
    """
    resolved: dict[int, int] = {}
    for name, requirement in requirements.items():
        if requirement < 0:
            raise ValueError(f"negative requirement for label {name!r}")
        if graph.has_label(name):
            resolved[graph.label_id(name)] = requirement
    return resolved


def build_dk_index(
    graph: DataGraph, requirements: Mapping[str, int]
) -> tuple[IndexGraph, list[int]]:
    """Build the D(k)-index of ``graph`` for per-label requirements.

    Args:
        graph: the data graph.
        requirements: ``{label name: local similarity requirement}``
            mined from the query load; unmentioned labels default to 0.

    Returns:
        ``(index, levels)`` — the index graph, and the broadcast-adjusted
        level per label id (useful for reporting).

    The build runs the columnar engine; it borrows the graph's frozen
    view when it is current and drops one it had to flatten
    (:meth:`DataGraph.transient_view`).

    Example:
        >>> from repro.graph.builder import graph_from_edges
        >>> g = graph_from_edges(
        ...     ["a", "b", "x", "x"], [(0, 1), (0, 2), (1, 3), (2, 4)]
        ... )
        >>> index, levels = build_dk_index(g, {"x": 1})
        >>> index.num_nodes   # the two x nodes split; a, b untouched
        5
        >>> index.k[index.node_of[3]]
        1
    """
    initial = resolve_requirements(graph, requirements)
    levels = broadcast_for_graph(graph, graph.num_labels, initial)
    node_levels = [levels[label_id] for label_id in graph.label_ids]
    with graph.transient_view():
        partition = leveled_partition(graph, node_levels)
        k_values = [
            levels[graph.label_ids[members[0]]] for members in partition.blocks
        ]
        index = IndexGraph.from_partition(graph, partition, k_values)
    return index, levels


def reindex_index_graph(
    index: IndexGraph, label_levels: Sequence[int]
) -> IndexGraph:
    """Re-index an index graph at (typically lower) per-label levels.

    The current index is treated as a data graph whose "nodes" are index
    nodes (Theorem 2): leveled refinement over the *quotient* groups
    index nodes whose extents may merge.  Each index node participates up
    to ``min(label_levels[label], assigned k)`` — capping at the assigned
    ``k`` keeps the result honest when earlier edge-addition updates have
    lowered similarities below the requested level (an index node only
    *guarantees* homogeneity to its assigned ``k``).

    The merged index node's similarity is the minimum of its members'
    effective levels, and extents are unioned.  The data graph is never
    touched.

    Returns:
        A new :class:`IndexGraph` over the same data graph.
    """
    if len(label_levels) < index.graph.num_labels:
        raise IndexInvariantError(
            "label_levels must cover every label of the data graph"
        )
    node_levels = [
        min(label_levels[index.label_ids[node]], index.k[node])
        for node in range(index.num_nodes)
    ]
    quotient_partition = leveled_partition(index, node_levels)

    # Map data nodes straight to the merged blocks.
    merged_of_index = quotient_partition.block_of
    block_of_data = [0] * index.graph.num_nodes
    for old_node, extent in enumerate(index.extents):
        merged = merged_of_index[old_node]
        for data_node in extent:
            block_of_data[data_node] = merged

    k_values = [
        min(node_levels[member] for member in members)
        for members in quotient_partition.blocks
    ]
    return IndexGraph.from_partition(
        index.graph, Partition(block_of_data), k_values
    )
