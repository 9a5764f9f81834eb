"""Incremental updates — Algorithms 3, 4 and 5, plus the A(k) baseline.

Edge addition on the D(k)-index (Section 5.2) never touches the data
graph's structure beyond recording the new edge: it computes the highest
local similarity the end node can keep (Algorithm 4, a label-path
comparison carried out entirely in the *index* graph) and then lowers
the similarities of nearby index nodes with a breadth-first sweep
(Algorithm 5).  The extents never change — that is why it is fast.

The A(k)-index has no published update algorithm; following Section 6.2
we implement a *propagate* variant of the 1-index update (Kaushik et
al., VLDB 2002): carve the target data node out of its index node, then
re-partition descendant index nodes against the source data up to
distance k-1.  Every signature recomputation touches data-graph nodes,
which is why it is slow — the asymmetry Table 1 measures.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Mapping

from repro.core.broadcast import broadcast_for_graph
from repro.core.construction import (
    build_dk_index,
    reindex_index_graph,
    resolve_requirements,
)
from repro.exceptions import UnknownNodeError, UpdateError
from repro.graph.datagraph import DataGraph
from repro.indexes.base import IndexGraph
from repro.maintenance.faults import fault_point
from repro.partition.blocks import Partition

#: Safety valve for Algorithm 4's label-path frontier; beyond this many
#: distinct label paths the search stops early, which only *under*-states
#: the new similarity (sound, never unsound).
MAX_LABEL_PATHS = 10_000


@dataclass
class EdgeUpdateReport:
    """What an edge-addition update did.

    Attributes:
        source / target: the index nodes U and V of the new edge.
        old_k / new_k: V's local similarity before and after.
        lowered: ``{index node: (old k, new k)}`` for every node the
            BFS sweep lowered (V included).
        index_nodes_touched: nodes examined by the sweep (the paper's
            "touch nodes and edges within distance k_V in the index
            graph" cost).
        new_index_edge: True if the index edge U -> V was new.
    """

    source: int
    target: int
    old_k: int
    new_k: int
    lowered: dict[int, tuple[int, int]] = field(default_factory=dict)
    index_nodes_touched: int = 0
    new_index_edge: bool = False


def _extend_label_paths(
    index: IndexGraph,
    paths: dict[tuple[int, ...], set[int]],
) -> dict[tuple[int, ...], set[int]] | None:
    """Extend every label path one step up through the index graph.

    ``paths`` maps a label path (tuple of label ids, leftmost outermost)
    to the set of index nodes at which matching node paths *start*.
    Returns None when the frontier exceeds :data:`MAX_LABEL_PATHS`.
    """
    extended: dict[tuple[int, ...], set[int]] = {}
    label_ids = index.label_ids
    parents = index.parents
    for path, frontier in paths.items():
        for node in frontier:
            for parent in parents[node]:
                longer = (label_ids[parent],) + path
                bucket = extended.get(longer)
                if bucket is None:
                    if len(extended) >= MAX_LABEL_PATHS:
                        return None
                    extended[longer] = {parent}
                else:
                    bucket.add(parent)
    return extended


def update_local_similarity(index: IndexGraph, source: int, target: int) -> int:
    """Algorithm 4 — the highest local similarity ``target`` may keep.

    Computes the maximal ``k_N`` such that every label path of length
    ``k_N`` entering ``target`` *through the new edge from source*
    already matches ``target`` in the current index graph.  Must be
    called *before* the index edge is inserted ("match V in the original
    I_G").

    The new similarity is bounded by ``min(k_U + 1, k_V)`` — paths
    through ``source`` are only vouched for up to ``source``'s own
    similarity, and an edge addition never raises a similarity.
    """
    upbound = min(index.k[source] + 1, index.k[target])
    if upbound <= 0:
        return 0

    label_ids = index.label_ids
    # Label paths of length 1 (just the label entering `target`).
    new_paths: dict[tuple[int, ...], set[int]] = {
        (label_ids[source],): {source}
    }
    old_paths: dict[tuple[int, ...], set[int]] = {}
    for parent in index.parents[target]:
        old_paths.setdefault((label_ids[parent],), set()).add(parent)

    similarity = 0
    while similarity < upbound:
        if not new_paths:
            # No label path of this length passes through the new edge at
            # all; longer paths vacuously match, so the cap is reachable.
            return upbound
        if not set(new_paths) <= set(old_paths):
            return similarity
        similarity += 1
        if similarity == upbound:
            return similarity
        # Only old paths that coincide with new paths can extend into
        # next-level matches of new paths (suffix extension), so restrict
        # before extending — this is the pseudo-code's
        # "OldLabelPathSet = NewLabelPathSet" read charitably.
        old_paths = {
            path: frontier
            for path, frontier in old_paths.items()
            if path in new_paths
        }
        extended_old = _extend_label_paths(index, old_paths)
        extended_new = _extend_label_paths(index, new_paths)
        if extended_old is None or extended_new is None:
            return similarity  # frontier exploded; keep the sound answer
        old_paths = extended_old
        new_paths = extended_new
    return similarity


def assign_similarity(index: IndexGraph, node: int, value: int) -> None:
    """The authorised write path for assigned local similarities.

    Definition 3's constraint is only maintainable if ``IndexGraph.k``
    is written by the code that re-establishes it afterwards — the
    update algorithms here, the promote/demote machinery that routes
    through this helper, and the maintenance layer's rollback/repair.
    The ``DK107`` lint rule enforces exactly that ownership.
    """
    index.k[node] = value


def _require_endpoint(graph: DataGraph, index: IndexGraph, node: int) -> None:
    """Validate one data-node endpoint of an edge update up front.

    Raises:
        UnknownNodeError: if ``node`` is not a graph node, or the index
            predates it (``node_of`` does not cover it) — either way no
            update algorithm can place it, and failing *before* the
            first write keeps even the legacy non-transactional path
            exception-safe.
    """
    if not graph.has_node(node) or node >= len(index.node_of):
        raise UnknownNodeError(node)


def _simulate_lowering(
    index: IndexGraph,
    start: int,
    start_k: int,
    add_edge: tuple[int, int] | None = None,
    drop_edge: tuple[int, int] | None = None,
) -> tuple[dict[int, tuple[int, int]], int]:
    """Plan Algorithm 5's sweep without touching the index.

    The sweep re-establishes the D(k) constraint below ``start``:
    breadth-first from ``start``, for an index edge W -> X with
    ``k(W) + 1 < k(X)``, lower ``k(X)`` to ``k(W) + 1`` and continue
    through X; otherwise stop propagating through X.  The plan runs it
    against an overlay of ``index.k`` in which ``start`` is already
    lowered to ``start_k``, and against the index adjacency as it *will*
    look after the pending update (``add_edge`` / ``drop_edge`` are
    virtual index-edge changes).  The relaxation is monotone, so the
    planned fixpoint equals what an in-place sweep would compute.

    Returns:
        ``(lowered, touched)`` — the nodes whose similarity drops, with
        old and new values (``start`` included when it drops), and the
        number of index nodes examined.
    """
    overlay: dict[int, int] = {}
    lowered: dict[int, tuple[int, int]] = {}
    if start_k < index.k[start]:
        overlay[start] = start_k
        lowered[start] = (index.k[start], start_k)
    touched = 0
    queue = deque([start])
    while queue:
        current = queue.popleft()
        ceiling = overlay.get(current, index.k[current]) + 1
        children = index.children[current]
        if add_edge is not None and current == add_edge[0]:
            children = children | {add_edge[1]}
        if drop_edge is not None and current == drop_edge[0]:
            children = children - {drop_edge[1]}
        for child in children:
            touched += 1
            if overlay.get(child, index.k[child]) > ceiling:
                previous = lowered.get(child, (index.k[child], 0))[0]
                lowered[child] = (previous, ceiling)
                overlay[child] = ceiling
                queue.append(child)
    return lowered, touched


def dk_add_edge(
    graph: DataGraph,
    index: IndexGraph,
    src_data: int,
    dst_data: int,
) -> EdgeUpdateReport:
    """Algorithm 5 — add a data edge and update the D(k)-index in place.

    Args:
        graph: the data graph (``index.graph``).
        index: the D(k)-index to update.
        src_data / dst_data: endpoints of the new data edge.

    The full plan — Algorithm 4's new similarity and Algorithm 5's
    lowering fixpoint — is computed *before* the first write, so every
    failure mode (unknown endpoints, duplicate edge, a fault injected
    mid-plan) raises while the graph and index are still untouched; the
    writes that follow are plain assignments that cannot fail.

    Raises:
        UnknownNodeError: if either endpoint is not covered by the
            graph and the index.
        UpdateError: if the data edge already exists or the index does
            not belong to ``graph``.
    """
    if index.graph is not graph:
        raise UpdateError("index was built over a different data graph")
    _require_endpoint(graph, index, src_data)
    _require_endpoint(graph, index, dst_data)
    if graph.has_edge(src_data, dst_data):
        raise UpdateError(f"data edge {src_data} -> {dst_data} already exists")

    source = index.node_of[src_data]
    target = index.node_of[dst_data]

    # Algorithm 4 runs against the index *before* the edge appears.
    old_k = index.k[target]
    new_k = update_local_similarity(index, source, target)
    will_add_index_edge = target not in index.children[source]
    lowered, touched = _simulate_lowering(
        index, target, min(new_k, old_k), add_edge=(source, target)
    )
    fault_point("add_edge.planned", index)

    # Writes: nothing below can raise.
    graph.add_edge(src_data, dst_data)
    fault_point("add_edge.graph_mutated", index)
    if will_add_index_edge:
        index.add_index_edge(source, target)
    fault_point("add_edge.index_edge", index)
    for node, (_old, new) in lowered.items():
        assign_similarity(index, node, new)
    fault_point("add_edge.lowered", index)

    return EdgeUpdateReport(
        source=source,
        target=target,
        old_k=old_k,
        new_k=index.k[target],
        lowered=lowered,
        index_nodes_touched=touched + 1,
        new_index_edge=will_add_index_edge,
    )


def enforce_dk_constraint(index: IndexGraph) -> int:
    """Restore Definition 3 by lowering similarities where violated.

    A global version of Algorithm 5's sweep: whenever an index edge has
    ``k(child) > k(parent) + 1``, lower the child (and keep propagating).
    Lowering is always sound — it only sends more queries to validation.

    Returns:
        The number of index nodes whose similarity was lowered.
    """
    queue = deque(range(index.num_nodes))
    lowered: set[int] = set()
    while queue:
        node = queue.popleft()
        ceiling = index.k[node] + 1
        for child in index.children[node]:
            if index.k[child] > ceiling:
                index.k[child] = ceiling
                lowered.add(child)
                queue.append(child)
    return len(lowered)


def dk_add_subgraph(
    graph: DataGraph,
    index: IndexGraph,
    subgraph: DataGraph,
    requirements: Mapping[str, int],
) -> tuple[IndexGraph, list[int]]:
    """Algorithm 3 — insert a document subgraph and update the index.

    Steps (Section 5.1):

    1. graft ``subgraph`` under the data graph's root;
    2. build the D(k)-index ``I_H`` of the subgraph — using the
       broadcast levels of the *combined* graph, honouring the paper's
       precondition that "the index nodes with the same label in the
       original I_G and I_H should have the same local similarity";
    3. place ``I_H`` beside the original index nodes (its root block
       merging with the original root block);
    4. treat the combined index graph as a data graph and compute *its*
       D(k)-index (Theorem 2 guarantees this equals the index built from
       scratch), merging extents;
    5. restore the D(k) constraint by lowering where the insertion
       introduced label adjacencies the original index was never
       broadcast for (a generalisation beyond the paper's same-DTD
       setting; when G and H share a schema this is a no-op and the
       result equals the from-scratch rebuild exactly).

    Returns:
        ``(new_index, mapping)`` where ``mapping`` maps subgraph node ids
        to their ids in the grown data graph.  The input ``index`` object
        is not mutated; callers swap in the returned one.
    """
    if index.graph is not graph:
        raise UpdateError("index was built over a different data graph")

    mapping = graph.graft(subgraph)
    fault_point("add_subgraph.grafted", index)

    # Broadcast over the *combined* graph, then express the levels in
    # the subgraph's own label-id space (names are shared).
    initial = resolve_requirements(graph, requirements)
    levels = broadcast_for_graph(graph, graph.num_labels, initial)
    sub_label_levels = [
        levels[graph.label_id(subgraph.label_name(label_id))]
        for label_id in range(subgraph.num_labels)
    ]
    from repro.partition.refinement import leveled_partition

    sub_node_levels = [
        sub_label_levels[subgraph.label_ids[node]]
        for node in range(subgraph.num_nodes)
    ]
    sub_partition = leveled_partition(subgraph, sub_node_levels)
    sub_block_k = [
        sub_node_levels[members[0]] for members in sub_partition.blocks
    ]

    # Provisional blocks over the grown data graph: original blocks keep
    # their ids; subgraph blocks (except the root block) get fresh ids.
    num_old = index.num_nodes
    block_of = list(index.node_of)
    block_of.extend([0] * (graph.num_nodes - len(block_of)))
    sub_root_block = sub_partition.block_of[subgraph.root]
    fresh: dict[int, int] = {}
    provisional_k = list(index.k)
    for sub_block in range(sub_partition.num_blocks):
        if sub_block == sub_root_block:
            continue
        fresh[sub_block] = num_old + len(fresh)
        provisional_k.append(sub_block_k[sub_block])
    for sub_node in range(1, subgraph.num_nodes):
        sub_block = sub_partition.block_of[sub_node]
        block_of[mapping[sub_node]] = (
            index.node_of[graph.root]
            if sub_block == sub_root_block
            else fresh[sub_block]
        )

    provisional = IndexGraph.from_partition(
        graph, Partition(block_of), provisional_k
    )
    merged = reindex_index_graph(provisional, levels)
    enforce_dk_constraint(merged)
    fault_point("add_subgraph.reindexed", merged)
    return merged, mapping


def dk_add_edges(
    graph: DataGraph,
    index: IndexGraph,
    edges: list[tuple[int, int]],
) -> list[EdgeUpdateReport]:
    """Apply a batch of edge additions, one Algorithm 4+5 pass each.

    A convenience wrapper over :func:`dk_add_edge` that groups the
    inevitable bookkeeping of update streams (the experiments apply 100
    edges at a time).  The whole batch is validated up front — unknown
    endpoints, edges already in the graph, and duplicates *within the
    batch* (including repeated self-loops) all raise before the first
    edge is applied, so a bad batch is a no-op rather than a partial
    application.

    Returns:
        One :class:`EdgeUpdateReport` per edge, in order.

    Raises:
        UnknownNodeError: if any endpoint is unknown.
        UpdateError: if any edge already exists or appears twice in the
            batch.
    """
    if index.graph is not graph:
        raise UpdateError("index was built over a different data graph")
    seen: set[tuple[int, int]] = set()
    for src, dst in edges:
        _require_endpoint(graph, index, src)
        _require_endpoint(graph, index, dst)
        if graph.has_edge(src, dst):
            raise UpdateError(f"data edge {src} -> {dst} already exists")
        if (src, dst) in seen:
            raise UpdateError(f"duplicate edge {src} -> {dst} in batch")
        seen.add((src, dst))
    return [dk_add_edge(graph, index, src, dst) for src, dst in edges]


def dk_remove_edge(
    graph: DataGraph,
    index: IndexGraph,
    src_data: int,
    dst_data: int,
) -> EdgeUpdateReport:
    """Extension: remove a data edge and update the D(k)-index in place.

    The paper evaluates only additive updates but notes that "all other
    update operations on the D(k)-index can be built on these two basic
    cases"; deletion follows the same index-only recipe as Algorithm 5:

    - drop the data edge;
    - drop the index edge U -> V only if no other data edge still
      crosses it (scanning U's extent adjacency — cheap and local);
    - removing an incoming edge changes V's (and its descendants')
      incoming label paths exactly like adding one does, so V's local
      similarity is conservatively lowered to 0 (label homogeneity is
      the only level a changed parent set cannot disturb) and Algorithm
      5's breadth-first sweep restores the structural constraint.

    Soundness is preserved (lowering only sends more queries to
    validation); a later promote recovers the lost similarity.

    Like :func:`dk_add_edge`, the whole plan (index-edge survival scan,
    lowering fixpoint) is computed before the first write.

    Raises:
        UnknownNodeError: if either endpoint is not covered by the
            graph and the index.
        UpdateError: if the data edge does not exist.
    """
    if index.graph is not graph:
        raise UpdateError("index was built over a different data graph")
    _require_endpoint(graph, index, src_data)
    _require_endpoint(graph, index, dst_data)
    if not graph.has_edge(src_data, dst_data):
        raise UpdateError(f"data edge {src_data} -> {dst_data} does not exist")

    source = index.node_of[src_data]
    target = index.node_of[dst_data]
    # Does any *other* data edge still cross the index edge U -> V?
    crossing_remains = any(
        index.node_of[child] == target
        and (member, child) != (src_data, dst_data)
        for member in index.extents[source]
        for child in graph.children[member]
    )
    old_k = index.k[target]
    lowered, touched = _simulate_lowering(
        index,
        target,
        0,
        drop_edge=None if crossing_remains else (source, target),
    )
    fault_point("remove_edge.planned", index)

    # Writes: nothing below can raise.
    graph.remove_edge(src_data, dst_data)
    fault_point("remove_edge.graph_mutated", index)
    if not crossing_remains:
        index.remove_index_edge(source, target)
    for node, (_old, new) in lowered.items():
        assign_similarity(index, node, new)
    fault_point("remove_edge.lowered", index)

    return EdgeUpdateReport(
        source=source,
        target=target,
        old_k=old_k,
        new_k=0,
        lowered=lowered,
        index_nodes_touched=touched + 1,
        new_index_edge=False,
    )


# ----------------------------------------------------------------------
# A(k) propagate-update baseline (Section 6.2)
# ----------------------------------------------------------------------


@dataclass
class PropagateReport:
    """Work done by the A(k) propagate update.

    Attributes:
        data_nodes_touched: data-graph nodes whose parent lists were
            scanned while recomputing signatures — the expensive part.
        index_nodes_split: index nodes whose extents were re-partitioned.
        new_index_nodes: index nodes created by the splits.
    """

    data_nodes_touched: int = 0
    index_nodes_split: int = 0
    new_index_nodes: int = 0


def ak_propagate_add_edge(
    graph: DataGraph,
    index: IndexGraph,
    src_data: int,
    dst_data: int,
    k: int,
) -> PropagateReport:
    """Add a data edge to an A(k)-index via propagate re-partitioning.

    "When a new edge is added to the A(k)-index graph, it creates a new
    index node.  Next, it recursively checks if the newly created index
    node's child index nodes satisfy k local similarity.  If yes, it
    stops; otherwise it partitions the extent of the target index node
    ... The update is propagated to index nodes up to (k-1) distant from
    the first new index node." (Section 6.2)

    Every re-partitioning computes member signatures from the *data
    graph*'s parent lists, which is what makes this costly.

    Raises:
        UpdateError: if the edge already exists.
    """
    if index.graph is not graph:
        raise UpdateError("index was built over a different data graph")
    if graph.has_edge(src_data, dst_data):
        raise UpdateError(f"data edge {src_data} -> {dst_data} already exists")
    if k < 0:
        raise ValueError("k must be non-negative")

    report = PropagateReport()
    graph.add_edge(src_data, dst_data)

    target_block = index.node_of[dst_data]
    if k == 0:
        # A(0) extents are label-only; the index graph gains at most the
        # quotient edge ("the index graph remains unchanged" up to that).
        index.add_index_edge(index.node_of[src_data], target_block)
        return report

    # Carve the end node out of its block: its 1-level parent signature
    # changed, so it can no longer share an extent blindly.
    if index.extent_size(target_block) > 1:
        rest = [m for m in index.extents[target_block] if m != dst_data]
        ids = index.split_node(target_block, [[dst_data], rest])
        report.index_nodes_split += 1
        report.new_index_nodes += len(ids) - 1
        frontier = set(ids)
    else:
        index.add_index_edge(index.node_of[src_data], target_block)
        frontier = {target_block}

    # Propagate: re-partition descendant index nodes by data-level parent
    # signature.  The 1-index propagate "essentially refines all
    # descendant index nodes" — every descendant within distance k-1 is
    # *checked* (its members' signatures recomputed from the data graph)
    # whether or not it ends up splitting, which is what makes the A(k)
    # update expensive for large k.
    for _depth in range(1, k):
        if not frontier:
            break
        children_to_fix: set[int] = set()
        for block in frontier:
            children_to_fix.update(index.children[block])
        next_frontier: set[int] = set()
        for block in sorted(children_to_fix):
            groups: dict[frozenset[int], list[int]] = {}
            for member in index.extents[block]:
                report.data_nodes_touched += 1 + len(graph.parents[member])
                signature = frozenset(
                    index.node_of[parent] for parent in graph.parents[member]
                )
                groups.setdefault(signature, []).append(member)
            if len(groups) > 1:
                parts = [groups[key] for key in sorted(groups, key=sorted)]
                ids = index.split_node(block, parts)
                report.index_nodes_split += 1
                report.new_index_nodes += len(ids) - 1
                next_frontier.update(ids)
            else:
                next_frontier.add(block)
        frontier = next_frontier
    return report
