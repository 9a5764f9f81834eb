"""Algorithm 1 — the Local Similarity Broadcast Algorithm.

Query-load mining yields a local-similarity *requirement* per label.
Definition 3 additionally constrains the index structure: for any index
edge ``n_i -> n_j``, ``k(n_i) >= k(n_j) - 1`` — a parent must be refined
to (almost) the level of its children, or Theorem 1's soundness argument
breaks.  Since index edges only connect labels adjacent in the
label-split graph, enforcing the constraint at the label level suffices.

The broadcast processes labels from the highest requirement downwards:
a label processed at level ``v`` raises each of its *parent labels* to at
least ``v - 1``.  Each label is processed exactly once — at its final
(maximal) level — so the total work is O(m) in the number of label-graph
edges, as claimed in Section 4.2.  Only levels that hold a label are
visited, so the work does not grow with the requirement's size.
"""

from __future__ import annotations

import heapq
from typing import Mapping, Protocol, Sequence

#: Largest requirement a level may hold, so that every index ``k`` fits
#: a signed 64-bit integer; the loaders and the CLI reject larger ones
#: with a typed error.
MAX_LEVEL = 2**63 - 1


class _LabeledAdjacency(Protocol):
    label_ids: Sequence[int]
    parents: Sequence[Sequence[int]]

    @property
    def num_nodes(self) -> int: ...


def label_parent_graph(graph: _LabeledAdjacency, num_labels: int) -> list[set[int]]:
    """Parent adjacency of the label-split graph.

    ``result[child_label]`` is the set of labels appearing as a parent of
    some node carrying ``child_label``.  Works on data graphs and index
    graphs alike.
    """
    parent_labels: list[set[int]] = [set() for _ in range(num_labels)]
    label_ids = graph.label_ids
    parents = graph.parents
    for node in range(graph.num_nodes):
        bucket = parent_labels[label_ids[node]]
        for parent in parents[node]:
            bucket.add(label_ids[parent])
    return parent_labels


def broadcast_levels(
    parent_labels: Sequence[set[int]],
    initial: Mapping[int, int],
) -> list[int]:
    """Run the broadcast; return the adjusted level per label id.

    Args:
        parent_labels: label-level parent adjacency
            (see :func:`label_parent_graph`).
        initial: ``{label_id: requirement}``; absent labels default to 0
            ("the default local similarity requirements of those labels
            that never appear in the query load are set to zero").

    Returns:
        ``levels`` with ``levels[l] >= initial.get(l, 0)`` and
        ``levels[parent] >= levels[child] - 1`` for every label edge.

    Raises:
        ValueError: for a requirement below 0 or above
            :data:`MAX_LEVEL`, or a label id out of range.

    Example:
        >>> # c (req 2) under b under a: b must reach 1, a stays 0.
        >>> parent_labels = [set(), {0}, {1}]
        >>> broadcast_levels(parent_labels, {2: 2})
        [0, 1, 2]
    """
    num_labels = len(parent_labels)
    levels = [0] * num_labels
    for label, requirement in initial.items():
        if requirement < 0:
            raise ValueError(f"negative requirement for label {label}: {requirement}")
        if requirement > MAX_LEVEL:
            raise ValueError(
                f"requirement for label {label} exceeds 2**63 - 1: {requirement}"
            )
        if not 0 <= label < num_labels:
            raise ValueError(f"label id out of range: {label}")
        levels[label] = requirement

    buckets: dict[int, set[int]] = {}
    for label, level in enumerate(levels):
        if level > 0:
            buckets.setdefault(level, set()).add(label)
    # The non-empty levels, largest first; a label raised to a new level
    # adds it below the one being processed.
    pending = [-level for level in buckets]
    heapq.heapify(pending)

    processed = [False] * num_labels
    while pending:
        level = -heapq.heappop(pending)
        # Sorted for deterministic processing order.
        for label in sorted(buckets.pop(level)):
            if processed[label] or levels[label] != level:
                continue  # raised past this bucket, or stale entry
            processed[label] = True
            floor = level - 1
            if floor == 0:
                continue
            for parent in parent_labels[label]:
                if levels[parent] < floor:
                    levels[parent] = floor
                    if floor not in buckets:
                        buckets[floor] = set()
                        heapq.heappush(pending, -floor)
                    buckets[floor].add(parent)
    return levels


def broadcast_for_graph(
    graph: _LabeledAdjacency,
    num_labels: int,
    initial: Mapping[int, int],
) -> list[int]:
    """Convenience wrapper: build the label graph and broadcast."""
    return broadcast_levels(label_parent_graph(graph, num_labels), initial)
