"""Traversal utilities over data graphs and index graphs.

These helpers are shared by the evaluators, the update algorithms and the
statistics module.  All of them operate on the "duck" adjacency interface
(objects exposing ``children``, ``parents`` and ``num_nodes``), so they
work on :class:`~repro.graph.datagraph.DataGraph` and
:class:`~repro.indexes.base.IndexGraph` alike.
"""

from __future__ import annotations

from collections import deque
from typing import Iterable, Iterator, Protocol, Sequence


class Adjacency(Protocol):
    """Structural typing for anything with parent/child adjacency rows."""

    children: Sequence[Sequence[int]]
    parents: Sequence[Sequence[int]]

    @property
    def num_nodes(self) -> int: ...


def bfs_order(graph: Adjacency, start: int) -> list[int]:
    """Nodes reachable from ``start`` (inclusive) in BFS order."""
    seen = [False] * graph.num_nodes
    seen[start] = True
    order = [start]
    queue = deque([start])
    children = graph.children
    while queue:
        node = queue.popleft()
        for child in children[node]:
            if not seen[child]:
                seen[child] = True
                order.append(child)
                queue.append(child)
    return order


def bfs_distances(graph: Adjacency, start: int) -> dict[int, int]:
    """Shortest forward distance (in edges) from ``start`` to each
    reachable node."""
    dist = {start: 0}
    queue = deque([start])
    children = graph.children
    while queue:
        node = queue.popleft()
        base = dist[node]
        for child in children[node]:
            if child not in dist:
                dist[child] = base + 1
                queue.append(child)
    return dist


def reachable_from(graph: Adjacency, starts: Iterable[int]) -> set[int]:
    """Set of nodes reachable from any node in ``starts`` (inclusive)."""
    seen: set[int] = set()
    stack = [s for s in starts]
    children = graph.children
    while stack:
        node = stack.pop()
        if node in seen:
            continue
        seen.add(node)
        stack.extend(children[node])
    return seen


def ancestors_within(graph: Adjacency, node: int, radius: int) -> dict[int, int]:
    """Nodes with a *backward* path of length <= radius to ``node``.

    Returns a ``{ancestor: distance}`` map; ``node`` itself is included
    with distance 0.  Used by the A(k) propagate update and by tests.
    """
    dist = {node: 0}
    queue = deque([node])
    parents = graph.parents
    while queue:
        current = queue.popleft()
        base = dist[current]
        if base == radius:
            continue
        for parent in parents[current]:
            if parent not in dist:
                dist[parent] = base + 1
                queue.append(parent)
    return dist


def descendants_within(graph: Adjacency, node: int, radius: int) -> dict[int, int]:
    """Nodes with a *forward* path of length <= radius from ``node``.

    Returns a ``{descendant: distance}`` map including ``node`` at 0.
    """
    dist = {node: 0}
    queue = deque([node])
    children = graph.children
    while queue:
        current = queue.popleft()
        base = dist[current]
        if base == radius:
            continue
        for child in children[current]:
            if child not in dist:
                dist[child] = base + 1
                queue.append(child)
    return dist


def topological_order(graph: Adjacency) -> list[int] | None:
    """Kahn topological order, or None if the graph has a cycle.

    Reference edges routinely create cycles in XML data graphs, so callers
    must handle the ``None`` case; the tree skeleton produced by the XML
    parser is always acyclic.
    """
    indegree = [len(graph.parents[node]) for node in range(graph.num_nodes)]
    queue = deque(node for node, deg in enumerate(indegree) if deg == 0)
    order: list[int] = []
    while queue:
        node = queue.popleft()
        order.append(node)
        for child in graph.children[node]:
            indegree[child] -= 1
            if indegree[child] == 0:
                queue.append(child)
    if len(order) != graph.num_nodes:
        return None
    return order


def iter_label_paths_to(
    graph: Adjacency,
    label_ids: Sequence[int],
    node: int,
    length: int,
    limit: int | None = None,
) -> Iterator[tuple[int, ...]]:
    """Yield distinct incoming label paths of exactly ``length`` labels
    ending *at* ``node`` (the path includes ``node``'s own label last).

    A label path here is a tuple of label ids ``(l_1, ..., l_length)``
    such that some node path ``n_1 -> ... -> n_length = node`` matches it.
    ``limit`` bounds the number of *paths yielded* as a safety valve for
    graphs with exponential path sets.
    """
    if length <= 0:
        return
    yielded = 0
    seen: set[tuple[int, ...]] = set()
    # Depth-first over (node, suffix) pairs, building paths right-to-left.
    stack: list[tuple[int, tuple[int, ...]]] = [(node, (label_ids[node],))]
    parents = graph.parents
    while stack:
        current, suffix = stack.pop()
        if len(suffix) == length:
            if suffix not in seen:
                seen.add(suffix)
                yield suffix
                yielded += 1
                if limit is not None and yielded >= limit:
                    return
            continue
        for parent in parents[current]:
            stack.append((parent, (label_ids[parent],) + suffix))


def label_path_exists(
    graph: Adjacency,
    label_ids: Sequence[int],
    node: int,
    path: Sequence[int],
) -> bool:
    """True if the label-id path ``path`` matches ``node``.

    That is, some node path ``n_1 -> ... -> n_p = node`` satisfies
    ``label(n_i) == path[i]`` (Section 3's definition of a label path
    matching a node).  Works backwards from ``node`` with memoisation.
    """
    if not path:
        return False
    if label_ids[node] != path[-1]:
        return False
    memo: dict[tuple[int, int], bool] = {}
    parents = graph.parents

    def match_up(current: int, position: int) -> bool:
        # position: index into path of the label `current` has just matched.
        if position == 0:
            return True
        key = (current, position)
        cached = memo.get(key)
        if cached is not None:
            return cached
        want = path[position - 1]
        result = any(
            label_ids[parent] == want and match_up(parent, position - 1)
            for parent in parents[current]
        )
        memo[key] = result
        return result

    return match_up(node, len(path) - 1)
