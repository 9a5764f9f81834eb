"""Reachability over data graphs and index graphs.

:func:`reachable_from` works on the "duck" adjacency interface (objects
exposing ``children``, ``parents`` and ``num_nodes``), so it serves
:class:`~repro.graph.datagraph.DataGraph` and
:class:`~repro.indexes.base.IndexGraph` alike.
"""

from __future__ import annotations

from typing import Iterable, Protocol, Sequence


class Adjacency(Protocol):
    """Structural typing for anything with parent/child adjacency rows."""

    children: Sequence[Sequence[int]]
    parents: Sequence[Sequence[int]]

    @property
    def num_nodes(self) -> int: ...


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
