"""Convenience builder for constructing data graphs declaratively.

:class:`GraphBuilder` wraps :class:`~repro.graph.datagraph.DataGraph`
with a small fluent API used heavily by the tests and the examples:
nodes can be named, trees can be declared from nested dictionaries, and
reference edges can be added by node name.
"""

from __future__ import annotations

from typing import Mapping, Sequence, Union

from repro.exceptions import GraphError
from repro.graph.datagraph import DataGraph

#: A tree spec is ``{"label": [child_spec, ...]}`` or just ``"label"``.
TreeSpec = Union[str, Mapping[str, Sequence["TreeSpec"]]]


class GraphBuilder:
    """Incrementally build a :class:`DataGraph` with named nodes.

    Example:
        >>> b = GraphBuilder()
        >>> b.node("m1", "movie", parent="root")
        'm1'
        >>> b.node("t1", "title", parent="m1")
        't1'
        >>> g = b.graph
        >>> g.label(b.id_of("t1"))
        'title'
    """

    def __init__(self) -> None:
        self._graph = DataGraph()
        self._names: dict[str, int] = {"root": self._graph.root}
        # Edges not yet in the graph, in order; added in one batch when
        # the graph is read, so a node with many children costs linear
        # time (DataGraph.add_edges).
        self._pending: dict[tuple[int, int], None] = {}

    @property
    def graph(self) -> DataGraph:
        """The graph built so far."""
        if self._pending:
            pending, self._pending = self._pending, {}
            self._graph.add_edges(
                [src for src, _ in pending], [dst for _, dst in pending]
            )
        return self._graph

    def id_of(self, name: str) -> int:
        """Return the node id registered under ``name``.

        Raises:
            GraphError: if no node with that name exists.
        """
        try:
            return self._names[name]
        except KeyError:
            raise GraphError(f"unknown node name: {name!r}") from None

    def node(self, name: str, label: str, parent: str | None = None) -> str:
        """Create a node called ``name`` with ``label``.

        If ``parent`` is given, an edge from the parent node is added.
        Returns ``name`` for chaining.

        Raises:
            GraphError: if ``name`` is already taken.
        """
        if name in self._names:
            raise GraphError(f"duplicate node name: {name!r}")
        node = self._graph.add_node(label)
        self._names[name] = node
        if parent is not None:
            self._pending[(self.id_of(parent), node)] = None
        return name

    def edge(self, src: str, dst: str) -> None:
        """Add an edge between two named nodes.

        Raises:
            GraphError: if either name is unknown or the edge exists.
        """
        edge = (self.id_of(src), self.id_of(dst))
        if edge in self._pending or self._graph.has_edge(*edge):
            raise GraphError(f"duplicate edge {edge[0]} -> {edge[1]}")
        self._pending[edge] = None

    def tree(self, spec: TreeSpec, parent: str = "root", prefix: str = "") -> str:
        """Declare a whole subtree from a nested mapping.

        Each node is auto-named ``{prefix}{label}{counter}``; the name of
        the subtree root is returned so reference edges can target it.

        Example:
            >>> b = GraphBuilder()
            >>> root = b.tree({"movie": ["title", {"actor": ["name"]}]})
            >>> sorted(b.graph.label_names())
            ['ROOT', 'actor', 'movie', 'name', 'title']
        """
        if isinstance(spec, str):
            label, children = spec, []
        else:
            if len(spec) != 1:
                raise GraphError("tree spec mapping must have exactly one key")
            label, children = next(iter(spec.items()))
        name = self._fresh_name(prefix + label)
        self.node(name, label, parent=parent)
        for child in children:
            self.tree(child, parent=name, prefix=prefix)
        return name

    def _fresh_name(self, base: str) -> str:
        if base not in self._names:
            return base
        counter = 2
        while f"{base}{counter}" in self._names:
            counter += 1
        return f"{base}{counter}"


def graph_from_edges(
    labels: Sequence[str], edges: Sequence[tuple[int, int]]
) -> DataGraph:
    """Build a graph from parallel label/edge lists.

    ``labels[i]`` is the label of node ``i + 1`` (node 0 is always the
    implicit ROOT).  ``edges`` use those final node ids, so ``(0, 1)``
    connects the root to the first labeled node.  This is the terse format
    used throughout the unit tests and by the property-based generators.

    Example:
        >>> g = graph_from_edges(["a", "b"], [(0, 1), (1, 2)])
        >>> g.label(2)
        'b'
    """
    graph = DataGraph()
    graph.add_nodes(labels)
    graph.add_edges([src for src, _ in edges], [dst for _, dst in edges])
    return graph
