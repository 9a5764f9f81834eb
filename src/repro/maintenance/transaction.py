"""Atomic update transactions over (data graph, index graph) pairs.

``dk_add_edge`` and friends mutate the data graph *and* the index; an
exception between the two writes used to strand them in a divergent
state with no recovery.  :class:`UpdateTransaction` makes every mutating
operation atomic: it snapshots the touched state on entry and, if the
operation raises, restores a **bit-identical** pre-update state — same
adjacency rows in the same order, same extent lists, same similarity
vector — before re-raising.  Rollback also puts back the data graph's
frozen view as it was on entry (possibly none): that view describes the
restored rows exactly, and a view frozen inside a rolled-back operation
is never served as current.  An index graph caches no view.

Two snapshot scopes are supported:

- ``"edge"`` — the minimal delta for a single edge addition/removal:
  the two touched adjacency rows (by reference; rows are immutable), a
  copy of the (small) similarity vector and the presence of the one
  index edge the operation may toggle.  ``O(index nodes)``, independent
  of data size — this is what keeps the transactional default within
  the Table-1 overhead budget.
- ``"full"`` — a restore-in-place copy of every mutable field of both
  structures, used by the extent-changing operations (subgraph
  insertion, promote, demote, batches).  The data graph's rows are
  shared, not copied, so its part is ``O(nodes)`` pointers; the index's
  part is ``O(index nodes + index edges)``.

The checkpoint classes are also usable on their own (the journal's
replay and the chaos harness use :func:`state_fingerprint` to assert
bit-identity).
"""

from __future__ import annotations

from types import TracebackType
from typing import Literal

from repro.exceptions import MaintenanceError
from repro.graph.datagraph import DataGraph
from repro.indexes.base import IndexGraph

Scope = Literal["full", "add-edge", "remove-edge"]


def state_fingerprint(
    graph: DataGraph, index: IndexGraph
) -> tuple[object, ...]:
    """A hashable, order-sensitive fingerprint of the mutable state.

    Two states with equal fingerprints are bit-identical as far as every
    algorithm in this library can observe: label tables, adjacency row
    *order*, extent membership and order, ``node_of``, similarity vector
    and index adjacency.
    """
    return (
        tuple(graph.label_names()),
        tuple(graph.label_ids),
        tuple(graph.children),
        tuple(graph.parents),
        graph.num_edges,
        tuple(index.label_ids),
        tuple(tuple(extent) for extent in index.extents),
        tuple(index.node_of),
        tuple(frozenset(outs) for outs in index.children),
        tuple(frozenset(ins) for ins in index.parents),
        tuple(index.k),
    )


class GraphCheckpoint:
    """Restore-in-place snapshot of a :class:`DataGraph`.

    Rows are immutable, so capturing copies only the two outer lists and
    restoring puts every row back by reference, together with the frozen
    view the graph held on entry.
    """

    def __init__(self, graph: DataGraph) -> None:
        self.graph = graph
        self._label_names = list(graph._label_names)
        self._label_ids = list(graph.label_ids)
        self._children = list(graph.children)
        self._parents = list(graph.parents)
        self._num_edges = graph.num_edges
        self._view = graph._frozen

    def restore(self) -> None:
        """Put the graph back exactly as captured (same object, and the
        same outer lists, which readers may hold)."""
        graph = self.graph
        graph._label_names[:] = self._label_names
        graph._label_table.clear()
        graph._label_table.update(
            {name: i for i, name in enumerate(self._label_names)}
        )
        graph.label_ids[:] = self._label_ids
        graph.children[:] = self._children
        graph.parents[:] = self._parents
        graph._child_sets[:] = [None] * len(self._children)
        graph._num_edges = self._num_edges
        graph._frozen = self._view


class IndexCheckpoint:
    """Restore-in-place snapshot of an :class:`IndexGraph`."""

    def __init__(self, index: IndexGraph) -> None:
        self.index = index
        self._label_ids = list(index.label_ids)
        self._extents = [list(extent) for extent in index.extents]
        self._node_of = list(index.node_of)
        self._children = [set(outs) for outs in index.children]
        self._parents = [set(ins) for ins in index.parents]
        self._k = list(index.k)

    def restore(self) -> None:
        """Put the index back exactly as captured (same object)."""
        index = self.index
        index.label_ids[:] = self._label_ids
        index.extents[:] = [list(extent) for extent in self._extents]
        index.node_of[:] = self._node_of
        index.children[:] = [set(outs) for outs in self._children]
        index.parents[:] = [set(ins) for ins in self._parents]
        index.k[:] = self._k
        index._label_index.clear()
        for node, label_id in enumerate(self._label_ids):
            index._label_index.setdefault(label_id, set()).add(node)


class _EdgeDelta:
    """Minimal checkpoint for one data-edge addition or removal.

    Captures just enough to undo the two row replacements of
    ``DataGraph.add_edge``/``remove_edge``, the graph's frozen view on
    entry, and the index-side effects an edge update may have (one
    quotient edge toggled, similarities lowered).  Extents and
    ``node_of`` are never touched by edge updates (the paper's headline
    property), so they are not captured.
    """

    def __init__(
        self,
        graph: DataGraph,
        index: IndexGraph,
        src: int,
        dst: int,
    ) -> None:
        self.graph = graph
        self.index = index
        self.src = src
        self.dst = dst
        self._view = graph._frozen
        # Endpoints may be unknown (the operation will then raise before
        # its first write); capture an inert delta in that case.
        self.inert = not (
            graph.has_node(src)
            and graph.has_node(dst)
            and src < len(index.node_of)
            and dst < len(index.node_of)
        )
        if self.inert:
            self._k: list[int] = []
            return
        self._k = list(index.k)
        self._child_row = graph.children[src]
        self._parent_row = graph.parents[dst]
        self._num_edges = graph.num_edges
        self._source = index.node_of[src]
        self._target = index.node_of[dst]
        self._had_index_edge = self._target in index.children[self._source]

    def restore(self) -> None:
        graph, index = self.graph, self.index
        graph._frozen = self._view
        if self.inert:
            return
        src, dst = self.src, self.dst
        if graph.children[src] is not self._child_row:
            graph.children[src] = self._child_row
            graph._child_sets[src] = None  # rebuilt from children[src]
        graph.parents[dst] = self._parent_row
        graph._num_edges = self._num_edges
        index.k[:] = self._k
        has_index_edge = self._target in index.children[self._source]
        if self._had_index_edge and not has_index_edge:
            index.add_index_edge(self._source, self._target)
        elif not self._had_index_edge and has_index_edge:
            index.remove_index_edge(self._source, self._target)


class UpdateTransaction:
    """Context manager: roll the (graph, index) pair back on exception.

    Usage::

        with UpdateTransaction(graph, index):
            dk_add_edge(graph, index, src, dst)

    On a clean exit nothing happens (the checkpoint is dropped).  On an
    exception the captured state is restored bit-identically and the
    exception propagates — callers decide whether rollback is the end of
    the story (it is for :class:`~repro.maintenance.pipeline.UpdatePipeline`,
    whose journal then holds no record of the operation).

    Args:
        graph: the data graph.
        index: the index over it.
        scope: ``"full"`` (default, any operation), or the minimal
            ``"add-edge"`` / ``"remove-edge"`` deltas for single-edge
            operations (require ``edge``).
        edge: the ``(src_data, dst_data)`` pair for edge scopes.
    """

    def __init__(
        self,
        graph: DataGraph,
        index: IndexGraph,
        scope: Scope = "full",
        edge: tuple[int, int] | None = None,
    ) -> None:
        if index.graph is not graph:
            raise MaintenanceError(
                "transaction endpoints disagree: index.graph is not graph"
            )
        self.graph = graph
        self.index = index
        self.scope: Scope = scope
        self.rolled_back = False
        if scope == "full":
            self._graph_cp: GraphCheckpoint | None = GraphCheckpoint(graph)
            self._index_cp: IndexCheckpoint | None = IndexCheckpoint(index)
            self._edge_delta: _EdgeDelta | None = None
        elif scope in ("add-edge", "remove-edge"):
            if edge is None:
                raise MaintenanceError(f"scope {scope!r} requires edge=")
            self._graph_cp = None
            self._index_cp = None
            self._edge_delta = _EdgeDelta(graph, index, edge[0], edge[1])
        else:  # pragma: no cover - Literal keeps this unreachable
            raise MaintenanceError(f"unknown transaction scope {scope!r}")

    def rollback(self) -> None:
        """Restore the captured state (idempotent)."""
        if self.rolled_back:
            return
        if self._edge_delta is not None:
            self._edge_delta.restore()
        else:
            assert self._graph_cp is not None and self._index_cp is not None
            self._graph_cp.restore()
            self._index_cp.restore()
        self.rolled_back = True

    def __enter__(self) -> "UpdateTransaction":
        return self

    def __exit__(
        self,
        exc_type: type[BaseException] | None,
        exc: BaseException | None,
        traceback: TracebackType | None,
    ) -> bool:
        if exc_type is not None:
            self.rollback()
        return False
