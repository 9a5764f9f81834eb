"""Frozen columnar (CSR) views of data and index graphs.

The mutable structures — :class:`~repro.graph.datagraph.DataGraph` with
its per-node ``tuple[int, ...]`` adjacency rows, :class:`IndexGraph` with
its adjacency *sets* and dict-shaped extent bookkeeping — are the right
shape for the paper's additive update model, but every hot refinement
loop pays for their pointer-chasing: one row object per node, one
``PyObject*`` per neighbour, re-allocated signature containers per
round.  Following the flat partition-array representations of Rau et
al. ("Computing k-Bisimulations for Large Graphs") and Blume et al.
("Time and Memory Efficient Parallel Algorithm for Structural Graph
Summaries"), this module provides a *frozen* compressed-sparse-row view:

- ``child_offsets``/``child_targets`` — forward adjacency as two flat
  ``array('q')`` buffers: the children of node ``u`` are
  ``child_targets[child_offsets[u] : child_offsets[u + 1]]``;
- ``parent_offsets``/``parent_targets`` — the same for backward
  adjacency (refinement looks *up* the graph);
- ``label_ids`` — flat per-node label-id buffer.

That is all refinement reads: Algorithm 2 and the index-graph re-index
behind subgraph addition and demote look only at labels and parent and
child adjacency, so extents and local similarities stay on the mutable
index graph.

Contiguous ``array('q')`` buffers cost 8 bytes per entry, admit
zero-copy ``memoryview`` slicing and are `numpy`-wrappable via
``numpy.frombuffer`` without copying when the optional ``fast`` extra
is installed.

``DataGraph.freeze()`` caches the view in one field of the graph,
which every mutation clears and :meth:`DataGraph.copy` shares, and the
next ``freeze()`` rebuilds it; a rolled-back update puts back the view
the graph held on entry.  ``IndexGraph.freeze()`` builds a fresh view
on every call: its one reader re-indexes the index once and returns a
new one.  A view never changes, so one read before a mutation describes
the graph as it was.
"""

from __future__ import annotations

from array import array
from typing import Iterable, Protocol, Sequence

from repro.exceptions import GraphError

#: ``array`` typecode of every CSR buffer: signed 64-bit ("q").
BUFFER_TYPECODE = "q"


class CSRBuffers(Protocol):
    """The read surface a refinement engine needs from a CSR snapshot.

    Satisfied structurally by :class:`CSRGraph` (flat in-memory
    ``array('q')`` buffers) and by
    :class:`repro.storage.paged.PagedCSRGraph`, whose buffers are
    lazily paged in from disk through an LRU pool.  Engines written
    against this protocol — the columnar engine and its out-of-core
    ``external`` subclass — never learn which one they got.
    """

    @property
    def label_ids(self) -> Sequence[int]: ...  # noqa: D102 - protocol

    @property
    def child_offsets(self) -> Sequence[int]: ...  # noqa: D102 - protocol

    @property
    def child_targets(self) -> Sequence[int]: ...  # noqa: D102 - protocol

    @property
    def parent_offsets(self) -> Sequence[int]: ...  # noqa: D102 - protocol

    @property
    def parent_targets(self) -> Sequence[int]: ...  # noqa: D102 - protocol

    @property
    def num_nodes(self) -> int: ...  # noqa: D102 - protocol


def flatten_adjacency(
    adjacency: Sequence[Iterable[int]], *, sort: bool = False
) -> tuple[array, array]:
    """Flatten per-node neighbour collections into (offsets, targets).

    ``offsets`` has ``len(adjacency) + 1`` entries; node ``u``'s
    neighbours occupy ``targets[offsets[u] : offsets[u + 1]]``.  With
    ``sort=True`` each node's neighbours are stored ascending — used for
    set-shaped adjacency whose iteration order is not deterministic.
    """
    offsets = array(BUFFER_TYPECODE, [0])
    targets = array(BUFFER_TYPECODE)
    for neighbours in adjacency:
        targets.extend(sorted(neighbours) if sort else neighbours)
        offsets.append(len(targets))
    return offsets, targets


class CSRGraph:
    """An immutable columnar snapshot of a labeled graph.

    Instances are produced by ``DataGraph.freeze()`` and
    ``IndexGraph.freeze()``, and by
    :meth:`~repro.storage.paged.PagedCSRGraph.to_csr`; the columnar
    refinement engine and the paged store's page-out consume them.
    All buffers are ``array('q')``; treat them as read-only.  A data
    graph's current view is its
    :attr:`~repro.graph.datagraph.DataGraph.frozen_view`.
    """

    __slots__ = (
        "label_ids",
        "child_offsets",
        "child_targets",
        "parent_offsets",
        "parent_targets",
        "num_labels",
    )

    def __init__(
        self,
        label_ids: array,
        child_offsets: array,
        child_targets: array,
        parent_offsets: array,
        parent_targets: array,
        *,
        num_labels: int,
    ) -> None:
        n = len(label_ids)
        if len(child_offsets) != n + 1 or len(parent_offsets) != n + 1:
            raise GraphError(
                "CSR offset buffers must have num_nodes + 1 entries"
            )
        if len(child_targets) != len(parent_targets):
            raise GraphError(
                "child and parent target buffers disagree on edge count"
            )
        self.label_ids = label_ids
        self.child_offsets = child_offsets
        self.child_targets = child_targets
        self.parent_offsets = parent_offsets
        self.parent_targets = parent_targets
        self.num_labels = num_labels

    # ------------------------------------------------------------------
    # Size and access
    # ------------------------------------------------------------------

    @property
    def num_nodes(self) -> int:
        """Number of nodes in the snapshot."""
        return len(self.label_ids)

    @property
    def num_edges(self) -> int:
        """Number of directed edges in the snapshot."""
        return len(self.child_targets)

    def __len__(self) -> int:
        return self.num_nodes

    def __repr__(self) -> str:
        return (
            f"CSRGraph(nodes={self.num_nodes}, "
            f"edges={self.num_edges}, labels={self.num_labels})"
        )

    def children(self, node: int) -> array:
        """The children of ``node`` (a copy — slicing an ``array``)."""
        return self.child_targets[
            self.child_offsets[node] : self.child_offsets[node + 1]
        ]

    def parents(self, node: int) -> array:
        """The parents of ``node`` (a copy — slicing an ``array``)."""
        return self.parent_targets[
            self.parent_offsets[node] : self.parent_offsets[node + 1]
        ]

    def out_degree(self, node: int) -> int:
        """Number of children of ``node``."""
        return self.child_offsets[node + 1] - self.child_offsets[node]

    def in_degree(self, node: int) -> int:
        """Number of parents of ``node``."""
        return self.parent_offsets[node + 1] - self.parent_offsets[node]

    # ------------------------------------------------------------------
    # Validation
    # ------------------------------------------------------------------

    def check_invariants(self) -> None:
        """Verify offset monotonicity and target ranges; raise on error.

        Linear checks that the buffers describe one consistent graph:
        offsets span their targets, every id is in range, and both
        directions hold the same edges.  The tests run it on frozen
        views and on paged snapshots read back with ``to_csr()``.
        """
        n = self.num_nodes
        for name, offsets, targets in (
            ("child", self.child_offsets, self.child_targets),
            ("parent", self.parent_offsets, self.parent_targets),
        ):
            if offsets[0] != 0 or offsets[n] != len(targets):
                raise GraphError(f"{name} offsets do not span the targets")
            previous = 0
            for value in offsets:
                if value < previous:
                    raise GraphError(f"{name} offsets are not monotone")
                previous = value
            for target in targets:
                if not 0 <= target < n:
                    raise GraphError(f"{name} target out of range: {target}")
        for label_id in self.label_ids:
            if not 0 <= label_id < self.num_labels:
                raise GraphError(f"label id out of range: {label_id}")
        # The two directions must describe the same edge multiset.
        forward = sorted(
            (src, self.child_targets[position])
            for src in range(n)
            for position in range(
                self.child_offsets[src], self.child_offsets[src + 1]
            )
        )
        backward = sorted(
            (self.parent_targets[position], dst)
            for dst in range(n)
            for position in range(
                self.parent_offsets[dst], self.parent_offsets[dst + 1]
            )
        )
        if forward != backward:
            raise GraphError("child and parent CSR views disagree on edges")


def csr_from_lists(
    label_ids: Sequence[int],
    children: Sequence[Sequence[int]],
    parents: Sequence[Sequence[int]],
    *,
    num_labels: int,
) -> CSRGraph:
    """Build a CSR snapshot from ordered per-node adjacency rows."""
    child_offsets, child_targets = flatten_adjacency(children)
    parent_offsets, parent_targets = flatten_adjacency(parents)
    return CSRGraph(
        array(BUFFER_TYPECODE, label_ids),
        child_offsets,
        child_targets,
        parent_offsets,
        parent_targets,
        num_labels=num_labels,
    )
