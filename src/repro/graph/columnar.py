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
- ``label_ids`` — flat per-node label-id buffer;
- for index graphs additionally ``extent_offsets``/``extent_targets``
  (flat extents, in index-node order) and ``k`` (assigned similarity).

Contiguous ``array('q')`` buffers cost 8 bytes per entry, admit
zero-copy ``memoryview`` slicing and are `numpy`-wrappable via
``numpy.frombuffer`` without copying when the optional ``fast`` extra
is installed.

Freezing follows an explicit invalidation contract against the mutable
owner (see :meth:`DataGraph.freeze`): a view records the owner's
mutation version; mutating the owner either *refreshes* (the cached
view is dropped and rebuilt on next ``freeze()``) or *raises*
(``mode="seal"``), never silently serves stale buffers.
"""

from __future__ import annotations

from array import array
from typing import TYPE_CHECKING, Iterable, Protocol, Sequence

from repro.exceptions import GraphError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from repro.graph.datagraph import DataGraph

#: ``array`` typecode of every CSR buffer: signed 64-bit ("q").
BUFFER_TYPECODE = "q"

#: Freeze modes accepted by ``DataGraph.freeze`` / ``IndexGraph.freeze``.
FREEZE_MODES = ("refresh", "seal")


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
    ``IndexGraph.freeze()`` (or :func:`csr_from_parent_adjacency` for
    anything satisfying the ``LabeledAdjacency`` protocol) and consumed
    by the columnar refinement engine and the frozen persistence format.
    All buffers are ``array('q')``; treat them as read-only — the owning
    graph's mutation version is the single source of truth for staleness.
    """

    __slots__ = (
        "label_ids",
        "child_offsets",
        "child_targets",
        "parent_offsets",
        "parent_targets",
        "num_labels",
        "source_version",
        "extent_offsets",
        "extent_targets",
        "k",
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
        source_version: int = 0,
        extent_offsets: array | None = None,
        extent_targets: array | None = None,
        k: array | None = None,
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
        self.source_version = source_version
        self.extent_offsets = extent_offsets
        self.extent_targets = extent_targets
        self.k = k

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
        kind = "index" if self.extent_offsets is not None else "data"
        return (
            f"CSRGraph({kind}, nodes={self.num_nodes}, "
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

    def extent(self, node: int) -> array:
        """The extent of index node ``node`` (index snapshots only)."""
        if self.extent_offsets is None or self.extent_targets is None:
            raise GraphError("this CSR snapshot carries no extents")
        return self.extent_targets[
            self.extent_offsets[node] : self.extent_offsets[node + 1]
        ]

    # ------------------------------------------------------------------
    # Validation (used by the frozen persistence loader)
    # ------------------------------------------------------------------

    def check_invariants(self) -> None:
        """Verify offset monotonicity and target ranges; raise on error.

        Cheap linear checks so that a deserialized snapshot (whose
        buffers were *not* rebuilt from adjacency) fails loudly instead
        of indexing out of bounds deep inside a refinement round.
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

    # ------------------------------------------------------------------
    # Conversion
    # ------------------------------------------------------------------

    def to_datagraph(self, label_names: Sequence[str]) -> "DataGraph":
        """Materialise a mutable :class:`DataGraph` from this snapshot.

        The produced graph adopts this snapshot as its cached frozen
        view, so ``graph.freeze()`` returns it without rebuilding the
        offsets (the frozen-persistence round-trip guarantee).
        """
        from repro.graph.datagraph import DataGraph

        co = self.child_offsets
        sources = [
            src for src in range(self.num_nodes) for _ in range(co[src + 1] - co[src])
        ]
        graph = DataGraph.from_arrays(
            label_names, self.label_ids, sources, self.child_targets
        )
        graph.adopt_frozen_view(self)
        return graph


def csr_from_lists(
    label_ids: Sequence[int],
    children: Sequence[Sequence[int]],
    parents: Sequence[Sequence[int]],
    *,
    num_labels: int,
    source_version: int = 0,
    sort: bool = False,
) -> CSRGraph:
    """Build a CSR snapshot from list/set-shaped adjacency."""
    child_offsets, child_targets = flatten_adjacency(children, sort=sort)
    parent_offsets, parent_targets = flatten_adjacency(parents, sort=sort)
    return CSRGraph(
        array(BUFFER_TYPECODE, label_ids),
        child_offsets,
        child_targets,
        parent_offsets,
        parent_targets,
        num_labels=num_labels,
        source_version=source_version,
    )


def csr_from_parent_adjacency(
    label_ids: Sequence[int],
    parents: Sequence[Iterable[int]],
    *,
    num_labels: int | None = None,
    source_version: int = 0,
) -> CSRGraph:
    """CSR snapshot from backward adjacency only (children transposed).

    This is the generic fallback for any ``LabeledAdjacency`` object
    that does not implement ``freeze()`` itself: refinement needs
    parents for signatures and children for dirt propagation, and the
    latter is exactly the transpose of the former.
    """
    n = len(label_ids)
    parent_offsets, parent_targets = flatten_adjacency(parents, sort=True)
    out_degree = [0] * n
    for target in parent_targets:
        out_degree[target] += 1
    child_offsets = array(BUFFER_TYPECODE, [0])
    total = 0
    for degree in out_degree:
        total += degree
        child_offsets.append(total)
    cursor = list(child_offsets[:n])
    child_targets = array(BUFFER_TYPECODE, bytes(8 * total))
    for child in range(n):
        for position in range(parent_offsets[child], parent_offsets[child + 1]):
            parent = parent_targets[position]
            child_targets[cursor[parent]] = child
            cursor[parent] += 1
    labels = (
        (max(label_ids, default=-1) + 1) if num_labels is None else num_labels
    )
    return CSRGraph(
        array(BUFFER_TYPECODE, label_ids),
        child_offsets,
        child_targets,
        parent_offsets,
        parent_targets,
        num_labels=labels,
        source_version=source_version,
    )
