"""The core directed, labeled data-graph structure.

The representation is optimised for the partition-refinement and
path-evaluation workloads of this library:

- node identifiers are dense integers ``0 .. num_nodes-1``;
- labels are interned into a string table so that per-node labels are
  plain integers (``label_ids``);
- both forward (``children``) and backward (``parents``) adjacency lists
  are maintained, because bisimulation refinement looks *up* the graph
  while query evaluation walks *down*.

Nodes are never deleted; the paper's update model (Section 5) covers only
additive updates (subgraph addition, edge addition), and all higher-level
structures in this library assume stable node ids.
"""

from __future__ import annotations

from types import MappingProxyType
from typing import TYPE_CHECKING, Iterable, Iterator, Mapping, Sequence

from repro.exceptions import (
    FrozenGraphError,
    GraphError,
    UnknownLabelError,
    UnknownNodeError,
)

if TYPE_CHECKING:  # pragma: no cover - typing-only import cycle guard
    from repro.graph.columnar import CSRGraph

#: Distinguished label of the unique root node (Section 3 of the paper).
ROOT_LABEL = "ROOT"

#: Distinguished label given to simple (atomic) value nodes.
VALUE_LABEL = "VALUE"


class DataGraph:
    """A directed graph with interned string labels on nodes.

    The graph always contains a single root node with id ``0`` and label
    :data:`ROOT_LABEL`; it is created by the constructor.  All other
    nodes are added with :meth:`add_node` and wired with :meth:`add_edge`.

    Parallel edges are rejected; self-loops are permitted (they occur in
    generic labeled graphs even though XML documents do not produce them).

    Example:
        >>> g = DataGraph()
        >>> movie = g.add_node("movie")
        >>> title = g.add_node("title")
        >>> g.add_edge(g.root, movie)
        >>> g.add_edge(movie, title)
        >>> g.label(title)
        'title'
        >>> sorted(g.children[movie])
        [2]
    """

    __slots__ = (
        "_label_names",
        "_label_table",
        "label_ids",
        "children",
        "parents",
        "_child_sets",
        "_num_edges",
        "_version",
        "_frozen",
        "_sealed",
    )

    def __init__(self) -> None:
        self._label_names: list[str] = []
        self._label_table: dict[str, int] = {}
        #: label id of each node, indexed by node id.
        self.label_ids: list[int] = []
        #: forward adjacency: ``children[u]`` lists all v with an edge u -> v.
        self.children: list[list[int]] = []
        #: backward adjacency: ``parents[v]`` lists all u with an edge u -> v.
        self.parents: list[list[int]] = []
        # Per-node child sets for O(1) duplicate-edge detection.
        self._child_sets: list[set[int]] = []
        self._num_edges = 0
        # Frozen-view bookkeeping: the mutation version stamps every
        # columnar snapshot; mutating drops (or, sealed, refuses) it.
        self._version = 0
        self._frozen: "CSRGraph | None" = None
        self._sealed = False
        self.add_node(ROOT_LABEL)

    # ------------------------------------------------------------------
    # Identity and size
    # ------------------------------------------------------------------

    @property
    def root(self) -> int:
        """Node id of the distinguished root (always ``0``)."""
        return 0

    @property
    def num_nodes(self) -> int:
        """Number of nodes, including the root."""
        return len(self.label_ids)

    @property
    def num_edges(self) -> int:
        """Number of directed edges."""
        return self._num_edges

    @property
    def num_labels(self) -> int:
        """Number of distinct labels interned so far."""
        return len(self._label_names)

    def __len__(self) -> int:
        return self.num_nodes

    def __repr__(self) -> str:
        return (
            f"DataGraph(nodes={self.num_nodes}, edges={self.num_edges}, "
            f"labels={self.num_labels})"
        )

    # ------------------------------------------------------------------
    # Label interning
    # ------------------------------------------------------------------

    def intern_label(self, name: str) -> int:
        """Return the integer id for ``name``, creating it if necessary."""
        label_id = self._label_table.get(name)
        if label_id is None:
            label_id = len(self._label_names)
            self._label_table[name] = label_id
            self._label_names.append(name)
        return label_id

    def label_id(self, name: str) -> int:
        """Return the id of an existing label.

        Raises:
            UnknownLabelError: if ``name`` was never interned.
        """
        try:
            return self._label_table[name]
        except KeyError:
            raise UnknownLabelError(name) from None

    def has_label(self, name: str) -> bool:
        """True if a label called ``name`` has been interned."""
        return name in self._label_table

    def label_name(self, label_id: int) -> str:
        """Return the string name of a label id."""
        try:
            return self._label_names[label_id]
        except IndexError:
            raise UnknownLabelError(label_id) from None

    def label(self, node: int) -> str:
        """Return the label *name* of ``node``."""
        self._check_node(node)
        return self._label_names[self.label_ids[node]]

    def label_names(self) -> Sequence[str]:
        """All interned label names, indexed by label id."""
        return tuple(self._label_names)

    @property
    def label_table(self) -> Mapping[str, int]:
        """Read-only live view of the name -> label id table."""
        return MappingProxyType(self._label_table)

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------

    def add_node(self, label: str) -> int:
        """Add a node with the given label name; return its id."""
        self._mutated()
        label_id = self.intern_label(label)
        node = len(self.label_ids)
        self.label_ids.append(label_id)
        self.children.append([])
        self.parents.append([])
        self._child_sets.append(set())
        return node

    def add_nodes(self, labels: Iterable[str]) -> list[int]:
        """Add one node per label; return the new ids in order."""
        return [self.add_node(label) for label in labels]

    def add_edge(self, src: int, dst: int) -> None:
        """Add the directed edge ``src -> dst``.

        Raises:
            UnknownNodeError: if either endpoint does not exist.
            GraphError: if the edge already exists.
        """
        self._check_node(src)
        self._check_node(dst)
        if dst in self._child_sets[src]:
            raise GraphError(f"duplicate edge {src} -> {dst}")
        self._mutated()
        self._child_sets[src].add(dst)
        self.children[src].append(dst)
        self.parents[dst].append(src)
        self._num_edges += 1

    def add_edge_if_absent(self, src: int, dst: int) -> bool:
        """Add ``src -> dst`` unless it already exists.

        Returns:
            True if the edge was added, False if it was already present.
        """
        self._check_node(src)
        self._check_node(dst)
        if dst in self._child_sets[src]:
            return False
        self._mutated()
        self._child_sets[src].add(dst)
        self.children[src].append(dst)
        self.parents[dst].append(src)
        self._num_edges += 1
        return True

    def remove_edge(self, src: int, dst: int) -> None:
        """Remove the directed edge ``src -> dst``.

        Nodes are never removed (stable ids are assumed throughout the
        library), but edges may be — the D(k)-index supports edge
        deletion as an extension of the paper's update model.

        Raises:
            UnknownNodeError: if either endpoint does not exist.
            GraphError: if the edge does not exist.
        """
        self._check_node(src)
        self._check_node(dst)
        if dst not in self._child_sets[src]:
            raise GraphError(f"no such edge {src} -> {dst}")
        self._mutated()
        self._child_sets[src].discard(dst)
        self.children[src].remove(dst)
        self.parents[dst].remove(src)
        self._num_edges -= 1

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def has_edge(self, src: int, dst: int) -> bool:
        """True if the directed edge ``src -> dst`` exists."""
        self._check_node(src)
        self._check_node(dst)
        return dst in self._child_sets[src]

    def has_node(self, node: int) -> bool:
        """True if ``node`` is a valid node id."""
        return 0 <= node < len(self.label_ids)

    def edges(self) -> Iterator[tuple[int, int]]:
        """Iterate over all directed edges as ``(src, dst)`` pairs."""
        for src, outs in enumerate(self.children):
            for dst in outs:
                yield (src, dst)

    def nodes(self) -> range:
        """All node ids (a ``range``, cheap to iterate repeatedly)."""
        return range(len(self.label_ids))

    def nodes_with_label(self, label: str) -> list[int]:
        """All node ids carrying the given label name.

        This is a linear scan; index structures keep their own
        label -> extent maps for repeated lookups.
        """
        if not self.has_label(label):
            return []
        want = self._label_table[label]
        label_ids = self.label_ids
        return [node for node in range(len(label_ids)) if label_ids[node] == want]

    def out_degree(self, node: int) -> int:
        """Number of outgoing edges of ``node``."""
        self._check_node(node)
        return len(self.children[node])

    def in_degree(self, node: int) -> int:
        """Number of incoming edges of ``node``."""
        self._check_node(node)
        return len(self.parents[node])

    # ------------------------------------------------------------------
    # Frozen columnar view
    # ------------------------------------------------------------------

    @property
    def mutation_version(self) -> int:
        """Monotone counter bumped by every structural mutation.

        Columnar snapshots record the version they were taken at; a
        snapshot is *stale* exactly when its ``source_version`` differs
        from the owner's current ``mutation_version``.
        """
        return self._version

    @property
    def sealed(self) -> bool:
        """True while mutations are forbidden (``freeze(mode="seal")``)."""
        return self._sealed

    def freeze(self, mode: str = "refresh") -> "CSRGraph":
        """Return the columnar CSR snapshot of this graph.

        The snapshot is cached: repeated calls without intervening
        mutation return the same object.  The *invalidation contract*
        against the additive-update model is chosen by ``mode``:

        - ``"refresh"`` (default) — a later mutation silently drops the
          cached snapshot; the next ``freeze()`` rebuilds it.  Existing
          snapshot references stay readable but describe the pre-update
          graph (check ``snapshot.source_version`` against
          :attr:`mutation_version` to detect this).
        - ``"seal"`` — additionally forbid mutation: ``add_node`` /
          ``add_edge`` / ``remove_edge`` raise
          :class:`~repro.exceptions.FrozenGraphError` until
          :meth:`thaw` is called.

        Raises:
            GraphError: for an unknown mode.
        """
        from repro.graph.columnar import FREEZE_MODES, csr_from_lists

        if mode not in FREEZE_MODES:
            raise GraphError(
                f"unknown freeze mode {mode!r}; choose from {FREEZE_MODES}"
            )
        if self._frozen is None:
            self._frozen = csr_from_lists(
                self.label_ids,
                self.children,
                self.parents,
                num_labels=self.num_labels,
                source_version=self._version,
            )
        if mode == "seal":
            self._sealed = True
        return self._frozen

    def thaw(self) -> None:
        """Allow mutation again after ``freeze(mode="seal")``."""
        self._sealed = False

    def adopt_frozen_view(self, view: "CSRGraph") -> None:
        """Install ``view`` as this graph's cached frozen snapshot.

        Used by the frozen persistence loader, which materialises the
        adjacency lists *from* a deserialized snapshot — the snapshot is
        current by construction, so rebuilding the offsets on the next
        ``freeze()`` would be pure waste.

        Raises:
            GraphError: if the view's shape does not match this graph.
        """
        if (
            view.num_nodes != self.num_nodes
            or view.num_edges != self.num_edges
        ):
            raise GraphError(
                "frozen view does not match this graph's node/edge counts"
            )
        view.source_version = self._version
        self._frozen = view

    def _mutated(self) -> None:
        """Record a structural mutation (or refuse it while sealed)."""
        if self._sealed:
            raise FrozenGraphError(
                "graph is sealed by freeze(mode='seal'); call thaw() "
                "before mutating"
            )
        self._version += 1
        self._frozen = None

    # ------------------------------------------------------------------
    # Copying
    # ------------------------------------------------------------------

    def copy(self) -> "DataGraph":
        """Return a deep, independent copy of this graph.

        The copy is mutable (never sealed) and does not share the
        original's cached frozen view.
        """
        clone = DataGraph.__new__(DataGraph)
        clone._label_names = list(self._label_names)
        clone._label_table = dict(self._label_table)
        clone.label_ids = list(self.label_ids)
        clone.children = [list(outs) for outs in self.children]
        clone.parents = [list(ins) for ins in self.parents]
        clone._child_sets = [set(s) for s in self._child_sets]
        clone._num_edges = self._num_edges
        clone._version = self._version
        clone._frozen = None
        clone._sealed = False
        return clone

    def graft(self, other: "DataGraph") -> list[int]:
        """Copy every non-root node of ``other`` into this graph.

        Edges of ``other`` between copied nodes are recreated; edges from
        ``other``'s root are re-attached to *this* graph's root.  This is
        the data-level half of the paper's subgraph-addition update
        (Algorithm 3): "a new subgraph H is inserted under the root of
        the original data graph G".

        Returns:
            ``mapping`` such that ``mapping[old_id] = new_id`` for every
            node of ``other`` (the root maps to this graph's root).
        """
        mapping = [0] * other.num_nodes
        for node in range(1, other.num_nodes):
            mapping[node] = self.add_node(other.label(node))
        for src, dst in other.edges():
            if dst == other.root:
                # Edges into the foreign root would re-target our root;
                # a well-formed document subgraph has none, but guard anyway.
                raise GraphError("grafted subgraph has an edge into its root")
            self.add_edge_if_absent(mapping[src], mapping[dst])
        return mapping

    # ------------------------------------------------------------------
    # Internal helpers
    # ------------------------------------------------------------------

    def _check_node(self, node: int) -> None:
        if not 0 <= node < len(self.label_ids):
            raise UnknownNodeError(node)
