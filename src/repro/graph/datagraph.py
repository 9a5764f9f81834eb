"""The core directed, labeled data-graph structure.

The representation is optimised for the partition-refinement and
path-evaluation workloads of this library:

- node identifiers are dense integers ``0 .. num_nodes-1``;
- labels are interned into a string table so that per-node labels are
  plain integers (``label_ids``);
- both forward (``children``) and backward (``parents``) adjacency are
  maintained, because bisimulation refinement looks *up* the graph
  while query evaluation walks *down*;
- each node's adjacency row is an immutable tuple that mutation
  replaces, so copies and transaction checkpoints share rows instead of
  copying them.

Nodes are never deleted; the paper's update model (Section 5) covers only
additive updates (subgraph addition, edge addition), and all higher-level
structures in this library assume stable node ids.
"""

from __future__ import annotations

from itertools import groupby, islice
from types import MappingProxyType
from typing import TYPE_CHECKING, Iterable, Iterator, Mapping, Sequence

from repro.exceptions import GraphError, UnknownLabelError, UnknownNodeError

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

    ``children[v]`` and ``parents[v]`` are read-only tuples, in edge
    order; a node without neighbours has the empty tuple ``()``.
    :meth:`add_edge`, :meth:`add_edge_if_absent`, :meth:`add_edges` and
    :meth:`remove_edge` replace a row instead of changing it, so a row
    read once never changes underneath its reader, and :meth:`copy`
    shares every row.  Mutate only through those methods: assigning a
    row directly would bypass the duplicate-edge check and the frozen
    view's invalidation.  Replacing a row copies it, so a node that
    gains many edges should gain them in one :meth:`add_edges` batch.

    Example:
        >>> g = DataGraph()
        >>> movie = g.add_node("movie")
        >>> title = g.add_node("title")
        >>> g.add_edge(g.root, movie)
        >>> g.add_edge(movie, title)
        >>> g.label(title)
        'title'
        >>> g.children[movie]
        (2,)
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
    )

    def __init__(self) -> None:
        self._label_names: list[str] = []
        self._label_table: dict[str, int] = {}
        #: label id of each node, indexed by node id.
        self.label_ids: list[int] = []
        #: forward adjacency: ``children[u]`` holds all v with an edge u -> v.
        self.children: list[tuple[int, ...]] = []
        #: backward adjacency: ``parents[v]`` holds all u with an edge u -> v.
        self.parents: list[tuple[int, ...]] = []
        # Per-node child sets for O(1) duplicate-edge detection, built
        # from ``children`` on a node's first edge test (None until then):
        # loaders and copies need not allocate one set per node.
        self._child_sets: list[set[int] | None] = []
        self._num_edges = 0
        # Frozen-view bookkeeping: the mutation version stamps every
        # columnar snapshot; mutating drops it.
        self._version = 0
        self._frozen: "CSRGraph | None" = None
        self.add_node(ROOT_LABEL)

    @classmethod
    def from_arrays(
        cls,
        label_names: Sequence[str],
        label_ids: Sequence[int],
        sources: Sequence[int],
        targets: Sequence[int],
    ) -> "DataGraph":
        """Build a graph in one pass from label and edge arrays.

        Node ``v`` carries label ``label_names[label_ids[v]]`` and edge
        ``i`` is ``sources[i] -> targets[i]``.  The result equals the
        graph an :meth:`add_node` / :meth:`add_edge` loop over the same
        arrays would build: labels are interned in ``label_names`` order
        after ``ROOT``, and ``children`` / ``parents`` hold neighbours in
        edge order.  It is the bulk path of the loader,
        :func:`~repro.graph.serialize.graph_from_dict`.

        Raises:
            GraphError: when node 0 is not ROOT, a label id or endpoint
                is out of range, the edge arrays differ in length, or an
                edge repeats.
        """
        n = len(label_ids)
        if n == 0:
            raise GraphError("a data graph needs at least the ROOT node")
        if min(label_ids) < 0 or max(label_ids) >= len(label_names):
            raise GraphError("label id out of range")
        if label_names[label_ids[0]] != ROOT_LABEL:
            raise GraphError("node 0 must carry the ROOT label")
        if len(sources) != len(targets):
            raise GraphError("edge source and target arrays differ in length")
        if sources and (
            min(min(sources), min(targets)) < 0
            or max(max(sources), max(targets)) >= n
        ):
            raise GraphError("edge endpoint out of range")

        table = {ROOT_LABEL: 0}
        for name in label_names:
            table.setdefault(name, len(table))
        remap = [table[name] for name in label_names]
        if remap == list(range(len(label_names))):
            ids = list(label_ids)
        else:
            ids = [remap[label_id] for label_id in label_ids]

        _edge_keys(sources, targets, n)

        graph = cls.__new__(cls)
        graph._label_names = list(table)
        graph._label_table = table
        graph.label_ids = ids
        graph.children = [()] * n
        graph.parents = [()] * n
        unbuilt: list[set[int] | None] = [None] * n
        graph._child_sets = unbuilt
        graph._num_edges = 0
        graph._version = 0
        graph._frozen = None
        graph._extend_rows(sources, targets)
        return graph

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
        self.children.append(())
        self.parents.append(())
        self._child_sets.append(None)
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
        child_set = self._child_set(src)
        if dst in child_set:
            raise GraphError(f"duplicate edge {src} -> {dst}")
        self._mutated()
        child_set.add(dst)
        self.children[src] += (dst,)
        self.parents[dst] += (src,)
        self._num_edges += 1

    def add_edge_if_absent(self, src: int, dst: int) -> bool:
        """Add ``src -> dst`` unless it already exists.

        Returns:
            True if the edge was added, False if it was already present.
        """
        self._check_node(src)
        self._check_node(dst)
        child_set = self._child_set(src)
        if dst in child_set:
            return False
        self._mutated()
        child_set.add(dst)
        self.children[src] += (dst,)
        self.parents[dst] += (src,)
        self._num_edges += 1
        return True

    def add_edges(self, sources: Sequence[int], targets: Sequence[int]) -> None:
        """Add the edges ``sources[i] -> targets[i]``, in ``i`` order.

        The result equals an :meth:`add_edge` loop over the pairs, but
        each touched row is replaced once instead of once per edge: the
        batch costs ``O(m log m)`` for its ``m`` edges plus the old
        length of the rows it extends, where the loop copies a row per
        edge and so is quadratic in the degree a node gains.  Builders
        collect their edges and add them here.

        Raises:
            UnknownNodeError: if an endpoint does not exist.
            GraphError: if the arrays differ in length, or an edge
                repeats or already exists.  The graph is then unchanged.
        """
        if len(sources) != len(targets):
            raise GraphError("edge source and target arrays differ in length")
        if not sources:
            return
        for node in (min(sources), max(sources), min(targets), max(targets)):
            self._check_node(node)
        n = len(self.label_ids)
        keys = _edge_keys(sources, targets, n)
        children = self.children
        for src in set(sources):
            for dst in children[src]:
                if src * n + dst in keys:
                    raise GraphError(f"duplicate edge {src} -> {dst}")
        self._mutated()
        self._extend_rows(sources, targets)

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
        child_set = self._child_set(src)
        if dst not in child_set:
            raise GraphError(f"no such edge {src} -> {dst}")
        self._mutated()
        child_set.discard(dst)
        self.children[src] = _without(self.children[src], dst)
        self.parents[dst] = _without(self.parents[dst], src)
        self._num_edges -= 1

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def has_edge(self, src: int, dst: int) -> bool:
        """True if the directed edge ``src -> dst`` exists."""
        self._check_node(src)
        self._check_node(dst)
        return dst in self._child_set(src)

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
    def frozen_view(self) -> "CSRGraph | None":
        """The cached columnar snapshot while it is current, else ``None``.

        Unlike :meth:`freeze`, never builds one: a reader that can use
        either the flat buffers or the rows asks here first.
        """
        return self._frozen

    def freeze(self) -> "CSRGraph":
        """Return the columnar CSR snapshot of this graph.

        The snapshot is cached: repeated calls without intervening
        mutation return the same object.  A mutation drops the cached
        snapshot, and the next ``freeze()`` rebuilds it.  A snapshot
        already handed out stays readable but describes the graph
        before the mutation: its ``source_version`` no longer equals
        :attr:`mutation_version`.
        """
        from repro.graph.columnar import csr_from_lists

        if self._frozen is None:
            self._frozen = csr_from_lists(
                self.label_ids,
                self.children,
                self.parents,
                num_labels=self.num_labels,
                source_version=self._version,
            )
        return self._frozen

    def _mutated(self) -> None:
        """Record a structural mutation: bump the version, drop the view."""
        self._version += 1
        self._frozen = None

    # ------------------------------------------------------------------
    # Copying
    # ------------------------------------------------------------------

    def copy(self) -> "DataGraph":
        """Return an independent copy of this graph.

        Rows are immutable, so the copy shares them and copies only the
        outer lists: mutating either graph replaces its own rows.  The
        frozen view is immutable too, so the copy shares a current one
        (it carries the same :attr:`mutation_version`); a mutation of
        either graph drops only that graph's view.
        """
        clone = DataGraph.__new__(DataGraph)
        clone._label_names = list(self._label_names)
        clone._label_table = dict(self._label_table)
        clone.label_ids = list(self.label_ids)
        clone.children = list(self.children)
        clone.parents = list(self.parents)
        unbuilt: list[set[int] | None] = [None] * len(self._child_sets)
        clone._child_sets = unbuilt
        clone._num_edges = self._num_edges
        clone._version = self._version
        clone._frozen = self._frozen
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
        sources: list[int] = []
        targets: list[int] = []
        for src, dst in other.edges():
            if dst == other.root:
                # Edges into the foreign root would re-target our root;
                # a well-formed document subgraph has none, but guard anyway.
                raise GraphError("grafted subgraph has an edge into its root")
            sources.append(mapping[src])
            targets.append(mapping[dst])
        # Every target is a new node, so none of these edges exists yet.
        self.add_edges(sources, targets)
        return mapping

    # ------------------------------------------------------------------
    # Internal helpers
    # ------------------------------------------------------------------

    def _extend_rows(self, sources: Sequence[int], targets: Sequence[int]) -> None:
        """Append checked edges: one replacement per touched row."""
        children, parents, child_sets = self.children, self.parents, self._child_sets
        if not self._num_edges:
            # Every row is empty (the loaders' and builders' case): cut
            # all of them at once, about a fifth faster than one group
            # at a time on NASA `large`, and rebuild child sets on demand.
            n = len(children)
            children[:] = _rows(n, sources, targets)
            parents[:] = _rows(n, targets, sources)
            child_sets[:] = [None] * n
        else:
            for src, row in _groups(sources, targets):
                children[src] += row
                child_set = child_sets[src]
                if child_set is not None:
                    child_set.update(row)
            for dst, row in _groups(targets, sources):
                parents[dst] += row
        self._num_edges += len(sources)

    def _child_set(self, src: int) -> set[int]:
        """``src``'s child set, built from ``children`` on first use."""
        child_set = self._child_sets[src]
        if child_set is None:
            child_set = self._child_sets[src] = set(self.children[src])
        return child_set

    def _check_node(self, node: int) -> None:
        if not 0 <= node < len(self.label_ids):
            raise UnknownNodeError(node)


def _edge_keys(
    sources: Sequence[int], targets: Sequence[int], num_nodes: int
) -> set[int]:
    """The edges as ``src * num_nodes + dst`` keys.

    Raises:
        GraphError: naming the first edge that repeats.
    """
    keys = {src * num_nodes + dst for src, dst in zip(sources, targets)}
    if len(keys) != len(sources):
        seen: set[tuple[int, int]] = set()
        for edge in zip(sources, targets):
            if edge in seen:
                raise GraphError(f"duplicate edge {edge[0]} -> {edge[1]}")
            seen.add(edge)
    return keys


def _rows(
    num_nodes: int, keys: Sequence[int], values: Sequence[int]
) -> list[tuple[int, ...]]:
    """Row ``v`` holds ``values[i]`` for every ``i`` with ``keys[i] == v``,
    in ``i`` order.

    A stable sort groups the entries by key, and each row is one tuple
    cut from that order: no list per node is built, and the rows share
    the int objects of ``values``.
    """
    counts = [0] * num_nodes
    for key in keys:
        counts[key] += 1
    ordered = map(values.__getitem__, sorted(range(len(keys)), key=keys.__getitem__))
    return [tuple(islice(ordered, count)) if count else () for count in counts]


def _groups(
    keys: Sequence[int], values: Sequence[int]
) -> Iterator[tuple[int, tuple[int, ...]]]:
    """Each distinct key with ``values[i]`` for every ``i`` where
    ``keys[i]`` is that key, in ``i`` order.

    Like :func:`_rows`, but only for the keys present, so extending a
    few rows of a large graph costs nothing per untouched node.
    """
    order = sorted(range(len(keys)), key=keys.__getitem__)
    for key, positions in groupby(order, keys.__getitem__):
        yield key, tuple(map(values.__getitem__, positions))


def _without(row: tuple[int, ...], node: int) -> tuple[int, ...]:
    """``row`` less the first occurrence of ``node``."""
    at = row.index(node)
    return row[:at] + row[at + 1 :]
