"""The shared index-graph structure.

:class:`IndexGraph` is used by every summary in this library (label-split,
A(k), 1-index, D(k)).  It keeps:

- per-index-node label ids (every extent is label-homogeneous);
- extents (lists of data-node ids) and the reverse ``node_of`` map;
- parent/child adjacency as sets (updates add and remove edges);
- a per-index-node *local similarity* ``k`` — the bisimilarity level the
  extent is guaranteed to satisfy.  For A(k) it is uniformly ``k``; for
  the 1-index it is :data:`K_UNBOUNDED`; for D(k) it varies per node and
  is what the update/promote/demote algorithms manipulate.

The structure is deliberately mutable: the paper's whole point is that
the D(k)-index is adjusted in place rather than rebuilt.
"""

from __future__ import annotations

import sys
from array import array
from itertools import chain
from typing import TYPE_CHECKING, Iterable, Iterator, Sequence

from repro.exceptions import IndexInvariantError, UnknownNodeError
from repro.graph.datagraph import DataGraph
from repro.partition import columnar
from repro.partition.blocks import Partition

if TYPE_CHECKING:  # pragma: no cover - typing-only import cycle guard
    from repro.graph.columnar import CSRGraph

#: Local similarity standing in for "bisimilar at every depth" (1-index).
K_UNBOUNDED = sys.maxsize // 4


class IndexGraph:
    """An index graph over a :class:`DataGraph`.

    Build one with :meth:`from_partition`; the baseline constructors in
    sibling modules and the D(k) construction all go through it.

    Attributes:
        graph: the underlying data graph (referenced, not copied).
        label_ids: label id per index node.
        extents: member data nodes per index node.
        node_of: ``node_of[data_node]`` = owning index node.
        children / parents: adjacency sets between index nodes.
        k: assigned local similarity per index node.
    """

    __slots__ = (
        "graph",
        "label_ids",
        "extents",
        "node_of",
        "children",
        "parents",
        "k",
        "_label_index",
    )

    def __init__(self, graph: DataGraph) -> None:
        self.graph = graph
        self.label_ids: list[int] = []
        self.extents: list[list[int]] = []
        self.node_of: list[int] = []
        self.children: list[set[int]] = []
        self.parents: list[set[int]] = []
        self.k: list[int] = []
        self._label_index: dict[int, set[int]] = {}

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    @classmethod
    def from_partition(
        cls,
        graph: DataGraph,
        partition: Partition,
        k_values: Sequence[int] | int,
    ) -> "IndexGraph":
        """Build an index graph from a data-node partition.

        With numpy present and at least
        :data:`~repro.partition.columnar.NUMPY_NODE_THRESHOLD` data
        nodes, the quotient edges are de-duplicated as arrays; the
        result, down to the insertion order of every adjacency set, is
        the scalar loop's.

        Args:
            graph: the data graph.
            partition: a label-homogeneous partition of its nodes.
            k_values: assigned local similarity — either one integer for
                every index node or a per-block sequence.

        Raises:
            IndexInvariantError: if the partition covers a different
                number of nodes than the graph has, or some block mixes
                labels.
        """
        if partition.num_nodes != graph.num_nodes:
            raise IndexInvariantError(
                f"partition covers {partition.num_nodes} nodes; the graph "
                f"has {graph.num_nodes}"
            )
        num_blocks = partition.num_blocks
        if isinstance(k_values, int):
            ks = [k_values] * num_blocks
        else:
            if len(k_values) != num_blocks:
                raise IndexInvariantError(
                    f"{len(k_values)} k values for {num_blocks} blocks"
                )
            ks = list(k_values)

        index = cls(graph)
        if (
            columnar._numpy is not None
            and graph.num_nodes >= columnar.NUMPY_NODE_THRESHOLD
        ):
            index._quotient_arrays(partition, ks)
            return index

        label_ids = graph.label_ids
        for block, members in enumerate(partition.blocks):
            label = label_ids[members[0]]
            if any(label_ids[m] != label for m in members[1:]):
                raise IndexInvariantError(f"block {block} is not label-homogeneous")
            index._append_node(label, list(members), ks[block])
        index.node_of = list(partition.block_of)

        block_of = partition.block_of
        for src, dst in graph.edges():
            index.add_index_edge(block_of[src], block_of[dst])
        return index

    def _quotient_arrays(self, partition: Partition, ks: list[int]) -> None:
        """:meth:`from_partition` on a fresh index, as array operations.

        Index edges are the distinct ``(block_of[src], block_of[dst])``
        pairs, sorted and compared, then added in the order of their
        first data edge, which is the order the scalar loop adds them.
        Edges come from the graph's frozen view when it is current and
        from its child rows otherwise; a mutated graph is not re-frozen
        for this.
        """
        np = columnar._numpy
        graph = self.graph
        blocks = partition.blocks
        num_blocks = len(blocks)
        firsts = [members[0] for members in blocks]
        labels = np.array(graph.label_ids, dtype=np.int64)
        block_of = np.array(partition.block_of, dtype=np.int64)
        block_labels = labels[firsts]
        mixed = np.flatnonzero(labels != block_labels[block_of])
        if len(mixed):
            block = int(block_of[mixed].min())
            raise IndexInvariantError(f"block {block} is not label-homogeneous")
        del labels, mixed
        # One int object per block id, taken from block_of: the sets
        # share them, as the scalar loop's sets share block_of's.
        canonical = np.array(
            list(map(partition.block_of.__getitem__, firsts)), dtype=object
        )

        self.label_ids = block_labels.tolist()
        self.extents = [list(members) for members in blocks]
        self.k = ks
        self.node_of = list(partition.block_of)
        # Label runs in first-block order, each holding its blocks
        # ascending: the label index _append_node would build.
        by_label = np.argsort(block_labels, kind="stable")
        starts = columnar.run_starts(block_labels[by_label])
        ends = np.append(starts[1:], num_blocks)
        for run in np.argsort(by_label[starts]).tolist():
            members = by_label[starts[run]:ends[run]]
            self._label_index[int(block_labels[members[0]])] = set(
                canonical[members].tolist()
            )

        view = graph.frozen_view
        if view is not None:
            offsets = np.frombuffer(view.child_offsets, dtype=np.int64)
            degrees = offsets[1:] - offsets[:-1]
            targets = np.frombuffer(view.child_targets, dtype=np.int64)
        else:
            degrees = np.fromiter(
                map(len, graph.children), dtype=np.int64, count=graph.num_nodes
            )
            targets = np.fromiter(
                chain.from_iterable(graph.children),
                dtype=np.int64,
                count=graph.num_edges,
            )
        pairs = np.repeat(block_of * num_blocks, degrees)
        pairs += block_of[targets]
        del block_of, degrees, targets
        order = np.argsort(pairs)
        if len(order):
            # The first data edge of each distinct pair, in edge order.
            order = np.minimum.reduceat(
                order, columnar.run_starts(pairs[order])
            )
            order.sort()
        pairs = pairs[order]
        del order
        src_blocks = canonical[pairs // num_blocks].tolist()
        dst_blocks = canonical[pairs % num_blocks].tolist()
        children: list[set[int]] = [set() for _ in range(num_blocks)]
        parents: list[set[int]] = [set() for _ in range(num_blocks)]
        for src, dst in zip(src_blocks, dst_blocks):
            children[src].add(dst)
            parents[dst].add(src)
        self.children = children
        self.parents = parents

    def _append_node(self, label_id: int, extent: list[int], k: int) -> int:
        node = len(self.label_ids)
        self.label_ids.append(label_id)
        self.extents.append(extent)
        self.children.append(set())
        self.parents.append(set())
        self.k.append(k)
        self._label_index.setdefault(label_id, set()).add(node)
        return node

    # ------------------------------------------------------------------
    # Size and lookup
    # ------------------------------------------------------------------

    @property
    def num_nodes(self) -> int:
        """Number of index nodes (the paper's "index size" X axis)."""
        return len(self.label_ids)

    @property
    def num_edges(self) -> int:
        """Number of index edges."""
        return sum(len(outs) for outs in self.children)

    def __len__(self) -> int:
        return self.num_nodes

    def __repr__(self) -> str:
        return (
            f"IndexGraph(nodes={self.num_nodes}, edges={self.num_edges}, "
            f"data_nodes={self.graph.num_nodes})"
        )

    def label(self, node: int) -> str:
        """Label name of an index node."""
        return self.graph.label_name(self.label_ids[node])

    def nodes_with_label_id(self, label_id: int) -> set[int]:
        """Index nodes whose extents carry ``label_id`` (live view)."""
        return self._label_index.get(label_id, set())

    def nodes_with_label(self, label: str) -> set[int]:
        """Index nodes whose extents carry the label name."""
        if not self.graph.has_label(label):
            return set()
        return self.nodes_with_label_id(self.graph.label_id(label))

    def extent_size(self, node: int) -> int:
        """Number of data nodes summarised by ``node``."""
        return len(self.extents[node])

    def index_node_of(self, data_node: int) -> int:
        """The index node whose extent contains ``data_node``."""
        try:
            return self.node_of[data_node]
        except IndexError:
            raise UnknownNodeError(data_node) from None

    @property
    def root_index_node(self) -> int:
        """The index node containing the data graph's root."""
        return self.node_of[self.graph.root]

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------

    def add_index_edge(self, src: int, dst: int) -> bool:
        """Add an index edge; returns False if it already existed."""
        if dst in self.children[src]:
            return False
        self.children[src].add(dst)
        self.parents[dst].add(src)
        return True

    def remove_index_edge(self, src: int, dst: int) -> None:
        """Remove an index edge (must exist)."""
        self.children[src].discard(dst)
        self.parents[dst].discard(src)

    def split_node(self, node: int, parts: Sequence[Sequence[int]]) -> list[int]:
        """Split an index node's extent into the given parts.

        ``parts`` must be a partition of ``extents[node]``.  The first
        part keeps the original id; the rest get fresh ids that inherit
        the node's label and assigned ``k``.  All edges incident to the
        parts are recomputed from the data graph.

        Returns:
            The index-node ids of the parts, in order.

        Raises:
            IndexInvariantError: if ``parts`` is not a partition of the
                node's extent.
        """
        old_extent = self.extents[node]
        flattened = [member for part in parts for member in part]
        if sorted(flattened) != sorted(old_extent):
            raise IndexInvariantError("parts do not partition the extent")
        if any(not part for part in parts):
            raise IndexInvariantError("empty part in split")
        if len(parts) == 1:
            return [node]

        # Detach old incident edges; they are recomputed below.
        for child in list(self.children[node]):
            self.remove_index_edge(node, child)
        for parent in list(self.parents[node]):
            self.remove_index_edge(parent, node)

        ids = [node]
        self.extents[node] = list(parts[0])
        for part in parts[1:]:
            ids.append(
                self._append_node(self.label_ids[node], list(part), self.k[node])
            )
        for part_id, part in zip(ids, parts):
            for member in part:
                self.node_of[member] = part_id

        data = self.graph
        for part_id, part in zip(ids, parts):
            for member in part:
                for data_child in data.children[member]:
                    self.add_index_edge(part_id, self.node_of[data_child])
                for data_parent in data.parents[member]:
                    self.add_index_edge(self.node_of[data_parent], part_id)
        return ids

    # ------------------------------------------------------------------
    # Invariants (used heavily by the tests)
    # ------------------------------------------------------------------

    def check_invariants(self) -> None:
        """Verify structural consistency; raise on any violation.

        Checks: extents partition the data nodes; extents are
        label-homogeneous; ``node_of`` matches extents; index edges are
        exactly the quotient of the data edges; the label index is
        accurate.  (The D(k) similarity constraint is checked separately
        by :func:`repro.core.dindex.check_dk_constraint` since plain
        A(k)/1-index graphs need not maintain per-node ks.)
        """
        data = self.graph
        seen = [False] * data.num_nodes
        for node, extent in enumerate(self.extents):
            if not extent:
                raise IndexInvariantError(f"index node {node} has empty extent")
            label = self.label_ids[node]
            for member in extent:
                if seen[member]:
                    raise IndexInvariantError(f"data node {member} in two extents")
                seen[member] = True
                if data.label_ids[member] != label:
                    raise IndexInvariantError(
                        f"data node {member} label mismatch in index node {node}"
                    )
                if self.node_of[member] != node:
                    raise IndexInvariantError(f"node_of[{member}] inconsistent")
        if not all(seen):
            missing = seen.index(False)
            raise IndexInvariantError(f"data node {missing} not covered by extents")

        expected_edges: set[tuple[int, int]] = set()
        for src, dst in data.edges():
            expected_edges.add((self.node_of[src], self.node_of[dst]))
        actual_edges = {
            (src, dst) for src in range(self.num_nodes) for dst in self.children[src]
        }
        if not expected_edges <= actual_edges:
            missing_edge = next(iter(expected_edges - actual_edges))
            raise IndexInvariantError(f"missing index edge {missing_edge} (unsafe!)")
        # Extra index edges are a size/precision issue, not a safety one,
        # but none of our algorithms should produce them.
        if actual_edges - expected_edges:
            extra = next(iter(actual_edges - expected_edges))
            raise IndexInvariantError(f"stale index edge {extra}")
        for src, dst in actual_edges:
            if src not in self.parents[dst]:
                raise IndexInvariantError(f"asymmetric adjacency {src}->{dst}")

        for label_id, nodes in self._label_index.items():
            for node in nodes:
                if self.label_ids[node] != label_id:
                    raise IndexInvariantError("label index corrupt")
        for node, label_id in enumerate(self.label_ids):
            if node not in self._label_index.get(label_id, set()):
                raise IndexInvariantError("label index incomplete")

    # ------------------------------------------------------------------
    # Frozen columnar view
    # ------------------------------------------------------------------

    def freeze(self) -> "CSRGraph":
        """Return a columnar CSR snapshot of this index graph.

        Every call builds a fresh snapshot of the current adjacency and
        caches nothing: its one reader,
        :func:`~repro.core.construction.reindex_index_graph`, freezes an
        index once and returns a new one.  The snapshot holds labels and
        adjacency only, which is all refinement reads; adjacency sets
        are flattened in sorted order so the snapshot is deterministic.
        """
        from repro.graph.columnar import (
            BUFFER_TYPECODE,
            CSRGraph,
            flatten_adjacency,
        )

        child_offsets, child_targets = flatten_adjacency(self.children, sort=True)
        parent_offsets, parent_targets = flatten_adjacency(self.parents, sort=True)
        return CSRGraph(
            array(BUFFER_TYPECODE, self.label_ids),
            child_offsets,
            child_targets,
            parent_offsets,
            parent_targets,
            num_labels=self.graph.num_labels,
        )

    def to_partition(self) -> Partition:
        """The data-node partition this index graph represents."""
        return Partition(list(self.node_of))

    def extent_result(self, nodes: Iterable[int]) -> set[int]:
        """Union of the extents of the given index nodes."""
        result: set[int] = set()
        for node in nodes:
            result.update(self.extents[node])
        return result
