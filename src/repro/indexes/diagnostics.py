"""Deep integrity auditing for index graphs.

``IndexGraph.check_invariants`` verifies *structural* consistency
(extents partition the data, quotient edges are right).  This module
verifies the *semantic* promise behind every assigned local similarity:

    an index node with ``k = j`` must answer any label-path query of up
    to j edges all-or-none — i.e. every extent member has exactly the
    same set of incoming label paths of length <= j.

That is the invariant Theorem 1's soundness consumes, the one the
update algorithms maintain (k-bisimilarity proper is *not* preserved by
edge additions — see DESIGN.md §5), and the one a downstream user wants
to audit after anything suspicious.  The check is exponential in k in
the worst case, so it is a diagnostic, not a fast path; ``max_k`` and
``max_paths`` bound the work.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from repro.graph.datagraph import DataGraph
from repro.indexes.base import IndexGraph


@dataclass(frozen=True)
class AuditFinding:
    """One semantic inconsistency.

    Attributes:
        index_node: the offending index node.
        label: its label.
        assigned_k: the similarity it claims.
        witness_path: a label path (names, outermost first) that matches
            some but not all extent members — a query of this shape
            could be answered unsoundly.
    """

    index_node: int
    label: str
    assigned_k: int
    witness_path: tuple[str, ...]

    def __str__(self) -> str:
        path = ".".join(self.witness_path)
        return (
            f"index node {self.index_node} <{self.label}> claims k="
            f"{self.assigned_k} but label path '{path}' matches only part "
            f"of its extent"
        )


@dataclass
class AuditReport:
    """Outcome of :func:`audit_similarities`."""

    nodes_checked: int = 0
    nodes_skipped: int = 0
    findings: list[AuditFinding] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.findings

    def format(self) -> str:
        if self.ok:
            skipped = (
                f" ({self.nodes_skipped} skipped by bounds)"
                if self.nodes_skipped
                else ""
            )
            return f"audit clean: {self.nodes_checked} index nodes{skipped}"
        lines = [f"{len(self.findings)} unsound similarity claim(s):"]
        lines.extend(f"  {finding}" for finding in self.findings)
        return "\n".join(lines)


#: Path-set table entries that are not set ids: not computed yet,
#: queued in the cone being computed, and over the ``max_paths`` budget.
_UNKNOWN = -1
_PENDING = -2
_OVER = -3


class _PathSets:
    """Incoming label-path sets of data nodes, each computed at most once.

    ``P(v, 0)`` is ``{(label(v),)}`` and ``P(v, d)`` adds, for every
    parent ``u``, each path of ``P(u, d - 1)`` extended by ``label(v)``:
    the label paths of length ``<= d`` ending at ``v``, as the deep
    audit compares them.  Each set is derived from its parents' sets
    one depth down instead of searching up from ``v`` again.

    Paths are interned as ints in a trie over label ids, and equal sets
    share one id, so two nodes' sets compare as two ints.  A node whose
    label and parents' set ids repeat an earlier node's reuses that
    set without building it.  Per depth, a flat list maps every data
    node to its set id.  A set larger than ``max_paths`` is recorded as
    over budget; so is every set built from one, since extending a
    parent's paths by the child's label keeps them distinct.  The
    tables live as long as the object: one audit call.
    """

    def __init__(self, graph: DataGraph, max_paths: int) -> None:
        self._labels = graph.label_ids
        self._parents = graph.parents
        self._num_labels = max(graph.num_labels, 1)
        self._max_paths = max_paths
        self._tables: list[list[int]] = []
        self._sets: list[frozenset[int]] = [frozenset()]
        self._set_ids: dict[frozenset[int], int] = {frozenset(): 0}
        self._shared: dict[tuple[int, ...], int] = {}
        # Path trie: path 0 is the empty path; path p's last label is
        # _path_label[p] and its prefix _path_prefix[p].
        self._path_prefix = [0]
        self._path_label = [0]
        self._path_ids: dict[int, int] = {}

    def set_ids(self, nodes: Sequence[int], depth: int) -> list[int]:
        """The ids of ``P(node, depth)`` for ``nodes``, in order;
        ``_OVER`` for a set past the budget."""
        if depth < 0:
            return [0] * len(nodes)  # no level is searched: the empty set
        tables = self._tables
        while len(tables) <= depth:
            tables.append([_UNKNOWN] * len(self._labels))
        # The cone of sets still missing: cone[i] holds the nodes whose
        # set at depth - i is needed, each queued once per depth.
        table = tables[depth]
        frontier: list[int] = []
        for node in nodes:
            if table[node] == _UNKNOWN:
                table[node] = _PENDING
                frontier.append(node)
        parents = self._parents
        cone = [frontier]
        for level in range(depth - 1, -1, -1):
            table = tables[level]
            frontier = []
            for child in cone[-1]:
                for parent in parents[child]:
                    if table[parent] == _UNKNOWN:
                        table[parent] = _PENDING
                        frontier.append(parent)
            if not frontier:
                break
            cone.append(frontier)
        # Derive bottom-up, so every parent's set one depth down is known.
        labels, shared = self._labels, self._shared
        for offset in range(len(cone) - 1, -1, -1):
            level = depth - offset
            table = tables[level]
            below = tables[level - 1] if level else []
            for node in cone[offset]:
                node_parents = parents[node] if level else []
                if len(node_parents) == 1:
                    parent_id = below[node_parents[0]]
                    key: tuple[int, ...] = (labels[node], parent_id)
                elif node_parents:
                    parent_ids = sorted({below[parent] for parent in node_parents})
                    parent_id = parent_ids[0]  # _OVER sorts first
                    key = (labels[node], *parent_ids)
                else:
                    parent_id = 0
                    key = (labels[node],)
                if parent_id == _OVER:
                    table[node] = _OVER
                    continue
                set_id = shared.get(key)
                table[node] = set_id if set_id is not None else self._build(key)
        return [tables[depth][node] for node in nodes]

    def _build(self, key: tuple[int, ...]) -> int:
        """Build, intern and share the set of ``key``: a label followed
        by the ids of the parents' sets one depth down."""
        label = key[0]
        members = {self._extend(0, label)}
        for parent_id in key[1:]:
            for path in self._sets[parent_id]:
                members.add(self._extend(path, label))
            if len(members) > self._max_paths:
                break
        if len(members) > self._max_paths:
            set_id = _OVER
        else:
            frozen = frozenset(members)
            set_id = self._set_ids.setdefault(frozen, len(self._sets))
            if set_id == len(self._sets):
                self._sets.append(frozen)
        self._shared[key] = set_id
        return set_id

    def _extend(self, prefix: int, label: int) -> int:
        """The id of path ``prefix`` followed by ``label``."""
        slot = prefix * self._num_labels + label
        path = self._path_ids.get(slot)
        if path is None:
            path = len(self._path_prefix)
            self._path_ids[slot] = path
            self._path_prefix.append(prefix)
            self._path_label.append(label)
        return path

    def witness(self, first: int, second: int) -> tuple[int, ...]:
        """The shortest label-id path in exactly one of two sets, ties
        broken by the smaller tuple."""
        paths = [self._path(path) for path in self._sets[first] ^ self._sets[second]]
        return min(paths, key=lambda path: (len(path), path))

    def _path(self, path: int) -> tuple[int, ...]:
        labels: list[int] = []
        while path:
            labels.append(self._path_label[path])
            path = self._path_prefix[path]
        return tuple(reversed(labels))


def audit_similarities(
    index: IndexGraph,
    max_k: int = 6,
    max_paths: int = 20_000,
    max_findings: int = 20,
    nodes: Sequence[int] | None = None,
) -> AuditReport:
    """Audit index nodes' claimed similarities against the data.

    Args:
        index: the index graph (any kind; A(k)/1-index audit their
            uniform k, D(k) audits per node).
        max_k: nodes claiming more than this are checked at ``max_k``
            (1-index nodes claim K_UNBOUNDED; checking a prefix is still
            meaningful) and counted as checked.
        max_paths: per-node label-path budget; exceeding it skips the
            node (counted in ``nodes_skipped``).
        max_findings: stop after this many findings.
        nodes: restrict the audit to these index nodes (the maintenance
            pipeline's targeted spot check on touched extents); the
            default audits every node.

    Example:
        >>> from repro.graph.builder import graph_from_edges
        >>> from repro.indexes.akindex import build_ak_index
        >>> g = graph_from_edges(
        ...     ["a", "b", "x", "x"], [(0, 1), (0, 2), (1, 3), (2, 4)]
        ... )
        >>> audit_similarities(build_ak_index(g, 2)).ok
        True
        >>> corrupt = build_ak_index(g, 0)
        >>> corrupt.k[corrupt.node_of[3]] = 2   # lie about the x extent
        >>> report = audit_similarities(corrupt)
        >>> report.ok
        False
        >>> report.findings[0].label
        'x'
    """
    graph = index.graph
    report = AuditReport()
    path_sets = _PathSets(graph, max_paths)
    for node in range(index.num_nodes) if nodes is None else nodes:
        if len(report.findings) >= max_findings:
            break
        extent = index.extents[node]
        if len(extent) <= 1:
            report.nodes_checked += 1
            continue
        depth = min(index.k[node], max_k, graph.num_nodes)
        # Deriving every member's set at once costs no more than the
        # members up to the first mismatch: each set is derived once.
        reference, *others = path_sets.set_ids(extent, depth)
        if reference == _OVER:
            report.nodes_skipped += 1
            continue
        report.nodes_checked += 1
        for other in others:
            if other == _OVER:
                report.nodes_skipped += 1
                break
            if other != reference:
                witness = tuple(
                    graph.label_name(label_id)
                    for label_id in path_sets.witness(reference, other)
                )
                report.findings.append(
                    AuditFinding(
                        index_node=node,
                        label=index.label(node),
                        assigned_k=index.k[node],
                        witness_path=witness,
                    )
                )
                break
    return report
