"""The audit oracle: the breadth-first deep audit the library replaced.

:func:`repro.indexes.diagnostics.audit_similarities` now derives each
data node's incoming label-path set once per depth, from its parents'
sets, and compares interned set ids.  This module keeps the previous
implementation — a fresh breadth-first search up from every extent
member — as the reference the equivalence tests compare against.  It
is copied unchanged except for one edit: the witness of a finding is
the shortest differing path with ties broken by the smallest label-id
tuple (the copied code left ties to set iteration order).
"""

from __future__ import annotations

from typing import Sequence

from repro.graph.datagraph import DataGraph
from repro.indexes.base import IndexGraph
from repro.indexes.diagnostics import AuditFinding, AuditReport


def _paths_up_to(
    graph: DataGraph, node: int, depth: int, max_paths: int
) -> set[tuple[int, ...]] | None:
    """Incoming label-id paths of length <= depth ending at ``node``
    (own label included); None when ``max_paths`` is exceeded."""
    collected: set[tuple[int, ...]] = set()
    frontier: set[tuple[int, tuple[int, ...]]] = {
        (node, (graph.label_ids[node],))
    }
    for _ in range(depth + 1):
        for _current, path in frontier:
            collected.add(path)
            if len(collected) > max_paths:
                return None
        next_frontier: set[tuple[int, tuple[int, ...]]] = set()
        for current, path in frontier:
            for parent in graph.parents[current]:
                next_frontier.add((parent, (graph.label_ids[parent],) + path))
        frontier = next_frontier
    return collected


def audit_similarities(
    index: IndexGraph,
    max_k: int = 6,
    max_paths: int = 20_000,
    max_findings: int = 20,
    nodes: Sequence[int] | None = None,
) -> AuditReport:
    """The reference for :func:`repro.indexes.diagnostics.audit_similarities`."""
    graph = index.graph
    report = AuditReport()
    for node in range(index.num_nodes) if nodes is None else nodes:
        if len(report.findings) >= max_findings:
            break
        extent = index.extents[node]
        if len(extent) <= 1:
            report.nodes_checked += 1
            continue
        depth = min(index.k[node], max_k, graph.num_nodes)
        reference = _paths_up_to(graph, extent[0], depth, max_paths)
        if reference is None:
            report.nodes_skipped += 1
            continue
        report.nodes_checked += 1
        for member in extent[1:]:
            other = _paths_up_to(graph, member, depth, max_paths)
            if other is None:
                report.nodes_skipped += 1
                break
            if other != reference:
                difference = (other ^ reference)
                witness_ids = min(difference, key=lambda path: (len(path), path))
                witness = tuple(
                    graph.label_name(label_id) for label_id in witness_ids
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
