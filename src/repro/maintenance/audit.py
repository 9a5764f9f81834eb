"""Post-update audit tiers (the ``DKINDEX_AUDIT`` knob).

After every committed transaction the pipeline can audit the index at
one of three tiers:

- ``off`` — trust the algorithms (what the repository did before this
  package existed, minus the strandings).
- ``fast`` — the default: Definition 3's ``k(parent) >= k(child) - 1``
  checked over every index edge *incident to a node the update
  touched*, plus empty-extent and ``node_of``-coverage accounting on
  the same neighbourhood.  ``O(degree of the touched nodes)`` — the
  same order as the update itself, which is what keeps the shipped
  default within the Table-1 overhead budget (timed by the
  benchmark's ``nasa-update`` workload).  When no touched set is known
  (demote, the ``dkindex audit`` CLI) it degrades to the full
  ``O(index)`` scan.
- ``deep`` — the full-index Definition-3 scan and partition accounting,
  the structural :meth:`~repro.indexes.base.IndexGraph.check_invariants`,
  and targeted label-path spot checks
  (:func:`repro.indexes.diagnostics.audit_similarities`) on the extents
  the update touched.  This is the tier the chaos suite runs under,
  because it catches corruption *anywhere* in the index — including the
  injected kind that lands far from the update's own neighbourhood.

An audit failure does not raise out of the pipeline directly: the
pipeline quarantines the index and hands it to
:func:`repro.maintenance.repair.repair_index`.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

from repro.exceptions import IndexInvariantError, MaintenanceError
from repro.indexes.base import IndexGraph

#: Recognised audit tiers, in increasing strictness.
AUDIT_LEVELS = ("off", "fast", "deep")

#: Environment variable selecting the default tier.
AUDIT_ENV_VAR = "DKINDEX_AUDIT"


def audit_level_from_env(default: str = "fast") -> str:
    """The audit tier selected by ``DKINDEX_AUDIT`` (or ``default``).

    Raises:
        MaintenanceError: if the variable holds an unknown tier.
    """
    level = os.environ.get(AUDIT_ENV_VAR, "").strip().lower() or default
    if level not in AUDIT_LEVELS:
        raise MaintenanceError(
            f"{AUDIT_ENV_VAR}={level!r} is not one of {AUDIT_LEVELS}"
        )
    return level


@dataclass
class AuditOutcome:
    """What one post-commit audit found.

    Attributes:
        level: the tier that ran.
        ok: no problem found (vacuously True at ``off``).
        problems: human-readable descriptions of every failure.
        nodes_spot_checked: index nodes whose extents got the deep
            label-path comparison.
    """

    level: str
    ok: bool = True
    problems: list[str] = field(default_factory=list)
    nodes_spot_checked: int = 0

    def fail(self, problem: str) -> None:
        self.ok = False
        self.problems.append(problem)

    def format(self) -> str:
        if self.ok:
            extra = (
                f", {self.nodes_spot_checked} extent(s) spot-checked"
                if self.nodes_spot_checked
                else ""
            )
            return f"audit[{self.level}] ok{extra}"
        lines = [f"audit[{self.level}] FAILED:"]
        lines.extend(f"  - {problem}" for problem in self.problems)
        return "\n".join(lines)


def scoped_fast_ok(
    index: IndexGraph,
    touched: Iterable[int],
    expected: Mapping[int, int] | None = None,
    new_edges: Iterable[tuple[int, int]] = (),
) -> bool:
    """True when the touched neighbourhood passes every fast check.

    The pipeline's happy path: one boolean sweep over the touched
    nodes' incident index edges, no allocation, no diagnosis.  On
    ``False`` the caller re-runs :func:`run_audit` to collect the
    actual findings — failures are rare, so the double work is free in
    the expected case and this function stays cheap enough to run on
    every committed update.

    Args:
        index: the index under audit.
        touched: index nodes the update touched.
        expected: for operations that only *lower* similarities (edge
            addition), the ``{node: k}`` values the update reports
            having written.  A lowering at ``n`` can only create a
            Definition-3 violation on ``n``'s *outgoing* index edges
            (``k(parent) >= k(child) - 1`` gets easier on the incoming
            side), so with ``expected`` the sweep checks children only
            and catches an upward-corrupted ``k`` at a touched node by
            direct comparison instead of walking its (often hub-sized)
            parent list.
        new_edges: index edges the update added; each gets its own
            Definition-3 check, since the child-only sweep does not see
            an edge whose source lies outside ``touched``.
    """
    if len(index.node_of) != index.graph.num_nodes:
        return False
    k = index.k
    children = index.children
    extents = index.extents
    num_nodes = index.num_nodes
    if expected is not None:
        for node, want in expected.items():
            if 0 <= node < num_nodes and k[node] != want:
                return False
        for src, dst in new_edges:
            if k[dst] > k[src] + 1:
                return False
        for node in touched:
            if not 0 <= node < num_nodes:
                continue  # merged away by the update
            ceiling = k[node] + 1
            for dst in children[node]:
                if k[dst] > ceiling:
                    return False
            if not extents[node]:
                return False
        return True
    parents = index.parents
    for node in touched:
        if not 0 <= node < num_nodes:
            continue  # merged away by the update
        node_k = k[node]
        ceiling = node_k + 1
        for dst in children[node]:
            if k[dst] > ceiling:
                return False
        for src in parents[node]:
            if node_k > k[src] + 1:
                return False
        if not extents[node]:
            return False
    return True


def _check_dk_edge(index: IndexGraph, src: int, dst: int, outcome: AuditOutcome) -> None:
    if index.k[dst] > index.k[src] + 1:
        outcome.fail(
            f"D(k) constraint violated on index edge {src} -> {dst}: "
            f"k({src})={index.k[src]} < k({dst})-1={index.k[dst] - 1}"
        )


def fast_audit(
    index: IndexGraph,
    outcome: AuditOutcome,
    touched: Sequence[int] | None = None,
) -> None:
    """Definition-3 constraint + extent accounting, in place.

    With a ``touched`` set, only index edges incident to those nodes are
    checked (``O(degree)`` — matching the update's own cost); without
    one, the whole index is scanned.  Out-of-range touched ids (nodes
    merged away by the update) are skipped.
    """
    data_nodes = index.graph.num_nodes
    if len(index.node_of) != data_nodes:
        outcome.fail(
            f"node_of covers {len(index.node_of)} of {data_nodes} data nodes"
        )
    k = index.k
    if touched is not None:
        num_nodes = index.num_nodes
        for node in sorted({n for n in touched if 0 <= n < num_nodes}):
            # Inlined Definition-3 comparisons: this runs on every
            # commit, and a per-edge helper call would dominate the
            # pipeline overhead on hub nodes.
            ceiling = k[node] + 1
            node_k = k[node]
            for dst in index.children[node]:
                if k[dst] > ceiling:
                    _check_dk_edge(index, node, dst, outcome)
            for src in index.parents[node]:
                if node_k > k[src] + 1:
                    _check_dk_edge(index, src, node, outcome)
            if not index.extents[node]:
                outcome.fail(f"index node {node} has an empty extent")
        return
    for src in range(index.num_nodes):
        ceiling = k[src] + 1
        for dst in index.children[src]:
            if k[dst] > ceiling:
                _check_dk_edge(index, src, dst, outcome)
    covered = 0
    for node, extent in enumerate(index.extents):
        if not extent:
            outcome.fail(f"index node {node} has an empty extent")
        covered += len(extent)
    if covered != data_nodes:
        outcome.fail(
            f"extent sizes sum to {covered}, expected {data_nodes} "
            "(extents no longer partition the data)"
        )


def deep_audit(
    index: IndexGraph,
    outcome: AuditOutcome,
    touched: Sequence[int] = (),
    max_k: int = 6,
    max_paths: int = 20_000,
) -> None:
    """Structural invariants + targeted label-path spot checks.

    Args:
        index: the index under audit.
        outcome: accumulator (``fast_audit`` findings are usually
            already in it).
        touched: index nodes the update touched; their extents get the
            expensive incoming-label-path comparison.  Out-of-range ids
            (from nodes merged away by the update) are skipped.
        max_k / max_paths: work bounds forwarded to
            :func:`repro.indexes.diagnostics.audit_similarities`.
    """
    from repro.indexes.diagnostics import audit_similarities

    try:
        index.check_invariants()
    except IndexInvariantError as error:
        outcome.fail(f"structural invariant: {error}")
        return  # extents are unreliable; spot checks would be noise
    nodes = sorted(
        {node for node in touched if 0 <= node < index.num_nodes}
    )
    report = audit_similarities(
        index, max_k=max_k, max_paths=max_paths, nodes=nodes or None
    )
    outcome.nodes_spot_checked = report.nodes_checked
    for finding in report.findings:
        outcome.fail(f"unsound similarity: {finding}")


def run_audit(
    index: IndexGraph,
    level: str,
    touched: Sequence[int] = (),
) -> AuditOutcome:
    """Audit ``index`` at ``level``; never raises on audit *failure*.

    Raises:
        MaintenanceError: for an unknown level (a config error, not an
            audit finding).
    """
    if level not in AUDIT_LEVELS:
        raise MaintenanceError(
            f"unknown audit level {level!r}; use one of {AUDIT_LEVELS}"
        )
    outcome = AuditOutcome(level=level)
    if level == "off":
        return outcome
    if level == "fast":
        # Scoped to the update's neighbourhood when one is known; an
        # empty touched set (demote, CLI) means a full scan.
        fast_audit(index, outcome, touched or None)
        return outcome
    fast_audit(index, outcome, None)  # deep always scans the whole index
    deep_audit(index, outcome, touched)
    return outcome
