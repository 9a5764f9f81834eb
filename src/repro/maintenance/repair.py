"""Self-healing: quarantine and automatic re-index on audit failure.

When a post-commit audit fails, the pipeline does not throw the store
away — it escalates through three increasingly drastic repair
strategies, re-auditing (at ``deep``) after each:

1. ``lower`` — :func:`repro.core.updates.enforce_dk_constraint`: lower
   similarities until Definition 3 holds again.  Lowering is always
   sound (it only sends more queries to validation), and it is the
   complete fix for the most common corruption class: a ``k`` that is
   too high.
2. ``reindex`` — selective :func:`repro.core.construction.reindex_index_graph`
   at the broadcast levels of the standing requirements: rebuilds
   extents, adjacency and similarities from the index's own partition
   without touching the data graph (Theorem 2's trick).  Heals stale or
   missing quotient edges and over-refined partitions.
3. ``rebuild`` — the full Algorithm-2 construction from the data graph.
   Always correct, priced accordingly.

A :class:`RepairReport` records every attempt; if even the rebuild does
not audit clean, the index stays quarantined and the pipeline raises
:class:`~repro.exceptions.QuarantineError`.

For indexes served out of *paged storage* there is a rung below all
three: :func:`scrub_store` digest-verifies and repairs the pages
themselves (quarantining a copy of what is corrupt), because when the
backing pages are rotten no index-level strategy can even read the
state it would fix.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Mapping

from repro.exceptions import ReproError
from repro.graph.datagraph import DataGraph
from repro.indexes.base import IndexGraph
from repro.maintenance.audit import AuditOutcome, run_audit

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.storage.paged import ScrubReport


@dataclass
class RepairAttempt:
    """One strategy tried during a repair."""

    strategy: str
    succeeded: bool
    detail: str = ""


@dataclass
class RepairReport:
    """Outcome of a quarantine-and-repair episode.

    Attributes:
        trigger: the audit failure that started it.
        attempts: strategies tried, in order.
        repaired: True when some strategy audited clean.
        strategy: the winning strategy name (``""`` when none won).
        index: the healthy index to adopt (the input object for
            in-place strategies, a fresh one for reindex/rebuild);
            ``None`` when unrepaired.
    """

    trigger: AuditOutcome
    attempts: list[RepairAttempt] = field(default_factory=list)
    repaired: bool = False
    strategy: str = ""
    index: IndexGraph | None = None

    def format(self) -> str:
        lines = [
            "repair report:",
            f"  trigger: {'; '.join(self.trigger.problems) or self.trigger.level}",
        ]
        for attempt in self.attempts:
            status = "ok" if attempt.succeeded else "failed"
            detail = f" ({attempt.detail})" if attempt.detail else ""
            lines.append(f"  {attempt.strategy}: {status}{detail}")
        lines.append(
            f"  outcome: {'repaired via ' + self.strategy if self.repaired else 'UNREPAIRED'}"
        )
        return "\n".join(lines)


def _audits_clean(index: IndexGraph) -> tuple[bool, str]:
    """Deep-audit a candidate; repairs must hold to the strictest tier."""
    outcome = run_audit(index, "deep")
    return outcome.ok, "; ".join(outcome.problems)


def repair_index(
    graph: DataGraph,
    index: IndexGraph,
    requirements: Mapping[str, int],
    trigger: AuditOutcome,
) -> RepairReport:
    """Try to heal a quarantined index; see the module docstring.

    The input ``index`` may be mutated by the ``lower`` strategy; the
    ``reindex``/``rebuild`` strategies leave it alone and return a
    replacement in :attr:`RepairReport.index`.
    """
    from repro.core.broadcast import broadcast_for_graph
    from repro.core.construction import (
        build_dk_index,
        reindex_index_graph,
        resolve_requirements,
    )
    from repro.core.updates import enforce_dk_constraint

    report = RepairReport(trigger=trigger)

    # Strategy 1: lower similarities back under Definition 3.
    try:
        lowered = enforce_dk_constraint(index)
        ok, detail = _audits_clean(index)
        report.attempts.append(
            RepairAttempt("lower", ok, detail or f"{lowered} node(s) lowered")
        )
        if ok:
            report.repaired = True
            report.strategy = "lower"
            report.index = index
            return report
    except ReproError as error:
        report.attempts.append(RepairAttempt("lower", False, str(error)))

    # Strategy 2: selective re-index from the index's own partition.
    try:
        initial = resolve_requirements(graph, requirements)
        levels = broadcast_for_graph(graph, graph.num_labels, initial)
        candidate = reindex_index_graph(index, levels)
        enforce_dk_constraint(candidate)
        ok, detail = _audits_clean(candidate)
        report.attempts.append(RepairAttempt("reindex", ok, detail))
        if ok:
            report.repaired = True
            report.strategy = "reindex"
            report.index = candidate
            return report
    except ReproError as error:
        report.attempts.append(RepairAttempt("reindex", False, str(error)))

    # Strategy 3: full rebuild from the data graph.
    try:
        rebuilt, _levels = build_dk_index(graph, requirements)
        ok, detail = _audits_clean(rebuilt)
        report.attempts.append(RepairAttempt("rebuild", ok, detail))
        if ok:
            report.repaired = True
            report.strategy = "rebuild"
            report.index = rebuilt
    except ReproError as error:
        report.attempts.append(RepairAttempt("rebuild", False, str(error)))
    return report


def scrub_store(
    directory: str | Path,
    *,
    repair: bool = True,
    budget_bytes: int | None = None,
) -> "ScrubReport":
    """Rung 0 of the ladder, for paged storage: page scrub & repair.

    Opens the paged store at ``directory``, digest-verifies every page
    its live manifest references, copies corrupt pages to quarantine and
    restores each from the newest older generation holding a
    byte-identical twin (see
    :meth:`repro.storage.paged.PagedStore.scrub`).  Runs *below* the
    index-level strategies of :func:`repair_index`: when the report
    flags ``rebuild_required``, escalate to the ``rebuild`` strategy —
    the unrepairable pages stay unreadable, never silently served, and
    a copy of their bytes stays in quarantine.
    """
    from repro.storage.paged import PagedStore

    with PagedStore.open(directory, budget_bytes=budget_bytes) as store:
        return store.scrub(repair=repair)
