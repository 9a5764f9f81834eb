"""The transactional update pipeline — maintenance's front door.

Every mutating operation on a :class:`~repro.core.dindex.DKIndex` runs
through :class:`UpdatePipeline`, which wraps the core algorithms in four
layers:

1. **Transaction**: the touched state is checkpointed
   (:class:`~repro.maintenance.transaction.UpdateTransaction`); any
   exception rolls the (graph, index) pair back bit-identically and
   propagates.
2. **Journal** (optional): once the operation has run, still inside
   the transaction, one record of the operation and its arguments is
   appended to the :class:`~repro.maintenance.journal.UpdateJournal`
   and ``fsync``\\ ed.  A failed append rolls the operation back like
   any other exception; a rolled-back operation leaves no record.
3. **Audit**: after a committed operation the index is audited at the
   configured tier (:data:`~repro.maintenance.audit.AUDIT_ENV_VAR`
   selects ``off``/``fast``/``deep``).
4. **Repair**: an audit failure quarantines the index and hands it to
   :func:`~repro.maintenance.repair.repair_index`; a successful repair
   swaps the healed index in and lifts the quarantine, anything else
   raises :class:`~repro.exceptions.QuarantineError`.  The journal keeps
   the operation's record either way — replay from the base snapshot
   is the recovery path of last resort.

The pipeline is the default update path of the facade: ``DKIndex`` with
no arguments gets transactions and the environment-selected audit tier
for free; pass a :class:`MaintenanceConfig` to add journaling or change
tiers programmatically.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Iterable, Mapping, Sequence, TypeVar

from repro.core.promote import (
    PromoteReport,
    demote_index,
    promote_requirements,
)
from repro.core.requirements import merge_requirements
from repro.core.updates import (
    EdgeUpdateReport,
    dk_add_edge,
    dk_add_edges,
    dk_add_subgraph,
    dk_remove_edge,
)
from repro.exceptions import QuarantineError
from repro.graph.serialize import graph_to_dict
from repro.maintenance.audit import (
    AuditOutcome,
    audit_level_from_env,
    run_audit,
    scoped_fast_ok,
)
from repro.maintenance.faults import fault_point
from repro.maintenance.journal import UpdateJournal
from repro.maintenance.repair import RepairReport, repair_index
from repro.maintenance.transaction import Scope, UpdateTransaction

if TYPE_CHECKING:
    from repro.core.dindex import DKIndex
    from repro.graph.datagraph import DataGraph

_T = TypeVar("_T")


@dataclass
class MaintenanceConfig:
    """Knobs for the update pipeline.

    Attributes:
        audit: post-commit audit tier (``off``/``fast``/``deep``); the
            default honours the ``DKINDEX_AUDIT`` environment variable
            and falls back to ``fast``.
        journal_path: where to keep the write-ahead journal; ``None``
            disables journaling.
        auto_repair: on audit failure, try the repair ladder before
            giving up; with ``False`` the pipeline quarantines and
            raises immediately (useful to freeze evidence).
    """

    audit: str = field(default_factory=audit_level_from_env)
    journal_path: str | Path | None = None
    auto_repair: bool = True


class UpdatePipeline:
    """Transactional, journaled, audited updates for one ``DKIndex``.

    Attributes:
        dk: the facade whose graph/index/requirements this pipeline
            owns the mutation rights to.
        config: the :class:`MaintenanceConfig`.
        journal: the attached :class:`UpdateJournal`, or ``None``.
        quarantined: True while the index is known-bad (audit failed and
            repair has not succeeded).  Further updates are refused.
        last_audit / last_repair: most recent outcomes, for inspection.
        repairs: every :class:`RepairReport` this pipeline produced.
    """

    def __init__(self, dk: "DKIndex", config: MaintenanceConfig | None = None) -> None:
        self.dk = dk
        self.config = config or MaintenanceConfig()
        self.journal: UpdateJournal | None = (
            UpdateJournal.open(self.config.journal_path, dk)
            if self.config.journal_path is not None
            else None
        )
        self.quarantined = False
        self.last_audit: AuditOutcome | None = None
        self.last_repair: RepairReport | None = None
        self.repairs: list[RepairReport] = []

    # ------------------------------------------------------------------
    # Operations
    # ------------------------------------------------------------------

    def add_edge(self, src_data: int, dst_data: int) -> EdgeUpdateReport:
        """Transactional :func:`~repro.core.updates.dk_add_edge`."""
        graph, index = self.dk.graph, self.dk.index
        report = self._run(
            "add_edge",
            {"src": src_data, "dst": dst_data},
            scope="add-edge",
            edge=(src_data, dst_data),
            action=lambda: dk_add_edge(graph, index, src_data, dst_data),
        )
        self._audit(
            self._edge_touch(report),
            expected=self._expected_k(report),
            new_edges=self._new_edges(report),
        )
        return report

    def add_edges(
        self, edges: Sequence[tuple[int, int]]
    ) -> list[EdgeUpdateReport]:
        """Transactional :func:`~repro.core.updates.dk_add_edges`.

        The batch is atomic: one journal entry, one transaction, one
        audit; any failure rolls back every edge.
        """
        graph, index = self.dk.graph, self.dk.index
        reports = self._run(
            "add_edges",
            {"edges": [[src, dst] for src, dst in edges]},
            scope="full",
            action=lambda: dk_add_edges(graph, index, edges),
        )
        touched: set[int] = set()
        expected: dict[int, int] = {}
        new_edges: list[tuple[int, int]] = []
        for report in reports:
            touched.update(self._edge_touch(report))
            expected.update(self._expected_k(report))  # later edges win
            new_edges.extend(self._new_edges(report))
        self._audit(touched, expected=expected, new_edges=new_edges)
        return reports

    def remove_edge(self, src_data: int, dst_data: int) -> EdgeUpdateReport:
        """Transactional :func:`~repro.core.updates.dk_remove_edge`."""
        graph, index = self.dk.graph, self.dk.index
        report = self._run(
            "remove_edge",
            {"src": src_data, "dst": dst_data},
            scope="remove-edge",
            edge=(src_data, dst_data),
            action=lambda: dk_remove_edge(graph, index, src_data, dst_data),
        )
        # Removal also only lowers similarities (conservative lower-to-0
        # plus the Algorithm-5 sweep) and never adds an index edge, so
        # the child-only expected-k fast path applies.
        self._audit(self._edge_touch(report), expected=self._expected_k(report))
        return report

    def add_subgraph(self, subgraph: "DataGraph") -> list[int]:
        """Transactional :func:`~repro.core.updates.dk_add_subgraph`.

        Returns the node-id mapping from ``subgraph`` into the grown
        data graph (the facade's contract).
        """
        graph, index = self.dk.graph, self.dk.index
        requirements = dict(self.dk.requirements)
        merged, mapping = self._run(
            "add_subgraph",
            {"subgraph": graph_to_dict(subgraph), "requirements": requirements},
            scope="full",
            action=lambda: dk_add_subgraph(graph, index, subgraph, requirements),
        )
        self.dk.index = merged
        self._audit({merged.node_of[node] for node in mapping})
        return mapping

    def promote(
        self, requirements: Mapping[str, int] | None = None
    ) -> PromoteReport:
        """Transactional promote (merges ``requirements`` in, like the facade)."""
        if requirements is not None:
            self.dk.requirements = merge_requirements(
                self.dk.requirements, requirements
            )
        graph, index = self.dk.graph, self.dk.index
        standing = dict(self.dk.requirements)
        report = self._run(
            "promote",
            {"requirements": dict(requirements) if requirements is not None else None},
            scope="full",
            action=lambda: promote_requirements(graph, index, standing),
        )
        self._audit(set(report.raised))
        return report

    def demote(self, requirements: Mapping[str, int]) -> int:
        """Transactional demote; returns index nodes removed by the merge."""
        index = self.dk.index
        before = index.num_nodes
        reqs = dict(requirements)
        demoted = self._run(
            "demote",
            {"requirements": reqs},
            scope="full",
            action=lambda: demote_index(index, reqs),
        )
        self.dk.index = demoted
        self.dk.requirements = reqs
        self._audit(set())
        return before - demoted.num_nodes

    def close(self) -> None:
        """Release the journal's kept file handle, if there is a journal.

        Safe to call twice; a later operation reopens the handle.
        """
        if self.journal is not None:
            self.journal.close()

    # ------------------------------------------------------------------
    # Machinery
    # ------------------------------------------------------------------

    def _run(
        self,
        op: str,
        args: Mapping[str, object],
        scope: Scope,
        action: Callable[[], _T],
        edge: tuple[int, int] | None = None,
    ) -> _T:
        if self.quarantined:
            raise QuarantineError(
                "index is quarantined (audit failed, repair did not converge); "
                "replay the journal or rebuild before further updates"
            )
        with UpdateTransaction(self.dk.graph, self.dk.index, scope, edge):
            result = action()
            fault_point("pipeline.pre_audit", self.dk.index)
            if self.journal is not None:
                # Durable before the call returns; a failed append
                # rolls the operation back with the transaction.
                self.journal.commit(op, args)
        return result

    @staticmethod
    def _edge_touch(report: EdgeUpdateReport) -> set[int]:
        # The source node's similarity never changes in an edge update
        # (only the target and its downstream sweep do), so its incoming
        # label paths and its incident Definition-3 edges are unaffected
        # — auditing its (often hub-sized) adjacency would only add
        # cost.  The new index edge source -> target is still covered,
        # from the target's parent side.
        touched = {report.target}
        touched.update(report.lowered)
        return touched

    @staticmethod
    def _expected_k(report: EdgeUpdateReport) -> dict[int, int]:
        """The post-update similarities the report claims were written."""
        return {node: new for node, (_old, new) in report.lowered.items()}

    @staticmethod
    def _new_edges(report: EdgeUpdateReport) -> tuple[tuple[int, int], ...]:
        if report.new_index_edge:
            return ((report.source, report.target),)
        return ()

    def _audit(
        self,
        touched: Iterable[int],
        expected: Mapping[int, int] | None = None,
        new_edges: Iterable[tuple[int, int]] = (),
    ) -> None:
        level = self.config.audit
        if level == "fast":
            # Happy path: a zero-allocation boolean sweep of the touched
            # neighbourhood.  Only on failure (rare) re-diagnose — at
            # ``deep``, because the cheap sweep checks things (expected
            # similarity values, the new index edge) the fast diagnosis
            # does not, and a quarantine decision deserves the full
            # picture anyway.
            touched_set = set(touched)
            if not touched_set:
                # No known neighbourhood (demote): full fast scan.
                outcome = run_audit(self.dk.index, "fast", ())
            elif scoped_fast_ok(self.dk.index, touched_set, expected, new_edges):
                self.last_audit = AuditOutcome(level="fast")
                return
            else:
                outcome = run_audit(self.dk.index, "deep", sorted(touched_set))
                if outcome.ok:
                    outcome.fail(
                        "scoped fast check failed (post-update similarities "
                        "do not match the update report) but the deep audit "
                        "found no structural damage; repairing to be safe"
                    )
        else:
            outcome = run_audit(self.dk.index, level, sorted(set(touched)))
        self.last_audit = outcome
        if outcome.ok:
            return
        self.quarantined = True
        if not self.config.auto_repair:
            raise QuarantineError(outcome.format())
        report = repair_index(
            self.dk.graph, self.dk.index, self.dk.requirements, outcome
        )
        self.last_repair = report
        self.repairs.append(report)
        if report.repaired and report.index is not None:
            self.dk.index = report.index
            self.quarantined = False
            return
        raise QuarantineError(
            "audit failed and automatic repair did not converge\n" + report.format()
        )
