"""Transactional, auditable maintenance for the D(k)-index.

The paper's update algorithms (Section 5) are fast because they touch
little; this package makes them *safe to run forever*.  Every mutating
operation (edge addition/removal, document insertion, promote, demote)
runs through four layers:

1. :class:`~repro.maintenance.transaction.UpdateTransaction` — snapshots
   the touched state and rolls back to a bit-identical pre-update state
   on any exception;
2. :class:`~repro.maintenance.journal.UpdateJournal` — a JSONL
   write-ahead journal holding one durable record per committed
   operation, appended before the operation returns and replayable
   from a base snapshot;
3. the post-commit audit tiers of :mod:`repro.maintenance.audit`
   (``DKINDEX_AUDIT`` = ``off`` / ``fast`` / ``deep``) with graceful
   degradation: an audit failure quarantines the index and triggers
   :func:`~repro.maintenance.repair.repair_index`;
4. the deterministic fault-injection harness of
   :mod:`repro.maintenance.faults`, exercised by the chaos suite
   (:mod:`repro.maintenance.chaos` / ``dkindex chaos``).

:class:`~repro.maintenance.pipeline.UpdatePipeline` composes the layers
and is the default update path of :class:`~repro.core.dindex.DKIndex`
and :class:`~repro.engine.Database`.  Durability lives in
:mod:`repro.maintenance.store`: atomic sealed writes for every
persistence path, the generation-numbered :class:`CheckpointStore`, and
point-in-time recovery (``dkindex checkpoint`` / ``dkindex recover``),
crash-tested by the durability half of the chaos suite.  See
``docs/robustness.md``.

Exports resolve lazily (PEP 562): the update hot path imports
:mod:`repro.maintenance.faults` without dragging in the pipeline (which
itself imports the update algorithms).
"""

from __future__ import annotations

from importlib import import_module
from typing import TYPE_CHECKING, Any

if TYPE_CHECKING:  # pragma: no cover - for type checkers only
    from repro.maintenance.audit import (
        AUDIT_LEVELS,
        AuditOutcome,
        audit_level_from_env,
        run_audit,
    )
    from repro.maintenance.chaos import (
        ChaosOutcome,
        ChaosReport,
        run_chaos_suite,
        run_durability_suite,
        run_storage_suite,
    )
    from repro.maintenance.faults import (
        DURABILITY_FAULT_POINTS,
        FAULT_POINTS,
        STORAGE_FAULT_POINTS,
        FaultInjector,
        fault_point,
        inject_faults,
    )
    from repro.maintenance.journal import (
        JournalEntry,
        JournalScan,
        UpdateJournal,
        apply_journal_op,
        scan_journal,
    )
    from repro.maintenance.pipeline import MaintenanceConfig, UpdatePipeline
    from repro.maintenance.repair import RepairReport, repair_index, scrub_store
    from repro.maintenance.store import (
        ArtifactStatus,
        CheckpointInfo,
        CheckpointStore,
        RecoveryReport,
        RungAttempt,
        atomic_write_document,
        atomic_write_text,
        read_document,
        seal,
        unseal,
    )
    from repro.maintenance.transaction import (
        GraphCheckpoint,
        IndexCheckpoint,
        UpdateTransaction,
        state_fingerprint,
    )

#: Export name -> defining submodule.
_EXPORTS: dict[str, str] = {
    "AUDIT_LEVELS": "repro.maintenance.audit",
    "AuditOutcome": "repro.maintenance.audit",
    "audit_level_from_env": "repro.maintenance.audit",
    "run_audit": "repro.maintenance.audit",
    "ChaosOutcome": "repro.maintenance.chaos",
    "ChaosReport": "repro.maintenance.chaos",
    "run_chaos_suite": "repro.maintenance.chaos",
    "run_durability_suite": "repro.maintenance.chaos",
    "run_storage_suite": "repro.maintenance.chaos",
    "DURABILITY_FAULT_POINTS": "repro.maintenance.faults",
    "FAULT_POINTS": "repro.maintenance.faults",
    "STORAGE_FAULT_POINTS": "repro.maintenance.faults",
    "FaultInjector": "repro.maintenance.faults",
    "fault_point": "repro.maintenance.faults",
    "inject_faults": "repro.maintenance.faults",
    "JournalEntry": "repro.maintenance.journal",
    "JournalScan": "repro.maintenance.journal",
    "UpdateJournal": "repro.maintenance.journal",
    "apply_journal_op": "repro.maintenance.journal",
    "scan_journal": "repro.maintenance.journal",
    "MaintenanceConfig": "repro.maintenance.pipeline",
    "UpdatePipeline": "repro.maintenance.pipeline",
    "RepairReport": "repro.maintenance.repair",
    "repair_index": "repro.maintenance.repair",
    "scrub_store": "repro.maintenance.repair",
    "ArtifactStatus": "repro.maintenance.store",
    "CheckpointInfo": "repro.maintenance.store",
    "CheckpointStore": "repro.maintenance.store",
    "RecoveryReport": "repro.maintenance.store",
    "RungAttempt": "repro.maintenance.store",
    "atomic_write_document": "repro.maintenance.store",
    "atomic_write_text": "repro.maintenance.store",
    "read_document": "repro.maintenance.store",
    "seal": "repro.maintenance.store",
    "unseal": "repro.maintenance.store",
    "GraphCheckpoint": "repro.maintenance.transaction",
    "IndexCheckpoint": "repro.maintenance.transaction",
    "UpdateTransaction": "repro.maintenance.transaction",
    "state_fingerprint": "repro.maintenance.transaction",
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str) -> Any:
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(module), name)


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_EXPORTS))
