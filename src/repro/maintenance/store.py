"""Crash-safe durability: atomic writes, sealed files, checkpoints.

Everything the repository persists — data-graph and index snapshots,
query loads, the write-ahead journal's base — used to be written with a
bare ``open(path, "w")``: a crash mid-``json.dump`` destroyed the
previous good file and left a truncated, unloadable one.  This module
is the single door all persistence now walks through, plus the
checkpoint/recovery subsystem layered on top of it.

**Atomic writes.**  :func:`atomic_write_text` writes to a same-directory
temp file, flushes, ``fsync``\\ s, renames over the destination and
``fsync``\\ s the directory.  A crash at any instant leaves either the
old file or the new one, never a hybrid.  Durability fault points
(:data:`~repro.maintenance.faults.DURABILITY_FAULT_POINTS`) are
threaded through the sequence so the chaos suite can crash it at every
step and bit-rot the result afterwards.

**Sealed documents.**  :func:`atomic_write_document` appends a one-line
sha256 integrity footer::

    {...the JSON document...}
    {"format":"repro-seal","version":1,"algorithm":"sha256","digest":"..."}

:func:`read_document` verifies the digest before parsing, so *any*
byte flip anywhere in the file raises a typed
:class:`~repro.exceptions.SerializationError` instead of loading a
silently different index.  Files without a footer (the version-1
formats written before this module existed) still load.

**The checkpoint store.**  :class:`CheckpointStore` owns a directory of
generation-numbered snapshots, each paired with the write-ahead journal
of the operations that followed it::

    store/
      CURRENT                  # sealed pointer {"generation": 3}
      snapshot-0000003.json    # sealed repro-indexgraph doc, graph embedded
      journal-0000003.jsonl    # CRC-framed WAL since snapshot 3 (live)
      snapshot-0000002.json    # retained older generation
      journal-0000002.jsonl

:meth:`CheckpointStore.checkpoint` snapshots the live index into the
next generation, starts a fresh journal (truncation by supersession —
the old journal is retained, not destroyed), repoints ``CURRENT`` and
prunes generations beyond the retention window — each step an atomic
write, in an order that leaves every crash prefix recoverable.

:meth:`CheckpointStore.recover` climbs the recovery ladder:

1. newest valid snapshot + replay of the committed journal suffix;
2. older snapshot + longer replay (chaining every later journal);
   with the journal's own embedded base as a stand-in when a snapshot
   file is damaged;
3. full Algorithm-2 rebuild from the newest recoverable data graph,
   then the same chained replay.

Every rung is re-audited at ``deep`` before it is allowed to win, and
every artifact verdict, rung attempt, anomaly and detected loss is
recorded in the returned :class:`RecoveryReport`.  See
``docs/robustness.md`` for the runbook (``dkindex recover``).
"""

from __future__ import annotations

import hashlib
import json
import os
import re
from dataclasses import dataclass, field
from io import FileIO
from pathlib import Path
from typing import IO, TYPE_CHECKING, Any, Callable

from repro.exceptions import (
    CheckpointError,
    InjectedFaultError,
    RecoveryError,
    ReproError,
    SerializationError,
)
from repro.maintenance.faults import fault_point

if TYPE_CHECKING:
    from repro.core.dindex import DKIndex
    from repro.maintenance.journal import JournalScan, UpdateJournal
    from repro.maintenance.pipeline import MaintenanceConfig, UpdatePipeline

#: Marker and version of the one-line integrity footer.
SEAL_FORMAT = "repro-seal"
SEAL_VERSION = 1

#: Marker and version of the ``CURRENT`` generation pointer document.
CURRENT_FORMAT = "repro-checkpoint-current"
CURRENT_VERSION = 1

#: Name of the generation pointer file inside a checkpoint store.
CURRENT_NAME = "CURRENT"

#: Suffix of in-flight atomic writes (swept by recovery).
TMP_SUFFIX = ".tmp"

_SNAPSHOT_RE = re.compile(r"^snapshot-(\d{7})\.json$")
_JOURNAL_RE = re.compile(r"^journal-(\d{7})\.jsonl$")


def snapshot_name(generation: int) -> str:
    """File name of the sealed snapshot for ``generation``."""
    return f"snapshot-{generation:07d}.json"


def journal_name(generation: int) -> str:
    """File name of the write-ahead journal for ``generation``."""
    return f"journal-{generation:07d}.jsonl"


# ----------------------------------------------------------------------
# Atomic writes
# ----------------------------------------------------------------------


def fsync_directory(directory: Path) -> None:
    """Flush a directory's entry table (makes renames durable)."""
    try:
        fd = os.open(directory, os.O_RDONLY)
    except OSError:  # platforms without directory fds (e.g. Windows)
        return
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def write_all(handle: FileIO, data: bytes) -> None:
    """Write all of ``data`` through an unbuffered handle, which may
    take fewer bytes per call than it is given.  The appends of the
    journal and of the paged store's segments go through here."""
    view = memoryview(data)
    while view:
        view = view[handle.write(view):]


def _crash_leaving(name: str, damage: Callable[[], None] | None = None) -> None:
    """A fault point that, when it fires, first arranges the filesystem
    state a real crash at this instant could leave behind."""
    try:
        fault_point(name)
    except InjectedFaultError:
        if damage is not None:
            damage()
        raise


def atomic_write_text(path: str | Path, text: str) -> None:
    """Write ``text`` to ``path`` as UTF-8 through :func:`atomic_write_bytes`.

    Every document the stores write is ASCII JSON (``json.dumps``
    escapes the rest), so each character is one byte and a fault that
    tears the file leaves the same half either way.
    """
    atomic_write_bytes(path, text.encode("utf-8"))


def atomic_write_bytes(path: str | Path, data: bytes) -> None:
    """Write ``data`` to ``path`` so a crash never leaves a hybrid file.

    The sequence is temp write + flush + ``fsync`` + rename +
    directory ``fsync``; readers see either the previous content or the
    complete new content.  Durability fault points are threaded through
    every step for the chaos suite, so every sealed document — the
    checkpoint store's and the paged store's manifests and ``CURRENT``
    pointers alike — takes the same faults.
    """
    target = Path(path)
    temp = target.with_name(target.name + TMP_SUFFIX)
    half = len(data) // 2
    with open(temp, "wb") as handle:
        handle.write(data[:half])
        handle.flush()
        # Crash here: a torn temp file, the destination untouched.
        fault_point("store.torn_write")
        handle.write(data[half:])
        handle.flush()
        os.fsync(handle.fileno())
    # Crash here: a complete, durable temp file, the destination untouched.
    fault_point("store.partial_rename")
    os.replace(temp, target)
    # The rename happened but the data pages were never flushed: the
    # post-crash destination holds only what made it to disk.
    _crash_leaving(
        "store.missing_fsync",
        damage=lambda: target.write_bytes(data[:half]),
    )
    fsync_directory(target.parent)
    # Bit-rot after a perfectly durable write.
    fault_point("store.bit_flip", path=target)


# ----------------------------------------------------------------------
# Sealed documents
# ----------------------------------------------------------------------


def seal(body: str) -> str:
    """Append the sha256 integrity footer line to ``body``."""
    digest = hashlib.sha256(body.encode("utf-8")).hexdigest()
    footer = json.dumps(
        {
            "format": SEAL_FORMAT,
            "version": SEAL_VERSION,
            "algorithm": "sha256",
            "digest": digest,
        },
        separators=(",", ":"),
    )
    return body + "\n" + footer + "\n"


def unseal(text: str, source: str = "<sealed>") -> tuple[str, bool]:
    """Verify and strip the integrity footer; returns ``(body, sealed)``.

    Text without a recognisable footer is returned verbatim with
    ``sealed=False`` (the pre-seal version-1 files); the caller's own
    format checks take over.

    Raises:
        SerializationError: when a footer is present but the digest does
            not match, or its version/algorithm is unsupported.
    """
    stripped = text[:-1] if text.endswith("\n") else text
    parts = stripped.rsplit("\n", 1)
    if len(parts) != 2:
        return text, False
    body, footer_line = parts
    try:
        footer = json.loads(footer_line)
    except (ValueError, RecursionError):
        # JSONDecodeError is a ValueError; so is an integer literal past
        # Python's digit limit.  Deep nesting overflows the decoder.
        return text, False
    if not isinstance(footer, dict) or footer.get("format") != SEAL_FORMAT:
        return text, False
    if footer.get("version") != SEAL_VERSION:
        raise SerializationError(
            f"{source}: unsupported seal version {footer.get('version')!r}"
        )
    if footer.get("algorithm") != "sha256":
        raise SerializationError(
            f"{source}: unsupported seal algorithm {footer.get('algorithm')!r}"
        )
    digest = hashlib.sha256(body.encode("utf-8")).hexdigest()
    if digest != footer.get("digest"):
        raise SerializationError(
            f"{source}: sha256 mismatch — the file is corrupt "
            f"(stored {footer.get('digest')!r}, computed {digest!r})"
        )
    return body, True


def atomic_write_document(path: str | Path, document: dict[str, Any]) -> None:
    """Serialize ``document`` as sealed JSON and write it atomically."""
    atomic_write_text(path, seal(json.dumps(document)))


def read_document(path: str | Path | IO[str]) -> dict[str, Any]:
    """Load a JSON document, verifying the seal when one is present.

    ``path`` may also be an open stream (text, or UTF-8 bytes); it is
    read to the end and held to the same checks as a file.

    Raises:
        SerializationError: unreadable file, digest mismatch, or text
            that is not a JSON object.
    """
    if isinstance(path, (str, Path)):
        source = str(path)
    else:
        source = getattr(path, "name", "<stream>")
    try:
        if isinstance(path, (str, Path)):
            text = Path(path).read_text(encoding="utf-8")
        else:
            raw = path.read()
            text = raw.decode("utf-8") if isinstance(raw, bytes) else raw
    except OSError as error:
        raise SerializationError(f"{source}: cannot read: {error}") from error
    except UnicodeDecodeError as error:
        raise SerializationError(f"{source}: not valid UTF-8: {error}") from error
    body, _sealed = unseal(text, source)
    try:
        data = json.loads(body)
    except (ValueError, RecursionError) as error:
        raise SerializationError(f"{source}: not valid JSON: {error}") from error
    if not isinstance(data, dict):
        raise SerializationError(f"{source}: document must be a JSON object")
    return data


# ----------------------------------------------------------------------
# The checkpoint store
# ----------------------------------------------------------------------


@dataclass
class CheckpointInfo:
    """What one :meth:`CheckpointStore.checkpoint` call produced."""

    generation: int
    snapshot_path: Path
    journal_path: Path
    pruned: list[int] = field(default_factory=list)


@dataclass
class ArtifactStatus:
    """Recovery's verdict on one on-disk artifact."""

    name: str
    status: str  # ok | corrupt | missing
    detail: str = ""


@dataclass
class RungAttempt:
    """One rung of the recovery ladder, tried and judged."""

    rung: str
    succeeded: bool
    detail: str = ""


@dataclass
class RecoveryReport:
    """Everything :meth:`CheckpointStore.recover` found and decided.

    Attributes:
        directory: the store recovered from.
        artifacts: per-file verdicts (snapshots, journals, ``CURRENT``).
        rungs: ladder rungs attempted, in order, each deep-audited.
        issues: anomalies — corrupt lines localized by path and line
            number, torn tails, swept temp files.
        replayed: committed operations re-executed by the winning rung.
        data_loss: True when committed journal entries were destroyed by
            mid-file corruption and could not be recovered from any
            redundant artifact (the recovered state is then the newest
            consistent point in time before the damage).
        recovered: whether any rung won.
        strategy: the winning rung's name (``""`` when none).
        generation: the winning rung's base generation.
        dk: the recovered index, or ``None``.
    """

    directory: str
    artifacts: list[ArtifactStatus] = field(default_factory=list)
    rungs: list[RungAttempt] = field(default_factory=list)
    issues: list[str] = field(default_factory=list)
    replayed: int = 0
    data_loss: bool = False
    recovered: bool = False
    strategy: str = ""
    generation: int | None = None
    dk: "DKIndex | None" = None

    def format(self) -> str:
        lines = [f"recovery report for {self.directory}:"]
        for artifact in self.artifacts:
            detail = f"  ({artifact.detail})" if artifact.detail else ""
            lines.append(f"  {artifact.name:<24} {artifact.status}{detail}")
        for rung in self.rungs:
            status = "ok" if rung.succeeded else "failed"
            detail = f"  ({rung.detail})" if rung.detail else ""
            lines.append(f"  rung {rung.rung:<28} {status}{detail}")
        for issue in self.issues:
            lines.append(f"  ! {issue}")
        if self.recovered:
            lines.append(
                f"  outcome: recovered via {self.strategy} "
                f"({self.replayed} committed operation(s) replayed"
                + (", WITH DATA LOSS — see issues above)" if self.data_loss else ")")
            )
        else:
            lines.append("  outcome: UNRECOVERED — every rung failed")
        return "\n".join(lines)


class CheckpointStore:
    """Generation-numbered snapshots plus a live journal, crash-safe.

    Args:
        directory: the store directory (created by :meth:`create`).
        retain: how many *older* generations to keep next to the
            current one; they are rungs 2+ of the recovery ladder.
    """

    def __init__(self, directory: str | Path, retain: int = 2) -> None:
        if retain < 1:
            raise CheckpointError("retain must be >= 1 (the ladder needs rungs)")
        self.directory = Path(directory)
        self.retain = retain

    # -- creation and layout --------------------------------------------

    @classmethod
    def create(
        cls, directory: str | Path, dk: "DKIndex", retain: int = 2
    ) -> "CheckpointStore":
        """Initialise a store around ``dk`` (generation 1)."""
        store = cls(directory, retain)
        if store._scan():
            raise CheckpointError(
                f"{store.directory} already holds a checkpoint store; "
                "open it with CheckpointStore(directory) instead"
            )
        store.directory.mkdir(parents=True, exist_ok=True)
        store._write_generation(1, dk)
        return store

    def _scan(self) -> dict[int, dict[str, Path]]:
        """Generations on disk: ``{gen: {"snapshot": path, "journal": path}}``."""
        inventory: dict[int, dict[str, Path]] = {}
        if not self.directory.is_dir():
            return inventory
        for entry in sorted(self.directory.iterdir()):
            for pattern, kind in ((_SNAPSHOT_RE, "snapshot"), (_JOURNAL_RE, "journal")):
                match = pattern.match(entry.name)
                if match:
                    inventory.setdefault(int(match.group(1)), {})[kind] = entry
        return inventory

    def generations(self) -> list[int]:
        """Sorted generation numbers present on disk (either artifact)."""
        return sorted(self._scan())

    def current_generation(self) -> int:
        """The live generation: the newest on disk.

        ``CURRENT`` is a hint for humans and external tools; after a
        crash between a snapshot write and the pointer update it can lag
        the truth, so the directory scan wins.

        Raises:
            CheckpointError: when the directory holds no generations.
        """
        generations = self.generations()
        if not generations:
            raise CheckpointError(
                f"{self.directory} is not a checkpoint store (no generations)"
            )
        return generations[-1]

    @property
    def journal_path(self) -> Path:
        """Path of the live (current-generation) journal."""
        return self.directory / journal_name(self.current_generation())

    def maintenance_config(self, audit: str | None = None) -> "MaintenanceConfig":
        """A :class:`MaintenanceConfig` journaling into this store."""
        from repro.maintenance.pipeline import MaintenanceConfig

        if audit is None:
            return MaintenanceConfig(journal_path=self.journal_path)
        return MaintenanceConfig(audit=audit, journal_path=self.journal_path)

    # -- checkpointing ---------------------------------------------------

    def checkpoint(
        self, dk: "DKIndex", pipeline: "UpdatePipeline | None" = None
    ) -> CheckpointInfo:
        """Snapshot ``dk`` as the next generation and rotate the journal.

        Write order is chosen so every crash prefix recovers: sealed
        snapshot first (redundant with the old journal until the next
        step), then the fresh journal with its base, then ``CURRENT``,
        then pruning.  Last, every journal aimed at the previous live
        journal moves to the fresh file, so that no later commit lands
        in a journal recovery no longer replays: ``pipeline``'s (when
        given, wherever it was aimed), ``dk``'s own pipeline's, and the
        ``journal_path`` of ``dk.maintenance`` and of those pipelines'
        configs, which a pipeline created later opens.
        """
        from repro.maintenance.journal import UpdateJournal

        current = self.current_generation()
        previous = (self.directory / journal_name(current)).resolve()
        generation = current + 1
        info = self._write_generation(generation, dk)
        info.pruned = self._prune(generation)

        def aimed_at_previous(path: str | Path | None) -> bool:
            return path is not None and Path(path).resolve() == previous

        pipelines: list[UpdatePipeline] = [] if pipeline is None else [pipeline]
        owned = dk._pipeline
        if (
            owned is not None
            and owned is not pipeline
            and owned.journal is not None
            and aimed_at_previous(owned.journal.path)
        ):
            pipelines.append(owned)
        for each in pipelines:
            if each.journal is not None:
                each.journal.close()
            each.journal = UpdateJournal(info.journal_path)
        for config in [dk.maintenance, *(each.config for each in pipelines)]:
            if config is not None and aimed_at_previous(config.journal_path):
                config.journal_path = info.journal_path
        return info

    def _write_generation(self, generation: int, dk: "DKIndex") -> CheckpointInfo:
        from repro.maintenance.journal import encode_base_line, encode_index_document

        # One encoding serves as both the sealed snapshot's body and the
        # fresh journal's base payload (the same state by construction).
        body = encode_index_document(dk)
        snapshot_path = self.directory / snapshot_name(generation)
        journal_path = self.directory / journal_name(generation)
        atomic_write_text(snapshot_path, seal(body))
        atomic_write_text(journal_path, encode_base_line(body))
        atomic_write_document(
            self.directory / CURRENT_NAME,
            {
                "format": CURRENT_FORMAT,
                "version": CURRENT_VERSION,
                "generation": generation,
            },
        )
        return CheckpointInfo(generation, snapshot_path, journal_path)

    def _prune(self, current: int) -> list[int]:
        """Drop generations beyond the retention window; returns them."""
        keep = {current - offset for offset in range(self.retain + 1)}
        pruned: list[int] = []
        for generation, artifacts in sorted(self._scan().items()):
            if generation in keep:
                continue
            for path in artifacts.values():
                path.unlink(missing_ok=True)
            pruned.append(generation)
        if pruned:
            fsync_directory(self.directory)
        return pruned

    # -- recovery --------------------------------------------------------

    def recover(self) -> RecoveryReport:
        """Climb the recovery ladder; see the module docstring.

        Read-only apart from sweeping ``*.tmp`` leftovers, so it is safe
        to re-run after a crash mid-recovery.

        Raises:
            RecoveryError: when the directory holds no generations at
                all (nothing to climb).
        """
        report = RecoveryReport(directory=str(self.directory))
        self._sweep_temp_files(report)
        inventory = self._scan()
        if not inventory:
            raise RecoveryError(
                f"{self.directory} holds no snapshots or journals to recover from"
            )
        self._check_current_pointer(report, max(inventory))
        newest_first = sorted(inventory, reverse=True)
        scans = self._scan_journals(inventory, report)

        # Rungs 1..n: per generation, newest first — the sealed snapshot,
        # or the journal's own embedded base when the snapshot is damaged
        # (they hold the same state by construction, so when the snapshot
        # loaded but its rung failed, the base would only fail the same way).
        for generation in newest_first:
            base = self._load_base(generation, "snapshot", inventory, scans, report)
            kind = "snapshot"
            if base is None:
                base = self._load_base(
                    generation, "journal-base", inventory, scans, report
                )
                kind = "journal-base"
            if base is None:
                continue
            if self._try_rung(
                f"{kind}-{generation}+replay", generation, base,
                newest_first, scans, report,
            ):
                return report

        # Last rung: rebuild from the newest recoverable data graph.
        for generation in newest_first:
            base = self._rebuild_base(generation, inventory, scans, report)
            if base is None:
                continue
            if self._try_rung(
                f"rebuild-{generation}+replay", generation, base,
                newest_first, scans, report,
            ):
                return report
            break  # one rebuild attempt; older graphs only lose more
        return report

    def _sweep_temp_files(self, report: RecoveryReport) -> None:
        if not self.directory.is_dir():
            return
        for temp in sorted(self.directory.glob(f"*{TMP_SUFFIX}")):
            report.issues.append(
                f"swept in-flight temp file {temp.name} (crash mid-write)"
            )
            temp.unlink(missing_ok=True)

    def _check_current_pointer(self, report: RecoveryReport, newest: int) -> None:
        pointer = self.directory / CURRENT_NAME
        try:
            document = read_document(pointer)
            if document.get("format") != CURRENT_FORMAT:
                raise SerializationError(
                    f"{pointer}: unexpected format {document.get('format')!r}"
                )
            pointed = document.get("generation")
            if pointed == newest:
                report.artifacts.append(ArtifactStatus(CURRENT_NAME, "ok"))
            else:
                report.artifacts.append(
                    ArtifactStatus(
                        CURRENT_NAME, "ok",
                        f"stale: points at {pointed}, newest on disk is {newest}",
                    )
                )
        except SerializationError as error:
            report.artifacts.append(
                ArtifactStatus(CURRENT_NAME, "corrupt", str(error))
            )
            report.issues.append(
                f"{CURRENT_NAME} unreadable ({error}); trusting the directory scan"
            )

    def _scan_journals(
        self, inventory: dict[int, dict[str, Path]], report: RecoveryReport
    ) -> dict[int, "JournalScan"]:
        from repro.maintenance.journal import scan_journal

        scans: dict[int, "JournalScan"] = {}
        for generation in sorted(inventory):
            path = inventory[generation].get("journal")
            name = journal_name(generation)
            if path is None:
                report.artifacts.append(
                    ArtifactStatus(name, "missing", "no journal for this generation")
                )
                continue
            scan = scan_journal(path)
            scans[generation] = scan
            status = "corrupt" if scan.damaged else "ok"
            detail = "; ".join(scan.notes)
            report.artifacts.append(ArtifactStatus(name, status, detail))
            report.issues.extend(scan.notes)
        return scans

    def _load_base(
        self,
        generation: int,
        kind: str,
        inventory: dict[int, dict[str, Path]],
        scans: dict[int, "JournalScan"],
        report: RecoveryReport,
    ) -> "DKIndex | None":
        """Load a rung's starting state (and record the verdict)."""
        from repro.core.dindex import DKIndex
        from repro.indexes.serialize import index_from_dict

        # Loads skip check_invariants (validate=False): no rung may win
        # without passing the deep audit, which runs it regardless.
        if kind == "snapshot":
            path = inventory[generation].get("snapshot")
            name = snapshot_name(generation)
            if path is None:
                report.artifacts.append(ArtifactStatus(name, "missing"))
                return None
            try:
                index, requirements = index_from_dict(
                    read_document(path), validate=False
                )
                report.artifacts.append(ArtifactStatus(name, "ok"))
                return DKIndex(index.graph, index, requirements or {})
            except ReproError as error:
                report.artifacts.append(
                    ArtifactStatus(name, "corrupt", str(error))
                )
                return None
        # kind == "journal-base": only worth trying when the snapshot
        # did not load (they hold the same state by construction).  The
        # scan left the base unparsed; reading it here decodes it.
        scan = scans.get(generation)
        if scan is None:
            return None
        try:
            document = scan.base_document
            if document is None:
                return None
            index, requirements = index_from_dict(document, validate=False)
            return DKIndex(index.graph, index, requirements or {})
        except ReproError as error:
            report.issues.append(
                f"{journal_name(generation)}: base snapshot unusable: {error}"
            )
            return None

    def _rebuild_base(
        self,
        generation: int,
        inventory: dict[int, dict[str, Path]],
        scans: dict[int, "JournalScan"],
        report: RecoveryReport,
    ) -> "DKIndex | None":
        """Rung 3's starting state: rebuild the index from the data graph."""
        from repro.core.construction import build_dk_index
        from repro.core.dindex import DKIndex
        from repro.graph.serialize import graph_from_dict

        for source in ("snapshot", "journal"):
            path = inventory[generation].get(source)
            if path is None:
                continue
            try:
                if source == "snapshot":
                    document: dict[str, Any] | None = read_document(path)
                else:
                    scan = scans.get(generation)
                    document = scan.base_document if scan is not None else None
                if document is None:
                    continue
                embedded = document.get("graph")
                if not isinstance(embedded, dict):
                    continue
                graph = graph_from_dict(embedded)
                raw = document.get("requirements") or {}
                requirements = {
                    str(name): int(value) for name, value in dict(raw).items()
                }
                index, _levels = build_dk_index(graph, requirements)
                return DKIndex(graph, index, requirements)
            except ReproError as error:
                report.issues.append(
                    f"rebuild from generation {generation} {source} failed: {error}"
                )
        return None

    def _try_rung(
        self,
        rung: str,
        generation: int,
        dk: "DKIndex",
        newest_first: list[int],
        scans: dict[int, "JournalScan"],
        report: RecoveryReport,
    ) -> bool:
        """Replay the journal chain onto ``dk`` and deep-audit the result."""
        from repro.maintenance.audit import run_audit
        from repro.maintenance.journal import apply_journal_op

        # Crash here: the ladder stops between rungs; recovery is
        # read-only, so a re-run climbs again from the top.
        fault_point("recover.mid_ladder")
        replayed = 0
        try:
            for chain_generation in sorted(newest_first):
                if chain_generation < generation:
                    continue
                scan = scans.get(chain_generation)
                if scan is None:
                    continue
                for seq, op, args in scan.committed_ops:
                    apply_journal_op(
                        dk, op, args,
                        source=f"{journal_name(chain_generation)} seq {seq}",
                    )
                    replayed += 1
            outcome = run_audit(dk.index, "deep")
            succeeded, detail = outcome.ok, "; ".join(outcome.problems)
        except InjectedFaultError:
            raise  # a simulated crash mid-recovery propagates
        except ReproError as error:
            succeeded, detail = False, str(error)
        report.rungs.append(RungAttempt(rung, succeeded, detail))
        if succeeded:
            report.recovered = True
            report.strategy = rung
            report.generation = generation
            report.replayed = replayed
            report.dk = dk
            # Loss accounting for the winning chain: a corrupt *base*
            # line (line 1) is covered by the generation's snapshot,
            # but a destroyed operation record — or anything behind it
            # — is gone for good; the recovered state is then the
            # newest consistent point in time before the damage.
            report.data_loss = any(
                scan.lost_ops or any(number > 1 for number in scan.corrupt_lines)
                for chain_generation, scan in scans.items()
                if chain_generation >= generation
            )
        return succeeded
