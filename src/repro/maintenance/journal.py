"""Write-ahead journaling for D(k)-index updates.

The :class:`UpdateJournal` is a line-oriented file with one entry per
line.  Since format version 2, every line is framed with a CRC32 of its
payload so corruption *anywhere* in the file — not just a torn tail —
is detected and localized to a line number::

    9a2b3c4d {"type":"base","seq":0,"index":{...}}
    11f00e77 {"type":"begin","seq":1,"op":"add_edge","args":{...}}
    5d6e7f80 {"type":"commit","seq":1}

Version-1 journals (bare JSON lines, no checksum) are still readable;
the two framings may even be mixed, which is what happens when a new
release appends to an old journal.  The entry vocabulary is unchanged:

- ``{"type": "base", "seq": 0, "index": {...}}`` — a full snapshot of
  the starting :class:`~repro.core.dindex.DKIndex` (the
  ``repro-indexgraph`` document of :mod:`repro.indexes.serialize`,
  graph embedded), written once when the journal is attached — through
  the atomic writer of :mod:`repro.maintenance.store`, so a crash
  mid-base never leaves a half-written journal head.  Readers check its
  CRC but parse the snapshot only when asked for it.
- ``{"type": "begin", "seq": n, "op": "add_edge", "args": {...}}`` —
  appended and flushed *before* the operation touches anything, so a
  crash mid-operation leaves a dangling ``begin`` rather than silence.
- ``{"type": "commit", "seq": n}`` / ``{"type": "abort", "seq": n,
  "reason": "..."}`` — the operation's fate.

:meth:`UpdateJournal.replay` rebuilds an index by loading the base
snapshot and re-executing every *committed* operation in sequence order
— dangling and aborted entries are skipped.  Replay goes through the
same core update algorithms as live execution, so the replayed index
partitions the data identically to the journaled one (asserted by the
maintenance test suite).  :func:`scan_journal` is the forgiving
variant used by checkpoint recovery: instead of raising on a corrupt
line it reports the replayable prefix and where the damage sits.

Journaled operation names and their argument schemas:

==============  ====================================================
``add_edge``    ``{"src": int, "dst": int}``
``add_edges``   ``{"edges": [[int, int], ...]}``
``remove_edge``  ``{"src": int, "dst": int}``
``add_subgraph``  ``{"subgraph": <repro-datagraph doc>, "requirements": {...}}``
``promote``     ``{"requirements": {...} | null}``
``demote``      ``{"requirements": {...}}``
==============  ====================================================
"""

from __future__ import annotations

import json
import os
import zlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Any, Iterator, Mapping

from repro.exceptions import JournalError
from repro.maintenance.faults import fault_point

if TYPE_CHECKING:  # runtime import stays lazy: the facade imports the
    from repro.core.dindex import DKIndex  # update code, which imports us

#: Operations the journal knows how to record and replay.
JOURNALED_OPS = (
    "add_edge",
    "add_edges",
    "remove_edge",
    "add_subgraph",
    "promote",
    "demote",
)

#: Journal line-framing version written by this release.
JOURNAL_VERSION = 2


@dataclass
class JournalEntry:
    """One parsed journal line."""

    type: str
    seq: int
    op: str = ""
    args: dict[str, Any] = field(default_factory=dict)
    reason: str = ""


#: Payload head of a version-2 base record as :func:`_encode_line`
#: writes it (compact separators, keys in this order).  A CRC-valid
#: line whose payload starts with it and an object is taken as the base
#: without parsing the snapshot; see :attr:`JournalScan.base_document`.
_BASE_HEAD = '{"type":"base","seq":0,"index":'


def _frame(payload: str) -> str:
    """One version-2 journal line: CRC32 frame around ``payload``."""
    crc = zlib.crc32(payload.encode("utf-8")) & 0xFFFFFFFF
    return f"{crc:08x} {payload}\n"


def _encode_line(record: dict[str, Any]) -> str:
    """One version-2 journal line: CRC32 frame + compact JSON payload."""
    return _frame(json.dumps(record, separators=(",", ":")))


def encode_index_document(dk: "DKIndex") -> str:
    """``dk``'s ``repro-indexgraph`` document (graph embedded) as
    compact JSON: the one encoding a checkpoint's snapshot body and its
    journal base share."""
    from repro.indexes.serialize import index_to_dict

    document = index_to_dict(
        dk.index, embed_graph=True, requirements=dict(dk.requirements)
    )
    return json.dumps(document, separators=(",", ":"))


def encode_base_line(index_json: str) -> str:
    """The base line around an index document already encoded by
    :func:`encode_index_document` — byte-identical to
    ``_encode_line({"type": "base", "seq": 0, "index": document})``."""
    return _frame(_BASE_HEAD + index_json + "}")


def _payload(stripped: str) -> str | None:
    """The JSON payload of a journal line of either framing version;
    ``None`` when a version-2 frame fails its CRC."""
    if stripped.startswith("{"):  # version-1 framing: bare JSON, no CRC
        return stripped
    prefix, _, payload = stripped.partition(" ")
    if len(prefix) != 8 or not payload:
        return None
    try:
        stored = int(prefix, 16)
    except ValueError:
        return None
    if zlib.crc32(payload.encode("utf-8")) & 0xFFFFFFFF != stored:
        return None
    return payload


def _decode_line(line: str) -> dict[str, Any] | None:
    """Parse one journal line of either framing version.

    Returns ``None`` for an undecodable line — the caller decides
    whether that is a tolerable torn tail or hard corruption.
    """
    payload = _payload(line.strip())
    return None if payload is None else _json_object(payload)


def _json_object(payload: str) -> dict[str, Any] | None:
    """``payload`` parsed, or ``None`` unless it is one JSON object."""
    try:
        record = json.loads(payload)
    except json.JSONDecodeError:
        return None
    return record if isinstance(record, dict) else None


def _entry_from_record(record: dict[str, Any]) -> JournalEntry:
    """The entry a decoded journal record describes.

    Raises:
        JournalError: when the record is not an entry object or one of
            its fields has the wrong type.
    """
    kind = record.get("type")
    if not isinstance(kind, str):
        raise JournalError("journal line is not an entry object")
    seq = record.get("seq", -1)
    op = record.get("op", "")
    args = record.get("args", {})
    reason = record.get("reason", "")
    # ``type(seq) is int``: JSON true/false are bools, not sequence numbers.
    if not (
        type(seq) is int
        and isinstance(op, str)
        and isinstance(args, dict)
        and isinstance(reason, str)
    ):
        raise JournalError("journal entry has a field of the wrong type")
    return JournalEntry(type=kind, seq=seq, op=op, args=dict(args), reason=reason)


def _parse_line(
    line: str,
) -> tuple[JournalEntry, str | dict[str, Any] | None] | None:
    """One line's entry, plus the snapshot when it is the base.

    A version-2 base line is recognised by its frame and payload head:
    its CRC is checked over the whole payload, but the payload is
    returned as text, to be parsed only if a reader asks for the
    snapshot.  Other base lines return their decoded ``index`` document.

    Returns ``None`` for a line that fails its checksum or does not
    parse; the caller decides whether that is a torn tail or corruption.

    Raises:
        JournalError: for a line that parses but is not a well-typed
            entry object.
    """
    stripped = line.strip()
    payload = _payload(stripped)
    if payload is None:
        return None
    # Only a CRC frame vouches for a payload it does not parse; a
    # version-1 base line is decoded as before.
    if not stripped.startswith("{") and payload.startswith(_BASE_HEAD + "{"):
        return JournalEntry(type="base", seq=0), payload
    record = _json_object(payload)
    if record is None:
        return None
    entry = _entry_from_record(record)
    base = record.get("index") if entry.type == "base" else None
    return entry, base if isinstance(base, dict) else None


class UpdateJournal:
    """Append-only write-ahead journal for one D(k)-index.

    Attach with :meth:`open` (writes the base snapshot when the file is
    new); or construct directly over an existing journal file for
    read-only use (:meth:`entries`, :meth:`replay`).
    """

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)
        self._next_seq = 1
        self._open_seqs: set[int] = set()
        if self.path.exists():
            for entry in self.entries():
                if entry.seq >= self._next_seq:
                    self._next_seq = entry.seq + 1
                if entry.type == "begin":
                    self._open_seqs.add(entry.seq)
                elif entry.type in ("commit", "abort"):
                    self._open_seqs.discard(entry.seq)

    # ------------------------------------------------------------------
    # Writing
    # ------------------------------------------------------------------

    @classmethod
    def open(cls, path: str | Path, dk: "DKIndex") -> "UpdateJournal":
        """Attach a journal to ``dk``, snapshotting it if the file is new."""
        journal = cls(path)
        if not journal.path.exists() or journal.path.stat().st_size == 0:
            journal.write_base(dk)
        return journal

    def write_base(self, dk: "DKIndex") -> None:
        """Write the base snapshot (seq 0).  Must be the first entry.

        The base is the journal's single point of total loss, so unlike
        ordinary appends it goes through the atomic writer: a crash
        mid-base leaves no journal file rather than a torn head.
        """
        from repro.maintenance.store import atomic_write_text

        if self.path.exists() and self.path.stat().st_size > 0:
            raise JournalError(f"{self.path} already has entries; cannot re-base")
        atomic_write_text(self.path, encode_base_line(encode_index_document(dk)))

    def begin(self, op: str, args: Mapping[str, Any]) -> int:
        """Record intent to run ``op``; returns the sequence number.

        Raises:
            JournalError: for an unknown operation name.
        """
        if op not in JOURNALED_OPS:
            raise JournalError(f"unknown journal op {op!r}; use one of {JOURNALED_OPS}")
        seq = self._next_seq
        self._next_seq += 1
        self._append({"type": "begin", "seq": seq, "op": op, "args": dict(args)})
        self._open_seqs.add(seq)
        return seq

    def commit(self, seq: int) -> None:
        """Mark operation ``seq`` committed."""
        self._close(seq, {"type": "commit", "seq": seq})

    def abort(self, seq: int, reason: str = "") -> None:
        """Mark operation ``seq`` aborted (rolled back)."""
        self._close(seq, {"type": "abort", "seq": seq, "reason": reason})

    def _close(self, seq: int, record: dict[str, Any]) -> None:
        if seq not in self._open_seqs:
            raise JournalError(f"seq {seq} is not an open operation")
        self._append(record)
        self._open_seqs.discard(seq)

    def _append(self, record: dict[str, Any]) -> None:
        line = _encode_line(record)
        half = len(line) // 2
        with open(self.path, "a", encoding="utf-8") as handle:
            handle.write(line[:half])
            handle.flush()
            # Crash here: a torn tail — the one thing a crashed append
            # may legitimately leave behind; readers stop before it.
            fault_point("journal.torn_append")
            handle.write(line[half:])
            handle.flush()
            os.fsync(handle.fileno())
        # Bit-rot somewhere in the (now durable) journal.
        fault_point("journal.bit_flip", path=self.path)

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------

    def entries(self) -> Iterator[JournalEntry]:
        """Parse the journal, line by line.

        The base line's snapshot is checksummed but not parsed; read it
        with :meth:`base_document`.

        Raises:
            JournalError: on a malformed, checksum-failing or mistyped
                line, with the path, line number and the length of the
                replayable prefix before it (truncated trailing lines —
                the one thing a crash can legitimately leave behind —
                are tolerated and end the iteration instead).
        """
        yielded = 0
        # errors="replace": an undecodable byte must surface as a
        # checksum failure on its line, not an untyped UnicodeDecodeError.
        with open(self.path, "r", encoding="utf-8", errors="replace") as handle:
            for number, line in enumerate(handle, start=1):
                if not line.strip():
                    continue
                problem = "malformed or checksum-failing journal line"
                try:
                    parsed = _parse_line(line)
                except JournalError as error:
                    parsed, problem = None, str(error)
                if parsed is None:
                    if not line.endswith("\n"):
                        return  # torn final write from a crash
                    raise JournalError(
                        f"{self.path}:{number}: {problem} "
                        f"(replayable prefix: {yielded} entries)"
                    )
                yielded += 1
                yield parsed[0]

    def dangling(self) -> list[int]:
        """Sequence numbers with a ``begin`` but no ``commit``/``abort``."""
        return sorted(self._open_seqs)

    # ------------------------------------------------------------------
    # Replay
    # ------------------------------------------------------------------

    def replay(self) -> "DKIndex":
        """Rebuild an index: base snapshot + committed operations, in order.

        Returns:
            A fresh :class:`~repro.core.dindex.DKIndex` over a fresh data
            graph; the journaled store is never touched.

        Raises:
            JournalError: when the journal has no base snapshot, a line
                is corrupt, or a committed operation cannot be
                re-executed.
        """
        from repro.core.dindex import DKIndex
        from repro.indexes.serialize import index_from_dict

        saw_base = False
        begins: dict[int, JournalEntry] = {}
        committed: list[int] = []
        for entry in self.entries():
            if entry.type == "base":
                if saw_base:
                    raise JournalError(f"{self.path}: duplicate base snapshot")
                saw_base = True
            elif entry.type == "begin":
                begins[entry.seq] = entry
            elif entry.type == "commit":
                committed.append(entry.seq)
        if not saw_base:
            raise JournalError(f"{self.path}: journal has no base snapshot")

        index, requirements = index_from_dict(self.base_document())
        dk = DKIndex(index.graph, index, requirements or {})

        for seq in sorted(committed):
            entry = begins.get(seq)
            if entry is None:
                raise JournalError(f"{self.path}: commit for unknown seq {seq}")
            apply_journal_op(
                dk, entry.op, entry.args, source=f"{self.path} seq {seq}"
            )
        return dk

    def base_document(self) -> dict[str, Any]:
        """The raw base-snapshot document (first line, ``index`` field).

        Raises:
            JournalError: when the first line is missing, corrupt, or
                not a base entry.
        """
        with open(self.path, "r", encoding="utf-8", errors="replace") as handle:
            first = handle.readline()
        record = _decode_line(first) if first.strip() else None
        if record is None:
            raise JournalError(
                f"{self.path}:1: base snapshot line is missing or corrupt "
                "(replayable prefix: 0 entries)"
            )
        raw = record.get("index")
        if record.get("type") != "base" or not isinstance(raw, dict):
            raise JournalError(f"{self.path}: base snapshot is malformed")
        return raw


def apply_journal_op(
    dk: "DKIndex", op: str, args: Mapping[str, Any], source: str = "<journal>"
) -> None:
    """Re-execute one journaled operation on ``dk`` through the core
    update algorithms (the shared engine of replay and recovery).

    Raises:
        JournalError: for an unknown operation or unreplayable arguments.
    """
    from repro.core.promote import demote_index, promote_requirements
    from repro.core.requirements import merge_requirements
    from repro.core.updates import (
        dk_add_edge,
        dk_add_edges,
        dk_add_subgraph,
        dk_remove_edge,
    )
    from repro.graph.serialize import graph_from_dict

    try:
        if op == "add_edge":
            dk_add_edge(dk.graph, dk.index, int(args["src"]), int(args["dst"]))
        elif op == "add_edges":
            edges = [(int(s), int(d)) for s, d in args["edges"]]
            dk_add_edges(dk.graph, dk.index, edges)
        elif op == "remove_edge":
            dk_remove_edge(dk.graph, dk.index, int(args["src"]), int(args["dst"]))
        elif op == "add_subgraph":
            subgraph = graph_from_dict(args["subgraph"])
            reqs = {
                str(name): int(value)
                for name, value in dict(args["requirements"]).items()
            }
            dk.index, _mapping = dk_add_subgraph(dk.graph, dk.index, subgraph, reqs)
            dk.requirements = reqs
        elif op == "promote":
            incoming = args.get("requirements")
            if incoming is not None:
                dk.requirements = merge_requirements(
                    dk.requirements,
                    {str(n): int(v) for n, v in dict(incoming).items()},
                )
            promote_requirements(dk.graph, dk.index, dk.requirements)
        elif op == "demote":
            reqs = {
                str(name): int(value)
                for name, value in dict(args["requirements"]).items()
            }
            dk.index = demote_index(dk.index, reqs)
            dk.requirements = reqs
        else:
            raise JournalError(f"{source}: unknown op {op!r}")
    except JournalError:
        raise
    except (KeyError, TypeError, ValueError) as error:
        raise JournalError(f"{source}: {op} is not replayable: {error}") from error


@dataclass
class JournalScan:
    """A forgiving read of a (possibly damaged) journal.

    Attributes:
        path: the scanned file.
        committed_ops: ``(seq, op, args)`` for every operation whose
            ``begin`` *and* ``commit`` both survived, in seq order,
            truncated at the first committed seq whose ``begin`` was
            destroyed — replay must stop at the last consistent point
            rather than skip a committed operation and apply its
            successors to the wrong state.
        dangling: ``begin`` seqs with no verdict (crash mid-operation).
        corrupt_lines: line numbers that failed their checksum, did
            not parse, or held an entry with a field of the wrong
            type.  Line framing resyncs at the next newline, so a
            corrupt *base* line (line 1 — redundant with the
            generation's snapshot) does not stop the scan; a corrupt
            line in the operation region does, because record order
            beyond it can no longer be trusted.  A torn final line is
            *not* corruption; that is the normal signature of a
            crashed append.
        lost_ops: committed seqs that cannot be replayed (their
            ``begin`` record was destroyed, or they follow one that
            was) — definite data loss, to be surfaced by recovery.
        notes: human-readable anomaly descriptions, localized by line.
    """

    path: Path
    committed_ops: list[tuple[int, str, dict[str, Any]]] = field(
        default_factory=list
    )
    dangling: list[int] = field(default_factory=list)
    corrupt_lines: list[int] = field(default_factory=list)
    lost_ops: list[int] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)
    # The base line's payload text until base_document parses it.
    _base: str | dict[str, Any] | None = field(
        default=None, init=False, repr=False
    )

    @property
    def damaged(self) -> bool:
        """Whether any complete line failed its integrity check."""
        return bool(self.corrupt_lines)

    @property
    def base_document(self) -> dict[str, Any] | None:
        """The base snapshot's ``index`` document, or ``None`` when the
        base line is missing or corrupt.

        The scan checked the base line's CRC but left the snapshot
        unparsed (it is a second copy of the generation's snapshot, and
        only the journal-base and rebuild rungs read it); it is decoded
        here, on first access.

        Raises:
            JournalError: when a CRC-valid base payload does not decode
                to a base entry — it cannot come from this module's
                writer; recovery reports it as an unusable base.
        """
        if isinstance(self._base, str):
            record = _json_object(self._base)
            index = record.get("index") if record is not None else None
            if not isinstance(index, dict):
                raise JournalError(f"{self.path}: base snapshot does not decode")
            self._base = index
        return self._base


def scan_journal(path: str | Path) -> JournalScan:
    """Read as much of a journal as integrity checks allow.

    Unlike :meth:`UpdateJournal.entries` this never raises on damage:
    recovery needs the replayable prefix *and* an honest account of
    what was lost, not an exception.
    """
    scan = JournalScan(path=Path(path))
    begins: dict[int, tuple[str, dict[str, Any]]] = {}
    committed: list[int] = []
    aborted: set[int] = set()
    try:
        handle = open(scan.path, "r", encoding="utf-8", errors="replace")
    except OSError as error:
        scan.notes.append(f"{scan.path}: cannot read: {error}")
        return scan
    with handle:
        for number, line in enumerate(handle, start=1):
            if not line.strip():
                continue
            try:
                parsed = _parse_line(line)
            except JournalError:  # a mistyped entry counts as corrupt
                parsed = None
            if parsed is None:
                if not line.endswith("\n"):
                    scan.notes.append(
                        f"{scan.path}:{number}: torn final line "
                        "(crashed append; entry never committed)"
                    )
                    break
                scan.corrupt_lines.append(number)
                if number == 1:
                    # The base line is redundant with the generation's
                    # snapshot, and line framing resyncs at the next
                    # newline: keep reading the operation records.
                    scan.notes.append(
                        f"{scan.path}:1: corrupt base line; reading the "
                        "operation records behind it"
                    )
                    continue
                scan.notes.append(
                    f"{scan.path}:{number}: corrupt journal line; entries "
                    "beyond it are unrecoverable from this file"
                )
                break
            entry, base = parsed
            if entry.type == "base":
                if base is not None and scan._base is None:
                    scan._base = base
            elif entry.type == "begin":
                begins[entry.seq] = (entry.op, entry.args)
            elif entry.type == "commit":
                committed.append(entry.seq)
            elif entry.type == "abort":
                aborted.add(entry.seq)
    for seq in sorted(committed):
        if seq not in begins:
            scan.notes.append(
                f"{scan.path}: commit for seq {seq} has no surviving begin; "
                "replay stops at the last consistent point before it"
            )
            break
        op, args = begins.pop(seq)
        scan.committed_ops.append((seq, op, args))
    replayable = {seq for seq, _op, _args in scan.committed_ops}
    committed_seqs = set(committed)
    scan.lost_ops = sorted(committed_seqs - replayable)
    scan.dangling = sorted(
        seq
        for seq in begins
        if seq not in aborted and seq not in committed_seqs
    )
    return scan
