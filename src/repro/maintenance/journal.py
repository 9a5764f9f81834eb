"""Write-ahead journaling for D(k)-index updates.

The :class:`UpdateJournal` is a line-oriented file with one record per
line.  Since format version 2, every line is framed with a CRC32 of its
payload so corruption *anywhere* in the file — not just a torn tail —
is detected and localized to a line number::

    9a2b3c4d {"type":"base","seq":0,"index":{...}}
    11f00e77 {"type":"op","seq":1,"op":"add_edge","args":{"src":2,"dst":9}}
    5d6e7f80 {"type":"op","seq":2,"op":"promote","args":{"requirements":null}}

Version-1 journals (bare JSON lines, no checksum) are still readable;
the two framings may even be mixed, which is what happens when a new
release appends to an old journal.  The records:

- ``{"type": "base", "seq": 0, "index": {...}}`` — a full snapshot of
  the starting :class:`~repro.core.dindex.DKIndex` (the
  ``repro-indexgraph`` document of :mod:`repro.indexes.serialize`,
  graph embedded), written once when the journal is attached — through
  the atomic writer of :mod:`repro.maintenance.store`, so a crash
  mid-base never leaves a half-written journal head.  Readers check its
  CRC but parse the snapshot only when asked for it.
- ``{"type": "op", "seq": n, "op": "add_edge", "args": {...}}`` — one
  committed operation.  :class:`~repro.maintenance.pipeline.UpdatePipeline`
  appends it with :meth:`UpdateJournal.commit` inside the operation's
  transaction, after the operation ran and before the call returns:
  one write and one ``fsync`` through a file handle the journal keeps
  open.  A record on disk is an operation that committed; a
  rolled-back operation writes nothing, and an append that fails rolls
  its operation back.

An append that fails cuts the file back to the end of the last complete
record before it re-raises, and a journal re-attached to an existing
file cuts the torn tail a crash left there, so no record ever lands
behind half of another.

Journals written before the one-record format hold a ``begin`` record
(operation and arguments) before each operation and a ``commit`` or
``abort`` record after it.  They are still read: a ``begin`` counts as
committed once a ``commit`` of its seq follows, and a ``begin`` without
one (aborted, or cut off by a crash) is skipped.  New records continue
such a journal's sequence numbers.

:meth:`UpdateJournal.replay` rebuilds an index by loading the base
snapshot and re-executing every committed operation in sequence order.
Replay goes through the same core update algorithms as live execution,
so the replayed index partitions the data identically to the journaled
one (asserted by the maintenance test suite).  :func:`scan_journal` is
the forgiving variant used by checkpoint recovery: instead of raising
on a corrupt line it reports the replayable prefix and where the damage
sits.  Both read lines through :func:`_read_lines` and pair records
through :func:`_committed`.

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
from io import FileIO
from pathlib import Path
from typing import IO, TYPE_CHECKING, Any, Iterable, Iterator, Mapping, NoReturn

from repro.exceptions import InjectedFaultError, JournalError
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


#: One committed operation as the readers hand it to replay.
JournalOp = tuple[int, str, dict[str, Any]]

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
    except (ValueError, RecursionError):
        # JSONDecodeError is a ValueError; so is an integer literal past
        # Python's digit limit.  Deep nesting overflows the decoder.
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
    # ``reason`` rides on the ``abort`` records of older journals.
    reason = record.get("reason", "")
    # ``type(seq) is int``: JSON true/false are bools, not sequence numbers.
    if not (
        type(seq) is int
        and isinstance(op, str)
        and isinstance(args, dict)
        and isinstance(reason, str)
    ):
        raise JournalError("journal entry has a field of the wrong type")
    return JournalEntry(type=kind, seq=seq, op=op, args=dict(args))


#: What :func:`_parse_line` makes of an intact line: its entry, plus the
#: base snapshot (unparsed text or decoded document) on the base line.
_Parsed = tuple[JournalEntry, str | dict[str, Any] | None]


def _parse_line(line: str) -> _Parsed | None:
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


def _read_lines(handle: IO[bytes]) -> Iterator[tuple[int, int, bool, _Parsed | str]]:
    """``(number, end, terminated, parsed)`` for each non-blank line.

    ``end`` is the byte offset just past the line and ``terminated``
    whether it ends in a newline.  ``parsed`` is :func:`_parse_line`'s
    result, or the problem as text for a line that fails its checksum,
    does not parse or holds a mistyped entry.  The one line reader of
    :meth:`UpdateJournal.entries`, :func:`scan_journal` and the writer.
    """
    end = 0
    for number, raw in enumerate(handle, start=1):
        end += len(raw)
        # errors="replace": an undecodable byte must surface as a
        # checksum failure on its line, not an untyped UnicodeDecodeError.
        line = raw.decode("utf-8", errors="replace")
        if not line.strip():
            continue
        parsed: _Parsed | str | None
        try:
            parsed = _parse_line(line)
        except JournalError as error:
            parsed = str(error)
        if parsed is None:
            parsed = "malformed or checksum-failing journal line"
        yield number, end, raw.endswith(b"\n"), parsed


def _committed(entries: Iterable[JournalEntry]) -> tuple[list[JournalOp], list[int]]:
    """The committed operations among ``entries`` in seq order, and the
    committed seqs that cannot be replayed.

    An ``op`` record commits itself.  In the older two-record
    vocabulary a ``begin`` carries the operation and a ``commit`` of its
    seq commits it; a ``begin`` without one is skipped.  Both writers
    number operation records 1, 2, 3, … in file order, so a record
    whose seq skips ahead follows a lost one (say, swallowed into a
    corrupt base line).  A committed seq whose operation record is lost
    or follows such a gap ends the replayable history: its successors
    would be applied to a state that lacks it, so they are unreplayable
    too.
    """
    operations: dict[int, tuple[str, dict[str, Any]]] = {}
    committed: set[int] = set()
    contiguous = True
    for entry in entries:
        if entry.type in ("op", "begin") and contiguous:
            contiguous = entry.seq == len(operations) + 1
            if contiguous:
                operations[entry.seq] = (entry.op, entry.args)
        if entry.type in ("op", "commit"):
            committed.add(entry.seq)
    replayable: list[JournalOp] = []
    order = sorted(committed)
    for position, seq in enumerate(order):
        if seq not in operations:
            return replayable, order[position:]
        op, args = operations[seq]
        replayable.append((seq, op, args))
    return replayable, []


def _write_all(handle: FileIO, data: bytes) -> None:
    """Write all of ``data`` through an unbuffered handle, which may
    take fewer bytes per call than it is given."""
    view = memoryview(data)
    while view:
        view = view[handle.write(view):]


class UpdateJournal:
    """Append-only write-ahead journal for one D(k)-index.

    Attach with :meth:`open` (writes the base snapshot when the file is
    new); or construct directly over an existing journal file for
    read-only use (:meth:`entries`, :meth:`replay`).  The first
    :meth:`commit` opens a file handle that later ones reuse; release
    it with :meth:`close`.
    """

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)
        self._handle: FileIO | None = None
        self._next_seq = 1
        # Byte offset just past the last complete record: where a failed
        # append cuts the file back to.
        self._end = 0

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

    def commit(self, op: str, args: Mapping[str, Any]) -> int:
        """Append committed operation ``op`` durably; returns its seq.

        The record is written and ``fsync``\\ ed before this returns.

        Raises:
            JournalError: for an unknown operation name, or when a
                complete line of the file fails its checks (nothing is
                appended behind damage; recover the store instead).
            OSError: when the append fails; the file has been cut back
                to the end of the last complete record.
        """
        if op not in JOURNALED_OPS:
            raise JournalError(f"unknown journal op {op!r}; use one of {JOURNALED_OPS}")
        handle = self._handle if self._handle is not None else self._attach()
        seq = self._next_seq
        record = {"type": "op", "seq": seq, "op": op, "args": dict(args)}
        line = _encode_line(record).encode("utf-8")
        half = len(line) // 2
        try:
            _write_all(handle, line[:half])
            # Crash here: a torn tail — the one thing a crashed append
            # may legitimately leave behind; readers stop before it.
            fault_point("journal.torn_append")
            _write_all(handle, line[half:])
            os.fsync(handle.fileno())
            # Bit-rot in the record just made durable.
            fault_point("journal.bit_flip", path=self.path, start=self._end)
        except InjectedFaultError:
            # A simulated crash leaves the torn tail, as a real one
            # would; the next append re-reads the file and cuts it.
            self.close()
            raise
        except BaseException:
            self._cut_back()
            raise
        self._end += len(line)
        self._next_seq = seq + 1
        return seq

    def begin(self, *args: object, **kwargs: object) -> NoReturn:
        """Gone: an operation is journaled by one :meth:`commit` record.

        Kept, with :meth:`abort`, only because ``perfbench/tracing.py``
        wraps all three names; it deletes with the next benchmark change.

        Raises:
            JournalError: always.
        """
        raise JournalError(
            "UpdateJournal.begin is gone; journal a committed operation "
            "with commit(op, args)"
        )

    def abort(self, *args: object, **kwargs: object) -> NoReturn:
        """Gone: a rolled-back operation writes no record (see :meth:`begin`).

        Raises:
            JournalError: always.
        """
        raise JournalError(
            "UpdateJournal.abort is gone; a rolled-back operation is not journaled"
        )

    def close(self) -> None:
        """Close the kept file handle; a later :meth:`commit` reopens it."""
        handle, self._handle = self._handle, None
        if handle is not None:
            handle.close()

    def _attach(self) -> FileIO:
        """Open the kept handle behind the file's last complete record.

        Reads the file for the next seq and the end of its last intact
        line, and cuts anything behind that: the torn tail of a crashed
        append.  A final record that lost only its newline is kept and
        terminated.
        """
        scan = scan_journal(self.path)
        if scan.damaged:
            raise JournalError(
                f"{self.path}: will not append behind corrupt line(s) "
                f"{scan.corrupt_lines}; recover the store instead"
            )
        handle = open(self.path, "ab", buffering=0)
        try:
            os.ftruncate(handle.fileno(), scan.end)
            if not scan.terminated:
                _write_all(handle, b"\n")
        except BaseException:
            handle.close()
            raise
        self._handle = handle
        self._next_seq = scan.next_seq
        self._end = scan.end + (0 if scan.terminated else 1)
        return handle

    def _cut_back(self) -> None:
        """After a failed append: cut the file back to the last complete
        record, durably.  If even that fails, drop the handle, so that
        the next append re-reads the file."""
        handle = self._handle
        if handle is None:
            return
        try:
            os.ftruncate(handle.fileno(), self._end)
            os.fsync(handle.fileno())
        except OSError:
            self.close()

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
        with open(self.path, "rb") as handle:
            for number, _end, terminated, parsed in _read_lines(handle):
                if isinstance(parsed, str):
                    if not terminated:
                        return  # torn final write from a crash
                    raise JournalError(
                        f"{self.path}:{number}: {parsed} "
                        f"(replayable prefix: {yielded} entries)"
                    )
                yielded += 1
                yield parsed[0]

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

        entries = list(self.entries())
        bases = sum(entry.type == "base" for entry in entries)
        if bases > 1:
            raise JournalError(f"{self.path}: duplicate base snapshot")
        if not bases:
            raise JournalError(f"{self.path}: journal has no base snapshot")
        operations, lost = _committed(entries)
        if lost:
            raise JournalError(
                f"{self.path}: committed seq {lost[0]} has no operation record "
                "in sequence"
            )

        index, requirements = index_from_dict(self.base_document())
        dk = DKIndex(index.graph, index, requirements or {})
        for seq, op, args in operations:
            apply_journal_op(dk, op, args, source=f"{self.path} seq {seq}")
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
        committed_ops: ``(seq, op, args)`` for every committed operation
            (see :func:`_committed`), in seq order, truncated at the
            first committed seq whose operation record was destroyed —
            replay must stop at the last consistent point rather than
            skip a committed operation and apply its successors to the
            wrong state.
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
            operation record was destroyed, or they follow one that
            was) — definite data loss, to be surfaced by recovery.
        notes: human-readable anomaly descriptions, localized by line.
        next_seq: one past the highest seq read.
        end: byte offset just past the last intact line read — where
            the writer puts its next record.
        terminated: whether that line ends in a newline.
    """

    path: Path
    committed_ops: list[JournalOp] = field(default_factory=list)
    corrupt_lines: list[int] = field(default_factory=list)
    lost_ops: list[int] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)
    next_seq: int = 1
    end: int = 0
    terminated: bool = True
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
    entries: list[JournalEntry] = []
    try:
        handle = open(scan.path, "rb")
    except OSError as error:
        scan.notes.append(f"{scan.path}: cannot read: {error}")
        return scan
    with handle:
        for number, end, terminated, parsed in _read_lines(handle):
            if isinstance(parsed, str):
                if not terminated:
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
            scan.end, scan.terminated = end, terminated
            scan.next_seq = max(scan.next_seq, entry.seq + 1)
            if entry.type != "base":
                entries.append(entry)
            elif base is not None and scan._base is None:
                scan._base = base
    scan.committed_ops, scan.lost_ops = _committed(entries)
    if scan.lost_ops:
        scan.notes.append(
            f"{scan.path}: committed seq {scan.lost_ops[0]} has no operation "
            "record in sequence; replay stops at the last consistent point "
            "before it"
        )
    return scan
