"""External merge-sort of positioned payloads for out-of-core rounds.

The external refinement engine (:mod:`repro.partition.external`) hashes
nodes in *node order* (so page reads stay sequential) but must hand the
resulting signature keys back in *batch order* (so the inherited
columnar round logic sees exactly the sequence it would have produced
in memory).  :class:`SpillRuns` is the reorder buffer that makes the
transposition safe at any scale: ``(position, payload)`` records
accumulate in memory until a byte budget is hit, then the sorted batch
is appended to a run file on disk; :meth:`SpillRuns.merged` streams the
union of every run and the in-memory tail back in ascending position
order via a k-way merge.

Run files are append-only framed records (``>QII`` header: position,
payload length, CRC-32 over the packed position/length plus the
payload), never rewritten — crash debris is a temp directory the OS
reclaims, so the atomic-writer discipline of
:mod:`repro.maintenance.store` is deliberately not involved.  The CRC
matters even for scratch data: a silent bit-flip in a run would come
back as a *different signature key* and change the partition without
any error, so every frame is verified as it streams back.
"""

from __future__ import annotations

import heapq
import os
import struct
import tempfile
import zlib
from collections.abc import Iterator
from pathlib import Path
from types import TracebackType

from repro.exceptions import InjectedFaultError, PagedStoreError
from repro.maintenance.faults import fault_point
from repro.storage.paged import PoolStats, _env_int
from repro.storage.retry import RetryPolicy, io_retry, resolve_retry_policy

#: Packed (position, length) prefix the frame CRC is seeded with.
_HEAD = struct.Struct(">QI")

#: Frame header: 64-bit record position, 32-bit payload byte length,
#: 32-bit CRC over the packed position/length and the payload.
_FRAME = struct.Struct(">QII")

#: Bytes a record costs the budget on top of its payload.
FRAME_BYTES = _FRAME.size

#: Default in-memory working-set budget before a run is spilled.
DEFAULT_SPILL_BUDGET = 4 * 1024 * 1024

#: Environment override for the spill budget, sibling knob to
#: ``DKINDEX_POOL_BUDGET`` (the chaos suite shrinks it to force runs).
SPILL_BUDGET_ENV_VAR = "DKINDEX_SPILL_BUDGET"


def resolve_spill_budget(budget_bytes: int | None = None) -> int:
    """Pick the spill budget: argument, ``DKINDEX_SPILL_BUDGET``, default.

    Raises:
        PagedStoreError: for a negative budget.
    """
    if budget_bytes is None:
        budget_bytes = _env_int(SPILL_BUDGET_ENV_VAR, "spill budget")
    if budget_bytes is None:
        budget_bytes = DEFAULT_SPILL_BUDGET
    if budget_bytes < 0:
        raise PagedStoreError(f"spill budget must be >= 0: {budget_bytes}")
    return budget_bytes


def _frame_crc(position: int, length: int, payload: bytes) -> int:
    return zlib.crc32(payload, zlib.crc32(_HEAD.pack(position, length)))


def _read_run(path: Path) -> Iterator[tuple[int, bytes]]:
    """Stream the framed ``(position, payload)`` records of one run file."""
    with open(path, "rb") as handle:
        while True:
            header = handle.read(_FRAME.size)
            if not header:
                return
            if len(header) != _FRAME.size:
                raise PagedStoreError(f"truncated spill frame in {path.name}")
            position, length, crc = _FRAME.unpack(header)
            payload = handle.read(length)
            if len(payload) != length:
                raise PagedStoreError(f"truncated spill payload in {path.name}")
            if _frame_crc(position, length, payload) != crc:
                raise PagedStoreError(
                    f"spill frame CRC mismatch in {path.name} "
                    f"(position {position})"
                )
            yield position, payload


class SpillRuns:
    """Accumulate ``(position, payload)`` records; spill and merge-sort.

    Positions must be unique non-negative integers (batch indices are).
    The temp directory is created lazily on first spill, so a working
    set under budget never touches the filesystem.

    Usage::

        with SpillRuns(budget_bytes=1 << 20) as runs:
            for position, key in produced_out_of_order:
                runs.add(position, key)
            for position, key in runs.merged():
                ...  # ascending position order
    """

    def __init__(
        self,
        budget_bytes: int | None = None,
        directory: str | Path | None = None,
        stats: PoolStats | None = None,
        retry: RetryPolicy | None = None,
    ) -> None:
        self.budget_bytes = resolve_spill_budget(budget_bytes)
        self._directory = Path(directory) if directory is not None else None
        self._stats = stats
        self._retry = retry if retry is not None else resolve_retry_policy()
        self._tempdir: tempfile.TemporaryDirectory[str] | None = None
        self._pending: list[tuple[int, bytes]] = []
        self._pending_bytes = 0
        self._run_paths: list[Path] = []
        self._count = 0
        self._spilled_bytes = 0
        self._closed = False

    def __len__(self) -> int:
        return self._count

    @property
    def runs_spilled(self) -> int:
        """Number of sorted runs written to disk so far."""
        return len(self._run_paths)

    @property
    def spilled_bytes(self) -> int:
        """Total payload bytes moved out of memory into run files."""
        return self._spilled_bytes

    def add(self, position: int, payload: bytes) -> None:
        """Record ``payload`` at ``position``; spill if over budget."""
        if self._closed:
            raise PagedStoreError("SpillRuns is closed")
        if position < 0:
            raise PagedStoreError(f"spill position must be >= 0: {position}")
        self._pending.append((position, payload))
        self._pending_bytes += len(payload) + FRAME_BYTES
        self._count += 1
        if self._pending_bytes > self.budget_bytes:
            self._spill()

    def _run_directory(self) -> Path:
        if self._directory is not None:
            return self._directory
        if self._tempdir is None:
            self._tempdir = tempfile.TemporaryDirectory(prefix="dkindex-spill-")
        return Path(self._tempdir.name)

    def _spill(self) -> None:
        """Sort the pending batch and append it to a fresh run file."""
        if not self._pending:
            return
        self._pending.sort(key=lambda record: record[0])
        path = self._run_directory() / f"run-{len(self._run_paths):07d}.bin"

        def write_run() -> None:
            # Start clean on every attempt: a retry after a torn or
            # failed write must not leave duplicate frames behind.
            path.unlink(missing_ok=True)
            # Append-only framing: runs are write-once scratch, re-read
            # only by the merge below, discarded with the temp dir.
            with open(path, "ab") as handle:
                for position, payload in self._pending:
                    handle.write(
                        _FRAME.pack(
                            position,
                            len(payload),
                            _frame_crc(position, len(payload), payload),
                        )
                    )
                    handle.write(payload)
            try:
                fault_point("storage.spill_torn_run", path=path)
            except InjectedFaultError:
                os.truncate(path, path.stat().st_size // 2)
                raise

        io_retry(
            write_run,
            what=f"append spill run {path.name}",
            policy=self._retry,
            stats=self._stats,
        )
        self._run_paths.append(path)
        self._spilled_bytes += self._pending_bytes
        self._pending = []
        self._pending_bytes = 0

    def merged(self) -> Iterator[tuple[int, bytes]]:
        """Stream every record in ascending position order.

        The in-memory tail is sorted once and merged against the runs
        with :func:`heapq.merge`, so peak memory stays one record per
        open run plus the tail.
        """
        if self._closed:
            raise PagedStoreError("SpillRuns is closed")
        self._pending.sort(key=lambda record: record[0])
        streams: list[Iterator[tuple[int, bytes]]] = [
            _read_run(path) for path in self._run_paths
        ]
        streams.append(iter(self._pending))
        return heapq.merge(*streams, key=lambda record: record[0])

    def close(self) -> None:
        """Drop the in-memory tail and delete any run files."""
        self._closed = True
        self._pending = []
        self._pending_bytes = 0
        self._run_paths = []
        if self._tempdir is not None:
            self._tempdir.cleanup()
            self._tempdir = None

    def __enter__(self) -> "SpillRuns":
        return self

    def __exit__(
        self,
        exc_type: type[BaseException] | None,
        exc: BaseException | None,
        tb: TracebackType | None,
    ) -> None:
        self.close()
