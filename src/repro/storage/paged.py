"""Block-structured on-disk buffers behind an LRU pool.

A *paged store* keeps named ``int64`` buffers (the flat CSR columns of
:mod:`repro.graph.columnar`) as fixed-size pages under a directory.
Each generation appends the pages it writes, back to back, to one
*segment* file, and a sealed, generation-numbered manifest says where
every page lives:

.. code-block:: text

    store/
      CURRENT                  # hint: newest readable generation
      manifest-0000001.json    # sealed page table (format v3 of
      manifest-0000002.json    #   ``repro-datagraph-frozen``)
      pages/
        segment-0000000.bin    # generation 1's pages: raw int64
        segment-0000001.bin    #   entries, creation byteorder

A page-table entry is ``[segment, offset, digest]``: the segment id,
the page's byte offset inside it, and the page's sha256 digest, so a
flipped bit or a truncated segment fails loudly on load.  A
generation's segment is written through one append-mode handle and
``fsync``\\ ed once, with its directory, before the manifest that
references it is published: creating or checkpointing a store costs
the same few ``fsync`` calls whatever the number of pages.

Mutation is copy-on-write: a dirty page is appended to the next
generation's segment (on eviction from the pool or at
:meth:`PagedStore.checkpoint`), and the checkpoint publishes a new
manifest referencing the fresh pages plus the untouched old ones — the
generation step never rewrites unchanged data, mirroring the
manifest-of-immutable-artifacts discipline of
:class:`repro.maintenance.store.CheckpointStore`.  Consecutive
retained generations share segments, so
``PagedStore.open(..., generation=g)`` gives a point-in-time view, and
pruning deletes a segment once no retained manifest references it.
A version-2 manifest, whose pages are one file each
(``pages/page-0000000.bin``, listed as ``[physical, digest]``), reads
as a store of one-page segments: ``[physical, 0, digest]``.

Reads go through :class:`PagedBufferPool` — a byte-budgeted LRU with
dirty-page write-back and hit/miss/eviction counters — so
the resident working set stays bounded no matter how large the graph
is.  A pool miss reads one page's byte range from its segment.
Sequential reads go a page at a time: :meth:`PagedStore.read_page`
is one pool lookup for a whole page, and :class:`PageCursor` keeps
that page while a forward sweep reads inside it.
:class:`PagedCSRGraph` glues a store to the
:class:`~repro.graph.columnar.CSRBuffers` surface consumed by the
refinement engines, which is what ``engine="external"`` builds on.
"""

from __future__ import annotations

import hashlib
import os
import sys
from array import array
from collections import OrderedDict
from collections.abc import Iterable, Iterator, Mapping, Sequence
from dataclasses import dataclass, replace
from io import FileIO
from itertools import islice
from pathlib import Path
from types import TracebackType
from typing import Any, Callable

from repro.exceptions import (
    InjectedFaultError,
    PagedStoreError,
    SerializationError,
)
from repro.graph.columnar import BUFFER_TYPECODE, CSRGraph
from repro.graph.serialize import (
    FROZEN_FORMAT_NAME,
    FROZEN_PAGED_VERSION,
    buffer_from_bytes,
    buffer_to_bytes,
)
from repro.maintenance.faults import fault_point
from repro.maintenance.store import (
    CURRENT_NAME,
    TMP_SUFFIX,
    atomic_write_bytes,
    atomic_write_document,
    fsync_directory,
    read_document,
    write_all,
)
from repro.storage.retry import RetryPolicy, io_retry, resolve_retry_policy

#: Bytes per buffer entry (``array('q')``).
ENTRY_BYTES = 8

#: Default page size; small enough that a few pages fit in a test-sized
#: budget, large enough that sequential sweeps amortise the open+hash.
DEFAULT_PAGE_BYTES = 16384

#: Default LRU pool budget when neither argument nor environment says.
DEFAULT_POOL_BUDGET = 8 * 1024 * 1024

#: Environment overrides of the two defaults above.
PAGE_BYTES_ENV_VAR = "DKINDEX_PAGE_BYTES"
POOL_BUDGET_ENV_VAR = "DKINDEX_POOL_BUDGET"

#: How many generations *before* the newest a checkpoint retains.
DEFAULT_RETAIN = 2

PAGES_DIRNAME = "pages"
QUARANTINE_DIRNAME = "quarantine"
MANIFEST_PREFIX = "manifest-"
MANIFEST_SUFFIX = ".json"
SEGMENT_PREFIX = "segment-"
#: A version-2 store's page file: a one-page segment under the same id.
PAGE_PREFIX = "page-"
DATA_SUFFIX = ".bin"

#: Manifest versions :meth:`PagedStore.open` reads; version 2 lists
#: each page as ``[physical, digest]`` of its own file.
_READABLE_VERSIONS = (2, FROZEN_PAGED_VERSION)

#: Largest byte offset a page entry may name (a 64-bit ``off_t``).
_MAX_OFFSET = 2**63 - 1

CURRENT_FORMAT = "repro-paged-current"
CURRENT_VERSION = 1

#: The buffers a paged CSR snapshot holds, and the only ones it reads:
#: a store with more (older releases paged index extents and ``k``)
#: still opens.
CORE_CSR_BUFFERS = (
    "label_ids",
    "child_offsets",
    "child_targets",
    "parent_offsets",
    "parent_targets",
)


def _env_int(env_var: str, what: str) -> int | None:
    """Parse an optional integer environment override."""
    raw = os.environ.get(env_var)
    if raw is None or not raw.strip():
        return None
    try:
        return int(raw, 10)
    except ValueError:
        raise PagedStoreError(
            f"invalid {what} in {env_var}: {raw!r} (expected an integer)"
        ) from None


def resolve_page_bytes(page_bytes: int | None = None) -> int:
    """Pick the page size: argument, ``DKINDEX_PAGE_BYTES``, default.

    Raises:
        PagedStoreError: unless the result is a positive multiple of
            the 8-byte entry size.
    """
    if page_bytes is None:
        page_bytes = _env_int(PAGE_BYTES_ENV_VAR, "page size")
    if page_bytes is None:
        page_bytes = DEFAULT_PAGE_BYTES
    if page_bytes < ENTRY_BYTES or page_bytes % ENTRY_BYTES:
        raise PagedStoreError(
            f"page size must be a positive multiple of {ENTRY_BYTES} "
            f"bytes: {page_bytes}"
        )
    return page_bytes


def resolve_pool_budget(budget_bytes: int | None = None) -> int:
    """Pick the pool budget: argument, ``DKINDEX_POOL_BUDGET``, default.

    A budget of 0 is legal — the pool then evicts each page as soon as
    it is loaded (the reader keeps its own reference), the worst honest
    case for the eviction counters.

    Raises:
        PagedStoreError: for a negative budget.
    """
    if budget_bytes is None:
        budget_bytes = _env_int(POOL_BUDGET_ENV_VAR, "pool budget")
    if budget_bytes is None:
        budget_bytes = DEFAULT_POOL_BUDGET
    if budget_bytes < 0:
        raise PagedStoreError(f"pool budget must be >= 0: {budget_bytes}")
    return budget_bytes


# ----------------------------------------------------------------------
# LRU buffer pool
# ----------------------------------------------------------------------


@dataclass
class PoolStats:
    """Counters of one :class:`PagedBufferPool` (cumulative).

    ``retries``/``give_ups`` count the transient-I/O retry policy
    (:mod:`repro.storage.retry`): a retry is one re-attempt after a
    transient ``OSError``, a give-up is one operation that exhausted
    its whole attempt budget.  A fault-free run holds both at zero.
    """

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    write_backs: int = 0
    retries: int = 0
    give_ups: int = 0

    @property
    def accesses(self) -> int:
        """Total page lookups served."""
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from the pool (1.0 when idle)."""
        total = self.accesses
        return self.hits / total if total else 1.0

    def snapshot(self) -> "PoolStats":
        """An independent copy of the current counters."""
        return replace(self)

    def delta(self, since: "PoolStats") -> "PoolStats":
        """Counter movement between ``since`` and now (for per-phase stats)."""
        return PoolStats(
            hits=self.hits - since.hits,
            misses=self.misses - since.misses,
            evictions=self.evictions - since.evictions,
            write_backs=self.write_backs - since.write_backs,
            retries=self.retries - since.retries,
            give_ups=self.give_ups - since.give_ups,
        )

    def as_dict(self) -> dict[str, float]:
        """JSON-ready counters plus the derived hit rate."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "write_backs": self.write_backs,
            "retries": self.retries,
            "give_ups": self.give_ups,
            "hit_rate": round(self.hit_rate, 6),
        }


#: Logical page address: (buffer name, page index within that buffer).
PageKey = tuple[str, int]


class PagedBufferPool:
    """A byte-budgeted LRU cache of ``array('q')`` pages.

    The pool is storage-agnostic: a ``loader`` callback materialises a
    missing page and an optional ``writer`` callback persists a dirty
    page when it is evicted or flushed (a pool without a writer is
    read-only — evicting a dirty page raises).
    """

    def __init__(
        self,
        budget_bytes: int,
        loader: Callable[[PageKey], "array[int]"],
        writer: Callable[[PageKey, "array[int]"], None] | None = None,
        retry: RetryPolicy | None = None,
    ) -> None:
        if budget_bytes < 0:
            raise PagedStoreError(f"pool budget must be >= 0: {budget_bytes}")
        self.budget_bytes = budget_bytes
        self._loader = loader
        self._writer = writer
        self._retry = retry
        self._pages: "OrderedDict[PageKey, array[int]]" = OrderedDict()
        self._dirty: set[PageKey] = set()
        self._cached_bytes = 0
        self.stats = PoolStats()

    # -- introspection -------------------------------------------------

    @property
    def cached_bytes(self) -> int:
        """Bytes currently resident."""
        return self._cached_bytes

    @property
    def cached_pages(self) -> int:
        """Pages currently resident."""
        return len(self._pages)

    @property
    def dirty_pages(self) -> int:
        """Resident pages with unwritten mutations."""
        return len(self._dirty)

    def is_resident(self, key: PageKey) -> bool:
        """Whether ``key`` is cached (does not touch LRU order)."""
        return key in self._pages

    # -- access --------------------------------------------------------

    def get(self, key: PageKey) -> "array[int]":
        """The page at ``key``, loading (and possibly evicting) on miss.

        The returned array stays valid after eviction (the caller holds
        a reference), but mutations to an evicted copy are lost, and
        :meth:`mark_dirty` accepts only a resident page: change entries
        through :meth:`write`.
        """
        page = self._pages.get(key)
        if page is not None:
            self.stats.hits += 1
            self._pages.move_to_end(key)
            return page
        self.stats.misses += 1
        page = self._loader(key)
        self._pages[key] = page
        self._cached_bytes += len(page) * ENTRY_BYTES
        self._shrink()
        return page

    def write(self, key: PageKey, offset: int, value: int) -> None:
        """Set entry ``offset`` of the page at ``key``.

        The page is written back when it is evicted or flushed.  A pool
        whose budget holds less than one page has evicted it already,
        in :meth:`get`; the write then goes through the write-back path
        at once, with the same retry policy and fault point.
        """
        page = self.get(key)
        page[offset] = value
        if key in self._pages:
            self.mark_dirty(key)
        else:
            self._write_back(key, page)

    def mark_dirty(self, key: PageKey) -> None:
        """Flag a *resident* page as mutated (write back before drop)."""
        if key not in self._pages:
            raise PagedStoreError(
                f"cannot mark non-resident page {key!r} dirty"
            )
        self._dirty.add(key)

    # -- eviction and flushing -----------------------------------------

    def _shrink(self) -> None:
        """Evict from the LRU head until the budget is respected."""
        while self._cached_bytes > self.budget_bytes:
            self._evict(next(iter(self._pages)))

    def _evict(self, key: PageKey) -> None:
        if key in self._dirty:
            self._write_back(key, self._pages[key])
        page = self._pages.pop(key)
        self._cached_bytes -= len(page) * ENTRY_BYTES
        self.stats.evictions += 1

    def _write_back(self, key: PageKey, page: "array[int]") -> None:
        writer = self._writer
        if writer is None:
            raise PagedStoreError(
                f"read-only pool cannot write back dirty page {key!r}"
            )

        def persist() -> None:
            fault_point("storage.pool_evict_writeback_fail")
            writer(key, page)

        if self._retry is not None:
            io_retry(
                persist,
                what=f"write back dirty page {key!r}",
                policy=self._retry,
                stats=self.stats,
            )
        else:
            persist()
        self._dirty.discard(key)
        self.stats.write_backs += 1

    def flush(self) -> int:
        """Write back every dirty page (keeping them resident).

        Returns the number of pages written.
        """
        written = 0
        for key in sorted(self._dirty):
            self._write_back(key, self._pages[key])
            written += 1
        return written

    def drop(self, discard_dirty: bool = False) -> None:
        """Empty the pool without touching storage.

        Raises:
            PagedStoreError: if dirty pages would be lost and
                ``discard_dirty`` is not set.
        """
        if self._dirty and not discard_dirty:
            raise PagedStoreError(
                f"{len(self._dirty)} dirty page(s) would be discarded; "
                "flush() first or pass discard_dirty=True"
            )
        self._pages.clear()
        self._dirty.clear()
        self._cached_bytes = 0


# ----------------------------------------------------------------------
# The paged store
# ----------------------------------------------------------------------


def _segment_path(pages_dir: Path, segment: int) -> Path:
    return pages_dir / f"{SEGMENT_PREFIX}{segment:07d}{DATA_SUFFIX}"


def _page_file_path(pages_dir: Path, segment: int) -> Path:
    return pages_dir / f"{PAGE_PREFIX}{segment:07d}{DATA_SUFFIX}"


def _manifest_path(directory: Path, generation: int) -> Path:
    return directory / f"{MANIFEST_PREFIX}{generation:07d}{MANIFEST_SUFFIX}"


def _cut_pages(
    values: Iterable[int], entries_per_page: int
) -> Iterator["array[int]"]:
    """``values`` as consecutive pages of ``entries_per_page`` entries.

    An ``array('q')`` is cut into slices; any other iterable is read a
    page at a time, so it is never held whole.
    """
    if isinstance(values, array) and values.typecode == BUFFER_TYPECODE:
        for start in range(0, len(values), entries_per_page):
            yield values[start : start + entries_per_page]
        return
    iterator = iter(values)
    while page := array(BUFFER_TYPECODE, islice(iterator, entries_per_page)):
        yield page


class _SegmentWriter:
    """Appends pages to one new segment file through a kept handle.

    The handle is in append mode, so each page lands at the end of the
    file, and :attr:`end` is the offset just past the last complete
    page.  An append that fails leaves the file *torn*; the next
    attempt first cuts it back to that offset, as the journal does
    after a failed record.
    """

    def __init__(self, path: Path, segment: int) -> None:
        self.path = path
        self.segment = segment
        self.end = 0
        self._torn = False
        self._handle: FileIO = open(path, "ab", buffering=0)

    def append(
        self, raw: bytes, retry: RetryPolicy, stats: PoolStats
    ) -> int:
        """Append one page's bytes; return the offset they start at.

        Transient write failures are retried under ``retry``.  The
        ``storage.page_torn_write`` raise mode leaves the page
        half-written (a torn page, exactly what a crash mid-append
        produces) before re-raising; ``storage.page_bit_flip`` then
        rots a bit inside the page just appended.
        """
        offset = self.end
        handle = self._handle

        def persist() -> None:
            if self._torn:
                os.ftruncate(handle.fileno(), offset)
            self._torn = True
            fault_point("storage.page_enospc", path=self.path)
            try:
                fault_point("storage.page_torn_write", path=self.path)
            except InjectedFaultError:
                write_all(handle, raw[: len(raw) // 2])
                raise
            write_all(handle, raw)
            self._torn = False

        io_retry(
            persist,
            what=f"append a page to {self.path.name}",
            policy=retry,
            stats=stats,
        )
        self.end = offset + len(raw)
        fault_point("storage.page_bit_flip", path=self.path, start=offset)
        return offset

    def seal(self) -> None:
        """Make every appended page durable, then close the handle."""
        try:
            os.fsync(self._handle.fileno())
        finally:
            self._handle.close()

    def close(self) -> None:
        """Close the handle; pages not sealed may be lost in a crash."""
        self._handle.close()


def _page_problem(raw: bytes, digest: str, size: int) -> str | None:
    """Why a page's bytes fail their manifest entry, or ``None``."""
    if len(raw) != size:
        return f"holds {len(raw)} bytes; manifest expects {size}"
    if hashlib.sha256(raw).hexdigest() != digest:
        return "sha256 digest mismatch against the manifest"
    return None


def _check_retain(retain: int) -> None:
    """Reject a negative retention window: pruning keeps the newest
    ``retain + 1`` manifests, so ``-1`` would delete the only one."""
    if retain < 0:
        raise PagedStoreError(f"retain must be >= 0, got {retain}")


def _scan_generations(directory: Path) -> list[int]:
    """Manifest generations present on disk, newest first."""
    generations = []
    for entry in directory.iterdir():
        name = entry.name
        if name.startswith(MANIFEST_PREFIX) and name.endswith(MANIFEST_SUFFIX):
            stem = name[len(MANIFEST_PREFIX) : -len(MANIFEST_SUFFIX)]
            if stem.isdigit():
                generations.append(int(stem))
    generations.sort(reverse=True)
    return generations


def _scan_segments(pages_dir: Path) -> dict[int, Path]:
    """Segment files on disk by id, orphans included, with a version-2
    store's page files as one-page segments."""
    found: dict[int, Path] = {}
    if not pages_dir.is_dir():
        return found
    for entry in pages_dir.iterdir():
        name = entry.name
        for prefix in (SEGMENT_PREFIX, PAGE_PREFIX):
            if name.startswith(prefix) and name.endswith(DATA_SUFFIX):
                stem = name[len(prefix) : -len(DATA_SUFFIX)]
                if stem.isdigit():
                    found[int(stem)] = entry
    return found


def _sweep_temp_files(directory: Path) -> None:
    """Remove leftover atomic-writer temp files from a crashed writer."""
    for entry in directory.iterdir():
        if entry.name.endswith(TMP_SUFFIX):
            entry.unlink(missing_ok=True)


def _is_int(value: Any) -> bool:
    """True for a JSON integer; JSON ``true``/``false`` are bools, which
    ``isinstance(value, int)`` would let through as 1 and 0."""
    return isinstance(value, int) and not isinstance(value, bool)


def _validate_manifest(
    doc: dict[str, Any], source: str
) -> tuple[str, int, int, int, dict[str, Any], dict[str, dict[str, Any]]]:
    """Structurally validate a v3 (or v2) manifest document.

    Returns ``(byteorder, page_bytes, generation, next_segment, meta,
    page_table)`` with the page table normalised to
    ``{name: {"entries": int, "pages": [[segment, offset, digest],
    ...]}}``; a v2 entry ``[physical, digest]`` becomes
    ``[physical, 0, digest]`` and its ``next_page`` the next segment.

    Raises:
        PagedStoreError: on any structural problem.
    """
    if doc.get("format") != FROZEN_FORMAT_NAME:
        raise PagedStoreError(
            f"{source}: unexpected format marker {doc.get('format')!r}"
        )
    version = doc.get("version")
    if not _is_int(version) or version not in _READABLE_VERSIONS:
        raise PagedStoreError(
            f"{source}: unsupported manifest version {version!r}"
        )
    byteorder = doc.get("byteorder")
    if byteorder not in ("little", "big"):
        raise PagedStoreError(f"{source}: invalid byteorder {byteorder!r}")
    page_bytes = doc.get("page_bytes")
    if (
        not _is_int(page_bytes)
        or page_bytes < ENTRY_BYTES
        or page_bytes % ENTRY_BYTES
    ):
        raise PagedStoreError(f"{source}: invalid page_bytes {page_bytes!r}")
    generation = doc.get("generation")
    if not _is_int(generation) or generation < 1:
        raise PagedStoreError(f"{source}: invalid generation {generation!r}")
    counter = "next_page" if version == 2 else "next_segment"
    next_segment = doc.get(counter)
    if not _is_int(next_segment) or next_segment < 0:
        raise PagedStoreError(f"{source}: invalid {counter} {next_segment!r}")
    meta = doc.get("meta")
    if not isinstance(meta, dict):
        raise PagedStoreError(f"{source}: 'meta' must be an object")
    raw_table = doc.get("page_table")
    if not isinstance(raw_table, dict) or not raw_table:
        raise PagedStoreError(f"{source}: 'page_table' must be a non-empty object")
    entries_per_page = page_bytes // ENTRY_BYTES
    width = 2 if version == 2 else 3
    table: dict[str, dict[str, Any]] = {}
    for name, spec in raw_table.items():
        if not isinstance(name, str) or not name:
            raise PagedStoreError(f"{source}: invalid buffer name {name!r}")
        if not isinstance(spec, dict):
            raise PagedStoreError(f"{source}: buffer {name!r} spec malformed")
        entries = spec.get("entries")
        pages = spec.get("pages")
        if not _is_int(entries) or entries < 0:
            raise PagedStoreError(
                f"{source}: buffer {name!r} has invalid entry count"
            )
        if not isinstance(pages, list):
            raise PagedStoreError(
                f"{source}: buffer {name!r} page list malformed"
            )
        expected_pages = (entries + entries_per_page - 1) // entries_per_page
        if len(pages) != expected_pages:
            raise PagedStoreError(
                f"{source}: buffer {name!r} declares {entries} entries but "
                f"{len(pages)} pages (expected {expected_pages})"
            )
        normalised = []
        for item in pages:
            if not isinstance(item, (list, tuple)) or len(item) != width:
                raise PagedStoreError(
                    f"{source}: buffer {name!r} has a malformed page entry"
                )
            segment, offset, digest = (
                (item[0], 0, item[1]) if width == 2 else item
            )
            if (
                not _is_int(segment)
                or segment < 0
                or not _is_int(offset)
                or not 0 <= offset <= _MAX_OFFSET
                or offset % ENTRY_BYTES
                or not isinstance(digest, str)
            ):
                raise PagedStoreError(
                    f"{source}: buffer {name!r} has a malformed page entry"
                )
            normalised.append([segment, offset, digest])
        table[name] = {"entries": entries, "pages": normalised}
    return byteorder, page_bytes, generation, next_segment, meta, table


# ----------------------------------------------------------------------
# Scrub & repair
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class ScrubPage:
    """One non-clean page found by :meth:`PagedStore.scrub`.

    Attributes:
        buffer: the buffer the page belongs to.
        page_index: logical page index within that buffer.
        segment: the segment the manifest places the page in.
        offset: the page's byte offset inside that segment.
        status: ``"repaired"`` or ``"unrepairable"``.
        detail: what was wrong, and (if repaired) where the replacement
            came from.
    """

    buffer: str
    page_index: int
    segment: int
    offset: int
    status: str
    detail: str


@dataclass
class ScrubReport:
    """Outcome of one :meth:`PagedStore.scrub` pass.

    ``ok`` means every live page is digest-verified *now* — clean from
    the start or repaired from an older generation.  ``not ok`` means
    at least one page is unrepairable: a copy of its bytes sits in
    quarantine, the bad bytes stay where the manifest points so every
    read stays loudly broken, and the caller must rebuild from the
    source graph.  There is no third state; scrub never leaves
    corruption silently readable.
    """

    generation: int
    pages_checked: int
    clean: int
    repaired: list[ScrubPage]
    unrepairable: list[ScrubPage]

    @property
    def ok(self) -> bool:
        """Every live page digest-verifies after this pass."""
        return not self.unrepairable

    @property
    def rebuild_required(self) -> bool:
        """At least one page could not be repaired from any generation."""
        return bool(self.unrepairable)

    def as_dict(self) -> dict[str, Any]:
        """JSON-ready summary."""
        return {
            "generation": self.generation,
            "pages_checked": self.pages_checked,
            "clean": self.clean,
            "repaired": [
                {
                    "buffer": page.buffer,
                    "page_index": page.page_index,
                    "segment": page.segment,
                    "offset": page.offset,
                    "detail": page.detail,
                }
                for page in self.repaired
            ],
            "unrepairable": [
                {
                    "buffer": page.buffer,
                    "page_index": page.page_index,
                    "segment": page.segment,
                    "offset": page.offset,
                    "detail": page.detail,
                }
                for page in self.unrepairable
            ],
            "ok": self.ok,
        }

    def format(self) -> str:
        """Human-readable multi-line report."""
        lines = [
            f"scrub of generation {self.generation}: "
            f"{self.pages_checked} page(s) checked, {self.clean} clean, "
            f"{len(self.repaired)} repaired, "
            f"{len(self.unrepairable)} unrepairable"
        ]
        for page in self.repaired:
            lines.append(
                f"  repaired   {page.buffer}[{page.page_index}] "
                f"(segment {page.segment} @ {page.offset}): {page.detail}"
            )
        for page in self.unrepairable:
            lines.append(
                f"  UNREPAIRED {page.buffer}[{page.page_index}] "
                f"(segment {page.segment} @ {page.offset}): {page.detail}"
            )
        if self.rebuild_required:
            lines.append(
                "  corrupt pages quarantined; rebuild from the source "
                "graph is required"
            )
        return "\n".join(lines)


class PagedStore:
    """Named ``int64`` buffers paged to disk under a manifest.

    Construct with :meth:`create` (pages cut from the buffers and
    appended to one segment) or :meth:`open` (attach to an existing
    directory).  Reads and writes go through the LRU :attr:`pool`;
    mutations become durable only at :meth:`checkpoint`, which
    publishes a new manifest generation by reference — unchanged pages
    are shared with prior generations, not rewritten.
    """

    def __init__(
        self,
        directory: Path,
        *,
        byteorder: str,
        page_bytes: int,
        generation: int,
        next_segment: int,
        meta: dict[str, Any],
        table: dict[str, dict[str, Any]],
        budget_bytes: int,
        retain: int,
        retry: RetryPolicy | None = None,
        newer: int | None = None,
    ) -> None:
        """Internal: use :meth:`create` or :meth:`open`.

        ``newer`` is the newest generation on disk when :meth:`open`
        pinned an older one, which makes the store read-only.
        """
        self.directory = directory
        self._pages_dir = directory / PAGES_DIRNAME
        self._byteorder = byteorder
        self.page_bytes = page_bytes
        self._entries_per_page = page_bytes // ENTRY_BYTES
        self._generation = generation
        self._newer = newer
        on_disk = _scan_segments(self._pages_dir)
        # Fresh segment ids clear every file on disk, orphans of a
        # crashed create or checkpoint included, so none is reused.
        self._next_segment = max(next_segment, max(on_disk, default=-1) + 1)
        self._page_files = frozenset(
            segment
            for segment, path in on_disk.items()
            if path.name.startswith(PAGE_PREFIX)
        )
        # The segment this generation's new pages are appended to,
        # opened by the first append and sealed by the checkpoint.
        self._pending: _SegmentWriter | None = None
        self._meta = meta
        self._table = table
        self._retain = retain
        self._closed = False
        self.retry = retry if retry is not None else resolve_retry_policy()
        self.pool = PagedBufferPool(
            budget_bytes, self._load_page, self._store_page, retry=self.retry
        )

    # -- construction --------------------------------------------------

    @classmethod
    def create(
        cls,
        directory: str | Path,
        buffers: Mapping[str, Iterable[int]],
        *,
        page_bytes: int | None = None,
        budget_bytes: int | None = None,
        meta: Mapping[str, Any] | None = None,
        retain: int = DEFAULT_RETAIN,
        retry: RetryPolicy | None = None,
    ) -> "PagedStore":
        """Create a store: cut ``buffers`` into pages, append them to one
        segment and publish generation 1.

        An ``array('q')`` buffer is cut into slices; any other iterable
        is read a page at a time, so creation never holds a buffer it
        was not given whole.  The segment and its directory are
        ``fsync``\\ ed once, before the manifest and ``CURRENT``.

        Raises:
            PagedStoreError: a negative ``retain``, an empty buffer map,
                an invalid buffer name, or the directory already holds
                a paged store.
        """
        _check_retain(retain)
        page_bytes = resolve_page_bytes(page_bytes)
        budget = resolve_pool_budget(budget_bytes)
        if not buffers:
            raise PagedStoreError("a paged store needs at least one buffer")
        for name in buffers:
            if not isinstance(name, str) or not name:
                raise PagedStoreError(f"invalid buffer name: {name!r}")
        base = Path(directory)
        base.mkdir(parents=True, exist_ok=True)
        if _scan_generations(base):
            raise PagedStoreError(
                f"{base} already holds a paged store; open() it instead"
            )
        (base / PAGES_DIRNAME).mkdir(exist_ok=True)
        store = PagedStore(
            base,
            byteorder=sys.byteorder,
            page_bytes=page_bytes,
            generation=0,
            next_segment=0,
            meta=dict(meta or {}),
            table={},
            budget_bytes=budget,
            retain=retain,
            retry=retry,
        )
        try:
            for name, values in buffers.items():
                entries = 0
                pages = []
                for page in _cut_pages(values, store.entries_per_page):
                    pages.append(store._append_page(page))
                    entries += len(page)
                store._table[name] = {"entries": entries, "pages": pages}
            store.checkpoint()
        except BaseException:
            store.close(discard_dirty=True)
            raise
        return store

    @classmethod
    def open(
        cls,
        directory: str | Path,
        *,
        budget_bytes: int | None = None,
        generation: int | None = None,
        retain: int = DEFAULT_RETAIN,
        retry: RetryPolicy | None = None,
    ) -> "PagedStore":
        """Attach to an existing store directory.

        Scans manifests newest-first and uses the first one that
        unseals and validates (the ``CURRENT`` pointer is a hint, not
        an authority — same recovery posture as
        :class:`~repro.maintenance.store.CheckpointStore`).  Pass
        ``generation`` for a point-in-time view of a retained older
        manifest; opening a pinned generation does not fall back.  A
        view pinned older than the newest manifest on disk is
        read-only: its checkpoint would publish ``generation + 1`` over
        a newer manifest, so :meth:`write_element` and
        :meth:`checkpoint` raise.
        Segments no manifest references (left by a crashed create or
        checkpoint) are ignored.

        Raises:
            PagedStoreError: a negative ``retain``, a missing directory,
                no readable manifest, or a pinned generation that was
                pruned, never existed, or is present but unreadable (the
                error names the pinned generation and the surviving
                ones).
        """
        _check_retain(retain)
        budget = resolve_pool_budget(budget_bytes)
        base = Path(directory)
        if not base.is_dir():
            raise PagedStoreError(f"not a paged store directory: {base}")
        _sweep_temp_files(base)
        pages_dir = base / PAGES_DIRNAME
        if pages_dir.is_dir():
            _sweep_temp_files(pages_dir)
        on_disk = _scan_generations(base)
        if not on_disk:
            raise PagedStoreError(f"no manifest found under {base}")
        if generation is not None:
            if generation not in on_disk:
                survivors = ", ".join(str(g) for g in sorted(on_disk))
                raise PagedStoreError(
                    f"generation {generation} is not present under {base} "
                    "(pruned, or never checkpointed); surviving "
                    f"generations: {survivors}"
                )
            candidates = [generation]
            newer = on_disk[0] if generation < on_disk[0] else None
        else:
            candidates = on_disk
            newer = None
        failures: list[str] = []
        for candidate in candidates:
            path = _manifest_path(base, candidate)
            try:
                doc = read_document(path)
                byteorder, page_bytes, gen, next_segment, meta, table = (
                    _validate_manifest(doc, path.name)
                )
            except SerializationError as error:
                failures.append(str(error))
                continue
            if gen != candidate:
                failures.append(
                    f"{path.name}: generation stamp {gen} disagrees with name"
                )
                continue
            return cls(
                base,
                byteorder=byteorder,
                page_bytes=page_bytes,
                generation=gen,
                next_segment=next_segment,
                meta=meta,
                table=table,
                budget_bytes=budget,
                retain=retain,
                retry=retry,
                newer=newer,
            )
        detail = "; ".join(failures)
        if generation is not None:
            survivors = ", ".join(
                str(g) for g in sorted(on_disk) if g != generation
            )
            raise PagedStoreError(
                f"generation {generation} under {base} is present but "
                f"unreadable ({detail}); surviving generations: "
                f"{survivors or 'none'}"
            )
        raise PagedStoreError(f"no readable manifest under {base}: {detail}")

    # -- geometry ------------------------------------------------------

    @property
    def byteorder(self) -> str:
        """Byte order every page was written in (fixed at creation)."""
        return self._byteorder

    @property
    def generation(self) -> int:
        """The manifest generation this store currently reflects."""
        return self._generation

    @property
    def meta(self) -> dict[str, Any]:
        """Application metadata stored alongside the page table."""
        return self._meta

    @property
    def stats(self) -> PoolStats:
        """The pool's cumulative counters."""
        return self.pool.stats

    def buffer_names(self) -> tuple[str, ...]:
        """The named buffers this store holds, in creation order."""
        return tuple(self._table)

    def length(self, name: str) -> int:
        """Entry count of buffer ``name``."""
        return int(self._spec(name)["entries"])

    @property
    def footprint_bytes(self) -> int:
        """Total payload bytes across all buffers (page padding excluded)."""
        return sum(
            int(spec["entries"]) * ENTRY_BYTES for spec in self._table.values()
        )

    @property
    def page_count(self) -> int:
        """Total pages across all buffers in the live table."""
        return sum(len(spec["pages"]) for spec in self._table.values())

    @property
    def entries_per_page(self) -> int:
        """Entries a full page holds (a buffer's last page may hold fewer)."""
        return self._entries_per_page

    def buffer(self, name: str) -> "PagedBuffer":
        """A sequence view of buffer ``name`` backed by the pool."""
        self._spec(name)
        return PagedBuffer(self, name)

    def _spec(self, name: str) -> dict[str, Any]:
        try:
            return self._table[name]
        except KeyError:
            raise PagedStoreError(
                f"store has no buffer {name!r} "
                f"(have {sorted(self._table)})"
            ) from None

    def _check_open(self) -> None:
        if self._closed:
            raise PagedStoreError(f"paged store {self.directory} is closed")

    def _check_writable(self) -> None:
        self._check_open()
        if self._newer is not None:
            raise PagedStoreError(
                f"generation {self._generation} of {self.directory} is a "
                f"read-only view: generation {self._newer} is newer; open "
                "the store unpinned to write"
            )

    # -- page I/O ------------------------------------------------------

    def _segment_file(self, segment: int) -> Path:
        """The file holding ``segment``: a segment file, or the page
        file a version-2 store wrote under the same id."""
        if segment in self._page_files:
            return _page_file_path(self._pages_dir, segment)
        return _segment_path(self._pages_dir, segment)

    def _page_size(self, spec: dict[str, Any], index: int) -> int:
        """Bytes page ``index`` of a buffer holds (the last may be short)."""
        entries = int(spec["entries"]) - index * self._entries_per_page
        return min(self._entries_per_page, entries) * ENTRY_BYTES

    def _read_range(self, segment: int, offset: int, size: int) -> bytes:
        """The ``size`` bytes at ``offset`` of ``segment`` (fewer past
        its end), read under the retry policy."""
        path = self._segment_file(segment)

        def fetch() -> bytes:
            fault_point("storage.page_read_eio_transient", path=path)
            with open(path, "rb") as handle:
                handle.seek(offset)
                return handle.read(size)

        return io_retry(
            fetch,
            what=f"cannot read {path.name} at offset {offset}",
            policy=self.retry,
            stats=self.pool.stats,
        )

    def _load_page(self, key: PageKey) -> "array[int]":
        """Pool loader: read, digest-verify and decode one page."""
        name, index = key
        spec = self._spec(name)
        pages = spec["pages"]
        if not 0 <= index < len(pages):
            raise PagedStoreError(
                f"page index {index} out of range for buffer {name!r}"
            )
        segment, offset, digest = pages[index]
        size = self._page_size(spec, index)
        raw = self._read_range(segment, offset, size)
        problem = _page_problem(raw, digest, size)
        if problem is not None:
            raise PagedStoreError(
                f"page {name}[{index}] (segment {segment} @ {offset}): "
                f"{problem}"
            )
        return buffer_from_bytes(f"{name}[{index}]", raw, self._byteorder)

    def _append_page(self, page: "array[int]") -> list[Any]:
        """Append ``page`` to this generation's segment; its table entry."""
        raw = buffer_to_bytes(page, self._byteorder)
        writer = self._pending
        if writer is None:
            segment = self._next_segment
            self._next_segment += 1
            path = _segment_path(self._pages_dir, segment)
            writer = self._pending = io_retry(
                lambda: _SegmentWriter(path, segment),
                what=f"cannot start segment {path.name}",
                policy=self.retry,
                stats=self.pool.stats,
            )
        offset = writer.append(raw, self.retry, self.pool.stats)
        return [writer.segment, offset, hashlib.sha256(raw).hexdigest()]

    def _store_page(self, key: PageKey, page: "array[int]") -> None:
        """Pool writer: copy-on-write a dirty page to the pending segment."""
        name, index = key
        self._spec(name)["pages"][index] = self._append_page(page)

    # -- element access ------------------------------------------------

    def _locate(self, name: str, position: int) -> tuple[int, int]:
        entries = self.length(name)
        if position < 0:
            position += entries
        if not 0 <= position < entries:
            raise PagedStoreError(
                f"position {position} out of range for buffer {name!r} "
                f"({entries} entries)"
            )
        return divmod(position, self._entries_per_page)

    def read_page(self, name: str, index: int) -> "array[int]":
        """Page ``index`` of buffer ``name``, through one pool lookup.

        The page-at-a-time read beneath every sequential access: a
        caller that keeps the returned page while it reads positions
        inside it pays one lookup per page, however small the pool.
        Treat the page as read-only; mutate through
        :meth:`write_element`.

        Raises:
            PagedStoreError: the store is closed, ``name`` is unknown,
                or ``index`` is not a page of ``name``.
        """
        self._check_open()
        pages = self._spec(name)["pages"]
        if not 0 <= index < len(pages):
            raise PagedStoreError(
                f"page index {index} out of range for buffer {name!r} "
                f"({len(pages)} pages)"
            )
        return self.pool.get((name, index))

    def read_element(self, name: str, position: int) -> int:
        """One entry of buffer ``name`` (negative positions count back)."""
        self._check_open()
        page_index, offset = self._locate(name, position)
        return self.pool.get((name, page_index))[offset]

    def write_element(self, name: str, position: int, value: int) -> None:
        """Mutate one entry in place (durable at the next checkpoint).

        Raises:
            PagedStoreError: the store is closed, or is a read-only view
                of an older generation (see :meth:`open`).
        """
        self._check_writable()
        page_index, offset = self._locate(name, position)
        self.pool.write((name, page_index), offset, value)

    def read_slice(self, name: str, start: int, stop: int) -> "array[int]":
        """Entries ``start:stop`` of buffer ``name`` as one array.

        Spans page boundaries transparently; pages are visited in
        ascending order so sequential sweeps degrade to one miss per
        page even under a one-page budget.
        """
        self._check_open()
        entries = self.length(name)
        start = max(0, min(start, entries))
        stop = max(start, min(stop, entries))
        return PageCursor(self, name).span(start, stop)

    def iter_buffer(self, name: str) -> Iterator[int]:
        """Stream every entry of ``name`` page-sequentially."""
        self._check_open()
        spec = self._spec(name)
        for page_index in range(len(spec["pages"])):
            # Snapshot the page reference; later pool traffic may evict
            # it but the yielded values come from this consistent copy.
            yield from self.read_page(name, page_index)

    # -- durability ----------------------------------------------------

    def checkpoint(self) -> int:
        """Publish the current state as a new manifest generation.

        Appends the dirty pages to this generation's segment, ``fsync``\\ s
        the segment and its directory once, writes a sealed manifest and
        the ``CURRENT`` hint, then prunes generations older than the
        retention window and deletes segments no retained manifest
        references.  Cost is proportional to the *dirty* set, not the
        store size.

        Raises:
            PagedStoreError: the store is closed, or is a read-only view
                of an older generation (see :meth:`open`).
        """
        self._check_writable()
        self.pool.flush()
        writer, self._pending = self._pending, None
        if writer is not None:
            writer.seal()
            fsync_directory(self._pages_dir)
        self._generation += 1
        document = {
            "format": FROZEN_FORMAT_NAME,
            "version": FROZEN_PAGED_VERSION,
            "byteorder": self._byteorder,
            "page_bytes": self.page_bytes,
            "generation": self._generation,
            "next_segment": self._next_segment,
            "meta": self._meta,
            "page_table": self._table,
        }
        manifest_path = _manifest_path(self.directory, self._generation)
        atomic_write_document(manifest_path, document)
        fault_point("storage.manifest_corrupt", path=manifest_path)
        atomic_write_document(
            self.directory / CURRENT_NAME,
            {
                "format": CURRENT_FORMAT,
                "version": CURRENT_VERSION,
                "generation": self._generation,
            },
        )
        self._prune()
        return self._generation

    def _prune(self) -> None:
        """Drop manifests beyond retention and unreferenced segments."""
        generations = _scan_generations(self.directory)
        keep = generations[: self._retain + 1]
        referenced: set[int] = set()
        for generation in keep:
            path = _manifest_path(self.directory, generation)
            try:
                doc = read_document(path)
                _, _, _, _, _, table = _validate_manifest(doc, path.name)
            except SerializationError:
                continue  # unreadable but retained: GC nothing of it
            for spec in table.values():
                for segment, _offset, _digest in spec["pages"]:
                    referenced.add(segment)
        dropped = generations[self._retain + 1 :]
        for generation in dropped:
            _manifest_path(self.directory, generation).unlink(missing_ok=True)
        orphans = [
            path
            for segment, path in _scan_segments(self._pages_dir).items()
            if segment not in referenced
        ]
        for path in orphans:
            path.unlink(missing_ok=True)
        if orphans:
            fsync_directory(self._pages_dir)
        if dropped:
            fsync_directory(self.directory)

    # -- scrub & repair ------------------------------------------------

    def _verify_range(
        self, segment: int, offset: int, digest: str, size: int
    ) -> tuple[bytes, str | None]:
        """A page's bytes, and why they fail verification (``None``
        when they are clean)."""
        try:
            raw = self._read_range(segment, offset, size)
        except PagedStoreError as error:
            return b"", str(error)
        return raw, _page_problem(raw, digest, size)

    def _repair_page(
        self, name: str, page_index: int, segment: int, offset: int,
        digest: str, size: int,
    ) -> str | None:
        """Restore a damaged page in place from an older generation.

        Copy-on-write means a same-value write-back appends a
        byte-identical twin (same digest) to a *later* segment, so older
        manifests often place an intact copy of the damaged page
        elsewhere.  Scans retained generations newest-first for one
        whose entry at the same logical position carries the same
        digest at a different place, verifies the candidate bytes, and
        writes them over the damaged range (the live manifest keeps
        pointing there, and the range verifies again).

        Returns a description of the donor, or ``None`` when no
        generation holds a verified twin or the range cannot be
        written.
        """
        for generation in _scan_generations(self.directory):
            if generation >= self._generation:
                continue
            manifest = _manifest_path(self.directory, generation)
            try:
                doc = read_document(manifest)
                _, _, _, _, _, table = _validate_manifest(doc, manifest.name)
            except SerializationError:
                continue
            spec = table.get(name)
            if spec is None or page_index >= len(spec["pages"]):
                continue
            donor_segment, donor_offset, donor_digest = spec["pages"][page_index]
            if donor_digest != digest or (donor_segment, donor_offset) == (
                segment, offset
            ):
                continue
            raw, problem = self._verify_range(
                donor_segment, donor_offset, digest, size
            )
            if problem is not None:
                continue
            try:
                with open(self._segment_file(segment), "r+b") as handle:
                    handle.seek(offset)
                    handle.write(raw)
                    handle.flush()
                    os.fsync(handle.fileno())
            except OSError:
                return None
            return (
                f"restored from generation {generation} (donor segment "
                f"{donor_segment} @ {donor_offset})"
            )
        return None

    def scrub(self, repair: bool = True) -> ScrubReport:
        """Digest-verify every live page; quarantine and repair bad ones.

        Each page the current manifest references is read back from its
        segment range and checked against its sha256 digest and
        expected length.  The bytes of a failing page are copied to
        ``quarantine/`` (evidence is never destroyed) and, when
        ``repair`` is set, the range is rewritten in place from the
        newest older generation holding a byte-identical twin (see
        :meth:`_repair_page`).  A page with no donor keeps its bad
        bytes and the report flags a rebuild — the manifest still
        points at them, so later reads fail loudly rather than serving
        corrupt data.

        The pool is emptied first so verification reads disk, not
        cache, and emptied again afterwards so repaired bytes are what
        later reads see.

        Raises:
            PagedStoreError: dirty pages are resident — checkpoint (or
                flush) before scrubbing, so the scrub sees exactly the
                durable state it certifies.
        """
        self._check_open()
        if self.pool.dirty_pages:
            raise PagedStoreError(
                f"{self.pool.dirty_pages} dirty page(s) resident; "
                "checkpoint before scrubbing"
            )
        self.pool.drop()
        quarantine_dir = self.directory / QUARANTINE_DIRNAME
        checked = 0
        clean = 0
        repaired: list[ScrubPage] = []
        unrepairable: list[ScrubPage] = []
        for name, spec in self._table.items():
            for page_index, (segment, offset, digest) in enumerate(
                spec["pages"]
            ):
                checked += 1
                size = self._page_size(spec, page_index)
                raw, problem = self._verify_range(segment, offset, digest, size)
                if problem is None:
                    clean += 1
                    continue
                if raw:
                    quarantine_dir.mkdir(exist_ok=True)
                    stem = self._segment_file(segment).stem
                    atomic_write_bytes(
                        quarantine_dir / f"{stem}-at-{offset}{DATA_SUFFIX}", raw
                    )
                detail: str | None = None
                if repair:
                    detail = self._repair_page(
                        name, page_index, segment, offset, digest, size
                    )
                if detail is not None:
                    repaired.append(
                        ScrubPage(
                            name, page_index, segment, offset, "repaired",
                            detail,
                        )
                    )
                else:
                    unrepairable.append(
                        ScrubPage(
                            name, page_index, segment, offset,
                            "unrepairable", problem,
                        )
                    )
        self.pool.drop()
        return ScrubReport(
            generation=self._generation,
            pages_checked=checked,
            clean=clean,
            repaired=repaired,
            unrepairable=unrepairable,
        )

    def close(self, discard_dirty: bool = False) -> None:
        """Detach: drop the pool and close the pending segment.
        Un-checkpointed mutations are lost.

        Raises:
            PagedStoreError: if dirty pages are resident and
                ``discard_dirty`` is not set — call :meth:`checkpoint`
                to keep them.
        """
        if self._closed:
            return
        self.pool.drop(discard_dirty=discard_dirty)
        writer, self._pending = self._pending, None
        if writer is not None:
            writer.close()
        self._closed = True

    def __enter__(self) -> "PagedStore":
        return self

    def __exit__(
        self,
        exc_type: type[BaseException] | None,
        exc: BaseException | None,
        tb: TracebackType | None,
    ) -> None:
        # Surface the original error, not a dirty-page complaint.
        self.close(discard_dirty=exc is not None or self.pool.dirty_pages == 0)

    def __repr__(self) -> str:
        return (
            f"PagedStore({self.directory}, generation={self._generation}, "
            f"buffers={len(self._table)}, page_bytes={self.page_bytes})"
        )


class PagedBuffer(Sequence[int]):
    """Read/write sequence view of one store buffer.

    Integer indexing and step-1 slicing read through the pool; slices
    come back as ``array('q')`` (matching what slicing a real buffer
    yields).  Item assignment marks the page dirty — durable at the
    store's next :meth:`PagedStore.checkpoint`.
    """

    __slots__ = ("_store", "_name")

    def __init__(self, store: PagedStore, name: str) -> None:
        self._store = store
        self._name = name

    @property
    def name(self) -> str:
        """The buffer's name inside its store."""
        return self._name

    def __len__(self) -> int:
        return self._store.length(self._name)

    def __getitem__(self, index: int | slice) -> Any:
        if isinstance(index, slice):
            start, stop, step = index.indices(len(self))
            if step == 1:
                return self._store.read_slice(self._name, start, stop)
            return array(
                BUFFER_TYPECODE,
                (
                    self._store.read_element(self._name, position)
                    for position in range(start, stop, step)
                ),
            )
        return self._store.read_element(self._name, index)

    def __setitem__(self, position: int, value: int) -> None:
        self._store.write_element(self._name, position, value)

    def __iter__(self) -> Iterator[int]:
        return self._store.iter_buffer(self._name)

    def __repr__(self) -> str:
        return f"PagedBuffer({self._name!r}, entries={len(self)})"


class PageCursor:
    """Forward reader over one store buffer, one pool lookup per page.

    Keeps the page it read last and serves every position inside it
    from that reference, fetching through :meth:`PagedStore.read_page`
    only when a read leaves the page.  A sweep at non-decreasing
    positions — the node-ordered scans of I/O-efficient bisimulation
    (Luo et al.; Hellings et al.) — therefore reads each page it
    crosses once, even under a one-page pool.  Reading backwards is
    legal but may fetch a page again.
    """

    __slots__ = (
        "_store", "_name", "_entries", "_epp", "_page", "_base", "_stop"
    )

    def __init__(self, store: PagedStore, name: str) -> None:
        self._store = store
        self._name = name
        self._entries = store.length(name)
        self._epp = store.entries_per_page
        # Positions _base:_stop are held in _page (none yet).
        self._page = array(BUFFER_TYPECODE)
        self._base = 0
        self._stop = 0

    def _seek(self, position: int) -> None:
        if not 0 <= position < self._entries:
            raise PagedStoreError(
                f"position {position} out of range for buffer "
                f"{self._name!r} ({self._entries} entries)"
            )
        index = position // self._epp
        self._page = self._store.read_page(self._name, index)
        self._base = index * self._epp
        self._stop = self._base + len(self._page)

    def at(self, position: int) -> int:
        """The entry at ``position``."""
        if not self._base <= position < self._stop:
            self._seek(position)
        return self._page[position - self._base]

    def page_at(self, position: int) -> tuple[int, "array[int]"]:
        """The page holding ``position``, with the position of its first
        entry: for callers that read many entries of one page at once."""
        if not self._base <= position < self._stop:
            self._seek(position)
        return self._base, self._page

    def span(self, start: int, stop: int) -> "array[int]":
        """Entries ``start:stop``, reading each page they cover once."""
        base = self._base
        if base <= start and stop <= self._stop:
            return self._page[start - base:stop - base]
        out = array(BUFFER_TYPECODE)
        while start < stop:
            if not self._base <= start < self._stop:
                self._seek(start)
            end = min(stop, self._stop)
            out.extend(self._page[start - self._base:end - self._base])
            start = end
        return out


# ----------------------------------------------------------------------
# Paged CSR snapshots
# ----------------------------------------------------------------------


class PagedCSRGraph:
    """A CSR snapshot whose buffers live in a :class:`PagedStore`.

    Exposes the :class:`~repro.graph.columnar.CSRBuffers` read surface
    (``label_ids``/offsets/targets as :class:`PagedBuffer` sequences,
    ``num_nodes``), so any engine written against that protocol — in
    particular :class:`~repro.partition.columnar.ColumnarEngine` and
    its external subclass — runs unmodified with a bounded resident
    set.  It holds :data:`CORE_CSR_BUFFERS` and the label table, which
    is what refinement reads, whether the source was a data or an
    index graph; other buffers and meta keys in the store (extents,
    ``k`` and ``"sealed"``, which older releases wrote) are ignored.
    """

    def __init__(self, store: PagedStore) -> None:
        """Wrap an attached store (use :meth:`create` / :meth:`open`)."""
        names = set(store.buffer_names())
        missing = [name for name in CORE_CSR_BUFFERS if name not in names]
        if missing:
            raise PagedStoreError(
                f"store lacks CSR buffers: {', '.join(missing)}"
            )
        meta = store.meta
        labels = meta.get("labels")
        if not isinstance(labels, list) or not all(
            isinstance(name, str) for name in labels
        ):
            raise PagedStoreError("store meta lacks a 'labels' string list")
        num_nodes = meta.get("num_nodes")
        if not _is_int(num_nodes) or num_nodes < 0:
            raise PagedStoreError("store meta lacks a valid 'num_nodes'")
        if store.length("label_ids") != num_nodes:
            raise PagedStoreError(
                "'num_nodes' disagrees with the label_ids buffer"
            )
        if store.length("child_offsets") != num_nodes + 1:
            raise PagedStoreError("child_offsets must hold num_nodes + 1")
        if store.length("parent_offsets") != num_nodes + 1:
            raise PagedStoreError("parent_offsets must hold num_nodes + 1")
        if store.length("child_targets") != store.length("parent_targets"):
            raise PagedStoreError(
                "child and parent target buffers disagree on edge count"
            )
        self._store = store
        self._labels = list(labels)
        self._num_nodes = num_nodes
        self.label_ids = store.buffer("label_ids")
        self.child_offsets = store.buffer("child_offsets")
        self.child_targets = store.buffer("child_targets")
        self.parent_offsets = store.buffer("parent_offsets")
        self.parent_targets = store.buffer("parent_targets")

    # -- construction --------------------------------------------------

    @classmethod
    def create(
        cls,
        directory: str | Path,
        graph: Any,
        *,
        labels: Sequence[str] | None = None,
        page_bytes: int | None = None,
        budget_bytes: int | None = None,
        retain: int = DEFAULT_RETAIN,
        retry: RetryPolicy | None = None,
    ) -> "PagedCSRGraph":
        """Page a graph's frozen CSR view out to ``directory``.

        ``graph`` may be a ``DataGraph`` or ``IndexGraph`` (its
        ``freeze()`` view is paged, with the label table of the data
        graph) or a bare :class:`~repro.graph.columnar.CSRGraph` — pass
        ``labels`` then, or synthetic names are generated.  The store
        holds exactly :data:`CORE_CSR_BUFFERS`.
        """
        from repro.indexes.base import IndexGraph

        if isinstance(graph, CSRGraph):
            view = graph
            if labels is None:
                labels = [f"label_{i}" for i in range(view.num_labels)]
        else:
            view = graph.freeze()
            if labels is None:
                # An index graph's nodes carry its data graph's label ids.
                data = graph.graph if isinstance(graph, IndexGraph) else graph
                labels = data.label_names()
        labels = list(labels)
        if len(labels) < view.num_labels:
            raise PagedStoreError(
                f"{len(labels)} label names for {view.num_labels} label ids"
            )
        buffers: dict[str, Iterable[int]] = {
            name: getattr(view, name) for name in CORE_CSR_BUFFERS
        }
        meta = {
            "labels": labels,
            "num_nodes": view.num_nodes,
            "num_edges": view.num_edges,
            "num_labels": view.num_labels,
        }
        store = PagedStore.create(
            directory,
            buffers,
            page_bytes=page_bytes,
            budget_bytes=budget_bytes,
            meta=meta,
            retain=retain,
            retry=retry,
        )
        return cls(store)

    @classmethod
    def open(
        cls,
        directory: str | Path,
        *,
        budget_bytes: int | None = None,
        generation: int | None = None,
        retain: int = DEFAULT_RETAIN,
        retry: RetryPolicy | None = None,
    ) -> "PagedCSRGraph":
        """Attach to a paged CSR snapshot created earlier."""
        return cls(
            PagedStore.open(
                directory,
                budget_bytes=budget_bytes,
                generation=generation,
                retain=retain,
                retry=retry,
            )
        )

    # -- CSRBuffers surface and friends --------------------------------

    @property
    def store(self) -> PagedStore:
        """The underlying paged store."""
        return self._store

    @property
    def num_nodes(self) -> int:
        """Number of nodes in the snapshot."""
        return self._num_nodes

    @property
    def num_edges(self) -> int:
        """Number of edges in the snapshot."""
        return self._store.length("child_targets")

    @property
    def num_labels(self) -> int:
        """Size of the label table."""
        return len(self._labels)

    @property
    def stats(self) -> PoolStats:
        """Pool counters for this snapshot's store."""
        return self._store.stats

    @property
    def footprint_bytes(self) -> int:
        """Bytes the equivalent in-memory CSR buffers would occupy."""
        return self._store.footprint_bytes

    def label_names(self) -> tuple[str, ...]:
        """The label table, in id order."""
        return tuple(self._labels)

    def children(self, node: int) -> "array[int]":
        """The children of ``node`` (reads at most two offset pages)."""
        lo = self._store.read_element("child_offsets", node)
        hi = self._store.read_element("child_offsets", node + 1)
        return self._store.read_slice("child_targets", lo, hi)

    def parents(self, node: int) -> "array[int]":
        """The parents of ``node``."""
        lo = self._store.read_element("parent_offsets", node)
        hi = self._store.read_element("parent_offsets", node + 1)
        return self._store.read_slice("parent_targets", lo, hi)

    # -- materialisation -----------------------------------------------

    def to_csr(self) -> CSRGraph:
        """Materialise the snapshot as in-memory :class:`CSRGraph`."""
        def whole(name: str) -> "array[int]":
            return self._store.read_slice(name, 0, self._store.length(name))

        return CSRGraph(
            whole("label_ids"),
            whole("child_offsets"),
            whole("child_targets"),
            whole("parent_offsets"),
            whole("parent_targets"),
            num_labels=self.num_labels,
        )

    # -- lifecycle -----------------------------------------------------

    def checkpoint(self) -> int:
        """Publish mutations as a new store generation."""
        return self._store.checkpoint()

    def scrub(self, repair: bool = True) -> ScrubReport:
        """Digest-verify (and repair) every live page of the store."""
        return self._store.scrub(repair=repair)

    def close(self, discard_dirty: bool = False) -> None:
        """Detach from the store."""
        self._store.close(discard_dirty=discard_dirty)

    def __enter__(self) -> "PagedCSRGraph":
        return self

    def __exit__(
        self,
        exc_type: type[BaseException] | None,
        exc: BaseException | None,
        tb: TracebackType | None,
    ) -> None:
        self._store.__exit__(exc_type, exc, tb)

    def __repr__(self) -> str:
        return (
            f"PagedCSRGraph(nodes={self.num_nodes}, "
            f"edges={self.num_edges}, generation={self._store.generation})"
        )
