"""Out-of-core refinement over a paged CSR snapshot (third engine).

:class:`ExternalEngine` is the :class:`ColumnarEngine` round loop —
candidate selection, freeze buckets, largest-group-keeps-its-id splits,
all inherited *verbatim*, which is what makes it partition-identical
round for round — re-based onto a :class:`~repro.storage.paged.
PagedCSRGraph` whose buffers live behind an LRU pool instead of in
memory.  The memory model is the semi-external one of I/O-efficient
bisimulation construction (Luo et al.; see PAPERS.md): node-sized state
(the live ``block_of`` assignment and the block member lists) stays
resident, while everything edge-sized — parent/child offsets and
targets — is read through pages under a byte budget.

The engine replaces the reads that touch the paged buffers — the label
scan, the signature sweep and the dirty-children step — and reads every
buffer page-at-a-time in **ascending node order**, one pool lookup per
page.  The columnar engine visits the signature batch in job order
(frozen-bucket order) and the moved nodes in moved-group order, which
over paged buffers would be a random-access storm; here both are sorted
by node first, so the offset and target reads advance monotonically
through the pages — one miss per page even under a one-page budget.

Both kinds of round read through :class:`~repro.storage.paged.
PageCursor`.  A scalar round reads entry by entry; an array round
(numpy present, see :mod:`repro.partition.columnar`) gathers whole
pages into arrays, fetching them in exactly the order the scalar sweep
does, so pool hits, misses and read faults come out the same either
way.

Each computed key is recorded against its batch position in a
:class:`~repro.storage.spill.SpillRuns` reorder buffer that spills
sorted runs to disk when the round's working set exceeds its budget; a
k-way merge then hands the keys back in exactly the batch order the
inherited round logic expects.  The key *values* (``-1`` sentinel,
single block id as a plain ``int``, sorted dedup tuple otherwise) are
bit-identical to the in-memory sweeps, so the grouping — and therefore
the partition — is too.  An array round reorders keys that fit the
budget in memory, which is what the buffer does when nothing spills,
and sends a batch over budget through the same buffer, record for
record.  The dirty set is a set, so its visiting order changes nothing
downstream.
"""

from __future__ import annotations

import struct
import tempfile
from array import array
from itertools import chain
from pathlib import Path
from types import TracebackType
from typing import Any

from repro.graph.columnar import BUFFER_TYPECODE, CSRGraph
from repro.partition import columnar
from repro.partition.columnar import (
    _EMPTY_KEY,
    ColumnarEngine,
    array_signature_keys,
    concat_ranges,
    run_starts,
)
from repro.storage.paged import PageCursor, PagedCSRGraph, PoolStats
from repro.storage.spill import FRAME_BYTES, SpillRuns, resolve_spill_budget

#: Codec of a one-key payload: one native int64, the bytes an
#: ``array(BUFFER_TYPECODE)`` of that key holds, without the array.
_ONE_KEY = struct.Struct("=" + BUFFER_TYPECODE)

#: One-element encoded payload for the parentless sentinel key.
_EMPTY_PAYLOAD = _ONE_KEY.pack(_EMPTY_KEY)


class ExternalEngine(ColumnarEngine):
    """Batch refinement whose adjacency lives in a paged store.

    Args:
        graph: a :class:`PagedCSRGraph` (used as-is, left open on
            :meth:`close`), or any graph the columnar engine accepts —
            it is frozen once and *paged out to a temporary store*,
            owned and deleted by this engine, so refinement itself runs
            with a bounded resident set either way.
        budget_bytes: LRU pool budget for an engine-owned store
            (``None`` reads ``DKINDEX_POOL_BUDGET``); ignored when a
            paged graph is passed in, which brings its own pool.
        page_bytes: page size for an engine-owned store (``None`` reads
            ``DKINDEX_PAGE_BYTES``); ignored for a passed-in store.
        spill_bytes: in-memory working-set cap per signature sweep
            before ``(position, key)`` runs spill to disk (``None``
            reads ``DKINDEX_SPILL_BUDGET``).

    The driver surface (``run_kbisim`` / ``run_fixpoint`` /
    ``run_leveled`` / ``refine_rounds``) is inherited unchanged.
    """

    def __init__(
        self,
        graph: Any,
        *,
        budget_bytes: int | None = None,
        page_bytes: int | None = None,
        spill_bytes: int | None = None,
    ) -> None:
        # Resolved first: an invalid budget must fail before the page-out.
        self._spill_bytes = resolve_spill_budget(spill_bytes)
        self._tempdir: tempfile.TemporaryDirectory[str] | None = None
        self._owns_store = False
        if isinstance(graph, PagedCSRGraph):
            paged = graph
        else:
            self._tempdir = tempfile.TemporaryDirectory(
                prefix="dkindex-external-"
            )
            try:
                paged = PagedCSRGraph.create(
                    Path(self._tempdir.name) / "store",
                    graph,
                    page_bytes=page_bytes,
                    budget_bytes=budget_bytes,
                )
            except BaseException:
                # A failed page-out (disk full, injected fault) must not
                # leave its partial pages behind for the finalizer.
                self._tempdir.cleanup()
                raise
            self._owns_store = True
        self.paged = paged
        self._spills = 0
        self._bind(paged)

    # ------------------------------------------------------------------
    # The node-ordered sweeps
    # ------------------------------------------------------------------

    def _signature_keys(
        self, hash_nodes: list[int]
    ) -> list["int | tuple[int, ...]"]:
        """Keys for the batch, computed node-ascending, returned batch-order.

        Sorting the batch by node id turns the parent reads into a
        monotone sweep over the offset and target pages, each read once;
        the spill buffer restores batch order afterwards.  Key values
        match the inherited scalar sweep exactly.
        """
        store = self.paged.store
        offsets = PageCursor(store, "parent_offsets")
        targets = PageCursor(store, "parent_targets")
        block_of = self._block_of
        order = sorted(
            range(len(hash_nodes)), key=hash_nodes.__getitem__
        )
        out: list[int | tuple[int, ...]] = [_EMPTY_KEY] * len(hash_nodes)
        # Spill retries/give-ups land in the same PoolStats the page
        # I/O uses, so one counter pair prices the whole fault story.
        with SpillRuns(
            budget_bytes=self._spill_bytes,
            stats=store.stats,
            retry=store.retry,
        ) as runs:
            for position in order:
                node = hash_nodes[position]
                start = offsets.at(node)
                end = offsets.at(node + 1)
                if end == start:
                    runs.add(position, _EMPTY_PAYLOAD)
                    continue
                if end == start + 1:
                    payload = _ONE_KEY.pack(block_of[targets.at(start)])
                else:
                    seen = {
                        block_of[target]
                        for target in targets.span(start, end)
                    }
                    payload = array(
                        BUFFER_TYPECODE, sorted(seen)
                    ).tobytes()
                runs.add(position, payload)
            self._spills += runs.runs_spilled
            for position, payload in runs.merged():
                # One element is an int key (single shared block, or the
                # -1 sentinel); multi-element payloads are always the
                # sorted dedup of >= 2 distinct blocks, hence tuples —
                # identical to the in-memory key domain.
                if len(payload) == _ONE_KEY.size:
                    out[position] = _ONE_KEY.unpack(payload)[0]
                else:
                    values = array(BUFFER_TYPECODE)
                    values.frombytes(payload)
                    out[position] = tuple(values)
        return out

    def _dirty_children(self, moved: list[list[int]]) -> set[int]:
        """The children of every moved node, swept node-ascending.

        Same set as the inherited step, which reads child lists in
        moved-group order; sorting first reads each child-offset and
        child-target page once.
        """
        store = self.paged.store
        offsets = PageCursor(store, "child_offsets")
        targets = PageCursor(store, "child_targets")
        dirty: set[int] = set()
        for node in sorted(chain.from_iterable(moved)):
            start = offsets.at(node)
            end = offsets.at(node + 1)
            if end > start:
                dirty.update(targets.span(start, end))
        return dirty

    # ------------------------------------------------------------------
    # The array rounds: page-ordered gathers
    # ------------------------------------------------------------------

    def _label_array(self) -> Any:
        """Every node's label, read one page at a time in order."""
        np = columnar._numpy
        store = self.paged.store
        pages = -(-store.length("label_ids") // store.entries_per_page)
        return np.concatenate(
            [
                np.frombuffer(store.read_page("label_ids", index), dtype=np.int64)
                for index in range(pages)
            ]
        )

    def _gather(self, offsets: str, targets: str, nodes: Any) -> tuple[Any, Any]:
        """Adjacency lists of ascending ``nodes``, one page at a time.

        Pages are fetched in the order the scalar sweep's two
        :class:`PageCursor` objects fetch them: per node, the offset
        pages of ``node`` and ``node + 1``, then the target pages its
        list covers, each fetched when a read leaves the page read
        last.
        """
        np = columnar._numpy
        store = self.paged.store
        per_page = store.entries_per_page
        count = len(nodes)
        positions = np.empty(2 * count, dtype=np.int64)
        positions[0::2] = nodes
        positions[1::2] = nodes + 1
        bounds = np.empty(2 * count, dtype=np.int64)
        offset_cursor = PageCursor(store, offsets)
        target_cursor = PageCursor(store, targets)
        chunks: list[Any] = []
        done = 0
        pages = run_starts(positions // per_page).tolist() + [2 * count]
        for first, stop in zip(pages, pages[1:]):
            # A new offset page: the nodes before it have both offsets,
            # and the cursors would read their targets first.
            node = first // 2
            if node > done:
                chunks.append(
                    _read_ranges(target_cursor, bounds[2 * done:2 * node], per_page)
                )
                done = node
            _read_page_into(offset_cursor, positions[first:stop], bounds[first:stop])
        chunks.append(_read_ranges(target_cursor, bounds[2 * done:], per_page))
        return bounds[1::2] - bounds[0::2], np.concatenate(chunks)

    def _array_keys(self, nodes: Any, blocks: Any) -> Any:
        """Signature keys of ascending ``nodes``; a batch over the spill
        budget goes through :class:`SpillRuns` as in the scalar sweep."""
        degrees, parents = self._gather("parent_offsets", "parent_targets", nodes)
        keys, multisets = array_signature_keys(
            self._block_view(), degrees, parents
        )
        # The buffer's accounting: a frame per record and one int64 per
        # key element; it spills exactly when the total passes the budget.
        elements = len(keys) + sum(
            len(multisets[-2 - key]) - 1
            for key in keys[keys < _EMPTY_KEY].tolist()
        )
        if elements * _ONE_KEY.size + len(keys) * FRAME_BYTES <= self._spill_bytes:
            return keys
        return self._spilled_keys(blocks, keys, multisets)

    def _spilled_keys(
        self, blocks: Any, keys: Any, multisets: list[tuple[int, ...]]
    ) -> Any:
        """Reorder keys through the spill buffer: the scalar sweep's
        records, positions and order, so runs come out byte-identical."""
        np = columnar._numpy
        # Batch position: job blocks ascending, members ascending.
        order = np.argsort(blocks, kind="stable")
        positions = np.empty(len(keys), dtype=np.int64)
        positions[order] = np.arange(len(keys))
        order_list = order.tolist()
        store = self.paged.store
        out = np.empty(len(keys), dtype=np.int64)
        table: dict[tuple[int, ...], int] = {}
        with SpillRuns(
            budget_bytes=self._spill_bytes,
            stats=store.stats,
            retry=store.retry,
        ) as runs:
            for position, key in zip(positions.tolist(), keys.tolist()):
                if key >= _EMPTY_KEY:
                    runs.add(position, _ONE_KEY.pack(key))
                else:
                    runs.add(
                        position,
                        array(BUFFER_TYPECODE, multisets[-2 - key]).tobytes(),
                    )
            self._spills += runs.runs_spilled
            for position, payload in runs.merged():
                if len(payload) == _ONE_KEY.size:
                    key = _ONE_KEY.unpack(payload)[0]
                else:
                    values = array(BUFFER_TYPECODE)
                    values.frombytes(payload)
                    key = -2 - table.setdefault(tuple(values), len(table))
                out[order_list[position]] = key
        return out

    # ------------------------------------------------------------------
    # Introspection and lifecycle
    # ------------------------------------------------------------------

    @property
    def stats(self) -> PoolStats:
        """The underlying pool's cumulative counters."""
        return self.paged.stats

    @property
    def spilled_runs(self) -> int:
        """Sorted signature runs spilled to disk across all rounds."""
        return self._spills

    def materialize(self) -> CSRGraph:
        """The snapshot as an in-memory :class:`CSRGraph` (for tests)."""
        return self.paged.to_csr()

    def close(self) -> None:
        """Release resources; delete the temp store if this engine owns it.

        A :class:`PagedCSRGraph` passed in by the caller is left open —
        they own its lifecycle.
        """
        if self._owns_store:
            self._owns_store = False
            self.paged.close(discard_dirty=True)
        if self._tempdir is not None:
            self._tempdir.cleanup()
            self._tempdir = None

    def __enter__(self) -> "ExternalEngine":
        return self

    def __exit__(
        self,
        exc_type: type[BaseException] | None,
        exc: BaseException | None,
        tb: TracebackType | None,
    ) -> None:
        self.close()


def _read_page_into(cursor: PageCursor, positions: Any, out: Any) -> None:
    """``out[i]`` = the entry at ``positions[i]``, all on one page."""
    base, page = cursor.page_at(int(positions[0]))
    out[:] = columnar._numpy.frombuffer(page, dtype=columnar._numpy.int64)[
        positions - base
    ]


def _read_ranges(cursor: PageCursor, bounds: Any, per_page: int) -> Any:
    """The entries of the ascending ranges ``bounds[0::2] : bounds[1::2]``,
    read page by page through ``cursor``."""
    np = columnar._numpy
    starts = bounds[0::2]
    positions = concat_ranges(starts, bounds[1::2] - starts)
    out = np.empty(len(positions), dtype=np.int64)
    pages = run_starts(positions // per_page).tolist() + [len(positions)]
    for first, stop in zip(pages, pages[1:]):
        _read_page_into(cursor, positions[first:stop], out[first:stop])
    return out
