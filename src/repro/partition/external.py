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

Each key is written straight to its batch position as the sweep
computes it, so the inherited round logic sees exactly the sequence the
in-memory sweep would have produced.  The keys are node-sized state,
like ``block_of``, and stay resident.  Their values (``-1`` sentinel,
single block id as a plain ``int``, sorted dedup tuple otherwise) are
bit-identical to the in-memory sweeps, so the grouping, and therefore
the partition, is too.  The dirty set is a set, so its visiting order
changes nothing downstream.
"""

from __future__ import annotations

import tempfile
from itertools import chain
from pathlib import Path
from types import TracebackType
from typing import Any

from repro.partition import columnar
from repro.partition.columnar import (
    _EMPTY_KEY,
    ColumnarEngine,
    concat_ranges,
    run_starts,
)
from repro.storage.paged import PageCursor, PagedCSRGraph, PoolStats


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

    The driver surface (``run_kbisim`` / ``run_fixpoint`` /
    ``run_leveled`` / ``refine_rounds``) is inherited unchanged.
    """

    def __init__(
        self,
        graph: Any,
        *,
        budget_bytes: int | None = None,
        page_bytes: int | None = None,
    ) -> None:
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
        each key lands at its batch position.  Key values match the
        columnar engine's sweep exactly.
        """
        store = self.paged.store
        offsets = PageCursor(store, "parent_offsets")
        targets = PageCursor(store, "parent_targets")
        block_of = self._block_of
        out: list[int | tuple[int, ...]] = [_EMPTY_KEY] * len(hash_nodes)
        for position in sorted(
            range(len(hash_nodes)), key=hash_nodes.__getitem__
        ):
            node = hash_nodes[position]
            start = offsets.at(node)
            end = offsets.at(node + 1)
            if end == start:
                continue  # the parentless sentinel is already in place
            if end == start + 1:
                out[position] = block_of[targets.at(start)]
                continue
            seen = {block_of[target] for target in targets.span(start, end)}
            if len(seen) == 1:
                out[position] = next(iter(seen))
            else:
                out[position] = tuple(sorted(seen))
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

    # ------------------------------------------------------------------
    # Introspection and lifecycle
    # ------------------------------------------------------------------

    @property
    def stats(self) -> PoolStats:
        """The underlying pool's cumulative counters."""
        return self.paged.stats

    @property
    def spilled_runs(self) -> int:
        """Always 0: signature keys stay in memory.

        Kept only because the benchmark's tracer
        (``perfbench/tracing.py``) reads it around every external run.
        """
        return 0

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
