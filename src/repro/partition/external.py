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

Only the signature sweep is replaced.  The columnar engine hashes the
round's batch in job order (frozen-bucket order), which over paged
buffers would be a random-access storm; this engine instead visits the
batch in **ascending node order**, so the parent-offset and
parent-target reads advance monotonically through the pages — one miss
per page even under a one-page budget.  Each computed key is recorded
against its batch position in a :class:`~repro.storage.spill.
SpillRuns` reorder buffer that spills sorted runs to disk when the
round's working set exceeds its budget; a k-way merge then hands the
keys back in exactly the batch order the inherited round logic expects.
The key *values* (``-1`` sentinel, single block id as a plain ``int``,
sorted dedup tuple otherwise) are bit-identical to the in-memory
sweeps, so the grouping — and therefore the partition — is too.
"""

from __future__ import annotations

import tempfile
from array import array
from pathlib import Path
from types import TracebackType
from typing import Any

from repro.graph.columnar import BUFFER_TYPECODE, CSRGraph
from repro.partition.columnar import _EMPTY_KEY, ColumnarEngine
from repro.storage.paged import PagedCSRGraph, PoolStats
from repro.storage.spill import SpillRuns, resolve_spill_budget

#: One-element encoded payload for the parentless sentinel key.
_EMPTY_PAYLOAD = array(BUFFER_TYPECODE, [_EMPTY_KEY]).tobytes()


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
        self._spill_bytes = resolve_spill_budget(spill_bytes)
        self._spills = 0
        self._bind(paged)

    # ------------------------------------------------------------------
    # The page-ordered signature sweep
    # ------------------------------------------------------------------

    def _signature_keys(
        self, hash_nodes: list[int]
    ) -> list["int | tuple[int, ...]"]:
        """Keys for the batch, computed node-ascending, returned batch-order.

        Sorting the batch by node id turns the parent reads into a
        monotone sweep over the offset and target pages; the spill
        buffer restores batch order afterwards.  Key values match the
        inherited scalar sweep exactly.
        """
        store = self.paged.store
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
                start = store.read_element("parent_offsets", node)
                end = store.read_element("parent_offsets", node + 1)
                if end == start:
                    runs.add(position, _EMPTY_PAYLOAD)
                    continue
                targets = store.read_slice("parent_targets", start, end)
                if len(targets) == 1:
                    payload = array(
                        BUFFER_TYPECODE, [block_of[targets[0]]]
                    ).tobytes()
                else:
                    seen = {block_of[target] for target in targets}
                    payload = array(
                        BUFFER_TYPECODE, sorted(seen)
                    ).tobytes()
                runs.add(position, payload)
            self._spills += runs.runs_spilled
            for position, payload in runs.merged():
                values = array(BUFFER_TYPECODE)
                values.frombytes(payload)
                # One element is an int key (single shared block, or the
                # -1 sentinel); multi-element payloads are always the
                # sorted dedup of >= 2 distinct blocks, hence tuples —
                # identical to the in-memory key domain.
                out[position] = (
                    values[0] if len(values) == 1 else tuple(values)
                )
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
