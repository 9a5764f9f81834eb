"""Columnar batch refinement over frozen CSR buffers (the default engine).

:class:`ColumnarEngine` runs the refinement drivers — ``run_kbisim`` /
``run_fixpoint`` / ``run_leveled`` / ``refine_rounds`` — as *batch
sweeps* over the flat buffers of a
:class:`~repro.graph.columnar.CSRGraph` snapshot, with exact
freeze-bucket semantics so D(k) leveled refinement matches the
reference engine round for round:

**Dirty-block rounds.**  Two co-members of a block can only separate in
round ``r+1`` if some parent's block changed in round ``r``, and since
the largest group of a split keeps its block id, "changed" means "was
moved into a freshly created block".  After each round only the
*children of moved nodes* are dirty, and a block is re-processed only
when it holds a dirty participating member — or, with per-node levels,
a member whose level just expired (per-round *freeze buckets*, ``level
+ 1 → nodes``, find those in O(1)), because freezing always separates
frozen from participating members.  Rounds stop at the first round that
changes nothing.

**Flat state, updated in place.**  The node→block map is one ``array``
(``'q'``) mutated in place as blocks split, so only *moved* nodes are
rewritten: a changing round costs O(moved nodes), not an O(num_nodes)
copy.  A :class:`~repro.partition.blocks.Partition` is materialised
once, at the end of the run (or per round only when
:meth:`refine_rounds` snapshots are requested).

**Contiguous signature sweep.**  Parent sets are contiguous CSR slices:
a single-parent node's signature is one flat-buffer read interned as a
plain ``int`` (no 1-tuple allocation, no tuple hashing), the empty
signature is the sentinel ``-1``, and only genuinely multi-block parent
sets — a small minority in document-shaped graphs — fall back to a
sorted dedup tuple.  With the optional ``fast`` extra installed
(``pip install .[fast]``), the zero/single-parent majority of each batch
is computed by vectorised numpy gathers over the same buffers without
copying them; the stdlib-``array`` path stands alone and produces
bit-identical keys.

**Shared-memory parallel hashing.**  With ``jobs > 1`` the engine maps
the parent CSR, the live ``block_of`` array and a per-round hash-node
scratch into ``multiprocessing.shared_memory`` segments, then forks one
pool *per run* (not per round): workers inherit the mapped segments, so
each round ships only ``(start, end)`` chunk bounds and receives
signature keys back — the adjacency is never pickled, and the parent's
in-place ``block_of`` writes are visible to the already-forked workers
through the shared mapping.  Workers only read the segments and return
results, which keeps them pure under the DK109 fork-safety rule.  The
parallel path is bit-for-bit identical to the serial one.

The engine is round-for-round partition-identical to the reference
:class:`~repro.partition.engine.RefinementEngine`
(``tests/test_columnar_engine.py`` and
``tests/test_engine_equivalence.py`` verify all drivers on trees,
shared-subtree DAGs and cyclic IDREF graphs).
"""

from __future__ import annotations

import importlib
import multiprocessing
import multiprocessing.pool
from array import array
from multiprocessing import shared_memory
from types import TracebackType
from typing import Any, Iterator, Sequence

from repro.graph.columnar import (
    BUFFER_TYPECODE,
    CSRBuffers,
    CSRGraph,
    csr_from_parent_adjacency,
)
from repro.partition.blocks import Partition
from repro.partition.engine import (
    LabeledAdjacency,
    check_levels,
    resolve_jobs,
)

_numpy: Any = None
try:  # pragma: no cover - exercised implicitly on numpy-less installs
    _numpy = importlib.import_module("numpy")
except ImportError:
    _numpy = None

#: Minimum number of to-be-hashed nodes in a round before the parallel
#: path is worth a pool dispatch; below it the serial sweep is faster.
PARALLEL_NODE_THRESHOLD = 2048

#: Minimum hash-batch size before the vectorised numpy sweep pays for
#: its gather/array setup; below it the scalar loop is faster.
NUMPY_NODE_THRESHOLD = 256

#: Signature key of a parentless (root-like) node.  Block ids are >= 0,
#: so the sentinel can never collide with a single-parent key.
_EMPTY_KEY = -1

# ----------------------------------------------------------------------
# Shared-memory worker plumbing.
#
# The segments are created and filled by the parent, the module globals
# below are set, and only then is the fork pool created — the children
# inherit the *mapped* segments, so the parent's later in-place writes
# (block assignments each round, the hash-node scratch) are visible to
# them without re-forking and without pickling any buffer.  Workers
# read the views and return signature keys; they never write.
# ----------------------------------------------------------------------

_SHM_PARENT_OFFSETS: "memoryview | None" = None
_SHM_PARENT_TARGETS: "memoryview | None" = None
_SHM_BLOCK_OF: "memoryview | None" = None
_SHM_HASH_NODES: "memoryview | None" = None


def _columnar_signature_chunk(
    bounds: tuple[int, int],
) -> list["int | tuple[int, ...]"]:
    """Signature keys for one contiguous chunk of the round's batch."""
    po = _SHM_PARENT_OFFSETS
    pt = _SHM_PARENT_TARGETS
    block_of = _SHM_BLOCK_OF
    nodes = _SHM_HASH_NODES
    assert (
        po is not None
        and pt is not None
        and block_of is not None
        and nodes is not None
    )
    out: list[int | tuple[int, ...]] = []
    append = out.append
    for position in range(bounds[0], bounds[1]):
        node = nodes[position]
        start = po[node]
        end = po[node + 1]
        if end == start:
            append(_EMPTY_KEY)
        elif end == start + 1:
            append(block_of[pt[start]])
        else:
            seen = {block_of[pt[i]] for i in range(start, end)}
            if len(seen) == 1:
                append(next(iter(seen)))
            else:
                append(tuple(sorted(seen)))
    return out


class ColumnarEngine:
    """Batch refinement over a frozen columnar snapshot.

    State is re-initialised by every driver call, so one instance can
    serve several runs.

    Args:
        graph: a :class:`CSRGraph` snapshot, or any labeled-adjacency
            graph — ``DataGraph``/``IndexGraph`` are frozen via their
            ``freeze()`` (cached, refresh-on-mutate), anything else gets
            a one-off snapshot via :func:`csr_from_parent_adjacency`.
        jobs: worker processes for shared-memory signature hashing —
            ``None`` reads ``DKINDEX_JOBS``, ``<= 1`` is serial.
    """

    def __init__(
        self,
        graph: "LabeledAdjacency | CSRGraph",
        jobs: int | None = None,
    ) -> None:
        if isinstance(graph, CSRGraph):
            csr: CSRBuffers = graph
        else:
            freeze = getattr(graph, "freeze", None)
            if callable(freeze):
                csr = freeze()
            else:
                csr = csr_from_parent_adjacency(
                    list(graph.label_ids), list(graph.parents)
                )
        self._bind(csr, resolve_jobs(jobs))

    def _bind(self, csr: CSRBuffers, jobs: int) -> None:
        """Attach a snapshot and reset all engine state.

        Split out of ``__init__`` so subclasses that obtain their
        snapshot differently (the external engine pages it from disk)
        can share the state layout without re-freezing anything.
        """
        self.csr = csr
        self.jobs = jobs
        self._num_nodes = csr.num_nodes
        # Live refinement state (filled by _init_run).
        self._block_of: "array[int] | memoryview" = array(BUFFER_TYPECODE)
        self._blocks: list[list[int]] = []
        # Shared-memory run state (filled lazily by _ensure_parallel).
        self._pool: multiprocessing.pool.Pool | None = None
        self._segments: list[shared_memory.SharedMemory] = []
        self._views: list[memoryview] = []
        self._parallel_failed = False

    # ------------------------------------------------------------------
    # Drivers
    # ------------------------------------------------------------------

    def initial_partition(self) -> Partition:
        """The 0-bisimulation (label) partition the rounds start from."""
        return Partition.from_keys(list(self.csr.label_ids))

    def run_kbisim(self, k: int) -> Partition:
        """The k-bisimulation partition (A(k) equivalence).

        Raises:
            ValueError: if ``k`` is negative.
        """
        if k < 0:
            raise ValueError(f"k must be non-negative, got {k}")
        try:
            for _ in self._rounds_inplace(None, k):
                pass
            return self._take_partition()
        finally:
            self._release_parallel()

    def run_fixpoint(self) -> tuple[Partition, int]:
        """The full-bisimulation fixpoint (1-index equivalence).

        Returns ``(partition, rounds)``; ``rounds`` counts the rounds
        that changed the partition (the graph's bisimulation depth).
        """
        rounds = 0
        try:
            for _ in self._rounds_inplace(None, None):
                rounds += 1
            return self._take_partition(), rounds
        finally:
            self._release_parallel()

    def run_leveled(self, node_levels: Sequence[int]) -> Partition:
        """Per-node bounded bisimulation (the D(k) construction core).

        Raises:
            ValueError: if ``node_levels`` has the wrong length or any
                negative entry.
        """
        check_levels(node_levels, self._num_nodes)
        try:
            for _ in self._rounds_inplace(node_levels, None):
                pass
            return self._take_partition()
        finally:
            self._release_parallel()

    def refine_rounds(
        self,
        node_levels: Sequence[int] | None = None,
        max_rounds: int | None = None,
    ) -> Iterator[Partition]:
        """Yield a partition snapshot after every *changing* round.

        Starts from the label partition; stops at the first round that
        changes nothing, after ``max_rounds`` rounds, or — with
        ``node_levels`` — after round ``max(node_levels)``, whichever
        comes first; in round ``r`` only nodes with
        ``node_levels[node] >= r`` participate — the reference engine's
        rules.  Snapshots copy the live flat state, so prefer the
        ``run_*`` drivers when only the final partition matters.
        """
        rounds = self._rounds_inplace(node_levels, max_rounds)
        try:
            for _ in rounds:
                yield self._snapshot()
        finally:
            # A consumer that abandons this generator mid-run (or whose
            # exception traceback keeps the suspended frame alive) must
            # not strand the shared-memory segments until whenever the
            # GC gets around to the inner generator: close it *now* and
            # release deterministically.  _release_parallel is
            # idempotent, so the inner finally running first is fine.
            rounds.close()
            self._release_parallel()

    def close(self) -> None:
        """Release every process/shared-memory resource (idempotent).

        The drivers already release on success *and* on error; call
        this (or use the engine as a context manager) as a final
        belt-and-braces when a run was abandoned from the outside —
        e.g. a ``refine_rounds`` consumer that stopped iterating.
        """
        self._release_parallel()

    def __enter__(self) -> "ColumnarEngine":
        return self

    def __exit__(
        self,
        exc_type: type[BaseException] | None,
        exc: BaseException | None,
        tb: TracebackType | None,
    ) -> None:
        self.close()

    # ------------------------------------------------------------------
    # The in-place round loop
    # ------------------------------------------------------------------

    def _rounds_inplace(
        self,
        node_levels: Sequence[int] | None,
        max_rounds: int | None,
    ) -> Iterator[None]:
        """Run rounds in place, yielding once per changing round."""
        self._init_run()
        try:
            limit = max_rounds
            freeze_round_of: dict[int, list[int]] = {}
            if node_levels is not None:
                level_cap = max(node_levels, default=0)
                limit = level_cap if limit is None else min(limit, level_cap)
                for node, level in enumerate(node_levels):
                    freeze_round_of.setdefault(level + 1, []).append(node)

            co = self.csr.child_offsets
            ct = self.csr.child_targets
            # Round 1 considers every node; later rounds only dirty ones.
            dirty: "range | set[int]" = range(self._num_nodes)
            round_number = 0
            while limit is None or round_number < limit:
                round_number += 1
                moved = self._refine_round(
                    dirty, node_levels, round_number, freeze_round_of
                )
                if moved is None:
                    return
                yield None
                fresh_dirt: set[int] = set()
                add = fresh_dirt.add
                for group in moved:
                    for node in group:
                        for position in range(co[node], co[node + 1]):
                            add(ct[position])
                dirty = fresh_dirt
        finally:
            self._release_parallel()

    def _init_run(self) -> None:
        """Reset the live flat state to the label (round-0) partition."""
        label_ids = self.csr.label_ids
        block_of = array(BUFFER_TYPECODE, bytes(8 * self._num_nodes))
        blocks: list[list[int]] = []
        table: dict[int, int] = {}
        for node in range(self._num_nodes):
            label = label_ids[node]
            block = table.get(label)
            if block is None:
                block = len(table)
                table[label] = block
                blocks.append([])
            block_of[node] = block
            blocks[block].append(node)
        self._block_of = block_of
        self._blocks = blocks

    def _refine_round(
        self,
        dirty: "range | set[int]",
        node_levels: Sequence[int] | None,
        round_number: int,
        freeze_round_of: dict[int, list[int]],
    ) -> list[list[int]] | None:
        """Apply one round in place; return the moved groups.

        Returns ``None`` when the round changed nothing (the fixpoint
        test).  Candidates are the blocks holding a dirty participating
        node or a node whose level just expired; each splits into its
        active signature groups plus its frozen members, and the
        largest group keeps the block id.
        """
        block_of = self._block_of
        blocks = self._blocks

        candidates: set[int] = set()
        if node_levels is None:
            for node in dirty:
                candidates.add(block_of[node])
        else:
            for node in dirty:
                if node_levels[node] >= round_number:
                    candidates.add(block_of[node])
            for node in freeze_round_of.get(round_number, ()):
                candidates.add(block_of[node])

        split_jobs: list[tuple[int, list[int], list[int]]] = []
        hash_nodes: list[int] = []
        for block in sorted(candidates):
            members = blocks[block]
            frozen: list[int] = []
            if node_levels is None:
                active = members
            else:
                active = [m for m in members if node_levels[m] >= round_number]
                if not active:
                    continue  # fully frozen: survives untouched
                if len(active) != len(members):
                    frozen = [
                        m for m in members if node_levels[m] < round_number
                    ]
            if len(active) == 1 and not frozen:
                continue  # a lone active member cannot split
            split_jobs.append((block, active, frozen))
            hash_nodes.extend(active)

        if not split_jobs:
            return None

        keys = self._signature_keys(hash_nodes)
        # The sweep may have migrated the live assignment into shared
        # memory (first parallel round); re-read it so the split writes
        # below land in the buffer the forked workers actually see.
        block_of = self._block_of

        moved: list[list[int]] = []
        position = 0
        for block, active, frozen in split_jobs:
            groups: dict[int | tuple[int, ...], list[int]] = {}
            for member in active:
                key = keys[position]
                position += 1
                group = groups.get(key)
                if group is None:
                    groups[key] = [member]
                else:
                    group.append(member)
            if len(groups) == 1 and not frozen:
                continue  # signatures agree and nothing froze: no change
            parts = list(groups.values())
            if frozen:
                parts.append(frozen)
            largest = max(range(len(parts)), key=lambda i: len(parts[i]))
            if largest != 0:
                parts[0], parts[largest] = parts[largest], parts[0]
            blocks[block] = parts[0]
            for group in parts[1:]:
                fresh = len(blocks)
                blocks.append(group)
                for node in group:
                    block_of[node] = fresh
            moved.extend(parts[1:])
        return moved if moved else None

    # ------------------------------------------------------------------
    # Signature sweeps
    # ------------------------------------------------------------------

    def _signature_keys(
        self, hash_nodes: list[int]
    ) -> list["int | tuple[int, ...]"]:
        """Per-node signature keys for the batch, in batch order.

        All sweeps — scalar, numpy-vectorised, shared-memory parallel —
        produce identical key values, so the grouping (and therefore
        the refinement) is bit-for-bit independent of the path taken.
        """
        if (
            self.jobs > 1
            and len(hash_nodes) >= PARALLEL_NODE_THRESHOLD
            and not self._parallel_failed
        ):
            parallel = self._parallel_keys(hash_nodes)
            if parallel is not None:
                return parallel
        if _numpy is not None and len(hash_nodes) >= NUMPY_NODE_THRESHOLD:
            return self._numpy_keys(hash_nodes)
        return self._scalar_keys(hash_nodes)

    def _scalar_keys(
        self, hash_nodes: list[int]
    ) -> list["int | tuple[int, ...]"]:
        """The stdlib sweep: flat-buffer reads, int keys, no tuples on
        the zero/single-parent fast paths."""
        po = self.csr.parent_offsets
        pt = self.csr.parent_targets
        block_of = self._block_of
        out: list[int | tuple[int, ...]] = []
        append = out.append
        for node in hash_nodes:
            start = po[node]
            end = po[node + 1]
            if end == start:
                append(_EMPTY_KEY)
            elif end == start + 1:
                append(block_of[pt[start]])
            else:
                seen = {block_of[pt[i]] for i in range(start, end)}
                if len(seen) == 1:
                    append(next(iter(seen)))
                else:
                    append(tuple(sorted(seen)))
        return out

    def _numpy_keys(
        self, hash_nodes: list[int]
    ) -> list["int | tuple[int, ...]"]:
        """Vectorised sweep over the same buffers (no copies).

        Zero- and single-parent nodes — the overwhelming majority in
        document-shaped graphs — are resolved by two fused gathers;
        only multi-parent nodes drop to the scalar dedup path.
        """
        np = _numpy
        po = np.frombuffer(self.csr.parent_offsets, dtype=np.int64)
        pt = np.frombuffer(self.csr.parent_targets, dtype=np.int64)
        block_of = np.frombuffer(self._block_of, dtype=np.int64)
        nodes = np.asarray(hash_nodes, dtype=np.int64)
        starts = po[nodes]
        degrees = po[nodes + 1] - starts
        keys_flat = np.full(len(nodes), _EMPTY_KEY, dtype=np.int64)
        single = degrees == 1
        keys_flat[single] = block_of[pt[starts[single]]]
        keys: list[int | tuple[int, ...]] = keys_flat.tolist()
        multi_positions = np.nonzero(degrees >= 2)[0]
        if len(multi_positions):
            po_arr = self.csr.parent_offsets
            pt_arr = self.csr.parent_targets
            bo = self._block_of
            for position in multi_positions.tolist():
                node = hash_nodes[position]
                seen = {
                    bo[pt_arr[i]]
                    for i in range(po_arr[node], po_arr[node + 1])
                }
                if len(seen) == 1:
                    keys[position] = next(iter(seen))
                else:
                    keys[position] = tuple(sorted(seen))
        return keys

    # ------------------------------------------------------------------
    # Shared-memory parallel sweep
    # ------------------------------------------------------------------

    def _parallel_keys(
        self, hash_nodes: list[int]
    ) -> list["int | tuple[int, ...]"] | None:
        """Hash the batch across the shared-memory fork pool.

        Returns ``None`` (and remembers the failure) when the platform
        cannot supply fork + shared memory, letting the run continue on
        the serial sweep.
        """
        if self._pool is None and not self._ensure_parallel():
            return None
        assert self._pool is not None and _SHM_HASH_NODES is not None
        count = len(hash_nodes)
        _SHM_HASH_NODES[0:count] = array(BUFFER_TYPECODE, hash_nodes)
        chunk = -(-count // self.jobs)  # ceil division
        bounds = [
            (start, min(start + chunk, count))
            for start in range(0, count, chunk)
        ]
        try:
            chunks = self._pool.map(_columnar_signature_chunk, bounds)
        except OSError:  # pragma: no cover - pool/pipe resource failure
            self._parallel_failed = True
            self._release_parallel()
            return None
        return [key for part in chunks for key in part]

    def _ensure_parallel(self) -> bool:
        """Create the shared segments and the per-run fork pool.

        The live ``block_of`` is migrated into shared memory so the
        in-place writes of later rounds propagate to the (already
        forked) workers; the parent CSR is copied in once.  Must be
        called before any worker exists — globals are inherited by
        fork, never re-sent.
        """
        global _SHM_PARENT_OFFSETS, _SHM_PARENT_TARGETS
        global _SHM_BLOCK_OF, _SHM_HASH_NODES
        try:
            context = multiprocessing.get_context("fork")
        except ValueError:  # pragma: no cover - platform without fork
            self._parallel_failed = True
            return False
        try:
            po_view = self._share(self.csr.parent_offsets)
            pt_view = self._share(self.csr.parent_targets)
            block_view = self._share(self._block_of)
            nodes_view = self._share_empty(self._num_nodes)
        except (OSError, ValueError):  # pragma: no cover - no /dev/shm
            self._parallel_failed = True
            self._release_parallel()
            return False
        self._block_of = block_view  # later rounds write through shm
        _SHM_PARENT_OFFSETS = po_view
        _SHM_PARENT_TARGETS = pt_view
        _SHM_BLOCK_OF = block_view
        _SHM_HASH_NODES = nodes_view
        try:
            self._pool = context.Pool(processes=self.jobs)
        except OSError:  # pragma: no cover - fork resource failure
            self._parallel_failed = True
            self._release_parallel()
            return False
        return True

    def _share(self, source: Sequence[int]) -> memoryview:
        """Copy ``source`` into a fresh shared segment; return its view."""
        length = len(source)
        view = self._share_empty(length)
        view[0:length] = array(BUFFER_TYPECODE, source)
        return view

    def _share_empty(self, length: int) -> memoryview:
        """Allocate a shared segment for ``length`` int64 slots."""
        segment = shared_memory.SharedMemory(
            create=True, size=max(8 * length, 8)
        )
        self._segments.append(segment)
        view = segment.buf.cast(BUFFER_TYPECODE)
        self._views.append(view)
        return view

    def _release_parallel(self) -> None:
        """Tear down the pool and unlink every shared segment."""
        global _SHM_PARENT_OFFSETS, _SHM_PARENT_TARGETS
        global _SHM_BLOCK_OF, _SHM_HASH_NODES
        if self._pool is not None:
            self._pool.terminate()
            self._pool.join()
            self._pool = None
        if not self._segments:
            return
        # The live assignment may still point into shared memory; pull
        # it back into a private array before the mapping goes away.
        if isinstance(self._block_of, memoryview):
            self._block_of = array(BUFFER_TYPECODE, self._block_of)
        _SHM_PARENT_OFFSETS = None
        _SHM_PARENT_TARGETS = None
        _SHM_BLOCK_OF = None
        _SHM_HASH_NODES = None
        for view in self._views:
            view.release()
        self._views.clear()
        for segment in self._segments:
            segment.close()
            try:
                segment.unlink()
            except FileNotFoundError:  # pragma: no cover - already gone
                pass
        self._segments.clear()

    # ------------------------------------------------------------------
    # Partition materialisation
    # ------------------------------------------------------------------

    def _take_partition(self) -> Partition:
        """Hand the live state over as a Partition (ends the run)."""
        return Partition.trusted(list(self._block_of), self._blocks)

    def _snapshot(self) -> Partition:
        """A defensive copy of the live state (per-round yields)."""
        return Partition.trusted(
            list(self._block_of), [list(members) for members in self._blocks]
        )
