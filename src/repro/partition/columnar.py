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

**Two round implementations, one result.**  With the optional ``fast``
extra installed (``pip install .[fast]``), a round whose batch — its
dirty nodes plus the nodes whose level expires in it; every node in
round 1 — reaches :data:`NUMPY_NODE_THRESHOLD` runs as a numpy array
program over the same buffers, without copying them: candidate
selection, signature keys, grouping by ``(block, key)``, the split and
the next round's dirty set are whole-array operations, and the label
initialisation is one too.  The scalar loop below it handles small
rounds and every round of a numpy-less install.  Both assign *the same
block ids*, not just the same partition, because index node ids are
block ids: groups in first-seen member order with the frozen part last,
the first largest part keeps the block id, and fresh ids go in
ascending candidate-block order, then part order.

**Scalar signatures.**  Parent sets are contiguous CSR slices: a
single-parent node's signature is one flat-buffer read interned as a
plain ``int`` (no 1-tuple allocation, no tuple hashing), the empty
signature is the sentinel ``-1``, and only genuinely multi-block parent
sets — a small minority in document-shaped graphs — fall back to a
sorted dedup tuple.

The engine is round-for-round partition-identical to the reference
:class:`~repro.partition.engine.RefinementEngine`
(``tests/test_columnar_engine.py`` and
``tests/test_engine_equivalence.py`` verify all drivers on trees,
shared-subtree DAGs and cyclic IDREF graphs).
"""

from __future__ import annotations

import importlib
from array import array
from typing import Any, Iterable, Iterator, Sequence

from repro.graph.columnar import BUFFER_TYPECODE, CSRBuffers, CSRGraph
from repro.partition.blocks import Partition
from repro.partition.engine import LabeledAdjacency, check_levels

_numpy: Any = None
try:  # pragma: no cover - exercised implicitly on numpy-less installs
    _numpy = importlib.import_module("numpy")
except ImportError:
    _numpy = None

#: Minimum batch size (nodes a round starts from) before the numpy
#: array program pays for its whole-array passes; below it the scalar
#: loop is faster.  The index quotient uses the same bar on node count.
NUMPY_NODE_THRESHOLD = 256

#: Signature key of a parentless (root-like) node.  Block ids are >= 0,
#: so the sentinel can never collide with a single-parent key.
_EMPTY_KEY = -1


# ----------------------------------------------------------------------
# Array helpers (numpy present)
# ----------------------------------------------------------------------


def run_starts(values: Any) -> Any:
    """Indices where a run of equal values starts in ``values``.

    With a sort first, this is the dedupe every array step here uses;
    ``numpy.unique`` would build hash tables, which cost resident memory.
    """
    np = _numpy
    starts = np.empty(len(values), dtype=bool)
    if len(values):
        starts[0] = True
        np.not_equal(values[1:], values[:-1], out=starts[1:])
    return np.flatnonzero(starts)


def concat_ranges(starts: Any, lengths: Any) -> Any:
    """Positions ``starts[i] : starts[i] + lengths[i]``, concatenated."""
    np = _numpy
    total = int(lengths.sum())
    positions = np.arange(total, dtype=np.int64)
    if total:
        shift = np.cumsum(lengths) - lengths - starts
        positions -= np.repeat(shift, lengths)
    return positions


def array_signature_keys(block_of: Any, degrees: Any, parents: Any) -> Any:
    """int64 signature keys from gathered parent lists.

    ``parents`` holds each node's parent list back to back,
    ``degrees[i]`` entries for node ``i``.  A key is ``-1`` for no
    parent, the block id when every parent shares one block, and
    ``-2 - j`` for the ``j``-th distinct multi-block set.  Equal keys
    mean equal scalar keys, which is all the grouping reads.
    """
    np = _numpy
    keys = np.full(len(degrees), _EMPTY_KEY, dtype=np.int64)
    with_parents = np.flatnonzero(degrees)
    if not len(with_parents):
        return keys
    parent_blocks = block_of[parents]
    firsts = (np.cumsum(degrees) - degrees)[with_parents]
    low = np.minimum.reduceat(parent_blocks, firsts)
    high = np.maximum.reduceat(parent_blocks, firsts)
    multi = np.flatnonzero(low != high)
    if len(multi):
        # Sorted distinct blocks of each multi-block node, interned as
        # tuples: the same values the scalar sweep builds.
        counts = degrees[with_parents[multi]]
        owner = np.repeat(np.arange(len(multi)), counts)
        blocks = parent_blocks[concat_ranges(firsts[multi], counts)]
        order = np.lexsort((blocks, owner))
        owner = owner[order]
        blocks = blocks[order]
        distinct = np.ones(len(blocks), dtype=bool)
        distinct[1:] = (owner[1:] != owner[:-1]) | (blocks[1:] != blocks[:-1])
        flat = blocks[distinct].tolist()
        ends = np.cumsum(np.bincount(owner[distinct], minlength=len(multi)))
        table: dict[tuple[int, ...], int] = {}
        ids: list[int] = []
        start = 0
        for end in ends.tolist():
            ids.append(table.setdefault(tuple(flat[start:end]), len(table)))
            start = end
        low[multi] = -2 - np.asarray(ids, dtype=np.int64)
    keys[with_parents] = low
    return keys


class ColumnarEngine:
    """Batch refinement over a frozen columnar snapshot.

    State is re-initialised by every driver call, so one instance can
    serve several runs.

    Args:
        graph: a :class:`CSRGraph` snapshot, or a ``DataGraph`` or
            ``IndexGraph``, whose ``freeze()`` view is used.
    """

    def __init__(self, graph: "LabeledAdjacency | CSRGraph") -> None:
        self._bind(graph if isinstance(graph, CSRGraph) else graph.freeze())

    def _bind(self, csr: CSRBuffers) -> None:
        """Attach a snapshot and reset all engine state.

        Split out of ``__init__`` so subclasses that obtain their
        snapshot differently (the external engine pages it from disk)
        can share the state layout without re-freezing anything.
        """
        self.csr = csr
        self._num_nodes = csr.num_nodes
        # Live refinement state (filled by _init_run / _array_init).
        # Array rounds keep only block_of and the block count; member
        # lists are rebuilt from block_of when a scalar round or the
        # final partition needs them (None until then).
        self._block_of: "array[int]" = array(BUFFER_TYPECODE)
        self._blocks: list[list[int]] | None = []
        self._num_blocks = 0

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
        for _ in self._rounds_inplace(None, k):
            pass
        return self._take_partition()

    def run_fixpoint(self) -> tuple[Partition, int]:
        """The full-bisimulation fixpoint (1-index equivalence).

        Returns ``(partition, rounds)``; ``rounds`` counts the rounds
        that changed the partition (the graph's bisimulation depth).
        """
        rounds = 0
        for _ in self._rounds_inplace(None, None):
            rounds += 1
        return self._take_partition(), rounds

    def run_leveled(self, node_levels: Sequence[int]) -> Partition:
        """Per-node bounded bisimulation (the D(k) construction core).

        Raises:
            ValueError: if ``node_levels`` has the wrong length or any
                negative entry.
        """
        check_levels(node_levels, self._num_nodes)
        for _ in self._rounds_inplace(node_levels, None):
            pass
        return self._take_partition()

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
        for _ in self._rounds_inplace(node_levels, max_rounds):
            yield self._snapshot()

    def close(self) -> None:
        """Nothing to release; kept so every engine closes alike."""

    # ------------------------------------------------------------------
    # The in-place round loop
    # ------------------------------------------------------------------

    def _rounds_inplace(
        self,
        node_levels: Sequence[int] | None,
        max_rounds: int | None,
    ) -> Iterator[None]:
        """Run rounds in place, yielding once per changing round.

        Each round picks its implementation by batch size; the two share
        ``block_of``, and the dirty set and block lists are converted
        at a switch, so a run may mix them freely.
        """
        np = _numpy
        array_run = np is not None and self._num_nodes >= max(
            NUMPY_NODE_THRESHOLD, 1
        )
        limit = max_rounds
        levels: Any = None
        freeze_round_of: dict[int, list[int]] = {}
        if node_levels is not None:
            level_cap = max(node_levels, default=0)
            limit = level_cap if limit is None else min(limit, level_cap)
            if array_run:
                # A changing round adds a block, so a run ends by round
                # num_nodes; levels past that compare alike, and capping
                # them keeps any level inside int64.
                cap = self._num_nodes + 1
                if level_cap > cap:
                    node_levels = [min(level, cap) for level in node_levels]
                levels = np.asarray(node_levels, dtype=np.int64)
            else:
                for node, level in enumerate(node_levels):
                    freeze_round_of.setdefault(level + 1, []).append(node)
        if array_run:
            self._array_init()
        else:
            self._init_run()

        # Round 1 considers every node; later rounds only dirty ones.
        dirty: Any = range(self._num_nodes)
        round_number = 0
        while limit is None or round_number < limit:
            round_number += 1
            expiring: Any = freeze_round_of.get(round_number, ())
            if levels is not None:
                expiring = np.flatnonzero(levels == round_number - 1)
            if array_run and len(dirty) + len(expiring) >= NUMPY_NODE_THRESHOLD:
                moved_nodes = self._array_round(
                    dirty, levels, expiring, round_number
                )
                if moved_nodes is None:
                    return
                yield None
                dirty = self._array_children(moved_nodes)
                continue
            if self._blocks is None:
                self._blocks = self._block_lists()
            if array_run:
                dirty = dirty if isinstance(dirty, set) else dirty.tolist()
                expiring = expiring if levels is None else expiring.tolist()
            moved = self._refine_round(dirty, node_levels, round_number, expiring)
            if moved is None:
                return
            yield None
            dirty = self._dirty_children(moved)

    def _dirty_children(self, moved: list[list[int]]) -> set[int]:
        """The children of every moved node: the next round's dirty set."""
        co = self.csr.child_offsets
        ct = self.csr.child_targets
        dirty: set[int] = set()
        add = dirty.add
        for group in moved:
            for node in group:
                for position in range(co[node], co[node + 1]):
                    add(ct[position])
        return dirty

    def _init_run(self) -> None:
        """Reset the live flat state to the label (round-0) partition."""
        block_of = array(BUFFER_TYPECODE, bytes(8 * self._num_nodes))
        blocks: list[list[int]] = []
        table: dict[int, int] = {}
        # Iterated, not indexed: a paged buffer streams its pages in order.
        for node, label in enumerate(self.csr.label_ids):
            block = table.get(label)
            if block is None:
                block = len(table)
                table[label] = block
                blocks.append([])
            block_of[node] = block
            blocks[block].append(node)
        self._block_of = block_of
        self._blocks = blocks
        self._num_blocks = len(blocks)

    def _refine_round(
        self,
        dirty: "range | set[int] | list[int]",
        node_levels: Sequence[int] | None,
        round_number: int,
        expiring: Iterable[int],
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
        assert blocks is not None

        candidates: set[int] = set()
        if node_levels is None:
            for node in dirty:
                candidates.add(block_of[node])
        else:
            for node in dirty:
                if node_levels[node] >= round_number:
                    candidates.add(block_of[node])
            for node in expiring:
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
        self._num_blocks = len(blocks)
        return moved if moved else None

    # ------------------------------------------------------------------
    # The scalar signature sweep
    # ------------------------------------------------------------------

    def _signature_keys(
        self, hash_nodes: list[int]
    ) -> list["int | tuple[int, ...]"]:
        """Per-node signature keys for a scalar round, in batch order:
        flat-buffer reads, int keys, no tuples on the zero/single-parent
        fast paths."""
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

    # ------------------------------------------------------------------
    # The array rounds (numpy present)
    # ------------------------------------------------------------------

    def _label_array(self) -> Any:
        """Every node's label id as an int64 array."""
        return _numpy.frombuffer(self.csr.label_ids, dtype=_numpy.int64)

    def _gather(self, offsets: str, targets: str, nodes: Any) -> tuple[Any, Any]:
        """Adjacency lists of ascending ``nodes`` from a CSR buffer pair.

        Returns ``(degrees, flat)``: node ``i`` of ``nodes`` has
        ``degrees[i]`` neighbours, stored back to back in ``flat``.
        """
        np = _numpy
        offset_view = np.frombuffer(getattr(self.csr, offsets), dtype=np.int64)
        target_view = np.frombuffer(getattr(self.csr, targets), dtype=np.int64)
        starts = offset_view[nodes]
        degrees = offset_view[nodes + 1] - starts
        return degrees, target_view[concat_ranges(starts, degrees)]

    def _array_keys(self, nodes: Any) -> Any:
        """Signature keys of ascending ``nodes``."""
        degrees, parents = self._gather("parent_offsets", "parent_targets", nodes)
        return array_signature_keys(self._block_view(), degrees, parents)

    def _block_view(self) -> Any:
        """``block_of`` as a writable int64 array over the same memory."""
        return _numpy.frombuffer(self._block_of, dtype=_numpy.int64)

    def _array_init(self) -> None:
        """The label partition as array operations: block ids follow the
        first-seen order of labels, as in :meth:`_init_run`."""
        np = _numpy
        labels = self._label_array()
        order = np.argsort(labels, kind="stable")
        starts = run_starts(labels[order])
        # Runs are label-sorted; their first nodes ranked by position
        # give each label its first-seen block id.
        block_of_run = np.empty(len(starts), dtype=np.int64)
        block_of_run[np.argsort(order[starts], kind="stable")] = np.arange(
            len(starts)
        )
        lengths = np.diff(np.append(starts, len(labels)))
        self._block_of = array(BUFFER_TYPECODE, bytes(8 * self._num_nodes))
        self._block_view()[order] = np.repeat(block_of_run, lengths)
        self._blocks = None
        self._num_blocks = len(starts)

    def _array_round(
        self, dirty: Any, levels: Any, expiring: Any, round_number: int
    ) -> Any:
        """Apply one round as array operations; return the moved nodes.

        The same round as :meth:`_refine_round`, ``None`` included when
        nothing changes, and the same block ids; the moved nodes come
        back ascending.
        """
        np = _numpy
        block_of = self._block_view()
        num_blocks = self._num_blocks
        num_nodes = self._num_nodes

        # Candidate blocks and their members (ascending).
        if isinstance(dirty, range):
            members = np.arange(num_nodes, dtype=np.int64)
        else:
            if isinstance(dirty, set):
                dirty = np.fromiter(dirty, dtype=np.int64, count=len(dirty))
            if levels is not None:
                dirty = np.concatenate(
                    (dirty[levels[dirty] >= round_number], expiring)
                )
            candidate = np.zeros(num_blocks, dtype=bool)
            candidate[block_of[dirty]] = True
            members = np.flatnonzero(candidate[block_of])
        member_blocks = block_of[members]
        if levels is None:
            active, active_blocks = members, member_blocks
            frozen = frozen_blocks = members[:0]
        else:
            participating = levels[members] >= round_number
            active = members[participating]
            active_blocks = member_blocks[participating]
            frozen = members[~participating]
            frozen_blocks = member_blocks[~participating]

        # A block is a job when it could split: two active members, or
        # one active member and some frozen ones.
        active_count = np.bincount(active_blocks, minlength=num_blocks)
        job = active_count >= 2
        if len(frozen):
            job |= (active_count == 1) & (
                np.bincount(frozen_blocks, minlength=num_blocks) > 0
            )
            in_job = job[frozen_blocks]
            frozen, frozen_blocks = frozen[in_job], frozen_blocks[in_job]
        in_job = job[active_blocks]
        nodes, blocks = active[in_job], active_blocks[in_job]
        if not len(nodes):
            return None
        keys = self._array_keys(nodes)

        # Groups by (block, key); stable, so each group lists its nodes
        # ascending and its first node is its first-seen member.
        order = np.lexsort((keys, blocks))
        grouped = nodes[order]
        grouped_blocks = blocks[order]
        sorted_keys = keys[order]
        boundary = np.ones(len(order), dtype=bool)
        boundary[1:] = (grouped_blocks[1:] != grouped_blocks[:-1]) | (
            sorted_keys[1:] != sorted_keys[:-1]
        )
        group_starts = np.flatnonzero(boundary)
        group_sizes = np.diff(np.append(group_starts, len(order)))

        # Frozen members form one part per block, ordered last.
        frozen_order = np.argsort(frozen_blocks, kind="stable")
        frozen = frozen[frozen_order]
        frozen_blocks = frozen_blocks[frozen_order]
        frozen_starts = run_starts(frozen_blocks)
        frozen_sizes = np.diff(np.append(frozen_starts, len(frozen)))

        part_block = np.concatenate(
            (grouped_blocks[group_starts], frozen_blocks[frozen_starts])
        )
        part_first = np.concatenate(
            (grouped[group_starts], np.full(len(frozen_starts), num_nodes))
        )
        part_size = np.concatenate((group_sizes, frozen_sizes))
        part_count = len(part_block)

        # Parts per block in order; the first largest swaps to the front
        # and keeps the id, the rest take fresh ids in that order.
        by_block = np.lexsort((part_first, part_block))
        sizes = part_size[by_block]
        block_starts = run_starts(part_block[by_block])
        per_block = np.diff(np.append(block_starts, part_count))
        local = np.arange(part_count) - np.repeat(block_starts, per_block)
        widest = np.repeat(np.maximum.reduceat(sizes, block_starts), per_block)
        first_widest = np.minimum.reduceat(
            np.where(sizes == widest, local, part_count), block_starts
        )
        largest = np.repeat(first_widest, per_block)
        slot = np.where(local == largest, 0, np.where(local == 0, largest, local))
        fresh = np.flatnonzero((np.repeat(per_block, per_block) >= 2) & (slot > 0))
        if not len(fresh):
            return None
        # Fresh ids in block order, then slot order.
        fresh = fresh[np.lexsort((slot[fresh], part_block[by_block][fresh]))]
        new_block = np.full(part_count, -1, dtype=np.int64)
        new_block[by_block[fresh]] = num_blocks + np.arange(len(fresh))
        self._num_blocks = num_blocks + len(fresh)

        all_members = np.concatenate((grouped, frozen))
        part_of = np.repeat(np.arange(part_count), part_size)
        target = new_block[part_of]
        moving = target >= 0
        moved = all_members[moving]
        block_of[moved] = target[moving]
        self._blocks = None
        moved.sort()
        return moved

    def _array_children(self, moved: Any) -> Any:
        """The children of ascending ``moved`` nodes, sorted and unique."""
        np = _numpy
        _, children = self._gather("child_offsets", "child_targets", moved)
        dirty = np.zeros(self._num_nodes, dtype=bool)
        dirty[children] = True
        return np.flatnonzero(dirty)

    def _block_lists(self) -> list[list[int]]:
        """Member lists from ``block_of``, each ascending (array runs)."""
        np = _numpy
        block_of = self._block_view()
        flat = np.argsort(block_of, kind="stable").tolist()
        ends = np.cumsum(
            np.bincount(block_of, minlength=self._num_blocks)
        ).tolist()
        return [flat[start:end] for start, end in zip([0] + ends, ends)]

    # ------------------------------------------------------------------
    # Partition materialisation
    # ------------------------------------------------------------------

    def _take_partition(self) -> Partition:
        """Hand the live state over as a Partition (ends the run)."""
        if self._blocks is None:
            self._blocks = self._block_lists()
        return Partition.trusted(self._block_of.tolist(), self._blocks)

    def _snapshot(self) -> Partition:
        """A defensive copy of the live state (per-round yields)."""
        if self._blocks is None:
            return Partition.trusted(
                self._block_of.tolist(), self._block_lists()
            )
        return Partition.trusted(
            self._block_of.tolist(), [list(members) for members in self._blocks]
        )
