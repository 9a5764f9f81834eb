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

The engine is round-for-round partition-identical to the reference
:class:`~repro.partition.engine.RefinementEngine`
(``tests/test_columnar_engine.py`` and
``tests/test_engine_equivalence.py`` verify all drivers on trees,
shared-subtree DAGs and cyclic IDREF graphs).
"""

from __future__ import annotations

import importlib
from array import array
from typing import Any, Iterator, Sequence

from repro.graph.columnar import (
    BUFFER_TYPECODE,
    CSRBuffers,
    CSRGraph,
    csr_from_parent_adjacency,
)
from repro.partition.blocks import Partition
from repro.partition.engine import LabeledAdjacency, check_levels

_numpy: Any = None
try:  # pragma: no cover - exercised implicitly on numpy-less installs
    _numpy = importlib.import_module("numpy")
except ImportError:
    _numpy = None

#: Minimum hash-batch size before the vectorised numpy sweep pays for
#: its gather/array setup; below it the scalar loop is faster.
NUMPY_NODE_THRESHOLD = 256

#: Signature key of a parentless (root-like) node.  Block ids are >= 0,
#: so the sentinel can never collide with a single-parent key.
_EMPTY_KEY = -1


class ColumnarEngine:
    """Batch refinement over a frozen columnar snapshot.

    State is re-initialised by every driver call, so one instance can
    serve several runs.

    Args:
        graph: a :class:`CSRGraph` snapshot, or any labeled-adjacency
            graph — ``DataGraph``/``IndexGraph`` are frozen via their
            ``freeze()`` (cached, refresh-on-mutate), anything else gets
            a one-off snapshot via :func:`csr_from_parent_adjacency`.
    """

    def __init__(self, graph: "LabeledAdjacency | CSRGraph") -> None:
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
        self._bind(csr)

    def _bind(self, csr: CSRBuffers) -> None:
        """Attach a snapshot and reset all engine state.

        Split out of ``__init__`` so subclasses that obtain their
        snapshot differently (the external engine pages it from disk)
        can share the state layout without re-freezing anything.
        """
        self.csr = csr
        self._num_nodes = csr.num_nodes
        # Live refinement state (filled by _init_run).
        self._block_of: "array[int]" = array(BUFFER_TYPECODE)
        self._blocks: list[list[int]] = []

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
        """Run rounds in place, yielding once per changing round."""
        self._init_run()
        limit = max_rounds
        freeze_round_of: dict[int, list[int]] = {}
        if node_levels is not None:
            level_cap = max(node_levels, default=0)
            limit = level_cap if limit is None else min(limit, level_cap)
            for node, level in enumerate(node_levels):
                freeze_round_of.setdefault(level + 1, []).append(node)

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

        Both sweeps — scalar and numpy-vectorised — produce identical
        key values, so the grouping (and therefore the refinement) is
        bit-for-bit independent of the path taken.
        """
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
