"""The reference refinement engine and what every engine shares.

:class:`RefinementEngine` is signature refinement at its plainest: every
round re-hashes *every* participating node through :func:`refine_once`,
with no dirty-set bookkeeping at all.  It is what ``engine="legacy"``
runs, and it is the oracle the test suite holds the columnar and
external engines to — at the result *and* round for round, with and
without per-node freeze levels (``tests/test_engine_equivalence.py``).
It re-hashes the whole graph every round, so builds use
:class:`~repro.partition.columnar.ColumnarEngine` instead, which is
what ``engine="auto"`` resolves to.

The module also holds what the engines share: the
:class:`LabeledAdjacency` protocol their inputs satisfy and the
validation of per-node levels.
"""

from __future__ import annotations

from typing import Iterator, Protocol, Sequence

from repro.partition.blocks import Partition


class LabeledAdjacency(Protocol):
    """Anything with labels and parent adjacency (data or index graph)."""

    label_ids: Sequence[int]
    parents: Sequence[Sequence[int]]

    @property
    def num_nodes(self) -> int: ...


def resolve_jobs(jobs: int | None) -> int:
    """Always 1: every engine refines serially, whatever ``jobs`` says.

    Kept only because the repository benchmark's environment stamp
    (``perfbench/run.py``) records ``resolve_jobs(None)``; it reads no
    environment variable.  Delete it once that stamp stops calling it.
    """
    return 1


def check_levels(node_levels: Sequence[int], num_nodes: int) -> None:
    """Validate the per-node levels of a leveled run.

    Raises:
        ValueError: if ``node_levels`` has the wrong length or any
            negative entry.
    """
    if len(node_levels) != num_nodes:
        raise ValueError(
            f"node_levels has {len(node_levels)} entries for "
            f"{num_nodes} nodes"
        )
    if any(level < 0 for level in node_levels):
        raise ValueError("node levels must be non-negative")


def refine_once(
    graph: LabeledAdjacency,
    partition: Partition,
    participating: Sequence[bool] | None = None,
) -> Partition:
    """One full-rehash refinement round (the reference step).

    Nodes for which ``participating`` is False are *frozen*: they stay
    grouped exactly as in the previous round (their old block survives as
    a block of the new partition, minus any members that participated).

    Returns a new partition; the input is unchanged.

    Raises:
        ValueError: if ``participating`` does not have one entry per
            node — silently freezing a suffix of the node set would
            corrupt the partition.
    """
    block_of = partition.block_of
    if participating is not None and len(participating) != len(block_of):
        raise ValueError(
            f"participating has {len(participating)} entries for "
            f"{len(block_of)} nodes"
        )
    parents = graph.parents
    keys: list[object] = [None] * len(block_of)
    for node in range(len(block_of)):
        if participating is None or participating[node]:
            parent_blocks = frozenset(block_of[p] for p in parents[node])
            keys[node] = (block_of[node], parent_blocks)
        else:
            keys[node] = ("frozen", block_of[node])
    return Partition.from_keys(keys)


class RefinementEngine:
    """Full-rehash refinement over one graph: the reference engine.

    The driver surface and its stopping rules are those of
    :class:`~repro.partition.columnar.ColumnarEngine`, so the two can be
    compared round for round.

    Args:
        graph: the data or index graph to refine.
    """

    def __init__(self, graph: LabeledAdjacency) -> None:
        self.graph = graph

    def initial_partition(self) -> Partition:
        """The 0-bisimulation (label) partition the rounds start from."""
        return Partition.from_keys(list(self.graph.label_ids))

    def run_kbisim(self, k: int) -> Partition:
        """The k-bisimulation partition (A(k) equivalence).

        Raises:
            ValueError: if ``k`` is negative.
        """
        if k < 0:
            raise ValueError(f"k must be non-negative, got {k}")
        partition = self.initial_partition()
        for partition in self.refine_rounds(max_rounds=k):
            pass
        return partition

    def run_fixpoint(self) -> tuple[Partition, int]:
        """The full-bisimulation fixpoint (1-index equivalence).

        Returns ``(partition, rounds)``; ``rounds`` counts the rounds
        that changed the partition (the graph's bisimulation depth).
        """
        partition = self.initial_partition()
        rounds = 0
        for partition in self.refine_rounds():
            rounds += 1
        return partition, rounds

    def run_leveled(self, node_levels: Sequence[int]) -> Partition:
        """Per-node bounded bisimulation (the D(k) construction core).

        Raises:
            ValueError: if ``node_levels`` has the wrong length or any
                negative entry.
        """
        check_levels(node_levels, self.graph.num_nodes)
        partition = self.initial_partition()
        for partition in self.refine_rounds(node_levels=node_levels):
            pass
        return partition

    def refine_rounds(
        self,
        node_levels: Sequence[int] | None = None,
        max_rounds: int | None = None,
    ) -> Iterator[Partition]:
        """Yield the partition after every *changing* round.

        Starts from the label partition; stops at the first round that
        changes nothing, after ``max_rounds`` rounds, or — with
        ``node_levels`` — after round ``max(node_levels)``, whichever
        comes first.  In round ``r`` only nodes with
        ``node_levels[node] >= r`` participate; the others are frozen.
        Refinement never merges blocks, so an unchanged block count
        means an unchanged partition.
        """
        limit = max_rounds
        if node_levels is not None:
            level_cap = max(node_levels, default=0)
            limit = level_cap if limit is None else min(limit, level_cap)
        partition = self.initial_partition()
        round_number = 0
        while limit is None or round_number < limit:
            round_number += 1
            participating: list[bool] | None = None
            if node_levels is not None:
                participating = [
                    level >= round_number for level in node_levels
                ]
            refined = refine_once(self.graph, partition, participating)
            if refined.num_blocks == partition.num_blocks:
                return
            partition = refined
            yield partition

    def close(self) -> None:
        """Nothing to release; the drivers close every engine they run."""
