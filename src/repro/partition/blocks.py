"""The :class:`Partition` data structure.

A partition assigns every node of a graph to exactly one *block*.
Blocks have dense integer ids; the structure keeps both directions of
the mapping (node→block and block→members) because refinement needs the
former and index construction needs the latter.
"""

from __future__ import annotations

from typing import Sequence

from repro.exceptions import IndexInvariantError


class Partition:
    """A partition of ``0 .. num_nodes-1`` into dense blocks.

    Attributes:
        block_of: ``block_of[node]`` is the block id of ``node``.
        blocks: ``blocks[b]`` lists the member nodes of block ``b`` in
            ascending node order.
    """

    __slots__ = ("block_of", "blocks")

    def __init__(self, block_of: Sequence[int]) -> None:
        self.block_of = list(block_of)
        num_blocks = max(self.block_of, default=-1) + 1
        blocks: list[list[int]] = [[] for _ in range(num_blocks)]
        for node, block in enumerate(self.block_of):
            if not 0 <= block < num_blocks:
                raise IndexInvariantError(f"block id out of range: {block}")
            blocks[block].append(node)
        for block, members in enumerate(blocks):
            if not members:
                raise IndexInvariantError(f"block {block} is empty (ids not dense)")
        self.blocks = blocks

    @classmethod
    def trusted(
        cls, block_of: list[int], blocks: list[list[int]]
    ) -> "Partition":
        """Fast-path constructor that skips the density re-validation.

        ``__init__`` walks every node to check that block ids are dense
        and in range; callers that construct both maps together (such as
        :meth:`from_keys` and the refinement engines) already guarantee
        consistency, so re-walking the whole node set per refinement
        round is pure overhead.  Ownership of both lists transfers to
        the partition — the caller must not mutate them afterwards.
        """
        self = cls.__new__(cls)
        self.block_of = block_of
        self.blocks = blocks
        return self

    @classmethod
    def from_keys(cls, keys: Sequence[object]) -> "Partition":
        """Group nodes by equal keys; block ids follow first-seen order.

        Example:
            >>> p = Partition.from_keys(["a", "b", "a"])
            >>> p.block_of
            [0, 1, 0]
            >>> p.blocks
            [[0, 2], [1]]
        """
        table: dict[object, int] = {}
        block_of: list[int] = []
        blocks: list[list[int]] = []
        for node, key in enumerate(keys):
            block = table.get(key)
            if block is None:
                block = len(table)
                table[key] = block
                blocks.append([])
            block_of.append(block)
            blocks[block].append(node)
        return cls.trusted(block_of, blocks)

    @property
    def num_nodes(self) -> int:
        """Number of partitioned nodes."""
        return len(self.block_of)

    @property
    def num_blocks(self) -> int:
        """Number of blocks."""
        return len(self.blocks)

    def __len__(self) -> int:
        return self.num_blocks

    def __repr__(self) -> str:
        return f"Partition(nodes={self.num_nodes}, blocks={self.num_blocks})"

    def __eq__(self, other: object) -> bool:
        """Partitions are equal when they group nodes identically.

        Block *ids* are a labeling artefact and do not participate.
        """
        if not isinstance(other, Partition):
            return NotImplemented
        if len(self.block_of) != len(other.block_of):
            return False
        return self.relabel_canonical() == other.relabel_canonical()

    def __hash__(self) -> int:  # pragma: no cover - partitions as keys is rare
        return hash(tuple(self.relabel_canonical()))

    def relabel_canonical(self) -> list[int]:
        """Node→block map with blocks renumbered in first-node order."""
        table: dict[int, int] = {}
        result = []
        for block in self.block_of:
            canonical = table.get(block)
            if canonical is None:
                canonical = len(table)
                table[block] = canonical
            result.append(canonical)
        return result

    def refines(self, coarser: "Partition") -> bool:
        """True if every block of ``self`` lies inside one block of
        ``coarser`` (i.e. ``self`` is a refinement of ``coarser``)."""
        if coarser.num_nodes != self.num_nodes:
            return False
        for members in self.blocks:
            first = coarser.block_of[members[0]]
            if any(coarser.block_of[node] != first for node in members[1:]):
                return False
        return True

    def same_block(self, u: int, v: int) -> bool:
        """True if ``u`` and ``v`` share a block."""
        return self.block_of[u] == self.block_of[v]


def intersect(left: Partition, right: Partition) -> Partition:
    """The coarsest partition refining both arguments."""
    if left.num_nodes != right.num_nodes:
        raise IndexInvariantError("cannot intersect partitions of different sizes")
    return Partition.from_keys(
        [(left.block_of[node], right.block_of[node]) for node in range(left.num_nodes)]
    )


def blocks_as_sets(partition: Partition) -> list[frozenset[int]]:
    """Blocks as frozensets (handy for set-comparison in tests)."""
    return [frozenset(members) for members in partition.blocks]
