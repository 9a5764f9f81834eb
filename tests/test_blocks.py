"""Unit tests for :mod:`repro.partition.blocks`."""

import pytest

from repro.exceptions import IndexInvariantError
from repro.partition.blocks import Partition, blocks_as_sets, intersect


def test_from_keys_groups_equal_keys():
    p = Partition.from_keys(["x", "y", "x", "z", "y"])
    assert p.block_of == [0, 1, 0, 2, 1]
    assert p.blocks == [[0, 2], [1, 4], [3]]


def test_constructor_validates_density():
    with pytest.raises(IndexInvariantError):
        Partition([0, 2])  # block 1 missing
    with pytest.raises(IndexInvariantError):
        Partition([-1])


def test_sizes():
    p = Partition.from_keys(["a", "a", "b"])
    assert p.num_nodes == 3
    assert p.num_blocks == 2
    assert len(p) == 2


def test_equality_ignores_block_ids():
    left = Partition([0, 1, 0])
    right = Partition([1, 0, 1])
    assert left == right
    assert hash(left) == hash(right)
    assert left != Partition([0, 0, 0])


def test_equality_different_sizes():
    assert Partition([0]) != Partition([0, 0])


def test_relabel_canonical():
    p = Partition([2, 0, 2, 1])
    assert p.relabel_canonical() == [0, 1, 0, 2]


def test_refines():
    coarse = Partition.from_keys(["a", "a", "b", "b"])
    fine = Partition.from_keys(["a", "x", "b", "y"])
    assert fine.refines(coarse)
    assert not coarse.refines(fine)
    assert coarse.refines(coarse)


def test_refines_size_mismatch():
    assert not Partition([0]).refines(Partition([0, 0]))


def test_same_block():
    p = Partition.from_keys(["a", "b", "a"])
    assert p.same_block(0, 2)
    assert not p.same_block(0, 1)


def test_intersect():
    left = Partition.from_keys(["a", "a", "b", "b"])
    right = Partition.from_keys(["x", "y", "x", "y"])
    both = intersect(left, right)
    assert both.num_blocks == 4
    assert both.refines(left)
    assert both.refines(right)


def test_intersect_size_mismatch():
    with pytest.raises(IndexInvariantError):
        intersect(Partition([0]), Partition([0, 0]))


def test_blocks_as_sets():
    p = Partition.from_keys(["a", "b", "a"])
    assert blocks_as_sets(p) == [frozenset({0, 2}), frozenset({1})]


def test_trusted_skips_validation_but_matches_init():
    block_of = [0, 1, 0, 2]
    blocks = [[0, 2], [1], [3]]
    fast = Partition.trusted(block_of, blocks)
    assert fast == Partition([0, 1, 0, 2])
    assert fast.block_of is block_of
    assert fast.blocks is blocks


def test_from_keys_uses_fast_path_consistently():
    # from_keys builds both maps in one pass; the result must be exactly
    # what the validating constructor would produce.
    keys = ["x", "y", "x", "z", "y", "x"]
    p = Partition.from_keys(keys)
    assert p.block_of == Partition(p.block_of).block_of
    assert p.blocks == Partition(p.block_of).blocks
