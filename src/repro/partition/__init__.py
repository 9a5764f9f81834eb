"""Partition-refinement engine.

Bisimulation partitions are the mathematical core of every index in this
library (Section 3, Definitions 1 and 2 of the paper).  This subpackage
provides:

- :class:`~repro.partition.blocks.Partition` — an immutable-ish node
  partition with dense block ids;
- :func:`~repro.partition.refinement.label_partition` — 0-bisimulation
  (label split);
- :func:`~repro.partition.refinement.kbisim_partition` — uniform
  k-bisimulation (the A(k)-index equivalence);
- :func:`~repro.partition.refinement.bisim_partition` — the full
  bisimulation fixpoint (the 1-index equivalence);
- :func:`~repro.partition.refinement.leveled_partition` — per-node freeze
  levels, the generalisation the D(k)-index construction (Algorithm 2)
  needs;
- :class:`~repro.partition.columnar.ColumnarEngine` — the engine behind
  all three by default (``engine="columnar"``): dirty-block batch rounds
  over frozen CSR buffers with an in-place flat block array, contiguous
  signature sweeps and optional numpy vectorisation;
- :class:`~repro.partition.external.ExternalEngine` — the out-of-core
  engine (``engine="external"``): the columnar round loop over a paged
  CSR snapshot behind a byte-budgeted LRU pool, with node-ordered,
  page-at-a-time signature and dirty-children sweeps, the signature
  runs spilling to disk;
- :class:`~repro.partition.engine.RefinementEngine` — the full-rehash
  reference engine (``engine="legacy"``) the others are tested against.
"""

from repro.partition.blocks import Partition
from repro.partition.columnar import ColumnarEngine
from repro.partition.engine import RefinementEngine
from repro.partition.external import ExternalEngine
from repro.partition.refinement import (
    bisim_partition,
    kbisim_partition,
    label_partition,
    leveled_partition,
    resolve_engine,
)

__all__ = [
    "ColumnarEngine",
    "ExternalEngine",
    "Partition",
    "RefinementEngine",
    "bisim_partition",
    "kbisim_partition",
    "label_partition",
    "leveled_partition",
    "resolve_engine",
]
