"""Signature-based partition refinement.

All refinements compute (bounded) *backward* bisimulations: two nodes are
k-bisimilar (Definition 2) when they carry the same label and their
*parents* match recursively to depth k.  One refinement round maps every
participating node to the signature

    ``(current block, set of parents' current blocks)``

and regroups nodes by equal signatures.  One round therefore moves the
partition from k-bisimulation to (k+1)-bisimulation — the same
"split until stable with respect to the previous classes" step as the
A(k)- and D(k)-index construction algorithms, implemented with hashing
rather than explicit ``B ∩ Succ(A)`` splits (the resulting partition is
identical, round for round).

Refinement never merges blocks, so the block count is non-decreasing; a
round that does not increase it has changed nothing, which is the
fixpoint test used by :func:`bisim_partition`.

Three engines implement the rounds, and every driver below dispatches
its ``engine=`` name through one table:

- ``"columnar"`` (the default) — the batch engine of
  :mod:`repro.partition.columnar`: only nodes whose parents' blocks
  just split are re-hashed, over the graph's frozen CSR view, with an
  in-place flat node→block array and contiguous-slice signature sweeps
  (optionally numpy-vectorised via the ``fast`` extra).
- ``"external"`` — the out-of-core engine of
  :mod:`repro.partition.external`: the columnar round loop run over a
  paged CSR snapshot (:mod:`repro.storage.paged`) behind a
  byte-budgeted LRU pool, with node-ordered, page-at-a-time signature
  and dirty-children sweeps, keeping only node-sized state in memory —
  for graphs whose flat buffers should not (or cannot) be held in
  memory.
- ``"legacy"`` — the reference engine of
  :mod:`repro.partition.engine`: a full-rehash loop over
  :func:`~repro.partition.engine.refine_once` (the equivalence test
  suite checks the other engines against it round for round).

``engine="auto"`` resolves to the columnar engine.

When the external engine *fails on storage* — retry budget exhausted,
disk full, pool unsatisfiable — the drivers degrade to the columnar
engine instead of dying, emitting a
:class:`~repro.exceptions.StorageDegradationWarning` (every engine
computes the identical partition, so correctness is unaffected; only
the resource profile changes).  To fail loudly instead, turn the
warning into an error (``warnings.simplefilter("error",
StorageDegradationWarning)``) or drive
:class:`~repro.partition.external.ExternalEngine` directly, which has
no fallback.  Injected crash faults
(:class:`~repro.exceptions.InjectedFaultError`) are never absorbed — a
simulated crash must stay loud.
"""

from __future__ import annotations

import warnings
from contextlib import closing
from typing import Callable, Sequence, TypeVar

from repro.exceptions import PagedStoreError, StorageDegradationWarning
from repro.partition.blocks import Partition
from repro.partition.columnar import ColumnarEngine
from repro.partition.engine import LabeledAdjacency, RefinementEngine

#: Engine names accepted by the ``engine=`` parameters below.
ENGINE_CHOICES = ("auto", "columnar", "external", "legacy")

#: Fallback order when a storage-backed engine is exhausted.  The
#: in-memory engines have no entry: they touch no storage, so a failure
#: there is not a storage failure and must propagate.
_DEGRADE_CHAIN = {"external": "columnar"}

#: The storage-exhaustion error classes a fallback may absorb.
#: :class:`~repro.exceptions.InjectedFaultError` is deliberately not
#: here — it subclasses none of these, so simulated crashes stay loud.
_DEGRADABLE_ERRORS = (PagedStoreError, OSError, MemoryError)

_R = TypeVar("_R")

#: Every engine exposes ``run_kbisim`` / ``run_fixpoint`` /
#: ``run_leveled`` and ``close``; the external engine is a columnar one.
_Engine = ColumnarEngine | RefinementEngine


def _external_engine(graph: LabeledAdjacency) -> ColumnarEngine:
    """Build the out-of-core engine (imported lazily: storage stack)."""
    from repro.partition.external import ExternalEngine

    return ExternalEngine(graph)


#: Engine name -> constructor from the graph.
_ENGINES: dict[str, Callable[[LabeledAdjacency], _Engine]] = {
    "columnar": ColumnarEngine,
    "external": _external_engine,
    "legacy": RefinementEngine,
}


def resolve_engine(engine: str) -> str:
    """Resolve ``engine=`` to a concrete engine name.

    ``"auto"`` yields ``"columnar"``; concrete names (``"columnar"``,
    ``"external"``, ``"legacy"``) pass through.

    Raises:
        ValueError: for unknown engine names.
    """
    if engine == "auto":
        return "columnar"
    if engine not in _ENGINES:
        raise ValueError(
            f"unknown refinement engine {engine!r}; choose from "
            f"{ENGINE_CHOICES}"
        )
    return engine


def _run_degradable(
    graph: LabeledAdjacency,
    engine: str,
    run: Callable[[_Engine], _R],
) -> _R:
    """Apply ``run`` to the selected engine, degrading down the chain.

    A storage-exhaustion failure (:data:`_DEGRADABLE_ERRORS`) in an
    engine with a fallback restarts the build on the next engine down,
    with a :class:`StorageDegradationWarning` — every engine computes
    the identical partition, so the retry is semantically free.  The
    absence of a fallback and non-storage exceptions (including
    injected crash faults) re-raise unchanged, as does the warning
    itself when a filter turns it into an error.  Called directly by
    the public drivers, so the warning's ``stacklevel`` points at the
    driver's caller.

    Raises:
        ValueError: for unknown engine names.
    """
    current = resolve_engine(engine)
    while True:
        try:
            with closing(_ENGINES[current](graph)) as instance:
                return run(instance)
        except _DEGRADABLE_ERRORS as error:
            fallback = _DEGRADE_CHAIN.get(current)
            if fallback is None:
                raise
            warnings.warn(
                StorageDegradationWarning(current, fallback, str(error)),
                stacklevel=3,
            )
            current = fallback


def label_partition(graph: LabeledAdjacency) -> Partition:
    """The 0-bisimulation partition: group nodes by label.

    This is the paper's "label-split index graph", the starting point of
    every construction algorithm.
    """
    return Partition.from_keys(list(graph.label_ids))


def kbisim_partition(
    graph: LabeledAdjacency,
    k: int,
    *,
    engine: str = "auto",
) -> Partition:
    """The k-bisimulation partition (the A(k)-index equivalence).

    Runs ``k`` refinement rounds from the label partition, stopping early
    at a fixpoint (further rounds cannot change a stable partition).

    Args:
        graph: the data (or index) graph.
        k: the uniform bisimilarity bound (>= 0).
        engine: ``"columnar"`` (default via ``"auto"``), ``"external"``
            or ``"legacy"``.

    Raises:
        ValueError: if ``k`` is negative or ``engine`` is unknown.
    """
    return _run_degradable(graph, engine, lambda impl: impl.run_kbisim(k))


def bisim_partition(
    graph: LabeledAdjacency,
    *,
    engine: str = "auto",
) -> tuple[Partition, int]:
    """The full-bisimulation fixpoint (the 1-index equivalence).

    Returns ``(partition, rounds)`` where ``rounds`` is the number of
    refinement rounds needed to stabilise (the graph's bisimulation
    "depth"); nodes in a common block are k-bisimilar for every k.
    """
    return _run_degradable(graph, engine, lambda impl: impl.run_fixpoint())


def leveled_partition(
    graph: LabeledAdjacency,
    node_levels: Sequence[int],
    *,
    engine: str = "auto",
) -> Partition:
    """Per-node bounded bisimulation, the D(k) construction core.

    ``node_levels[v]`` is the local-similarity level node ``v`` must be
    refined to (the broadcast-adjusted requirement of its label).  During
    round ``i`` only nodes with ``node_levels[v] >= i`` participate; all
    others are frozen at their previous block.  This reproduces
    Algorithm 2 of the paper: splitting proceeds from the label-split
    graph, each round splits only the index nodes whose requirement is at
    least the round number, and newly created nodes inherit requirements.
    Participant sets only shrink as the round number grows, so the first
    round that changes nothing ends the run.

    When the levels are uniform this equals :func:`kbisim_partition`;
    when they satisfy the broadcast constraint
    ``level(parent) >= level(child) - 1`` the result is a valid
    D(k)-index partition (Theorem 1).

    Raises:
        ValueError: if ``node_levels`` has the wrong length or any
            negative entry.
    """
    return _run_degradable(
        graph, engine, lambda impl: impl.run_leveled(node_levels)
    )
