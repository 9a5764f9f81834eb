"""Versioned JSON persistence for index graphs and D(k)-indexes.

A document store should not rebuild its structural summary on every
restart; this module persists an :class:`~repro.indexes.base.IndexGraph`
(and the :class:`~repro.core.dindex.DKIndex` wrapper with its
requirements) alongside the data graph.

Format::

    {
      "format": "repro-indexgraph",
      "version": 1,
      "graph": { ...repro-datagraph document... },   # optional embed
      "node_of": [0, 1, 1, ...],                     # data node -> block
      "k": [0, 2, ...],                              # per index node
      "requirements": {"title": 2}                   # DKIndex only
    }

Only the partition and the ``k`` values are stored; extents, adjacency
and the label index are cheap to rebuild and storing them would only
add consistency hazards.  The loader re-derives everything through
``IndexGraph.from_partition`` and verifies invariants, so a corrupted
file cannot produce a silently unsound index.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import IO, Any

from repro.core.broadcast import MAX_LEVEL
from repro.core.dindex import DKIndex, check_dk_constraint
from repro.exceptions import IndexInvariantError, SerializationError
from repro.graph.datagraph import DataGraph
from repro.graph.serialize import graph_from_dict, graph_to_dict
from repro.indexes.base import IndexGraph
from repro.maintenance.store import atomic_write_document, read_document
from repro.partition.blocks import Partition

FORMAT_NAME = "repro-indexgraph"
FORMAT_VERSION = 1


def index_to_dict(
    index: IndexGraph,
    embed_graph: bool = True,
    requirements: dict[str, int] | None = None,
) -> dict[str, Any]:
    """JSON-ready dictionary for an index graph.

    Args:
        index: the index.
        embed_graph: include the data graph in the same document (set
            False when the graph is persisted separately).
        requirements: per-label requirements (for D(k) indexes).
    """
    document: dict[str, Any] = {
        "format": FORMAT_NAME,
        "version": FORMAT_VERSION,
        "node_of": list(index.node_of),
        "k": list(index.k),
    }
    if embed_graph:
        document["graph"] = graph_to_dict(index.graph)
    if requirements is not None:
        document["requirements"] = dict(requirements)
    return document


def index_from_dict(
    data: dict[str, Any],
    graph: DataGraph | None = None,
    validate: bool = True,
) -> tuple[IndexGraph, dict[str, int] | None]:
    """Rebuild ``(index, requirements)`` from :func:`index_to_dict` output.

    Args:
        data: the stored document.
        graph: the data graph, required when the document does not embed
            one (and forbidden to conflict when it does).
        validate: run ``check_invariants`` on the rebuilt index.  Leave
            on everywhere except callers that immediately re-verify the
            result themselves (checkpoint recovery deep-audits every
            ladder rung, invariants included, before it may win).

    Raises:
        SerializationError: on structural problems or graph mismatch.
    """
    if not isinstance(data, dict):
        raise SerializationError("index document must be a JSON object")
    if data.get("format") != FORMAT_NAME:
        raise SerializationError(f"unexpected format marker: {data.get('format')!r}")
    if data.get("version") != FORMAT_VERSION:
        raise SerializationError(f"unsupported version: {data.get('version')!r}")

    embedded = data.get("graph")
    if embedded is not None:
        if graph is not None:
            raise SerializationError(
                "document embeds a graph; do not pass one explicitly"
            )
        graph = graph_from_dict(embedded)
    if graph is None:
        raise SerializationError("no data graph embedded and none provided")

    node_of = data.get("node_of")
    k_values = data.get("k")
    if not isinstance(node_of, list) or len(node_of) != graph.num_nodes:
        raise SerializationError("'node_of' must map every data node")
    # Exact type tests: JSON true/false are bools, which ``isinstance``
    # would let through as the ints 1 and 0.  Levels past int64 would
    # fail later, when ``k`` is copied into an int64 buffer.
    if not isinstance(k_values, list) or not all(
        type(k) is int and 0 <= k <= MAX_LEVEL for k in k_values
    ):
        raise SerializationError("'k' must be a list of ints in [0, 2**63 - 1]")

    try:
        partition = Partition(node_of)
        index = IndexGraph.from_partition(graph, partition, k_values)
        if validate:
            index.check_invariants()
    except (IndexInvariantError, TypeError, ValueError) as error:
        raise SerializationError(f"stored index is inconsistent: {error}") from error

    requirements = data.get("requirements")
    if requirements is not None:
        if not isinstance(requirements, dict) or not all(
            isinstance(name, str)
            and type(value) is int
            and 0 <= value <= MAX_LEVEL
            for name, value in requirements.items()
        ):
            raise SerializationError(
                "'requirements' must map labels to ints in [0, 2**63 - 1]"
            )
    return index, requirements


def save_index(
    index: IndexGraph,
    target: str | Path | IO[str],
    requirements: dict[str, int] | None = None,
    embed_graph: bool = True,
) -> None:
    """Serialize an index (and optionally its data graph) as JSON.

    Paths are written through the atomic sealed writer of
    :mod:`repro.maintenance.store` (temp + fsync + rename, sha256
    footer): a crash mid-save leaves the previous good file, and any
    later byte flip is detected on load.
    """
    document = index_to_dict(index, embed_graph, requirements)
    if isinstance(target, (str, Path)):
        atomic_write_document(target, document)
    else:
        json.dump(document, target)


def load_index(
    source: str | Path | IO[str],
    graph: DataGraph | None = None,
) -> tuple[IndexGraph, dict[str, int] | None]:
    """Load an index written by :func:`save_index`.

    Sealed files are integrity-checked; unsealed version-1 files from
    before the seal existed load as before.

    Raises:
        SerializationError: on integrity or structural problems.
    """
    return index_from_dict(read_document(source), graph)


def save_dk_index(dk: DKIndex, target: str | Path | IO[str]) -> None:
    """Persist a :class:`DKIndex` (graph + partition + ks + requirements)."""
    save_index(dk.index, target, requirements=dk.requirements, embed_graph=True)


def load_dk_index(source: str | Path | IO[str]) -> DKIndex:
    """Load a :class:`DKIndex` written by :func:`save_dk_index`.

    The D(k) structural constraint is re-verified on load.

    Raises:
        SerializationError: if the stored ks violate Definition 3.
    """
    index, requirements = load_index(source)
    try:
        check_dk_constraint(index)
    except IndexInvariantError as error:
        raise SerializationError(f"stored D(k) ks are invalid: {error}") from error
    return DKIndex(index.graph, index, requirements or {})
