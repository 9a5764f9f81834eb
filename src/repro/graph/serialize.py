"""Versioned JSON persistence for data graphs.

The format is deliberately simple and diff-friendly:

.. code-block:: json

    {
      "format": "repro-datagraph",
      "version": 2,
      "labels": ["ROOT", "movie", ...],
      "nodes": [0, 1, 1, ...],            // label id per node
      "sources": [0, 1, 1, ...],          // edge i is sources[i] -> targets[i]
      "targets": [1, 2, 3, ...]
    }

Node 0 must be the ROOT node.  The loader validates structure so that a
corrupted file fails loudly rather than producing a subtly broken graph.
Version-1 documents, which hold one ``[src, dst]`` list per edge under
``"edges"``, still load; version 2 decodes into two lists instead of
one per edge.

The columnar (frozen CSR) representation is persisted by the paged
store of :mod:`repro.storage.paged`; this module keeps the byte-order
doors it decodes and encodes its buffers through
(:func:`buffer_from_bytes` and :func:`buffer_to_bytes`) and its format
constants.
"""

from __future__ import annotations

import io
import json
import sys
from array import array
from itertools import chain, repeat
from operator import itemgetter
from pathlib import Path
from typing import IO, Any

from repro.exceptions import GraphError, SerializationError
from repro.graph.columnar import BUFFER_TYPECODE
from repro.graph.datagraph import ROOT_LABEL, DataGraph

FORMAT_NAME = "repro-datagraph"
FORMAT_VERSION = 2

#: Versions :func:`graph_from_dict` reads: 1 holds ``[src, dst]`` pairs.
_READABLE_VERSIONS = (1, FORMAT_VERSION)

#: Format name of the paged store's manifest (see
#: :mod:`repro.storage.paged`, which owns reading and writing it).
FROZEN_FORMAT_NAME = "repro-datagraph-frozen"

#: Version stamp of the paged manifest: the CSR buffers live in
#: fixed-size pages inside segment files, referenced by a page-table
#: header.  Version 2, one file per page, still loads.
FROZEN_PAGED_VERSION = 3


def graph_to_dict(graph: DataGraph) -> dict[str, Any]:
    """Return the JSON-ready dictionary representation of ``graph``."""
    rows = graph.children
    return {
        "format": FORMAT_NAME,
        "version": FORMAT_VERSION,
        "labels": list(graph.label_names()),
        "nodes": list(graph.label_ids),
        "sources": list(
            chain.from_iterable(repeat(src, len(row)) for src, row in enumerate(rows))
        ),
        "targets": list(chain.from_iterable(rows)),
    }


def graph_from_dict(data: dict[str, Any]) -> DataGraph:
    """Rebuild a graph from :func:`graph_to_dict` output (either version).

    Raises:
        SerializationError: on any structural problem.
    """
    if not isinstance(data, dict):
        raise SerializationError("graph document must be a JSON object")
    if data.get("format") != FORMAT_NAME:
        raise SerializationError(f"unexpected format marker: {data.get('format')!r}")
    version = data.get("version")
    # ``type(version) is int``: JSON true would otherwise pass as 1.
    if type(version) is not int or version not in _READABLE_VERSIONS:
        raise SerializationError(f"unsupported version: {version!r}")
    labels = data.get("labels")
    nodes = data.get("nodes")
    if not isinstance(labels, list) or not _all_of_types(labels, {str}):
        raise SerializationError("'labels' must be a list of strings")
    # Exact type tests: JSON true/false are bools, which ``isinstance``
    # would let through as the ints 1 and 0.
    if not isinstance(nodes, list) or not _all_of_types(nodes, {int}):
        raise SerializationError("'nodes' must be a list of label ids")
    if version == 1 and not isinstance(data.get("edges"), list):
        raise SerializationError("'edges' must be a list")
    if not nodes:
        raise SerializationError("graph must contain at least the ROOT node")
    if min(nodes) < 0 or max(nodes) >= len(labels):
        bad = next(label_id for label_id in nodes if not 0 <= label_id < len(labels))
        raise SerializationError(f"label id out of range: {bad}")
    if labels[nodes[0]] != ROOT_LABEL:
        raise SerializationError("node 0 must carry the ROOT label")

    if version == 1:
        sources, targets = _edge_arrays(data["edges"], len(nodes))
    else:
        sources, targets = _flat_edge_arrays(
            data.get("sources"), data.get("targets"), len(nodes)
        )
    try:
        return DataGraph.from_arrays(labels, nodes, sources, targets)
    except GraphError as error:
        raise SerializationError(f"corrupt graph document: {error}") from error


def _all_of_types(values: list[Any], types: set[type]) -> bool:
    """Whether every element's exact type is in ``types``."""
    return set(map(type, values)) <= types


def _flat_edge_arrays(
    sources: object, targets: object, num_nodes: int
) -> tuple[list[int], list[int]]:
    """Check a version-2 document's ``sources`` and ``targets``.

    Raises:
        SerializationError: unless both are lists of node ids of equal
            length.
    """
    if not (
        isinstance(sources, list)
        and isinstance(targets, list)
        and _all_of_types(sources, {int})
        and _all_of_types(targets, {int})
    ):
        raise SerializationError("'sources' and 'targets' must be lists of node ids")
    if len(sources) != len(targets):
        raise SerializationError(
            f"'sources' and 'targets' differ in length "
            f"({len(sources)} != {len(targets)})"
        )
    for endpoints in (sources, targets):
        if endpoints and (min(endpoints) < 0 or max(endpoints) >= num_nodes):
            bad = next(node for node in endpoints if not 0 <= node < num_nodes)
            raise SerializationError(f"edge references unknown node: {bad}")
    return sources, targets


def _edge_arrays(edges: list[Any], num_nodes: int) -> tuple[list[int], list[int]]:
    """Split a version-1 ``[[src, dst], ...]`` into source and target
    arrays.

    The whole-array checks run at C speed; a document they do not clear
    takes the per-entry loop, which names the first bad entry.

    Raises:
        SerializationError: for a malformed entry or an unknown node.
    """
    if _all_of_types(edges, {list, tuple}) and set(map(len, edges)) <= {2}:
        sources = list(map(itemgetter(0), edges))
        targets = list(map(itemgetter(1), edges))
        endpoints = sources + targets
        if (
            _all_of_types(endpoints, {int})
            and min(endpoints, default=0) >= 0
            and max(endpoints, default=0) < num_nodes
        ):
            return sources, targets
    sources, targets = [], []
    for entry in edges:
        if (
            not isinstance(entry, (list, tuple))
            or len(entry) != 2
            or not all(type(x) is int for x in entry)
        ):
            raise SerializationError(f"malformed edge entry: {entry!r}")
        src, dst = entry
        if not (0 <= src < num_nodes and 0 <= dst < num_nodes):
            raise SerializationError(f"edge references unknown node: {entry!r}")
        sources.append(src)
        targets.append(dst)
    return sources, targets


def save_graph(graph: DataGraph, target: str | Path | IO[str]) -> None:
    """Serialize ``graph`` as JSON to a path or text file object.

    Paths are written through the atomic sealed writer of
    :mod:`repro.maintenance.store`: a crash mid-save leaves the
    previous good file, and any later byte flip is detected on load.
    """
    from repro.maintenance.store import atomic_write_document

    document = graph_to_dict(graph)
    if isinstance(target, (str, Path)):
        atomic_write_document(target, document)
    else:
        json.dump(document, target)


def load_graph(source: str | Path | IO[str]) -> DataGraph:
    """Load a graph previously written by :func:`save_graph`.

    Sealed files are integrity-checked; unsealed version-1 files from
    before the seal existed load as before.

    Raises:
        SerializationError: on integrity or structural problems.
    """
    from repro.maintenance.store import read_document

    return graph_from_dict(read_document(source))


def buffer_from_bytes(name: str, raw: bytes, byteorder: str) -> "array[int]":
    """Raw int64 bytes in ``byteorder`` -> a *native* ``array('q')``.

    The decode door of the binary pages of
    :mod:`repro.storage.paged`: a payload stamped with the opposite
    endianness is byteswapped, never rejected and never misread.

    Raises:
        SerializationError: for a byte count that is not a whole number
            of 64-bit entries.
    """
    buffer = array(BUFFER_TYPECODE)
    try:
        buffer.frombytes(raw)
    except ValueError as error:
        raise SerializationError(
            f"frozen buffer {name!r} is not a whole number of 64-bit "
            f"entries ({len(raw)} bytes)"
        ) from error
    if byteorder != sys.byteorder:
        buffer.byteswap()
    return buffer


def buffer_to_bytes(buffer: "array[int]", byteorder: str) -> bytes:
    """A native ``array('q')`` -> raw bytes in ``byteorder``.

    The symmetric encode door: a store created on a foreign-endian host
    keeps *all* its payloads in the creation stamp's order, so mixing
    pages written before and after a host migration cannot happen.
    """
    if byteorder != sys.byteorder:
        swapped = array(BUFFER_TYPECODE, buffer)
        swapped.byteswap()
        return swapped.tobytes()
    return buffer.tobytes()


def dumps(graph: DataGraph) -> str:
    """Serialize ``graph`` to a JSON string."""
    buffer = io.StringIO()
    save_graph(graph, buffer)
    return buffer.getvalue()


def loads(text: str) -> DataGraph:
    """Load a graph from a JSON string."""
    return load_graph(io.StringIO(text))
