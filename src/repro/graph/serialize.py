"""Versioned JSON persistence for data graphs.

The format is deliberately simple and diff-friendly:

.. code-block:: json

    {
      "format": "repro-datagraph",
      "version": 1,
      "labels": ["ROOT", "movie", ...],
      "nodes": [0, 1, 1, ...],            // label id per node
      "edges": [[0, 1], [1, 2], ...]
    }

Node 0 must be the ROOT node.  The loader validates structure so that a
corrupted file fails loudly rather than producing a subtly broken graph.

A second, columnar format (``repro-datagraph-frozen``) persists the CSR
buffers of a frozen graph (see :mod:`repro.graph.columnar`) directly —
base64-encoded native ``array('q')`` bytes plus the producer's byte
order, so a loader on the other endianness byte-swaps on read.  Loading
a frozen document rebuilds the mutable graph *and* re-adopts the stored
snapshot as its cached frozen view: ``loaded.freeze()`` returns the
deserialized buffers without re-flattening any adjacency.
"""

from __future__ import annotations

import base64
import binascii
import io
import json
import sys
from array import array
from operator import itemgetter
from pathlib import Path
from typing import IO, Any

from repro.exceptions import GraphError, SerializationError
from repro.graph.columnar import BUFFER_TYPECODE, CSRGraph
from repro.graph.datagraph import ROOT_LABEL, DataGraph

FORMAT_NAME = "repro-datagraph"
FORMAT_VERSION = 1

FROZEN_FORMAT_NAME = "repro-datagraph-frozen"
FROZEN_FORMAT_VERSION = 1

#: Version stamp of the *paged* frozen variant: the same format name,
#: but the CSR buffers live in fixed-size page files referenced by a
#: page-table header instead of inline base64 (see
#: :mod:`repro.storage.paged`, which owns reading and writing it).
FROZEN_PAGED_VERSION = 2

#: The CSR buffers a frozen document must carry, in document order.
_FROZEN_BUFFERS = (
    "label_ids",
    "child_offsets",
    "child_targets",
    "parent_offsets",
    "parent_targets",
)


def graph_to_dict(graph: DataGraph) -> dict[str, Any]:
    """Return the JSON-ready dictionary representation of ``graph``."""
    return {
        "format": FORMAT_NAME,
        "version": FORMAT_VERSION,
        "labels": list(graph.label_names()),
        "nodes": list(graph.label_ids),
        "edges": [[src, dst] for src, dst in graph.edges()],
    }


def graph_from_dict(data: dict[str, Any]) -> DataGraph:
    """Rebuild a graph from :func:`graph_to_dict` output.

    Raises:
        SerializationError: on any structural problem.
    """
    if not isinstance(data, dict):
        raise SerializationError("graph document must be a JSON object")
    if data.get("format") != FORMAT_NAME:
        raise SerializationError(f"unexpected format marker: {data.get('format')!r}")
    if data.get("version") != FORMAT_VERSION:
        raise SerializationError(f"unsupported version: {data.get('version')!r}")
    labels = data.get("labels")
    nodes = data.get("nodes")
    edges = data.get("edges")
    if not isinstance(labels, list) or not _all_of_types(labels, {str}):
        raise SerializationError("'labels' must be a list of strings")
    # Exact type tests: JSON true/false are bools, which ``isinstance``
    # would let through as the ints 1 and 0.
    if not isinstance(nodes, list) or not _all_of_types(nodes, {int}):
        raise SerializationError("'nodes' must be a list of label ids")
    if not isinstance(edges, list):
        raise SerializationError("'edges' must be a list")
    if not nodes:
        raise SerializationError("graph must contain at least the ROOT node")
    if min(nodes) < 0 or max(nodes) >= len(labels):
        bad = next(label_id for label_id in nodes if not 0 <= label_id < len(labels))
        raise SerializationError(f"label id out of range: {bad}")
    if labels[nodes[0]] != ROOT_LABEL:
        raise SerializationError("node 0 must carry the ROOT label")

    try:
        return DataGraph.from_arrays(labels, nodes, *_edge_arrays(edges, len(nodes)))
    except GraphError as error:
        raise SerializationError(f"corrupt graph document: {error}") from error


def _all_of_types(values: list[Any], types: set[type]) -> bool:
    """Whether every element's exact type is in ``types``."""
    return set(map(type, values)) <= types


def _edge_arrays(edges: list[Any], num_nodes: int) -> tuple[list[int], list[int]]:
    """Split ``[[src, dst], ...]`` into source and target arrays.

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


def _encode_buffer(buffer: "array[int]") -> str:
    """Base64 of the buffer's raw native-endian bytes."""
    return base64.b64encode(buffer.tobytes()).decode("ascii")


def buffer_from_bytes(name: str, raw: bytes, byteorder: str) -> "array[int]":
    """Raw int64 bytes in ``byteorder`` -> a *native* ``array('q')``.

    The single decode door for every frozen representation: the inline
    base64 buffers below and the binary page files of
    :mod:`repro.storage.paged` both route through it, so a payload
    stamped with the opposite endianness is byteswapped (never rejected,
    never misread) on every load path.

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


def _decode_buffer(name: str, text: object, byteorder: str) -> "array[int]":
    """Decode one stored buffer back into a native ``array('q')``.

    Raises:
        SerializationError: for malformed base64 or a byte count that is
            not a whole number of 64-bit entries.
    """
    if not isinstance(text, str):
        raise SerializationError(f"frozen buffer {name!r} must be a string")
    try:
        raw = base64.b64decode(text.encode("ascii"), validate=True)
    except (binascii.Error, UnicodeEncodeError) as error:
        raise SerializationError(
            f"frozen buffer {name!r} is not valid base64: {error}"
        ) from error
    return buffer_from_bytes(name, raw, byteorder)


def frozen_to_dict(graph: DataGraph) -> dict[str, Any]:
    """The columnar document for ``graph`` (freezes it if needed).

    Buffer bytes are written in the producer's native byte order, which
    is recorded in the document so a foreign-endian loader can swap.
    """
    view = graph.freeze()
    return {
        "format": FROZEN_FORMAT_NAME,
        "version": FROZEN_FORMAT_VERSION,
        "byteorder": sys.byteorder,
        "labels": list(graph.label_names()),
        "num_nodes": view.num_nodes,
        "num_edges": view.num_edges,
        "sealed": graph.sealed,
        "buffers": {
            name: _encode_buffer(getattr(view, name))
            for name in _FROZEN_BUFFERS
        },
    }


def frozen_from_dict(data: dict[str, Any]) -> DataGraph:
    """Rebuild a graph (plus its frozen view) from :func:`frozen_to_dict`.

    The decoded buffers are invariant-checked (offset monotonicity,
    target ranges, forward/backward agreement) before any graph is
    built, then adopted as the result's cached frozen view — the
    offsets are *not* re-derived from adjacency.

    Raises:
        SerializationError: on any structural or integrity problem.
    """
    if not isinstance(data, dict):
        raise SerializationError("frozen document must be a JSON object")
    if data.get("format") != FROZEN_FORMAT_NAME:
        raise SerializationError(
            f"unexpected format marker: {data.get('format')!r}"
        )
    if data.get("version") == FROZEN_PAGED_VERSION:
        raise SerializationError(
            "this is a paged (version-2) frozen manifest whose buffers "
            "live in external page files; open the store directory with "
            "repro.storage.paged.PagedCSRGraph.open instead"
        )
    if data.get("version") != FROZEN_FORMAT_VERSION:
        raise SerializationError(
            f"unsupported frozen version: {data.get('version')!r}"
        )
    byteorder = data.get("byteorder")
    if byteorder not in ("little", "big"):
        raise SerializationError(f"invalid byteorder: {byteorder!r}")
    labels = data.get("labels")
    if not isinstance(labels, list) or not all(
        isinstance(name, str) for name in labels
    ):
        raise SerializationError("'labels' must be a list of strings")
    encoded = data.get("buffers")
    if not isinstance(encoded, dict) or set(encoded) != set(_FROZEN_BUFFERS):
        raise SerializationError(
            f"'buffers' must carry exactly {sorted(_FROZEN_BUFFERS)}"
        )
    buffers = {
        name: _decode_buffer(name, encoded[name], byteorder)
        for name in _FROZEN_BUFFERS
    }
    try:
        view = CSRGraph(
            buffers["label_ids"],
            buffers["child_offsets"],
            buffers["child_targets"],
            buffers["parent_offsets"],
            buffers["parent_targets"],
            num_labels=len(labels),
        )
        view.check_invariants()
        if data.get("num_nodes") != view.num_nodes:
            raise SerializationError("'num_nodes' disagrees with buffers")
        if data.get("num_edges") != view.num_edges:
            raise SerializationError("'num_edges' disagrees with buffers")
        graph = view.to_datagraph(labels)
        # Version-1 files from before the flag default to unsealed.
        if data.get("sealed", False):
            graph.freeze(mode="seal")
        return graph
    except GraphError as error:
        raise SerializationError(f"corrupt frozen buffers: {error}") from error


def save_frozen_graph(graph: DataGraph, target: str | Path | IO[str]) -> None:
    """Serialize ``graph``'s frozen CSR view to a path or file object.

    Paths go through the same atomic sealed writer as
    :func:`save_graph` (crash-safe replace, checksummed footer).
    """
    from repro.maintenance.store import atomic_write_document

    document = frozen_to_dict(graph)
    if isinstance(target, (str, Path)):
        atomic_write_document(target, document)
    else:
        json.dump(document, target)


def load_frozen_graph(source: str | Path | IO[str]) -> DataGraph:
    """Load a graph written by :func:`save_frozen_graph`.

    The result's ``freeze()`` returns the deserialized snapshot without
    rebuilding any CSR offsets.

    Raises:
        SerializationError: on integrity or structural problems.
    """
    from repro.maintenance.store import read_document

    return frozen_from_dict(read_document(source))


def dumps(graph: DataGraph) -> str:
    """Serialize ``graph`` to a JSON string."""
    buffer = io.StringIO()
    save_graph(graph, buffer)
    return buffer.getvalue()


def loads(text: str) -> DataGraph:
    """Load a graph from a JSON string."""
    return load_graph(io.StringIO(text))
