"""JSON persistence for query loads.

A mined query load is an asset: the requirements derived from it shape
the index, and experiments must be replayable.  The format stores each
distinct query as its source text plus its weight:

.. code-block:: json

    {
      "format": "repro-queryload",
      "version": 1,
      "queries": [["//a.b", 3], ["/site.regions", 1], ...]
    }

Twig patterns are stored with a ``twig:`` prefix so the loader knows
which parser to use.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import IO, Any

from repro.exceptions import SerializationError
from repro.paths.query import Query, make_query
from repro.paths.twig import TwigQuery, parse_twig
from repro.workload.queryload import QueryLoad

FORMAT_NAME = "repro-queryload"
FORMAT_VERSION = 1


def _query_to_text(query: Query | TwigQuery) -> str:
    if isinstance(query, TwigQuery):
        return "twig:" + query.to_text()
    return query.to_text()


def _query_from_text(text: str) -> Query | TwigQuery:
    if text.startswith("twig:"):
        return parse_twig(text[len("twig:"):])
    return make_query(text)


def load_to_dict(load: QueryLoad) -> dict[str, Any]:
    """JSON-ready dictionary for a query load."""
    return {
        "format": FORMAT_NAME,
        "version": FORMAT_VERSION,
        "queries": [
            [_query_to_text(query), weight] for query, weight in load.items()
        ],
    }


def load_from_dict(data: dict[str, Any]) -> QueryLoad:
    """Rebuild a query load from :func:`load_to_dict` output.

    Raises:
        SerializationError: on structural problems (a malformed query
        text raises its own :class:`~repro.exceptions.PathSyntaxError`).
    """
    if not isinstance(data, dict):
        raise SerializationError("query-load document must be a JSON object")
    if data.get("format") != FORMAT_NAME:
        raise SerializationError(f"unexpected format marker: {data.get('format')!r}")
    if data.get("version") != FORMAT_VERSION:
        raise SerializationError(f"unsupported version: {data.get('version')!r}")
    entries = data.get("queries")
    if not isinstance(entries, list):
        raise SerializationError("'queries' must be a list")
    load = QueryLoad()
    for entry in entries:
        if (
            not isinstance(entry, (list, tuple))
            or len(entry) != 2
            or not isinstance(entry[0], str)
            or not isinstance(entry[1], int)
        ):
            raise SerializationError(f"malformed query entry: {entry!r}")
        text, weight = entry
        load.add(_query_from_text(text), weight)
    return load


def save_query_load(load: QueryLoad, target: str | Path | IO[str]) -> None:
    """Serialize a query load as JSON to a path or text stream.

    Paths are written through the atomic sealed writer of
    :mod:`repro.maintenance.store` (crash-safe, integrity-checked).
    """
    from repro.maintenance.store import atomic_write_document

    document = load_to_dict(load)
    if isinstance(target, (str, Path)):
        atomic_write_document(target, document)
    else:
        json.dump(document, target)


def load_query_load(source: str | Path | IO[str]) -> QueryLoad:
    """Load a query load written by :func:`save_query_load`.

    Sealed files are integrity-checked; unsealed version-1 files load
    as before.

    Raises:
        SerializationError: on integrity or structural problems.
    """
    from repro.maintenance.store import read_document

    return load_from_dict(read_document(source))
