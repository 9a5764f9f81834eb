"""The :class:`Database` facade — everything wired together.

A downstream user who just wants "an indexed XML store" should not have
to compose graphs, indexes, tuners and twig evaluators by hand.
:class:`Database` packages the whole system:

- documents in (XML text or data graphs), incrementally indexed
  (Algorithm 3);
- one `query()` entry point that routes linear path expressions through
  the D(k)-index and branching (twig) patterns through an on-demand
  F&B-index;
- reference edges added/removed through the paper's update algorithms;
- optional self-tuning via :class:`~repro.core.tuner.AdaptiveTuner`;
- persistence (`save` / `load`) and execution statistics.

Example:
    >>> db = Database.from_xml("<db><m><t>x</t></m></db>")
    >>> sorted(db.query("m.t"))
    [3]
    >>> db.statistics.queries
    1
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import IO, Any, Mapping

from repro.core.dindex import DKIndex
from repro.core.tuner import AdaptiveTuner, TunerConfig
from repro.exceptions import ReproError
from repro.maintenance.pipeline import MaintenanceConfig
from repro.graph.datagraph import DataGraph
from repro.graph.stats import GraphStats, graph_stats
from repro.graph.xmlio import parse_xml
from repro.indexes.base import IndexGraph
from repro.indexes.explain import Explanation
from repro.indexes.fbindex import build_fb_index, evaluate_twig_on_fb
from repro.paths.cost import CostCounter, CostSummary
from repro.paths.query import Query, make_query
from repro.paths.twig import TwigQuery, parse_twig


@dataclass
class ExecutionStatistics:
    """Running totals the database keeps about its own behaviour."""

    queries: int = 0
    twig_queries: int = 0
    documents_inserted: int = 0
    edges_added: int = 0
    edges_removed: int = 0
    tuning_actions: int = 0
    cost: CostSummary = field(default_factory=CostSummary)

    def format(self) -> str:
        return (
            f"queries: {self.queries} ({self.twig_queries} twig), "
            f"avg cost {self.cost.average_cost:.1f}, "
            f"validated {self.cost.validation_fraction:.0%} | "
            f"documents: {self.documents_inserted}, "
            f"edges +{self.edges_added}/-{self.edges_removed}, "
            f"tunings: {self.tuning_actions}"
        )


class Database:
    """An indexed store for graph-structured documents.

    Args:
        graph: the initial data graph.
        requirements: initial per-label D(k) requirements (default: start
            at the label-split index and let the tuner learn).
        auto_tune: manage the index with an :class:`AdaptiveTuner`.
        tuner_config: policy knobs when ``auto_tune`` is on.
        audit: post-update audit tier (``off``/``fast``/``deep``); the
            default honours ``DKINDEX_AUDIT`` and falls back to ``fast``.
        journal_path: write-ahead journal location; ``None`` disables
            journaling (see :mod:`repro.maintenance.journal`).
    """

    def __init__(
        self,
        graph: DataGraph | None = None,
        requirements: Mapping[str, int] | None = None,
        auto_tune: bool = True,
        tuner_config: TunerConfig | None = None,
        audit: str | None = None,
        journal_path: str | Path | None = None,
    ) -> None:
        self._maintenance = self._maintenance_config(audit, journal_path)
        self._dk = DKIndex.build(graph or DataGraph(), dict(requirements or {}))
        self._dk.maintenance = self._maintenance
        self._tuner = (
            AdaptiveTuner(self._dk, tuner_config) if auto_tune else None
        )
        self._fb = None  # built lazily, invalidated on every mutation
        self.statistics = ExecutionStatistics()

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------

    @classmethod
    def from_xml(cls, xml: str, **kwargs: Any) -> "Database":
        """Create a database from one XML document."""
        return cls(graph=parse_xml(xml), **kwargs)

    @staticmethod
    def _maintenance_config(
        audit: str | None, journal_path: str | Path | None
    ) -> MaintenanceConfig | None:
        if audit is None and journal_path is None:
            return None  # pipeline defaults (DKINDEX_AUDIT honoured)
        if audit is None:
            return MaintenanceConfig(journal_path=journal_path)
        return MaintenanceConfig(audit=audit, journal_path=journal_path)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def graph(self) -> DataGraph:
        """The underlying data graph (treat as read-only)."""
        return self._dk.graph

    @property
    def index(self) -> DKIndex:
        """The D(k)-index (treat as read-only; use Database methods)."""
        return self._dk

    def graph_statistics(self) -> GraphStats:
        """Descriptive statistics of the stored data."""
        return graph_stats(self._dk.graph)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def query(self, expression: str | Query | TwigQuery) -> set[int]:
        """Evaluate a path expression or twig pattern; returns node ids.

        Strings containing ``[`` parse as twig patterns, everything else
        as regular path expressions.  Linear queries run on the
        D(k)-index (with transparent validation); twig queries run on a
        lazily built F&B-index.
        """
        query = self._coerce(expression)
        counter = CostCounter()
        if isinstance(query, TwigQuery):
            result = evaluate_twig_on_fb(self._fb_index(), query, counter)
            self.statistics.twig_queries += 1
        else:
            result = self._dk.evaluate(query, counter)
            if self._tuner is not None and self._tuner.observe(query):
                self.statistics.tuning_actions += 1
        self.statistics.queries += 1
        self.statistics.cost.add(counter)
        return result

    def labels_of(self, nodes: set[int]) -> list[str]:
        """Convenience: the labels of a result set, sorted by node id."""
        return [self._dk.graph.label(node) for node in sorted(nodes)]

    def explain(self, expression: str | Query) -> "Explanation":
        """EXPLAIN a linear query's evaluation plan (does not execute it
        through the statistics, and twig patterns are not supported)."""
        query = self._coerce(expression)
        if isinstance(query, TwigQuery):
            raise ValueError("explain supports linear path expressions only")
        return self._dk.explain(query)

    def _coerce(
        self, expression: str | Query | TwigQuery
    ) -> Query | TwigQuery:
        if isinstance(expression, (Query, TwigQuery)):
            return expression
        if not isinstance(expression, str):
            raise TypeError(f"cannot interpret query: {expression!r}")
        if "[" in expression:
            return parse_twig(expression)
        return make_query(expression)

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------

    def insert_document(self, document: str | DataGraph) -> list[int]:
        """Insert an XML document (or prepared graph) under the root.

        Returns the node-id mapping from the document into the store
        (Algorithm 3 under the hood).
        """
        subgraph = parse_xml(document) if isinstance(document, str) else document
        mapping = self._dk.add_subgraph(subgraph)
        self._fb = None
        self.statistics.documents_inserted += 1
        return mapping

    def add_reference(self, src: int, dst: int) -> None:
        """Add a reference edge between stored nodes (Algorithms 4+5)."""
        self._dk.add_edge(src, dst)
        self._fb = None
        self.statistics.edges_added += 1

    def remove_reference(self, src: int, dst: int) -> None:
        """Remove an edge (the deletion extension of Section 5)."""
        self._dk.remove_edge(src, dst)
        self._fb = None
        self.statistics.edges_removed += 1

    def retune(self, requirements: Mapping[str, int] | None = None) -> None:
        """Force a promote pass (optionally with new requirements)."""
        self._dk.promote(dict(requirements) if requirements else None)

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------

    def save(self, target: str | Path | IO[str]) -> None:
        """Persist data graph + D(k)-index + requirements as JSON."""
        from repro.indexes.serialize import save_dk_index

        save_dk_index(self._dk, target)

    @classmethod
    def load(cls, source: str | Path | IO[str], **kwargs: Any) -> "Database":
        """Restore a database written by :meth:`save`.

        Raises:
            ReproError: if the stored document is corrupt.
        """
        from repro.indexes.serialize import load_dk_index

        dk = load_dk_index(source)
        database = cls(auto_tune=kwargs.pop("auto_tune", True), **kwargs)
        dk.maintenance = database._maintenance
        database._dk = dk
        if database._tuner is not None:
            database._tuner = AdaptiveTuner(dk, database._tuner.config)
        return database

    def close(self) -> None:
        """Release the journal handle of the index's update pipeline.

        Safe to call twice; a later update reopens the handle.
        """
        self._dk.close()

    # ------------------------------------------------------------------
    # Maintenance
    # ------------------------------------------------------------------

    def check(self) -> None:
        """Verify every structural invariant; raise on corruption."""
        self._dk.check_invariants()
        if self._fb is not None:
            self._fb.check_invariants()

    def _fb_index(self) -> IndexGraph:
        if self._fb is None:
            self._fb = build_fb_index(self._dk.graph)
        return self._fb

    def __repr__(self) -> str:
        return (
            f"Database(nodes={self.graph.num_nodes}, "
            f"edges={self.graph.num_edges}, index={self._dk.size}, "
            f"queries={self.statistics.queries})"
        )
