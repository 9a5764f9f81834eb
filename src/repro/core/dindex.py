"""The :class:`DKIndex` facade — the library's main entry point.

Ties together the data graph, the index graph, the mined per-label
requirements and every operation of the paper:

>>> from repro.graph.xmlio import parse_xml
>>> from repro.paths.query import make_query
>>> from repro.core.dindex import DKIndex
>>> g = parse_xml("<db><m><t>x</t></m><m><t>y</t></m></db>")
>>> dk = DKIndex.build(g, {"t": 2})
>>> sorted(dk.evaluate(make_query("db.m.t")))
[3, 6]
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Mapping

if TYPE_CHECKING:  # runtime imports stay lazy, see DKIndex.explain/.pipeline
    from repro.indexes.explain import Explanation
    from repro.maintenance.pipeline import MaintenanceConfig, UpdatePipeline

from repro.core.construction import build_dk_index
from repro.core.promote import PromoteReport
from repro.core.requirements import requirements_from_queries
from repro.core.updates import EdgeUpdateReport
from repro.exceptions import IndexInvariantError
from repro.graph.datagraph import DataGraph
from repro.indexes.base import IndexGraph
from repro.indexes.evaluation import evaluate_on_index
from repro.paths.cost import CostCounter
from repro.paths.query import Query


def check_dk_constraint(index: IndexGraph) -> None:
    """Verify Definition 3: ``k(n_i) >= k(n_j) - 1`` on every index edge.

    Raises:
        IndexInvariantError: naming the offending edge.
    """
    for src in range(index.num_nodes):
        k_src = index.k[src]
        for dst in index.children[src]:
            if k_src < index.k[dst] - 1:
                raise IndexInvariantError(
                    f"D(k) constraint violated on edge {src} -> {dst}: "
                    f"k({src})={k_src} < k({dst})-1={index.k[dst] - 1}"
                )


@dataclass
class DKIndexStats:
    """Size snapshot of a D(k)-index."""

    index_nodes: int
    index_edges: int
    data_nodes: int
    data_edges: int
    min_k: int
    max_k: int

    def format(self) -> str:
        return (
            f"index nodes: {self.index_nodes}, index edges: {self.index_edges}, "
            f"data nodes: {self.data_nodes}, data edges: {self.data_edges}, "
            f"k range: [{self.min_k}, {self.max_k}]"
        )


class DKIndex:
    """An adaptive D(k)-index over a data graph.

    Create with :meth:`build` (explicit requirements) or
    :meth:`from_query_load` (mine requirements from queries first).

    Attributes:
        graph: the underlying data graph (owned: updates mutate it).
        index: the :class:`IndexGraph`.
        requirements: the per-label requirements the index was built (or
            last promoted/demoted) for.
        maintenance: the :class:`~repro.maintenance.pipeline.MaintenanceConfig`
            for the update pipeline (``None`` means defaults: no journal,
            audit tier from ``DKINDEX_AUDIT``).
    """

    def __init__(
        self,
        graph: DataGraph,
        index: IndexGraph,
        requirements: Mapping[str, int],
        maintenance: "MaintenanceConfig | None" = None,
    ) -> None:
        self.graph = graph
        self.index = index
        self.requirements = dict(requirements)
        self.maintenance = maintenance
        self._pipeline: "UpdatePipeline | None" = None

    @property
    def pipeline(self) -> "UpdatePipeline":
        """The transactional update pipeline (created on first use).

        Every mutating method below routes through it, so by default any
        update is atomic (rolled back bit-identically on exception) and
        audited after commit; configure journaling and the audit tier
        with :attr:`maintenance`.
        """
        if self._pipeline is None:
            from repro.maintenance.pipeline import UpdatePipeline

            self._pipeline = UpdatePipeline(self, self.maintenance)
        return self._pipeline

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------

    @classmethod
    def build(
        cls, graph: DataGraph, requirements: Mapping[str, int]
    ) -> "DKIndex":
        """Build from explicit per-label local-similarity requirements,
        with the columnar refinement engine."""
        index, _levels = build_dk_index(graph, requirements)
        return cls(graph, index, requirements)

    @classmethod
    def from_query_load(cls, graph: DataGraph, queries: Iterable[Query]) -> "DKIndex":
        """Mine requirements from a query load, then build.

        Implements the paper's protocol: each label's requirement is the
        longest query targeting it, less one, "such that no validation
        will be needed".
        """
        requirements = requirements_from_queries(queries)
        return cls.build(graph, requirements)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def size(self) -> int:
        """Number of index nodes (the paper's index-size metric)."""
        return self.index.num_nodes

    def stats(self) -> DKIndexStats:
        """A size snapshot for reporting."""
        return DKIndexStats(
            index_nodes=self.index.num_nodes,
            index_edges=self.index.num_edges,
            data_nodes=self.graph.num_nodes,
            data_edges=self.graph.num_edges,
            min_k=min(self.index.k, default=0),
            max_k=max(self.index.k, default=0),
        )

    def __repr__(self) -> str:
        return f"DKIndex({self.stats().format()})"

    # ------------------------------------------------------------------
    # Query evaluation
    # ------------------------------------------------------------------

    def evaluate(
        self,
        query: Query,
        counter: CostCounter | None = None,
        validate: bool = True,
    ) -> set[int]:
        """Evaluate a path-expression query; returns data-node ids.

        Queries within the index's local similarities are answered from
        the index alone; longer ones transparently validate against the
        data graph (and charge the cost to ``counter``).
        """
        return evaluate_on_index(self.index, query, counter, validate)

    def explain(self, query: Query) -> "Explanation":
        """EXPLAIN the evaluation plan of a query (terminals, soundness,
        validation and a tuning hint); see
        :func:`repro.indexes.explain.explain`."""
        from repro.indexes.explain import explain as _explain

        return _explain(self.index, query)

    # ------------------------------------------------------------------
    # Updates (Section 5)
    # ------------------------------------------------------------------

    def add_edge(self, src_data: int, dst_data: int) -> EdgeUpdateReport:
        """Add a data edge; adjust local similarities (Algorithms 4+5).

        Transactional: on any exception the graph and index are rolled
        back bit-identically (see :attr:`pipeline`).
        """
        return self.pipeline.add_edge(src_data, dst_data)

    def add_edges(self, edges: list[tuple[int, int]]) -> list[EdgeUpdateReport]:
        """Add a batch of data edges atomically (one transaction, one
        journal entry, one audit); a bad batch is a no-op."""
        return self.pipeline.add_edges(edges)

    def remove_edge(self, src_data: int, dst_data: int) -> EdgeUpdateReport:
        """Remove a data edge; conservatively lower similarities."""
        return self.pipeline.remove_edge(src_data, dst_data)

    def add_subgraph(self, subgraph: DataGraph) -> list[int]:
        """Insert a document subgraph under the root (Algorithm 3).

        Returns the node-id mapping from ``subgraph`` into the grown data
        graph.
        """
        return self.pipeline.add_subgraph(subgraph)

    def promote(self, requirements: Mapping[str, int] | None = None) -> PromoteReport:
        """Periodically re-tune: raise similarities back to requirements.

        With no argument, restores the index's standing requirements
        (undoing the erosion caused by edge additions); with an argument,
        raises to the merge of standing and new requirements (a query
        load shift toward longer queries).
        """
        return self.pipeline.promote(requirements)

    def demote(self, requirements: Mapping[str, int]) -> int:
        """Periodically shrink: lower requirements and merge index nodes.

        Returns the number of index nodes removed by the merge.
        """
        return self.pipeline.demote(requirements)

    def close(self) -> None:
        """Release the update pipeline's journal handle, if a pipeline exists.

        Safe to call twice; a later update reopens the handle.
        """
        if self._pipeline is not None:
            self._pipeline.close()

    # ------------------------------------------------------------------
    # Invariants
    # ------------------------------------------------------------------

    def check_invariants(self) -> None:
        """Verify all structural invariants; raise on violation."""
        self.index.check_invariants()
        check_dk_constraint(self.index)
