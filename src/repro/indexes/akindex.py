"""The A(k)-index (Kaushik, Shenoy, Bohannon, Gudes — ICDE 2002).

Groups data nodes by k-bisimilarity: extents agree on all incoming label
paths of length <= k.  The index is *safe* for every path expression and
*sound* for expressions of length (in edges) <= k; longer queries need
the validation step (:mod:`repro.indexes.validation`).

The A(k)-index is the special case of the D(k)-index with a uniform
local-similarity requirement of ``k`` for every label (Section 4.1 of
the D(k) paper), which the test suite verifies.
"""

from __future__ import annotations

from repro.graph.datagraph import DataGraph
from repro.indexes.base import IndexGraph
from repro.partition.refinement import kbisim_partition


def build_ak_index(
    graph: DataGraph,
    k: int,
    *,
    engine: str = "auto",
) -> IndexGraph:
    """Build the A(k)-index of ``graph``.

    Construction runs ``k`` split rounds from the label-split graph —
    O(k·m) for m data edges, matching the bound cited in Section 4.1.
    The default columnar engine only re-hashes nodes whose parents'
    blocks split in the previous round, which is substantially faster on
    document-shaped graphs (see ``docs/performance.md``).

    Args:
        graph: the data graph.
        k: the uniform local-similarity bound (>= 0).
        engine: refinement engine (``"columnar"``/``"external"``/
            ``"legacy"``; the default ``"auto"`` resolves to columnar
            unless ``DKINDEX_ENGINE`` says otherwise).

    Example:
        >>> from repro.graph.builder import graph_from_edges
        >>> g = graph_from_edges(
        ...     ["a", "b", "x", "x"], [(0, 1), (0, 2), (1, 3), (2, 4)]
        ... )
        >>> build_ak_index(g, 0).num_nodes   # by label: ROOT, a, b, x
        4
        >>> build_ak_index(g, 1).num_nodes   # the two x nodes split
        5
    """
    partition = kbisim_partition(graph, k, engine=engine)
    return IndexGraph.from_partition(graph, partition, k)
