"""Graphviz DOT export for data graphs and index graphs.

Renders small graphs for debugging and documentation.  The output is
plain DOT text — no Graphviz dependency is needed to *produce* it, only
to render it (``dot -Tsvg``).

Index graphs render with extent sizes and local similarities in the
node labels, which makes the effect of updates/promote/demote visible
at a glance.
"""

from __future__ import annotations

from typing import Iterable

from repro.exceptions import RenderLimitError
from repro.graph.datagraph import DataGraph
from repro.indexes.base import K_UNBOUNDED, IndexGraph


def _quote(text: str) -> str:
    return '"' + text.replace("\\", "\\\\").replace('"', '\\"') + '"'


def data_graph_to_dot(
    graph: DataGraph,
    name: str = "data",
    highlight: Iterable[int] = (),
    max_nodes: int = 500,
) -> str:
    """Render a data graph as DOT.

    Args:
        graph: the graph.
        name: the DOT graph name.
        highlight: node ids drawn filled (e.g. a query result).
        max_nodes: refuse to render bigger graphs (DOT of a 30k-node
            graph helps nobody).

    Raises:
        RenderLimitError: if the graph exceeds ``max_nodes``.
    """
    if graph.num_nodes > max_nodes:
        raise RenderLimitError(
            f"graph has {graph.num_nodes} nodes; refusing to render more "
            f"than {max_nodes} (pass max_nodes explicitly to override)"
        )
    highlighted = set(highlight)
    lines = [f"digraph {name} {{", "  rankdir=TB;", "  node [shape=ellipse];"]
    for node in graph.nodes():
        label = f"{graph.label(node)}\\n#{node}"
        style = ' style=filled fillcolor="#ffd37f"' if node in highlighted else ""
        lines.append(f"  n{node} [label={_quote(label)}{style}];")
    for src, dst in graph.edges():
        lines.append(f"  n{src} -> n{dst};")
    lines.append("}")
    return "\n".join(lines)


def index_graph_to_dot(
    index: IndexGraph,
    name: str = "index",
    max_nodes: int = 500,
) -> str:
    """Render an index graph as DOT (label, extent size and k per node).

    Raises:
        RenderLimitError: if the index exceeds ``max_nodes``.
    """
    if index.num_nodes > max_nodes:
        raise RenderLimitError(
            f"index has {index.num_nodes} nodes; refusing to render more "
            f"than {max_nodes}"
        )
    lines = [f"digraph {name} {{", "  rankdir=TB;", "  node [shape=box];"]
    for node in range(index.num_nodes):
        k = index.k[node]
        k_text = "∞" if k >= K_UNBOUNDED else str(k)
        label = (
            f"{index.label(node)}\\n"
            f"|ext|={index.extent_size(node)} k={k_text}"
        )
        lines.append(f"  i{node} [label={_quote(label)}];")
    for src in range(index.num_nodes):
        for dst in sorted(index.children[src]):
            lines.append(f"  i{src} -> i{dst};")
    lines.append("}")
    return "\n".join(lines)
