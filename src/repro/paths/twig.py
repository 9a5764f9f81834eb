"""Branching path (twig) queries.

The paper's conclusion points at the F&B index (Kaushik et al., SIGMOD
2002) for *branching* path queries — tree-shaped patterns like
``//movie[actor/name]/title`` ("titles of movies that have an actor
with a name").  This module provides the pattern language:

- :class:`TwigNode` / :class:`TwigQuery` — the pattern tree; edges are
  child (``/``) or descendant (``//``) steps, node tests are labels or
  the ``*`` wildcard, and exactly one node is the *output*;
- :func:`parse_twig` — an XPath-flavoured surface syntax:
  ``a/b[c//d]/e`` with ``[...]`` predicates (the last step outside any
  predicate is the output node);
- :func:`evaluate_twig` — exact evaluation over a data graph using the
  classic two-phase algorithm (bottom-up feasibility, top-down
  refinement), correct for tree-shaped patterns on arbitrary graphs.

Evaluation over the F&B index lives in :mod:`repro.indexes.fbindex`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Mapping, Protocol, Sequence

from repro.exceptions import PathSyntaxError
from repro.graph.datagraph import DataGraph
from repro.graph.traversal import reachable_from
from repro.paths.cost import CostCounter


@dataclass
class TwigNode:
    """One node of a twig pattern.

    Attributes:
        label: the label test, or None for the ``*`` wildcard.
        children: sub-patterns, each with its connecting axis.
        axes: parallel to ``children``: "child" or "descendant".
        is_output: True on exactly one node of the pattern.
    """

    label: str | None
    children: list["TwigNode"] = field(default_factory=list)
    axes: list[str] = field(default_factory=list)
    is_output: bool = False

    def add_child(self, child: "TwigNode", axis: str) -> None:
        if axis not in ("child", "descendant"):
            raise ValueError(f"unknown axis: {axis!r}")
        self.children.append(child)
        self.axes.append(axis)

    def to_text(self) -> str:
        label = self.label if self.label is not None else "*"
        predicates = ""
        trunk = ""
        for child, axis in zip(self.children, self.axes):
            rendered = child.to_text()
            if _contains_output(child):
                trunk = ("/" if axis == "child" else "//") + rendered
            else:
                prefix = "" if axis == "child" else "//"
                predicates += f"[{prefix}{rendered}]"
        return f"{label}{predicates}{trunk}"


def _contains_output(node: TwigNode) -> bool:
    if node.is_output:
        return True
    return any(_contains_output(child) for child in node.children)


@dataclass
class TwigQuery:
    """A parsed twig pattern.

    Attributes:
        root: the pattern's root node.
        anchored: if True the root pattern node must match a child of
            the data graph's root; otherwise matching starts anywhere.

    Twig queries are hashable by their rendered text (patterns are
    structurally mutable only during construction), so they can live in
    :class:`~repro.workload.queryload.QueryLoad` weights alongside
    linear queries.
    """

    root: TwigNode
    anchored: bool = False

    def __hash__(self) -> int:
        return hash((self.anchored, self.to_text()))

    @property
    def output(self) -> TwigNode:
        """The unique output node."""
        found = self._find_output(self.root)
        if found is None:
            raise ValueError("twig pattern has no output node")
        return found

    def _find_output(self, node: TwigNode) -> TwigNode | None:
        if node.is_output:
            return node
        for child in node.children:
            result = self._find_output(child)
            if result is not None:
                return result
        return None

    def nodes(self) -> list[TwigNode]:
        """All pattern nodes, preorder."""
        result: list[TwigNode] = []
        stack = [self.root]
        while stack:
            node = stack.pop()
            result.append(node)
            stack.extend(reversed(node.children))
        return result

    def to_text(self) -> str:
        prefix = "/" if self.anchored else "//"
        return prefix + self.root.to_text()


# ----------------------------------------------------------------------
# Parsing
# ----------------------------------------------------------------------


class _TwigParser:
    """Recursive-descent parser for the XPath-flavoured twig syntax.

    Grammar::

        twig      := ["/" | "//"] steps
        steps     := step (("/" | "//") step)*
        step      := test predicate*
        predicate := "[" ["/" | "//"] steps "]"
        test      := NAME | "*"
    """

    def __init__(self, text: str) -> None:
        self.text = text
        self.pos = 0

    def error(self, message: str) -> PathSyntaxError:
        return PathSyntaxError(message, self.text, self.pos)

    def at_end(self) -> bool:
        self.skip_ws()
        return self.pos >= len(self.text)

    def skip_ws(self) -> None:
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def take_axis(self, default: str | None = None) -> str | None:
        self.skip_ws()
        if self.text.startswith("//", self.pos):
            self.pos += 2
            return "descendant"
        if self.text.startswith("/", self.pos):
            self.pos += 1
            return "child"
        return default

    def take_test(self) -> str | None:
        self.skip_ws()
        if self.peek() == "*":
            self.pos += 1
            return None
        start = self.pos
        while self.pos < len(self.text) and (
            self.text[self.pos].isalnum() or self.text[self.pos] in "_-:."
        ):
            self.pos += 1
        if self.pos == start:
            raise self.error("expected a name or '*'")
        return self.text[start : self.pos]

    def parse_steps(self) -> tuple[TwigNode, TwigNode]:
        """Parse a step chain; returns (first node, last trunk node)."""
        first = self.parse_step()
        last = first
        while True:
            self.skip_ws()
            if self.peek() not in ("/",):
                return first, last
            axis = self.take_axis()
            assert axis is not None
            nxt = self.parse_step()
            last.add_child(nxt, axis)
            last = nxt

    def parse_step(self) -> TwigNode:
        node = TwigNode(label=self.take_test())
        while self.peek() == "[":
            self.pos += 1
            axis = self.take_axis(default="child")
            sub_first, _sub_last = self.parse_steps()
            node.add_child(sub_first, axis or "child")
            self.skip_ws()
            if self.peek() != "]":
                raise self.error("expected ']'")
            self.pos += 1
        return node


def parse_twig(text: str) -> TwigQuery:
    """Parse twig-query source text.

    The last step of the trunk (outside all predicates) is the output
    node.  A leading ``/`` anchors the pattern at the document top; a
    leading ``//`` (or nothing) matches anywhere.

    Example:
        >>> q = parse_twig("movie[actor/name]/title")
        >>> q.output.label
        'title'
        >>> q.root.label
        'movie'
        >>> sorted(c.label for c in q.root.children)
        ['actor', 'title']
    """
    parser = _TwigParser(text)
    anchored = False
    axis = parser.take_axis()
    if axis == "child":
        anchored = True
    first, last = parser.parse_steps()
    if not parser.at_end():
        raise parser.error("trailing input after twig pattern")
    last.is_output = True
    return TwigQuery(root=first, anchored=anchored)


# ----------------------------------------------------------------------
# Evaluation over an adjacency structure (data graph or index graph)
# ----------------------------------------------------------------------


class Adjacency(Protocol):
    """Anything with per-node children/parents adjacency.

    Structurally satisfied by :class:`~repro.graph.datagraph.DataGraph`
    (lists of lists) and :class:`~repro.indexes.base.IndexGraph`
    (lists of sets).
    """

    @property
    def children(self) -> Sequence[Iterable[int]]: ...

    @property
    def parents(self) -> Sequence[Iterable[int]]: ...


def evaluate_twig_over(
    adjacency: Adjacency,
    label_ids: Sequence[int],
    label_table: Mapping[str, int],
    root_node: int,
    query: TwigQuery,
    counter: CostCounter | None = None,
    count_as_index: bool = False,
) -> set[int]:
    """Evaluate a twig over anything with children/parents adjacency.

    Shared by the data-graph evaluator and the F&B index evaluator
    (where "nodes" are index nodes).  Returns the node ids matching the
    output pattern node.
    """
    counter = counter if counter is not None else CostCounter()

    def visit(count: int = 1) -> None:
        if count_as_index:
            counter.visit_index_node(count)
        else:
            counter.visit_data_node(count)

    pattern_nodes = query.nodes()
    # Bottom-up feasibility: which graph nodes can play each pattern role
    # considering only the pattern subtree below it?
    feasible: dict[int, set[int]] = {}

    def candidates(pattern: TwigNode) -> set[int]:
        if pattern.label is None:
            return set(range(len(label_ids)))
        want = label_table.get(pattern.label)
        if want is None:
            return set()
        return {
            node for node in range(len(label_ids)) if label_ids[node] == want
        }

    def down(pattern: TwigNode) -> set[int]:
        result = candidates(pattern)
        visit(len(result))
        for child, axis in zip(pattern.children, pattern.axes):
            child_set = down(child)
            if not child_set:
                result = set()
            elif axis == "child":
                result = {
                    node
                    for node in result
                    if any(c in child_set for c in adjacency.children[node])
                }
            else:
                # Descendant axis: nodes from which child_set is reachable
                # in one or more steps.  Compute the reverse-reachable set
                # of child_set once.
                above = _strictly_above(adjacency, child_set)
                result &= above
            if not result:
                break
        feasible[id(pattern)] = result
        return result

    down(query.root)

    # Top-down refinement: restrict each pattern node's set to nodes
    # reachable from an allowed parent match.
    allowed: dict[int, set[int]] = {}
    root_set = feasible.get(id(query.root), set())
    if query.anchored:
        root_children = set(adjacency.children[root_node])
        root_set = root_set & root_children
    allowed[id(query.root)] = root_set

    def up(pattern: TwigNode) -> None:
        parent_allowed = allowed[id(pattern)]
        for child, axis in zip(pattern.children, pattern.axes):
            child_feasible = feasible.get(id(child), set())
            if not parent_allowed:
                allowed[id(child)] = set()
            elif axis == "child":
                reachable: set[int] = set()
                for node in parent_allowed:
                    reachable.update(adjacency.children[node])
                allowed[id(child)] = child_feasible & reachable
                visit(len(allowed[id(child)]))
            else:
                below = reachable_from(adjacency, set().union(
                    *[adjacency.children[node] for node in parent_allowed]
                ) if parent_allowed else set())
                allowed[id(child)] = child_feasible & below
                visit(len(allowed[id(child)]))
            up(child)

    up(query.root)
    return allowed.get(id(query.output), set())


def _strictly_above(adjacency: Adjacency, targets: set[int]) -> set[int]:
    """Nodes with a path of >= 1 edge into ``targets``."""
    seen: set[int] = set()
    stack: list[int] = []
    for target in targets:
        for parent in adjacency.parents[target]:
            if parent not in seen:
                seen.add(parent)
                stack.append(parent)
    while stack:
        node = stack.pop()
        for parent in adjacency.parents[node]:
            if parent not in seen:
                seen.add(parent)
                stack.append(parent)
    return seen


def evaluate_twig(
    graph: DataGraph,
    query: TwigQuery,
    counter: CostCounter | None = None,
) -> set[int]:
    """Evaluate a twig query over a data graph.

    Example:
        >>> from repro.graph.xmlio import parse_xml, XmlOptions
        >>> g = parse_xml(
        ...     "<db><m><t>x</t><a/></m><m><t>y</t></m></db>",
        ...     XmlOptions(keep_values=False),
        ... )
        >>> q = parse_twig("m[a]/t")
        >>> sorted(evaluate_twig(g, q)) == g.nodes_with_label("t")[:1]
        True
    """
    return evaluate_twig_over(
        graph, graph.label_ids, graph.label_table, graph.root, query, counter
    )
