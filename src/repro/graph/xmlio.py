"""XML ⇄ data-graph interchange.

Implements the modeling conventions of Section 3 of the paper:

- every element becomes a node labeled with its tag;
- element-subelement containment becomes a directed edge;
- attributes become child nodes labeled with the attribute name, whose
  value (if kept) hangs below as a ``VALUE`` node;
- text content becomes a ``VALUE`` child node;
- ``ID`` / ``IDREF`` (and ``IDREFS``) attributes create *reference edges*
  from the referencing element to the referenced element — after which
  tree and reference edges are indistinguishable, exactly as the paper
  treats them.

The parser is the standard library ``xml.etree.ElementTree``; no external
XML dependencies are required.
"""

from __future__ import annotations

import xml.etree.ElementTree as ET
from dataclasses import dataclass, field
from typing import IO, Iterable

from repro.exceptions import GraphError, SerializationError
from repro.graph.datagraph import VALUE_LABEL, DataGraph


#: What the parser raises on bad input: malformed XML (``ParseError``),
#: an unknown declared encoding (``LookupError``) and a multi-byte one
#: expat cannot decode (``ValueError``).
_PARSE_ERRORS = (ET.ParseError, LookupError, ValueError)


@dataclass(frozen=True)
class XmlOptions:
    """Tuning knobs for :func:`parse_xml`.

    Attributes:
        id_attributes: attribute names treated as element IDs.
        idref_attributes: attribute names treated as references; their
            (whitespace-split) values must name IDs declared elsewhere in
            the document.
        keep_values: if True (default), text content and non-ID attribute
            values produce ``VALUE`` leaf nodes, mirroring the paper's
            "simple objects given a distinguished label VALUE".
        keep_attributes: if True (default), non-ID/IDREF attributes become
            labeled child nodes.
        strict_refs: if True, dangling IDREFs raise; otherwise they are
            silently dropped (real-world documents are often sloppy).
    """

    id_attributes: frozenset[str] = frozenset({"id"})
    idref_attributes: frozenset[str] = frozenset({"idref", "idrefs"})
    keep_values: bool = True
    keep_attributes: bool = True
    strict_refs: bool = False


@dataclass
class _PendingRef:
    source_node: int
    target_id: str


def parse_xml(text: str, options: XmlOptions | None = None) -> DataGraph:
    """Parse an XML document string into a :class:`DataGraph`.

    The document element is attached below the graph's ROOT node.

    Raises:
        SerializationError: if ``text`` cannot be parsed as XML.

    Example:
        >>> g = parse_xml("<movieDB><movie><title>Heat</title></movie></movieDB>")
        >>> sorted(set(g.label_names())) # doctest: +NORMALIZE_WHITESPACE
        ['ROOT', 'VALUE', 'movie', 'movieDB', 'title']
    """
    options = options or XmlOptions()
    try:
        element = ET.fromstring(text)
    except _PARSE_ERRORS as error:
        raise SerializationError(f"cannot parse XML: {error}") from error
    return _element_to_graph(element, options)


def parse_xml_file(source: str | IO[bytes], options: XmlOptions | None = None) -> DataGraph:
    """Parse an XML document from a path or binary file object.

    Raises:
        SerializationError: if the file cannot be read or parsed as XML.
    """
    options = options or XmlOptions()
    name = source if isinstance(source, str) else getattr(source, "name", "<stream>")
    try:
        tree = ET.parse(source)
    except OSError as error:
        raise SerializationError(f"{name}: cannot read: {error}") from error
    except _PARSE_ERRORS as error:
        raise SerializationError(f"{name}: cannot parse XML: {error}") from error
    return _element_to_graph(tree.getroot(), options)


def _element_to_graph(root_element: ET.Element, options: XmlOptions) -> DataGraph:
    graph = DataGraph()
    ids: dict[str, int] = {}
    pending: list[_PendingRef] = []
    # parent_of[v - 1] is node v's tree parent: every node is linked to
    # its parent as it is created, so the tree edges, in order, are
    # parent_of[i] -> i + 1, added in one batch.
    parent_of: list[int] = []
    _add_elements(graph, root_element, options, ids, pending, parent_of)
    graph.add_edges(parent_of, range(1, graph.num_nodes))
    refs: dict[tuple[int, int], None] = {}
    for ref in pending:
        target = ids.get(ref.target_id)
        if target is None:
            if options.strict_refs:
                raise GraphError(f"dangling IDREF: {ref.target_id!r}")
            continue
        if parent_of[target - 1] != ref.source_node:  # not a tree edge
            refs[(ref.source_node, target)] = None
    graph.add_edges([src for src, _ in refs], [dst for _, dst in refs])
    return graph


def _add_elements(
    graph: DataGraph,
    root_element: ET.Element,
    options: XmlOptions,
    ids: dict[str, int],
    pending: list[_PendingRef],
    parent_of: list[int],
) -> None:
    """Add ``root_element`` and everything below it, in document order.

    Depth-first with an explicit stack of open elements, so nesting
    depth is not bounded by the interpreter's recursion limit.  An
    element's node, its attributes and its text come before its
    children; a child's tail text becomes a ``VALUE`` node of the parent
    once the child's subtree is done.
    """
    root_node = _add_element(
        graph, graph.root, root_element, options, ids, pending, parent_of
    )
    stack = [(root_element, root_node, iter(root_element))]
    while stack:
        element, node, children = stack[-1]
        child = next(children, None)
        if child is not None:
            child_node = _add_element(
                graph, node, child, options, ids, pending, parent_of
            )
            stack.append((child, child_node, iter(child)))
            continue
        stack.pop()
        tail = element.tail
        if stack and options.keep_values and tail and tail.strip():
            graph.add_node(VALUE_LABEL)
            parent_of.append(stack[-1][1])


def _add_element(
    graph: DataGraph,
    parent: int,
    element: ET.Element,
    options: XmlOptions,
    ids: dict[str, int],
    pending: list[_PendingRef],
    parent_of: list[int],
) -> int:
    """Add ``element``'s node with its attributes and text below
    ``parent``; returns the node.  Its children are the caller's."""
    node = graph.add_node(_local_name(element.tag))
    parent_of.append(parent)
    for attr_name, attr_value in element.attrib.items():
        name = _local_name(attr_name)
        if name in options.id_attributes:
            if attr_value in ids:
                raise GraphError(f"duplicate ID value: {attr_value!r}")
            ids[attr_value] = node
        elif name in options.idref_attributes:
            for token in attr_value.split():
                pending.append(_PendingRef(source_node=node, target_id=token))
        elif options.keep_attributes:
            attr_node = graph.add_node(name)
            parent_of.append(node)
            if options.keep_values:
                graph.add_node(VALUE_LABEL)
                parent_of.append(attr_node)
    if options.keep_values and element.text and element.text.strip():
        graph.add_node(VALUE_LABEL)
        parent_of.append(node)
    return node


def _local_name(tag: str) -> str:
    # Strip any "{namespace}" prefix ElementTree attaches.
    if tag.startswith("{"):
        return tag.rsplit("}", 1)[1]
    return tag


def graph_to_xml(graph: DataGraph) -> str:
    """Render the *tree skeleton* of a graph as an XML string.

    Only edges forming a spanning tree from the root (first-parent
    containment) are rendered as nesting; every remaining edge is encoded
    via synthesised ``id`` / ``idref`` attributes so that
    ``parse_xml(graph_to_xml(g))`` reproduces an isomorphic graph for
    graphs produced by :func:`parse_xml` with values disabled.

    This is primarily a debugging/interchange aid; the JSON format in
    :mod:`repro.graph.serialize` is the canonical persistence path.
    """
    tree_parent = [-1] * graph.num_nodes
    order: list[int] = []
    seen = [False] * graph.num_nodes
    seen[graph.root] = True
    stack = [graph.root]
    while stack:
        node = stack.pop()
        order.append(node)
        for child in graph.children[node]:
            if not seen[child]:
                seen[child] = True
                tree_parent[child] = node
                stack.append(child)
    if not all(seen):
        unreachable = sum(1 for s in seen if not s)
        raise GraphError(
            f"graph has {unreachable} nodes unreachable from the root; "
            "cannot render as a document"
        )

    extra_edges = [
        (src, dst)
        for src, dst in graph.edges()
        if tree_parent[dst] != src
    ]
    needs_id = {dst for _, dst in extra_edges}

    elements: dict[int, ET.Element] = {}
    root_children: list[ET.Element] = []
    for node in order:
        if node == graph.root:
            continue
        element = ET.Element(graph.label(node))
        if node in needs_id:
            element.set("id", f"n{node}")
        elements[node] = element
        parent = tree_parent[node]
        if parent == graph.root:
            root_children.append(element)
        else:
            elements[parent].append(element)
    for src, dst in extra_edges:
        if src == graph.root:
            continue
        element = elements[src]
        existing = element.get("idrefs")
        token = f"n{dst}"
        element.set("idrefs", f"{existing} {token}" if existing else token)

    if len(root_children) == 1:
        document = root_children[0]
    else:
        document = ET.Element("document")
        document.extend(root_children)
    return ET.tostring(document, encoding="unicode")
