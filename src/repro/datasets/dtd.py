"""A small DTD parser and a seeded random document generator.

This is the library's stand-in for the IBM XML data generator the paper
used: give it a DTD, a root element and a seed and it produces a
:class:`~repro.graph.datagraph.DataGraph` conforming to the DTD's
content models, with ID/IDREF attributes wired into reference edges.

Supported DTD subset (everything the XMark and NASA schemas need):

- ``<!ELEMENT name (content)>`` with sequence ``,``, choice ``|``,
  occurrence ``? * +``, ``EMPTY``, ``ANY`` and mixed
  ``(#PCDATA | a | b)*`` content;
- ``<!ATTLIST name attr CDATA|ID|IDREF|IDREFS ...>`` declarations;
- comments and parameter-entity-free text.

Generation is depth-bounded: near the depth budget the generator prefers
non-recursive choice branches and drops optional content, using a
precomputed minimal-expansion-depth per element.  The depth bound is
*soft* for required content: a ``+``/sequence child the DTD demands is
still generated (minimally — shallowest choice branches, no optional
content) even when it overshoots ``max_depth``, so documents always
conform.  Roots whose required content recurses unconditionally (no
finite document exists) are rejected with :class:`~repro.exceptions.DTDError`.
"""

from __future__ import annotations

import math
import random
import re
from dataclasses import dataclass, field
from typing import Iterator, Mapping, Sequence

from repro.exceptions import DatasetError, DTDError
from repro.graph.datagraph import VALUE_LABEL, DataGraph

# ----------------------------------------------------------------------
# Content-model AST
# ----------------------------------------------------------------------

#: Occurrence modifiers: exactly one, optional, any number, one or more.
OCCURRENCES = ("", "?", "*", "+")

#: Sentinel minimal depth of elements that cannot derive a finite tree.
_UNSATISFIABLE = 10**9


@dataclass(frozen=True)
class Particle:
    """Base class of content-model particles."""

    occurrence: str = ""


@dataclass(frozen=True)
class NameParticle(Particle):
    """A child-element reference, e.g. ``title?``."""

    name: str = ""


@dataclass(frozen=True)
class PCDataParticle(Particle):
    """Character data (``#PCDATA``) — becomes a VALUE node."""


@dataclass(frozen=True)
class SeqParticle(Particle):
    """A sequence group ``(a, b, c)``."""

    items: tuple[Particle, ...] = ()


@dataclass(frozen=True)
class ChoiceParticle(Particle):
    """A choice group ``(a | b | c)``."""

    items: tuple[Particle, ...] = ()


@dataclass(frozen=True)
class EmptyContent(Particle):
    """``EMPTY`` content."""


@dataclass(frozen=True)
class AnyContent(Particle):
    """``ANY`` content (generated as EMPTY; nothing sensible to invent)."""


@dataclass(frozen=True)
class Attribute:
    """One attribute declaration.

    Attributes:
        name: attribute name.
        kind: ``CDATA``, ``ID``, ``IDREF``, ``IDREFS``, ``NMTOKEN`` or an
            enumerated type (stored as ``ENUM``).
        required: True for ``#REQUIRED``.
    """

    name: str
    kind: str
    required: bool


@dataclass
class ElementDecl:
    """One ``<!ELEMENT>`` declaration plus its ``<!ATTLIST>`` entries."""

    name: str
    content: Particle
    attributes: list[Attribute] = field(default_factory=list)


@dataclass
class DTD:
    """A parsed DTD: element declarations by name."""

    elements: dict[str, ElementDecl] = field(default_factory=dict)

    def element(self, name: str) -> ElementDecl:
        try:
            return self.elements[name]
        except KeyError:
            raise DTDError(f"undeclared element: {name!r}") from None

    def element_names(self) -> list[str]:
        return list(self.elements)


# ----------------------------------------------------------------------
# Parsing
# ----------------------------------------------------------------------

_COMMENT_RE = re.compile(r"<!--.*?-->", re.DOTALL)
_ELEMENT_RE = re.compile(r"<!ELEMENT\s+([\w.:-]+)\s+(.*?)>", re.DOTALL)
_ATTLIST_RE = re.compile(r"<!ATTLIST\s+([\w.:-]+)\s+(.*?)>", re.DOTALL)
_ATTDEF_RE = re.compile(
    r"([\w.:-]+)\s+"                                    # attribute name
    r"(CDATA|ID|IDREFS|IDREF|NMTOKENS|NMTOKEN|ENTITY|\([^)]*\))\s+"
    r"(#REQUIRED|#IMPLIED|#FIXED\s+\"[^\"]*\"|\"[^\"]*\"|'[^']*')",
    re.DOTALL,
)


class _ContentParser:
    """Recursive-descent parser for element content models."""

    def __init__(self, text: str) -> None:
        self.text = text
        self.pos = 0

    def error(self, message: str) -> DTDError:
        return DTDError(f"{message} at offset {self.pos} in {self.text!r}")

    def skip_ws(self) -> None:
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def take_occurrence(self) -> str:
        if self.pos < len(self.text) and self.text[self.pos] in "?*+":
            char = self.text[self.pos]
            self.pos += 1
            return char
        return ""

    def take_name(self) -> str:
        self.skip_ws()
        match = re.match(r"[\w.:-]+", self.text[self.pos :])
        if not match:
            raise self.error("expected a name")
        self.pos += match.end()
        return match.group()

    def parse(self) -> Particle:
        self.skip_ws()
        if self.text[self.pos :].strip() in ("EMPTY",):
            return EmptyContent()
        if self.text[self.pos :].strip() in ("ANY",):
            return AnyContent()
        particle = self.parse_group()
        self.skip_ws()
        if self.pos != len(self.text.rstrip()):
            raise self.error("trailing content-model text")
        return particle

    def parse_group(self) -> Particle:
        self.skip_ws()
        if self.peek() != "(":
            raise self.error("expected '('")
        self.pos += 1
        items = [self.parse_cp()]
        separator = ""
        while True:
            char = self.peek()
            if char in (",", "|"):
                if separator and char != separator:
                    raise self.error("mixed ',' and '|' in one group")
                separator = char
                self.pos += 1
                items.append(self.parse_cp())
            elif char == ")":
                self.pos += 1
                occurrence = self.take_occurrence()
                if separator == "|":
                    return ChoiceParticle(occurrence=occurrence, items=tuple(items))
                if len(items) == 1 and not occurrence:
                    return items[0]
                return SeqParticle(occurrence=occurrence, items=tuple(items))
            else:
                raise self.error("expected ',', '|' or ')'")

    def parse_cp(self) -> Particle:
        self.skip_ws()
        char = self.peek()
        if char == "(":
            return self.parse_group()
        if char == "#":
            self.pos += 1
            name = self.take_name()
            if name != "PCDATA":
                raise self.error(f"unknown token #{name}")
            return PCDataParticle()
        name = self.take_name()
        return NameParticle(occurrence=self.take_occurrence(), name=name)


def check_scale(scale: float) -> None:
    """Reject a generator scale that is not a positive, finite number.

    NaN and infinity fail the ``scale <= 0`` test a generator would
    otherwise make, and then escape from ``int()`` as raw errors.

    Raises:
        DatasetError: for zero, negative, NaN or infinite scales.
    """
    if not 0 < scale < math.inf:
        raise DatasetError(f"scale must be a positive finite number, got {scale}")


def parse_dtd(text: str) -> DTD:
    """Parse DTD source text.

    Raises:
        DTDError: on malformed declarations or duplicate elements.

    Example:
        >>> dtd = parse_dtd('''
        ...   <!ELEMENT db (movie*)>
        ...   <!ELEMENT movie (title, year?)>
        ...   <!ELEMENT title (#PCDATA)>
        ...   <!ELEMENT year (#PCDATA)>
        ... ''')
        >>> sorted(dtd.element_names())
        ['db', 'movie', 'title', 'year']
    """
    stripped = _COMMENT_RE.sub(" ", text)
    dtd = DTD()
    for match in _ELEMENT_RE.finditer(stripped):
        name, model = match.group(1), match.group(2).strip()
        if name in dtd.elements:
            raise DTDError(f"duplicate element declaration: {name!r}")
        content = _ContentParser(model).parse()
        dtd.elements[name] = ElementDecl(name=name, content=content)
    for match in _ATTLIST_RE.finditer(stripped):
        name, body = match.group(1), match.group(2)
        if name not in dtd.elements:
            raise DTDError(f"ATTLIST for undeclared element: {name!r}")
        for attr_match in _ATTDEF_RE.finditer(body):
            attr_name, kind, default = attr_match.groups()
            if kind.startswith("("):
                kind = "ENUM"
            dtd.elements[name].attributes.append(
                Attribute(
                    name=attr_name,
                    kind=kind,
                    required=default.strip() == "#REQUIRED",
                )
            )
    if not dtd.elements:
        raise DTDError("no element declarations found")
    return dtd


# ----------------------------------------------------------------------
# Random document generation
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class DTDGeneratorConfig:
    """Tuning knobs for :class:`RandomDocumentGenerator`.

    Attributes:
        max_depth: hard bound on element nesting depth.
        optional_prob: probability an optional (``?``) particle appears.
        star_mean: mean occurrence count for ``*`` particles (geometric).
        max_repeat: hard per-particle repetition cap.
        value_prob: probability ``#PCDATA`` yields a VALUE leaf node.
        keep_values: disable VALUE nodes entirely when False.
        fanout: per-element overrides ``{element: (lo, hi)}`` — when the
            element appears under ``*``/``+``, draw its count uniformly
            from [lo, hi] instead of the geometric default (how dataset
            builders shape proportions and overall scale).
        soft_node_cap: once the graph holds this many nodes, ``*``
            particles stop producing and ``?`` particles are dropped
            (required content still completes, so documents stay valid).
    """

    max_depth: int = 40
    optional_prob: float = 0.5
    star_mean: float = 2.0
    max_repeat: int = 50
    value_prob: float = 1.0
    keep_values: bool = True
    fanout: Mapping[str, tuple[int, int]] = field(default_factory=dict)
    soft_node_cap: int | None = None


@dataclass
class GeneratedDocument:
    """A generated data graph plus its reference metadata.

    Attributes:
        graph: the data graph.
        id_pools: ``{element label: [node ids with an ID attribute]}``.
        reference_pairs: distinct ``(source label, target label)`` pairs
            of the reference edges actually wired — the pairs the update
            experiments sample new edges from.
        num_reference_edges: how many reference edges were wired.
    """

    graph: DataGraph
    id_pools: dict[str, list[int]]
    reference_pairs: list[tuple[str, str]]
    num_reference_edges: int = 0


class RandomDocumentGenerator:
    """Generates random documents conforming to a DTD.

    Args:
        dtd: the parsed DTD.
        config: generation parameters.
        ref_targets: ``{(element, attribute): target element}`` — DTD
            IDREF attributes do not name their target element type, so
            the dataset builder supplies the intent here.  Attributes
            not listed are skipped.
        ref_prob: probability an IDREF attribute actually gets wired
            (lets datasets thin their reference density).
    """

    def __init__(
        self,
        dtd: DTD,
        config: DTDGeneratorConfig | None = None,
        ref_targets: Mapping[tuple[str, str], str] | None = None,
        ref_prob: float = 1.0,
    ) -> None:
        self.dtd = dtd
        self.config = config or DTDGeneratorConfig()
        self.ref_targets = dict(ref_targets or {})
        self.ref_prob = ref_prob
        self._min_depth = self._compute_min_depths()

    # -- minimal expansion depth ---------------------------------------

    def _compute_min_depths(self) -> dict[str, int]:
        """Fixpoint of the minimal tree depth each element needs."""
        depth = {name: _UNSATISFIABLE for name in self.dtd.elements}

        def particle_depth(particle: Particle) -> int:
            if isinstance(particle, (EmptyContent, AnyContent, PCDataParticle)):
                return 0
            if particle.occurrence in ("?", "*"):
                return 0  # may be omitted entirely
            if isinstance(particle, NameParticle):
                return depth.get(particle.name, 0)  # undeclared: leaf
            if isinstance(particle, SeqParticle):
                return max(
                    (particle_depth(item) for item in particle.items), default=0
                )
            if isinstance(particle, ChoiceParticle):
                return min(
                    (particle_depth(item) for item in particle.items), default=0
                )
            raise TypeError(f"unknown particle: {particle!r}")

        changed = True
        while changed:
            changed = False
            for name, decl in self.dtd.elements.items():
                candidate = 1 + particle_depth(decl.content)
                if candidate < depth[name]:
                    depth[name] = candidate
                    changed = True
        return depth

    def _element_min_depth(self, name: str) -> int:
        return self._min_depth.get(name, 1)

    # -- generation -----------------------------------------------------

    def generate(
        self, root_element: str, rng: random.Random
    ) -> GeneratedDocument:
        """Generate one document rooted at ``root_element``.

        The document element hangs below the graph's ROOT node.  After
        the tree is generated, IDREF attributes are wired to random
        members of their target element's ID pool.

        Raises:
            DTDError: if ``root_element`` is not declared, or if its
                required content recurses unconditionally so that no
                finite conforming document exists.
        """
        decl = self.dtd.element(root_element)  # fail fast
        if self._element_min_depth(root_element) >= _UNSATISFIABLE:
            raise DTDError(
                f"element {root_element!r} cannot derive a finite document: "
                "its required content recurses unconditionally"
            )
        graph = DataGraph()
        id_pools: dict[str, list[int]] = {}
        pending_refs: list[tuple[int, str, str]] = []  # (src node, src label, target)
        # parent_of[v - 1] is node v's tree parent: every node is linked
        # to its parent as it is created, so the tree edges, in order,
        # are parent_of[i] -> i + 1, added in one batch.
        parent_of: list[int] = []

        self._expand(
            graph, graph.root, decl, 1, rng, id_pools, pending_refs, parent_of
        )
        graph.add_edges(parent_of, range(1, graph.num_nodes))

        pairs: dict[tuple[str, str], int] = {}
        refs: dict[tuple[int, int], None] = {}
        for source_node, source_label, target_label in pending_refs:
            pool = id_pools.get(target_label)
            if not pool:
                continue
            target_node = rng.choice(pool)
            edge = (source_node, target_node)
            # Skip a repeated reference and one equal to a tree edge.
            if edge not in refs and parent_of[target_node - 1] != source_node:
                refs[edge] = None
                pairs[(source_label, target_label)] = (
                    pairs.get((source_label, target_label), 0) + 1
                )
        graph.add_edges([src for src, _ in refs], [dst for _, dst in refs])
        return GeneratedDocument(
            graph=graph,
            id_pools=id_pools,
            reference_pairs=sorted(pairs),
            num_reference_edges=len(refs),
        )

    def _count_for(
        self,
        particle: Particle,
        depth: int,
        rng: random.Random,
        num_nodes: int,
        forced: bool = False,
    ) -> int:
        """How many instances of a repeatable particle to produce."""
        config = self.config
        capped = (
            config.soft_node_cap is not None and num_nodes >= config.soft_node_cap
        )
        minimum = 1 if particle.occurrence == "+" else 0
        if capped or forced:
            return minimum
        if (
            isinstance(particle, NameParticle)
            and particle.name in config.fanout
        ):
            lo, hi = config.fanout[particle.name]
            return max(minimum, rng.randint(lo, hi))
        # Geometric with the configured mean: P(stop) = 1 / (mean + 1).
        count = minimum
        stop_probability = 1.0 / (config.star_mean + 1.0)
        while count < config.max_repeat and rng.random() > stop_probability:
            count += 1
        return count

    def _expand(
        self,
        graph: DataGraph,
        parent: int,
        decl: ElementDecl,
        depth: int,
        rng: random.Random,
        id_pools: dict[str, list[int]],
        pending_refs: list[tuple[int, str, str]],
        parent_of: list[int],
        forced: bool = False,
    ) -> None:
        node = graph.add_node(decl.name)
        parent_of.append(parent)

        for attribute in decl.attributes:
            if attribute.kind == "ID":
                id_pools.setdefault(decl.name, []).append(node)
            elif attribute.kind in ("IDREF", "IDREFS"):
                target = self.ref_targets.get((decl.name, attribute.name))
                if target is not None and rng.random() < self.ref_prob:
                    pending_refs.append((node, decl.name, target))

        self._expand_particle(
            graph, node, decl.content, depth, rng, id_pools, pending_refs, parent_of,
            forced=forced,
        )

    def _expand_particle(
        self,
        graph: DataGraph,
        node: int,
        particle: Particle,
        depth: int,
        rng: random.Random,
        id_pools: dict[str, list[int]],
        pending_refs: list[tuple[int, str, str]],
        parent_of: list[int],
        forced: bool = False,
    ) -> None:
        """Expand one particle under ``node``.

        ``forced`` marks minimal-completion mode: the depth budget is
        already overshot, but the particle is *required*, so it must
        still be produced — with no optional content, minimum
        repetitions and shallowest choice branches — to keep the
        document conforming.
        """
        config = self.config
        if isinstance(particle, (EmptyContent, AnyContent)):
            return
        if isinstance(particle, PCDataParticle):
            if forced:
                return  # text is always optional; minimal mode skips it
            if config.keep_values and rng.random() < config.value_prob:
                graph.add_node(VALUE_LABEL)
                parent_of.append(node)
            return

        if particle.occurrence in ("*", "+"):
            count = self._count_for(
                particle, depth, rng, graph.num_nodes, forced
            )
            once = _strip_occurrence(particle)
            floor = _particle_floor(self, once)
            minimum = 1 if particle.occurrence == "+" else 0
            for produced in range(count):
                # Re-check the budgets per repetition: a deep subtree
                # expanded for an earlier sibling may have consumed the
                # whole node budget (or this repetition's instance may
                # no longer fit the depth budget) in the meantime.
                if produced >= minimum:
                    capped = (
                        config.soft_node_cap is not None
                        and graph.num_nodes >= config.soft_node_cap
                    )
                    if capped or depth + floor > config.max_depth:
                        break
                self._expand_particle(
                    graph, node, once, depth, rng, id_pools, pending_refs, parent_of,
                    forced=forced or depth + floor > config.max_depth,
                )
            return
        if particle.occurrence == "?":
            if forced:
                return
            capped = (
                config.soft_node_cap is not None
                and graph.num_nodes >= config.soft_node_cap
            )
            if capped or rng.random() >= config.optional_prob:
                return
            if depth + _particle_floor(self, particle) > config.max_depth:
                return
            self._expand_particle(
                graph, node, _strip_occurrence(particle), depth, rng,
                id_pools, pending_refs, parent_of,
            )
            return

        if isinstance(particle, NameParticle):
            child_decl = self.dtd.elements.get(particle.name)
            if child_decl is None:
                # Undeclared child: generate as an empty leaf element.
                graph.add_node(particle.name)
                parent_of.append(node)
                return
            child_floor = self._element_min_depth(particle.name)
            if child_floor >= _UNSATISFIABLE:
                # No finite expansion exists; nothing useful to emit.
                # (Unreachable from a satisfiable root: choices avoid
                # unsatisfiable branches and requiring one makes the
                # parent unsatisfiable too.)
                return
            self._expand(
                graph, node, child_decl, depth + 1, rng, id_pools,
                pending_refs, parent_of,
                forced=forced or depth + child_floor > config.max_depth,
            )
            return
        if isinstance(particle, SeqParticle):
            for item in particle.items:
                self._expand_particle(
                    graph, node, item, depth, rng, id_pools, pending_refs, parent_of,
                    forced=forced,
                )
            return
        if isinstance(particle, ChoiceParticle):
            floors = [_particle_floor(self, item) for item in particle.items]
            if forced:
                best = min(floors)
                pool = [
                    item
                    for item, item_floor in zip(particle.items, floors)
                    if item_floor == best
                ]
            else:
                budget = config.max_depth - depth
                pool = [
                    item
                    for item, item_floor in zip(particle.items, floors)
                    if item_floor <= budget
                ]
                if not pool:
                    # Nothing fits the budget; take the shallowest
                    # branch(es) and complete them minimally.
                    best = min(floors)
                    pool = [
                        item
                        for item, item_floor in zip(particle.items, floors)
                        if item_floor == best
                    ]
            chosen = rng.choice(pool)
            self._expand_particle(
                graph, node, chosen, depth, rng, id_pools, pending_refs, parent_of,
                forced=forced,
            )
            return
        raise TypeError(f"unknown particle: {particle!r}")


def _strip_occurrence(particle: Particle) -> Particle:
    """The same particle, required exactly once."""
    if isinstance(particle, NameParticle):
        return NameParticle(occurrence="", name=particle.name)
    if isinstance(particle, SeqParticle):
        return SeqParticle(occurrence="", items=particle.items)
    if isinstance(particle, ChoiceParticle):
        return ChoiceParticle(occurrence="", items=particle.items)
    if isinstance(particle, PCDataParticle):
        return PCDataParticle(occurrence="")
    return particle


def _particle_floor(
    generator: RandomDocumentGenerator, particle: Particle
) -> int:
    """Minimal extra depth a *required* expansion of ``particle`` needs."""
    if isinstance(particle, (EmptyContent, AnyContent, PCDataParticle)):
        return 0
    if isinstance(particle, NameParticle):
        return generator._element_min_depth(particle.name)
    if isinstance(particle, SeqParticle):
        return max(
            (
                _particle_floor(generator, item)
                for item in particle.items
                if item.occurrence in ("", "+")
            ),
            default=0,
        )
    if isinstance(particle, ChoiceParticle):
        return min(
            (_particle_floor(generator, item) for item in particle.items),
            default=0,
        )
    return 0
