"""Query objects: parsed path expressions ready for evaluation.

Two concrete query classes exist:

- :class:`LabelPathQuery` — a plain chain of concrete labels (the only
  query shape used in the paper's experiments).  These get dedicated fast
  evaluators on both data graphs and index graphs, and have a well-defined
  *length* that drives the D(k) soundness test ``k(n) >= length - 1``.
- :class:`RegexQuery` — any other regular path expression, evaluated via
  NFA product traversal.

Use :func:`make_query` to go from source text to the cheapest suitable
query object.  A plain chain — an optional leading ``//`` or ``/``, then
labels joined by ``.`` — becomes a :class:`LabelPathQuery` from one
pattern match, without tokens or a syntax tree; every other text goes
through :func:`~repro.paths.parser.parse_path_expression`.  Nothing is
cached between calls.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

from repro.exceptions import WorkloadError
from repro.paths.ast import PathExpr, label_sequence
from repro.paths.lexer import LABEL, starts_label
from repro.paths.nfa import NFA, compile_nfa
from repro.paths.parser import MAX_DEPTH, parse_path_expression


@dataclass(frozen=True)
class Query:
    """Base class for evaluable queries.

    Attributes:
        anchored: True if the matching node path must begin at a child of
            the root (XPath-style ``/a/b``); False for the paper's default
            partial-matching semantics, where node paths may start
            anywhere in the graph.
    """

    anchored: bool

    def to_text(self) -> str:
        raise NotImplementedError


@dataclass(frozen=True)
class LabelPathQuery(Query):
    """A plain label-path query ``//l1/l2/.../lp`` (or anchored variant).

    Attributes:
        labels: the label names, outermost first.

    The paper measures query length in labels (test paths have "lengths
    between 2 and 5"), with soundness on an index requiring the terminal
    index node's local similarity to be at least ``len(labels) - 1``
    (the number of edges).
    """

    labels: tuple[str, ...]

    def __post_init__(self) -> None:
        if not self.labels:
            raise WorkloadError("label-path query needs at least one label")

    @property
    def length(self) -> int:
        """Number of labels in the path."""
        return len(self.labels)

    @property
    def num_edges(self) -> int:
        """Number of edges in a matching node path (= length - 1)."""
        return len(self.labels) - 1

    @property
    def target_label(self) -> str:
        """The label whose nodes this query returns."""
        return self.labels[-1]

    def to_text(self) -> str:
        prefix = "/" if self.anchored else "//"
        return prefix + ".".join(self.labels)

    def __str__(self) -> str:
        return self.to_text()


@dataclass(frozen=True)
class RegexQuery(Query):
    """A general regular path expression query."""

    expr: PathExpr

    @cached_property
    def nfa(self) -> NFA:
        """The compiled automaton (cached per query object)."""
        return compile_nfa(self.expr)

    @property
    def max_length(self) -> int | None:
        """Longest word in the language, or None if unbounded."""
        return self.expr.max_length()

    def to_text(self) -> str:
        prefix = "/" if self.anchored else "//"
        return prefix + self.expr.to_text()

    def __str__(self) -> str:
        return self.to_text()


#: A plain label chain: an optional leading ``//`` or ``/``, then one to
#: :data:`~repro.paths.parser.MAX_DEPTH` labels joined by ``.``, with no
#: whitespace.  A longer chain, ``/`` separators and whitespace do not
#: match; :func:`make_query` also declines a match holding ``_`` (the
#: wildcard) or a numeral that :data:`~repro.paths.lexer.LABEL` admits
#: but that cannot start a label.
_CHAIN = re.compile(rf"(//?)?({LABEL}(?:\.{LABEL}){{0,{MAX_DEPTH - 1}}})")


def make_query(text: str) -> Query:
    """Parse query source text into the most specific query object.

    Plain chains of concrete labels become :class:`LabelPathQuery`;
    everything else becomes :class:`RegexQuery`.  A chain that
    :data:`_CHAIN` takes is split on ``.`` directly; any other text is
    tokenized and parsed, and a parse that is a chain of labels after
    all (``a/b``, ``(a.b).c``) still yields a :class:`LabelPathQuery`.

    Example:
        >>> make_query("//movie.title")
        LabelPathQuery(anchored=False, labels=('movie', 'title'))
        >>> type(make_query("movieDB._?.movie")).__name__
        'RegexQuery'
    """
    chain = _CHAIN.fullmatch(text)
    if chain is not None:
        names = chain[2].split(".")
        # In ASCII, every label the pattern matches starts as it must.
        if "_" not in names and (text.isascii() or all(map(starts_label, names))):
            return LabelPathQuery(anchored=chain[1] == "/", labels=tuple(names))
    expr, anchored = parse_path_expression(text)
    labels = label_sequence(expr)
    if labels is not None:
        return LabelPathQuery(anchored=anchored, labels=tuple(labels))
    return RegexQuery(anchored=anchored, expr=expr)
