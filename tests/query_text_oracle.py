"""The query-text oracle: the character-loop lexer and parser that
:mod:`repro.paths.lexer` and :func:`repro.paths.query.make_query`
replaced.

The lexer now scans with one compiled pattern, and ``make_query`` turns
a plain dotted label chain into a :class:`LabelPathQuery` from one
``fullmatch`` without tokens or a syntax tree.  Both were rewritten
under one contract: every text yields the same tokens and the same
query object, or the same :class:`PathSyntaxError` at the same
position.  This module keeps the previous implementation verbatim as
the reference ``tests/test_query_text_oracle.py`` compares against:

- ``TokenKind``, ``Token`` and ``tokenize``: the per-character lexer;
- ``MAX_DEPTH``, ``_Parser`` and ``parse_path_expression``: the
  recursive-descent parser, unchanged in the library but copied so the
  oracle shares no parsing code with it;
- ``label_sequence`` and ``make_query``: the tree walk that recognised
  plain label chains after a full parse.

The syntax tree and the query classes are imported from the library:
the oracle builds the same objects, so they compare equal.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum, auto

from repro.exceptions import PathSyntaxError
from repro.paths.ast import (
    AnyLabel,
    Concat,
    Label,
    Optional_,
    PathExpr,
    Star,
    Union_,
)
from repro.paths.query import LabelPathQuery, Query, RegexQuery


class TokenKind(Enum):
    LABEL = auto()
    WILDCARD = auto()
    DOT = auto()
    PIPE = auto()
    STAR = auto()
    QMARK = auto()
    LPAREN = auto()
    RPAREN = auto()
    DSLASH = auto()
    SLASH = auto()
    EOF = auto()


@dataclass(frozen=True)
class Token:
    """A single lexical token with its source position."""

    kind: TokenKind
    text: str
    position: int


_SINGLE_CHAR = {
    ".": TokenKind.DOT,
    "|": TokenKind.PIPE,
    "*": TokenKind.STAR,
    "?": TokenKind.QMARK,
    "(": TokenKind.LPAREN,
    ")": TokenKind.RPAREN,
}


def _is_label_start(char: str) -> bool:
    return char.isalpha() or char == "_"


def _is_label_char(char: str) -> bool:
    return char.isalnum() or char in "_-:"


def tokenize(text: str) -> list[Token]:
    """Tokenize ``text`` into a list ending with an EOF token.

    Raises:
        PathSyntaxError: on any character that cannot start a token.

    Example:
        >>> [t.kind.name for t in tokenize("a.b|c*")]
        ['LABEL', 'DOT', 'LABEL', 'PIPE', 'LABEL', 'STAR', 'EOF']
    """
    tokens: list[Token] = []
    position = 0
    length = len(text)
    while position < length:
        char = text[position]
        if char.isspace():
            position += 1
            continue
        if char == "/":
            if position + 1 < length and text[position + 1] == "/":
                tokens.append(Token(TokenKind.DSLASH, "//", position))
                position += 2
            else:
                tokens.append(Token(TokenKind.SLASH, "/", position))
                position += 1
            continue
        kind = _SINGLE_CHAR.get(char)
        if kind is not None:
            tokens.append(Token(kind, char, position))
            position += 1
            continue
        if _is_label_start(char):
            start = position
            position += 1
            while position < length and _is_label_char(text[position]):
                position += 1
            word = text[start:position]
            if word == "_":
                tokens.append(Token(TokenKind.WILDCARD, word, start))
            else:
                tokens.append(Token(TokenKind.LABEL, word, start))
            continue
        raise PathSyntaxError(f"unexpected character {char!r}", text, position)
    tokens.append(Token(TokenKind.EOF, "", length))
    return tokens


_ATOM_START = (TokenKind.LABEL, TokenKind.WILDCARD, TokenKind.LPAREN)

#: Deepest expression the parser accepts.  A label or ``_`` is one level;
#: every operator node and every parenthesised group adds one, so the
#: nesting of parentheses and the length of a left-folded ``.``, ``/``
#: or ``|`` chain both count.  The walkers that recurse over the tree
#: (this parser, ``label_sequence``, the ``PathExpr`` methods,
#: ``compile_nfa`` and dataclass hashing) take at most four frames per
#: level, which keeps them inside Python's default recursion limit
#: (1000) even when called from a deep stack.
MAX_DEPTH = 150


class _Parser:
    """Each ``parse_*`` method returns the subtree and its depth."""

    def __init__(self, text: str) -> None:
        self.text = text
        self.tokens = tokenize(text)
        self.index = 0
        self.open_parens = 0

    @property
    def current(self) -> Token:
        return self.tokens[self.index]

    def advance(self) -> Token:
        token = self.tokens[self.index]
        self.index += 1
        return token

    def expect(self, kind: TokenKind) -> Token:
        if self.current.kind is not kind:
            raise PathSyntaxError(
                f"expected {kind.name}, found {self.current.kind.name}",
                self.text,
                self.current.position,
            )
        return self.advance()

    def check_depth(self, depth: int, token: Token) -> int:
        """Return ``depth``, or reject ``token`` for building a tree
        deeper than :data:`MAX_DEPTH`."""
        if depth > MAX_DEPTH:
            raise PathSyntaxError(
                f"expression nests deeper than {MAX_DEPTH} levels",
                self.text,
                token.position,
            )
        return depth

    # expr := term ("|" term)*
    def parse_expr(self) -> tuple[PathExpr, int]:
        expr, depth = self.parse_term()
        while self.current.kind is TokenKind.PIPE:
            pipe = self.advance()
            right, right_depth = self.parse_term()
            expr = Union_(expr, right)
            depth = self.check_depth(max(depth, right_depth) + 1, pipe)
        return expr, depth

    # term := factor (("." | "/" | "//") factor)*
    def parse_term(self) -> tuple[PathExpr, int]:
        expr, depth = self.parse_factor()
        while True:
            kind = self.current.kind
            if kind in (TokenKind.DOT, TokenKind.SLASH):
                separator = self.advance()
                right, right_depth = self.parse_factor()
                expr = Concat(expr, right)
                depth = self.check_depth(max(depth, right_depth) + 1, separator)
            elif kind is TokenKind.DSLASH:
                separator = self.advance()
                right, right_depth = self.parse_factor()
                descendant = Star(AnyLabel())
                expr = Concat(expr, Concat(descendant, right))
                # The inner Concat sits over `_*` (two levels) and `right`.
                inner = max(2, right_depth) + 1
                depth = self.check_depth(max(depth, inner) + 1, separator)
            elif kind in _ATOM_START:
                # Juxtaposition without separator is an error, not implicit
                # concatenation; point at the surprise token.
                raise PathSyntaxError(
                    "missing '.' between sub-expressions",
                    self.text,
                    self.current.position,
                )
            else:
                return expr, depth

    # factor := atom ("*" | "?")*
    def parse_factor(self) -> tuple[PathExpr, int]:
        expr, depth = self.parse_atom()
        while True:
            kind = self.current.kind
            if kind is TokenKind.STAR:
                expr = Star(expr)
            elif kind is TokenKind.QMARK:
                expr = Optional_(expr)
            else:
                return expr, depth
            depth = self.check_depth(depth + 1, self.advance())

    # atom := LABEL | "_" | "(" expr ")"
    def parse_atom(self) -> tuple[PathExpr, int]:
        token = self.current
        if token.kind is TokenKind.LABEL:
            self.advance()
            return Label(token.text), 1
        if token.kind is TokenKind.WILDCARD:
            self.advance()
            return AnyLabel(), 1
        if token.kind is TokenKind.LPAREN:
            self.advance()
            # The group and the atom inside it are two levels at least;
            # checking here bounds this parser's own recursion.
            self.open_parens += 1
            self.check_depth(self.open_parens + 1, token)
            expr, depth = self.parse_expr()
            self.expect(TokenKind.RPAREN)
            self.open_parens -= 1
            return expr, self.check_depth(depth + 1, token)
        raise PathSyntaxError(
            f"expected a label, '_' or '(', found {token.kind.name}",
            self.text,
            token.position,
        )


def parse_path_expression(text: str) -> tuple[PathExpr, bool]:
    """Parse ``text`` into ``(expression, anchored)``.

    The paper's semantics (Section 3) matches a path expression against
    node paths starting *anywhere* in the graph — its example
    ``director.movie.title`` is not root-anchored — so plain expressions
    and expressions with a leading ``//`` are both *unanchored*
    (``anchored=False``).  A leading single ``/`` requests XPath-style
    anchoring: the matching node path must begin at a child of the root.

    Example:
        >>> expr, anchored = parse_path_expression("//movie.title")
        >>> anchored
        False
        >>> expr.to_text()
        'movie.title'
        >>> _, anchored = parse_path_expression("/movieDB.movie")
        >>> anchored
        True
    """
    parser = _Parser(text)
    anchored = False
    if parser.current.kind is TokenKind.DSLASH:
        parser.advance()
    elif parser.current.kind is TokenKind.SLASH:
        # A leading single slash is XPath-style anchoring; consume it.
        parser.advance()
        anchored = True
    expr, _depth = parser.parse_expr()
    if parser.current.kind is not TokenKind.EOF:
        raise PathSyntaxError(
            f"trailing input after expression ({parser.current.kind.name})",
            text,
            parser.current.position,
        )
    return expr, anchored


def label_sequence(expr: PathExpr) -> list[str] | None:
    """If ``expr`` is a plain chain of concrete labels, return them.

    Returns None for anything involving wildcards, alternation,
    repetition or optionality.  The experiments' workload consists
    entirely of such plain chains, which get the fast evaluator.
    """
    if isinstance(expr, Label):
        return [expr.name]
    if isinstance(expr, Concat):
        left = label_sequence(expr.left)
        if left is None:
            return None
        right = label_sequence(expr.right)
        if right is None:
            return None
        return left + right
    return None


def make_query(text: str) -> Query:
    """Parse query source text into the most specific query object.

    Plain chains of concrete labels become :class:`LabelPathQuery`;
    everything else becomes :class:`RegexQuery`.

    Example:
        >>> make_query("//movie.title")
        LabelPathQuery(anchored=False, labels=('movie', 'title'))
        >>> type(make_query("movieDB._?.movie")).__name__
        'RegexQuery'
    """
    expr, anchored = parse_path_expression(text)
    labels = label_sequence(expr)
    if labels is not None:
        return LabelPathQuery(anchored=anchored, labels=tuple(labels))
    return RegexQuery(anchored=anchored, expr=expr)
