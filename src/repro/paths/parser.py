"""Recursive-descent parser for regular path expressions.

Grammar (lowest to highest precedence)::

    query   := ["//"] expr
    expr    := term ("|" term)*
    term    := factor (("." | "/" | "//") factor)*
    factor  := atom ("*" | "?")*
    atom    := LABEL | "_" | "(" expr ")"

``a//b`` desugars to ``a._*.b``; a *leading* ``//`` marks the query as
*unanchored* (partial-matching, the paper's self-or-descendant axis), and
is reported separately rather than being encoded as ``_*.`` so that plain
label-path queries keep their fast evaluation path.
"""

from __future__ import annotations

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
from repro.paths.lexer import Token, TokenKind, tokenize

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
