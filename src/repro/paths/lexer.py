"""Tokenizer for the path-expression surface syntax.

Token kinds:

========  ==========================================
LABEL     an XML name (``movie``, ``open_auction``…)
WILDCARD  ``_`` (matches any single label)
DOT       ``.`` (sequence)
PIPE      ``|`` (alternation)
STAR      ``*``
QMARK     ``?``
LPAREN    ``(``
RPAREN    ``)``
DSLASH    ``//`` (descendant-axis sugar)
SLASH     ``/`` (alternative sequence separator, XPath-flavoured)
EOF       end of input
========  ==========================================

A lone ``_`` is the wildcard.  A label starts with a letter
(``str.isalpha()``) or ``_`` and continues with letters, digits
(``str.isalnum()``), ``_``, ``-`` and ``:``.  :data:`LABEL` and
:func:`starts_label` state that rule once, for :func:`tokenize` and for
the plain-chain pattern of :func:`repro.paths.query.make_query`.

:func:`tokenize` scans with one compiled pattern: each match skips
whitespace (``\\s`` is exactly ``str.isspace()``) and takes one token,
an operator, a word, or the single character no token starts with.
"""

from __future__ import annotations

import re
from enum import Enum, auto
from typing import NamedTuple

from repro.exceptions import PathSyntaxError


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


class Token(NamedTuple):
    """A single lexical token with its source position."""

    kind: TokenKind
    text: str
    position: int


#: One label in ``re`` syntax.  ``\w`` is exactly ``str.isalnum()`` or
#: ``_``, but ``re`` has no class for ``str.isalpha()``: the start class
#: ``[^\W\d]`` also admits 1,131 numeric symbols outside ASCII (``²``,
#: ``½``, ``Ⅷ`` …), and a match is a label only if it
#: :func:`starts_label`.
LABEL = r"[^\W\d][\w:-]*"


def starts_label(word: str) -> bool:
    """Whether ``word``, matched by :data:`LABEL`, starts as a label
    must: with a letter or ``_``."""
    return word[0].isalpha() or word[0] == "_"


#: Every word whose kind is not LABEL.
_KINDS = {
    "//": TokenKind.DSLASH,
    "/": TokenKind.SLASH,
    ".": TokenKind.DOT,
    "|": TokenKind.PIPE,
    "*": TokenKind.STAR,
    "?": TokenKind.QMARK,
    "(": TokenKind.LPAREN,
    ")": TokenKind.RPAREN,
    "_": TokenKind.WILDCARD,
}

# After whitespace, the group takes an operator, a word, or a character
# no token starts with; only the end of the text leaves it empty.  Some
# branch matches at every position, so the scan never skips a character.
_TOKEN = re.compile(rf"\s*(?:(//|[/.|*?()]|{LABEL}|\S)|\Z)")


def tokenize(text: str) -> list[Token]:
    """Tokenize ``text`` into a list ending with an EOF token.

    Raises:
        PathSyntaxError: on any character that cannot start a token.

    Example:
        >>> [t.kind.name for t in tokenize("a.b|c*")]
        ['LABEL', 'DOT', 'LABEL', 'PIPE', 'LABEL', 'STAR', 'EOF']
    """
    tokens: list[Token] = []
    for match in _TOKEN.finditer(text):
        word = match[1]
        if word is None:
            break
        kind = _KINDS.get(word)
        if kind is None:
            if not starts_label(word):
                raise PathSyntaxError(
                    f"unexpected character {word[0]!r}", text, match.start(1)
                )
            kind = TokenKind.LABEL
        tokens.append(Token(kind, word, match.start(1)))
    tokens.append(Token(TokenKind.EOF, "", len(text)))
    return tokens
