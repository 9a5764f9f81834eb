"""Query text: the one-pattern lexer and chain fast path against the oracle.

:func:`repro.paths.lexer.tokenize` scans with one compiled pattern, and
:func:`repro.paths.query.make_query` turns a plain dotted label chain
into a :class:`LabelPathQuery` without tokens or a syntax tree.  For
every text both must return what the character-loop lexer and the
parse-then-flatten ``make_query`` in :mod:`query_text_oracle` return:
the same tokens, an equal query of the same class, or a
:class:`PathSyntaxError` with the same message at the same position.

Three strategies feed the comparison: random strings over the syntax's
characters plus whitespace and letters, digits and numerals from
outside ASCII (``²``, ``½`` and ``Ⅷ`` are alphanumeric but may not
start a label, which ``re`` cannot say by a class); rendered
expressions from ``test_nfa``; and label chains either side of
:data:`~repro.paths.parser.MAX_DEPTH`.
"""

from __future__ import annotations

from typing import Any, Callable

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import query_text_oracle as oracle
from repro.exceptions import PathSyntaxError
from repro.paths import query as query_module
from repro.paths.lexer import tokenize
from repro.paths.parser import MAX_DEPTH
from repro.paths.query import LabelPathQuery, RegexQuery, make_query
from test_nfa import path_exprs

#: The syntax's characters, whitespace, label characters that may not
#: start a label, and letters, digits and numerals outside ASCII.
ALPHABET = list("ab_.|*?()/") + [" ", "\t", "-", ":", "9"] + list("éß²½Ⅷ٣")

EXAMPLES = settings(max_examples=1000, deadline=None)


def outcome(function: Callable[[str], Any], text: str) -> tuple[Any, ...]:
    """What ``function`` makes of ``text``: a value, or its syntax error."""
    try:
        return ("value", function(text))
    except PathSyntaxError as error:
        return ("error", error.args, error.position)


def token_outcome(function: Callable[[str], Any], text: str) -> tuple[Any, ...]:
    """Like :func:`outcome`, with tokens as ``(kind, text, position)``:
    the oracle's token classes are its own."""
    result = outcome(function, text)
    if result[0] == "error":
        return result
    return ("value", [(t.kind.name, t.text, t.position) for t in result[1]])


def query_outcome(function: Callable[[str], Any], text: str) -> tuple[Any, ...]:
    """Like :func:`outcome`, with the query's class beside it."""
    result = outcome(function, text)
    if result[0] == "error":
        return result
    return ("value", type(result[1]), result[1])


def assert_matches_oracle(text: str) -> None:
    assert token_outcome(tokenize, text) == token_outcome(oracle.tokenize, text)
    assert query_outcome(make_query, text) == query_outcome(oracle.make_query, text)


@given(st.text(st.sampled_from(ALPHABET), max_size=24))
@EXAMPLES
def test_random_text_matches_oracle(text):
    assert_matches_oracle(text)


@given(path_exprs(), st.sampled_from(["", "//", "/"]))
@EXAMPLES
def test_rendered_expression_matches_oracle(expr, prefix):
    assert_matches_oracle(prefix + expr.to_text())


@st.composite
def long_chains(draw) -> tuple[str, str, int]:
    """A chain of ``MAX_DEPTH - 1``, ``MAX_DEPTH`` or ``MAX_DEPTH + 1``
    one-character labels, with its separator and label count."""
    count = draw(st.sampled_from([MAX_DEPTH - 1, MAX_DEPTH, MAX_DEPTH + 1]))
    separator = draw(st.sampled_from([".", "/", " . "]))
    labels = draw(st.lists(st.sampled_from("ab_é"), min_size=count, max_size=count))
    prefix = draw(st.sampled_from(["", "//", "/"]))
    return prefix + separator.join(labels), separator, count


@given(long_chains())
@EXAMPLES
def test_long_chain_matches_oracle(chain):
    text, separator, count = chain
    assert_matches_oracle(text)
    if separator == "." and count > MAX_DEPTH and not text.startswith("/"):
        with pytest.raises(PathSyntaxError, match="deeper than") as info:
            make_query(text)
        assert info.value.position == 2 * MAX_DEPTH - 1


@pytest.mark.parametrize(
    "text, anchored, labels",
    [
        ("movie", False, ("movie",)),
        ("//movie.title", False, ("movie", "title")),
        ("/movieDB.movie", True, ("movieDB", "movie")),
        ("_x.x_.ns:tag.data-set.é9", False, ("_x", "x_", "ns:tag", "data-set", "é9")),
        ("a" + ".a" * (MAX_DEPTH - 1), False, ("a",) * MAX_DEPTH),
    ],
)
def test_plain_chain_skips_the_parser(monkeypatch, text, anchored, labels):
    def no_parse(text):
        raise AssertionError(f"{text!r} was parsed")

    monkeypatch.setattr(query_module, "parse_path_expression", no_parse)
    assert make_query(text) == LabelPathQuery(anchored=anchored, labels=labels)


@pytest.mark.parametrize(
    "text, expected",
    [
        ("a/b", LabelPathQuery),
        ("a . b", LabelPathQuery),
        ("(a.b).c", LabelPathQuery),
        ("a._.b", RegexQuery),
        ("_", RegexQuery),
    ],
)
def test_declined_chain_is_parsed(text, expected):
    query = make_query(text)
    assert type(query) is expected
    assert query == oracle.make_query(text)


@pytest.mark.parametrize("text", ["²", "a.½b", "//Ⅷ", "a.9", "a..b", "a.", "//"])
def test_chain_lookalike_errors_match_oracle(text):
    assert query_outcome(oracle.make_query, text)[0] == "error"
    assert_matches_oracle(text)
