"""Unit tests for :mod:`repro.paths.parser` and the AST."""

import pytest

from repro.exceptions import PathSyntaxError
from repro.paths.ast import (
    AnyLabel,
    Concat,
    Label,
    Optional_,
    Star,
    Union_,
    concat_all,
    label_sequence,
)
from repro.cli import main
from repro.graph.builder import graph_from_edges
from repro.graph.serialize import save_graph
from repro.indexes.akindex import build_ak_index
from repro.indexes.evaluation import evaluate_on_index
from repro.paths.evaluator import evaluate_on_data_graph
from repro.paths.parser import MAX_DEPTH, parse_path_expression
from repro.paths.query import RegexQuery, make_query


def parse(text):
    expr, _anchored = parse_path_expression(text)
    return expr


def test_single_label():
    assert parse("movie") == Label("movie")


def test_concat_left_associative():
    assert parse("a.b.c") == Concat(Concat(Label("a"), Label("b")), Label("c"))


def test_slash_as_separator():
    assert parse("a/b") == parse("a.b")


def test_union_lower_precedence_than_concat():
    assert parse("a.b|c") == Union_(Concat(Label("a"), Label("b")), Label("c"))


def test_parens_override():
    assert parse("a.(b|c)") == Concat(Label("a"), Union_(Label("b"), Label("c")))


def test_star_and_optional_postfix():
    assert parse("a*") == Star(Label("a"))
    assert parse("a?") == Optional_(Label("a"))
    assert parse("a*?") == Optional_(Star(Label("a")))


def test_wildcard():
    assert parse("_") == AnyLabel()
    assert parse("_*") == Star(AnyLabel())


def test_descendant_axis_desugars():
    assert parse("a//b") == Concat(
        Label("a"), Concat(Star(AnyLabel()), Label("b"))
    )


def test_leading_dslash_is_unanchored():
    _expr, anchored = parse_path_expression("//a.b")
    assert anchored is False


def test_plain_expression_is_unanchored_per_paper():
    _expr, anchored = parse_path_expression("director.movie.title")
    assert anchored is False


def test_leading_slash_anchors():
    _expr, anchored = parse_path_expression("/movieDB.movie")
    assert anchored is True


def test_paper_example_expression_parses():
    # movieDB.(_)?.movie.actor.name from Section 3.
    expr = parse("movieDB.(_)?.movie.actor.name")
    assert expr.min_length() == 4
    assert expr.max_length() == 5


def test_missing_dot_is_an_error():
    with pytest.raises(PathSyntaxError):
        parse("a b")


def test_unbalanced_paren_is_an_error():
    with pytest.raises(PathSyntaxError):
        parse("(a.b")


def test_trailing_junk_is_an_error():
    with pytest.raises(PathSyntaxError):
        parse("a)")


def test_empty_input_is_an_error():
    with pytest.raises(PathSyntaxError):
        parse("")


#: Expressions deeper than MAX_DEPTH.  Without the limit each one
#: overflowed a recursive walker with a raw RecursionError, in the
#: parser, in label_sequence, or later in compile_nfa or hashing.
TOO_DEEP = {
    "nested parentheses": "(" * 300 + "a" + ")" * 300,
    "label chain": "a" + ".a" * 1000,
    "union chain": "a" + "|a" * 1000,
    "wildcard chain": "_" + "._" * 5000,
    "long union chain": "a" + "|a" * 20000,
    "postfix run": "a" + "*" * 1000,
}

#: One level under MAX_DEPTH, in each shape that counts toward it.
DEEPEST = {
    "label chain": "a" + ".a" * (MAX_DEPTH - 2),
    "wildcard chain": "_" + "._" * (MAX_DEPTH - 2),
    "union chain": "a" + "|a" * (MAX_DEPTH - 2),
    "nested parentheses": "(" * (MAX_DEPTH - 3) + "a|_" + ")" * (MAX_DEPTH - 3),
}


@pytest.mark.parametrize("text", TOO_DEEP.values(), ids=TOO_DEEP.keys())
def test_too_deep_expression_is_a_syntax_error(text):
    with pytest.raises(PathSyntaxError, match="deeper than"):
        make_query(text)


def test_depth_error_points_at_the_crossing_token():
    # A chain of n labels is n levels deep; the MAX_DEPTH-th '.' crosses.
    with pytest.raises(PathSyntaxError) as chain:
        parse("a" + ".a" * MAX_DEPTH)
    assert chain.value.position == 2 * MAX_DEPTH - 1
    # n open parentheses around an atom are n + 1 levels deep.
    with pytest.raises(PathSyntaxError) as nested:
        parse("(" * MAX_DEPTH + "a" + ")" * MAX_DEPTH)
    assert nested.value.position == MAX_DEPTH - 1


@pytest.mark.parametrize("text", DEEPEST.values(), ids=DEEPEST.keys())
def test_expression_one_level_under_the_limit_works(text):
    query = make_query(text)
    assert make_query(query.to_text()) == query
    hash(query)
    if isinstance(query, RegexQuery):
        assert query.nfa.num_states > 0
    # A chain one node longer than the expression, under the root.
    size = MAX_DEPTH
    graph = graph_from_edges(["a"] * size, [(n, n + 1) for n in range(size)])
    want = evaluate_on_data_graph(graph, query)
    assert want
    assert evaluate_on_index(build_ak_index(graph, 1), query) == want


def test_cli_query_on_too_deep_expression_is_a_clean_error(tmp_path, capsys):
    path = tmp_path / "g.json"
    save_graph(graph_from_edges(["a"], [(0, 1)]), path)
    code = main(["query", str(path), "a" + ".a" * 1000])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error: expression nests deeper than")
    assert "Traceback" not in err


def test_lengths():
    assert parse("a.b").min_length() == 2
    assert parse("a.b").max_length() == 2
    assert parse("a?").min_length() == 0
    assert parse("a*").max_length() is None
    assert parse("a|b.c").min_length() == 1
    assert parse("a|b.c").max_length() == 2


def test_is_finite():
    assert parse("a.(b|c)?").is_finite()
    assert not parse("a.b*").is_finite()


def test_labels_iteration():
    assert sorted(parse("a.(b|c)*._").labels()) == ["a", "b", "c"]


def test_to_text_roundtrips():
    for text in ["a.b.c", "a|b", "(a|b).c", "a*", "a?", "_.a", "a.(b|c)?",
                 "(a.b)*", "(a.b)?", "(a.b)*.c", "a.(b.c)*"]:
        expr = parse(text)
        assert parse(expr.to_text()) == expr


def test_to_text_postfix_over_concat_regression():
    # Star(Concat(a, b)) must render as (a.b)*, not a.b* — the latter
    # reparses as Concat(a, Star(b)).
    expr = Star(Concat(Label("a"), Label("b")))
    assert expr.to_text() == "(a.b)*"
    assert parse(expr.to_text()) == expr
    opt = Optional_(Concat(Label("a"), Label("b")))
    assert parse(opt.to_text()) == opt


def test_to_text_roundtrips_random_asts():
    # Reparsing may re-associate concatenation (a.(b.c) vs (a.b).c), so
    # the round-trip contract is *semantic*: the reparsed expression
    # must render stably and accept exactly the same words.
    import itertools

    from hypothesis import given, settings

    from repro.paths.nfa import compile_nfa
    from test_nfa import ALPHABET, path_exprs

    @given(path_exprs())
    @settings(max_examples=250, deadline=None)
    def run(expr):
        text = expr.to_text()
        reparsed = parse(text)
        assert reparsed.to_text() == text  # rendering is a fixpoint
        original_nfa = compile_nfa(expr)
        reparsed_nfa = compile_nfa(reparsed)
        for length in range(4):
            for word in itertools.product(ALPHABET, repeat=length):
                assert original_nfa.accepts(list(word)) == reparsed_nfa.accepts(
                    list(word)
                ), (text, word)

    run()


def test_label_sequence_plain_chain():
    assert label_sequence(parse("a.b.c")) == ["a", "b", "c"]
    assert label_sequence(parse("a.b*")) is None
    assert label_sequence(parse("a|b")) is None
    assert label_sequence(parse("_.a")) is None


def test_concat_all():
    assert concat_all([Label("a"), Label("b")]) == Concat(Label("a"), Label("b"))
    with pytest.raises(ValueError):
        concat_all([])
