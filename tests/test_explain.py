"""Tests for :mod:`repro.indexes.explain` (EXPLAIN)."""

import pytest

from repro.core.dindex import DKIndex
from repro.engine import Database
from repro.graph.builder import graph_from_edges
from repro.indexes.akindex import build_ak_index
from repro.indexes.explain import explain
from repro.indexes.labelsplit import build_labelsplit_index
from repro.indexes.oneindex import build_1index
from repro.paths.cost import CostCounter
from repro.paths.query import make_query


def two_x_graph():
    return graph_from_edges(
        ["a", "b", "x", "x"], [(0, 1), (0, 2), (1, 3), (2, 4)]
    )


def test_sound_query_explained():
    g = two_x_graph()
    report = explain(build_ak_index(g, 1), make_query("a.x"))
    assert report.fully_indexed
    assert report.required_k == 1
    assert len(report.terminals) == 1
    assert report.terminals[0].sound
    assert report.result_size == 1
    assert report.suggestion == ""


def test_validating_query_explained_with_hint():
    g = two_x_graph()
    report = explain(build_labelsplit_index(g), make_query("a.x"))
    assert not report.fully_indexed
    assert not report.terminals[0].sound
    assert report.candidates_validated > 0
    assert "promote" in report.suggestion
    assert "x" in report.suggestion
    assert "1" in report.suggestion


def test_explanation_matches_actual_evaluation():
    g = two_x_graph()
    index = build_labelsplit_index(g)
    query = make_query("a.x")
    from repro.indexes.evaluation import evaluate_on_index

    report = explain(index, query)
    assert report.result_size == len(evaluate_on_index(index, query))


def test_running_counter_keeps_totals_and_explanation_its_own_cost():
    g = two_x_graph()
    running = CostCounter()
    first = explain(build_labelsplit_index(g), make_query("a.x"), running)
    assert not first.fully_indexed
    assert first.candidates_validated == 2
    second = explain(build_ak_index(g, 3), make_query("a.x"), running)
    assert second.fully_indexed
    assert second.candidates_validated == 0
    assert (second.cost.index_nodes_visited, second.cost.data_nodes_visited) == (2, 0)
    assert "2 index + 0 data visits (0 candidates validated)" in second.format()
    assert running.index_nodes_visited == first.cost.index_nodes_visited + 2
    assert running.data_nodes_visited == first.cost.data_nodes_visited
    assert running.validations == 2


def test_anchored_query_requires_extra_level():
    g = two_x_graph()
    report = explain(build_ak_index(g, 1), make_query("/a"))
    assert report.required_k == 1


def test_unbounded_regex_hint():
    g = graph_from_edges(["a", "a"], [(0, 1), (1, 2), (2, 1)])
    report = explain(build_labelsplit_index(g), make_query("a.a*"))
    assert report.required_k is None
    assert "unbounded" in report.suggestion


def test_finite_regex_required_k():
    g = two_x_graph()
    report = explain(build_1index(g), make_query("a.x?"))
    assert report.required_k == 1
    assert report.fully_indexed  # 1-index never validates finite regexes


def test_format_output():
    g = two_x_graph()
    text = explain(build_labelsplit_index(g), make_query("a.x")).format()
    assert "query: //a.x" in text
    assert "VALIDATES" in text
    assert "hint:" in text
    sound_text = explain(build_1index(g), make_query("a.x")).format()
    assert "k=∞" in sound_text
    assert "sound" in sound_text


def test_dkindex_and_database_facades():
    g = two_x_graph()
    dk = DKIndex.build(g, {"x": 1})
    report = dk.explain(make_query("a.x"))
    assert report.fully_indexed

    db = Database.from_xml("<db><m><t>x</t></m></db>", auto_tune=False)
    report = db.explain("m.t")
    assert report.query_text == "//m.t"
    with pytest.raises(ValueError):
        db.explain("m[t]/t")


def test_unknown_query_type_rejected():
    g = two_x_graph()
    with pytest.raises(TypeError):
        explain(build_1index(g), object())


def test_promotion_hint_is_actionable():
    # Follow the hint and the query becomes index-only.
    g = two_x_graph()
    dk = DKIndex.build(g, {})
    query = make_query("a.x")
    report = dk.explain(query)
    assert not report.fully_indexed
    dk.promote({label: report.required_k for label in ("x",)})
    after = dk.explain(query)
    assert after.fully_indexed
