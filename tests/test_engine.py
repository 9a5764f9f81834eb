"""Tests for the :class:`repro.engine.Database` facade."""

import gc
import io
import warnings

import pytest

from repro.engine import Database
from repro.maintenance.journal import UpdateJournal
from repro.paths.evaluator import evaluate_on_data_graph
from repro.paths.query import make_query
from repro.paths.twig import evaluate_twig, parse_twig

LIBRARY_XML = (
    "<library>"
    '<book id="b1"><title>TAOCP</title><author><name>K</name></author></book>'
    '<book id="b2"><title>SICP</title><cites idref="b1"/></book>'
    "</library>"
)


def test_from_xml_and_linear_query():
    db = Database.from_xml(LIBRARY_XML)
    result = db.query("book.title")
    assert result == evaluate_on_data_graph(db.graph, make_query("book.title"))
    assert db.statistics.queries == 1


def test_twig_query_routing():
    db = Database.from_xml(LIBRARY_XML)
    result = db.query("book[author]/title")
    truth = evaluate_twig(db.graph, parse_twig("book[author]/title"))
    assert result == truth
    assert db.statistics.twig_queries == 1


def test_query_object_passthrough():
    db = Database.from_xml(LIBRARY_XML)
    assert db.query(make_query("book.title")) == db.query("book.title")
    assert db.query(parse_twig("book[author]/title")) is not None


def test_bad_query_type_rejected():
    db = Database.from_xml(LIBRARY_XML)
    with pytest.raises(TypeError):
        db.query(42)


def test_insert_document_and_requery():
    db = Database.from_xml(LIBRARY_XML)
    before = len(db.query("book.title"))
    db.insert_document("<library><book><title>New</title></book></library>")
    db.check()
    after = len(db.query("book.title"))
    assert after == before + 1
    assert db.statistics.documents_inserted == 1


def test_add_and_remove_reference():
    db = Database.from_xml(LIBRARY_XML)
    books = db.graph.nodes_with_label("book")
    titles = db.graph.nodes_with_label("title")
    db.add_reference(books[0], books[1])
    db.check()
    assert db.query("book.book.title")  # the new path exists
    db.remove_reference(books[0], books[1])
    db.check()
    result = db.query("book.book.title")
    truth = evaluate_on_data_graph(db.graph, make_query("book.book.title"))
    assert result == truth
    assert db.statistics.edges_added == 1
    assert db.statistics.edges_removed == 1
    assert titles  # silence unused warning


def test_mutations_invalidate_fb_index():
    db = Database.from_xml(LIBRARY_XML)
    db.query("book[author]/title")  # builds the F&B index
    db.insert_document(
        "<library><book><title>X</title><author><name>a</name></author></book></library>"
    )
    # The twig answer must reflect the new document.
    result = db.query("book[author]/title")
    truth = evaluate_twig(db.graph, parse_twig("book[author]/title"))
    assert result == truth


def test_auto_tuning_learns_long_queries():
    from repro.core.tuner import TunerConfig

    db = Database.from_xml(
        LIBRARY_XML,
        tuner_config=TunerConfig(window=30, min_queries=4, check_every=4),
    )
    for _ in range(12):
        db.query("library.book.author.name")
    assert db.statistics.tuning_actions >= 1
    assert db.index.requirements.get("name", 0) >= 3


def test_retune_explicit():
    db = Database.from_xml(LIBRARY_XML, auto_tune=False)
    db.retune({"title": 2})
    assert db.index.requirements.get("title") == 2
    db.check()


def test_statistics_format_and_repr():
    db = Database.from_xml(LIBRARY_XML)
    db.query("book.title")
    assert "queries: 1" in db.statistics.format()
    assert "Database(" in repr(db)


def test_labels_of():
    db = Database.from_xml(LIBRARY_XML)
    result = db.query("book.title")
    assert set(db.labels_of(result)) == {"title"}


def test_save_and_load_roundtrip(tmp_path):
    db = Database.from_xml(LIBRARY_XML, auto_tune=False)
    db.retune({"title": 2})
    path = tmp_path / "db.json"
    db.save(path)
    restored = Database.load(path, auto_tune=False)
    restored.check()
    assert restored.query("book.title") == db.query("book.title")
    assert restored.index.requirements == db.index.requirements


def test_save_load_stream():
    db = Database.from_xml(LIBRARY_XML, auto_tune=False)
    buffer = io.StringIO()
    db.save(buffer)
    buffer.seek(0)
    restored = Database.load(buffer, auto_tune=False)
    assert restored.graph.num_nodes == db.graph.num_nodes


def test_empty_database():
    db = Database()
    assert db.query("anything") == set()
    db.insert_document("<doc><a/></doc>")
    assert db.query("a") != set()


def test_close_releases_the_journal_handle(tmp_path):
    path = tmp_path / "journal.jsonl"
    db = Database.from_xml(LIBRARY_XML, journal_path=path)
    books = db.graph.nodes_with_label("book")
    db.add_reference(books[0], books[1])
    db.close()
    db.close()  # a second close is harmless
    db.remove_reference(books[0], books[1])  # reopens the handle
    db.close()
    del db
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        gc.collect()
    assert not [w for w in caught if issubclass(w.category, ResourceWarning)]
    ops = [entry.op for entry in UpdateJournal(path).entries()]
    assert ops == ["", "add_edge", "remove_edge"]
