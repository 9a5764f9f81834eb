"""The out-of-core ``ExternalEngine``: equivalence, spilling, lifecycle.

The broad cross-engine identity checks live in
``test_engine_equivalence.py`` (the seeded DAG/cyclic families and the
driver matrix all run ``engine="external"``).  This file covers what is
specific to the external path: forced page-pool/spill pressure, the
borrowed-vs-owned store lifecycle, engine reuse across drivers, and the
pool/spill counters the benchmark reports.
"""

import errno
import gc
import random
import tempfile
import warnings

import pytest
from hypothesis import given, settings

from conftest import small_graphs
from repro.exceptions import PagedStoreError
from repro.graph.datagraph import DataGraph
from repro.maintenance.faults import FaultInjector
from repro.partition.columnar import ColumnarEngine
from repro.partition.external import ExternalEngine
from repro.partition.refinement import bisim_partition, kbisim_partition
from repro.storage.paged import PagedCSRGraph


def idref_graph(seed, size=180, labels="abcde"):
    rng = random.Random(seed)
    g = DataGraph()
    created = []
    for _ in range(size):
        node = g.add_node(rng.choice(labels))
        parent = created[rng.randrange(len(created))] if created else g.root
        g.add_edge_if_absent(parent, node)
        created.append(node)
    for _ in range(size):
        src = created[rng.randrange(len(created))]
        dst = created[rng.randrange(len(created))]
        if src != dst:
            g.add_edge_if_absent(src, dst)
    return g


@given(small_graphs())
@settings(max_examples=25, deadline=None)
def test_external_fixpoint_matches_columnar(graph):
    columnar, columnar_rounds = bisim_partition(graph, engine="columnar")
    external, external_rounds = bisim_partition(graph, engine="external")
    assert external == columnar
    assert external_rounds == columnar_rounds


def test_tiny_budgets_force_spills_and_stay_identical():
    graph = idref_graph(7)
    baseline = ColumnarEngine(graph).run_fixpoint()
    with ExternalEngine(
        graph, budget_bytes=512, page_bytes=64, spill_bytes=128
    ) as engine:
        partition = engine.run_fixpoint()
        assert engine.spilled_runs > 0  # the spill budget really bit
        stats = engine.stats
        assert stats.evictions > 0  # so did the page pool
        assert stats.hits + stats.misses == stats.accesses
    assert partition == baseline


def test_engine_reuse_across_drivers():
    graph = idref_graph(2, size=90)
    with ExternalEngine(graph, budget_bytes=2048, page_bytes=64) as engine:
        # One engine instance, several runs: the temp store must survive
        # between drivers and every run must match its in-memory twin.
        assert engine.run_fixpoint() == bisim_partition(
            graph, engine="columnar"
        )
        for k in (0, 1, 3):
            assert engine.run_kbisim(k) == kbisim_partition(
                graph, k, engine="columnar"
            )


def test_borrowed_paged_store_survives_engine_close(tmp_path):
    graph = idref_graph(4, size=60)
    paged = PagedCSRGraph.create(tmp_path / "csr", graph, page_bytes=128)
    expected = bisim_partition(graph, engine="columnar")
    with ExternalEngine(paged) as engine:
        assert engine.run_fixpoint() == expected
    # The engine closed, but it borrowed the store: it stays usable.
    assert paged.children(0) is not None
    assert list(paged.children(0)) == list(graph.freeze().children(0))
    paged.close()


def test_owned_store_is_cleaned_up_on_close():
    graph = idref_graph(5, size=40)
    engine = ExternalEngine(graph)
    directory = engine._tempdir.name
    engine.run_fixpoint()
    engine.close()
    import os

    assert not os.path.exists(directory)
    engine.close()  # idempotent


def test_materialize_round_trips_the_paged_csr():
    graph = idref_graph(6, size=50)
    view = graph.freeze()
    with ExternalEngine(graph, page_bytes=64) as engine:
        csr = engine.materialize()
    csr.check_invariants()
    assert csr.label_ids == view.label_ids
    assert csr.child_offsets == view.child_offsets
    assert csr.child_targets == view.child_targets


def test_single_node_and_empty_signature_paths():
    g = DataGraph()
    g.add_node("a")  # root plus one leaf: empty-signature sentinel path
    with ExternalEngine(g) as engine:
        partition, rounds = engine.run_fixpoint()
    legacy, legacy_rounds = bisim_partition(g, engine="legacy")
    assert partition == legacy
    assert rounds == legacy_rounds


def test_leveled_run_matches_columnar_under_pressure():
    graph = idref_graph(8, size=120)
    levels = [min(2, graph.label_ids[n] % 3) for n in graph.nodes()]
    baseline = ColumnarEngine(graph).run_leveled(list(levels))
    with ExternalEngine(
        graph, budget_bytes=0, page_bytes=64, spill_bytes=64
    ) as engine:
        # budget 0 keeps exactly one page resident: every access that
        # changes page evicts, the worst case for the pool.
        assert engine.run_leveled(list(levels)) == baseline
        assert engine.stats.evictions > 0


def test_failed_page_out_removes_the_owned_temp_store(tmp_path, monkeypatch):
    # A page-out that dies part-way (here: disk full on the first page)
    # must delete the engine-owned store before the error propagates,
    # not leave it to the TemporaryDirectory finalizer, which runs only
    # once the exception's traceback is gone and warns when it does.
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    graph = idref_graph(9, size=60)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(PagedStoreError) as excinfo:
            with FaultInjector("storage.page_enospc", "enospc"):
                ExternalEngine(graph)
        assert isinstance(excinfo.value.__cause__, OSError)
        assert excinfo.value.__cause__.errno == errno.ENOSPC
        # The traceback still holds the half-built engine, and with it
        # the TemporaryDirectory: nothing may survive even so.
        assert list(tmp_path.glob("dkindex-external-*")) == []
        del excinfo
        gc.collect()
    assert [w for w in caught if w.category is ResourceWarning] == []


def test_kbisim_zero_is_label_partition():
    graph = idref_graph(10, size=70)
    with ExternalEngine(graph) as engine:
        assert engine.run_kbisim(0) == kbisim_partition(
            graph, 0, engine="legacy"
        )
    with pytest.raises(ValueError):
        kbisim_partition(graph, -1, engine="external")
