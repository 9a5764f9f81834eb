"""The out-of-core ``ExternalEngine``: equivalence, pool pressure, lifecycle.

The broad cross-engine identity checks live in
``test_engine_equivalence.py`` (the seeded DAG/cyclic families and the
driver matrix all run ``engine="external"``).  This file covers what is
specific to the external path: forced page-pool pressure, the
node-ordered sweeps against their in-memory twins at page sizes down to
one entry, the page-read I/O bound, the borrowed-vs-owned store
lifecycle, engine reuse across drivers, and the pool counters the
benchmark reports.
"""

import errno
import gc
import random
import tempfile
import warnings
from array import array

import pytest
from hypothesis import given, settings

from conftest import small_graphs
from repro.bench.harness import ExperimentConfig, load_dataset
from repro.datasets.nasa import generate_nasa
from repro.datasets.xmark import generate_xmark
from repro.exceptions import PagedStoreError
from repro.graph.columnar import BUFFER_TYPECODE
from repro.graph.datagraph import DataGraph
from repro.maintenance.faults import FaultInjector
from repro.partition.columnar import ColumnarEngine
from repro.partition.external import ExternalEngine
from repro.partition.refinement import bisim_partition, kbisim_partition
from repro.storage.paged import (
    CORE_CSR_BUFFERS,
    ENTRY_BYTES,
    PageCursor,
    PagedCSRGraph,
    resolve_page_bytes,
)
from repro.storage.retry import RetryPolicy


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


def test_tiny_budgets_force_evictions_and_stay_identical():
    graph = idref_graph(7)
    baseline = ColumnarEngine(graph).run_fixpoint()
    with ExternalEngine(graph, budget_bytes=512, page_bytes=64) as engine:
        partition = engine.run_fixpoint()
        stats = engine.stats
        assert stats.evictions > 0  # the page pool really bit
        assert stats.hits + stats.misses == stats.accesses
        assert engine.spilled_runs == 0  # keys never leave memory
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
        csr = engine.paged.to_csr()
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
    with ExternalEngine(graph, budget_bytes=0, page_bytes=64) as engine:
        # budget 0 evicts each page as soon as it is loaded: every
        # page change is a miss, the worst case for the pool.
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


# ----------------------------------------------------------------------
# Node-ordered sweeps across page boundaries
# ----------------------------------------------------------------------


def boundary_graphs():
    """Fixtures rich in multi-parent nodes: IDREF trees and XMark."""
    return [
        idref_graph(12, size=160),
        idref_graph(13, size=90, labels="ab"),
        generate_xmark(scale=0.02, seed=3).graph,
    ]


def pages(store, name):
    return -(-store.length(name) // store.entries_per_page)


@pytest.mark.parametrize("page_bytes", [8, 16, 64])
def test_sweeps_match_in_memory_across_page_boundaries(page_bytes):
    # 1, 2 and 8 entries per page put offset pairs and parent or child
    # lists across page boundaries, read under a one-page pool.
    rng = random.Random(page_bytes)
    for graph in boundary_graphs():
        columnar = ColumnarEngine(graph)
        with ExternalEngine(
            graph, budget_bytes=0, page_bytes=page_bytes
        ) as external:
            nodes = external._num_nodes
            assert any(
                len(external.paged.parents(node)) > 1 for node in range(nodes)
            )
            for _ in range(6):
                # Few distinct blocks: multi-parent keys dedup to a
                # shared int as well as to tuples.
                block_of = array(
                    BUFFER_TYPECODE,
                    [rng.randrange(4) for _ in range(nodes)],
                )
                columnar._block_of = block_of
                external._block_of = block_of
                batch = rng.sample(range(nodes), rng.randrange(1, nodes))
                batch.append(nodes - 1)
                batch = list(dict.fromkeys(batch))  # unique, unsorted
                assert external._signature_keys(
                    batch
                ) == columnar._signature_keys(batch)

                members = rng.sample(range(nodes), rng.randrange(2, nodes))
                cut = rng.randrange(1, len(members))
                moved = [members[:cut], members[cut:]]
                assert external._dirty_children(
                    moved
                ) == columnar._dirty_children(moved)
            store = external.paged.store
            for name in ("parent_offsets", "child_targets", "label_ids"):
                end = store.length(name)
                with pytest.raises(PagedStoreError):
                    store.read_element(name, end)
                with pytest.raises(PagedStoreError):
                    PageCursor(store, name).at(end)
                with pytest.raises(PagedStoreError):
                    store.read_page(name, pages(store, name))


@pytest.mark.parametrize("generate", [generate_nasa, generate_xmark])
def test_fixpoint_reads_each_page_once_per_sweep(generate):
    # Under a one-page pool every page change is a miss, so the miss
    # count is exactly the number of page reads: one label scan, one
    # parent sweep per round (plus the final, unchanging one) and one
    # child sweep per changing round, each reading a page at most once.
    graph = generate(scale=0.05, seed=0).graph
    expected = ColumnarEngine(graph).run_fixpoint()
    with ExternalEngine(graph, budget_bytes=0, page_bytes=64) as engine:
        store = engine.paged.store
        before = engine.stats.snapshot()
        partition, rounds = engine.run_fixpoint()
        misses = engine.stats.delta(before).misses
        bound = (
            pages(store, "label_ids")
            + (rounds + 1)
            * (pages(store, "parent_offsets") + pages(store, "parent_targets"))
            + rounds
            * (pages(store, "child_offsets") + pages(store, "child_targets"))
        )
    assert (partition, rounds) == expected
    assert misses <= bound


def test_kbisim_zero_is_label_partition():
    graph = idref_graph(10, size=70)
    with ExternalEngine(graph) as engine:
        assert engine.run_kbisim(0) == kbisim_partition(
            graph, 0, engine="legacy"
        )
    with pytest.raises(ValueError):
        kbisim_partition(graph, -1, engine="external")


# ----------------------------------------------------------------------
# Out-of-core identity on a paper dataset under a bounded pool
# ----------------------------------------------------------------------


@pytest.mark.parametrize(
    "page_bytes, budget_ratio, fault_rate",
    [(4096, 0.0, 0.0), (None, 0.25, 0.1)],
    ids=["one-page-pool", "quarter-budget-faults"],
)
def test_xmark_external_build_matches_in_memory_under_a_bounded_pool(
    tmp_path, page_bytes, budget_ratio, fault_rate
):
    # The external build must produce the in-memory partition, round for
    # round, with the pool squeezed to one page (every page change
    # evicts) and at a 25% budget under 10% transient read faults, which
    # the retry policy alone must absorb: the engine is driven directly,
    # so a give-up raises instead of degrading.
    graph = load_dataset("xmark", ExperimentConfig(scale=0.2)).fresh_graph()
    view = graph.freeze()
    expected = ColumnarEngine(view).run_fixpoint()
    page_bytes = resolve_page_bytes(page_bytes)
    footprint = ENTRY_BYTES * sum(
        len(getattr(view, name)) for name in CORE_CSR_BUFFERS
    )
    budget = max(page_bytes, int(footprint * budget_ratio))
    # Deeper than the default four attempts: at a 10% fault rate eight
    # push a give-up to about one read in 10^9.
    retry = RetryPolicy(retries=8, backoff_ms=0.25, seed=0) if fault_rate else None
    with PagedCSRGraph.create(
        tmp_path / "store",
        graph,
        page_bytes=page_bytes,
        budget_bytes=budget,
        retry=retry,
    ) as paged:
        before = paged.stats.snapshot()
        with ExternalEngine(paged) as engine:
            assert engine.run_fixpoint() == expected
        assert paged.stats.delta(before).misses > 0

        if fault_rate:
            injector = FaultInjector(
                "storage.page_read_eio_transient",
                "transient",
                seed=0,
                rate=fault_rate,
            )
            before = paged.stats.snapshot()
            with injector, ExternalEngine(paged) as engine:
                assert engine.run_fixpoint() == expected
            pool = paged.stats.delta(before)
            assert pool.give_ups == 0
            assert injector.fires > 0
            assert pool.retries >= injector.fires

        rng = random.Random(0)
        for _ in range(2000):
            node = rng.randrange(paged.num_nodes)
            if rng.random() < 0.5:
                assert paged.children(node) == view.children(node)
            else:
                assert paged.parents(node) == view.parents(node)
