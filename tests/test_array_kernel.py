"""The numpy array rounds and the array quotient against the scalar path.

Index node ids are block ids, so the array path must reproduce the
scalar path's ``block_of`` exactly; ``Partition.__eq__`` ignores ids and
is not enough.  Every check runs the same drivers twice — numpy on every
round (threshold 0) and numpy hidden — and compares ``block_of`` and the
member lists; the external engine's pool counters must match too, and
the quotient must rebuild the same :class:`IndexGraph` down to the
iteration order of its adjacency sets.
"""

import random
from contextlib import contextmanager

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import small_graphs
import repro.partition.columnar as columnar
from repro.core.construction import build_dk_index, reindex_index_graph
from repro.datasets.nasa import generate_nasa
from repro.datasets.xmark import generate_xmark
from repro.exceptions import InjectedFaultError, PagedStoreError
from repro.graph.serialize import graph_from_dict, graph_to_dict
from repro.indexes.akindex import build_ak_index
from repro.indexes.base import IndexGraph
from repro.indexes.oneindex import build_1index
from repro.maintenance.faults import FaultInjector
from repro.partition.columnar import ColumnarEngine
from repro.partition.external import ExternalEngine
from repro.storage.paged import CORE_CSR_BUFFERS, ENTRY_BYTES
from test_engine_equivalence import cyclic_idref_graph, dag_with_shared_subtrees

pytestmark = pytest.mark.skipif(
    columnar._numpy is None, reason="numpy extra not installed"
)


@contextmanager
def array_path(enabled):
    """Force the array path onto every round, or hide numpy entirely."""
    saved = columnar._numpy, columnar.NUMPY_NODE_THRESHOLD
    if enabled:
        columnar.NUMPY_NODE_THRESHOLD = 0
    else:
        columnar._numpy = None
    try:
        yield
    finally:
        columnar._numpy, columnar.NUMPY_NODE_THRESHOLD = saved


def both_paths(run):
    """``run()`` with numpy hidden, then with the array path forced."""
    with array_path(False):
        scalar = run()
    with array_path(True):
        arrays = run()
    return scalar, arrays


def random_levels(graph, seed, top=3):
    rng = random.Random(seed)
    return [rng.randrange(top + 1) for _ in range(graph.num_nodes)]


def driver_results(engine, levels, drivers):
    """Every partition the drivers produce, as (driver, step, block_of,
    blocks) tuples."""
    results = []
    if "kbisim" in drivers:
        for k in (0, 1, 3):
            partition = engine.run_kbisim(k)
            results.append(("kbisim", k, partition.block_of, partition.blocks))
    if "fixpoint" in drivers:
        partition, rounds = engine.run_fixpoint()
        results.append(("fixpoint", rounds, partition.block_of, partition.blocks))
    if "leveled" in drivers:
        partition = engine.run_leveled(levels)
        results.append(("leveled", 0, partition.block_of, partition.blocks))
    if "rounds" in drivers:
        for step, partition in enumerate(engine.refine_rounds(levels)):
            results.append(("rounds", step, partition.block_of, partition.blocks))
        for step, partition in enumerate(engine.refine_rounds(max_rounds=2)):
            results.append(("capped", step, partition.block_of, partition.blocks))
    return results


ALL_DRIVERS = ("kbisim", "fixpoint", "leveled", "rounds")


def columnar_results(graph, levels, drivers=ALL_DRIVERS):
    return driver_results(ColumnarEngine(graph), levels, drivers)


def external_results(graph, levels, page_bytes, pool_share=0.0, drivers=ALL_DRIVERS):
    """Driver results, plus the I/O counters, with the pool at
    ``pool_share`` of the CSR bytes; the default 0 leaves only the page
    being read (a one-page pool)."""
    view = graph.freeze()
    footprint = ENTRY_BYTES * sum(len(getattr(view, name)) for name in CORE_CSR_BUFFERS)
    with ExternalEngine(
        graph, budget_bytes=int(footprint * pool_share), page_bytes=page_bytes
    ) as engine:
        results = driver_results(engine, levels, drivers)
        stats = engine.stats
        results.append(("io", stats.hits, stats.misses, stats.evictions))
    return results


# ----------------------------------------------------------------------
# The columnar engine
# ----------------------------------------------------------------------


@given(small_graphs(max_nodes=14, allow_cycles=False), st.integers(0, 2**16))
@settings(max_examples=40, deadline=None)
def test_array_rounds_match_scalar_block_ids_on_dags(graph, seed):
    levels = random_levels(graph, seed)
    scalar, arrays = both_paths(lambda: columnar_results(graph, levels))
    assert arrays == scalar


@given(small_graphs(max_nodes=14, extra_edge_factor=2), st.integers(0, 2**16))
@settings(max_examples=40, deadline=None)
def test_array_rounds_match_scalar_block_ids_on_cyclic_graphs(graph, seed):
    levels = random_levels(graph, seed)
    scalar, arrays = both_paths(lambda: columnar_results(graph, levels))
    assert arrays == scalar


def seeded_graphs():
    return {
        "dag": dag_with_shared_subtrees(1, size=150),
        "cyclic": cyclic_idref_graph(2, size=150),
        "xmark": generate_xmark(scale=0.05, seed=0).graph,
        "nasa": generate_nasa(scale=0.05, seed=0).graph,
    }


SEEDED = seeded_graphs()


@pytest.mark.parametrize("name", sorted(SEEDED))
def test_array_rounds_match_scalar_block_ids_on_seeded_graphs(name):
    graph = SEEDED[name]
    levels = random_levels(graph, 5)
    scalar, arrays = both_paths(lambda: columnar_results(graph, levels))
    assert arrays == scalar
    # At the default threshold a run mixes array and scalar rounds.
    assert columnar_results(graph, levels) == scalar


def test_array_rounds_accept_levels_past_int64():
    graph = SEEDED["cyclic"]
    levels = [2**70 if node % 3 else 1 for node in range(graph.num_nodes)]
    scalar, arrays = both_paths(
        lambda: columnar_results(graph, levels, ("leveled", "rounds"))
    )
    assert arrays == scalar


# ----------------------------------------------------------------------
# The external engine: page-ordered gathers
# ----------------------------------------------------------------------


SMALL = {
    "dag": dag_with_shared_subtrees(3, size=80),
    "cyclic": cyclic_idref_graph(4, size=80),
}


@pytest.mark.parametrize(
    "pool_share", [0.0, 0.25], ids=["one-page-pool", "quarter-pool"]
)
@pytest.mark.parametrize("page_bytes", [8, 16, 64])
@pytest.mark.parametrize("name", sorted(SMALL))
def test_external_array_rounds_match_scalar_io(name, page_bytes, pool_share):
    graph = SMALL[name]
    levels = random_levels(graph, 7)
    scalar, arrays = both_paths(
        lambda: external_results(graph, levels, page_bytes, pool_share)
    )
    assert arrays == scalar
    _, hits, misses, evictions = scalar[-1]
    assert misses > 0 and evictions > 0  # the pool really paged
    if pool_share:
        assert hits > 0  # and the LRU order decided which pages stayed


@pytest.mark.parametrize("name", ["xmark", "nasa"])
def test_external_array_rounds_match_scalar_io_on_datasets(name):
    graph = SEEDED[name]
    page_bytes = 64
    levels = random_levels(graph, 3)
    drivers = ("fixpoint", "leveled")
    scalar, arrays = both_paths(
        lambda: external_results(graph, levels, page_bytes, drivers=drivers)
    )
    assert arrays == scalar


@pytest.mark.parametrize(
    "point, mode, hit, rate",
    [
        ("storage.page_read_eio_transient", "transient", 1, 0.3),
        ("storage.page_read_eio_transient", "transient", 40, 0.0),
    ],
)
def test_storage_faults_behave_alike_on_both_paths(point, mode, hit, rate):
    # The storage chaos matrix runs an 11-node graph, below the array
    # threshold; here the same fault point hits array rounds, under a
    # one-page pool.
    graph = SMALL["cyclic"]

    def faulted_fixpoint():
        injector = FaultInjector(point, mode, trigger_on_hit=hit, seed=0, rate=rate)
        with ExternalEngine(
            graph, budget_bytes=0, page_bytes=64
        ) as engine, injector:
            try:
                partition, rounds = engine.run_fixpoint()
                outcome = (partition.block_of, rounds)
            except (InjectedFaultError, PagedStoreError) as error:
                outcome = (type(error).__name__, str(error))
            stats = engine.stats
            return (
                outcome,
                injector.hits,
                injector.fires,
                stats.retries,
                stats.give_ups,
            )

    scalar, arrays = both_paths(faulted_fixpoint)
    assert arrays == scalar
    assert scalar[2] > 0


@given(small_graphs(max_nodes=14, extra_edge_factor=2), st.integers(0, 2**16))
@settings(max_examples=6, deadline=None)
def test_external_array_rounds_match_scalar_on_random_graphs(graph, seed):
    levels = random_levels(graph, seed)
    for page_bytes in (8, 16):
        for pool_share in (0.0, 0.25):
            scalar, arrays = both_paths(
                lambda: external_results(graph, levels, page_bytes, pool_share)
            )
            assert arrays == scalar


# ----------------------------------------------------------------------
# The quotient
# ----------------------------------------------------------------------


def index_state(index):
    """Everything an IndexGraph holds, with set and dict iteration order."""
    return (
        index.label_ids,
        index.extents,
        index.node_of,
        [list(children) for children in index.children],
        [list(parents) for parents in index.parents],
        index.k,
        [(label, list(nodes)) for label, nodes in index._label_index.items()],
        index.num_edges,
    )


def quotient_states(graph, requirements, frozen):
    """The builders' indexes; on child lists, each rebuilt from its
    partition on a reloaded graph that has no frozen view (a copy
    would share the original's)."""
    dk, _ = build_dk_index(graph, requirements)
    indexes = [
        build_1index(graph),
        build_ak_index(graph, 2),
        dk,
        reindex_index_graph(dk, [0] * graph.num_labels),
    ]
    if not frozen:
        lists = graph_from_dict(graph_to_dict(graph))
        indexes = [
            IndexGraph.from_partition(lists, index.to_partition(), index.k)
            for index in indexes
        ]
        assert lists.frozen_view is None
    return [index_state(index) for index in indexes]


@pytest.mark.parametrize("frozen", [True, False], ids=["frozen-view", "child-lists"])
@pytest.mark.parametrize("name", sorted(SEEDED))
def test_array_quotient_rebuilds_the_scalar_index(name, frozen):
    graph = SEEDED[name]
    labels = graph.label_names()
    requirements = {labels[-1]: 2, labels[len(labels) // 2]: 1}
    scalar, arrays = both_paths(
        lambda: quotient_states(graph, requirements, frozen)
    )
    assert arrays == scalar


@given(small_graphs(max_nodes=14, extra_edge_factor=2), st.booleans())
@settings(max_examples=40, deadline=None)
def test_array_quotient_matches_scalar_on_random_graphs(graph, frozen):
    labels = graph.label_names()
    scalar, arrays = both_paths(
        lambda: quotient_states(graph, {labels[-1]: 1}, frozen)
    )
    assert arrays == scalar
