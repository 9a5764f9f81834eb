"""The columnar batch engine: equivalence, sweep identity, fallbacks.

The columnar engine must be partition-identical to the reference
full-rehash engine and to the external engine built on it — at the
fixpoint *and* round for round (the D(k) freeze-bucket semantics depend
on the intermediate rounds).  These tests drive it over hypothesis-generated small graphs
and the seeded DAG / cyclic-IDREF families, force the numpy sweep onto
tiny rounds to require bit-for-bit agreement with the scalar path, and
pin down the input validation and input-flexibility contract.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import small_graphs
import repro.partition.columnar as columnar_module
from repro.graph.columnar import csr_from_parent_adjacency
from repro.partition.columnar import ColumnarEngine
from repro.partition.refinement import (
    bisim_partition,
    kbisim_partition,
    label_partition,
    leveled_partition,
)
from test_engine_equivalence import (
    assert_engines_agree,
    assert_rounds_match_reference,
    broadcast_levels,
    cyclic_idref_graph,
    dag_with_shared_subtrees,
)

# ----------------------------------------------------------------------
# Hypothesis: random small graphs, every driver
# ----------------------------------------------------------------------


@given(small_graphs(), st.integers(0, 3))
@settings(max_examples=60, deadline=None)
def test_columnar_kbisim_matches_both_engines(graph, k):
    columnar = kbisim_partition(graph, k, engine="columnar")
    assert columnar == kbisim_partition(graph, k, engine="legacy")
    assert columnar == kbisim_partition(graph, k, engine="external")


@given(small_graphs())
@settings(max_examples=60, deadline=None)
def test_columnar_fixpoint_matches_both_engines(graph):
    columnar, columnar_rounds = bisim_partition(graph, engine="columnar")
    legacy, legacy_rounds = bisim_partition(graph, engine="legacy")
    external, external_rounds = bisim_partition(graph, engine="external")
    assert columnar == legacy == external
    assert columnar_rounds == legacy_rounds == external_rounds


@given(small_graphs())
@settings(max_examples=60, deadline=None)
def test_columnar_leveled_matches_both_engines(graph):
    levels = broadcast_levels(graph)
    columnar = leveled_partition(graph, levels, engine="columnar")
    assert columnar == leveled_partition(graph, levels, engine="legacy")
    assert columnar == leveled_partition(graph, levels, engine="external")


@given(small_graphs(), st.integers(0, 3))
@settings(max_examples=40, deadline=None)
def test_columnar_rounds_match_reference_round_for_round(graph, k):
    # k-bounded runs stop after round k even when rounds still change.
    assert_rounds_match_reference(graph, max_rounds=k)


@given(small_graphs(), st.data())
@settings(max_examples=40, deadline=None)
def test_columnar_leveled_rounds_match_reference(graph, data):
    assert_rounds_match_reference(graph, node_levels=broadcast_levels(graph))
    # Per-node levels, as reindexing uses: a block then mixes frozen and
    # participating members, which the freeze buckets must separate.
    levels = data.draw(
        st.lists(
            st.integers(0, 3),
            min_size=graph.num_nodes,
            max_size=graph.num_nodes,
        )
    )
    assert_rounds_match_reference(graph, node_levels=levels)


# ----------------------------------------------------------------------
# Seeded families: k-sweeps, fixpoints, per-node leveled runs
# ----------------------------------------------------------------------


@pytest.mark.parametrize("seed", range(4))
def test_columnar_agrees_on_shared_subtree_dags(seed):
    assert_engines_agree(dag_with_shared_subtrees(seed))


@pytest.mark.parametrize("seed", range(4))
def test_columnar_agrees_on_cyclic_idref_graphs(seed):
    assert_engines_agree(cyclic_idref_graph(seed))


@pytest.mark.parametrize("seed", [0, 2])
def test_columnar_k_sweep_is_monotone_and_exact(seed):
    graph = cyclic_idref_graph(seed, size=150)
    previous_blocks = 0
    for k in range(0, 8):
        partition = kbisim_partition(graph, k, engine="columnar")
        assert partition == kbisim_partition(graph, k, engine="legacy")
        assert partition.num_blocks >= previous_blocks
        previous_blocks = partition.num_blocks


# ----------------------------------------------------------------------
# numpy sweep (skipped transparently when the extra is not installed)
# ----------------------------------------------------------------------


@pytest.mark.parametrize("seed", [0, 4])
def test_numpy_sweep_is_scalar_identical(seed, monkeypatch):
    if columnar_module._numpy is None:
        pytest.skip("numpy extra not installed")
    graph = cyclic_idref_graph(seed, size=150)
    reference = ColumnarEngine(graph).run_fixpoint()
    monkeypatch.setattr(columnar_module, "NUMPY_NODE_THRESHOLD", 0)
    forced = ColumnarEngine(graph).run_fixpoint()
    assert forced == reference


def test_scalar_sweep_stands_alone_without_numpy(monkeypatch):
    # The stdlib-array path must produce the same partitions with the
    # optional extra hidden entirely.
    graph = dag_with_shared_subtrees(2, size=120)
    reference, rounds = bisim_partition(graph, engine="legacy")
    monkeypatch.setattr(columnar_module, "_numpy", None)
    partition, columnar_rounds = ColumnarEngine(graph).run_fixpoint()
    assert partition == reference
    assert columnar_rounds == rounds


# ----------------------------------------------------------------------
# Inputs, validation, reuse
# ----------------------------------------------------------------------


def test_engine_accepts_a_raw_csr_snapshot():
    graph = cyclic_idref_graph(2, size=80)
    view = graph.freeze()
    from_csr, rounds_csr = ColumnarEngine(view).run_fixpoint()
    from_graph, rounds_graph = ColumnarEngine(graph).run_fixpoint()
    assert from_csr == from_graph
    assert rounds_csr == rounds_graph


def test_engine_accepts_freezeless_adjacency_objects():
    graph = cyclic_idref_graph(2, size=60)

    class Plain:
        """LabeledAdjacency without freeze(): exercises the fallback."""

        label_ids = list(graph.label_ids)
        parents = [list(p) for p in graph.parents]
        children = [list(c) for c in graph.children]
        num_nodes = graph.num_nodes

    partition, rounds = ColumnarEngine(Plain()).run_fixpoint()
    reference, reference_rounds = bisim_partition(graph, engine="legacy")
    assert partition == reference
    assert rounds == reference_rounds


def test_engine_reuses_cached_frozen_view():
    graph = cyclic_idref_graph(0, size=40)
    view = graph.freeze()
    assert ColumnarEngine(graph).csr is view  # no rebuild per engine


def test_driver_validation():
    graph = cyclic_idref_graph(0, size=20)
    engine = ColumnarEngine(graph)
    with pytest.raises(ValueError):
        engine.run_kbisim(-1)
    with pytest.raises(ValueError):
        engine.run_leveled([0])
    with pytest.raises(ValueError):
        engine.run_leveled([-1] * graph.num_nodes)


def test_initial_partition_is_label_partition():
    graph = cyclic_idref_graph(1, size=50)
    assert ColumnarEngine(graph).initial_partition() == label_partition(graph)
    assert ColumnarEngine(graph).run_kbisim(0) == label_partition(graph)


def test_engine_instance_is_reusable_across_runs():
    graph = dag_with_shared_subtrees(1, size=80)
    engine = ColumnarEngine(graph)
    first = engine.run_fixpoint()
    second = engine.run_fixpoint()
    assert first == second
    levels = broadcast_levels(graph)
    assert engine.run_leveled(levels) == leveled_partition(
        graph, levels, engine="legacy"
    )


def test_engine_routes_through_dkindex_env(monkeypatch):
    # DKINDEX_ENGINE=columnar re-routes whole construction pipelines.
    from repro.core.construction import build_dk_index

    graph = cyclic_idref_graph(3, size=80)
    requirements = {"a": 2, "b": 1}
    baseline, baseline_levels = build_dk_index(graph, requirements)
    monkeypatch.setenv("DKINDEX_ENGINE", "columnar")
    routed, routed_levels = build_dk_index(graph, requirements)
    assert routed_levels == baseline_levels
    assert routed.to_partition() == baseline.to_partition()
