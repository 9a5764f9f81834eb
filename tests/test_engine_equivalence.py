"""Equivalence of the columnar and external engines with the reference
engine.

The columnar and external engines must be *partition-identical* to the
reference full-rehash engine (``engine="legacy"``,
:class:`~repro.partition.engine.RefinementEngine`) — not just at the
fixpoint but round for round, with and without freeze levels, because
the D(k) construction freezes nodes against the intermediate rounds.
These tests drive every engine over the graph families where the
dirty-block bookkeeping can go wrong: trees, DAGs with shared subtrees
(many-parent nodes exercise the sorted-dedup signatures) and cyclic
IDREF-style graphs (dirt must propagate around cycles).  The columnar
engine's deeper suite lives in ``test_columnar_engine.py``.
"""

import random

import pytest
from hypothesis import given, settings

from conftest import small_graphs
from repro.core.broadcast import broadcast_for_graph
from repro.graph.datagraph import DataGraph
from repro.partition.columnar import ColumnarEngine
from repro.partition.engine import RefinementEngine, refine_once, resolve_jobs
from repro.partition.external import ExternalEngine
from repro.partition.refinement import (
    bisim_partition,
    kbisim_partition,
    label_partition,
    leveled_partition,
    resolve_engine,
)

# ----------------------------------------------------------------------
# Seeded graph families
# ----------------------------------------------------------------------


def dag_with_shared_subtrees(seed, size=220, labels="abcdef"):
    """A DAG where many nodes have several parents (shared subtrees)."""
    rng = random.Random(seed)
    g = DataGraph()
    created = []
    for position in range(size):
        node = g.add_node(rng.choice(labels))
        if not created or rng.random() < 0.08:
            parent = g.root
        else:
            parent = created[rng.randrange(len(created))]
        g.add_edge_if_absent(parent, node)
        created.append(node)
    # Extra forward edges only (earlier -> later node ids keeps it acyclic),
    # so subtrees end up shared between multiple parents.
    for _ in range(size):
        a = rng.randrange(len(created))
        b = rng.randrange(len(created))
        if a == b:
            continue
        g.add_edge_if_absent(created[min(a, b)], created[max(a, b)])
    return g


def cyclic_idref_graph(seed, size=220, labels="abcde"):
    """A document tree plus random IDREF-style edges (cycles allowed)."""
    rng = random.Random(seed)
    g = DataGraph()
    created = []
    for position in range(size):
        node = g.add_node(rng.choice(labels))
        if not created or rng.random() < 0.1:
            parent = g.root
        else:
            parent = created[rng.randrange(len(created))]
        g.add_edge_if_absent(parent, node)
        created.append(node)
    for _ in range(size):
        src = created[rng.randrange(len(created))]
        dst = created[rng.randrange(len(created))]
        if src != dst:
            g.add_edge_if_absent(src, dst)  # any direction: cycles happen
    return g


def broadcast_levels(graph):
    """Label-derived levels adjusted by Algorithm 1 (valid D(k) input)."""
    initial = {
        label_id: label_id % 3 for label_id in range(graph.num_labels)
    }
    by_label = broadcast_for_graph(graph, graph.num_labels, initial)
    return [by_label[graph.label_ids[node]] for node in graph.nodes()]


def assert_engines_agree(graph):
    """All drivers produce equal partitions under every engine."""
    for k in (0, 1, 2, 4):
        legacy_k = kbisim_partition(graph, k, engine="legacy")
        assert kbisim_partition(graph, k, engine="columnar") == legacy_k
        assert kbisim_partition(graph, k, engine="external") == legacy_k
    columnar, columnar_rounds = bisim_partition(graph, engine="columnar")
    external, external_rounds = bisim_partition(graph, engine="external")
    legacy, legacy_rounds = bisim_partition(graph, engine="legacy")
    assert legacy == columnar == external
    assert legacy_rounds == columnar_rounds == external_rounds
    levels = broadcast_levels(graph)
    legacy_leveled = leveled_partition(graph, levels, engine="legacy")
    for engine in ("columnar", "external"):
        leveled = leveled_partition(graph, levels, engine=engine)
        assert leveled == legacy_leveled


def assert_rounds_match_reference(graph, node_levels=None, max_rounds=None):
    """The columnar and external engines yield the reference engine's
    partition after every changing round, and no extra rounds."""
    reference = list(
        RefinementEngine(graph).refine_rounds(node_levels, max_rounds)
    )
    columnar = list(
        ColumnarEngine(graph).refine_rounds(node_levels, max_rounds)
    )
    with ExternalEngine(graph) as engine:
        external = list(engine.refine_rounds(node_levels, max_rounds))
    assert columnar == reference
    assert external == reference


# ----------------------------------------------------------------------
# Hypothesis: random small graphs, round for round
# ----------------------------------------------------------------------


@given(small_graphs())
@settings(max_examples=40, deadline=None)
def test_engine_rounds_match_legacy_round_for_round(graph):
    # The reference engine's rounds are the hand-rolled refine_once loop;
    # the changing rounds of the columnar and external engines equal
    # them, in order — the per-round identity the D(k) freezing
    # semantics rely on.
    legacy_rounds = []
    partition = label_partition(graph)
    while True:
        refined = refine_once(graph, partition)
        if refined.num_blocks == partition.num_blocks:
            break
        legacy_rounds.append(refined)
        partition = refined
    assert list(RefinementEngine(graph).refine_rounds()) == legacy_rounds
    assert_rounds_match_reference(graph)


# ----------------------------------------------------------------------
# Seeded families: shared-subtree DAGs and cyclic IDREF graphs
# ----------------------------------------------------------------------


@pytest.mark.parametrize("seed", range(5))
def test_engines_agree_on_shared_subtree_dags(seed):
    assert_engines_agree(dag_with_shared_subtrees(seed))


@pytest.mark.parametrize("seed", range(5))
def test_engines_agree_on_cyclic_idref_graphs(seed):
    assert_engines_agree(cyclic_idref_graph(seed))


# ----------------------------------------------------------------------
# Engine selection plumbing
# ----------------------------------------------------------------------


def test_unknown_engine_rejected():
    g = cyclic_idref_graph(0, size=10)
    with pytest.raises(ValueError):
        kbisim_partition(g, 1, engine="quantum")


def test_auto_engine_is_columnar(monkeypatch):
    monkeypatch.delenv("DKINDEX_ENGINE", raising=False)
    assert resolve_engine("auto") == "columnar"
    monkeypatch.setenv("DKINDEX_ENGINE", "auto")
    assert resolve_engine("auto") == "columnar"


def test_worklist_engine_name_rejected(monkeypatch):
    # "worklist" names no engine: it is an error by argument and by
    # environment, and the message lists the engines there are.
    g = cyclic_idref_graph(0, size=10)
    monkeypatch.delenv("DKINDEX_ENGINE", raising=False)
    with pytest.raises(ValueError) as by_argument:
        bisim_partition(g, engine="worklist")
    monkeypatch.setenv("DKINDEX_ENGINE", "worklist")
    with pytest.raises(ValueError) as by_environment:
        bisim_partition(g)
    for raised in (by_argument, by_environment):
        message = str(raised.value)
        assert "'worklist'" in message
        for name in ("columnar", "external", "legacy"):
            assert name in message


def test_resolve_engine_env_override(monkeypatch):
    monkeypatch.setenv("DKINDEX_ENGINE", "legacy")
    assert resolve_engine("auto") == "legacy"
    assert resolve_engine("columnar") == "columnar"  # explicit beats env
    monkeypatch.setenv("DKINDEX_ENGINE", "columnar")
    assert resolve_engine("auto") == "columnar"
    monkeypatch.setenv("DKINDEX_ENGINE", "external")
    assert resolve_engine("auto") == "external"
    monkeypatch.setenv("DKINDEX_ENGINE", "bogus")
    with pytest.raises(ValueError):
        resolve_engine("auto")


def test_resolve_jobs_env(monkeypatch):
    # Refinement is serial: the benchmark's environment stamp must say
    # so whatever the environment holds.
    monkeypatch.delenv("DKINDEX_JOBS", raising=False)
    assert resolve_jobs(None) == 1
    monkeypatch.setenv("DKINDEX_JOBS", "4")
    assert resolve_jobs(None) == 1


def test_engine_validates_inputs():
    g = cyclic_idref_graph(0, size=10)
    for engine in ("columnar", "external", "legacy"):
        with pytest.raises(ValueError):
            kbisim_partition(g, -1, engine=engine)
        with pytest.raises(ValueError):
            leveled_partition(g, [0], engine=engine)
        with pytest.raises(ValueError):
            leveled_partition(g, [-1] * g.num_nodes, engine=engine)


def test_leveled_all_zero_levels_is_label_partition():
    g = cyclic_idref_graph(1, size=40)
    levels = [0] * g.num_nodes
    for engine in ("columnar", "external", "legacy"):
        assert leveled_partition(g, levels, engine=engine) == (
            label_partition(g)
        )
