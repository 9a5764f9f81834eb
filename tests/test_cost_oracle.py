"""Cost identity: the index evaluator visits exactly what the oracle does.

The paper measures query evaluation by the index and data nodes it
visits (Section 6.1).  The evaluator in :mod:`repro.indexes.evaluation`
and the validator in :mod:`repro.indexes.validation` are tuned for
speed, so every query here is evaluated twice — by the library and by
the recursive reference in :mod:`cost_oracle` — and must return the same
answer with the same four :class:`CostCounter` fields.

The query mix covers each shape the rewrite touched: load paths (the
paper's workload), drift paths of 6–7 labels that validate, regexes with
an interior ``_`` or a final alternation, and regexes whose first step
is ``_`` (where the start filter must not apply); each also anchored.
It runs on XMark and NASA at a small scale, over D(k) mined from the
load, A(0..2) and the 1-index, before and after IDREF edge additions
that erode D(k)'s local similarities so validation runs.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import astuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cost_oracle
from conftest import small_graphs
from repro.bench.harness import sample_reference_edges
from repro.core.construction import build_dk_index
from repro.core.dindex import DKIndex
from repro.datasets.nasa import generate_nasa
from repro.datasets.xmark import generate_xmark
from repro.indexes.akindex import build_ak_index
from repro.indexes.base import IndexGraph
from repro.indexes.evaluation import evaluate_on_index
from repro.indexes.oneindex import build_1index
from repro.paths.cost import CostCounter
from repro.paths.query import Query, RegexQuery, make_query
from repro.workload.generator import WorkloadConfig, generate_test_paths
from test_nfa import path_exprs

SCALE = 0.05
EDGE_ADDITIONS = 50
GENERATORS = {"xmark": generate_xmark, "nasa": generate_nasa}


def query_texts(graph, seed: int) -> list[str]:
    """Load, drift and regex texts over ``graph``, each also anchored."""
    rng = random.Random(seed)
    load = generate_test_paths(graph, WorkloadConfig(count=100), rng=rng)
    drift = generate_test_paths(
        graph, WorkloadConfig(count=100, min_length=6, max_length=7), rng=rng
    )
    targets = sorted({query.labels[-1] for query in load})
    texts = [query.to_text() for query in load] + [q.to_text() for q in drift]
    for query in load:
        labels = list(query.labels)
        if len(labels) >= 3:
            interior = list(labels)
            interior[rng.randrange(1, len(labels) - 1)] = "_"
            texts.append("//" + ".".join(interior))
        other = rng.choice([label for label in targets if label != labels[-1]])
        head = "".join(label + "." for label in labels[:-1])
        texts.append(f"//{head}({labels[-1]}|{other})")
        texts.append("//" + ".".join(["_"] + labels[1:]))
    texts += ["/" + text[2:] for text in texts]
    return sorted(set(texts))


def mismatches(
    index: IndexGraph, queries: list[Query], validated: Counter[str]
) -> list[str]:
    """Queries whose answer or cost differs from the oracle's; counts the
    queries that validated, by kind, into ``validated``."""
    found = []
    for query in queries:
        want_cost, got_cost = CostCounter(), CostCounter()
        want = cost_oracle.evaluate(index, query, want_cost)
        got = evaluate_on_index(index, query, got_cost)
        if got != want or astuple(got_cost) != astuple(want_cost):
            found.append(f"{query}: {astuple(got_cost)} != {astuple(want_cost)}")
        kind = "regex" if isinstance(query, RegexQuery) else "label"
        validated[kind] += want_cost.validated_queries
    return found


def indexes_over(graph, dk: DKIndex) -> dict[str, IndexGraph]:
    built = {"D(k)": dk.index, "1-index": build_1index(graph)}
    for k in range(3):
        built[f"A({k})"] = build_ak_index(graph, k)
    return built


@pytest.mark.parametrize("dataset", sorted(GENERATORS))
def test_costs_match_oracle_before_and_after_edges(dataset):
    document = GENERATORS[dataset](scale=SCALE, seed=0)
    graph = document.graph.copy()
    texts = query_texts(graph, seed=1)
    queries = [make_query(text) for text in texts]
    load = generate_test_paths(graph, WorkloadConfig(count=100), seed=1)
    dk = DKIndex.from_query_load(graph, load)
    edges = sample_reference_edges(
        graph, document.reference_pairs, EDGE_ADDITIONS, random.Random(2)
    )

    validated: Counter[str] = Counter()
    for stage in ("fresh", "after edges"):
        if stage == "after edges":
            for src, dst in edges:
                dk.add_edge(src, dst)
        for name, index in indexes_over(graph, dk).items():
            found = mismatches(index, queries, validated)
            assert found == [], f"{dataset} {stage} {name}"
    # The mix must exercise both validators, or identity proves little.
    assert validated["label"] > 0 and validated["regex"] > 0


@given(
    small_graphs(max_nodes=8),
    path_exprs(),
    st.integers(0, 10_000),
    st.booleans(),
)
@settings(max_examples=100, deadline=None)
def test_regex_costs_match_oracle_on_random_graphs(graph, expr, seed, anchored):
    rng = random.Random(seed)
    requirements = {
        graph.label_name(i): rng.randint(0, 2) for i in range(graph.num_labels)
    }
    index, _levels = build_dk_index(graph, requirements)
    query = RegexQuery(anchored=anchored, expr=expr)
    assert mismatches(index, [query], Counter()) == []
