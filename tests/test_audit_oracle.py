"""The deep audit against its breadth-first oracle (``audit_oracle.py``).

:func:`repro.indexes.diagnostics.audit_similarities` derives each data
node's incoming label-path set once per depth and compares interned set
ids.  These tests hold it to the search it replaced: the same
``nodes_checked``, the same ``nodes_skipped`` and the same findings
(index node, claimed k and witness), under every bound — ``max_k``,
``max_paths`` (the over-budget skips), ``max_findings`` and a ``nodes``
subset — on D(k), A(k) and 1-indexes whose ``k`` may be overstated.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import audit_oracle
from conftest import label_requirements, small_graphs
from repro.core.construction import build_dk_index
from repro.datasets.nasa import generate_nasa
from repro.datasets.xmark import generate_xmark
from repro.indexes.akindex import build_ak_index
from repro.indexes.diagnostics import audit_similarities
from repro.indexes.oneindex import build_1index


def outcome(report):
    return report.nodes_checked, report.nodes_skipped, report.findings


def build_index(graph, kind, draw):
    if kind == "dk":
        index, _levels = build_dk_index(graph, draw(label_requirements()))
        return index
    if kind == "ak":
        return build_ak_index(graph, draw(st.integers(min_value=0, max_value=3)))
    return build_1index(graph)


@st.composite
def audit_cases(draw):
    """An index over a random graph, some nodes' ``k`` overstated, and
    the audit's bounds."""
    graph = draw(
        small_graphs(
            max_nodes=12, allow_cycles=draw(st.booleans()), extra_edge_factor=2
        )
    )
    index = build_index(graph, draw(st.sampled_from(["dk", "ak", "one"])), draw)
    node_ids = st.integers(min_value=0, max_value=index.num_nodes - 1)
    for node in draw(st.lists(node_ids, max_size=4)):
        index.k[node] += draw(st.integers(min_value=1, max_value=4))
    bounds = {
        "max_k": draw(st.integers(min_value=0, max_value=6)),
        "max_paths": draw(st.integers(min_value=1, max_value=80)),
        "max_findings": draw(st.integers(min_value=1, max_value=20)),
        "nodes": draw(st.none() | st.lists(node_ids, max_size=index.num_nodes)),
    }
    return index, bounds


@given(audit_cases())
@settings(max_examples=300, deadline=None)
def test_audit_matches_the_breadth_first_oracle(case):
    index, bounds = case
    assert outcome(audit_similarities(index, **bounds)) == outcome(
        audit_oracle.audit_similarities(index, **bounds)
    )


@pytest.mark.parametrize("generate", [generate_xmark, generate_nasa])
def test_audit_matches_the_oracle_on_generated_documents(generate):
    graph = generate(scale=0.05, seed=3).graph
    rng = random.Random(11)
    labels = list(graph.label_names())
    requirements = {label: rng.randint(0, 3) for label in rng.sample(labels, 8)}
    dk_index, _levels = build_dk_index(graph, requirements)
    for index in (dk_index, build_ak_index(graph, 2), build_1index(graph)):
        for node in rng.sample(range(index.num_nodes), 12):
            index.k[node] += rng.randint(1, 3)
        for bounds in ({}, {"max_k": 4, "max_paths": 6, "max_findings": 50}):
            expected = outcome(audit_oracle.audit_similarities(index, **bounds))
            assert outcome(audit_similarities(index, **bounds)) == expected
