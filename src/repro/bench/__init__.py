"""Experiment harness regenerating every table and figure of the paper.

Experiments (ids match DESIGN.md's per-experiment index):

========  ============================================================
FIG4      evaluation cost vs index size, XMark, before updates
FIG5      evaluation cost vs index size, NASA, before updates
TAB1      update running time, 100 random IDREF edges, both datasets
FIG6      evaluation cost vs index size, XMark, after updates
FIG7      evaluation cost vs index size, NASA, after updates
PROMOTE   deferred "full version" experiment: promoting after updates
DEMOTE    ablation: demoting to lower requirements
SUBGRAPH  Algorithm 3 vs full rebuild
CONSTRUCT construction-time scaling in k and in graph size
========  ============================================================

Run from the CLI (``python -m repro bench fig4``) or through
pytest-benchmark (``pytest benchmarks/``).
"""

from repro.bench.harness import (
    DatasetBundle,
    ExperimentConfig,
    load_dataset,
    sample_reference_edges,
    workload_average_cost,
)
from repro.bench.experiments import (
    run_construct,
    run_demote,
    run_eval_after_updates,
    run_eval_before_updates,
    run_promote,
    run_subgraph,
    run_update_table,
)

__all__ = [
    "DatasetBundle",
    "ExperimentConfig",
    "load_dataset",
    "run_construct",
    "run_demote",
    "run_eval_after_updates",
    "run_eval_before_updates",
    "run_promote",
    "run_subgraph",
    "run_update_table",
    "sample_reference_edges",
    "workload_average_cost",
]
