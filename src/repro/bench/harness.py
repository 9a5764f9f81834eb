"""Shared experiment plumbing: datasets, workloads, edge sampling, cost.

Every experiment needs the same scaffolding — generate a dataset, derive
the paper's 100-test-path workload, mine D(k) requirements, sample
random ID/IDREF edges for the update experiments — so it lives here once
and is cached per configuration (the benchmark files call into the same
bundles repeatedly).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, replace
from typing import Callable

from repro.core.dindex import DKIndex
from repro.datasets.dblp import generate_dblp
from repro.datasets.dtd import GeneratedDocument
from repro.datasets.nasa import generate_nasa
from repro.datasets.xmark import generate_xmark
from repro.exceptions import DatasetError
from repro.graph.datagraph import DataGraph
from repro.indexes.base import IndexGraph
from repro.indexes.evaluation import evaluate_on_index
from repro.paths.cost import CostCounter, CostSummary
from repro.workload.generator import WorkloadConfig, generate_test_paths
from repro.workload.mining import exact_requirements
from repro.workload.queryload import QueryLoad


@dataclass(frozen=True)
class ExperimentConfig:
    """Knobs shared by all experiments.

    Attributes:
        scale: dataset scale factor (1.0 ≈ the paper-sized stand-ins;
            benchmarks default lower to keep CI runs quick).
        dataset_seed / workload_seed / update_seed: RNG seeds.
        num_queries: workload size (paper: 100).
        num_update_edges: random new edges for TAB1/FIG6/FIG7 (paper: 100).
        ks: the A(k) family to sweep (paper: 0..4).
    """

    scale: float = 1.0
    dataset_seed: int = 0
    workload_seed: int = 1
    update_seed: int = 42
    num_queries: int = 100
    num_update_edges: int = 100
    ks: tuple[int, ...] = (0, 1, 2, 3, 4)

    def scaled(self, scale: float) -> "ExperimentConfig":
        """A copy at a different dataset scale."""
        return replace(self, scale=scale)


#: Registry of dataset builders by name.  XMark and NASA are the paper's
#: corpora; DBLP is the extension third corpus (shallow and very wide).
DATASET_BUILDERS: dict[str, Callable[[float, int], GeneratedDocument]] = {
    "xmark": lambda scale, seed: generate_xmark(scale=scale, seed=seed),
    "nasa": lambda scale, seed: generate_nasa(scale=scale, seed=seed),
    "dblp": lambda scale, seed: generate_dblp(scale=scale, seed=seed),
}

#: Named scales: dataset scale factors sized so "small" suits CI smoke
#: runs and "large" stresses the engines on ~10^5-edge graphs.
SCALE_NAMES: dict[str, float] = {"small": 0.2, "medium": 0.6, "large": 1.5}


def dataset_builder(name: str) -> Callable[[float, int], GeneratedDocument]:
    """The generator registered under ``name``.

    Raises:
        DatasetError: for unknown dataset names.
    """
    builder = DATASET_BUILDERS.get(name)
    if builder is None:
        raise DatasetError(
            f"unknown dataset {name!r}; available: {sorted(DATASET_BUILDERS)}"
        )
    return builder


def parse_scale(text: str) -> tuple[str, float]:
    """One scale token — a named scale or a float — as ``(name, factor)``.

    Raises:
        DatasetError: for a token that is neither named nor numeric.
    """
    name = text.strip()
    factor = SCALE_NAMES.get(name)
    if factor is None:
        try:
            factor = float(name)
        except ValueError:
            raise DatasetError(
                f"unknown bench scale {name!r}; use one of "
                f"{sorted(SCALE_NAMES)} or a number"
            ) from None
    return name, factor


@dataclass
class DatasetBundle:
    """A dataset plus everything the experiments derive from it.

    Attributes:
        name: dataset name ("xmark"/"nasa").
        document: the generated document (graph + reference metadata).
        load: the 100-test-path query load.
        requirements: mined per-label D(k) requirements.
        update_edges: the sampled ``(src, dst)`` data-node pairs used by
            the update experiments (same list for every index, so the
            comparison is paired).
    """

    name: str
    config: ExperimentConfig
    document: GeneratedDocument
    load: QueryLoad
    requirements: dict[str, int]
    update_edges: list[tuple[int, int]] = field(default_factory=list)

    @property
    def graph(self) -> DataGraph:
        """The pristine data graph (copy before mutating!)."""
        return self.document.graph

    def fresh_graph(self) -> DataGraph:
        """An independent copy of the data graph for mutation."""
        return self.document.graph.copy()

    def fresh_dk(self, graph: DataGraph | None = None) -> DKIndex:
        """A freshly built D(k)-index over ``graph`` (default: a copy)."""
        target = graph if graph is not None else self.fresh_graph()
        return DKIndex.build(target, self.requirements)


_BUNDLE_CACHE: dict[tuple[str, ExperimentConfig], DatasetBundle] = {}


def load_dataset(name: str, config: ExperimentConfig | None = None) -> DatasetBundle:
    """Build (or fetch from cache) the full bundle for a dataset.

    Raises:
        DatasetError: for unknown dataset names.
    """
    config = config or ExperimentConfig()
    key = (name, config)
    cached = _BUNDLE_CACHE.get(key)
    if cached is not None:
        return cached

    document = dataset_builder(name)(config.scale, config.dataset_seed)
    load = generate_test_paths(
        document.graph,
        WorkloadConfig(count=config.num_queries),
        seed=config.workload_seed,
    )
    requirements = exact_requirements(load)
    update_edges = sample_reference_edges(
        document.graph,
        document.reference_pairs,
        config.num_update_edges,
        random.Random(config.update_seed),
    )
    bundle = DatasetBundle(
        name=name,
        config=config,
        document=document,
        load=load,
        requirements=requirements,
        update_edges=update_edges,
    )
    _BUNDLE_CACHE[key] = bundle
    return bundle


def sample_reference_edges(
    graph: DataGraph,
    reference_pairs: list[tuple[str, str]],
    count: int,
    rng: random.Random,
) -> list[tuple[int, int]]:
    """Sample ``count`` fresh edges between ID/IDREF label groups.

    Implements the paper's update protocol: "we randomly choose a pair
    of ID/IDREF labels in the DTD file and one data node from each label
    group; then, a new edge is added between these two data nodes."
    Edges already present (or already sampled) are re-drawn.

    Raises:
        DatasetError: if the dataset declares no reference pairs.
    """
    if not reference_pairs:
        raise DatasetError("dataset has no ID/IDREF label pairs to sample from")
    pools: dict[str, list[int]] = {}

    def pool(label: str) -> list[int]:
        nodes = pools.get(label)
        if nodes is None:
            nodes = graph.nodes_with_label(label)
            pools[label] = nodes
        return nodes

    edges: list[tuple[int, int]] = []
    chosen: set[tuple[int, int]] = set()
    attempts = 0
    max_attempts = count * 100
    while len(edges) < count and attempts < max_attempts:
        attempts += 1
        src_label, dst_label = rng.choice(reference_pairs)
        src_pool, dst_pool = pool(src_label), pool(dst_label)
        if not src_pool or not dst_pool:
            continue
        src, dst = rng.choice(src_pool), rng.choice(dst_pool)
        if src == dst or (src, dst) in chosen or graph.has_edge(src, dst):
            continue
        chosen.add((src, dst))
        edges.append((src, dst))
    return edges


def workload_average_cost(
    index: IndexGraph, load: QueryLoad
) -> tuple[float, float]:
    """Evaluate every query of the load on the index.

    Returns:
        ``(average cost, validation fraction)`` — the paper's Y-axis
        metric ("the average number of nodes visited over all test
        paths", weighted by query frequency) and the share of queries
        that needed validation.
    """
    summary = CostSummary()
    for query, weight in load.items():
        counter = CostCounter()
        evaluate_on_index(index, query, counter)
        for _ in range(weight):
            summary.add(counter)
    return summary.average_cost, summary.validation_fraction
