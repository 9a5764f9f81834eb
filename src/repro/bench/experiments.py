"""The experiments themselves — one function per paper artefact.

Each function takes a dataset name and an :class:`ExperimentConfig`,
returns an :class:`~repro.bench.reporting.ExperimentResult` (structured
points + rendered extras) and never mutates the cached bundle: graphs
are copied before any update runs, so experiments compose in any order.
"""

from __future__ import annotations

import time

from repro.bench.harness import (
    DatasetBundle,
    ExperimentConfig,
    dataset_builder,
    load_dataset,
    workload_average_cost,
)
from repro.bench.reporting import ExperimentResult, SeriesPoint, render_table
from repro.core.construction import build_dk_index
from repro.core.dindex import DKIndex
from repro.core.updates import ak_propagate_add_edge
from repro.indexes.akindex import build_ak_index
from repro.indexes.base import IndexGraph
from repro.workload.mining import coverage_requirements


def _ak_points(bundle: DatasetBundle, config: ExperimentConfig) -> list[SeriesPoint]:
    points = []
    for k in config.ks:
        index = build_ak_index(bundle.graph, k)
        cost, validated = workload_average_cost(index, bundle.load)
        points.append(
            SeriesPoint(f"A({k})", index.num_nodes, cost, validated)
        )
    return points


def run_eval_before_updates(
    dataset: str, config: ExperimentConfig | None = None
) -> ExperimentResult:
    """FIG4 (xmark) / FIG5 (nasa): evaluation cost vs index size.

    Sweeps A(0)..A(4) and places the D(k) point built from the mined
    query-load requirements.  Expected shape: the D(k) point lies below
    the A(k) trade-off curve.
    """
    config = config or ExperimentConfig()
    bundle = load_dataset(dataset, config)
    experiment_id = {"xmark": "FIG4", "nasa": "FIG5"}.get(dataset, "DATASET3")
    result = ExperimentResult(
        experiment_id=experiment_id,
        title=f"evaluation cost vs index size, {dataset}, before updating",
    )
    result.points.extend(_ak_points(bundle, config))
    dk = bundle.fresh_dk(bundle.graph)  # no mutation happens; reuse graph
    cost, validated = workload_average_cost(dk.index, bundle.load)
    result.points.append(
        SeriesPoint("D(k)", dk.size, cost, validated, note="query-load tuned")
    )
    return result


def run_update_table(
    dataset: str, config: ExperimentConfig | None = None
) -> ExperimentResult:
    """TAB1: total running time of 100 random IDREF edge additions.

    A(1)..A(4) use the propagate update (re-partitioning against the
    source data); D(k) uses Algorithms 4+5 (index-only).  Expected
    shape: A(k) cost "shoots up dramatically" with k; D(k) is orders of
    magnitude cheaper.  A(0) is excluded like in the paper ("the index
    graph remains unchanged").
    """
    config = config or ExperimentConfig()
    bundle = load_dataset(dataset, config)
    result = ExperimentResult(
        experiment_id="TAB1",
        title=f"update efficiency, {dataset}: 100 random edge additions",
    )
    rows: list[list[object]] = []
    for k in config.ks:
        if k == 0:
            continue
        graph = bundle.fresh_graph()
        index = build_ak_index(graph, k)
        data_touched = 0
        started = time.perf_counter()
        for src, dst in bundle.update_edges:
            report = ak_propagate_add_edge(graph, index, src, dst, k)
            data_touched += report.data_nodes_touched
        elapsed_ms = (time.perf_counter() - started) * 1000.0
        rows.append([f"A({k})", f"{elapsed_ms:.1f}", data_touched, index.num_nodes])
        result.points.append(
            SeriesPoint(f"A({k})", index.num_nodes, elapsed_ms, note="ms total")
        )
    dk = bundle.fresh_dk()
    index_touched = 0
    started = time.perf_counter()
    for src, dst in bundle.update_edges:
        edge_report = dk.add_edge(src, dst)
        index_touched += edge_report.index_nodes_touched
    elapsed_ms = (time.perf_counter() - started) * 1000.0
    rows.append(["D(k)", f"{elapsed_ms:.1f}", 0, dk.size])
    result.points.append(
        SeriesPoint(
            "D(k)", dk.size, elapsed_ms,
            note=f"ms total; {index_touched} index nodes touched, 0 data",
        )
    )
    result.extra_lines.append(
        render_table(
            ["index", "running time (ms)", "data nodes touched", "size after"],
            rows,
            title=f"Table 1 ({dataset}): accumulated update time, "
            f"{len(bundle.update_edges)} edges",
        )
    )
    return result


def _updated_indexes(
    bundle: DatasetBundle, config: ExperimentConfig
) -> tuple[list[tuple[int, IndexGraph]], DKIndex]:
    """A(k) and D(k) after applying the shared update-edge list."""
    ak_after: list[tuple[int, IndexGraph]] = []
    for k in config.ks:
        graph = bundle.fresh_graph()
        index = build_ak_index(graph, k)
        for src, dst in bundle.update_edges:
            ak_propagate_add_edge(graph, index, src, dst, k)
        ak_after.append((k, index))
    dk = bundle.fresh_dk()
    for src, dst in bundle.update_edges:
        dk.add_edge(src, dst)
    return ak_after, dk


def run_eval_after_updates(
    dataset: str, config: ExperimentConfig | None = None
) -> ExperimentResult:
    """FIG6 (xmark) / FIG7 (nasa): evaluation cost vs size after updates.

    Expected shape: D(k)'s cost rises (it now validates) but its size is
    unchanged, while A(k) sizes grow dramatically; factoring both, D(k)
    stays better than or comparable to the best A(k).
    """
    config = config or ExperimentConfig()
    bundle = load_dataset(dataset, config)
    result = ExperimentResult(
        experiment_id="FIG6" if dataset == "xmark" else "FIG7",
        title=f"evaluation cost vs index size, {dataset}, after updating",
    )
    ak_after, dk = _updated_indexes(bundle, config)
    for k, index in ak_after:
        cost, validated = workload_average_cost(index, bundle.load)
        result.points.append(
            SeriesPoint(f"A({k})", index.num_nodes, cost, validated)
        )
    cost, validated = workload_average_cost(dk.index, bundle.load)
    result.points.append(
        SeriesPoint("D(k)", dk.size, cost, validated, note="size unchanged")
    )
    return result


def run_promote(
    dataset: str, config: ExperimentConfig | None = None
) -> ExperimentResult:
    """PROMOTE: the experiment the paper defers to its full version.

    After the FIG6/FIG7 update stream, run the promoting process to
    restore the mined requirements, and measure cost/size before and
    after (plus the promotion's own running time).  Expected shape:
    promotion is cheap and recovers (most of) the pre-update cost at a
    modest size increase.
    """
    config = config or ExperimentConfig()
    bundle = load_dataset(dataset, config)
    result = ExperimentResult(
        experiment_id="PROMOTE",
        title=f"promoting after updates, {dataset}",
    )
    dk = bundle.fresh_dk()
    cost0, validated0 = workload_average_cost(dk.index, bundle.load)
    result.points.append(SeriesPoint("D(k) fresh", dk.size, cost0, validated0))
    for src, dst in bundle.update_edges:
        dk.add_edge(src, dst)
    cost1, validated1 = workload_average_cost(dk.index, bundle.load)
    result.points.append(SeriesPoint("D(k) updated", dk.size, cost1, validated1))
    started = time.perf_counter()
    report = dk.promote()
    promote_ms = (time.perf_counter() - started) * 1000.0
    cost2, validated2 = workload_average_cost(dk.index, bundle.load)
    result.points.append(
        SeriesPoint(
            "D(k) promoted", dk.size, cost2, validated2,
            note=f"{promote_ms:.1f} ms, {report.index_nodes_split} splits",
        )
    )
    return result


def run_demote(
    dataset: str, config: ExperimentConfig | None = None
) -> ExperimentResult:
    """DEMOTE: shrink the index with median-coverage requirement mining.

    Rare long queries lose their soundness guarantee (they validate);
    everything else stays index-only.  Expected shape: a meaningful size
    reduction for a bounded cost increase — the trade the demoting
    process exists to make.
    """
    config = config or ExperimentConfig()
    bundle = load_dataset(dataset, config)
    result = ExperimentResult(
        experiment_id="DEMOTE",
        title=f"demoting to median-coverage requirements, {dataset}",
    )
    dk = bundle.fresh_dk(bundle.graph)
    cost0, validated0 = workload_average_cost(dk.index, bundle.load)
    result.points.append(SeriesPoint("D(k) exact reqs", dk.size, cost0, validated0))
    lowered = coverage_requirements(bundle.load, coverage=0.5)
    started = time.perf_counter()
    removed = dk.demote(lowered)
    demote_ms = (time.perf_counter() - started) * 1000.0
    cost1, validated1 = workload_average_cost(dk.index, bundle.load)
    result.points.append(
        SeriesPoint(
            "D(k) demoted", dk.size, cost1, validated1,
            note=f"{demote_ms:.1f} ms, merged away {removed} nodes",
        )
    )
    return result


def run_subgraph(
    dataset: str, config: ExperimentConfig | None = None
) -> ExperimentResult:
    """SUBGRAPH: Algorithm 3 (incremental document insert) vs rebuild.

    Inserts a second, smaller document of the same schema under the root
    and compares the incremental index against a from-scratch rebuild —
    they must coincide in size (Theorem 2), with the incremental path
    cheaper because it never re-partitions the original data.
    """
    config = config or ExperimentConfig()
    bundle = load_dataset(dataset, config)
    newcomer = dataset_builder(dataset)(
        max(config.scale * 0.25, 0.02), config.dataset_seed + 1
    )
    result = ExperimentResult(
        experiment_id="SUBGRAPH",
        title=f"subgraph addition (Algorithm 3) vs rebuild, {dataset}",
    )

    dk = bundle.fresh_dk()
    started = time.perf_counter()
    dk.add_subgraph(newcomer.graph)
    incremental_ms = (time.perf_counter() - started) * 1000.0
    cost_inc, validated_inc = workload_average_cost(dk.index, bundle.load)
    result.points.append(
        SeriesPoint(
            "D(k) incremental", dk.size, cost_inc, validated_inc,
            note=f"{incremental_ms:.1f} ms",
        )
    )

    combined = bundle.fresh_graph()
    combined.graft(newcomer.graph)
    started = time.perf_counter()
    rebuilt, _levels = build_dk_index(combined, bundle.requirements)
    rebuild_ms = (time.perf_counter() - started) * 1000.0
    cost_reb, validated_reb = workload_average_cost(rebuilt, bundle.load)
    result.points.append(
        SeriesPoint(
            "D(k) rebuilt", rebuilt.num_nodes, cost_reb, validated_reb,
            note=f"{rebuild_ms:.1f} ms",
        )
    )
    return result


def run_construct(
    dataset: str, config: ExperimentConfig | None = None
) -> ExperimentResult:
    """CONSTRUCT: construction-time scaling (the O(k·m) claim).

    Measures A(k) construction time across k on the full graph, and
    D(k) construction across dataset scales.
    """
    config = config or ExperimentConfig()
    bundle = load_dataset(dataset, config)
    result = ExperimentResult(
        experiment_id="CONSTRUCT",
        title=f"construction time scaling, {dataset}",
    )
    rows: list[list[object]] = []
    for k in config.ks:
        started = time.perf_counter()
        index = build_ak_index(bundle.graph, k)
        elapsed_ms = (time.perf_counter() - started) * 1000.0
        rows.append([f"A({k})", f"{elapsed_ms:.1f}", index.num_nodes])
        result.points.append(
            SeriesPoint(f"A({k})", index.num_nodes, elapsed_ms, note="ms build")
        )
    started = time.perf_counter()
    dk = DKIndex.build(bundle.graph, bundle.requirements)
    elapsed_ms = (time.perf_counter() - started) * 1000.0
    rows.append(["D(k)", f"{elapsed_ms:.1f}", dk.size])
    result.points.append(
        SeriesPoint("D(k)", dk.size, elapsed_ms, note="ms build")
    )
    result.extra_lines.append(
        render_table(
            ["index", "construction (ms)", "size"],
            rows,
            title=f"construction scaling on {dataset} "
            f"({bundle.graph.num_edges} data edges)",
        )
    )
    return result


def run_precision(
    dataset: str, config: ExperimentConfig | None = None
) -> ExperimentResult:
    """PRECISION: raw (unvalidated) answer precision vs index size.

    Quantifies *why* D(k) wins: its mined similarities give perfect raw
    precision on the workload at a size no equally-precise A(k) matches.
    """
    from repro.indexes.metrics import index_metrics, load_precision

    config = config or ExperimentConfig()
    bundle = load_dataset(dataset, config)
    result = ExperimentResult(
        experiment_id="PRECISION",
        title=f"raw answer precision vs index size, {dataset}",
    )
    for k in config.ks:
        index = build_ak_index(bundle.graph, k)
        result.points.append(
            SeriesPoint(
                f"A({k})",
                index.num_nodes,
                load_precision(index, bundle.load),
                note=f"compression {index_metrics(index).compression:.1f}x",
            )
        )
    dk = bundle.fresh_dk(bundle.graph)
    result.points.append(
        SeriesPoint(
            "D(k)",
            dk.size,
            load_precision(dk.index, bundle.load),
            note=f"compression {index_metrics(dk.index).compression:.1f}x",
        )
    )
    return result


def run_twig(
    dataset: str, config: ExperimentConfig | None = None
) -> ExperimentResult:
    """TWIG: branching queries through the F&B-index vs direct evaluation."""
    from repro.indexes.fbindex import build_fb_index, evaluate_twig_on_fb
    from repro.indexes.oneindex import build_1index
    from repro.paths.cost import CostCounter
    from repro.paths.twig import evaluate_twig, parse_twig

    patterns = {
        "xmark": [
            "item[incategory]/name",
            "open_auction[bidder]/seller",
            "open_auction[bidder/increase]/itemref",
            "person[profile/interest]/name",
            "item[mailbox/mail]//text",
            "closed_auction[annotation]/price",
            "person[address/city][phone]/name",
        ],
        "nasa": [
            "dataset[keywords]/title",
            "dataset[author/lastName]/identifier",
            "dataset[history/revisions]//para",
            "reference[source/journal]//title",
            "dataset[tableHead/fields]/title",
        ],
    }
    config = config or ExperimentConfig()
    bundle = load_dataset(dataset, config)
    graph = bundle.graph
    queries = [parse_twig(text) for text in patterns[dataset]]

    fb = build_fb_index(graph)
    index_cost = CostCounter()
    data_cost = CostCounter()
    for query in queries:
        got = evaluate_twig_on_fb(fb, query, index_cost)
        want = evaluate_twig(graph, query, data_cost)
        if got != want:  # pragma: no cover - correctness guard
            raise AssertionError(f"F&B twig mismatch on {query.to_text()}")

    result = ExperimentResult(
        experiment_id="TWIG",
        title=f"branching queries via the F&B-index, {dataset}",
    )
    result.points.append(
        SeriesPoint(
            "data graph", graph.num_nodes,
            data_cost.total / len(queries), note="direct evaluation",
        )
    )
    result.points.append(
        SeriesPoint(
            "F&B", fb.num_nodes,
            index_cost.total / len(queries), note="exact, no validation",
        )
    )
    one = build_1index(graph)
    result.points.append(
        SeriesPoint(
            "1-index (size ref)", one.num_nodes, 0.0,
            note="not sound for twigs",
        )
    )
    return result


def run_drift(
    dataset: str, config: ExperimentConfig | None = None
) -> ExperimentResult:
    """DRIFT: tuner-managed D(k) vs static D(k) under a load shift."""
    from repro.core.tuner import AdaptiveTuner, TunerConfig
    from repro.paths.cost import CostCounter
    from repro.workload.generator import WorkloadConfig, generate_test_paths

    config = config or ExperimentConfig()
    bundle = load_dataset(dataset, config)
    short = generate_test_paths(
        bundle.graph, WorkloadConfig(count=40, min_length=2, max_length=2),
        seed=101,
    )
    long = generate_test_paths(
        bundle.graph, WorkloadConfig(count=40, min_length=4, max_length=5),
        seed=102,
    )
    phases = [("short", short), ("long", long), ("short again", short)]

    def play(
        dk: DKIndex, tuner: AdaptiveTuner | None = None
    ) -> list[tuple[float, int]]:
        outcomes: list[tuple[float, int]] = []
        for _name, load in phases:
            total = 0
            for query in load.expanded():
                counter = CostCounter()
                dk.evaluate(query, counter)
                total += counter.total
                if tuner is not None:
                    tuner.observe(query)
            outcomes.append((total / load.total_weight, dk.size))
        return outcomes

    result = ExperimentResult(
        experiment_id="DRIFT",
        title=f"adaptive vs static D(k) under query-load drift, {dataset}",
    )
    static = DKIndex.from_query_load(bundle.fresh_graph(), list(short))
    static_outcomes = play(static)
    adaptive = DKIndex.from_query_load(bundle.fresh_graph(), list(short))
    tuner = AdaptiveTuner(
        adaptive, TunerConfig(window=40, min_queries=10, check_every=10)
    )
    adaptive_outcomes = play(adaptive, tuner)
    for (name, _load), (s_cost, s_size), (a_cost, a_size) in zip(
        phases, static_outcomes, adaptive_outcomes
    ):
        result.points.append(SeriesPoint(f"static {name}", s_size, s_cost))
        result.points.append(SeriesPoint(f"adaptive {name}", a_size, a_cost))
    return result


def run_dataguide(
    dataset: str, config: ExperimentConfig | None = None
) -> ExperimentResult:
    """GUIDE: the Section 2 claim about strong DataGuides.

    "In the worst case, the number of index nodes in the strong
    DataGuide can be exponential related to the size of the data graph.
    This exponential behavior makes the strong DataGuide inappropriate
    for complex graph-structured data."  We build it (with a node cap)
    next to the 1-index on each dataset; on the reference-heavy NASA
    data the determinization blows straight through the cap.
    """
    from repro.exceptions import IndexError_
    from repro.indexes.dataguide import build_strong_dataguide
    from repro.indexes.oneindex import build_1index

    config = config or ExperimentConfig()
    bundle = load_dataset(dataset, config)
    graph = bundle.graph
    cap = max(20 * graph.num_nodes, 100_000)
    result = ExperimentResult(
        experiment_id="GUIDE",
        title=f"strong DataGuide vs 1-index size, {dataset}",
    )
    result.points.append(SeriesPoint("data graph", graph.num_nodes, 0.0))
    one = build_1index(graph)
    result.points.append(SeriesPoint("1-index", one.num_nodes, 0.0))
    try:
        guide = build_strong_dataguide(graph, max_nodes=cap)
        result.points.append(
            SeriesPoint("strong DataGuide", guide.num_nodes, 0.0)
        )
    except IndexError_:
        result.points.append(
            SeriesPoint(
                "strong DataGuide", cap, 0.0,
                note=f"EXPLODED past the {cap}-node cap (determinization)",
            )
        )
    return result


#: Experiment registry for the CLI: id -> (function, datasets).
EXPERIMENTS = {
    "fig4": (run_eval_before_updates, ["xmark"]),
    "fig5": (run_eval_before_updates, ["nasa"]),
    "table1": (run_update_table, ["xmark", "nasa"]),
    "fig6": (run_eval_after_updates, ["xmark"]),
    "fig7": (run_eval_after_updates, ["nasa"]),
    "promote": (run_promote, ["xmark", "nasa"]),
    "demote": (run_demote, ["xmark", "nasa"]),
    "subgraph": (run_subgraph, ["xmark", "nasa"]),
    "construct": (run_construct, ["xmark", "nasa"]),
    "precision": (run_precision, ["xmark", "nasa"]),
    "twig": (run_twig, ["xmark", "nasa"]),
    "drift": (run_drift, ["xmark"]),
    # Extension third corpus: the FIG4 protocol on a shallow/wide
    # bibliography, checking the headline result generalises.
    "dataset3": (run_eval_before_updates, ["dblp"]),
    "guide": (run_dataguide, ["xmark", "nasa", "dblp"]),
}
