"""Update-pipeline timing harness (``dkindex bench update``).

The transactional pipeline promises that its default tier is cheap
enough to leave on: the ``fast`` audit is ``O(index)`` accounting, and
the edge-scope transaction checkpoint is ``O(index nodes)``.  This
harness prices that promise on the paper's Table-1 workload — a stream
of random edge additions — and records it to ``BENCH_updates.json`` so
the overhead is a tracked number, not a belief.

Four configurations are timed per dataset, identical seeded edge
streams throughout:

- ``legacy`` — the bare algorithms (``dk_add_edge`` straight onto the
  index): no transaction, no audit — the pre-maintenance baseline;
- ``off`` / ``fast`` / ``deep`` — the pipeline at each audit tier
  (``off`` isolates the transaction + journal-less pipeline cost,
  ``fast`` is the shipped default, ``deep`` is the chaos tier).

The acceptance bar tracked by the tests: ``fast`` within 25% of ``off``
at scale ``small``.
"""

from __future__ import annotations

import json
import platform
import random
import statistics
import time
from dataclasses import dataclass

from repro.bench.harness import dataset_builder, parse_scale
from repro.bench.refine import synthetic_requirements
from repro.bench.reporting import render_table
from repro.core.construction import build_dk_index
from repro.core.dindex import DKIndex
from repro.core.updates import dk_add_edge
from repro.graph.datagraph import DataGraph
from repro.maintenance.pipeline import MaintenanceConfig

#: Schema identifier written into (and expected from) the report JSON.
SCHEMA = "dkindex-bench-updates/1"

#: Timed configurations, in report order.
MODES = ("legacy", "off", "fast", "deep")


@dataclass(frozen=True)
class UpdateBenchConfig:
    """Knobs of one harness run.

    Attributes:
        scale: named scale (``small``/``medium``/``large``) or a float
            literal like ``"0.4"``.
        repeats: timed runs per (dataset, mode); the report records the
            median.
        seed: dataset generator and edge-stream seed.
        edges: edge additions per timed run (Table 1 applies 100).
        datasets: generator names to measure.
    """

    scale: str = "small"
    repeats: int = 3
    seed: int = 0
    edges: int = 100
    datasets: tuple[str, ...] = ("xmark", "nasa")

    @property
    def scale_factor(self) -> float:
        """The numeric dataset scale behind the (possibly named) scale.

        Raises:
            DatasetError: if the scale is neither named nor numeric.
        """
        return parse_scale(self.scale)[1]


def _edge_stream(graph: DataGraph, count: int, seed: int) -> list[tuple[int, int]]:
    """``count`` seeded random new edges (no duplicates, none existing)."""
    rng = random.Random(seed)
    chosen: list[tuple[int, int]] = []
    seen: set[tuple[int, int]] = set()
    attempts = 0
    limit = max(50 * count, 1000)
    while len(chosen) < count and attempts < limit:
        attempts += 1
        src = rng.randrange(graph.num_nodes)
        dst = rng.randrange(1, graph.num_nodes)
        if src == dst or (src, dst) in seen or graph.has_edge(src, dst):
            continue
        seen.add((src, dst))
        chosen.append((src, dst))
    return chosen


def _timed_run(
    dataset: str,
    mode: str,
    config: UpdateBenchConfig,
    edges: list[tuple[int, int]],
) -> float:
    """Build a fresh store (untimed), then time the edge stream."""
    graph = dataset_builder(dataset)(config.scale_factor, config.seed).graph
    requirements = synthetic_requirements(graph)
    index, _levels = build_dk_index(graph, requirements)
    if mode == "legacy":
        start = time.perf_counter()
        for src, dst in edges:
            dk_add_edge(graph, index, src, dst)
        return time.perf_counter() - start
    dk = DKIndex(
        graph, index, requirements, maintenance=MaintenanceConfig(audit=mode)
    )
    start = time.perf_counter()
    for src, dst in edges:
        dk.add_edge(src, dst)
    return time.perf_counter() - start


def run_update_bench(config: UpdateBenchConfig) -> dict[str, object]:
    """Run every (dataset, mode) cell; return the report.

    Raises:
        DatasetError: for unknown dataset names or scales.
    """
    dataset_stats: dict[str, dict[str, int]] = {}
    results: list[dict[str, object]] = []
    for name in config.datasets:
        builder = dataset_builder(name)
        graph = builder(config.scale_factor, config.seed).graph
        dataset_stats[name] = {
            "nodes": graph.num_nodes,
            "edges": graph.num_edges,
            "labels": graph.num_labels,
        }
        edge_stream = _edge_stream(graph, config.edges, config.seed)
        for mode in MODES:
            times = [
                _timed_run(name, mode, config, edge_stream)
                for _ in range(config.repeats)
            ]
            median = statistics.median(times)
            results.append(
                {
                    "dataset": name,
                    "mode": mode,
                    "edges": len(edge_stream),
                    "median_s": median,
                    "per_edge_ms": median * 1000 / max(len(edge_stream), 1),
                    "times_s": times,
                }
            )

    return {
        "schema": SCHEMA,
        "created_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "config": {
            "scale": config.scale,
            "scale_factor": config.scale_factor,
            "repeats": config.repeats,
            "seed": config.seed,
            "edges": config.edges,
            "datasets": list(config.datasets),
        },
        "datasets": dataset_stats,
        "results": results,
        "overheads": _overheads(results),
    }


def _overheads(results: list[dict[str, object]]) -> dict[str, dict[str, float]]:
    """Per dataset: tier medians plus the tracked overhead ratios."""
    medians: dict[tuple[str, str], float] = {}
    for row in results:
        median = row["median_s"]
        assert isinstance(median, float)
        medians[(str(row["dataset"]), str(row["mode"]))] = median
    overheads: dict[str, dict[str, float]] = {}
    datasets = sorted({dataset for dataset, _mode in medians})
    for dataset in datasets:
        entry = {
            f"{mode}_s": medians[(dataset, mode)]
            for mode in MODES
            if (dataset, mode) in medians
        }
        off = medians.get((dataset, "off"))
        fast = medians.get((dataset, "fast"))
        legacy = medians.get((dataset, "legacy"))
        if off and fast:
            entry["fast_over_off"] = fast / off - 1.0
        if legacy and off:
            entry["pipeline_over_legacy"] = off / legacy - 1.0
        overheads[dataset] = entry
    return overheads


def write_report(report: dict[str, object], path: str) -> None:
    """Write the report as stable, diff-friendly JSON."""
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2, sort_keys=False)
        handle.write("\n")


def format_report(report: dict[str, object]) -> str:
    """Render the per-dataset tier comparison as an aligned text table."""
    overheads = report["overheads"]
    assert isinstance(overheads, dict)
    rows = []
    for dataset, entry in overheads.items():
        rows.append(
            [
                dataset,
                *(
                    f"{entry[f'{mode}_s'] * 1000:.1f}"
                    if f"{mode}_s" in entry
                    else "-"
                    for mode in MODES
                ),
                f"{entry.get('fast_over_off', float('nan')) * 100:+.1f}%",
            ]
        )
    config = report["config"]
    assert isinstance(config, dict)
    title = (
        f"[UPDATE] audit-tier comparison, scale {config['scale']} "
        f"(factor {config['scale_factor']}), {config['edges']} edges, "
        f"median of {config['repeats']} run(s)"
    )
    return render_table(
        [
            "dataset",
            "legacy (ms)",
            "off (ms)",
            "fast (ms)",
            "deep (ms)",
            "fast vs off",
        ],
        rows,
        title=title,
    )


def main_entry(
    scale: str,
    repeats: int,
    seed: int,
    edges: int,
    datasets: tuple[str, ...],
    out: str,
) -> int:
    """CLI driver: run, write the JSON, print the summary table."""
    config = UpdateBenchConfig(
        scale=scale,
        repeats=repeats,
        seed=seed,
        edges=edges,
        datasets=datasets,
    )
    report = run_update_bench(config)
    write_report(report, out)
    print(format_report(report))
    print(f"wrote {out}")
    return 0
