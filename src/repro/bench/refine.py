"""Refinement-engine timing harness (``dkindex bench refine``).

Every index this library builds funnels through partition refinement, so
this harness times the four construction workloads that exercise it —

- ``ak_sweep`` — the A(k) family sweep (``kbisim_partition`` for each k),
- ``oneindex_fixpoint`` — the 1-index bisimulation fixpoint
  (``bisim_partition``), the deepest refinement and the headline number,
- ``dk_build`` — the leveled D(k) construction (Algorithm 2),
- ``table1_reindex`` — the Table-1 update path: re-indexing the index
  graph at lowered levels (Theorem 2 / ``reindex_index_graph``)

— on the seeded XMark/NASA generators, once per engine (the ``legacy``
full-rehash reference vs the CSR-batch ``columnar`` engine), across a
*scale axis* (``--scale small,medium``), and writes the medians plus a
``tracemalloc`` peak-memory column to ``BENCH_refinement.json``.  The
report's ``config`` records whether the columnar engine's numpy sweep
was active, because that moves its timings.  The committed baseline is
this file's first entry; every later performance change re-runs the
harness so the repository carries a recorded performance trajectory
instead of anecdotes.  Timings are wall-clock medians over
``repeats`` runs of freshly-seeded, deterministic inputs, so runs are
comparable across commits on the same machine.  Peak memory is measured
on one separate, untimed run per cell (tracemalloc's tracing overhead
would distort the wall-clock numbers) which doubles as the warm-up.
"""

from __future__ import annotations

import json
import platform
import statistics
import time
import tracemalloc
from dataclasses import dataclass
from typing import Callable

from repro.bench.harness import dataset_builder, parse_scale
from repro.bench.reporting import render_table
from repro.core.construction import build_dk_index, reindex_index_graph
from repro.exceptions import DatasetError
from repro.graph.datagraph import ROOT_LABEL, VALUE_LABEL, DataGraph
from repro.indexes.base import IndexGraph
from repro.partition import columnar
from repro.partition.refinement import bisim_partition, kbisim_partition

#: Schema identifier written into (and expected from) the report JSON.
#: Version 2 added the scale axis (one row per scale), the ``peak_kb``
#: tracemalloc column, the columnar engine rows and resolved worker
#: counts.  Version 3 drops the worklist rows; ``speedup`` is legacy
#: over columnar.  Version 4 drops the worker counts and the parallel
#: columnar row, and records in ``config.numpy`` whether the columnar
#: engine's numpy sweep was active.
SCHEMA = "dkindex-bench-refinement/4"

#: The engines every cell is timed under.
ENGINES = ("legacy", "columnar")


@dataclass(frozen=True)
class RefineBenchConfig:
    """Knobs of one harness run.

    Attributes:
        scale: comma-separated scale axis — named scales
            (``small``/``medium``/``large``) and/or float literals, e.g.
            ``"small,medium"`` or ``"0.4"``.  One row per scale.
        repeats: timed runs per (dataset, scenario, engine, scale); the
            report records the median.
        seed: dataset generator seed.
        datasets: generator names to measure (see
            :data:`repro.bench.harness.DATASET_BUILDERS`).
        ks: the A(k) sweep.
    """

    scale: str = "small"
    repeats: int = 3
    seed: int = 0
    datasets: tuple[str, ...] = ("xmark", "nasa")
    ks: tuple[int, ...] = (0, 1, 2, 3, 4)

    @property
    def scale_axis(self) -> tuple[tuple[str, float], ...]:
        """The ``(name, factor)`` pairs of the comma-separated axis.

        Raises:
            DatasetError: if any entry is neither named nor numeric.
        """
        entries = [entry for entry in self.scale.split(",") if entry.strip()]
        axis = [parse_scale(entry) for entry in entries]
        if not axis:
            raise DatasetError("empty bench scale axis")
        return tuple(axis)


def synthetic_requirements(graph: DataGraph) -> dict[str, int]:
    """Deterministic varied per-label requirements for the D(k) build.

    Real requirement mining needs a query workload, which would dominate
    the measurement; instead each non-structural label gets a
    requirement cycling through 1..3 (sorted by name, so the map — and
    therefore the leveled refinement being timed — is identical on every
    run and machine).
    """
    names = sorted(
        name
        for name in graph.label_names()
        if name not in (ROOT_LABEL, VALUE_LABEL)
    )
    return {name: 1 + position % 3 for position, name in enumerate(names)}


def _time_repeats(action: Callable[[], object], repeats: int) -> list[float]:
    """Wall-clock seconds for ``repeats`` runs of ``action``."""
    times: list[float] = []
    for _ in range(repeats):
        start = time.perf_counter()
        action()
        times.append(time.perf_counter() - start)
    return times


def _peak_kb(action: Callable[[], object]) -> float:
    """Peak traced allocation of one run of ``action``, in KiB.

    Runs under :mod:`tracemalloc` and therefore *not* while timing —
    tracing costs a multiple of the untraced wall-clock.  numpy routes
    its allocations through the traced allocator, so the columnar
    engine's optional vectorised path is accounted for too.
    """
    tracemalloc.start()
    try:
        action()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak / 1024.0


def _scenarios(
    graph: DataGraph,
    requirements: dict[str, int],
    reindex_base: IndexGraph,
    lowered_levels: list[int],
    ks: tuple[int, ...],
) -> dict[str, Callable[[str], object]]:
    """The timed workloads, each parameterised by the engine name."""

    def ak_sweep(engine: str) -> object:
        return [kbisim_partition(graph, k, engine=engine) for k in ks]

    def oneindex_fixpoint(engine: str) -> object:
        return bisim_partition(graph, engine=engine)

    def dk_build(engine: str) -> object:
        return build_dk_index(graph, requirements, engine=engine)

    def table1_reindex(engine: str) -> object:
        return reindex_index_graph(reindex_base, lowered_levels, engine=engine)

    return {
        "ak_sweep": ak_sweep,
        "oneindex_fixpoint": oneindex_fixpoint,
        "dk_build": dk_build,
        "table1_reindex": table1_reindex,
    }


def run_refine_bench(config: RefineBenchConfig) -> dict[str, object]:
    """Run every (scale, dataset, scenario, engine) cell; return the report.

    Raises:
        DatasetError: for unknown dataset names or scales.
    """
    scale_axis = config.scale_axis
    dataset_stats: dict[str, dict[str, int]] = {}
    results: list[dict[str, object]] = []
    for scale_name, scale_factor in scale_axis:
        for name in config.datasets:
            graph = dataset_builder(name)(scale_factor, config.seed).graph
            dataset_stats[f"{name}@{scale_name}"] = {
                "nodes": graph.num_nodes,
                "edges": graph.num_edges,
                "labels": graph.num_labels,
            }
            requirements = synthetic_requirements(graph)
            reindex_base, levels = build_dk_index(graph, requirements)
            lowered_levels = [max(level - 1, 0) for level in levels]
            scenarios = _scenarios(
                graph, requirements, reindex_base, lowered_levels, config.ks
            )
            for scenario, action in scenarios.items():
                for engine in ENGINES:
                    run = lambda: action(engine)  # noqa: E731
                    peak_kb = _peak_kb(run)  # untimed; doubles as warm-up
                    times = _time_repeats(run, config.repeats)
                    results.append(
                        {
                            "dataset": name,
                            "scenario": scenario,
                            "scale": scale_name,
                            "engine": engine,
                            "median_s": statistics.median(times),
                            "times_s": times,
                            "peak_kb": round(peak_kb, 1),
                        }
                    )

    return {
        "schema": SCHEMA,
        "created_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "config": {
            "scale": config.scale,
            "scale_axis": {name: factor for name, factor in scale_axis},
            "repeats": config.repeats,
            "seed": config.seed,
            "numpy": columnar._numpy is not None,
            "datasets": list(config.datasets),
            "ks": list(config.ks),
        },
        "datasets": dataset_stats,
        "results": results,
        "speedups": _speedups(results),
    }


def _speedups(
    results: list[dict[str, object]],
) -> dict[str, dict[str, float]]:
    """Per (dataset, scenario, scale): serial engine medians and ratio.

    ``speedup`` is legacy over columnar (> 1 means the columnar engine
    is faster).
    """
    medians: dict[tuple[str, str, str, str], float] = {}
    for row in results:
        key = (
            str(row["dataset"]),
            str(row["scenario"]),
            str(row["scale"]),
            str(row["engine"]),
        )
        median = row["median_s"]
        assert isinstance(median, float)
        medians[key] = median
    speedups: dict[str, dict[str, float]] = {}
    for (dataset, scenario, scale, engine), median in sorted(medians.items()):
        if engine != "legacy":
            continue
        columnar = medians.get((dataset, scenario, scale, "columnar"))
        if columnar is None:
            continue
        speedups[f"{dataset}/{scenario}@{scale}"] = {
            "legacy_s": median,
            "columnar_s": columnar,
            "speedup": median / columnar if columnar > 0 else float("inf"),
        }
    return speedups


def write_report(report: dict[str, object], path: str) -> None:
    """Write the report as stable, diff-friendly JSON."""
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2, sort_keys=False)
        handle.write("\n")


def format_report(report: dict[str, object]) -> str:
    """Render the speedup summary as an aligned text table."""
    speedups = report["speedups"]
    assert isinstance(speedups, dict)
    rows = [
        [
            key,
            f"{entry['legacy_s'] * 1000:.1f}",
            f"{entry['columnar_s'] * 1000:.1f}",
            f"{entry['speedup']:.2f}x",
        ]
        for key, entry in speedups.items()
    ]
    config = report["config"]
    assert isinstance(config, dict)
    title = (
        f"[REFINE] engine comparison, scales {config['scale']}, "
        f"median of {config['repeats']} run(s)"
    )
    return render_table(
        [
            "dataset/scenario@scale",
            "legacy (ms)",
            "columnar (ms)",
            "leg/col",
        ],
        rows,
        title=title,
    )


def main_entry(
    scale: str,
    repeats: int,
    seed: int,
    datasets: tuple[str, ...],
    out: str,
) -> int:
    """CLI driver: run, write the JSON, print the summary table."""
    config = RefineBenchConfig(
        scale=scale,
        repeats=repeats,
        seed=seed,
        datasets=datasets,
    )
    report = run_refine_bench(config)
    write_report(report, out)
    print(format_report(report))
    print(f"wrote {out}")
    return 0
