"""Recovery timing harness (``dkindex bench recovery``).

The checkpoint store earns its keep only if climbing the ladder's first
rung — load the sealed snapshot, replay the committed journal suffix,
deep-audit — is actually cheaper than the alternative of rebuilding the
index from the data graph with Algorithm 2.  This harness prices both
on the paper's datasets and records the ratio to
``BENCH_recovery.json`` so "recovery beats rebuild" is a tracked
number, not a belief.

Per dataset, one untimed setup builds a checkpoint store and journals a
seeded stream of committed edge additions into it.  Then two arms are
timed over identical on-disk state:

- ``recover`` — :meth:`~repro.maintenance.store.CheckpointStore.recover`
  end to end (artifact scan, snapshot load, journal replay, deep
  audit);
- ``rebuild`` — what recovery's last rung does when every snapshot and
  journal base is gone: load the data graph out of the snapshot
  document, run Algorithm 2 from scratch, replay the same journal
  suffix, deep-audit.

Both arms read the same files and end in the same audited state, so the
ratio isolates exactly what the snapshot buys: partition loading versus
full bisimulation refinement.
"""

from __future__ import annotations

import json
import platform
import statistics
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

from repro.bench.harness import dataset_builder, parse_scale
from repro.bench.refine import synthetic_requirements
from repro.bench.reporting import render_table
from repro.bench.update import _edge_stream
from repro.core.construction import build_dk_index
from repro.core.dindex import DKIndex
from repro.exceptions import RecoveryError
from repro.maintenance.audit import run_audit
from repro.maintenance.journal import apply_journal_op, scan_journal
from repro.maintenance.pipeline import UpdatePipeline
from repro.maintenance.store import (
    CheckpointStore,
    journal_name,
    read_document,
    snapshot_name,
)

#: Schema identifier written into (and expected from) the report JSON.
SCHEMA = "dkindex-bench-recovery/1"

#: Timed arms, in report order.
ARMS = ("recover", "rebuild")


@dataclass(frozen=True)
class RecoveryBenchConfig:
    """Knobs of one harness run.

    Attributes:
        scale: named scale (``small``/``medium``/``large``) or a float
            literal like ``"0.4"``.
        repeats: timed runs per (dataset, arm); the report records the
            median.
        seed: dataset generator and edge-stream seed.
        edges: committed edge additions journaled before timing (the
            replay suffix both arms pay for).
        datasets: generator names to measure.
    """

    scale: str = "small"
    repeats: int = 5
    seed: int = 0
    edges: int = 20
    datasets: tuple[str, ...] = ("xmark", "nasa")

    @property
    def scale_factor(self) -> float:
        """The numeric dataset scale behind the (possibly named) scale.

        Raises:
            DatasetError: if the scale is neither named nor numeric.
        """
        return parse_scale(self.scale)[1]


def _build_store(
    dataset: str, config: RecoveryBenchConfig, directory: Path
) -> dict[str, int]:
    """Untimed setup: checkpoint store + journaled edge stream."""
    graph = dataset_builder(dataset)(config.scale_factor, config.seed).graph
    requirements = synthetic_requirements(graph)
    index, _levels = build_dk_index(graph, requirements)
    dk = DKIndex(graph, index, requirements)
    store = CheckpointStore.create(directory, dk)
    pipeline = UpdatePipeline(dk, store.maintenance_config(audit="off"))
    stream = _edge_stream(graph, config.edges, config.seed)
    for src, dst in stream:
        pipeline.add_edge(src, dst)
    return {
        "nodes": graph.num_nodes,
        "edges": graph.num_edges,
        "labels": graph.num_labels,
        "journaled_ops": len(stream),
    }


def _timed_recover(directory: Path) -> float:
    """One end-to-end :meth:`CheckpointStore.recover`, timed.

    Raises:
        RecoveryError: when the ladder fails (the benchmark is then
            meaningless and must not silently report a fast failure).
    """
    start = time.perf_counter()
    report = CheckpointStore(directory).recover()
    elapsed = time.perf_counter() - start
    if not report.recovered:
        raise RecoveryError(
            f"benchmark store {directory} failed to recover:\n{report.format()}"
        )
    return elapsed


def _timed_rebuild(directory: Path) -> float:
    """The last-rung alternative: Algorithm-2 rebuild + replay + audit."""
    start = time.perf_counter()
    from repro.graph.serialize import graph_from_dict

    document = read_document(directory / snapshot_name(1))
    embedded = document.get("graph")
    assert isinstance(embedded, dict)
    graph = graph_from_dict(embedded)
    raw = document.get("requirements") or {}
    requirements = {str(name): int(value) for name, value in dict(raw).items()}
    index, _levels = build_dk_index(graph, requirements)
    dk = DKIndex(graph, index, requirements)
    scan = scan_journal(directory / journal_name(1))
    for seq, op, args in scan.committed_ops:
        apply_journal_op(dk, op, args, source=f"{directory} seq {seq}")
    run_audit(dk.index, "deep")
    return time.perf_counter() - start


def run_recovery_bench(config: RecoveryBenchConfig) -> dict[str, object]:
    """Run every (dataset, arm) cell; return the report.

    Raises:
        DatasetError: for unknown dataset names or scales.
        RecoveryError: if a timed recovery fails outright.
    """
    dataset_stats: dict[str, dict[str, int]] = {}
    results: list[dict[str, object]] = []
    with tempfile.TemporaryDirectory(prefix="dk-bench-recovery-") as scratch:
        for name in config.datasets:
            directory = Path(scratch) / name
            dataset_stats[name] = _build_store(name, config, directory)
            for arm in ARMS:
                timer = _timed_recover if arm == "recover" else _timed_rebuild
                times = [timer(directory) for _ in range(config.repeats)]
                results.append(
                    {
                        "dataset": name,
                        "arm": arm,
                        "median_s": statistics.median(times),
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
        "speedups": _speedups(results),
    }


def _speedups(results: list[dict[str, object]]) -> dict[str, dict[str, float]]:
    """Per dataset: arm medians plus the tracked rebuild/recover ratio."""
    medians: dict[tuple[str, str], float] = {}
    for row in results:
        median = row["median_s"]
        assert isinstance(median, float)
        medians[(str(row["dataset"]), str(row["arm"]))] = median
    speedups: dict[str, dict[str, float]] = {}
    for dataset in sorted({dataset for dataset, _arm in medians}):
        entry = {
            f"{arm}_s": medians[(dataset, arm)]
            for arm in ARMS
            if (dataset, arm) in medians
        }
        recover = medians.get((dataset, "recover"))
        rebuild = medians.get((dataset, "rebuild"))
        if recover and rebuild:
            entry["rebuild_over_recover"] = rebuild / recover
        speedups[dataset] = entry
    return speedups


def write_report(report: dict[str, object], path: str) -> None:
    """Write the report as stable, diff-friendly JSON."""
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2, sort_keys=False)
        handle.write("\n")


def format_report(report: dict[str, object]) -> str:
    """Render the recover-versus-rebuild comparison as a text table."""
    speedups = report["speedups"]
    assert isinstance(speedups, dict)
    rows = []
    for dataset, entry in speedups.items():
        rows.append(
            [
                dataset,
                *(
                    f"{entry[f'{arm}_s'] * 1000:.1f}"
                    if f"{arm}_s" in entry
                    else "-"
                    for arm in ARMS
                ),
                f"{entry.get('rebuild_over_recover', float('nan')):.2f}x",
            ]
        )
    config = report["config"]
    assert isinstance(config, dict)
    title = (
        f"[RECOVERY] snapshot+replay vs full rebuild, scale "
        f"{config['scale']} (factor {config['scale_factor']}), "
        f"{config['edges']} journaled ops, median of "
        f"{config['repeats']} run(s)"
    )
    return render_table(
        ["dataset", "recover (ms)", "rebuild (ms)", "rebuild/recover"],
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
    config = RecoveryBenchConfig(
        scale=scale,
        repeats=repeats,
        seed=seed,
        edges=edges,
        datasets=datasets,
    )
    report = run_recovery_bench(config)
    write_report(report, out)
    print(format_report(report))
    print(f"wrote {out}")
    return 0
