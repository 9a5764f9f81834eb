"""Run one benchmark workload and print its metrics as JSON.

From the root of a checkout::

    python3 perfbench/run.py --workload xmark-query --seed 1 --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics with the program
untouched.  ``--trace 1`` alternates untraced rounds with rounds in
which every layer boundary is spanned (see ``tracing.py``), and
reports the per-layer metrics plus the tracing overhead.  The last line
of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the exit code is 1 when any
correctness check failed.  Metric names and units come from
``BENCHMARK.json`` at the checkout root; see ``README.md`` beside this
file for what each one measures.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
from pathlib import Path
from typing import Any

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: Scratch space inside the checkout (stores, spills, trace files).
WORKDIR = ROOT / ".perfbench"

#: Prefix of the program's environment knobs, cleared before a run.
KNOB_PREFIX = "DKINDEX_"

#: Rounds a plain run makes even when ``--seconds`` has already passed.
MIN_ROUNDS = 3

#: Set-ups timed per round.  All are timed and ``setup_s`` is their
#: median; more samples steady it.
SETUPS_PER_ROUND = 3

#: Per-layer metrics whose source their name does not give (see
#: :func:`layer_source`).  A pair is a ratio of two sources, 0 when the
#: denominator is.
LAYER_SOURCES: dict[str, str | tuple[str, str]] = {
    "indexes.traverse_s": "indexes.eval:self_s",
    "indexes.validate_precision": ("indexes.verified", "indexes.candidates"),
    "indexes.validated_query_frac": ("indexes.validated_queries", "indexes.eval:calls"),
    "maintenance.fsyncs": "maintenance.fsync:calls",
    "storage.pool_hit_rate": ("storage.pool_hits", "storage.pool_accesses"),
}


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def clear_knobs() -> list[str]:
    """Unset every ``DKINDEX_*`` variable; returns the names that were set."""
    names = sorted(name for name in os.environ if name.startswith(KNOB_PREFIX))
    for name in names:
        del os.environ[name]
    return names


def import_program() -> None:
    """Put the checkout's ``src`` first on the path, or stop."""
    source = ROOT / "src"
    if not (source / "repro" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no program source under {source}")
    sys.path.insert(0, str(source))
    sys.path.insert(1, str(HERE))


def environment(knobs: list[str], workload: Any) -> dict[str, Any]:
    """What the measured program ran on and with which settings."""
    import importlib.util

    from repro.maintenance.audit import audit_level_from_env
    from repro.partition import columnar
    from repro.partition.engine import resolve_jobs
    from repro.partition.refinement import resolve_engine
    from repro.storage.paged import resolve_page_bytes
    from workloads import CpuRotation

    return {
        "python": platform.python_version(),
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "rotated_cpus": CpuRotation().cpus,
        "numpy_importable": importlib.util.find_spec("numpy") is not None,
        "columnar_numpy_active": getattr(columnar, "_numpy", None) is not None,
        "auto_engine": resolve_engine("auto"),
        "jobs": resolve_jobs(None),
        "page_bytes": resolve_page_bytes(),
        "pool_budget_bytes": getattr(workload, "budget_bytes", None),
        "audit": audit_level_from_env(),
        "flush": "fsync on every journal append",
        "knobs_cleared": knobs,
        "scale": workload.scale,
    }


def run_pass(
    workload: Any,
    workdir: Path,
    tally: Any,
    seconds: float = 0.0,
    rounds: int | None = None,
    warm_up: bool = False,
) -> Any:
    """Add rounds to ``tally``: until ``seconds`` of measured time (and
    :data:`MIN_ROUNDS` rounds) have passed, or exactly ``rounds`` more.

    With ``warm_up``, a first extra round runs and is checked, but its
    measurements are dropped; it pays for growing the heap.  Returns the
    tally (a fresh one after a warm-up).
    """
    from workloads import Tally

    target = None if rounds is None else tally.rounds + rounds
    warming = warm_up
    try:
        while True:
            directory = workdir / f"round-{tally.rounds}"
            for _ in range(SETUPS_PER_ROUND - 1):
                workload.close(workload.setup(tally, directory), directory)
            state = workload.setup(tally, directory)
            gc.collect()
            try:
                workload.run_round(state, tally)
            finally:
                workload.close(state, directory)
            tally.rounds += 1
            if warming:
                warming = False
                warm, tally = tally, Tally(tally.recorder, tally.rotation)
                tally.attempted, tally.failed = warm.attempted, warm.failed
                tally.failures = warm.failures
                if target is not None:
                    target -= warm.rounds
                continue
            if target is not None:
                done = tally.rounds >= target
            else:
                done = tally.rounds >= MIN_ROUNDS and tally.measured_s >= seconds
            if done:
                return tally
    finally:
        tally.rotation.release()


def percentile(values: list[float], percent: int) -> float:
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=100, method="inclusive")[percent - 1]


def median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def peak_rss_kib() -> int:
    """The process's resident-set high-water mark so far, in KiB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def end_to_end(tally: Any, inputs_kib: int) -> dict[str, float]:
    """The bounded metrics.  ``inputs_kib`` is the high-water mark once
    the inputs were built; the rounds' peak is measured above it."""
    return {
        "setup_s": median(tally.setups),
        "latency_p50_ms": median(tally.latencies) * 1e3,
        "throughput_per_s": len(tally.latencies) / tally.work_s,
        "avg_cost_nodes": tally.cost_nodes / tally.cost_queries,
        "index_nodes": tally.index_nodes,
        "peak_rss_mb": (peak_rss_kib() - inputs_kib) / 1024,
    }


def operations(tally: Any) -> dict[str, float]:
    """The workload-specific end-to-end breakdown, by operation kind.

    Reported with the traced run, from its untraced rounds; a kind the
    workload does not perform reads 0.
    """
    ops = tally.ops
    queries = ops.get("query", [])
    return {
        "e2e.latency_p99_ms": percentile(tally.latencies, 99) * 1e3,
        "e2e.query_p50_ms": median(queries) * 1e3,
        "e2e.query_p99_ms": percentile(queries, 99) * 1e3,
        "e2e.query_qps": len(queries) / sum(queries) if queries else 0.0,
        "e2e.update_p50_ms": median(ops.get("update", [])) * 1e3,
        "e2e.update_p99_ms": percentile(ops.get("update", []), 99) * 1e3,
        "e2e.tune_s": sum(ops.get("tune", [])) / tally.rounds,
        "e2e.checkpoint_s": median(ops.get("checkpoint", [])),
        "e2e.recover_s": median(ops.get("recover", [])),
        "e2e.build_s": median(ops.get("build", [])),
        "e2e.paged_build_s": median(ops.get("paged_build", [])),
        "e2e.disk_mb": tally.disk_bytes / 1e6,
        "e2e.error_rate": tally.failed / tally.attempted,
    }


def layer_source(name: str) -> str | tuple[str, str]:
    """Where the per-layer metric ``name`` reads its value:
    ``<span>_calls`` counts spans, ``<span>_s`` sums their self time and
    any other name is the counter of that name, unless
    :data:`LAYER_SOURCES` says otherwise."""
    if name in LAYER_SOURCES:
        return LAYER_SOURCES[name]
    for suffix, kind in (("_calls", "calls"), ("_s", "self_s")):
        if name.endswith(suffix):
            return f"{name[: -len(suffix)]}:{kind}"
    return name


def layers(recorder: Any, names: list[str]) -> dict[str, float]:
    """The per-layer metrics ``names`` from the traced pass's spans and
    counters."""
    values = dict(recorder.counts)
    for span, (calls, seconds) in recorder.self_times().items():
        values[f"{span}:calls"] = calls
        values[f"{span}:self_s"] = seconds
    values["storage.pool_accesses"] = values.get("storage.pool_hits", 0) + values.get(
        "storage.pool_misses", 0
    )
    metrics: dict[str, float] = {}
    for name in names:
        source = layer_source(name)
        if isinstance(source, tuple):
            numerator, denominator = (values.get(key, 0) for key in source)
            metrics[name] = numerator / denominator if denominator else 0.0
        else:
            metrics[name] = values.get(source, 0)
    return metrics


def traced_run(
    workload: Any, workdir: Path, seconds: float, names: list[str]
) -> tuple[dict[str, float], list[Any], Any]:
    """Untraced and traced rounds, alternating, so that each pair runs
    under the same machine conditions; returns the metrics ``names``."""
    import tracing
    import workloads

    recorder = tracing.Recorder()
    plain = run_pass(workload, workdir, workloads.Tally(), rounds=1, warm_up=True)
    spanned = workloads.Tally(recorder)
    while True:
        patches = tracing.instrument(recorder, workloads)
        recorder.enabled = True
        try:
            spanned = run_pass(workload, workdir, spanned, rounds=1)
        finally:
            recorder.enabled = False
            patches.restore()
        if plain.measured_s + spanned.measured_s >= seconds:
            break
        plain = run_pass(workload, workdir, plain, rounds=1)
    wall = spanned.measured_s
    covered = recorder.covered_s()
    metrics = operations(plain)
    metrics["trace.overhead"] = wall / plain.measured_s
    metrics["trace.unattributed_s"] = wall - covered
    metrics["trace.coverage"] = covered / wall
    metrics.update(layers(recorder, [name for name in names if name not in metrics]))
    return metrics, [plain, spanned], recorder


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    knobs = clear_knobs()
    import_program()
    import workloads

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    if args.workload not in workloads.WORKLOADS:
        raise SystemExit(
            f"perfbench: unknown workload {args.workload!r}; "
            f"choose from {sorted(workloads.WORKLOADS)}"
        )
    workdir = WORKDIR / f"run-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    # Engine-owned stores and spill runs go to the temp directory: keep
    # them inside the checkout.
    tempfile.tempdir = str(workdir)
    recorder = None
    try:
        workload = workloads.WORKLOADS[args.workload](args.seed, workloads.LARGE)
        # The inputs live for the whole run: keep them out of the
        # program's garbage collections.
        gc.freeze()
        inputs_kib = peak_rss_kib()
        if args.trace:
            declared = spec["per_layer"]
            values, tallies, recorder = traced_run(
                workload, workdir, args.seconds, [metric["name"] for metric in declared]
            )
        else:
            tally = run_pass(workload, workdir, workloads.Tally(), args.seconds, warm_up=True)
            values, tallies = end_to_end(tally, inputs_kib), [tally]
            declared = spec["end_to_end"]
    finally:
        tempfile.tempdir = None
        shutil.rmtree(workdir, ignore_errors=True)

    env = environment(knobs, workload)
    attempted = sum(tally.attempted for tally in tallies)
    failed = sum(tally.failed for tally in tallies)
    failures = [what for tally in tallies for what in tally.failures]
    metrics = {
        metric["name"]: {"value": values[metric["name"]], "unit": metric["unit"]}
        for metric in declared
    }
    print(f"perfbench {args.workload} seed={args.seed} rounds={tallies[-1].rounds}")
    print("environment " + json.dumps(env))
    for what in failures:
        print(f"FAILED {what}")
    if recorder is not None:
        recorder.write(
            WORKDIR / "traces" / f"{args.workload}-seed{args.seed}.jsonl",
            {"workload": args.workload, "seed": args.seed,
             "environment": env, "metrics": metrics},
        )
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
