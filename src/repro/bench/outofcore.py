"""Out-of-core refinement harness (``dkindex bench outofcore``).

Answers the question the paged store exists for: *can the external
engine build the same partition as the in-memory columnar engine while
its buffer pool is capped at a fraction of the in-memory footprint —
and what does the page traffic look like while it does?*

One run, on a seeded dataset (XMark by default):

1. **In-memory baseline** — freeze the graph and time the columnar
   fixpoint; the frozen CSR buffers' byte size is the *footprint* the
   pool budget is expressed against.
2. **Page-out** — stream the snapshot into a paged store
   (:mod:`repro.storage.paged`), recording pages, page size and
   wall-clock (creation itself is out-of-core: one page in memory at a
   time).
3. **External build** — run the same fixpoint through
   :class:`~repro.partition.external.ExternalEngine` over the paged
   store with the pool capped at ``budget_ratio`` of the footprint
   (default 0.25, floored at one page), then check the produced
   partition *equals* the in-memory one; the report carries
   ``partition_identical`` so a silent divergence can never hide
   behind good-looking timings.
4. **Query sweep** — seeded random ``children()``/``parents()`` lookups
   against the paged snapshot, each verified against the in-memory
   buffers; random access is the pool's worst case, so its hit rate is
   reported separately from the build's sequential sweeps.

With ``--fault-rate F`` a fifth phase repeats the external build while
a :class:`~repro.maintenance.faults.FaultInjector` fires transient
``EIO`` read faults on a seeded coin at rate ``F``: the build must
still complete — carried entirely by the retry/backoff policy of
:mod:`repro.storage.retry`, never by an engine fallback — and the
report records the injected-fault count, retry counters and the
wall-clock overhead relative to the fault-free build
(``recovery_overhead``).

Per-phase pool counters (hits, misses, evictions, write-backs, hit
rate, retries, give-ups) come from
:class:`~repro.storage.paged.PoolStats` deltas.  The result is written
to ``BENCH_outofcore.json`` following the same committed-trajectory
convention as ``BENCH_refinement.json``.
"""

from __future__ import annotations

import json
import platform
import random
import time
from dataclasses import dataclass
from pathlib import Path
from tempfile import TemporaryDirectory

from repro.bench.harness import dataset_builder, parse_scale
from repro.bench.reporting import render_table
from repro.exceptions import DatasetError
from repro.maintenance.faults import FaultInjector
from repro.partition.columnar import ColumnarEngine
from repro.partition.external import ExternalEngine
from repro.storage.paged import (
    ENTRY_BYTES,
    PagedCSRGraph,
    resolve_page_bytes,
)
from repro.storage.retry import RetryPolicy, resolve_retry_policy

#: Schema identifier written into the report JSON.
SCHEMA = "dkindex-bench-outofcore/1"

#: Default pool budget as a fraction of the in-memory CSR footprint.
DEFAULT_BUDGET_RATIO = 0.25

#: Random lookups in the query-sweep phase.
DEFAULT_QUERIES = 2000


@dataclass(frozen=True)
class OutOfCoreBenchConfig:
    """Knobs of one out-of-core harness run.

    Attributes:
        scale: one scale token (``small``/``medium``/``large`` or a
            float literal) — this harness runs a single cell deeply
            rather than an axis.
        seed: dataset generator and query-sweep seed.
        budget_ratio: pool budget as a fraction of the in-memory CSR
            footprint (floored at one page).
        page_bytes: page size (``None`` reads ``DKINDEX_PAGE_BYTES``).
        dataset: generator name (see
            :data:`repro.bench.harness.DATASET_BUILDERS`).
        queries: random lookups in the query-sweep phase.
        fault_rate: when positive, repeat the external build with
            transient ``EIO`` read faults injected on a seeded coin at
            this rate, and record the retry/recovery overhead.
    """

    scale: str = "medium"
    seed: int = 0
    budget_ratio: float = DEFAULT_BUDGET_RATIO
    page_bytes: int | None = None
    dataset: str = "xmark"
    queries: int = DEFAULT_QUERIES
    fault_rate: float = 0.0

    @property
    def scale_pair(self) -> tuple[str, float]:
        """The ``(name, factor)`` of the configured scale.

        Raises:
            DatasetError: for an invalid scale token.
        """
        return parse_scale(self.scale)


def run_outofcore_bench(config: OutOfCoreBenchConfig) -> dict[str, object]:
    """Run the four phases; return the report dictionary.

    Raises:
        DatasetError: unknown dataset name, invalid scale token, or a
            non-positive budget ratio.
    """
    scale_name, scale_factor = config.scale_pair
    if config.budget_ratio <= 0:
        raise DatasetError(
            f"budget ratio must be positive: {config.budget_ratio}"
        )
    if not 0.0 <= config.fault_rate <= 1.0:
        raise DatasetError(
            f"fault rate must be within [0, 1]: {config.fault_rate}"
        )
    builder = dataset_builder(config.dataset)
    page_bytes = resolve_page_bytes(config.page_bytes)

    graph = builder(scale_factor, config.seed).graph
    view = graph.freeze()
    footprint = (
        len(view.label_ids)
        + len(view.child_offsets)
        + len(view.child_targets)
        + len(view.parent_offsets)
        + len(view.parent_targets)
    ) * ENTRY_BYTES
    budget = max(page_bytes, int(footprint * config.budget_ratio))

    phases: dict[str, dict[str, object]] = {}

    # Phase 1: in-memory columnar fixpoint (the baseline).
    start = time.perf_counter()
    baseline, baseline_rounds = ColumnarEngine(view).run_fixpoint()
    phases["columnar_in_memory"] = {
        "seconds": round(time.perf_counter() - start, 6),
        "rounds": baseline_rounds,
        "blocks": baseline.num_blocks,
    }

    # A deeper retry budget for the fault-injected build: at a 10%
    # fault rate the default four attempts give up roughly once per
    # hundred thousand reads, which a large build *will* hit.  Eight
    # attempts push that to one in ~10^9 — the phase measures retry
    # overhead, not give-up luck.
    retry: RetryPolicy | None = None
    if config.fault_rate > 0:
        base = resolve_retry_policy(seed=config.seed)
        retry = RetryPolicy(
            retries=max(base.retries, 8),
            backoff_ms=min(base.backoff_ms, 0.25),
            seed=config.seed,
        )

    with TemporaryDirectory(prefix="dkindex-outofcore-") as tmp:
        # Phase 2: page the snapshot out to disk.
        start = time.perf_counter()
        paged = PagedCSRGraph.create(
            Path(tmp) / "store",
            graph,
            page_bytes=page_bytes,
            budget_bytes=budget,
            retry=retry,
        )
        phases["page_out"] = {
            "seconds": round(time.perf_counter() - start, 6),
            "pages": paged.store.page_count,
            "page_bytes": page_bytes,
            "store_bytes": paged.footprint_bytes,
        }

        with paged:
            # Phase 3: the same fixpoint through the external engine.
            before = paged.stats.snapshot()
            start = time.perf_counter()
            engine = ExternalEngine(paged)
            with engine:
                external, external_rounds = engine.run_fixpoint()
            build_seconds = time.perf_counter() - start
            identical = (
                external == baseline and external_rounds == baseline_rounds
            )
            phases["external_build"] = {
                "seconds": round(build_seconds, 6),
                "rounds": external_rounds,
                "blocks": external.num_blocks,
                "spilled_runs": engine.spilled_runs,
                "partition_identical": identical,
                "pool": paged.stats.delta(before).as_dict(),
            }

            # Phase 3b (optional): the same build under injected
            # transient read faults — completion must come from the
            # retry policy alone (the engine is driven directly, so a
            # retry give-up raises; there is no fallback to hide in).
            faults_ok = True
            if config.fault_rate > 0:
                injector = FaultInjector(
                    "storage.page_read_eio_transient",
                    "transient",
                    seed=config.seed,
                    rate=config.fault_rate,
                )
                before = paged.stats.snapshot()
                start = time.perf_counter()
                with injector:
                    with ExternalEngine(paged) as faulty_engine:
                        faulty, faulty_rounds = faulty_engine.run_fixpoint()
                faulty_seconds = time.perf_counter() - start
                delta = paged.stats.delta(before)
                faults_ok = (
                    faulty == baseline
                    and faulty_rounds == baseline_rounds
                    and delta.give_ups == 0
                )
                phases["external_build_faulty"] = {
                    "seconds": round(faulty_seconds, 6),
                    "fault_rate": config.fault_rate,
                    "faults_injected": injector.fires,
                    "retries": delta.retries,
                    "give_ups": delta.give_ups,
                    "partition_identical": faulty == baseline
                    and faulty_rounds == baseline_rounds,
                    "degraded": False,
                    "recovery_overhead": (
                        round(faulty_seconds / build_seconds, 3)
                        if build_seconds > 0
                        else float("inf")
                    ),
                    "pool": delta.as_dict(),
                }

            # Phase 4: seeded random lookups, verified against memory.
            rng = random.Random(config.seed)
            before = paged.stats.snapshot()
            verified = 0
            start = time.perf_counter()
            for _ in range(config.queries):
                node = rng.randrange(paged.num_nodes)
                if rng.random() < 0.5:
                    got = paged.children(node)
                    want = view.children(node)
                else:
                    got = paged.parents(node)
                    want = view.parents(node)
                if got == want:
                    verified += 1
            phases["query_sweep"] = {
                "seconds": round(time.perf_counter() - start, 6),
                "queries": config.queries,
                "verified": verified,
                "pool": paged.stats.delta(before).as_dict(),
            }
            overall = paged.stats.as_dict()

    in_memory_s = phases["columnar_in_memory"]["seconds"]
    assert isinstance(in_memory_s, float)
    return {
        "schema": SCHEMA,
        "created_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "config": {
            "dataset": config.dataset,
            "scale": scale_name,
            "scale_factor": scale_factor,
            "seed": config.seed,
            "budget_ratio": config.budget_ratio,
            "page_bytes": page_bytes,
            "queries": config.queries,
            "fault_rate": config.fault_rate,
        },
        "graph": {
            "nodes": graph.num_nodes,
            "edges": graph.num_edges,
            "labels": graph.num_labels,
        },
        "footprint_bytes": footprint,
        "budget_bytes": budget,
        "budget_fraction": round(budget / footprint, 6) if footprint else 1.0,
        "phases": phases,
        "summary": {
            "external_vs_inmemory": (
                round(build_seconds / in_memory_s, 3)
                if in_memory_s > 0
                else float("inf")
            ),
            "partition_identical": identical,
            "queries_verified": verified == config.queries,
            "faulted_build_ok": faults_ok,
            "overall_pool": overall,
        },
    }


def write_report(report: dict[str, object], path: str) -> None:
    """Write the report as stable, diff-friendly JSON."""
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2, sort_keys=False)
        handle.write("\n")


def format_report(report: dict[str, object]) -> str:
    """Render the per-phase table plus the verification verdict."""
    phases = report["phases"]
    assert isinstance(phases, dict)
    rows = []
    for name, phase in phases.items():
        pool = phase.get("pool")
        if isinstance(pool, dict):
            # .get with defaults: reports written before the retry
            # counters existed must still render.
            traffic = (
                f"{pool.get('hits', 0)}/{pool.get('misses', 0)}"
                f"/{pool.get('evictions', 0)}"
            )
            rate = f"{pool.get('hit_rate', 1.0):.3f}"
            retries = f"{pool.get('retries', 0)}/{pool.get('give_ups', 0)}"
        else:
            traffic = "-"
            rate = "-"
            retries = "-"
        rows.append(
            [name, f"{phase['seconds'] * 1000:.1f}", traffic, rate, retries]
        )
    config = report["config"]
    summary = report["summary"]
    assert isinstance(config, dict) and isinstance(summary, dict)
    title = (
        f"[OUTOFCORE] {config['dataset']}@{config['scale']}, pool "
        f"{report['budget_bytes']} B "
        f"({float(str(report['budget_fraction'])) * 100:.0f}% of "
        f"{report['footprint_bytes']} B), page {config['page_bytes']} B"
    )
    table = render_table(
        ["phase", "ms", "hit/miss/evict", "hit rate", "retry/give-up"],
        rows,
        title=title,
    )
    ok = bool(summary["partition_identical"]) and bool(
        summary["queries_verified"]
    )
    ok = ok and bool(summary.get("faulted_build_ok", True))
    verdict = (
        "partition identical to in-memory columnar; "
        f"all {config['queries']} queries verified"
        if ok
        else "VERIFICATION FAILED"
    )
    if "external_build_faulty" in phases:
        faulty = phases["external_build_faulty"]
        verdict += (
            f"\nfaulted build @ rate {faulty['fault_rate']}: "
            f"{faulty['faults_injected']} fault(s) injected, "
            f"{faulty['retries']} retried, {faulty['give_ups']} gave up, "
            f"{faulty['recovery_overhead']}x fault-free wall-clock"
        )
    return f"{table}\n{verdict}"


def main_entry(
    scale: str,
    seed: int,
    budget_ratio: float,
    page_bytes: int | None,
    dataset: str,
    out: str,
    fault_rate: float = 0.0,
) -> int:
    """CLI driver: run, write the JSON, print the summary table.

    Exits non-zero when the external build diverges from the in-memory
    partition, any query disagrees, or the fault-injected build (when
    requested) gave up or diverged — the harness doubles as an
    end-to-end check, not just a stopwatch.
    """
    config = OutOfCoreBenchConfig(
        scale=scale,
        seed=seed,
        budget_ratio=budget_ratio,
        page_bytes=page_bytes,
        dataset=dataset,
        fault_rate=fault_rate,
    )
    report = run_outofcore_bench(config)
    write_report(report, out)
    print(format_report(report))
    print(f"wrote {out}")
    summary = report["summary"]
    assert isinstance(summary, dict)
    ok = (
        bool(summary["partition_identical"])
        and bool(summary["queries_verified"])
        and bool(summary["faulted_build_ok"])
    )
    return 0 if ok else 1
