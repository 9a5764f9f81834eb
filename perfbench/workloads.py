"""The benchmark's three workloads: inputs, set-up, one round, checks.

Every input is generated when a workload is constructed, before any
timed section.  The document and its 100-test-path query load are the
paper's fixed set-up (generator seeds :data:`DATASET_SEED` and
:data:`LOAD_SEED`, the defaults of :mod:`repro.bench.harness`); the
benchmark seed drives what the client draws on top of them — the
order of the query requests, the IDREF edge stream and the order of
the queries that follow the edges.  Construction of the fixed document
has nothing to draw, so ``nasa-build`` is the same for every seed.

A *round* is a set-up followed by a fixed amount of work, so two rounds
of one workload do identical work and a faster program simply fits
more rounds into the run.  Correctness checks run between the timed
sections and count toward ``failed`` like an operation that raised.
"""

from __future__ import annotations

import gc
import os
import random
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

from repro.bench.harness import sample_reference_edges
from repro.core.dindex import DKIndex
from repro.core.requirements import requirements_from_queries
from repro.datasets.dtd import GeneratedDocument
from repro.datasets.nasa import generate_nasa
from repro.datasets.xmark import generate_xmark
from repro.indexes.akindex import build_ak_index
from repro.indexes.base import IndexGraph
from repro.indexes.oneindex import build_1index
from repro.maintenance.store import CheckpointStore
from repro.partition.external import ExternalEngine
from repro.paths.cost import CostCounter
from repro.paths.evaluator import build_label_map, evaluate_on_data_graph
from repro.paths.query import make_query
from repro.storage.paged import CORE_CSR_BUFFERS, ENTRY_BYTES, PagedCSRGraph
from repro.workload.generator import WorkloadConfig, generate_test_paths
from repro.workload.queryload import QueryLoad

from tracing import Recorder

#: The paper's scale ``large`` (XMark: 31,503 nodes; NASA: 50,686).
LARGE = 1.5

#: Pool budget of the paged store, as a share of the frozen CSR bytes.
POOL_BUDGET_RATIO = 0.25

#: The paper's query load: 100 test paths of 2 to 5 labels.
LOAD_PATHS = 100

#: Generator seeds of the fixed document and query load.
DATASET_SEED = 0
LOAD_SEED = 1


class CpuRotation:
    """Moves the process to the next allowed CPU every :attr:`PERIOD`
    seconds, between timed operations.

    On a shared host one CPU can run much slower than another for
    minutes, and a busy process otherwise stays on whichever CPU it
    started on, so runs differed by the CPU they happened to get.
    Rotating gives every run the same mix of CPUs.
    """

    PERIOD = 0.5

    def __init__(self) -> None:
        self.cpus = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else []
        self._next = 0
        self._due = 0.0

    def tick(self) -> None:
        """Move on to the next CPU if the period has passed."""
        if len(self.cpus) < 2:
            return
        now = time.perf_counter()
        if now < self._due:
            return
        os.sched_setaffinity(0, {self.cpus[self._next]})
        self._next = (self._next + 1) % len(self.cpus)
        self._due = now + self.PERIOD

    def release(self) -> None:
        """Allow every CPU again."""
        if self.cpus:
            os.sched_setaffinity(0, set(self.cpus))


@dataclass
class Tally:
    """What one pass of rounds measured and checked.

    ``latencies`` holds one entry per closed-loop request; ``ops`` holds
    durations by operation kind (``query``, ``update``, ``tune``,
    ``checkpoint``, ``recover``, ``build``, ``paged_build``).
    """

    recorder: Recorder = field(default_factory=Recorder)
    rotation: CpuRotation = field(default_factory=CpuRotation)
    rounds: int = 0
    setups: list[float] = field(default_factory=list)
    latencies: list[float] = field(default_factory=list)
    ops: dict[str, list[float]] = field(default_factory=dict)
    work_s: float = 0.0
    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)
    cost_nodes: int = 0
    cost_queries: int = 0
    index_nodes: int = 0
    disk_bytes: int = 0

    @property
    def measured_s(self) -> float:
        """Time inside timed sections: set-ups plus operations."""
        return sum(self.setups) + self.work_s

    def fail(self, what: str) -> None:
        self.failed += 1
        if len(self.failures) < 20:
            self.failures.append(what)

    def timed(self, kind: str, action: Callable[[], Any]) -> Any:
        """Run one measured operation; an exception counts as a failure."""
        self.attempted += 1
        self.rotation.tick()
        start = time.perf_counter()
        try:
            return action()
        except Exception as error:  # the run goes on and reports it
            self.fail(f"{kind}: {type(error).__name__}: {error}")
            return None
        finally:
            elapsed = time.perf_counter() - start
            self.work_s += elapsed
            self.ops.setdefault(kind, []).append(elapsed)

    def setup(self, action: Callable[[], Any]) -> Any:
        """Run and time one set-up, from a freshly collected heap."""
        gc.collect()
        self.rotation.tick()
        start = time.perf_counter()
        result = action()
        self.setups.append(time.perf_counter() - start)
        return result

    def check(self, what: str, predicate: Callable[[], bool]) -> None:
        """One correctness check, untimed and untraced."""
        self.attempted += 1
        with self.recorder.paused():
            try:
                ok = predicate()
            except Exception as error:  # a crashing check is a failed one
                ok = False
                what = f"{what}: {type(error).__name__}: {error}"
        if not ok:
            self.fail(what)

    def query(self, dk: DKIndex, text: str) -> tuple[set[int] | None, float]:
        """One query request — parse, then evaluate — timed as a unit;
        returns the answer and its latency."""
        counter = CostCounter()
        answer = self.timed("query", lambda: dk.evaluate(make_query(text), counter))
        self.cost_nodes += counter.total
        self.cost_queries += 1
        return answer, self.ops["query"][-1]


def distinct_texts(load: QueryLoad) -> list[str]:
    """The load's distinct query texts (the correctness panel)."""
    return [query.to_text() for query in load]


def cycle(texts: list[str], count: int) -> list[str]:
    """``count`` texts, going round ``texts`` in order (none if empty)."""
    if not texts:
        return []
    return [texts[position % len(texts)] for position in range(count)]


def load_requests(load: QueryLoad, count: int) -> list[str]:
    """``count`` load queries in the load's exact proportions (whole
    passes over the weighted load, then a prefix of one)."""
    return cycle([query.to_text() for query in load.expanded()], count)


def oracle(graph: Any, texts: list[str]) -> dict[str, set[int]]:
    """Index-free answers (``evaluate_on_data_graph``) for each text."""
    label_map = build_label_map(graph)
    return {
        text: evaluate_on_data_graph(graph, make_query(text), label_map=label_map)
        for text in texts
    }


def answers_match(dk: DKIndex, expected: dict[str, set[int]]) -> bool:
    return all(dk.evaluate(make_query(text)) == want for text, want in expected.items())


def valid(dk: DKIndex) -> bool:
    """Definition 3 plus the extent-partition invariants."""
    dk.check_invariants()
    return True


def canonical(index: IndexGraph) -> list[tuple[tuple[int, ...], int]]:
    """The index as sorted ``(extent, k)`` pairs, independent of node ids."""
    return sorted(
        (tuple(sorted(extent)), k) for extent, k in zip(index.extents, index.k)
    )


def directory_bytes(directory: Path) -> int:
    return sum(path.stat().st_size for path in directory.rglob("*") if path.is_file())


class Workload:
    """One workload: its inputs plus the round it repeats."""

    name = ""
    generate: Callable[..., GeneratedDocument]

    def __init__(self, seed: int, scale: float) -> None:
        self.scale = scale
        self.rng = random.Random(seed)
        self.document = type(self).generate(scale=scale, seed=DATASET_SEED)
        self.load = generate_test_paths(
            self.document.graph, WorkloadConfig(count=LOAD_PATHS), seed=LOAD_SEED
        )

    def setup(self, tally: Tally, directory: Path) -> Any:
        raise NotImplementedError

    def run_round(self, state: Any, tally: Tally) -> None:
        raise NotImplementedError

    def close(self, state: Any, directory: Path) -> None:
        shutil.rmtree(directory, ignore_errors=True)


class XmarkQuery(Workload):
    """The read path: query text against a D(k) mined from the load."""

    name = "xmark-query"
    generate = staticmethod(generate_xmark)

    #: Requests per round.
    REQUESTS = 2000
    #: Exact shares of the mix: load paths, drift paths; the rest regex.
    LOAD_SHARE = 0.85
    DRIFT_SHARE = 0.10

    def __init__(self, seed: int, scale: float) -> None:
        super().__init__(seed, scale)
        # The drift and regex pools belong to the fixed query set; the
        # seed only orders the requests.
        pools = random.Random(LOAD_SEED)
        graph = self.document.graph
        requirements = requirements_from_queries(self.load)
        drift_load = generate_test_paths(
            graph,
            WorkloadConfig(count=2 * LOAD_PATHS, min_length=6, max_length=7),
            rng=pools,
        )
        drift = [
            query.to_text()
            for query in drift_load
            if requirements.get(query.target_label, 0) < query.num_edges
        ]
        regex = self._regex_variants(pools)
        loads = round(self.REQUESTS * self.LOAD_SHARE)
        drifts = round(self.REQUESTS * self.DRIFT_SHARE)
        self.requests = (
            load_requests(self.load, loads)
            + cycle(drift, drifts)
            + cycle(regex, self.REQUESTS - loads - drifts)
        )
        self.rng.shuffle(self.requests)
        self.expected = oracle(graph, sorted(set(self.requests)))

    def _regex_variants(self, rng: random.Random) -> list[str]:
        """One regular expression per load path: an interior label
        replaced by ``_``, or the last label written as an alternation."""
        targets = sorted({query.labels[-1] for query in self.load})
        variants = []
        for query in self.load:
            labels = list(query.labels)
            if len(labels) >= 3 and rng.random() < 0.5:
                labels[rng.randrange(1, len(labels) - 1)] = "_"
                variants.append("//" + ".".join(labels))
            elif len(labels) >= 2:
                others = [label for label in targets if label != labels[-1]]
                other = rng.choice(others) if others else labels[-1]
                head = ".".join(labels[:-1])
                variants.append(f"//{head}.({labels[-1]}|{other})")
        return variants

    def setup(self, tally: Tally, directory: Path) -> DKIndex:
        graph = self.document.graph.copy()
        return tally.setup(lambda: DKIndex.from_query_load(graph, self.load))

    def run_round(self, dk: DKIndex, tally: Tally) -> None:
        for text in self.requests:
            answer, elapsed = tally.query(dk, text)
            tally.latencies.append(elapsed)
            if answer is not None and answer != self.expected[text]:
                tally.fail(f"wrong answer for {text}")
        tally.check("D(k) invariants", lambda: valid(dk))
        tally.index_nodes = dk.size


@dataclass
class UpdateState:
    dk: DKIndex
    store: CheckpointStore


class NasaUpdate(Workload):
    """Journaled IDREF edge additions, each followed by a load query,
    with promote, checkpoints, a demote and recoveries on a schedule."""

    name = "nasa-update"
    generate = staticmethod(generate_nasa)

    EDGES = 600
    CHECKPOINT_AT = (200, 400)
    PROMOTE_AT = 300
    DEMOTE_AT = 540
    RECOVERIES = 3

    def __init__(self, seed: int, scale: float) -> None:
        super().__init__(seed, scale)
        self.edges = sample_reference_edges(
            self.document.graph, self.document.reference_pairs, self.EDGES, self.rng
        )
        self.panel = distinct_texts(self.load)
        self.step_queries = load_requests(self.load, len(self.edges))
        self.rng.shuffle(self.step_queries)

    def setup(self, tally: Tally, directory: Path) -> UpdateState:
        graph = self.document.graph.copy()

        def build() -> UpdateState:
            dk = DKIndex.from_query_load(graph, self.load)
            store = CheckpointStore.create(directory, dk)
            dk.maintenance = store.maintenance_config()
            return UpdateState(dk, store)

        return tally.setup(build)

    def _check_live(self, dk: DKIndex, tally: Tally, where: str) -> None:
        tally.check(f"invariants {where}", lambda: valid(dk))
        tally.check(
            f"answers {where}",
            lambda: answers_match(dk, oracle(dk.graph, self.panel)),
        )

    def run_round(self, state: UpdateState, tally: Tally) -> None:
        dk, store = state.dk, state.store
        for step, ((src, dst), text) in enumerate(
            zip(self.edges, self.step_queries), start=1
        ):
            tally.timed("update", lambda: dk.add_edge(src, dst))
            _answer, query_s = tally.query(dk, text)
            tally.latencies.append(tally.ops["update"][-1] + query_s)
            if step in self.CHECKPOINT_AT:
                tally.timed("checkpoint", lambda: store.checkpoint(dk, dk.pipeline))
            if step == self.PROMOTE_AT:
                tally.timed("tune", dk.promote)
                self._check_live(dk, tally, f"after promote at edge {step}")
            if step == self.DEMOTE_AT:
                lowered = {label: max(0, k - 1) for label, k in dk.requirements.items()}
                tally.timed("tune", lambda: dk.demote(lowered))
        self._check_live(dk, tally, "at the end of the round")
        live = canonical(dk.index)
        for _ in range(self.RECOVERIES):
            report = tally.timed("recover", CheckpointStore(store.directory).recover)
            tally.check(
                "recovery succeeded",
                lambda: report is not None and report.recovered and valid(report.dk),
            )
            tally.check(
                "recovered k and extents equal the live index",
                lambda: report is not None and canonical(report.dk.index) == live,
            )
        tally.index_nodes = dk.size
        tally.disk_bytes = directory_bytes(store.directory)


@dataclass
class BuildState:
    graph: Any
    paged: PagedCSRGraph


class NasaBuild(Workload):
    """Construction: D(k), the 1-index and A(0..4) in memory, then the
    1-index fixpoint out of core under a 25% pool budget."""

    name = "nasa-build"
    generate = staticmethod(generate_nasa)

    AK_RANGE = range(5)

    def __init__(self, seed: int, scale: float) -> None:
        super().__init__(seed, scale)
        graph = self.document.graph
        self.panel = distinct_texts(self.load)
        self.expected = oracle(graph, self.panel)
        view = graph.freeze()
        footprint = ENTRY_BYTES * sum(
            len(getattr(view, name)) for name in CORE_CSR_BUFFERS
        )
        self.budget_bytes = int(footprint * POOL_BUDGET_RATIO)

    def setup(self, tally: Tally, directory: Path) -> BuildState:
        graph = self.document.graph.copy()

        def build() -> BuildState:
            DKIndex.from_query_load(graph, self.load)
            paged = PagedCSRGraph.create(
                directory / "paged", graph, budget_bytes=self.budget_bytes
            )
            return BuildState(graph, paged)

        return tally.setup(build)

    def _build(self, tally: Tally, kind: str, action: Callable[[], Any]) -> Any:
        """One build request: timed, and its latency recorded."""
        result = tally.timed(kind, action)
        tally.latencies.append(tally.ops[kind][-1])
        return result

    def run_round(self, state: BuildState, tally: Tally) -> None:
        graph = state.graph
        before = tally.work_s
        dk = self._build(tally, "dk", lambda: DKIndex.from_query_load(graph, self.load))
        one = self._build(tally, "one_index", lambda: build_1index(graph))
        for k in self.AK_RANGE:
            self._build(tally, "ak", lambda: build_ak_index(graph, k))
        tally.ops.setdefault("build", []).append(tally.work_s - before)

        def external() -> Any:
            with ExternalEngine(state.paged) as engine:
                partition, _rounds = engine.run_fixpoint()
            return partition

        partition = self._build(tally, "paged_build", external)
        tally.check(
            "external partition equals the in-memory 1-index",
            lambda: partition is not None
            and one is not None
            and sorted(map(tuple, partition.blocks))
            == sorted(tuple(sorted(extent)) for extent in one.extents),
        )
        tally.check("D(k) invariants", lambda: dk is not None and valid(dk))
        tally.check("answers", lambda: dk is not None and self._panel_ok(dk, tally))
        tally.index_nodes = dk.size if dk is not None else 0
        tally.disk_bytes = state.paged.footprint_bytes

    def _panel_ok(self, dk: DKIndex, tally: Tally) -> bool:
        """Oracle answers on the load panel, charging the paper's cost."""
        ok = True
        for query, weight in self.load.items():
            counter = CostCounter()
            if dk.evaluate(query, counter) != self.expected[query.to_text()]:
                ok = False
            tally.cost_nodes += counter.total * weight
            tally.cost_queries += weight
        return ok

    def close(self, state: BuildState, directory: Path) -> None:
        state.paged.close()
        super().close(state, directory)


WORKLOADS: dict[str, type[Workload]] = {
    workload.name: workload for workload in (XmarkQuery, NasaUpdate, NasaBuild)
}
