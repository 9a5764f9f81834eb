"""The chaos suite: rollback-or-repair, proven operation by operation.

For every mutating operation × relevant fault point × fault mode, this
harness builds a fresh fixture store, arms a deterministic
:class:`~repro.maintenance.faults.FaultInjector`, runs the operation
through the full :class:`~repro.maintenance.pipeline.UpdatePipeline`
(journal + transaction + deep audit + repair), and then verifies the
outcome against the only two acceptable stories:

- **raise** faults must leave the store *bit-identical* to its pre-op
  state (checked with
  :func:`~repro.maintenance.transaction.state_fingerprint`);
- **corrupt** faults must end in a committed store whose index answers
  a battery of label-path queries exactly like the data graph does —
  either because the repair ladder healed it (``repaired``), or because
  the corruption was overwritten by later writes or discarded with a
  superseded index object (``absorbed``).

Scenarios whose injection point never lies on the operation's path are
recorded as ``not-hit`` and still verified for clean behaviour.  Any
other ending is ``broken`` (a rollback that left residue) or
``unrepaired`` (quarantine with a failed repair) — the suite's headline
number, required to be zero.

Everything derives from the printed seed; a failing triple
``(op, point, mode)`` reproduces exactly.
"""

from __future__ import annotations

import random
import warnings
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterator

from repro.core.dindex import DKIndex
from repro.core.updates import dk_add_edge
from repro.exceptions import (
    InjectedFaultError,
    PagedStoreError,
    QuarantineError,
    ReproError,
    StorageDegradationWarning,
)
from repro.graph.builder import graph_from_edges
from repro.graph.columnar import CSRGraph
from repro.graph.datagraph import DataGraph
from repro.indexes.evaluation import evaluate_on_index
from repro.maintenance.faults import FaultInjector
from repro.maintenance.pipeline import MaintenanceConfig, UpdatePipeline
from repro.maintenance.store import CheckpointStore
from repro.maintenance.transaction import UpdateTransaction, state_fingerprint
from repro.partition.blocks import Partition
from repro.partition.refinement import bisim_partition
from repro.paths.evaluator import evaluate_on_data_graph
from repro.paths.query import make_query
from repro.storage.paged import (
    PAGE_BYTES_ENV_VAR,
    POOL_BUDGET_ENV_VAR,
    PagedCSRGraph,
)
from repro.storage.retry import IO_BACKOFF_MS_ENV_VAR, IO_RETRIES_ENV_VAR

#: Modes the update-pipeline matrix exercises.  The OS-error modes
#: (``transient``/``enospc``) belong to the storage matrix below — the
#: update pipeline has no retry policy to absorb them, by design.
UPDATE_CHAOS_MODES = ("raise", "corrupt")

#: Fault points that lie on (or may lie on) each operation's path.  The
#: shared ``pipeline.pre_audit`` point is exercised for every operation.
POINTS_FOR_OP: dict[str, tuple[str, ...]] = {
    "add_edge": (
        "add_edge.planned",
        "add_edge.graph_mutated",
        "add_edge.index_edge",
        "add_edge.lowered",
        "pipeline.pre_audit",
    ),
    "add_edges": (
        "add_edge.planned",
        "add_edge.graph_mutated",
        "add_edge.lowered",
        "pipeline.pre_audit",
    ),
    "remove_edge": (
        "remove_edge.planned",
        "remove_edge.graph_mutated",
        "remove_edge.lowered",
        "pipeline.pre_audit",
    ),
    "add_subgraph": (
        "add_subgraph.grafted",
        "add_subgraph.reindexed",
        "pipeline.pre_audit",
    ),
    "promote": ("promote.split", "pipeline.pre_audit"),
    "demote": ("demote.reindexed", "pipeline.pre_audit"),
}

#: Label-path queries whose index answers are compared against the data
#: graph after every committed scenario (validation on, so any unsound
#: similarity that survives audit+repair shows up as a wrong answer).
ORACLE_QUERIES = (
    "t",
    "m.t",
    "db.m",
    "db.m.t",
    "db.m.a",
    "m.x",
    "a.m.t",
)


@dataclass
class ChaosOutcome:
    """One (operation, point, mode) scenario's verdict."""

    op: str
    point: str
    mode: str
    fired: bool
    outcome: str  # rolled-back | repaired | absorbed | not-hit | unrepaired | broken
    detail: str = ""

    def format(self) -> str:
        flag = "*" if self.outcome in ("broken", "unrepaired") else " "
        detail = f"  ({self.detail})" if self.detail else ""
        return (
            f"{flag} {self.op:<13} {self.point:<26} {self.mode:<8} "
            f"-> {self.outcome}{detail}"
        )


@dataclass
class ChaosReport:
    """Everything a chaos suite run proved (or failed to)."""

    seed: int
    outcomes: list[ChaosOutcome] = field(default_factory=list)
    title: str = "chaos suite"

    @property
    def failures(self) -> list[ChaosOutcome]:
        return [
            outcome
            for outcome in self.outcomes
            if outcome.outcome in ("broken", "unrepaired")
        ]

    @property
    def ok(self) -> bool:
        return not self.failures

    def counts(self) -> dict[str, int]:
        tally: dict[str, int] = {}
        for outcome in self.outcomes:
            tally[outcome.outcome] = tally.get(outcome.outcome, 0) + 1
        return tally

    def format(self) -> str:
        lines = [f"{self.title}, seed {self.seed}:"]
        lines.extend(outcome.format() for outcome in self.outcomes)
        tally = ", ".join(
            f"{name}: {count}" for name, count in sorted(self.counts().items())
        )
        verdict = "OK" if self.ok else f"FAILED ({len(self.failures)} scenario(s))"
        lines.append(f"{len(self.outcomes)} scenarios ({tally}) -> {verdict}")
        return "\n".join(lines)


def _fixture_graph() -> DataGraph:
    """A small store with branching, sharing and a cycle.

    Node 0 is the implicit root; 1=db, then three ``m`` subtrees with
    ``t``/``a``/``x`` children and an IDREF-style back edge a -> m that
    closes a cycle — enough shape for splits, merges and lowering sweeps
    to all have work to do.
    """
    labels = ["db", "m", "t", "a", "m", "t", "a", "m", "x", "t"]
    edges = [
        (0, 1),
        (1, 2),
        (2, 3),
        (2, 4),
        (1, 5),
        (5, 6),
        (5, 7),
        (1, 8),
        (8, 9),
        (8, 10),
        (7, 2),  # a -> m back edge (cycle)
    ]
    return graph_from_edges(labels, edges)


def _fixture() -> DKIndex:
    return DKIndex.build(_fixture_graph(), {"t": 2, "x": 3})


def _subgraph_fixture() -> DataGraph:
    """A small document to insert (root block merges with the store's)."""
    return graph_from_edges(["m", "t", "a"], [(0, 1), (1, 2), (1, 3)])


def _new_edge_candidates(graph: DataGraph) -> list[tuple[int, int]]:
    return [
        (src, dst)
        for src in range(graph.num_nodes)
        for dst in range(1, graph.num_nodes)
        if src != dst and not graph.has_edge(src, dst)
    ]


def _existing_edges(graph: DataGraph) -> list[tuple[int, int]]:
    return [
        (src, dst)
        for src in range(graph.num_nodes)
        for dst in graph.children[src]
    ]


def _oracle(graph: DataGraph) -> dict[str, set[int]]:
    return {
        text: evaluate_on_data_graph(graph, make_query(text))
        for text in ORACLE_QUERIES
    }


def _query_mismatches(dk: DKIndex) -> list[str]:
    expected = _oracle(dk.graph)
    mismatches = []
    for text, truth in expected.items():
        got = evaluate_on_index(dk.index, make_query(text))
        if got != truth:
            mismatches.append(
                f"query {text!r}: index {sorted(got)} != data {sorted(truth)}"
            )
    return mismatches


def _build_action(
    op: str, dk: DKIndex, pipeline: UpdatePipeline, rng: random.Random
) -> Callable[[], object]:
    """The scenario's operation, with seed-chosen arguments."""
    if op == "add_edge":
        src, dst = rng.choice(_new_edge_candidates(dk.graph))
        return lambda: pipeline.add_edge(src, dst)
    if op == "add_edges":
        candidates = _new_edge_candidates(dk.graph)
        batch = rng.sample(candidates, k=min(3, len(candidates)))
        return lambda: pipeline.add_edges(batch)
    if op == "remove_edge":
        src, dst = rng.choice(_existing_edges(dk.graph))
        return lambda: pipeline.remove_edge(src, dst)
    if op == "add_subgraph":
        subgraph = _subgraph_fixture()
        return lambda: pipeline.add_subgraph(subgraph)
    if op == "promote":
        # Erode similarities first so the promotion has splits to do
        # (otherwise promote.split is unreachable by construction).
        with UpdateTransaction(dk.graph, dk.index, scope="add-edge", edge=(9, 6)):
            dk_add_edge(dk.graph, dk.index, 9, 6)
        return lambda: pipeline.promote(None)
    if op == "demote":
        return lambda: pipeline.demote({"t": 1})
    raise ValueError(f"unknown chaos op {op!r}")


def _run_scenario(
    op: str,
    point: str,
    mode: str,
    seed: int,
    journal_dir: Path | None,
) -> ChaosOutcome:
    dk = _fixture()
    rng = random.Random(f"{seed}:{op}:{point}:{mode}")
    journal_path = (
        journal_dir / f"{op}--{point}--{mode}.jsonl"
        if journal_dir is not None
        else None
    )
    pipeline = UpdatePipeline(
        dk,
        MaintenanceConfig(audit="deep", journal_path=journal_path),
    )
    action = _build_action(op, dk, pipeline, rng)
    before = state_fingerprint(dk.graph, dk.index)

    injector = FaultInjector(point, mode, seed=seed)
    injected: InjectedFaultError | None = None
    quarantined: QuarantineError | None = None
    with injector:
        try:
            action()
        except InjectedFaultError as error:
            injected = error
        except QuarantineError as error:
            quarantined = error

    if quarantined is not None:
        return ChaosOutcome(
            op, point, mode, injector.fired, "unrepaired", str(quarantined)
        )
    if injected is not None:
        after = state_fingerprint(dk.graph, dk.index)
        if after != before:
            return ChaosOutcome(
                op, point, mode, True, "broken",
                "rollback left the store different from its pre-op state",
            )
        mismatches = _query_mismatches(dk)
        if mismatches:
            return ChaosOutcome(op, point, mode, True, "broken", mismatches[0])
        return ChaosOutcome(op, point, mode, True, "rolled-back")

    # The operation committed; whatever the fault did, the store must now
    # answer queries exactly like the data graph.
    mismatches = _query_mismatches(dk)
    if mismatches:
        return ChaosOutcome(
            op, point, mode, injector.fired, "broken", mismatches[0]
        )
    if pipeline.last_repair is not None:
        strategy = pipeline.last_repair.strategy
        return ChaosOutcome(
            op, point, mode, injector.fired, "repaired", f"via {strategy}"
        )
    if injector.fired:
        return ChaosOutcome(op, point, mode, True, "absorbed")
    return ChaosOutcome(op, point, mode, False, "not-hit")


def run_chaos_suite(
    seed: int = 0,
    journal_dir: str | Path | None = None,
) -> ChaosReport:
    """Run the full operation × fault-point × mode matrix.

    Args:
        seed: determinism anchor; printed in the report so any failure
            reproduces from its ``(op, point, mode, seed)`` quadruple.
        journal_dir: when given, every scenario journals to
            ``<dir>/<op>--<point>--<mode>.jsonl`` (the CI chaos job
            uploads these as artifacts on failure).

    Returns:
        A :class:`ChaosReport`; ``report.ok`` is the suite verdict.
    """
    directory = Path(journal_dir) if journal_dir is not None else None
    if directory is not None:
        directory.mkdir(parents=True, exist_ok=True)
    report = ChaosReport(seed=seed)
    for op, points in POINTS_FOR_OP.items():
        for point in points:
            for mode in UPDATE_CHAOS_MODES:
                report.outcomes.append(
                    _run_scenario(op, point, mode, seed, directory)
                )
    return report


# ----------------------------------------------------------------------
# The durability crash matrix
# ----------------------------------------------------------------------

#: Every durability scenario: which phase of the checkpoint-store
#: lifecycle is attacked, at which injection point, in which mode, on
#: which hit of the point (the atomic writes of a checkpoint are hit 1 =
#: snapshot, hit 2 = journal base, hit 3 = ``CURRENT``; the append phase
#: runs two operations, one record each, so hit 1 lands on the first
#: record and hit 2 on the second; ``journal.bit_flip`` rots a byte of
#: the record it follows), and a label for what that hit lands on.
DURABILITY_SCENARIOS: tuple[tuple[str, str, str, int, str], ...] = (
    ("checkpoint", "store.torn_write", "raise", 1, "snapshot"),
    ("checkpoint", "store.torn_write", "raise", 2, "journal base"),
    ("checkpoint", "store.torn_write", "raise", 3, "CURRENT"),
    ("checkpoint", "store.partial_rename", "raise", 1, "snapshot"),
    ("checkpoint", "store.partial_rename", "raise", 2, "journal base"),
    ("checkpoint", "store.partial_rename", "raise", 3, "CURRENT"),
    ("checkpoint", "store.missing_fsync", "raise", 1, "snapshot"),
    ("checkpoint", "store.missing_fsync", "raise", 2, "journal base"),
    ("checkpoint", "store.missing_fsync", "raise", 3, "CURRENT"),
    ("checkpoint", "store.bit_flip", "corrupt", 1, "snapshot"),
    ("checkpoint", "store.bit_flip", "corrupt", 2, "journal base"),
    ("checkpoint", "store.bit_flip", "corrupt", 3, "CURRENT"),
    ("append", "journal.torn_append", "raise", 1, "first record"),
    ("append", "journal.torn_append", "raise", 2, "second record"),
    ("append", "journal.bit_flip", "corrupt", 1, "first record"),
    ("append", "journal.bit_flip", "corrupt", 2, "second record"),
    ("recover", "recover.mid_ladder", "raise", 1, "first rung"),
)

#: How many committed operations each durability scenario applies before
#: the fault is armed (its committed history).
_DURABILITY_HISTORY = 3

#: Operations the append phase runs with the fault armed.
_APPEND_OPERATIONS = 2


def _graph_key(graph: DataGraph) -> tuple[object, ...]:
    """An order-insensitive identity for a data graph's content."""
    return (
        tuple(graph.label_names()),
        tuple(graph.label_ids),
        tuple(sorted(graph.edges())),
    )


def _run_durability_scenario(
    phase: str,
    point: str,
    mode: str,
    hit: int,
    target: str,
    seed: int,
    work_dir: Path,
) -> ChaosOutcome:
    """One cell of the crash matrix; see :func:`run_durability_suite`."""
    rng = random.Random(f"{seed}:{phase}:{point}:{mode}:{hit}")
    store_dir = work_dir / f"{phase}--{point}--{mode}--{hit}"
    dk = _fixture()
    store = CheckpointStore.create(store_dir, dk)
    pipeline = UpdatePipeline(dk, store.maintenance_config(audit="deep"))

    # The committed history the store must never lose to a crash: the
    # graph identity and oracle answers after every committed prefix.
    prefixes = [(_graph_key(dk.graph), _oracle(dk.graph))]
    for _ in range(_DURABILITY_HISTORY):
        src, dst = rng.choice(_new_edge_candidates(dk.graph))
        pipeline.add_edge(src, dst)
        prefixes.append((_graph_key(dk.graph), _oracle(dk.graph)))

    injector = FaultInjector(point, mode, trigger_on_hit=hit, seed=seed)
    crashed = False
    with injector:
        try:
            if phase == "checkpoint":
                store.checkpoint(dk, pipeline)
            elif phase == "append":
                for _ in range(_APPEND_OPERATIONS):
                    src, dst = rng.choice(_new_edge_candidates(dk.graph))
                    pipeline.add_edge(src, dst)
                    # Reached only when the record is durable (a crash
                    # raises out of the loop); injected rot lands in
                    # the journal after that.
                    prefixes.append((_graph_key(dk.graph), _oracle(dk.graph)))
            else:  # phase == "recover": crash the first recovery attempt
                CheckpointStore(store_dir).recover()
        except InjectedFaultError:
            crashed = True
        except ReproError:
            # Injected rot detected *during* the phase by an integrity
            # check — a loud typed failure, which is the contract; the
            # process still "dies" and recovery takes over below.
            crashed = True

    # "The machine reboots": all in-memory state is dead, only the
    # store directory survives.  Recover and judge the result.
    label = f"hit {hit} ({target})"
    try:
        report = CheckpointStore(store_dir).recover()
    except ReproError as error:
        return ChaosOutcome(
            phase, point, mode, injector.fired, "unrepaired",
            f"{label}: recovery raised: {error}",
        )
    if not report.recovered or report.dk is None:
        return ChaosOutcome(
            phase, point, mode, injector.fired, "unrepaired",
            f"{label}: every rung of the ladder failed",
        )

    recovered = report.dk
    recovered_key = _graph_key(recovered.graph)
    matched = None
    for position in range(len(prefixes) - 1, -1, -1):
        graph_key, answers = prefixes[position]
        if recovered_key != graph_key:
            continue
        if all(
            evaluate_on_index(recovered.index, make_query(text)) == truth
            for text, truth in answers.items()
        ):
            matched = position
            break
    if matched is None:
        return ChaosOutcome(
            phase, point, mode, injector.fired, "broken",
            f"{label}: recovered state matches no committed prefix",
        )
    lost = len(prefixes) - 1 - matched
    if mode == "raise":
        # A crash destroys nothing durable: zero committed-operation
        # loss, exactly, or the scenario is broken.
        if lost:
            return ChaosOutcome(
                phase, point, mode, injector.fired, "broken",
                f"{label}: lost {lost} committed operation(s) to a crash",
            )
        if not crashed and injector.fired:
            return ChaosOutcome(
                phase, point, mode, injector.fired, "broken",
                f"{label}: injected crash did not propagate",
            )
        return ChaosOutcome(
            phase, point, mode, injector.fired, "recovered",
            f"{label}: via {report.strategy}",
        )
    # Bit-rot may destroy unique journal records; then the recovered
    # state must be a committed point in time *and* the report must say
    # loss happened — silent shrinkage is as broken as wrong answers.
    if lost == 0:
        return ChaosOutcome(
            phase, point, mode, injector.fired, "recovered",
            f"{label}: via {report.strategy}",
        )
    if report.data_loss:
        return ChaosOutcome(
            phase, point, mode, injector.fired, "point-in-time",
            f"{label}: {lost} op(s) rotted away, reported via {report.strategy}",
        )
    return ChaosOutcome(
        phase, point, mode, injector.fired, "broken",
        f"{label}: {lost} op(s) vanished without data_loss being reported",
    )


def run_durability_suite(
    seed: int = 0,
    work_dir: str | Path | None = None,
) -> ChaosReport:
    """Run the durability crash matrix over the checkpoint store.

    For every scenario in :data:`DURABILITY_SCENARIOS`: build a fixture
    store with a committed operation history, crash (or bit-rot) one
    phase of the checkpoint-store lifecycle at one injection point,
    throw away all in-memory state, run
    :meth:`~repro.maintenance.store.CheckpointStore.recover`, and hold
    the result to the durability contract:

    - after a **crash** (``raise`` faults) the recovered index must be
      query-equivalent to the state with *every* committed operation
      applied — zero committed-operation loss;
    - after **bit-rot** (``corrupt`` faults) the recovered index must be
      query-equivalent to a committed point in time, and any operation
      that rotted away must be declared in the
      :class:`~repro.maintenance.store.RecoveryReport` (``data_loss``)
      — honest point-in-time recovery, never silent shrinkage.

    Args:
        seed: determinism anchor (also steers where bit-rot lands).
        work_dir: where scenario store directories are built; a
            temporary directory (removed afterwards) when omitted.  The
            CI recovery-smoke job points this at an artifact directory.

    Returns:
        A :class:`ChaosReport`; ``report.ok`` is the suite verdict.
    """
    import tempfile

    if work_dir is None:
        with tempfile.TemporaryDirectory(prefix="dk-durability-") as scratch:
            return run_durability_suite(seed=seed, work_dir=scratch)
    directory = Path(work_dir)
    directory.mkdir(parents=True, exist_ok=True)
    report = ChaosReport(seed=seed, title="durability crash matrix")
    for phase, point, mode, hit, target in DURABILITY_SCENARIOS:
        report.outcomes.append(
            _run_durability_scenario(
                phase, point, mode, hit, target, seed, directory
            )
        )
    return report


# ----------------------------------------------------------------------
# The storage crash matrix
# ----------------------------------------------------------------------

#: Page size every storage scenario runs at: 64 bytes = 8 entries, so
#: the 11-node fixture spans multiple pages per buffer and every fault
#: point gets several hits per phase.
STORAGE_PAGE_BYTES = 64

#: Pool budget: four pages — small enough that sweeps miss and evict.
STORAGE_POOL_BUDGET = 256

#: Buffers compared byte-for-byte against the fault-free baseline.
_CSR_BUFFER_NAMES = (
    "label_ids",
    "child_offsets",
    "child_targets",
    "parent_offsets",
    "parent_targets",
)

#: Every storage scenario: which phase of the paged-store lifecycle is
#: attacked, at which injection point, in which mode, on which hit
#: (ignored when ``rate`` > 0: the fault then fires on a seeded coin at
#: every hit instead of latching once), and the outcome the robustness
#: contract requires:
#:
#: - ``absorbed``: the operation succeeds under the fault (retry or
#:   scan-side fallback), state identical to the fault-free baseline;
#: - ``rebuilt``: the operation fails loudly, a fault-free rerun
#:   produces the baseline state;
#: - ``degraded``: the external engine fails, the driver falls back
#:   down the engine chain with a :class:`StorageDegradationWarning`,
#:   and the partition is *identical* to the columnar baseline;
#: - ``loud``: an injected crash propagates (never absorbed into a
#:   degradation), and a clean rerun matches the baseline;
#: - ``rolled-back``: a failed checkpoint publishes nothing — reopening
#:   serves the previous generation, byte-identical;
#: - ``repaired``: silent bit-rot is caught by the digest scrub and
#:   restored from an older generation's byte-identical twin;
#: - ``recovered``: a rotten or missing manifest/CURRENT falls back to
#:   the newest readable generation (or a loud give-up heals once the
#:   fault clears), with content verified;
#: - ``flagged-rebuild``: bit-rot with no donor generation is
#:   quarantined, reads stay loud, and the scrub demands a rebuild —
#:   never silent loss.
#:
#: Every row runs under the run's seed.  A partial rate must fire at
#: any seed within its phase's page reads (15–20 for the build, 43–54
#: for the query sweep): at 10% the build's coin missed every read at
#: 41 of seeds 0–199, testing nothing; at 30% it fired at all 200, and
#: the six-retry budget absorbed every fault.
STORAGE_SCENARIOS: tuple[tuple[str, str, str, int, float, str], ...] = (
    ("create", "storage.page_torn_write", "raise", 1, 0.0, "rebuilt"),
    ("create", "storage.page_torn_write", "raise", 3, 0.0, "rebuilt"),
    ("create", "storage.page_torn_write", "transient", 1, 0.0, "absorbed"),
    ("create", "storage.page_enospc", "enospc", 1, 0.0, "rebuilt"),
    ("create", "storage.page_enospc", "enospc", 5, 0.0, "rebuilt"),
    ("create", "storage.page_bit_flip", "corrupt", 2, 0.0, "flagged-rebuild"),
    ("build", "storage.page_read_eio_transient", "transient", 1, 0.30, "absorbed"),
    ("build", "storage.page_read_eio_transient", "transient", 1, 1.0, "degraded"),
    ("build", "storage.page_enospc", "enospc", 1, 0.0, "degraded"),
    ("build", "storage.page_bit_flip", "corrupt", 1, 0.0, "degraded"),
    ("build", "storage.page_torn_write", "raise", 1, 0.0, "loud"),
    ("writeback", "storage.pool_evict_writeback_fail", "raise", 1, 0.0, "rolled-back"),
    ("writeback", "storage.pool_evict_writeback_fail", "transient", 1, 0.0, "absorbed"),
    ("writeback", "storage.page_torn_write", "raise", 1, 0.0, "rolled-back"),
    ("writeback", "storage.page_enospc", "enospc", 1, 0.0, "rolled-back"),
    ("writeback", "storage.page_bit_flip", "corrupt", 1, 0.0, "repaired"),
    ("checkpoint", "storage.manifest_corrupt", "corrupt", 1, 0.0, "recovered"),
    ("checkpoint", "storage.manifest_corrupt", "raise", 1, 0.0, "recovered"),
    ("checkpoint", "store.bit_flip", "corrupt", 1, 0.0, "recovered"),
    ("checkpoint", "store.bit_flip", "corrupt", 2, 0.0, "absorbed"),
    ("scrub", "storage.page_read_eio_transient", "transient", 1, 0.0, "absorbed"),
    ("query", "storage.page_read_eio_transient", "transient", 1, 0.20, "absorbed"),
    ("query", "storage.page_read_eio_transient", "transient", 1, 1.0, "recovered"),
)


@contextmanager
def _env_overrides(overrides: dict[str, str | None]) -> Iterator[None]:
    """Set (or clear, for ``None``) environment variables, then restore."""
    import os

    saved = {key: os.environ.get(key) for key in overrides}
    try:
        for key, value in overrides.items():
            if value is None:
                os.environ.pop(key, None)
            else:
                os.environ[key] = value
        yield
    finally:
        for key, value in saved.items():
            if value is None:
                os.environ.pop(key, None)
            else:
                os.environ[key] = value


def _paged_content_mismatch(
    paged: PagedCSRGraph, view: CSRGraph
) -> str | None:
    """Why the paged snapshot diverges from the in-memory CSR view."""
    store = paged.store
    for name in _CSR_BUFFER_NAMES:
        got = store.read_slice(name, 0, store.length(name))
        if got != getattr(view, name):
            return f"buffer {name!r} differs from the fault-free baseline"
    return None


def _sweep_mismatch(paged: PagedCSRGraph, view: CSRGraph) -> str | None:
    """Full adjacency sweep through the pool, checked node by node."""
    for node in range(view.num_nodes):
        if list(paged.children(node)) != list(view.children(node)):
            return f"children({node}) diverge from the baseline"
        if list(paged.parents(node)) != list(view.parents(node)):
            return f"parents({node}) diverge from the baseline"
    return None


_StorageVerdict = tuple[str, bool, str]


def _storage_create(
    point: str, mode: str, hit: int, rate: float, seed: int, work: Path
) -> _StorageVerdict:
    """Fault the initial page-out; rebuilds must be loud, never lossy."""
    graph = _fixture_graph()
    view = graph.freeze()
    injector = FaultInjector(
        point, mode, trigger_on_hit=hit, seed=seed, rate=rate
    )
    failure: ReproError | None = None
    with injector:
        try:
            PagedCSRGraph.create(work / "store", graph).close()
        except (InjectedFaultError, PagedStoreError) as error:
            failure = error
    if failure is not None:
        # Loud failure: the rebuild at a fresh path must match baseline.
        with PagedCSRGraph.create(work / "rebuild", graph) as rebuilt:
            mismatch = _paged_content_mismatch(rebuilt, view)
        if mismatch is not None:
            return "broken", injector.fired, mismatch
        return "rebuilt", injector.fired, type(failure).__name__
    if not injector.fired:
        return "broken", False, "fault never fired"
    # Creation survived: either the retry absorbed a transient fault or
    # a page silently rotted — the scrub must tell the two apart.
    with PagedCSRGraph.open(work / "store") as paged:
        scrubbed = paged.scrub()
        if scrubbed.rebuild_required:
            bad = scrubbed.unrepairable[0]
            store = paged.store
            try:
                store.read_slice(bad.buffer, 0, store.length(bad.buffer))
            except PagedStoreError:
                pass  # quarantined page stays loud, as required
            else:
                return (
                    "broken",
                    True,
                    "unrepairable page still readable after scrub",
                )
            with PagedCSRGraph.create(work / "rebuild", graph) as rebuilt:
                mismatch = _paged_content_mismatch(rebuilt, view)
            if mismatch is not None:
                return "broken", True, mismatch
            return (
                "flagged-rebuild",
                True,
                f"{bad.buffer}[{bad.page_index}] quarantined, no donor",
            )
        mismatch = _paged_content_mismatch(paged, view)
        if mismatch is not None:
            return "broken", True, mismatch
    return "absorbed", True, "retry carried the page-out through"


def _storage_build(
    point: str, mode: str, hit: int, rate: float, seed: int, work: Path
) -> _StorageVerdict:
    """Fault a full external-engine build; degradation must be honest."""
    graph = _fixture_graph()
    baseline, base_rounds = bisim_partition(graph, engine="columnar")
    injector = FaultInjector(
        point, mode, trigger_on_hit=hit, seed=seed, rate=rate
    )
    crashed: InjectedFaultError | None = None
    result: tuple[Partition, int] | None = None
    with injector:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            try:
                result = bisim_partition(graph, engine="external")
            except InjectedFaultError as error:
                crashed = error
        degradations = [
            entry.message
            for entry in caught
            if isinstance(entry.message, StorageDegradationWarning)
        ]
    if crashed is not None:
        # Injected crashes must stay loud — degradation absorbing a
        # simulated crash would absorb real ones too.  A clean rerun
        # must then reproduce the baseline exactly.
        partition, rounds = bisim_partition(graph, engine="external")
        if partition.block_of != baseline.block_of or rounds != base_rounds:
            return "broken", True, "post-crash rerun diverges from baseline"
        return "loud", True, "crash propagated; clean rerun identical"
    assert result is not None
    partition, rounds = result
    if partition.block_of != baseline.block_of or rounds != base_rounds:
        return (
            "broken",
            injector.fired,
            "partition diverges from the columnar baseline",
        )
    if not injector.fired:
        return "broken", False, "fault never fired"
    if degradations:
        warning = degradations[0]
        return (
            "degraded",
            True,
            f"{warning.from_engine} -> {warning.to_engine}, "
            "partition identical",
        )
    return "absorbed", True, "retries absorbed every injected fault"


def _storage_writeback(
    point: str, mode: str, hit: int, rate: float, seed: int, work: Path
) -> _StorageVerdict:
    """Fault the dirty-page flush of a checkpoint (the COW write path)."""
    graph = _fixture_graph()
    view = graph.freeze()
    store_dir = work / "store"
    paged = PagedCSRGraph.create(store_dir, graph)
    store = paged.store
    # Same-value writes across two buffers: every page of both goes
    # dirty (4 pages — exactly the pool budget, so no early eviction),
    # and the flushed twins are byte-identical to generation 1's pages,
    # which is what makes older-generation donor repair possible.
    for name in ("label_ids", "child_targets"):
        for position in range(store.length(name)):
            store.write_element(name, position, store.read_element(name, position))
    injector = FaultInjector(
        point, mode, trigger_on_hit=hit, seed=seed, rate=rate
    )
    failure: ReproError | None = None
    with injector:
        try:
            store.checkpoint()
        except (InjectedFaultError, PagedStoreError) as error:
            failure = error
    retries = store.stats.retries
    paged.close(discard_dirty=True)
    with PagedCSRGraph.open(store_dir) as reopened:
        if failure is not None:
            if reopened.store.generation != 1:
                return (
                    "broken",
                    injector.fired,
                    "failed checkpoint published a generation",
                )
            mismatch = _paged_content_mismatch(reopened, view)
            if mismatch is not None:
                return "broken", True, mismatch
            return "rolled-back", injector.fired, type(failure).__name__
        scrubbed = reopened.scrub()
        if scrubbed.rebuild_required:
            return (
                "unrepaired",
                injector.fired,
                scrubbed.unrepairable[0].detail,
            )
        mismatch = _paged_content_mismatch(reopened, view)
        if mismatch is not None:
            return "broken", injector.fired, mismatch
        if scrubbed.repaired:
            return "repaired", injector.fired, scrubbed.repaired[0].detail
    if not injector.fired:
        return "broken", False, "fault never fired"
    return "absorbed", True, f"checkpoint committed after {retries} retry(ies)"


def _storage_checkpoint(
    point: str, mode: str, hit: int, rate: float, seed: int, work: Path
) -> _StorageVerdict:
    """Fault the manifest/CURRENT publication step of a checkpoint."""
    graph = _fixture_graph()
    view = graph.freeze()
    store_dir = work / "store"
    paged = PagedCSRGraph.create(store_dir, graph)
    injector = FaultInjector(
        point, mode, trigger_on_hit=hit, seed=seed, rate=rate
    )
    failure: ReproError | None = None
    with injector:
        try:
            paged.checkpoint()  # no dirty pages: pure publication
        except (InjectedFaultError, PagedStoreError) as error:
            failure = error
    paged.close(discard_dirty=True)
    with PagedCSRGraph.open(store_dir) as reopened:
        mismatch = _paged_content_mismatch(reopened, view)
        opened_generation = reopened.store.generation
    if mismatch is not None:
        return "broken", injector.fired, mismatch
    if not injector.fired:
        return "broken", False, "fault never fired"
    if mode == "corrupt" and opened_generation < 2:
        return (
            "recovered",
            True,
            f"fell back to generation {opened_generation}",
        )
    if failure is not None:
        return (
            "recovered",
            True,
            f"opened generation {opened_generation} after the crash",
        )
    return "absorbed", True, f"generation {opened_generation} readable"


def _storage_scrub(
    point: str, mode: str, hit: int, rate: float, seed: int, work: Path
) -> _StorageVerdict:
    """Fault the scrub's own verification reads; retries must carry it."""
    graph = _fixture_graph()
    view = graph.freeze()
    store_dir = work / "store"
    PagedCSRGraph.create(store_dir, graph).close()
    injector = FaultInjector(
        point, mode, trigger_on_hit=hit, seed=seed, rate=rate
    )
    with PagedCSRGraph.open(store_dir) as paged:
        with injector:
            scrubbed = paged.scrub()
        if not injector.fired:
            return "broken", False, "fault never fired"
        if not scrubbed.ok or scrubbed.repaired:
            return (
                "broken",
                True,
                "transient read fault misdiagnosed as corruption",
            )
        mismatch = _paged_content_mismatch(paged, view)
        if mismatch is not None:
            return "broken", True, mismatch
    return "absorbed", True, "scrub verified every page through retries"


def _storage_query(
    point: str, mode: str, hit: int, rate: float, seed: int, work: Path
) -> _StorageVerdict:
    """Fault page reads under a query-style adjacency sweep."""
    graph = _fixture_graph()
    view = graph.freeze()
    store_dir = work / "store"
    PagedCSRGraph.create(store_dir, graph).close()
    injector = FaultInjector(
        point, mode, trigger_on_hit=hit, seed=seed, rate=rate
    )
    failure: ReproError | None = None
    with PagedCSRGraph.open(store_dir) as paged:
        with injector:
            try:
                mismatch = _sweep_mismatch(paged, view)
            except PagedStoreError as error:
                failure = error
                mismatch = None
        give_ups = paged.stats.give_ups
        retries = paged.stats.retries
        if failure is not None:
            # The retry budget gave up loudly; once the fault clears,
            # the same store must serve the sweep unharmed.
            if give_ups < 1:
                return "broken", True, "read failed without a give-up count"
            mismatch = _sweep_mismatch(paged, view)
            if mismatch is not None:
                return "broken", True, mismatch
            return (
                "recovered",
                True,
                f"{give_ups} give-up(s), sweep clean after the fault cleared",
            )
        if mismatch is not None:
            return "broken", injector.fired, mismatch
        if not injector.fired:
            return "broken", False, "fault never fired"
        if give_ups:
            return "broken", True, "survivable fault rate still gave up"
    return "absorbed", True, f"{retries} retry(ies), zero give-ups"


_STORAGE_PHASES: dict[
    str,
    Callable[[str, str, int, float, int, Path], _StorageVerdict],
] = {
    "create": _storage_create,
    "build": _storage_build,
    "writeback": _storage_writeback,
    "checkpoint": _storage_checkpoint,
    "scrub": _storage_scrub,
    "query": _storage_query,
}


def _run_storage_scenario(
    phase: str,
    point: str,
    mode: str,
    hit: int,
    rate: float,
    expect: str,
    seed: int,
    work: Path,
) -> ChaosOutcome:
    overrides: dict[str, str | None] = {
        PAGE_BYTES_ENV_VAR: str(STORAGE_PAGE_BYTES),
        POOL_BUDGET_ENV_VAR: str(STORAGE_POOL_BUDGET),
        # Keep the suite fast: the retry *logic* is what is under test,
        # not the wall-clock of its sleeps.
        IO_BACKOFF_MS_ENV_VAR: "0",
        IO_RETRIES_ENV_VAR: None,
    }
    if 0 < rate < 1:
        # Probabilistic-rate scenarios: a one-page pool makes every
        # read a miss (maximal fault-point traffic, so the seeded coin
        # reliably fires), and a deeper retry budget keeps the give-up
        # probability negligible at survivable rates.
        overrides[POOL_BUDGET_ENV_VAR] = str(STORAGE_PAGE_BYTES)
        overrides[IO_RETRIES_ENV_VAR] = "6"
    work.mkdir(parents=True, exist_ok=True)
    mode_label = f"{mode}@{rate:g}" if rate > 0 else mode
    with _env_overrides(overrides):
        try:
            outcome, fired, detail = _STORAGE_PHASES[phase](
                point, mode, hit, rate, seed, work
            )
        except ReproError as error:
            return ChaosOutcome(
                phase,
                point,
                mode_label,
                True,
                "broken",
                f"unhandled {type(error).__name__}: {error}",
            )
    if outcome != expect and outcome not in ("broken", "unrepaired"):
        return ChaosOutcome(
            phase,
            point,
            mode_label,
            fired,
            "broken",
            f"expected {expect!r}, observed {outcome!r} ({detail})",
        )
    return ChaosOutcome(phase, point, mode_label, fired, outcome, detail)


def run_storage_suite(
    seed: int = 0,
    work_dir: str | Path | None = None,
) -> ChaosReport:
    """Run the storage crash matrix over the paged out-of-core stack.

    For every scenario in :data:`STORAGE_SCENARIOS`: build the fixture
    graph against a deliberately tiny paged store (64-byte pages, a
    four-page pool), arm one storage fault point in one mode, attack
    one phase of the store lifecycle — initial page-out, an
    external-engine build, the copy-on-write flush, manifest
    publication, the scrub itself, or a query-style read sweep — and
    hold the result to the zero-silent-loss contract: every scenario
    must end with state digest-verified identical to the fault-free
    baseline, or with a *flagged* degradation, rollback, or rebuild.
    Anything that diverges silently is reported as ``broken``.

    Args:
        seed: determinism anchor (drives bit-flip positions, the
            seeded retry jitter and the probabilistic fault coin).
            Every scenario gets this same seed, so a row's outcome and
            counts do not move when other rows are added or removed.
        work_dir: where scenario store directories are built; a
            temporary directory (removed afterwards) when omitted.

    Returns:
        A :class:`ChaosReport`; ``report.ok`` is the suite verdict.
    """
    import tempfile

    if work_dir is None:
        with tempfile.TemporaryDirectory(prefix="dk-storage-") as scratch:
            return run_storage_suite(seed=seed, work_dir=scratch)
    directory = Path(work_dir)
    directory.mkdir(parents=True, exist_ok=True)
    report = ChaosReport(seed=seed, title="storage crash matrix")
    for position, scenario in enumerate(STORAGE_SCENARIOS):
        phase, point, mode, hit, rate, expect = scenario
        scenario_dir = (
            directory
            / f"{position:02d}--{phase}--{point.split('.', 1)[1]}--{mode}"
        )
        report.outcomes.append(
            _run_storage_scenario(
                phase, point, mode, hit, rate, expect,
                seed, scenario_dir,
            )
        )
    return report
