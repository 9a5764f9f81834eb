"""Tests for :mod:`repro.maintenance` — transactions, journal, audit, repair.

The subsystem's contract, stated once: every mutating operation either
completes and passes its audit, rolls the store back bit-identically, or
ends in a repaired (re-audited) index — and with a journal attached, the
whole history replays from the base snapshot to the same partition.
"""

import errno
import random

import pytest

from repro.bench.harness import ExperimentConfig, load_dataset
from repro.core.dindex import DKIndex
from repro.core.updates import dk_add_edge
from repro.exceptions import (
    InjectedFaultError,
    JournalError,
    MaintenanceError,
    QuarantineError,
    UpdateError,
)
from repro.graph.builder import graph_from_edges
from repro.graph.datagraph import DataGraph
from repro.indexes.evaluation import evaluate_on_index
from repro.maintenance.audit import (
    AUDIT_LEVELS,
    audit_level_from_env,
    run_audit,
    scoped_fast_ok,
)
from repro.maintenance.faults import FAULT_POINTS, FaultInjector, inject_faults
from repro.maintenance import journal as journal_module
from repro.maintenance.journal import (
    JOURNAL_VERSION,
    JOURNALED_OPS,
    UpdateJournal,
    _decode_line,
    _encode_line,
    scan_journal,
)
from repro.maintenance import pipeline as pipeline_module
from repro.maintenance.pipeline import MaintenanceConfig, UpdatePipeline
from repro.maintenance.repair import repair_index
from repro.maintenance.transaction import UpdateTransaction, state_fingerprint
from repro.paths.evaluator import evaluate_on_data_graph
from repro.paths.query import make_query


def make_store(journal_path=None, audit="fast", auto_repair=True):
    """A small store with shared labels, a cycle and index edges to spare."""
    graph = graph_from_edges(
        ["db", "m", "t", "a", "m", "t", "a", "m", "x", "t"],
        [
            (0, 1), (1, 2), (1, 3),
            (0, 4), (4, 5), (4, 6),
            (0, 7), (7, 8), (7, 9), (7, 10),
            (7, 2),  # a -> m reference edge, closes a cycle region
        ],
    )
    dk = DKIndex.build(graph, {"t": 2, "x": 3})
    dk.maintenance = MaintenanceConfig(
        audit=audit, journal_path=journal_path, auto_repair=auto_repair
    )
    return dk


def store_queries(dk):
    """Index answers for a battery of label paths (validation on)."""
    answers = {}
    for text in ("t", "m.t", "db.m", "db.m.t", "db.m.a", "m.x"):
        answers[text] = evaluate_on_index(dk.index, make_query(text))
    return answers


# ------------------------- transactions --------------------------------


def test_add_edge_scope_rolls_back_bit_identically():
    dk = make_store()
    before = state_fingerprint(dk.graph, dk.index)
    with pytest.raises(InjectedFaultError):
        with UpdateTransaction(dk.graph, dk.index, "add-edge", edge=(2, 9)):
            with inject_faults("add_edge.lowered"):
                dk_add_edge(dk.graph, dk.index, 2, 9)
    assert state_fingerprint(dk.graph, dk.index) == before


def test_remove_edge_scope_restores_adjacency_order():
    dk = make_store()
    # (7, 2) sits mid-list in node 7's children; the rollback must put
    # it back at the same position, not just back in the set.
    before = state_fingerprint(dk.graph, dk.index)
    with pytest.raises(InjectedFaultError):
        with UpdateTransaction(dk.graph, dk.index, "remove-edge", edge=(7, 2)):
            with inject_faults("remove_edge.lowered"):
                from repro.core.updates import dk_remove_edge

                dk_remove_edge(dk.graph, dk.index, 7, 2)
    assert state_fingerprint(dk.graph, dk.index) == before


def test_full_scope_rolls_back_promote():
    dk = make_store()
    before = state_fingerprint(dk.graph, dk.index)
    with pytest.raises(RuntimeError):
        with UpdateTransaction(dk.graph, dk.index, "full"):
            from repro.core.promote import promote_requirements

            promote_requirements(dk.graph, dk.index, {"m": 2, "t": 2})
            raise RuntimeError("boom after the writes")
    assert state_fingerprint(dk.graph, dk.index) == before


@pytest.mark.parametrize(
    "scope, edge",
    [("full", None), ("add-edge", (2, 9)), ("remove-edge", (7, 2))],
)
def test_rollback_never_serves_a_view_frozen_inside_it(scope, edge):
    dk = make_store()
    graph, index = dk.graph, dk.index
    graph_view, index_view = graph.freeze(), index.freeze()
    src, dst = edge or (2, 9)
    with pytest.raises(RuntimeError):
        with UpdateTransaction(graph, index, scope, edge):
            if scope == "remove-edge":
                graph.remove_edge(src, dst)
            else:
                graph.add_edge(src, dst)
            # Toggle the one index edge an edge update may toggle.
            source, target = index.node_of[src], index.node_of[dst]
            if target in index.children[source]:
                index.remove_index_edge(source, target)
            else:
                index.add_index_edge(source, target)
            inner_graph, inner_index = graph.freeze(), index.freeze()
            raise RuntimeError("boom after freezing")
    # The views frozen inside the rolled-back transaction are dropped and
    # stale; the next freeze rebuilds from the restored state.
    for owner, inner, before in (
        (graph, inner_graph, graph_view),
        (index, inner_index, index_view),
    ):
        assert owner._frozen is None
        assert inner.source_version != owner.mutation_version
        view = owner.freeze()
        assert view is not inner
        assert view.source_version == owner.mutation_version
        assert view.child_offsets == before.child_offsets
        assert view.child_targets == before.child_targets
        assert view.parent_targets == before.parent_targets


def test_rollback_keeps_versions_growing():
    dk = make_store()
    graph = dk.graph
    graph.freeze()
    before = graph.mutation_version
    with pytest.raises(RuntimeError):
        with UpdateTransaction(graph, dk.index, "add-edge", edge=(2, 9)):
            graph.add_edge(2, 9)
            inner = graph.freeze()
            raise RuntimeError("boom")
    assert graph.mutation_version > inner.source_version > before
    # A later mutation never makes the inner view look current again.
    graph.add_edge(2, 9)
    assert graph.frozen_view is None
    assert inner.source_version != graph.mutation_version


def test_rollback_without_writes_keeps_the_view_and_version():
    dk = make_store()
    view, version = dk.graph.freeze(), dk.graph.mutation_version
    for scope, edge in (("full", None), ("add-edge", (2, 9))):
        with pytest.raises(RuntimeError):
            with UpdateTransaction(dk.graph, dk.index, scope, edge):
                raise RuntimeError("boom before any write")
        assert dk.graph.frozen_view is view
        assert dk.graph.mutation_version == version


def test_clean_exit_keeps_the_writes():
    dk = make_store()
    before = state_fingerprint(dk.graph, dk.index)
    with UpdateTransaction(dk.graph, dk.index, "add-edge", edge=(2, 9)):
        dk_add_edge(dk.graph, dk.index, 2, 9)
    assert state_fingerprint(dk.graph, dk.index) != before
    assert dk.graph.has_edge(2, 9)


def test_edge_scope_requires_edge():
    dk = make_store()
    with pytest.raises(MaintenanceError):
        UpdateTransaction(dk.graph, dk.index, "add-edge")


def test_transaction_rejects_foreign_index():
    dk = make_store()
    other = make_store()
    with pytest.raises(MaintenanceError):
        UpdateTransaction(dk.graph, other.index)


# ------------------------- journal -------------------------------------


def test_journal_records_one_record_per_committed_operation(tmp_path):
    path = tmp_path / "journal.jsonl"
    dk = make_store(journal_path=path)
    dk.add_edge(2, 9)
    with pytest.raises(UpdateError):
        dk.add_edge(2, 9)  # duplicate: raises and rolls back, no record
    dk.add_edge(3, 5)
    entries = list(UpdateJournal(path).entries())
    assert [(entry.type, entry.seq, entry.op, entry.args) for entry in entries] == [
        ("base", 0, "", {}),
        ("op", 1, "add_edge", {"src": 2, "dst": 9}),
        ("op", 2, "add_edge", {"src": 3, "dst": 5}),
    ]


def test_begin_and_abort_are_stubs_that_raise(tmp_path):
    journal = UpdateJournal.open(tmp_path / "j.jsonl", make_store())
    with pytest.raises(JournalError, match="commit"):
        journal.begin("add_edge", {"src": 2, "dst": 9})
    with pytest.raises(JournalError):
        journal.abort(1, reason="rolled back")
    assert [entry.type for entry in journal.entries()] == ["base"]


def test_journal_base_written_once(tmp_path):
    path = tmp_path / "journal.jsonl"
    dk = make_store(journal_path=path)
    dk.add_edge(2, 9)
    # Re-attaching to a non-empty journal must not re-base.
    journal = UpdateJournal.open(path, dk)
    assert [e.type for e in journal.entries()][0] == "base"
    assert sum(1 for e in journal.entries() if e.type == "base") == 1
    with pytest.raises(JournalError):
        journal.write_base(dk)


def test_journal_rejects_unknown_op(tmp_path):
    dk = make_store()
    journal = UpdateJournal.open(tmp_path / "j.jsonl", dk)
    with pytest.raises(JournalError):
        journal.commit("compact", {})
    assert "compact" not in JOURNALED_OPS


def test_journal_tolerates_torn_final_line(tmp_path):
    path = tmp_path / "journal.jsonl"
    dk = make_store(journal_path=path)
    dk.add_edge(2, 9)
    with open(path, "a", encoding="utf-8") as handle:
        handle.write('{"type": "op", "seq": 99')  # crash mid-write
    journal = UpdateJournal(path)
    assert [e.type for e in journal.entries()] == ["base", "op"]
    replayed = journal.replay()
    assert replayed.graph.has_edge(2, 9)


def test_journal_rejects_malformed_complete_line(tmp_path):
    path = tmp_path / "journal.jsonl"
    dk = make_store(journal_path=path)
    dk.add_edge(2, 9)
    with open(path, "a", encoding="utf-8") as handle:
        handle.write("not json at all\n")
    with pytest.raises(JournalError):
        list(UpdateJournal(path).entries())


def test_journal_lines_are_crc_framed(tmp_path):
    assert JOURNAL_VERSION == 2
    path = tmp_path / "journal.jsonl"
    dk = make_store(journal_path=path)
    dk.add_edge(2, 9)
    for line in path.read_text(encoding="utf-8").splitlines():
        prefix, _, payload = line.partition(" ")
        assert len(prefix) == 8 and int(prefix, 16) >= 0
        record = _decode_line(line)
        assert record is not None and "type" in record


def test_mid_file_corruption_names_path_line_and_prefix(tmp_path):
    path = tmp_path / "journal.jsonl"
    dk = make_store(journal_path=path)
    dk.add_edge(2, 9)
    dk.add_edge(3, 5)
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    lines[2] = "deadbeef" + lines[2][8:]  # destroy the second record
    path.write_text("".join(lines), encoding="utf-8")
    with pytest.raises(JournalError) as error:
        list(UpdateJournal(path).entries())
    assert f"{path}:3" in str(error.value)
    assert "replayable prefix: 2 entries" in str(error.value)


def test_scan_journal_stops_at_corrupt_operation_record(tmp_path):
    path = tmp_path / "journal.jsonl"
    dk = make_store(journal_path=path)
    dk.add_edge(2, 9)
    dk.add_edge(3, 5)
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    lines[2] = "deadbeef" + lines[2][8:]
    path.write_text("".join(lines), encoding="utf-8")
    scan = scan_journal(path)  # forgiving twin of entries(): never raises
    assert scan.damaged and scan.corrupt_lines == [3]
    assert scan.committed_ops == [(1, "add_edge", {"src": 2, "dst": 9})]
    assert any("unrecoverable" in note for note in scan.notes)


def test_scan_journal_corrupt_base_still_reads_operations(tmp_path):
    path = tmp_path / "journal.jsonl"
    dk = make_store(journal_path=path)
    dk.add_edge(2, 9)
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    lines[0] = "deadbeef" + lines[0][8:]
    path.write_text("".join(lines), encoding="utf-8")
    scan = scan_journal(path)
    assert scan.base_document is None
    assert scan.corrupt_lines == [1]
    assert scan.committed_ops == [(1, "add_edge", {"src": 2, "dst": 9})]


def test_replay_requires_base(tmp_path):
    path = tmp_path / "no-base.jsonl"
    path.write_text('{"type":"begin","seq":1,"op":"add_edge","args":{}}\n')
    with pytest.raises(JournalError):
        UpdateJournal(path).replay()


def test_dangling_begin_is_skipped_by_replay(tmp_path):
    # A begin record without its commit, as older journals hold after
    # a crash mid-operation.
    path = tmp_path / "journal.jsonl"
    dk = make_store(journal_path=path)
    dk.add_edge(2, 9)
    with open(path, "a", encoding="utf-8") as handle:
        handle.write('{"type":"begin","seq":77,"op":"add_edge","args":{"src":3,"dst":8}}\n')
    replayed = UpdateJournal(path).replay()
    assert replayed.graph.has_edge(2, 9)
    assert not replayed.graph.has_edge(3, 8)


def committed_edges(path):
    """``(src, dst)`` of every committed ``add_edge`` in the journal."""
    scan = scan_journal(path)
    assert not scan.damaged, scan.notes
    return [(args["src"], args["dst"]) for _seq, _op, args in scan.committed_ops]


def test_reattached_journal_cuts_a_torn_tail_before_appending(tmp_path):
    path = tmp_path / "journal.jsonl"
    dk = make_store(journal_path=path)
    dk.add_edge(2, 9)
    line = _encode_line(
        {"type": "op", "seq": 2, "op": "add_edge", "args": {"src": 4, "dst": 8}}
    )
    with open(path, "a", encoding="utf-8") as handle:
        handle.write(line[: len(line) // 2])  # a crash mid-append
    reattached = UpdateJournal(path).replay()
    reattached.maintenance = MaintenanceConfig(journal_path=path)
    reattached.add_edge(3, 5)
    reattached.add_edge(1, 10)
    assert committed_edges(path) == [(2, 9), (3, 5), (1, 10)]
    replayed = UpdateJournal(path).replay()
    assert state_fingerprint(replayed.graph, replayed.index) == state_fingerprint(
        reattached.graph, reattached.index
    )


@pytest.mark.parametrize("mode", ["enospc", "transient"])
def test_failed_append_rolls_back_and_cuts_the_file_back(tmp_path, mode):
    path = tmp_path / "journal.jsonl"
    dk = make_store(journal_path=path)
    dk.add_edge(2, 9)
    before = state_fingerprint(dk.graph, dk.index)
    durable = path.read_bytes()
    with pytest.raises(OSError):
        with FaultInjector("journal.torn_append", mode):
            dk.add_edge(3, 5)  # half the record written, then the error
    assert state_fingerprint(dk.graph, dk.index) == before
    assert path.read_bytes() == durable
    dk.add_edge(1, 10)
    assert committed_edges(path) == [(2, 9), (1, 10)]


def test_failed_fsync_rolls_back_and_cuts_the_record(tmp_path, monkeypatch):
    path = tmp_path / "journal.jsonl"
    dk = make_store(journal_path=path)
    dk.add_edge(2, 9)
    before = state_fingerprint(dk.graph, dk.index)
    durable = path.read_bytes()
    real_fsync = journal_module.os.fsync
    calls = []

    def fsync_failing_once(fd):
        calls.append(fd)
        if len(calls) == 1:
            raise OSError(errno.EIO, "injected fsync failure")
        real_fsync(fd)

    monkeypatch.setattr(journal_module.os, "fsync", fsync_failing_once)
    with pytest.raises(OSError, match="fsync"):
        dk.add_edge(3, 5)  # the whole record written, its fsync fails
    assert state_fingerprint(dk.graph, dk.index) == before
    assert path.read_bytes() == durable
    dk.add_edge(1, 10)
    assert committed_edges(path) == [(2, 9), (1, 10)]


def test_simulated_crash_mid_append_leaves_the_torn_tail(tmp_path):
    path = tmp_path / "journal.jsonl"
    dk = make_store(journal_path=path)
    dk.add_edge(2, 9)
    durable = path.read_bytes()
    with pytest.raises(InjectedFaultError):
        with inject_faults("journal.torn_append"):
            dk.add_edge(3, 5)
    torn = path.read_bytes()
    assert torn.startswith(durable) and len(torn) > len(durable)
    assert not torn.endswith(b"\n")
    assert [entry.type for entry in UpdateJournal(path).entries()] == ["base", "op"]
    # The same process carries on: the next append cuts the tail first.
    dk.add_edge(1, 10)
    assert committed_edges(path) == [(2, 9), (1, 10)]


def test_final_record_without_its_newline_is_kept_and_terminated(tmp_path):
    path = tmp_path / "journal.jsonl"
    make_store(journal_path=path).add_edge(2, 9)
    path.write_bytes(path.read_bytes()[:-1])  # the newline never landed
    reattached = UpdateJournal(path).replay()
    assert reattached.graph.has_edge(2, 9)
    reattached.maintenance = MaintenanceConfig(journal_path=path)
    reattached.add_edge(3, 5)
    assert committed_edges(path) == [(2, 9), (3, 5)]


def test_append_refuses_a_journal_with_a_corrupt_line(tmp_path):
    path = tmp_path / "journal.jsonl"
    make_store(journal_path=path).add_edge(2, 9)
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    lines[1] = "deadbeef" + lines[1][8:]
    path.write_text("".join(lines), encoding="utf-8")
    damaged = path.read_bytes()
    dk = make_store(journal_path=path)
    before = state_fingerprint(dk.graph, dk.index)
    with pytest.raises(JournalError, match="corrupt"):
        dk.add_edge(3, 5)
    assert state_fingerprint(dk.graph, dk.index) == before
    assert path.read_bytes() == damaged


def test_replay_partition_identical_after_random_edge_sequence(tmp_path):
    """The acceptance criterion: 100 journaled random edge ops, then
    ``replay()`` rebuilds the identical partition from the base snapshot."""
    rng = random.Random(7)
    graph = DataGraph()
    nodes = [graph.add_node(rng.choice("abcx")) for _ in range(30)]
    for position, node in enumerate(nodes):
        parent = graph.root if position == 0 else nodes[rng.randrange(position)]
        graph.add_edge_if_absent(parent, node)
    dk = DKIndex.build(graph, {"x": 2, "a": 1})
    path = tmp_path / "journal.jsonl"
    dk.maintenance = MaintenanceConfig(audit="fast", journal_path=path)

    applied = 0
    while applied < 100:
        src = rng.randrange(graph.num_nodes)
        dst = rng.randrange(1, graph.num_nodes)
        if src == dst:
            continue
        if graph.has_edge(src, dst):
            if rng.random() < 0.2:  # mix some removals into the stream
                dk.remove_edge(src, dst)
                applied += 1
            continue
        dk.add_edge(src, dst)
        applied += 1

    replayed = UpdateJournal(path).replay()
    assert replayed.index.node_of == dk.index.node_of
    assert replayed.index.extents == dk.index.extents
    assert replayed.index.k == dk.index.k
    assert state_fingerprint(replayed.graph, replayed.index) == state_fingerprint(
        dk.graph, dk.index
    )


# ------------------------- audit tiers ---------------------------------


def test_audit_off_sees_nothing():
    dk = make_store()
    dk.index.k[dk.index.node_of[2]] += 10  # corrupt
    outcome = run_audit(dk.index, "off")
    assert outcome.ok


def test_fast_audit_catches_violation_in_touched_neighbourhood():
    dk = make_store()
    victim = dk.index.node_of[2]
    parent = next(iter(dk.index.parents[victim]))
    dk.index.k[victim] += 10
    outcome = run_audit(dk.index, "fast", [parent])
    assert not outcome.ok
    assert any("D(k) constraint" in problem for problem in outcome.problems)


def test_fast_audit_full_scan_when_no_touched_set():
    dk = make_store()
    dk.index.k[dk.index.node_of[2]] += 10
    outcome = run_audit(dk.index, "fast")
    assert not outcome.ok


def test_deep_audit_catches_corruption_anywhere():
    dk = make_store()
    dk.index.k[dk.index.node_of[2]] += 10
    # Touched set far from the corruption: fast scoping would miss it,
    # deep must not.
    outcome = run_audit(dk.index, "deep", [0])
    assert not outcome.ok


def test_deep_audit_spot_checks_touched_extents():
    dk = make_store()
    outcome = run_audit(dk.index, "deep", list(range(dk.index.num_nodes)))
    assert outcome.ok
    assert outcome.nodes_spot_checked > 0


def test_run_audit_rejects_unknown_level():
    dk = make_store()
    with pytest.raises(MaintenanceError):
        run_audit(dk.index, "paranoid")
    assert "paranoid" not in AUDIT_LEVELS


def test_scoped_fast_ok_expected_k_detects_drift():
    dk = make_store()
    victim = dk.index.node_of[2]
    assert scoped_fast_ok(dk.index, [victim], expected={victim: dk.index.k[victim]})
    dk.index.k[victim] += 10
    assert not scoped_fast_ok(
        dk.index, [victim], expected={victim: dk.index.k[victim] - 10}
    )


@pytest.mark.parametrize("dataset", ["xmark", "nasa"])
def test_fast_tier_audits_each_edge_in_scope_and_never_scans_the_index(
    monkeypatch, dataset
):
    # What keeps the default tier cheap enough to leave on: over the
    # paper's 100-edge update stream every commit takes the scoped
    # boolean sweep, and none falls back to a full-index run_audit.
    monkeypatch.delenv("DKINDEX_AUDIT", raising=False)
    calls = {"scoped_fast_ok": 0, "run_audit": 0}

    def counting(name, function):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return function(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(
        pipeline_module,
        "scoped_fast_ok",
        counting("scoped_fast_ok", pipeline_module.scoped_fast_ok),
    )
    monkeypatch.setattr(
        pipeline_module, "run_audit", counting("run_audit", run_audit)
    )
    bundle = load_dataset(dataset, ExperimentConfig(scale=0.2))
    dk = bundle.fresh_dk()
    assert dk.pipeline.config.audit == "fast"
    for src, dst in bundle.update_edges:
        dk.add_edge(src, dst)
    assert calls == {"scoped_fast_ok": 100, "run_audit": 0}


def test_audit_level_from_env(monkeypatch):
    monkeypatch.delenv("DKINDEX_AUDIT", raising=False)
    assert audit_level_from_env() == "fast"
    monkeypatch.setenv("DKINDEX_AUDIT", "deep")
    assert audit_level_from_env() == "deep"
    monkeypatch.setenv("DKINDEX_AUDIT", "loud")
    with pytest.raises(MaintenanceError):
        audit_level_from_env()


# ------------------------- fault injection -----------------------------


def test_fault_injector_rejects_unknown_point_and_mode():
    with pytest.raises(MaintenanceError):
        FaultInjector("add_edge.nowhere")
    with pytest.raises(MaintenanceError):
        FaultInjector("add_edge.planned", mode="explode")


def test_single_armed_slot():
    with inject_faults("add_edge.planned"):
        with pytest.raises(MaintenanceError):
            with inject_faults("add_edge.lowered"):
                pass  # pragma: no cover


def test_fault_points_registry_documents_every_point():
    assert "pipeline.pre_audit" in FAULT_POINTS
    assert all(description for description in FAULT_POINTS.values())


# ------------------------- pipeline ------------------------------------


def test_pipeline_repairs_injected_corruption():
    dk = make_store(audit="deep")
    with inject_faults("pipeline.pre_audit", mode="corrupt", seed=3):
        report = dk.add_edge(2, 9)
    assert dk.graph.has_edge(2, 9) and report is not None
    pipeline = dk.pipeline
    assert not pipeline.quarantined
    assert pipeline.last_repair is not None and pipeline.last_repair.repaired
    # The healed index answers queries exactly like the data graph.
    for text in ("t", "m.t", "db.m.t", "m.x"):
        query = make_query(text)
        assert evaluate_on_index(dk.index, query) == evaluate_on_data_graph(
            dk.graph, query
        )


def test_pipeline_quarantines_without_auto_repair():
    dk = make_store(audit="deep", auto_repair=False)
    with pytest.raises(QuarantineError):
        with inject_faults("pipeline.pre_audit", mode="corrupt", seed=3):
            dk.add_edge(2, 9)
    assert dk.pipeline.quarantined
    with pytest.raises(QuarantineError):
        dk.add_edge(3, 8)  # further updates refused while quarantined


def test_pipeline_rolls_back_raise_faults_and_journals_nothing(tmp_path):
    path = tmp_path / "journal.jsonl"
    dk = make_store(journal_path=path)
    before = state_fingerprint(dk.graph, dk.index)
    with pytest.raises(InjectedFaultError):
        with inject_faults("add_edge.graph_mutated"):
            dk.add_edge(2, 9)
    assert state_fingerprint(dk.graph, dk.index) == before
    types = [entry.type for entry in UpdateJournal(path).entries()]
    assert types == ["base"]


def test_pipeline_batch_is_atomic():
    dk = make_store()
    before = state_fingerprint(dk.graph, dk.index)
    with pytest.raises(InjectedFaultError):
        with inject_faults("add_edge.planned", trigger_on_hit=2):
            dk.add_edges([(2, 9), (3, 8)])
    # The first edge of the batch must be gone too.
    assert state_fingerprint(dk.graph, dk.index) == before
    reports = dk.add_edges([(2, 9), (3, 8)])
    assert len(reports) == 2 and dk.graph.has_edge(2, 9)


def test_pipeline_answers_stay_exact_across_facade_ops():
    dk = make_store(audit="deep")
    dk.add_edge(2, 9)
    dk.remove_edge(7, 2)
    sub = graph_from_edges(["m", "t", "a"], [(0, 1), (1, 2), (1, 3)])
    dk.add_subgraph(sub)
    dk.promote({"m": 1})
    dk.demote({"t": 1})
    for text, answer in store_queries(dk).items():
        assert answer == evaluate_on_data_graph(dk.graph, make_query(text)), text


def test_facade_lazy_pipeline_reuse():
    dk = make_store()
    assert dk.pipeline is dk.pipeline
    assert isinstance(dk.pipeline, UpdatePipeline)


# ------------------------- repair ladder -------------------------------


def test_repair_lower_rung_heals_sound_violations():
    dk = make_store()
    # Drop a parent's similarity below a high-k child's requirement:
    # Definition 3 breaks, but every k is still honest (lowering always
    # is), so the cheapest rung — a lowering sweep — can heal it.
    child = max(
        (n for n in range(dk.index.num_nodes) if dk.index.parents[n]),
        key=lambda n: dk.index.k[n],
    )
    assert dk.index.k[child] >= 2
    parent = next(iter(dk.index.parents[child]))
    dk.index.k[parent] = 0
    outcome = run_audit(dk.index, "deep")
    assert not outcome.ok
    report = repair_index(dk.graph, dk.index, dk.requirements, outcome)
    assert report.repaired
    assert report.strategy == "lower"
    assert report.index is not None
    assert run_audit(report.index, "deep").ok
    assert "lower" in report.format()


def test_repair_escalates_past_lowering_for_dishonest_similarity():
    dk = make_store()
    victim = dk.index.node_of[2]
    dk.index.k[victim] += 10
    outcome = run_audit(dk.index, "deep")
    assert not outcome.ok
    report = repair_index(dk.graph, dk.index, dk.requirements, outcome)
    assert report.repaired
    # Lowering to the Definition-3 ceiling still overclaims similarity,
    # so the ladder must climb to a rung that recomputes it.
    assert report.strategy in ("reindex", "rebuild")
    assert run_audit(report.index, "deep").ok


def test_repair_falls_through_to_rebuild_on_partition_damage():
    dk = make_store()
    # Tear a node out of its extent: lowering cannot fix a partition
    # hole, so the ladder must escalate past the first rung.
    victim = dk.index.node_of[2]
    dk.index.extents[victim].remove(2)
    outcome = run_audit(dk.index, "deep")
    assert not outcome.ok
    report = repair_index(dk.graph, dk.index, dk.requirements, outcome)
    assert report.repaired
    assert report.strategy in ("reindex", "rebuild")
    assert report.index is not None
    assert run_audit(report.index, "deep").ok
    assert len(report.attempts) >= 2
