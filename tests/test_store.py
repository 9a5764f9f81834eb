"""Tests for :mod:`repro.maintenance.store` — the durability subsystem.

The contract under test: every persistence path is crash-atomic (a
crash leaves the old file or the new one, never a hybrid), every saved
byte is covered by an integrity check (any single-byte flip is a typed
error, never a silently different index), and the checkpoint store's
recovery ladder turns whatever a crash or bit-rot left behind into a
deep-audited index — flagging, never hiding, any committed operation
it could not get back.
"""

import json
import os
import random
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import json_values
from repro.bench.harness import (
    ExperimentConfig,
    load_dataset,
    sample_reference_edges,
)
from repro.core.dindex import DKIndex
from repro.exceptions import (
    CheckpointError,
    InjectedFaultError,
    JournalError,
    RecoveryError,
    SerializationError,
)
from repro.datasets.nasa import generate_nasa
from repro.graph.builder import graph_from_edges
from repro.graph.serialize import load_graph, save_graph
from repro.indexes.evaluation import evaluate_on_index
from repro.indexes.serialize import index_to_dict, load_dk_index, save_dk_index
from repro.maintenance.chaos import run_durability_suite
from repro.maintenance.faults import FaultInjector, inject_faults
from repro.maintenance.journal import (
    UpdateJournal,
    _encode_line,
    _frame,
    encode_base_line,
    scan_journal,
)
from repro.maintenance.pipeline import UpdatePipeline
from repro.maintenance.store import (
    CURRENT_NAME,
    TMP_SUFFIX,
    CheckpointStore,
    atomic_write_document,
    atomic_write_text,
    journal_name,
    read_document,
    seal,
    snapshot_name,
    unseal,
)
from repro.paths.query import make_query
from repro.workload.generator import WorkloadConfig, generate_test_paths


def small_dk():
    """A compact store with shared labels and a multi-node extent."""
    graph = graph_from_edges(
        ["db", "m", "t", "a", "m", "t", "a", "m", "x", "t"],
        [
            (0, 1), (1, 2), (1, 3),
            (0, 4), (4, 5), (4, 6),
            (0, 7), (7, 8), (7, 9), (7, 10),
            (7, 2),
        ],
    )
    return DKIndex.build(graph, {"t": 2, "x": 3})


def answers(dk):
    """Index answers for a battery of label paths."""
    return {
        text: evaluate_on_index(dk.index, make_query(text))
        for text in ("t", "m.t", "db.m", "db.m.t", "db.m.a", "m.x")
    }


def flip_byte(path: Path, offset: int, mask: int = 0x01) -> None:
    raw = bytearray(path.read_bytes())
    raw[offset % len(raw)] ^= mask
    path.write_bytes(bytes(raw))


# ------------------------- atomic writes -------------------------------


def test_atomic_write_replaces_and_leaves_no_temp(tmp_path):
    target = tmp_path / "doc.txt"
    atomic_write_text(target, "old")
    atomic_write_text(target, "new content")
    assert target.read_text(encoding="utf-8") == "new content"
    assert list(tmp_path.glob(f"*{TMP_SUFFIX}")) == []


@pytest.mark.parametrize("point", ["store.torn_write", "store.partial_rename"])
def test_crash_before_rename_preserves_old_content(tmp_path, point):
    target = tmp_path / "doc.txt"
    atomic_write_text(target, "old")
    with pytest.raises(InjectedFaultError):
        with inject_faults(point):
            atomic_write_text(target, "new content")
    assert target.read_text(encoding="utf-8") == "old"


def test_missing_fsync_crash_leaves_detectable_half_write(tmp_path):
    target = tmp_path / "doc.json"
    document = {"format": "x", "payload": list(range(40))}
    with pytest.raises(InjectedFaultError):
        with inject_faults("store.missing_fsync"):
            atomic_write_document(target, document)
    text = seal(json.dumps(document))
    assert target.read_text(encoding="utf-8") == text[: len(text) // 2]
    with pytest.raises(SerializationError):
        read_document(target)


# ------------------------- sealed documents ----------------------------


def test_seal_unseal_roundtrip():
    body = json.dumps({"a": 1})
    text = seal(body)
    recovered, sealed = unseal(text)
    assert recovered == body
    assert sealed


def test_unseal_passes_legacy_text_through():
    legacy = '{"format": "repro-datagraph"}\n'
    recovered, sealed = unseal(legacy)
    assert recovered == legacy
    assert not sealed


def test_read_document_verifies_the_seal(tmp_path):
    target = tmp_path / "doc.json"
    atomic_write_document(target, {"format": "x", "value": 7})
    assert read_document(target)["value"] == 7
    flip_byte(target, 12)
    with pytest.raises(SerializationError):
        read_document(target)


def test_read_document_accepts_unsealed_legacy_files(tmp_path):
    target = tmp_path / "legacy.json"
    target.write_text(json.dumps({"format": "x", "value": 3}), encoding="utf-8")
    assert read_document(target)["value"] == 3


def test_unsupported_seal_version_rejected(tmp_path):
    body = json.dumps({"a": 1})
    footer = json.dumps(
        {"format": "repro-seal", "version": 99, "algorithm": "sha256", "digest": "0"}
    )
    target = tmp_path / "doc.json"
    target.write_text(body + "\n" + footer + "\n", encoding="utf-8")
    with pytest.raises(SerializationError):
        read_document(target)


def test_legacy_unsealed_index_and_graph_still_load(tmp_path):
    dk = small_dk()
    index_path = tmp_path / "index.json"
    index_path.write_text(
        json.dumps(
            index_to_dict(
                dk.index, embed_graph=True, requirements=dict(dk.requirements)
            )
        ),
        encoding="utf-8",
    )
    restored = load_dk_index(index_path)
    assert answers(restored) == answers(dk)

    from repro.graph.serialize import graph_to_dict

    graph_path = tmp_path / "graph.json"
    graph_path.write_text(json.dumps(graph_to_dict(dk.graph)), encoding="utf-8")
    assert load_graph(graph_path).num_edges == dk.graph.num_edges


# ------------------------- bit-flip properties -------------------------


@pytest.fixture(scope="module")
def sealed_artifacts(tmp_path_factory):
    """One saved index file and one saved graph file, sealed."""
    base = tmp_path_factory.mktemp("sealed")
    dk = small_dk()
    index_path = base / "index.json"
    save_dk_index(dk, index_path)
    graph_path = base / "graph.json"
    save_graph(dk.graph, graph_path)
    return {"index": index_path, "graph": graph_path}


@given(data=st.data())
@settings(max_examples=80, deadline=None)
def test_any_single_byte_flip_in_sealed_file_is_typed_error(
    sealed_artifacts, data
):
    kind = data.draw(st.sampled_from(["index", "graph"]))
    pristine = sealed_artifacts[kind].read_bytes()
    offset = data.draw(st.integers(min_value=0, max_value=len(pristine) - 1))
    mask = data.draw(st.sampled_from([0x01, 0x08, 0x80]))
    raw = bytearray(pristine)
    raw[offset] ^= mask
    loader = load_dk_index if kind == "index" else load_graph
    with tempfile.TemporaryDirectory() as scratch:
        damaged = Path(scratch) / "damaged.json"
        damaged.write_bytes(bytes(raw))
        with pytest.raises(SerializationError):
            loader(damaged)


@pytest.fixture(scope="module")
def journal_fixture(tmp_path_factory):
    """A v2 journal with a base and three committed operations."""
    base = tmp_path_factory.mktemp("journal")
    dk = small_dk()
    path = base / "ops.jsonl"
    journal = UpdateJournal.open(path, dk)
    for src, dst in ((2, 9), (3, 5), (6, 8)):
        journal.commit("add_edge", {"src": src, "dst": dst})
    journal.close()
    pristine = list(UpdateJournal(path).entries())
    committed = scan_journal(path).committed_ops
    return path, pristine, committed


@given(data=st.data())
@settings(max_examples=80, deadline=None)
def test_journal_byte_flip_never_silently_changes_replay(journal_fixture, data):
    path, pristine_entries, pristine_ops = journal_fixture
    raw = bytearray(path.read_bytes())
    offset = data.draw(st.integers(min_value=0, max_value=len(raw) - 1))
    mask = data.draw(st.sampled_from([0x01, 0x08, 0x80]))
    raw[offset] ^= mask
    with tempfile.TemporaryDirectory() as scratch:
        damaged = Path(scratch) / "ops.jsonl"
        damaged.write_bytes(bytes(raw))
        # The strict reader: a typed error, or a prefix of the pristine
        # entries — a flipped trailing newline is indistinguishable from
        # a torn append, which readers tolerate by stopping before it.
        try:
            survived = list(UpdateJournal(damaged).entries())
        except JournalError:
            pass
        else:
            assert survived == pristine_entries[: len(survived)]
        # The forgiving reader never raises, and what it offers for
        # replay is always a prefix of the true committed history.
        scan = scan_journal(damaged)
        assert scan.committed_ops == pristine_ops[: len(scan.committed_ops)]
        if scan.committed_ops != pristine_ops:
            assert scan.damaged or scan.notes


def test_record_swallowed_into_a_corrupt_base_line_stops_replay(
    journal_fixture, tmp_path
):
    # The newline after the base rots: the first record joins the base
    # line, which fails its CRC, and the scan reads on behind it.  The
    # next record's seq skips ahead, so replay stops there with the loss
    # reported instead of applying seqs 2 and 3 without seq 1.
    source, _pristine_entries, _pristine_ops = journal_fixture
    raw = bytearray(source.read_bytes())
    raw[raw.index(b"\n")] ^= 0x01
    path = tmp_path / "ops.jsonl"
    path.write_bytes(bytes(raw))
    scan = scan_journal(path)
    assert scan.corrupt_lines == [1]
    assert scan.committed_ops == []
    assert scan.lost_ops == [2, 3]
    assert any("no operation record in sequence" in note for note in scan.notes)


def test_legacy_v1_journal_replays(tmp_path):
    dk = small_dk()
    document = index_to_dict(
        dk.index, embed_graph=True, requirements=dict(dk.requirements)
    )
    path = tmp_path / "v1.jsonl"
    lines = [
        {"type": "base", "seq": 0, "index": document},
        {"type": "begin", "seq": 1, "op": "add_edge", "args": {"src": 2, "dst": 9}},
        {"type": "commit", "seq": 1},
    ]
    path.write_text(
        "".join(json.dumps(record) + "\n" for record in lines), encoding="utf-8"
    )
    replayed = UpdateJournal(path).replay()
    from repro.core.updates import dk_add_edge

    dk_add_edge(dk.graph, dk.index, 2, 9)
    assert answers(replayed) == answers(dk)


def test_mixed_framing_v1_base_v2_appends(tmp_path):
    dk = small_dk()
    document = index_to_dict(
        dk.index, embed_graph=True, requirements=dict(dk.requirements)
    )
    path = tmp_path / "mixed.jsonl"
    path.write_text(
        json.dumps({"type": "base", "seq": 0, "index": document}) + "\n",
        encoding="utf-8",
    )
    journal = UpdateJournal(path)  # a new release appending to an old file
    assert journal.commit("add_edge", {"src": 2, "dst": 9}) == 1
    journal.close()
    scan = scan_journal(path)
    assert scan.committed_ops == [(1, "add_edge", {"src": 2, "dst": 9})]
    assert not scan.damaged


# ------------------------- checkpoint store ----------------------------


def make_checkpointed_store(tmp_path, ops_per_generation=(2, 2)):
    """A store with one generation per entry of ``ops_per_generation``,
    each generation's journal holding that many committed edge adds."""
    dk = small_dk()
    edges = iter(((2, 9), (3, 5), (6, 8), (9, 4), (10, 1), (5, 7)))
    store = CheckpointStore.create(tmp_path / "store", dk)
    pipeline = UpdatePipeline(dk, store.maintenance_config(audit="deep"))
    for round_number, count in enumerate(ops_per_generation):
        if round_number:
            store.checkpoint(dk, pipeline)
        for _ in range(count):
            pipeline.add_edge(*next(edges))
    return store, dk


def test_create_refuses_an_existing_store(tmp_path):
    store, dk = make_checkpointed_store(tmp_path, (1,))
    with pytest.raises(CheckpointError):
        CheckpointStore.create(store.directory, dk)


def test_retain_must_leave_the_ladder_rungs():
    with pytest.raises(CheckpointError):
        CheckpointStore("anywhere", retain=0)


def test_checkpoint_rotates_prunes_and_repoints(tmp_path):
    dk = small_dk()
    store = CheckpointStore.create(tmp_path / "store", dk, retain=2)
    pruned = []
    for _ in range(4):
        info = store.checkpoint(dk)
        pruned.extend(info.pruned)
    assert store.generations() == [3, 4, 5]
    assert pruned == [1, 2]
    assert read_document(store.directory / CURRENT_NAME)["generation"] == 5
    assert store.journal_path.name == journal_name(5)


def test_recover_clean_store_replays_the_live_journal(tmp_path):
    store, dk = make_checkpointed_store(tmp_path, (2, 2))
    report = CheckpointStore(store.directory).recover()
    assert report.recovered
    assert report.strategy == "snapshot-2+replay"
    assert report.replayed == 2
    assert not report.data_loss
    assert report.dk is not None and answers(report.dk) == answers(dk)
    assert "recovered via" in report.format()


@pytest.mark.parametrize("dataset", ["xmark", "nasa"])
def test_paper_dataset_recovers_after_100_journaled_edges(tmp_path, dataset):
    # The paper's update stream (100 sampled IDREF edges) journaled
    # into a store over a generated dataset: recovery must replay every
    # committed operation and land on the live index exactly.
    bundle = load_dataset(dataset, ExperimentConfig(scale=0.2))
    dk = bundle.fresh_dk()
    store = CheckpointStore.create(tmp_path / "store", dk)
    pipeline = UpdatePipeline(dk, store.maintenance_config(audit="off"))
    assert len(bundle.update_edges) == 100
    for src, dst in bundle.update_edges:
        pipeline.add_edge(src, dst)
    report = CheckpointStore(store.directory).recover()
    assert report.recovered, report.format()
    assert report.replayed == 100
    assert not report.data_loss
    assert report.dk is not None
    assert report.dk.index.node_of == dk.index.node_of
    assert report.dk.index.k == dk.index.k


def test_recover_empty_directory_is_a_typed_error(tmp_path):
    with pytest.raises(RecoveryError):
        CheckpointStore(tmp_path / "nothing").recover()


def test_recover_sweeps_inflight_temp_files(tmp_path):
    store, _dk = make_checkpointed_store(tmp_path, (1,))
    leftover = store.directory / (snapshot_name(2) + TMP_SUFFIX)
    leftover.write_text("half a snapsh", encoding="utf-8")
    report = CheckpointStore(store.directory).recover()
    assert report.recovered
    assert not leftover.exists()
    assert any("temp file" in issue for issue in report.issues)


def test_recover_with_corrupt_current_pointer_trusts_the_scan(tmp_path):
    store, dk = make_checkpointed_store(tmp_path, (1, 1))
    flip_byte(store.directory / CURRENT_NAME, 5)
    report = CheckpointStore(store.directory).recover()
    assert report.recovered
    assert report.generation == 2
    statuses = {a.name: a.status for a in report.artifacts}
    assert statuses[CURRENT_NAME] == "corrupt"


def test_corrupt_snapshot_falls_back_to_the_journal_base(tmp_path):
    store, dk = make_checkpointed_store(tmp_path, (2, 2))
    flip_byte(store.directory / snapshot_name(2), 40)
    report = CheckpointStore(store.directory).recover()
    assert report.recovered
    assert report.strategy == "journal-base-2+replay"
    assert report.replayed == 2
    assert not report.data_loss
    assert answers(report.dk) == answers(dk)
    statuses = {a.name: a.status for a in report.artifacts}
    assert statuses[snapshot_name(2)] == "corrupt"


def test_older_generation_rung_chains_every_later_journal(tmp_path):
    store, dk = make_checkpointed_store(tmp_path, (2, 2))
    # Destroy generation 2's snapshot and its journal base: recovery
    # must climb down to generation 1 and replay both journals in order.
    flip_byte(store.directory / snapshot_name(2), 40)
    journal = store.directory / journal_name(2)
    lines = journal.read_text(encoding="utf-8").splitlines(keepends=True)
    lines[0] = "deadbeef" + lines[0][8:]
    journal.write_text("".join(lines), encoding="utf-8")
    report = CheckpointStore(store.directory).recover()
    assert report.recovered
    assert report.strategy == "snapshot-1+replay"
    assert report.replayed == 4
    # A destroyed base line is redundant with the snapshot chain — the
    # operation records behind it were all rescued, so no loss.
    assert not report.data_loss
    assert answers(report.dk) == answers(dk)


def test_audit_failing_snapshot_falls_through_to_rebuild(tmp_path):
    store, dk = make_checkpointed_store(tmp_path, (2,))
    # Reseal the snapshot with one child block's k inflated past its
    # parent's bound: it parses and loads, but the deep audit must
    # reject the Definition-3 violation, pushing recovery to the
    # Algorithm-2 rebuild rung.
    path = store.directory / snapshot_name(1)
    body, sealed = unseal(path.read_text(encoding="utf-8"))
    assert sealed
    document = json.loads(body)
    # Block of data node 6 — one the replayed edge operations never
    # touch, so the bogus k survives replay and reaches the audit.
    document["k"][document["node_of"][6]] += 7
    path.write_text(seal(json.dumps(document)), encoding="utf-8")
    report = CheckpointStore(store.directory).recover()
    assert report.recovered
    assert report.strategy == "rebuild-1+replay"
    assert report.replayed == 2
    assert answers(report.dk) == answers(dk)
    assert any(not rung.succeeded for rung in report.rungs)


def test_destroyed_operation_record_recovers_point_in_time(tmp_path):
    store, dk_oracle = make_checkpointed_store(tmp_path, (3,))
    journal = store.directory / journal_name(1)
    lines = journal.read_text(encoding="utf-8").splitlines(keepends=True)
    # Line 3 is the record of seq 2; destroying it loses seq 2 and 3.
    lines[2] = "deadbeef" + lines[2][8:]
    journal.write_text("".join(lines), encoding="utf-8")
    report = CheckpointStore(store.directory).recover()
    assert report.recovered
    assert report.replayed == 1
    assert report.data_loss
    assert "WITH DATA LOSS" in report.format()
    # The recovered state is the consistent point after seq 1 alone.
    dk = small_dk()
    from repro.core.updates import dk_add_edge

    dk_add_edge(dk.graph, dk.index, 2, 9)
    assert answers(report.dk) == answers(dk)


def test_failed_append_on_a_paper_store_loses_nothing(tmp_path):
    document = generate_nasa(scale=0.05, seed=0)
    load = generate_test_paths(document.graph, WorkloadConfig(count=20), seed=0)
    dk = DKIndex.from_query_load(document.graph, load)
    store = CheckpointStore.create(tmp_path / "store", dk)
    dk.maintenance = store.maintenance_config()
    edges = sample_reference_edges(
        dk.graph, document.reference_pairs, 6, random.Random(0)
    )
    dk.add_edge(*edges[0])
    # The second operation's record fails with ENOSPC halfway through.
    with FaultInjector("journal.torn_append", "enospc"):
        with pytest.raises(OSError):
            dk.add_edge(*edges[1])
    assert not dk.graph.has_edge(*edges[1])
    for edge in edges[2:]:
        dk.add_edge(*edge)
    report = CheckpointStore(store.directory).recover()
    assert report.recovered and not report.data_loss, report.format()
    assert report.replayed == 5
    assert sorted(report.dk.graph.edges()) == sorted(dk.graph.edges())
    assert report.dk.index.node_of == dk.index.node_of
    assert report.dk.index.k == dk.index.k


def write_parent_format_store(directory, dk, records):
    """A one-generation store as releases before one-record journals
    wrote it: the graph document holds ``[src, dst]`` edge pairs
    (version 1), and the journal holds ``records`` behind its base."""
    graph = dk.graph
    document = index_to_dict(
        dk.index, embed_graph=True, requirements=dict(dk.requirements)
    )
    document["graph"] = {
        "format": "repro-datagraph",
        "version": 1,
        "labels": list(graph.label_names()),
        "nodes": list(graph.label_ids),
        "edges": [[src, dst] for src, dst in graph.edges()],
    }
    body = json.dumps(document, separators=(",", ":"))
    directory.mkdir()
    atomic_write_text(directory / snapshot_name(1), seal(body))
    journal = encode_base_line(body) + "".join(map(_encode_line, records))
    atomic_write_text(directory / journal_name(1), journal)
    atomic_write_document(
        directory / CURRENT_NAME,
        {"format": "repro-checkpoint-current", "version": 1, "generation": 1},
    )


def test_parent_format_store_recovers_and_continues(tmp_path):
    def add(seq, src, dst):
        return {"type": "begin", "seq": seq, "op": "add_edge",
                "args": {"src": src, "dst": dst}}

    directory = tmp_path / "store"
    write_parent_format_store(directory, small_dk(), [
        add(1, 2, 9), {"type": "commit", "seq": 1},
        add(2, 2, 9), {"type": "abort", "seq": 2, "reason": "UpdateError: dup"},
        add(3, 6, 8), {"type": "commit", "seq": 3},
        add(4, 3, 5),  # dangling: the process crashed mid-operation
    ])
    torn = _encode_line(add(5, 9, 4))
    with open(directory / journal_name(1), "a", encoding="utf-8") as handle:
        handle.write(torn[: len(torn) // 2])
    expected = small_dk()
    from repro.core.updates import dk_add_edge

    for src, dst in ((2, 9), (6, 8)):
        dk_add_edge(expected.graph, expected.index, src, dst)

    store = CheckpointStore(directory)
    report = store.recover()
    assert report.recovered and not report.data_loss, report.format()
    assert report.strategy == "snapshot-1+replay"
    assert report.replayed == 2
    assert answers(report.dk) == answers(expected)
    assert sorted(report.dk.graph.edges()) == sorted(expected.graph.edges())

    # This release continues the old journal: the torn tail goes, and
    # its records follow the old ones' sequence numbers.
    dk = report.dk
    dk.maintenance = store.maintenance_config()
    dk.add_edge(10, 1)
    assert scan_journal(store.journal_path).committed_ops[-1] == (
        5, "add_edge", {"src": 10, "dst": 1},
    )
    again = CheckpointStore(directory).recover()
    assert again.replayed == 3 and not again.data_loss, again.format()
    assert answers(again.dk) == answers(dk)


@pytest.mark.skipif(
    not Path("/proc/self/fd").is_dir(), reason="counts descriptors in /proc/self/fd"
)
def test_checkpoints_with_a_pipeline_leak_no_descriptors(tmp_path):
    dk = small_dk()
    store = CheckpointStore.create(tmp_path / "store", dk)
    pipeline = UpdatePipeline(dk, store.maintenance_config(audit="off"))
    pipeline.add_edge(2, 9)  # the journal opens its kept handle
    open_before = len(os.listdir("/proc/self/fd"))
    replaced = []
    for number in range(50):
        # Still referenced, so only the checkpoint's close() frees it.
        replaced.append(pipeline.journal)
        store.checkpoint(dk, pipeline)
        if number % 2:
            pipeline.add_edge(2, 9)
        else:
            pipeline.remove_edge(2, 9)
    assert len(os.listdir("/proc/self/fd")) == open_before
    assert len({id(journal) for journal in replaced}) == 50


def test_crash_mid_ladder_then_rerun_recovers(tmp_path):
    store, dk = make_checkpointed_store(tmp_path, (1, 1))
    with pytest.raises(InjectedFaultError):
        with inject_faults("recover.mid_ladder"):
            CheckpointStore(store.directory).recover()
    report = CheckpointStore(store.directory).recover()
    assert report.recovered and answers(report.dk) == answers(dk)


def test_durability_suite_is_clean(tmp_path):
    report = run_durability_suite(seed=0, work_dir=tmp_path / "chaos")
    assert report.ok, report.format()
    assert "durability crash matrix" in report.format()


# ------------------------- mistyped journal records --------------------


MISTYPED_RECORDS = [
    {"type": "commit", "seq": "x"},
    {"type": "begin", "seq": 3, "op": "add_edge", "args": 5},
    {"type": "commit", "seq": True},
    {"type": "abort", "seq": 3, "reason": 7},
]


def append_raw_line(path, record, framed):
    line = _encode_line(record) if framed else json.dumps(record) + "\n"
    with open(path, "a", encoding="utf-8") as handle:
        handle.write(line)


@pytest.mark.parametrize("framed", [True, False], ids=["crc-framed", "bare-json"])
@pytest.mark.parametrize("record", MISTYPED_RECORDS)
def test_mistyped_journal_record_is_a_typed_error(
    journal_fixture, tmp_path, record, framed
):
    source, pristine_entries, pristine_ops = journal_fixture
    path = tmp_path / "ops.jsonl"
    path.write_bytes(source.read_bytes())
    append_raw_line(path, record, framed)
    line_number = len(pristine_entries) + 1
    with pytest.raises(JournalError) as error:
        list(UpdateJournal(path).entries())
    assert f"{path}:{line_number}" in str(error.value)
    assert f"replayable prefix: {len(pristine_entries)} entries" in str(error.value)
    # The forgiving reader treats it exactly like a checksum failure.
    scan = scan_journal(path)
    assert scan.corrupt_lines == [line_number]
    assert scan.committed_ops == pristine_ops
    assert any(f":{line_number}: corrupt journal line" in note for note in scan.notes)


@pytest.mark.parametrize("framed", [True, False], ids=["crc-framed", "bare-json"])
def test_store_with_mistyped_live_journal_line_recovers(tmp_path, framed):
    store, dk = make_checkpointed_store(tmp_path, (2,))
    journal = store.directory / journal_name(1)
    append_raw_line(journal, {"type": "begin", "seq": "x", "op": "add_edge"}, framed)
    report = CheckpointStore(store.directory).recover()
    assert report.recovered
    assert report.strategy == "snapshot-1+replay"
    assert report.replayed == 2
    assert any(f"{journal}:4: corrupt journal line" in issue for issue in report.issues)
    statuses = {a.name: a.status for a in report.artifacts}
    assert statuses[journal_name(1)] == "corrupt"
    # A corrupt line past the base is loss by the existing rules.
    assert report.data_loss
    assert answers(report.dk) == answers(dk)


# ------------------------- undecodable journal lines -------------------

#: Payloads ``json.loads`` refuses with something other than a
#: ``JSONDecodeError``: an integer literal past Python's 4,300-digit
#: conversion limit (a plain ``ValueError``) and nesting past the
#: recursion limit (a ``RecursionError``).
UNDECODABLE_PAYLOADS = {
    "long-int": '{"type":"commit","seq":' + "1" * 5000 + "}",
    "deep": '{"type":' + "[" * 100_000 + "]" * 100_000 + "}",
}


def append_payload(path, payload, framed):
    line = _frame(payload) if framed else payload + "\n"
    with open(path, "a", encoding="utf-8") as handle:
        handle.write(line)


@pytest.mark.parametrize("framed", [True, False], ids=["crc-framed", "bare-json"])
@pytest.mark.parametrize(
    "payload", UNDECODABLE_PAYLOADS.values(), ids=UNDECODABLE_PAYLOADS
)
def test_undecodable_journal_line_is_a_corrupt_line(
    journal_fixture, tmp_path, payload, framed
):
    source, pristine_entries, pristine_ops = journal_fixture
    path = tmp_path / "ops.jsonl"
    path.write_bytes(source.read_bytes())
    append_payload(path, payload, framed)
    line_number = len(pristine_entries) + 1
    with pytest.raises(JournalError, match=f":{line_number}: malformed"):
        list(UpdateJournal(path).entries())
    scan = scan_journal(path)
    assert scan.corrupt_lines == [line_number]
    assert scan.committed_ops == pristine_ops


@pytest.mark.parametrize("framed", [True, False], ids=["crc-framed", "bare-json"])
@pytest.mark.parametrize(
    "payload", UNDECODABLE_PAYLOADS.values(), ids=UNDECODABLE_PAYLOADS
)
def test_store_with_undecodable_live_journal_line_recovers(
    tmp_path, payload, framed
):
    store, dk = make_checkpointed_store(tmp_path, (2,))
    journal = store.directory / journal_name(1)
    append_payload(journal, payload, framed)
    report = CheckpointStore(store.directory).recover()
    assert report.recovered
    assert report.strategy == "snapshot-1+replay"
    assert report.replayed == 2
    assert any(f"{journal}:4: corrupt journal line" in issue for issue in report.issues)
    assert {a.name: a.status for a in report.artifacts}[journal_name(1)] == "corrupt"
    assert report.data_loss
    assert answers(report.dk) == answers(dk)


ENTRY_KEYS = ["type", "seq", "op", "args", "reason", "index"]


@st.composite
def journal_lines(draw):
    """One journal line: bare or CRC-framed JSON, or arbitrary text."""
    kind = draw(st.sampled_from(["json", "entry", "undecodable", "text"]))
    if kind == "json":
        payload = json.dumps(draw(json_values))
    elif kind == "entry":
        payload = json.dumps(
            draw(st.dictionaries(st.sampled_from(ENTRY_KEYS), json_values))
        )
    elif kind == "undecodable":
        payload = draw(st.sampled_from(list(UNDECODABLE_PAYLOADS.values())))
    else:
        payload = draw(st.text().filter(lambda text: "\n" not in text))
    if draw(st.booleans()):
        return _frame(payload)
    return payload + "\n"


@given(data=st.data())
@settings(max_examples=150, deadline=None)
def test_journal_readers_raise_only_journal_errors(journal_fixture, data):
    source, _pristine_entries, _pristine_ops = journal_fixture
    raw = source.read_bytes()
    raw = raw[: data.draw(st.integers(0, len(raw)))]
    raw += "".join(data.draw(st.lists(journal_lines(), max_size=4))).encode()
    raw = raw[: data.draw(st.integers(0, len(raw)))]
    with tempfile.TemporaryDirectory() as scratch:
        path = Path(scratch) / "ops.jsonl"
        path.write_bytes(raw)
        # The forgiving reader never raises; its lazy base decode and
        # the strict reader raise JournalError or nothing.
        scan = scan_journal(path)
        try:
            scan.base_document
        except JournalError:
            pass
        try:
            list(UpdateJournal(path).entries())
        except JournalError:
            pass


# ------------------------- lazy journal bases ---------------------------


@pytest.fixture
def base_decodes(monkeypatch):
    """Counts ``json.loads`` calls made on a journal base payload."""
    calls = []
    real_loads = json.loads

    def counting_loads(text, *args, **kwargs):
        if isinstance(text, str) and text.startswith('{"type":"base"'):
            calls.append(len(text))
        return real_loads(text, *args, **kwargs)

    monkeypatch.setattr(json, "loads", counting_loads)
    return calls


def test_clean_snapshot_recovery_decodes_no_journal_base(tmp_path, base_decodes):
    store, dk = make_checkpointed_store(tmp_path, (2, 2))
    report = CheckpointStore(store.directory).recover()
    assert report.strategy == "snapshot-2+replay"
    assert answers(report.dk) == answers(dk)
    assert base_decodes == []


def test_checkpoint_with_pipeline_decodes_no_journal_base(tmp_path, base_decodes):
    dk = small_dk()
    store = CheckpointStore.create(tmp_path / "store", dk)
    pipeline = UpdatePipeline(dk, store.maintenance_config(audit="deep"))
    pipeline.add_edge(2, 9)
    store.checkpoint(dk, pipeline)
    pipeline.add_edge(3, 5)
    assert [entry.type for entry in pipeline.journal.entries()] == ["base", "op"]
    assert base_decodes == []


def test_journal_base_rung_decodes_the_base_it_reads(tmp_path, base_decodes):
    store, dk = make_checkpointed_store(tmp_path, (2, 2))
    flip_byte(store.directory / snapshot_name(2), 40)
    report = CheckpointStore(store.directory).recover()
    assert report.strategy == "journal-base-2+replay"
    assert len(base_decodes) == 1


def test_crc_valid_base_that_does_not_parse_is_an_unusable_base(tmp_path):
    # Not something the writer can produce: the frame checks out, but
    # the payload behind the base head is not JSON.  The scan accepts
    # the frame; the journal-base rung that reads it reports the base as
    # unusable, and the ladder climbs down as for any failed rung.
    store, dk = make_checkpointed_store(tmp_path, (2, 2))
    journal = store.directory / journal_name(2)
    lines = journal.read_text(encoding="utf-8").splitlines(keepends=True)
    lines[0] = _frame('{"type":"base","seq":0,"index":{"format": oops}}')
    journal.write_text("".join(lines), encoding="utf-8")
    scan = scan_journal(journal)
    assert not scan.damaged
    with pytest.raises(JournalError):
        scan.base_document
    flip_byte(store.directory / snapshot_name(2), 40)
    report = CheckpointStore(store.directory).recover()
    assert report.recovered
    assert report.strategy == "snapshot-1+replay"
    assert report.replayed == 4
    assert not report.data_loss
    assert any(
        f"{journal_name(2)}: base snapshot unusable" in issue
        for issue in report.issues
    )
    assert answers(report.dk) == answers(dk)


# ------------------------- one encoding per checkpoint ------------------


def journal_base_index(path):
    return json.loads(path.read_text(encoding="utf-8").splitlines()[0][9:])["index"]


def test_snapshot_and_journal_base_share_one_encoding(tmp_path):
    store, _dk = make_checkpointed_store(tmp_path, (1, 1))
    for generation in (1, 2):
        snapshot = read_document(store.directory / snapshot_name(generation))
        base = journal_base_index(store.directory / journal_name(generation))
        assert base == snapshot
    body, sealed = unseal(
        (store.directory / snapshot_name(2)).read_text(encoding="utf-8")
    )
    assert sealed
    base_line = (store.directory / journal_name(2)).read_text(
        encoding="utf-8"
    ).splitlines(keepends=True)[0]
    record = {"type": "base", "seq": 0, "index": json.loads(body)}
    assert base_line == _encode_line(record)


def write_store_in_the_previous_format(directory, dk, edges):
    """A one-generation store as the previous writer laid it out: the
    snapshot encoded with default separators, then a journal of
    committed edge additions behind a base line."""
    directory.mkdir()
    document = index_to_dict(
        dk.index, embed_graph=True, requirements=dict(dk.requirements)
    )
    (directory / snapshot_name(1)).write_text(
        seal(json.dumps(document)), encoding="utf-8"
    )
    lines = [_encode_line({"type": "base", "seq": 0, "index": document})]
    for seq, (src, dst) in enumerate(edges, start=1):
        args = {"src": src, "dst": dst}
        begin = {"type": "begin", "seq": seq, "op": "add_edge", "args": args}
        lines.append(_encode_line(begin))
        lines.append(_encode_line({"type": "commit", "seq": seq}))
    (directory / journal_name(1)).write_text("".join(lines), encoding="utf-8")
    (directory / CURRENT_NAME).write_text(
        seal(
            json.dumps(
                {"format": "repro-checkpoint-current", "version": 1, "generation": 1}
            )
        ),
        encoding="utf-8",
    )


def test_store_in_the_previous_format_recovers(tmp_path):
    dk = small_dk()
    write_store_in_the_previous_format(tmp_path / "store", dk, [(2, 9), (3, 5)])
    report = CheckpointStore(tmp_path / "store").recover()
    assert report.recovered
    assert report.strategy == "snapshot-1+replay"
    assert report.replayed == 2
    assert not report.data_loss
    from repro.core.updates import dk_add_edge

    dk_add_edge(dk.graph, dk.index, 2, 9)
    dk_add_edge(dk.graph, dk.index, 3, 5)
    assert answers(report.dk) == answers(dk)
