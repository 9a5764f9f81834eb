"""The out-of-core paged store: pool policy, durability, corruption.

Covers the three layers of ``repro.storage``:

- :class:`PagedBufferPool` in isolation (LRU order, byte budget,
  dirty write-back, counters) against a dict-backed loader;
- :class:`PagedStore` round-trips, copy-on-write checkpoint
  generations, point-in-time opens, pruning/GC and corruption
  detection (flipped page bytes, truncated pages, bad manifests);
- :class:`PagedCSRGraph` against the in-memory frozen view it pages
  out.
"""

import copy
import hashlib
import json
import os
import random
import sys
import tempfile
from array import array
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import json_values
from repro.exceptions import InjectedFaultError, PagedStoreError, SerializationError
from repro.graph.columnar import flatten_adjacency
from repro.graph.datagraph import DataGraph
from repro.indexes.akindex import build_ak_index
from repro.maintenance.faults import FaultInjector
from repro.maintenance.store import (
    atomic_write_document,
    read_document,
    seal,
    unseal,
)
from repro.partition.columnar import ColumnarEngine
from repro.partition.external import ExternalEngine
from repro.storage.paged import (
    CORE_CSR_BUFFERS,
    PageCursor,
    PagedBufferPool,
    PagedCSRGraph,
    PagedStore,
    PoolStats,
    _scan_generations,
    resolve_page_bytes,
    resolve_pool_budget,
)

# ----------------------------------------------------------------------
# The pool in isolation
# ----------------------------------------------------------------------


def make_pool(budget_pages=2, page_entries=4):
    """A pool over a dict of pages; returns (pool, backing, load_log)."""
    backing = {
        ("buf", index): array("q", range(index * 10, index * 10 + page_entries))
        for index in range(8)
    }
    loads = []

    def loader(key):
        loads.append(key)
        return array("q", backing[key])  # copy: backing is the "disk"

    def writer(key, page):
        backing[key] = array("q", page)

    pool = PagedBufferPool(budget_pages * page_entries * 8, loader, writer)
    return pool, backing, loads


def test_pool_hits_and_misses_counted():
    pool, _, loads = make_pool()
    assert pool.get(("buf", 0))[0] == 0
    assert pool.get(("buf", 0))[0] == 0  # second read is a hit
    assert pool.stats.misses == 1
    assert pool.stats.hits == 1
    assert loads == [("buf", 0)]
    assert pool.stats.hit_rate == 0.5


def test_pool_evicts_least_recently_used():
    pool, _, loads = make_pool(budget_pages=2)
    pool.get(("buf", 0))
    pool.get(("buf", 1))
    pool.get(("buf", 0))  # touch 0: page 1 becomes the LRU victim
    pool.get(("buf", 2))  # forces one eviction
    assert pool.stats.evictions == 1
    assert pool.is_resident(("buf", 0))
    assert not pool.is_resident(("buf", 1))
    assert pool.is_resident(("buf", 2))


def test_pool_dirty_write_back_on_eviction():
    pool, backing, _ = make_pool(budget_pages=1)
    page = pool.get(("buf", 0))
    page[0] = -42
    pool.mark_dirty(("buf", 0))
    pool.get(("buf", 1))  # evicts page 0, which must write back first
    assert backing[("buf", 0)][0] == -42
    assert pool.stats.write_backs == 1
    assert pool.stats.evictions == 1


def test_pool_flush_keeps_pages_resident():
    pool, backing, _ = make_pool()
    page = pool.get(("buf", 0))
    page[1] = 77
    pool.mark_dirty(("buf", 0))
    assert pool.flush() == 1
    assert backing[("buf", 0)][1] == 77
    assert pool.is_resident(("buf", 0))
    assert pool.dirty_pages == 0
    assert pool.flush() == 0  # idempotent


def test_pool_mark_dirty_requires_residency():
    pool, _, _ = make_pool()
    with pytest.raises(PagedStoreError):
        pool.mark_dirty(("buf", 5))


def test_read_only_pool_refuses_dirty_eviction():
    backing = {("b", 0): array("q", [1]), ("b", 1): array("q", [2])}
    pool = PagedBufferPool(8, lambda key: array("q", backing[key]))
    pool.get(("b", 0))
    pool.mark_dirty(("b", 0))
    with pytest.raises(PagedStoreError):
        pool.get(("b", 1))  # eviction of the dirty page has no writer


def test_pool_drop_protects_dirty_pages():
    pool, _, _ = make_pool()
    pool.get(("buf", 0))
    pool.mark_dirty(("buf", 0))
    with pytest.raises(PagedStoreError):
        pool.drop()
    pool.drop(discard_dirty=True)
    assert pool.cached_pages == 0


# ----------------------------------------------------------------------
# Store round-trips and durability
# ----------------------------------------------------------------------


def test_store_round_trip_across_page_boundaries(tmp_path):
    values = list(range(1000))
    store = PagedStore.create(
        tmp_path / "s", {"v": values}, page_bytes=64, budget_bytes=256
    )
    buf = store.buffer("v")
    assert len(buf) == 1000
    assert buf[0] == 0 and buf[999] == 999 and buf[-1] == 999
    assert list(buf[250:270]) == values[250:270]  # spans pages
    assert list(buf) == values
    assert store.stats.evictions > 0  # the budget really was enforced
    store.close()


def test_page_cursor_reads_each_page_once_under_a_one_page_pool(tmp_path):
    values = list(range(0, 3000, 3))  # 1000 entries, 8 per page
    store = PagedStore.create(
        tmp_path / "s", {"v": values, "w": [7] * 40},
        page_bytes=64, budget_bytes=0,
    )
    assert store.entries_per_page == 8
    assert list(store.read_page("v", 2)) == values[16:24]
    assert list(store.read_page("v", 124)) == values[992:1000]
    before = store.stats.snapshot()
    cursor = PageCursor(store, "v")
    other = PageCursor(store, "w")
    got = []
    for position in range(0, 1000, 3):
        got.append(cursor.at(position))
        # Interleaved reads of another buffer evict the cursor's page
        # from the one-page pool; the cursor keeps its own reference.
        other.at(position // 25)
    assert got == values[0:1000:3]
    assert store.stats.delta(before).accesses == 125 + 5
    # Spans crossing page boundaries read each covered page once.
    before = store.stats.snapshot()
    assert PageCursor(store, "v").span(5, 45).tolist() == values[5:45]
    assert store.stats.delta(before).accesses == 6
    store.close()


def test_page_reads_past_the_end_raise(tmp_path):
    store = PagedStore.create(
        tmp_path / "s", {"v": list(range(20))}, page_bytes=64
    )
    for bad_page in (-1, 3):
        with pytest.raises(PagedStoreError):
            store.read_page("v", bad_page)
    with pytest.raises(PagedStoreError):
        store.read_page("missing", 0)
    cursor = PageCursor(store, "v")
    # Position 20 lies on the short last page's index, past its end.
    for bad in (20, 24, -1):
        with pytest.raises(PagedStoreError):
            cursor.at(bad)
    with pytest.raises(PagedStoreError):
        cursor.span(18, 21)
    store.close()
    with pytest.raises(PagedStoreError):
        store.read_page("v", 0)


def test_store_rejects_double_create_and_unknown_buffer(tmp_path):
    store = PagedStore.create(tmp_path / "s", {"v": [1, 2, 3]})
    with pytest.raises(PagedStoreError):
        PagedStore.create(tmp_path / "s", {"v": [4]})
    with pytest.raises(PagedStoreError):
        store.buffer("missing")
    with pytest.raises(PagedStoreError):
        store.read_element("v", 3)
    store.close()


def _segments(directory):
    """Byte size of each file in the store's ``pages/``, by name."""
    return {path.name: path.stat().st_size for path in (directory / "pages").iterdir()}


def test_checkpoint_is_copy_on_write(tmp_path):
    store = PagedStore.create(
        tmp_path / "s", {"v": range(100)}, page_bytes=64
    )
    before = _segments(tmp_path / "s")
    assert list(before.values()) == [800]  # generation 1: one segment
    store.write_element("v", 3, -3)
    generation = store.checkpoint()
    assert generation == 2
    after = _segments(tmp_path / "s")
    # Exactly one fresh page, the dirty one, appended to exactly one new
    # segment.  Unchanged pages are shared with generation 1, not
    # rewritten, and generation 1's segment is untouched.
    fresh = set(after) - set(before)
    assert len(fresh) == 1 and after[fresh.pop()] == 64
    assert {name: after[name] for name in before} == before
    assert store.read_element("v", 3) == -3
    store.close()


def test_write_element_under_a_zero_budget_pool(tmp_path):
    # A zero budget evicts each page as soon as it is loaded; the write
    # goes through the write-back path at once instead of being lost.
    store = PagedStore.create(
        tmp_path / "s", {"v": range(16)}, page_bytes=64, budget_bytes=0
    )
    store.write_element("v", 0, 99)
    store.write_element("v", 9, -9)
    assert store.pool.cached_pages == 0 and store.pool.dirty_pages == 0
    assert store.stats.write_backs == 2
    assert store.read_element("v", 0) == 99
    assert store.read_element("v", 9) == -9
    store.checkpoint()
    store.close()
    reopened = PagedStore.open(tmp_path / "s", budget_bytes=0)
    assert list(reopened.buffer("v")) == [99, *range(1, 9), -9, *range(10, 16)]
    reopened.close()


def test_zero_budget_write_retries_a_transient_write_back_fault(tmp_path):
    store = PagedStore.create(
        tmp_path / "s", {"v": range(16)}, page_bytes=64, budget_bytes=0
    )
    with FaultInjector(
        "storage.pool_evict_writeback_fail", "transient"
    ) as injector:
        store.write_element("v", 3, 33)
    assert injector.fired and store.stats.retries >= 1
    assert store.read_element("v", 3) == 33
    with FaultInjector("storage.pool_evict_writeback_fail", "raise"):
        with pytest.raises(InjectedFaultError):
            store.write_element("v", 4, 44)
    store.close()


def test_point_in_time_open_of_prior_generation(tmp_path):
    store = PagedStore.create(tmp_path / "s", {"v": range(50)}, page_bytes=64)
    store.write_element("v", 10, 111)
    store.checkpoint()
    store.write_element("v", 10, 222)
    store.checkpoint()
    store.close()

    assert PagedStore.open(tmp_path / "s").read_element("v", 10) == 222
    assert (
        PagedStore.open(tmp_path / "s", generation=2).read_element("v", 10)
        == 111
    )
    assert (
        PagedStore.open(tmp_path / "s", generation=1).read_element("v", 10)
        == 10
    )
    with pytest.raises(PagedStoreError):
        PagedStore.open(tmp_path / "s", generation=99)


def test_prune_drops_old_generations_and_orphan_pages(tmp_path):
    store = PagedStore.create(
        tmp_path / "s", {"v": range(64)}, page_bytes=64, retain=1
    )
    for round_number in range(4):
        store.write_element("v", 0, round_number)
        store.checkpoint()
    store.close()
    manifests = sorted(
        p.name for p in (tmp_path / "s").glob("manifest-*.json")
    )
    assert manifests == ["manifest-0000004.json", "manifest-0000005.json"]
    # Each checkpoint appended its one dirty page to a new segment.
    # Generation 1's segment holds the other seven pages, and those of
    # generations 4 and 5 the page each rewrote; the segments of
    # generations 2 and 3 were superseded and deleted.
    assert sorted(_segments(tmp_path / "s")) == [
        "segment-0000000.bin", "segment-0000003.bin", "segment-0000004.bin"
    ]
    for generation, value in ((4, 2), (5, 3)):
        with PagedStore.open(tmp_path / "s", generation=generation) as reopened:
            assert reopened.read_element("v", 0) == value
            assert reopened.read_slice("v", 1, 64).tolist() == list(range(1, 64))


def _count_fsyncs(monkeypatch):
    calls = []
    real = os.fsync

    def counting(fd):
        calls.append(fd)
        real(fd)

    monkeypatch.setattr(os, "fsync", counting)
    return calls


def test_fsyncs_do_not_grow_with_the_pages_written(tmp_path, monkeypatch):
    # One segment per generation, fsynced once: creating 2 pages or 125,
    # and checkpointing 1 dirty page or 50, cost the same fsyncs.
    calls = _count_fsyncs(monkeypatch)
    created = []
    for entries in (10, 1000):
        calls.clear()
        PagedStore.create(
            tmp_path / f"create-{entries}", {"v": range(entries)}, page_bytes=64
        ).close()
        created.append(len(calls))
    checkpointed = []
    for dirty in (1, 50):
        store = PagedStore.create(
            tmp_path / f"checkpoint-{dirty}", {"v": range(1000)}, page_bytes=64
        )
        for page in range(dirty):
            store.write_element("v", page * 8, -page)
        calls.clear()
        store.checkpoint()
        checkpointed.append(len(calls))
        store.close()
    assert created[0] == created[1] <= 6
    assert checkpointed[0] == checkpointed[1] <= 6


def _forge_version_2_store(directory, values, page_bytes=64):
    """A store as a version-2 release wrote it: a file per page."""
    pages_dir = directory / "pages"
    pages_dir.mkdir(parents=True)
    per_page = page_bytes // 8
    pages = []
    for physical, start in enumerate(range(0, len(values), per_page)):
        raw = array("q", values[start : start + per_page]).tobytes()
        (pages_dir / f"page-{physical:07d}.bin").write_bytes(raw)
        pages.append([physical, hashlib.sha256(raw).hexdigest()])
    atomic_write_document(
        directory / "manifest-0000001.json",
        {
            "format": "repro-datagraph-frozen",
            "version": 2,
            "byteorder": sys.byteorder,
            "page_bytes": page_bytes,
            "generation": 1,
            "next_page": len(pages),
            "meta": {},
            "page_table": {"v": {"entries": len(values), "pages": pages}},
        },
    )


def test_a_version_2_store_reads_as_one_page_segments(tmp_path):
    base = tmp_path / "s"
    values = list(range(40))  # five pages, five files
    _forge_version_2_store(base, values)
    store = PagedStore.open(base, retain=0)
    assert list(store.buffer("v")) == values
    report = store.scrub()
    assert report.ok and report.clean == report.pages_checked == 5
    store.write_element("v", 9, -9)
    assert store.checkpoint() == 2
    store.close()
    manifest = read_document(base / "manifest-0000002.json")
    assert manifest["version"] == 3 and manifest["next_segment"] == 6
    # The rewritten page went to a new segment, past every old id; the
    # other four pages stay in the files the old release wrote, which
    # the prune keeps while they are referenced.
    entries = manifest["page_table"]["v"]["pages"]
    assert [entry[:2] for entry in entries] == [
        [0, 0], [5, 0], [2, 0], [3, 0], [4, 0]
    ]
    assert sorted(_segments(base)) == [
        "page-0000000.bin",
        "page-0000002.bin",
        "page-0000003.bin",
        "page-0000004.bin",
        "segment-0000005.bin",
    ]
    values[9] = -9
    with PagedStore.open(base) as reopened:
        assert list(reopened.buffer("v")) == values
        assert reopened.scrub().ok


def test_crash_orphan_segments_are_ignored_and_pruned(tmp_path):
    base = tmp_path / "s"
    # A create that crashes on its second page leaves a segment with one
    # page and half of the next, and no manifest.
    with FaultInjector("storage.page_torn_write", "raise", trigger_on_hit=2):
        with pytest.raises(InjectedFaultError):
            PagedStore.create(base, {"v": range(40)}, page_bytes=64)
    assert _segments(base) == {"segment-0000000.bin": 96}
    with pytest.raises(PagedStoreError, match="no manifest"):
        PagedStore.open(base)
    # The next create takes a fresh id, and its prune deletes the orphan.
    store = PagedStore.create(base, {"v": range(40)}, page_bytes=64)
    assert list(_segments(base)) == ["segment-0000001.bin"]
    # A checkpoint that crashes writing its manifest leaves a complete,
    # sealed segment that no manifest references.
    store.write_element("v", 0, -1)
    with FaultInjector("store.torn_write", "raise"):
        with pytest.raises(InjectedFaultError):
            store.checkpoint()
    store.close(discard_dirty=True)
    assert sorted(_segments(base)) == [
        "segment-0000001.bin", "segment-0000002.bin"
    ]
    reopened = PagedStore.open(base)
    assert reopened.generation == 1 and reopened.read_element("v", 0) == 0
    reopened.write_element("v", 8, -8)
    assert reopened.checkpoint() == 2
    assert sorted(_segments(base)) == [
        "segment-0000001.bin", "segment-0000003.bin"
    ]
    assert reopened.read_slice("v", 0, 10).tolist() == [0, *range(1, 8), -8, 9]
    reopened.close()


@pytest.mark.skipif(
    not Path("/proc/self/fd").is_dir(), reason="needs /proc/self/fd"
)
def test_stores_leave_no_descriptor_open(tmp_path):
    def open_descriptors():
        return len(os.listdir("/proc/self/fd"))

    before = open_descriptors()
    for number in range(50):
        base = tmp_path / f"s{number}"
        store = PagedStore.create(
            base, {"v": range(40)}, page_bytes=64, budget_bytes=0
        )
        assert store.read_slice("v", 0, 40).tolist() == list(range(40))
        # Under a zero budget the write goes back at once, opening the
        # next generation's segment; closing must close it too.
        store.write_element("v", 1, -1)
        store.close(discard_dirty=True)
        with PagedStore.open(base) as reopened:
            assert reopened.read_element("v", 39) == 39
    assert open_descriptors() == before


def test_uncheckpointed_mutation_is_not_durable(tmp_path):
    store = PagedStore.create(tmp_path / "s", {"v": range(10)})
    store.write_element("v", 0, 999)
    with pytest.raises(PagedStoreError):
        store.close()  # refuses to silently drop the dirty page
    store.close(discard_dirty=True)
    assert PagedStore.open(tmp_path / "s").read_element("v", 0) == 0


def test_context_manager_discards_dirty_on_error(tmp_path):
    with pytest.raises(RuntimeError):
        with PagedStore.create(tmp_path / "s", {"v": range(10)}) as store:
            store.write_element("v", 0, 5)
            raise RuntimeError("boom")
    # The original error surfaced (not a dirty-page complaint) and the
    # store is intact at its last checkpoint.
    assert PagedStore.open(tmp_path / "s").read_element("v", 0) == 0


# ----------------------------------------------------------------------
# Corruption detection
# ----------------------------------------------------------------------


def _first_page(tmp_path):
    """The store's first segment, which begins with page 0 of ``v``."""
    return sorted((tmp_path / "s" / "pages").iterdir())[0]


def test_flipped_page_bit_fails_digest(tmp_path):
    PagedStore.create(tmp_path / "s", {"v": range(32)}, page_bytes=64).close()
    page = _first_page(tmp_path)
    raw = bytearray(page.read_bytes())
    raw[0] ^= 0x40
    page.write_bytes(bytes(raw))
    store = PagedStore.open(tmp_path / "s")
    with pytest.raises(PagedStoreError, match="digest"):
        store.read_element("v", 0)


def test_truncated_page_detected(tmp_path):
    PagedStore.create(tmp_path / "s", {"v": range(32)}, page_bytes=64).close()
    segment = _first_page(tmp_path)
    segment.write_bytes(segment.read_bytes()[:-8])
    store = PagedStore.open(tmp_path / "s")
    # The cut shortens the segment's last page; the others still verify.
    with pytest.raises(PagedStoreError, match="holds 56 bytes"):
        store.read_element("v", -1)
    assert store.read_element("v", 0) == 0
    store.close()


def test_corrupt_newest_manifest_falls_back_to_prior(tmp_path):
    store = PagedStore.create(tmp_path / "s", {"v": range(16)})
    store.write_element("v", 0, 1)
    store.checkpoint()
    store.close()
    newest = tmp_path / "s" / "manifest-0000002.json"
    newest.write_text(newest.read_text()[:-40], encoding="utf-8")
    recovered = PagedStore.open(tmp_path / "s")
    assert recovered.generation == 1
    assert recovered.read_element("v", 0) == 0
    recovered.close()


def test_missing_directory_and_empty_store_rejected(tmp_path):
    with pytest.raises(PagedStoreError):
        PagedStore.open(tmp_path / "nope")
    (tmp_path / "empty").mkdir()
    with pytest.raises(PagedStoreError):
        PagedStore.open(tmp_path / "empty")
    with pytest.raises(PagedStoreError):
        PagedStore.create(tmp_path / "s", {})


def test_knob_resolution(monkeypatch):
    monkeypatch.delenv("DKINDEX_PAGE_BYTES", raising=False)
    monkeypatch.delenv("DKINDEX_POOL_BUDGET", raising=False)
    assert resolve_page_bytes(None) == 16384
    assert resolve_page_bytes(64) == 64
    monkeypatch.setenv("DKINDEX_PAGE_BYTES", "4096")
    assert resolve_page_bytes(None) == 4096
    monkeypatch.setenv("DKINDEX_POOL_BUDGET", "1024")
    assert resolve_pool_budget(None) == 1024
    assert resolve_pool_budget(0) == 0
    with pytest.raises(PagedStoreError):
        resolve_page_bytes(100)  # not a multiple of 8
    with pytest.raises(PagedStoreError):
        resolve_pool_budget(-1)
    monkeypatch.setenv("DKINDEX_PAGE_BYTES", "tiny")
    with pytest.raises(PagedStoreError):
        resolve_page_bytes(None)


def test_paged_store_error_is_a_serialization_error(tmp_path):
    # Callers guarding load paths with `except SerializationError` must
    # keep working when the path leads into a paged store.
    with pytest.raises(SerializationError):
        PagedStore.open(tmp_path / "nope")


# ----------------------------------------------------------------------
# Paged CSR snapshots
# ----------------------------------------------------------------------


def seeded_graph(seed=0, size=150):
    rng = random.Random(seed)
    g = DataGraph()
    created = [0]
    for _ in range(size):
        node = g.add_node(rng.choice("abcd"))
        g.add_edge(created[rng.randrange(len(created))], node)
        created.append(node)
    for _ in range(size // 2):
        a, b = rng.sample(created, 2)
        g.add_edge_if_absent(a, b)
    return g


def test_paged_csr_matches_frozen_view(tmp_path):
    graph = seeded_graph()
    view = graph.freeze()
    paged = PagedCSRGraph.create(
        tmp_path / "csr", graph, page_bytes=128, budget_bytes=512
    )
    assert paged.num_nodes == view.num_nodes
    assert paged.num_edges == view.num_edges
    assert paged.label_names() == graph.label_names()
    for node in range(view.num_nodes):
        assert paged.children(node) == view.children(node)
        assert paged.parents(node) == view.parents(node)
    assert paged.stats.evictions > 0  # the tiny budget forced real paging
    rebuilt = paged.to_csr()
    rebuilt.check_invariants()
    assert rebuilt.label_ids == view.label_ids
    assert rebuilt.child_targets == view.child_targets
    paged.close()


def test_paged_csr_reopen_and_to_csr(tmp_path):
    graph = seeded_graph(seed=3, size=60)
    view = graph.freeze()
    PagedCSRGraph.create(tmp_path / "csr", graph, page_bytes=128).close()
    reopened = PagedCSRGraph.open(tmp_path / "csr", budget_bytes=256)
    back = reopened.to_csr()
    back.check_invariants()
    assert back.num_nodes == graph.num_nodes
    assert back.num_edges == graph.num_edges
    for name in CORE_CSR_BUFFERS:
        assert getattr(back, name) == getattr(view, name)
    assert reopened.label_names() == graph.label_names()
    reopened.close()


def test_paged_csr_of_an_index_graph_pages_only_the_core_buffers(tmp_path):
    index = build_ak_index(seeded_graph(seed=5, size=80), 2)
    view = index.freeze()
    paged = PagedCSRGraph.create(tmp_path / "csr", index, page_bytes=128)
    assert paged.store.buffer_names() == CORE_CSR_BUFFERS
    assert "sealed" not in paged.store.meta
    assert paged.num_nodes == index.num_nodes
    for name in CORE_CSR_BUFFERS:
        assert getattr(paged.to_csr(), name) == getattr(view, name)
    paged.close()


def test_paged_csr_written_by_an_older_release_opens(tmp_path):
    # Older releases paged an index graph's flat extents and k as well,
    # and stamped a "sealed" meta key; the reader ignores all four.
    graph = seeded_graph(seed=7, size=120)
    index = build_ak_index(graph, 2)
    view = index.freeze()
    extent_offsets, extent_targets = flatten_adjacency(index.extents)
    buffers = {name: getattr(view, name) for name in CORE_CSR_BUFFERS}
    buffers.update(
        extent_offsets=extent_offsets,
        extent_targets=extent_targets,
        k=array("q", index.k),
    )
    meta = {
        "labels": list(graph.label_names()),
        "num_nodes": view.num_nodes,
        "num_edges": view.num_edges,
        "num_labels": view.num_labels,
        "sealed": True,
    }
    PagedStore.create(
        tmp_path / "old", buffers, page_bytes=128, meta=meta
    ).close()

    paged = PagedCSRGraph.open(tmp_path / "old", budget_bytes=512)
    assert "extent_offsets" in paged.store.buffer_names()
    assert paged.store.meta["sealed"] is True
    restored = paged.to_csr()
    restored.check_invariants()
    for name in CORE_CSR_BUFFERS:
        assert getattr(restored, name) == getattr(view, name)
    assert restored.num_labels == view.num_labels
    with ExternalEngine(paged) as external:
        external_result = external.run_fixpoint()
    assert external_result == ColumnarEngine(index).run_fixpoint()
    paged.close()


def test_paged_index_graph_keeps_its_data_graph_label_names(tmp_path):
    graph = DataGraph()
    a = graph.add_node("a")
    graph.add_edge(0, a)
    graph.add_edge(a, graph.add_node("b"))
    index = build_ak_index(graph, 1)
    assert index.num_nodes == 3
    PagedCSRGraph.create(tmp_path / "csr", index, page_bytes=64).close()
    with PagedCSRGraph.open(tmp_path / "csr") as paged:
        assert paged.label_names() == ("ROOT", "a", "b")


def test_paged_csr_rejects_non_csr_store(tmp_path):
    PagedStore.create(tmp_path / "s", {"v": [1, 2, 3]}).close()
    with pytest.raises(PagedStoreError, match="lacks CSR buffers"):
        PagedCSRGraph.open(tmp_path / "s")


# ----------------------------------------------------------------------
# Generation lifecycle and pool counters (robustness satellites)
# ----------------------------------------------------------------------


def test_open_pruned_generation_names_survivors(tmp_path):
    store = PagedStore.create(tmp_path / "s", {"v": range(16)}, retain=1)
    for value in (1, 2, 3):
        store.write_element("v", 0, value)
        store.checkpoint()
    store.close()
    # retain=1 keeps generations {3, 4}; generation 1 was pruned.
    with pytest.raises(PagedStoreError, match="pruned") as excinfo:
        PagedStore.open(tmp_path / "s", generation=1)
    message = str(excinfo.value)
    assert "generation 1" in message
    assert "surviving generations: 3, 4" in message


def test_open_unreadable_pinned_generation_names_it(tmp_path):
    store = PagedStore.create(tmp_path / "s", {"v": range(16)})
    store.write_element("v", 0, 5)
    store.checkpoint()
    store.close()
    manifest = tmp_path / "s" / "manifest-0000001.json"
    manifest.write_text(manifest.read_text(encoding="utf-8")[:-40], "utf-8")
    with pytest.raises(
        PagedStoreError, match="present but unreadable"
    ) as excinfo:
        PagedStore.open(tmp_path / "s", generation=1)
    assert "surviving generations: 2" in str(excinfo.value)


def test_pool_stats_idle_hit_rate_and_retry_counters():
    stats = PoolStats()
    assert stats.accesses == 0
    assert stats.hit_rate == 1.0  # no lookups yet: not a 0/0 crash
    payload = stats.as_dict()
    assert payload["hit_rate"] == 1.0
    assert payload["retries"] == 0
    assert payload["give_ups"] == 0
    stats.retries = 3
    stats.give_ups = 1
    delta = stats.delta(PoolStats(retries=1))
    assert delta.retries == 2 and delta.give_ups == 1


@settings(deadline=None, max_examples=40)
@given(
    ops=st.lists(
        st.one_of(
            st.tuples(
                st.just("write"),
                st.integers(min_value=0, max_value=31),
                st.integers(min_value=-5, max_value=5),
            ),
            st.tuples(st.just("checkpoint")),
        ),
        max_size=12,
    )
)
def test_retained_generations_stay_fully_readable(ops):
    """No checkpoint/prune/GC sweep may drop a page a manifest needs.

    Whatever interleaving of mutation and checkpoint runs, every
    generation still on disk afterwards — including after the crash-
    orphan sweep that ``close(discard_dirty=True)`` leaves behind —
    must open and read back in full.
    """
    with tempfile.TemporaryDirectory(prefix="dk-gc-prop-") as tmp:
        base = Path(tmp) / "s"
        store = PagedStore.create(
            base, {"v": range(32)}, page_bytes=64, retain=2
        )
        for op in ops:
            if op[0] == "write":
                _, position, delta = op
                store.write_element(
                    "v", position, store.read_element("v", position) + delta
                )
            else:
                store.checkpoint()
        store.close(discard_dirty=True)
        survivors = _scan_generations(base)
        assert survivors
        for generation in survivors:
            with PagedStore.open(base, generation=generation) as snap:
                values = snap.read_slice("v", 0, snap.length("v"))
                assert len(values) == 32


# ----------------------------------------------------------------------
# Manifest loader: arbitrary and damaged manifests
# ----------------------------------------------------------------------

#: Fields of the manifest (and its CSR meta) that must be JSON integers:
#: a page entry is ``[segment, offset, digest]``.
INT_FIELDS = [
    ("generation",),
    ("page_bytes",),
    ("next_segment",),
    ("page_table", "label_ids", "entries"),
    ("page_table", "label_ids", "pages", 0, 0),
    ("page_table", "label_ids", "pages", 0, 1),
    ("meta", "num_nodes"),
]


@pytest.fixture(scope="module")
def manifest_store(tmp_path_factory):
    """A small paged CSR store plus its manifest file and parsed body."""
    directory = tmp_path_factory.mktemp("manifest-fuzz") / "csr"
    PagedCSRGraph.create(directory, seeded_graph(seed=7, size=40)).close()
    (manifest,) = directory.glob("manifest-*.json")
    text = manifest.read_text(encoding="utf-8")
    body, sealed = unseal(text)
    assert sealed
    return directory, manifest, text, json.loads(body)


def _replaced(document, path, value):
    document = copy.deepcopy(document)
    target = document
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    return document


def _open_both(directory):
    """Open the store both ways; every failure must be a PagedStoreError."""
    for open_store in (PagedStore.open, PagedCSRGraph.open):
        try:
            opened = open_store(directory)
        except PagedStoreError:
            continue
        opened.close()


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_manifest_loader_raises_only_paged_store_errors(manifest_store, data):
    directory, manifest, text, document = manifest_store
    choice = data.draw(st.sampled_from(["text", "truncated", "field"]))
    if choice == "text":
        damaged = data.draw(st.text())
    elif choice == "truncated":
        damaged = text[: data.draw(st.integers(0, len(text) - 1))]
    else:
        # Unsealed JSON is read as a version-1 manifest: the structural
        # checks alone stand between a bad field and the store.
        path = data.draw(
            st.sampled_from(
                INT_FIELDS + [("format",), ("byteorder",), ("meta",), ("page_table",)]
            )
        )
        damaged = json.dumps(_replaced(document, path, data.draw(json_values)))
    try:
        manifest.write_text(damaged, encoding="utf-8")
        _open_both(directory)
    finally:
        manifest.write_text(text, encoding="utf-8")


@pytest.mark.parametrize(
    "literal",
    ["1" * 5000, "[" * 100_000 + "]" * 100_000],
    ids=["long-int", "deep"],
)
@pytest.mark.parametrize("sealed", [True, False], ids=["sealed", "unsealed"])
def test_manifest_json_the_decoder_refuses_is_a_store_error(
    manifest_store, literal, sealed
):
    # json.loads raises a plain ValueError for an integer literal past
    # Python's digit limit and RecursionError for deep nesting.
    directory, manifest, text, document = manifest_store
    body = json.dumps(document).replace(
        f'"generation": {document["generation"]}', f'"generation": {literal}', 1
    )
    try:
        manifest.write_text(seal(body) if sealed else body, encoding="utf-8")
        for open_store in (PagedStore.open, PagedCSRGraph.open):
            with pytest.raises(PagedStoreError, match="no readable manifest"):
                open_store(directory)
    finally:
        manifest.write_text(text, encoding="utf-8")


@pytest.mark.parametrize(
    "offset",
    [-8, True, 8.0, "8", None, 4, 2**63, 10**6],
    ids=[
        "negative", "bool", "float", "string", "null", "unaligned",
        "past-off_t", "past-the-end",
    ],
)
def test_bad_page_offsets_are_store_errors(manifest_store, offset):
    # Structurally bad offsets fail the open; one past the segment's
    # end fails the first read of the page.
    directory, manifest, text, document = manifest_store
    field = ("page_table", "label_ids", "pages", 0, 1)
    try:
        manifest.write_text(
            json.dumps(_replaced(document, field, offset)), encoding="utf-8"
        )
        with pytest.raises(PagedStoreError):
            with PagedCSRGraph.open(directory) as paged:
                paged.to_csr()
    finally:
        manifest.write_text(text, encoding="utf-8")
    PagedCSRGraph.open(directory).close()


@pytest.mark.parametrize("path", INT_FIELDS, ids=lambda path: ".".join(map(str, path)))
@pytest.mark.parametrize("value", [True, False])
def test_manifest_rejects_booleans_for_integers(manifest_store, path, value):
    directory, manifest, text, document = manifest_store
    try:
        manifest.write_text(
            json.dumps(_replaced(document, path, value)), encoding="utf-8"
        )
        with pytest.raises(PagedStoreError):
            PagedCSRGraph.open(directory)
    finally:
        manifest.write_text(text, encoding="utf-8")
    PagedCSRGraph.open(directory).close()
