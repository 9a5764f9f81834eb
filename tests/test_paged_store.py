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
import json
import random
import tempfile
from array import array
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import json_values
from repro.exceptions import PagedStoreError, SerializationError
from repro.graph.datagraph import DataGraph
from repro.maintenance.store import seal, unseal
from repro.storage.paged import (
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


def test_checkpoint_is_copy_on_write(tmp_path):
    store = PagedStore.create(
        tmp_path / "s", {"v": range(100)}, page_bytes=64
    )
    files_before = sorted(p.name for p in (tmp_path / "s" / "pages").iterdir())
    store.write_element("v", 3, -3)
    generation = store.checkpoint()
    assert generation == 2
    files_after = sorted(p.name for p in (tmp_path / "s" / "pages").iterdir())
    # Exactly one fresh page: the dirty one.  Unchanged pages are shared
    # with generation 1, not rewritten.
    assert len(files_after) == len(files_before) + 1
    assert set(files_before) < set(files_after)
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
    assert len(manifests) == 2  # newest + 1 retained
    # Every surviving page file is referenced by a surviving manifest:
    # the superseded copy-on-write pages were garbage collected.
    reopened = PagedStore.open(tmp_path / "s", generation=5)
    assert reopened.read_element("v", 0) == 3
    reopened.close()


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
    page = _first_page(tmp_path)
    page.write_bytes(page.read_bytes()[:-8])
    store = PagedStore.open(tmp_path / "s")
    with pytest.raises(PagedStoreError):
        store.read_element("v", 0)


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


def test_paged_csr_reopen_and_to_datagraph(tmp_path):
    graph = seeded_graph(seed=3, size=60)
    PagedCSRGraph.create(tmp_path / "csr", graph, page_bytes=128).close()
    reopened = PagedCSRGraph.open(tmp_path / "csr", budget_bytes=256)
    back = reopened.to_datagraph()
    assert back.num_nodes == graph.num_nodes
    assert back.num_edges == graph.num_edges
    assert sorted(back.edges()) == sorted(graph.edges())
    reopened.close()


def test_paged_csr_preserves_seal(tmp_path):
    graph = seeded_graph(seed=5, size=30)
    graph.freeze(mode="seal")
    PagedCSRGraph.create(tmp_path / "csr", graph).close()
    reopened = PagedCSRGraph.open(tmp_path / "csr")
    assert reopened.sealed
    back = reopened.to_datagraph()
    assert back.sealed
    reopened.close()


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

#: Fields of the manifest (and its CSR meta) that must be JSON integers.
INT_FIELDS = [
    ("generation",),
    ("page_bytes",),
    ("next_page",),
    ("page_table", "label_ids", "entries"),
    ("page_table", "label_ids", "pages", 0, 0),
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
