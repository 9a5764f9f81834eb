"""Storage chaos: faulted paged I/O, retry/backoff, scrub, degradation.

The storage crash matrix (:func:`repro.maintenance.chaos.run_storage_suite`)
is itself the test of the out-of-core robustness stack; these tests pin
its headline guarantee (zero silent data loss across >= 20 scenarios)
and unit-test the pieces it composes: the transient-I/O retry policy,
the OS-error fault modes, engine degradation, and page scrub & repair.
"""

import errno
import warnings

import pytest

from repro.cli import main
from repro.exceptions import (
    InjectedFaultError,
    MaintenanceError,
    PagedStoreError,
    StorageDegradationWarning,
)
from repro.maintenance import chaos
from repro.maintenance.chaos import (
    STORAGE_SCENARIOS,
    _fixture_graph,
    run_storage_suite,
)
from repro.maintenance.faults import (
    FAULT_POINTS,
    STORAGE_FAULT_POINTS,
    FaultInjector,
)
from repro.maintenance.repair import scrub_store
from repro.partition.refinement import bisim_partition
from repro.storage.paged import PagedCSRGraph, PagedStore, PoolStats
from repro.storage.retry import (
    TRANSIENT_ERRNOS,
    RetryPolicy,
    io_retry,
    resolve_retry_policy,
)

# ----------------------------------------------------------------------
# The storage crash matrix
# ----------------------------------------------------------------------


@pytest.mark.parametrize("seed", [0, 1])
def test_storage_matrix_zero_silent_loss(seed, tmp_path):
    report = run_storage_suite(seed=seed, work_dir=tmp_path)
    assert report.ok, report.format()
    assert len(report.outcomes) == len(STORAGE_SCENARIOS) >= 20
    counts = report.counts()
    assert counts.get("broken", 0) == 0
    assert counts.get("unrepaired", 0) == 0
    # Every recovery story must actually be exercised by the matrix.
    for outcome in (
        "absorbed",
        "rebuilt",
        "degraded",
        "rolled-back",
        "repaired",
        "recovered",
        "flagged-rebuild",
        "loud",
    ):
        assert counts.get(outcome, 0) > 0, (outcome, counts)


def test_storage_rows_do_not_move_when_a_row_is_removed(tmp_path, monkeypatch):
    # Every scenario runs under the run's seed, not one derived from its
    # position, so deleting a row leaves every other row's outcome and
    # counts as they were.
    full = run_storage_suite(seed=0, work_dir=tmp_path / "full")
    removed = next(
        position
        for position, scenario in enumerate(STORAGE_SCENARIOS)
        if scenario[4] > 0.0
    )
    kept = STORAGE_SCENARIOS[:removed] + STORAGE_SCENARIOS[removed + 1 :]
    monkeypatch.setattr(chaos, "STORAGE_SCENARIOS", kept)
    fewer = run_storage_suite(seed=0, work_dir=tmp_path / "fewer")
    assert fewer.outcomes == full.outcomes[:removed] + full.outcomes[removed + 1 :]


def test_storage_scenarios_only_name_registered_points():
    for phase, point, mode, hit, rate, expect in STORAGE_SCENARIOS:
        assert point in FAULT_POINTS, (phase, point)
        assert hit >= 1 and 0.0 <= rate <= 1.0
    # Every registered storage point is attacked by at least one scenario.
    attacked = {point for _, point, *_ in STORAGE_SCENARIOS}
    assert set(STORAGE_FAULT_POINTS) <= attacked


# ----------------------------------------------------------------------
# The retry policy
# ----------------------------------------------------------------------


def test_io_retry_absorbs_transient_errors():
    stats = PoolStats()
    attempts = []

    def flaky():
        attempts.append(len(attempts))
        if len(attempts) < 3:
            raise OSError(errno.EIO, "injected")
        return "ok"

    policy = RetryPolicy(retries=4, backoff_ms=0.0, seed=0)
    assert io_retry(flaky, what="read", policy=policy, stats=stats) == "ok"
    assert len(attempts) == 3
    assert stats.retries == 2
    assert stats.give_ups == 0


def test_io_retry_fails_fast_on_non_transient_errno():
    attempts = []

    def doomed():
        attempts.append(len(attempts))
        raise OSError(errno.ENOSPC, "injected")

    policy = RetryPolicy(retries=4, backoff_ms=0.0, seed=0)
    with pytest.raises(PagedStoreError):
        io_retry(doomed, what="write", policy=policy)
    assert len(attempts) == 1  # no retry: ENOSPC is not transient


def test_io_retry_gives_up_after_budget():
    stats = PoolStats()

    def always_eio():
        raise OSError(errno.EIO, "injected")

    policy = RetryPolicy(retries=2, backoff_ms=0.0, seed=0)
    with pytest.raises(PagedStoreError, match="3 attempt"):
        io_retry(always_eio, what="read", policy=policy, stats=stats)
    assert stats.retries == 2
    assert stats.give_ups == 1


def test_retry_policy_resolution(monkeypatch):
    monkeypatch.delenv("DKINDEX_IO_RETRIES", raising=False)
    monkeypatch.delenv("DKINDEX_IO_BACKOFF_MS", raising=False)
    assert resolve_retry_policy().retries == 4
    monkeypatch.setenv("DKINDEX_IO_RETRIES", "7")
    monkeypatch.setenv("DKINDEX_IO_BACKOFF_MS", "0.5")
    policy = resolve_retry_policy(seed=3)
    assert policy == RetryPolicy(retries=7, backoff_ms=0.5, seed=3)
    assert resolve_retry_policy(retries=1, backoff_ms=0.0).retries == 1
    monkeypatch.setenv("DKINDEX_IO_RETRIES", "soon")
    with pytest.raises(PagedStoreError):
        resolve_retry_policy()
    assert errno.EIO in TRANSIENT_ERRNOS
    assert errno.ENOSPC not in TRANSIENT_ERRNOS


# ----------------------------------------------------------------------
# The OS-error fault modes
# ----------------------------------------------------------------------


def test_transient_mode_raises_eio_once():
    injector = FaultInjector(
        "storage.page_read_eio_transient", "transient", trigger_on_hit=2
    )
    injector.hit("storage.page_read_eio_transient", None)
    with pytest.raises(OSError) as excinfo:
        injector.hit("storage.page_read_eio_transient", None)
    assert excinfo.value.errno == errno.EIO
    injector.hit("storage.page_read_eio_transient", None)  # latched: clean
    assert injector.fired and injector.fires == 1 and injector.hits == 3


def test_enospc_mode_raises_enospc():
    injector = FaultInjector("storage.page_enospc", "enospc")
    with pytest.raises(OSError) as excinfo:
        injector.hit("storage.page_enospc", None)
    assert excinfo.value.errno == errno.ENOSPC


def test_rate_mode_fires_on_every_hit_at_certainty():
    injector = FaultInjector(
        "storage.page_read_eio_transient", "transient", rate=1.0
    )
    for _ in range(5):
        with pytest.raises(OSError):
            injector.hit("storage.page_read_eio_transient", None)
    assert injector.fires == 5  # non-latching: a flaky disk, not a landmine


def test_rate_mode_is_seeded_and_validated():
    def firing_pattern(seed):
        injector = FaultInjector(
            "storage.page_read_eio_transient", "transient", seed=seed, rate=0.5
        )
        pattern = []
        for _ in range(32):
            try:
                injector.hit("storage.page_read_eio_transient", None)
                pattern.append(False)
            except OSError:
                pattern.append(True)
        return pattern

    assert firing_pattern(7) == firing_pattern(7)
    assert any(firing_pattern(7)) and not all(firing_pattern(7))
    with pytest.raises(MaintenanceError):
        FaultInjector("storage.page_enospc", "enospc", rate=1.5)


# ----------------------------------------------------------------------
# Graceful engine degradation
# ----------------------------------------------------------------------


def _fail_all_page_reads():
    return FaultInjector(
        "storage.page_read_eio_transient", "transient", rate=1.0
    )


@pytest.fixture
def fast_retries(monkeypatch):
    monkeypatch.setenv("DKINDEX_IO_RETRIES", "0")
    monkeypatch.setenv("DKINDEX_IO_BACKOFF_MS", "0")


def test_degrade_warn_falls_back_with_warning(fast_retries):
    graph = _fixture_graph()
    baseline, rounds = bisim_partition(graph, engine="columnar")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with _fail_all_page_reads():
            partition, degraded_rounds = bisim_partition(
                graph, engine="external"
            )
    storage_warnings = [
        entry
        for entry in caught
        if isinstance(entry.message, StorageDegradationWarning)
    ]
    assert storage_warnings
    assert storage_warnings[0].message.from_engine == "external"
    assert storage_warnings[0].message.to_engine == "columnar"
    # Attributed to the caller of bisim_partition, not to the driver.
    assert storage_warnings[0].filename == __file__
    assert partition.block_of == baseline.block_of
    assert degraded_rounds == rounds


def test_degradation_warning_as_error_fails_loudly(fast_retries):
    # The documented way to refuse the fallback: escalate the warning.
    with warnings.catch_warnings():
        warnings.simplefilter("error", StorageDegradationWarning)
        with _fail_all_page_reads():
            with pytest.raises(StorageDegradationWarning) as raised:
                bisim_partition(_fixture_graph(), engine="external")
    assert isinstance(raised.value.__context__, PagedStoreError)


def test_degrade_never_absorbs_injected_crashes():
    # A simulated crash (InjectedFaultError) must propagate: if the
    # degradation chain could eat it, it could eat real crashes too.
    with FaultInjector("storage.page_torn_write", "raise"):
        with pytest.raises(InjectedFaultError):
            bisim_partition(_fixture_graph(), engine="external")


# ----------------------------------------------------------------------
# Page scrub & repair
# ----------------------------------------------------------------------


def _page_files(directory):
    return sorted((directory / "pages").iterdir())


def _flip_byte(path):
    raw = bytearray(path.read_bytes())
    raw[0] ^= 0x20
    path.write_bytes(bytes(raw))


def test_scrub_repairs_from_older_generation(tmp_path):
    store_dir = tmp_path / "s"
    graph = _fixture_graph()
    view = graph.freeze()
    paged = PagedCSRGraph.create(store_dir, graph, page_bytes=64)
    store = paged.store
    # Same-value rewrite: generation 2 gets fresh physical pages with
    # generation 1's digests — the donor twins repair relies on.
    for position in range(store.length("label_ids")):
        store.write_element(
            "label_ids", position, store.read_element("label_ids", position)
        )
    store.checkpoint()
    paged.close()
    # Rot one generation-2 page file on disk (the newest physical ids).
    _flip_byte(_page_files(store_dir)[-1])
    report = scrub_store(store_dir)
    assert report.ok and not report.rebuild_required
    assert len(report.repaired) == 1
    assert "restored from generation 1" in report.repaired[0].detail
    assert (store_dir / "quarantine").exists()  # evidence kept
    with PagedCSRGraph.open(store_dir) as healed:
        assert healed.to_csr().label_ids == view.label_ids


def test_scrub_flags_rebuild_when_no_donor_exists(tmp_path):
    store_dir = tmp_path / "s"
    PagedCSRGraph.create(store_dir, _fixture_graph(), page_bytes=64).close()
    _flip_byte(_page_files(store_dir)[0])
    report = scrub_store(store_dir)
    assert not report.ok and report.rebuild_required
    assert len(report.unrepairable) == 1
    assert "rebuild" in report.format()
    # The damaged page is quarantined, never served: reads stay loud.
    bad = report.unrepairable[0]
    with PagedCSRGraph.open(store_dir) as paged:
        with pytest.raises(PagedStoreError):
            paged.store.read_slice(
                bad.buffer, 0, paged.store.length(bad.buffer)
            )


def test_scrub_refuses_dirty_pages(tmp_path):
    store = PagedStore.create(tmp_path / "s", {"v": range(16)})
    store.write_element("v", 0, 99)
    with pytest.raises(PagedStoreError, match="dirty"):
        store.scrub()
    store.checkpoint()
    assert store.scrub().ok
    store.close()


# ----------------------------------------------------------------------
# CLI surfaces
# ----------------------------------------------------------------------


def test_cli_chaos_storage_only(capsys):
    assert main(["chaos", "--storage", "--seed", "1"]) == 0
    out = capsys.readouterr().out
    assert "storage crash matrix" in out
    assert "durability crash matrix" not in out
    assert "-> OK" in out


def test_cli_scrub(tmp_path, capsys):
    store_dir = tmp_path / "s"
    PagedCSRGraph.create(store_dir, _fixture_graph(), page_bytes=64).close()
    assert main(["scrub", str(store_dir)]) == 0
    assert "0 unrepairable" in capsys.readouterr().out
    _flip_byte(_page_files(store_dir)[0])
    assert main(["scrub", str(store_dir)]) == 1
    out = capsys.readouterr().out
    assert "UNREPAIRED" in out and "rebuild from the source graph" in out
