"""Deterministic fault injection for the update pipeline.

The chaos suite must prove one property: *whatever* goes wrong inside a
mutating operation, the store ends up either rolled back bit-identically
or repaired to a valid index.  "Whatever goes wrong" is modelled by
named **injection points** threaded through the update and maintenance
code (:data:`FAULT_POINTS`); an armed :class:`FaultInjector` either
raises :class:`~repro.exceptions.InjectedFaultError` or silently
corrupts the index's similarity state on the Nth hit of a point.

Raising faults exercise the transaction/rollback layer; corrupting
faults slip past it on purpose (nothing raises, so the transaction
commits) and exercise the audit-quarantine-repair layer instead.

Everything is deterministic: the corruption victim is derived from the
armed seed and the index's current shape, never from global randomness,
so every chaos failure reproduces from its printed ``(point, mode,
seed)`` triple.

When no injector is armed, :func:`fault_point` is a dict lookup plus a
``None`` check — cheap enough to leave compiled into the hot update
path permanently.
"""

from __future__ import annotations

import errno
import os
import random
from types import TracebackType
from typing import TYPE_CHECKING

from repro.exceptions import InjectedFaultError, MaintenanceError

if TYPE_CHECKING:
    from pathlib import Path

    from repro.indexes.base import IndexGraph

#: Durability injection points threaded through the persistence code
#: (:mod:`repro.maintenance.store` and the journal's append path).  The
#: ``raise`` mode simulates a crash at that instant — the store code
#: arranges that the filesystem already looks exactly like a real crash
#: would leave it (torn temp file, durable-but-unrenamed temp, lost
#: pages after a rename without fsync).  The ``corrupt`` mode models
#: bit-rot: one byte of the just-written file flips silently and the
#: operation carries on.
DURABILITY_FAULT_POINTS: dict[str, str] = {
    "store.torn_write": "atomic write: temp file half-written at the crash",
    "store.partial_rename": "atomic write: temp durable, rename never issued",
    "store.missing_fsync": "atomic write: renamed without fsync; pages lost",
    "store.bit_flip": "atomic write: destination durable, then one byte rots",
    "journal.torn_append": "journal append: the entry line tears mid-write",
    "journal.bit_flip": "journal append: one byte of the new record rots afterwards",
    "recover.mid_ladder": "recovery: crash between two rungs of the ladder",
}

#: Storage injection points threaded through the out-of-core layer
#: (:mod:`repro.storage.paged`).  Unlike the durability points, several
#: of these model *operating-system* failures rather than crashes: the
#: ``transient`` mode raises an ``EIO`` that a later attempt would not
#: see (exercising the retry/backoff policy), and ``enospc`` raises a
#: persistent ``ENOSPC`` that no amount of retrying fixes (exercising
#: degradation).  The ``rate`` knob makes a point fire probabilistically
#: on *every* hit instead of latching on the Nth — a flaky disk, not a
#: single landmine.
STORAGE_FAULT_POINTS: dict[str, str] = {
    "storage.page_torn_write": "page append: the page is half-written at the crash",
    "storage.page_bit_flip": "page append: one byte of the new page rots afterwards",
    "storage.page_read_eio_transient": "page load: the ranged read fails with EIO",
    "storage.page_enospc": "page append: the filesystem is out of space",
    "storage.manifest_corrupt": "checkpoint: manifest durable, then rots",
    "storage.pool_evict_writeback_fail": "pool evict: dirty write-back fails",
}

#: Registry of injection points threaded through the update/refinement
#: code, keyed by name with a short description of where the point sits.
FAULT_POINTS: dict[str, str] = {
    **DURABILITY_FAULT_POINTS,
    **STORAGE_FAULT_POINTS,
    "add_edge.planned": "dk_add_edge: plan complete, before the first write",
    "add_edge.graph_mutated": "dk_add_edge: data edge in, index untouched",
    "add_edge.index_edge": "dk_add_edge: index edge in, ks not yet lowered",
    "add_edge.lowered": "dk_add_edge: after the Algorithm-5 sweep",
    "remove_edge.planned": "dk_remove_edge: plan complete, before writes",
    "remove_edge.graph_mutated": "dk_remove_edge: data edge out, index stale",
    "remove_edge.lowered": "dk_remove_edge: after the lowering sweep",
    "add_subgraph.grafted": "dk_add_subgraph: subgraph grafted, no index yet",
    "add_subgraph.reindexed": "dk_add_subgraph: merged index built",
    "promote.split": "promote_nodes: after an extent split inside a round",
    "demote.reindexed": "demote_index: coarser index built, not yet swapped",
    "pipeline.pre_audit": "pipeline: operation done, audit not yet run",
}

#: Injection modes: ``raise`` throws InjectedFaultError at the point;
#: ``corrupt`` silently damages a k value (or flips a file byte) and
#: lets the operation finish; ``transient`` raises ``OSError(EIO)`` —
#: the retryable class of I/O failure; ``enospc`` raises
#: ``OSError(ENOSPC)`` — the persistent class.  The OS-error modes make
#: the fault indistinguishable from a real kernel failure, so the code
#: under test cannot special-case the harness.
FAULT_MODES = ("raise", "corrupt", "transient", "enospc")


class FaultInjector:
    """Arms one injection point; also a context manager installing itself.

    Args:
        point: a key of :data:`FAULT_POINTS`.
        mode: one of :data:`FAULT_MODES`.
        trigger_on_hit: fire on the Nth time the point is reached
            (1-based); later hits pass through untouched.  Ignored when
            ``rate`` is set.
        seed: determinism anchor for corruption victim selection and
            the rate-mode coin flips.
        rate: when > 0, fire independently on *every* hit with this
            probability (seeded, so the exact firing sequence
            reproduces) instead of latching on the Nth hit — models a
            flaky device rather than a single event.

    Attributes:
        hits: how often the armed point has been reached.
        fired: whether the fault triggered at least once.
        fires: how many times the fault actually triggered.
    """

    def __init__(
        self,
        point: str,
        mode: str = "raise",
        trigger_on_hit: int = 1,
        seed: int = 0,
        rate: float = 0.0,
    ) -> None:
        if point not in FAULT_POINTS:
            raise MaintenanceError(
                f"unknown fault point {point!r}; registered: "
                f"{', '.join(sorted(FAULT_POINTS))}"
            )
        if mode not in FAULT_MODES:
            raise MaintenanceError(
                f"unknown fault mode {mode!r}; use one of {FAULT_MODES}"
            )
        if trigger_on_hit < 1:
            raise MaintenanceError("trigger_on_hit is 1-based")
        if not 0.0 <= rate <= 1.0:
            raise MaintenanceError(f"fault rate must be in [0, 1]: {rate}")
        self.point = point
        self.mode = mode
        self.trigger_on_hit = trigger_on_hit
        self.seed = seed
        self.rate = rate
        self.hits = 0
        self.fired = False
        self.fires = 0
        self._coin = random.Random(seed) if rate > 0 else None

    # -- installation ---------------------------------------------------

    def __enter__(self) -> "FaultInjector":
        _install(self)
        return self

    def __exit__(
        self,
        exc_type: type[BaseException] | None,
        exc: BaseException | None,
        traceback: TracebackType | None,
    ) -> None:
        _uninstall(self)

    # -- the hit path ---------------------------------------------------

    def hit(
        self,
        point: str,
        index: "IndexGraph | None",
        path: "Path | None" = None,
        start: int = 0,
    ) -> None:
        """Called by :func:`fault_point` when this injector is armed."""
        if point != self.point:
            return
        self.hits += 1
        if self._coin is not None:
            if self._coin.random() >= self.rate:
                return
        elif self.fired or self.hits != self.trigger_on_hit:
            return
        self.fired = True
        self.fires += 1
        if self.mode == "raise":
            raise InjectedFaultError(point, self.hits)
        if self.mode == "transient":
            raise OSError(
                errno.EIO,
                f"injected: {os.strerror(errno.EIO)}",
                None if path is None else str(path),
            )
        if self.mode == "enospc":
            raise OSError(
                errno.ENOSPC,
                f"injected: {os.strerror(errno.ENOSPC)}",
                None if path is None else str(path),
            )
        if path is not None:
            self._corrupt_file(path, start)
        elif index is not None:
            self._corrupt(index)

    def _corrupt(self, index: "IndexGraph") -> None:
        """Deterministically damage one local similarity.

        The victim is a non-root index node that has at least one parent
        (so the +10 bump is guaranteed to violate Definition 3 against
        realistic k ranges), chosen by the seed.  Indexes too small to
        corrupt are left alone — the chaos harness records the fault as
        fired either way.
        """
        candidates = [
            node
            for node in range(index.num_nodes)
            if index.parents[node]
        ]
        if not candidates:
            return
        victim = candidates[self.seed % len(candidates)]
        index.k[victim] = index.k[victim] + 10

    def _corrupt_file(self, path: "Path", start: int = 0) -> None:
        """Flip one bit of ``path`` (bit-rot), at the seed-chosen offset.

        The flip lands at ``start + seed % (len - start)``: somewhere in
        the bytes from ``start`` on, which lets the journal aim it at
        the record it has just appended rather than the base line.  It
        may land anywhere there — a checksum prefix, a JSON digit, a
        line separator — which is exactly the point: the durability
        chaos suite must show that *every* landing spot is detected by
        the integrity layer, never silently absorbed into a different
        index.  Missing files, and files with nothing from ``start`` on,
        are left alone (the fault still counts as fired; there is
        nothing to rot).
        """
        try:
            data = bytearray(path.read_bytes())
        except OSError:
            return
        if len(data) <= start:
            return
        data[start + self.seed % (len(data) - start)] ^= 0x01
        path.write_bytes(bytes(data))


#: The armed injector, if any.  A single slot (not a stack): chaos runs
#: one fault at a time, which is also what keeps failures attributable.
_ARMED: FaultInjector | None = None


def _install(injector: FaultInjector) -> None:
    global _ARMED
    if _ARMED is not None:
        raise MaintenanceError(
            f"fault injector already armed at {_ARMED.point!r}"
        )
    _ARMED = injector


def _uninstall(injector: FaultInjector) -> None:
    global _ARMED
    if _ARMED is injector:
        _ARMED = None


def inject_faults(
    point: str,
    mode: str = "raise",
    trigger_on_hit: int = 1,
    seed: int = 0,
    rate: float = 0.0,
) -> FaultInjector:
    """Convenience constructor: ``with inject_faults("add_edge.planned"): ...``."""
    return FaultInjector(
        point, mode, trigger_on_hit=trigger_on_hit, seed=seed, rate=rate
    )


def fault_point(
    name: str,
    index: "IndexGraph | None" = None,
    path: "Path | None" = None,
    start: int = 0,
) -> None:
    """Mark an injection point in production code.

    ``name`` must be registered in :data:`FAULT_POINTS` (checked only
    when an injector is armed, keeping the disarmed path free).  Pass
    the index being mutated — or, for durability points, the file just
    written, and the offset ``start`` where its new bytes begin — so
    corrupting faults have a target.
    """
    armed = _ARMED
    if armed is not None:
        if name not in FAULT_POINTS:
            raise MaintenanceError(f"unregistered fault point {name!r}")
        armed.hit(name, index, path, start)
