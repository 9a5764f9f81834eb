"""Exception hierarchy for the ``repro`` package.

Every error raised deliberately by this library derives from
:class:`ReproError` so callers can catch library failures with a single
``except`` clause while letting programming errors (``TypeError`` and
friends) propagate.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the ``repro`` package."""


class GraphError(ReproError):
    """Invalid operation on a :class:`~repro.graph.datagraph.DataGraph`."""


class UnknownNodeError(GraphError):
    """A node identifier does not exist in the graph."""

    def __init__(self, node: int) -> None:
        super().__init__(f"unknown node id: {node!r}")
        self.node = node


class UnknownLabelError(GraphError):
    """A label name or label identifier does not exist in the graph."""

    def __init__(self, label: object) -> None:
        super().__init__(f"unknown label: {label!r}")
        self.label = label


class PathSyntaxError(ReproError):
    """A path expression failed to lex or parse.

    Attributes:
        text: the offending expression text.
        position: 0-based character offset where the error was detected.
    """

    def __init__(self, message: str, text: str, position: int) -> None:
        pointer = " " * position + "^"
        super().__init__(f"{message}\n  {text}\n  {pointer}")
        self.text = text
        self.position = position


class RenderLimitError(ReproError, ValueError):
    """A graph is too large for the requested rendering.

    Raised by the DOT export over its ``max_nodes`` limit.  Also a
    :class:`ValueError`, which is what the export raised before it had
    a typed error, so existing ``except ValueError`` callers keep
    working.
    """


class IndexError_(ReproError):
    """Invalid operation on an index graph.

    Named with a trailing underscore to avoid shadowing the builtin
    ``IndexError``.
    """


class IndexInvariantError(IndexError_):
    """An index-graph invariant (extent partition, D(k) constraint) failed."""


class UpdateError(ReproError):
    """An incremental update operation could not be applied."""


class MaintenanceError(ReproError):
    """The transactional maintenance pipeline failed."""


class JournalError(MaintenanceError):
    """A write-ahead journal is corrupt or cannot be replayed."""


class CheckpointError(MaintenanceError):
    """A checkpoint-store operation failed (bad layout, unwritable state)."""


class RecoveryError(MaintenanceError):
    """Point-in-time recovery exhausted every rung of the ladder."""


class QuarantineError(MaintenanceError):
    """A post-update audit failed and automatic repair did not recover.

    The index is flagged as quarantined; answers may be unsound until a
    successful repair or rebuild.
    """


class InjectedFaultError(ReproError):
    """Raised by the fault-injection harness at an armed injection point.

    Deliberately *not* a :class:`MaintenanceError`: the chaos suite must
    prove the pipeline survives arbitrary exceptions, so the injected
    fault should look like any foreign error to the transaction layer.
    """

    def __init__(self, point: str, hit: int) -> None:
        super().__init__(f"injected fault at {point!r} (hit {hit})")
        self.point = point
        self.hit = hit


class WorkloadError(ReproError):
    """A query workload is malformed or incompatible with a graph."""


class DatasetError(ReproError):
    """A dataset generator received invalid parameters."""


class DTDError(DatasetError):
    """A DTD document failed to parse or is unsupported."""


class SerializationError(ReproError):
    """A graph or index could not be serialized or deserialized."""


class PagedStoreError(SerializationError):
    """An out-of-core paged store is corrupt or was misused.

    Raised by :mod:`repro.storage.paged` for manifest/page integrity
    failures, unknown buffers and invalid pool budgets.  Subclasses
    :class:`SerializationError` because a paged store *is* a
    persistence format — callers guarding a load path with
    ``except SerializationError`` stay correct.
    """


class StorageDegradationWarning(UserWarning):
    """A refinement engine failed on storage I/O and a fallback took over.

    Emitted by the refinement drivers' degradation path
    (``repro.partition.refinement._run_degradable``) when the external
    engine died on an exhausted storage path — retry budget spent, disk
    full, pool unsatisfiable — and the build restarted on the columnar
    engine (the ``external -> columnar`` chain).
    The result is still *correct* (every engine computes the identical
    partition); what changed is the resource profile, which is why this
    is a warning rather than an error.  To fail loudly instead, turn it
    into one — ``warnings.simplefilter("error",
    StorageDegradationWarning)``, or ``-W error::UserWarning`` since it
    is a :class:`UserWarning` subclass — or drive
    :class:`~repro.partition.external.ExternalEngine` directly.

    Attributes:
        from_engine: the engine that failed.
        to_engine: the engine that took over.
        reason: the storage failure that triggered the fallback.
    """

    def __init__(self, from_engine: str, to_engine: str, reason: str) -> None:
        super().__init__(
            f"storage degradation: engine {from_engine!r} failed "
            f"({reason}); falling back to {to_engine!r}"
        )
        self.from_engine = from_engine
        self.to_engine = to_engine
        self.reason = reason
