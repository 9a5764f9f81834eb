"""Span recorder and layer instrumentation for the traced run.

A traced pass wraps the program's public functions from outside: for
the duration of the pass it rebinds the names the calling modules
imported (or the class attributes they dispatch through) to wrappers
that open a span, call the original and close the span.  Nothing in
``src/`` is edited, and :meth:`Patches.restore` puts every binding
back, so the untraced passes run the unmodified program.

Each span records its name, start, end and parent.  A span's *self
time* is its duration minus the durations of its children; summed per
span name it gives the per-layer time metrics.  Spans stay in memory
and are written out once, when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from contextlib import contextmanager
from pathlib import Path
from types import ModuleType
from typing import Any, Callable, Iterator

#: ``after(recorder, token, args, kwargs, result)`` — counts taken from a
#: call's arguments and result once its span has closed.
After = Callable[["Recorder", Any, tuple, dict, Any], None]
#: ``before(recorder, args, kwargs) -> token`` — state read before the call.
Before = Callable[["Recorder", tuple, dict], Any]


class Recorder:
    """Spans and counters of one traced pass, kept in memory.

    Recording happens only while :attr:`enabled` is true; the
    benchmark clears it around its correctness checks, so the oracle's
    own calls into the program are not charged to any layer.
    """

    def __init__(self) -> None:
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.counts: dict[str, float] = {}
        self.enabled = False
        self._stack: list[int] = []

    @contextmanager
    def paused(self) -> Iterator[None]:
        """Record nothing inside the block (used around checks)."""
        enabled, self.enabled = self.enabled, False
        try:
            yield
        finally:
            self.enabled = enabled

    def count(self, key: str, amount: float = 1) -> None:
        """Add ``amount`` to the counter ``key``."""
        self.counts[key] = self.counts.get(key, 0) + amount

    def open(self, name: str) -> int:
        """Start a span under the innermost open one; returns its id."""
        span = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ends.append(0.0)
        self._stack.append(span)
        self.starts.append(time.perf_counter())
        return span

    def close(self, span: int) -> None:
        """End the innermost open span."""
        self.ends[span] = time.perf_counter()
        self._stack.pop()

    def innermost(self) -> str | None:
        """Name of the innermost open span, or None outside all spans."""
        return self.names[self._stack[-1]] if self._stack else None

    def self_times(self) -> dict[str, tuple[int, float]]:
        """``{span name: (calls, total self time in seconds)}``."""
        child_time = [0.0] * len(self.names)
        for span, parent in enumerate(self.parents):
            if parent >= 0:
                child_time[parent] += self.ends[span] - self.starts[span]
        totals: dict[str, tuple[int, float]] = {}
        for span, name in enumerate(self.names):
            calls, seconds = totals.get(name, (0, 0.0))
            own = self.ends[span] - self.starts[span] - child_time[span]
            totals[name] = (calls + 1, seconds + own)
        return totals

    def covered_s(self) -> float:
        """Wall time covered by some span (the root spans' durations)."""
        return sum(
            self.ends[span] - self.starts[span]
            for span, parent in enumerate(self.parents)
            if parent < 0
        )

    def write(self, path: Path, header: dict[str, Any]) -> None:
        """Write the header and every span as JSON lines."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(json.dumps(header) + "\n")
            for span, name in enumerate(self.names):
                record = {
                    "span": span,
                    "name": name,
                    "start": self.starts[span],
                    "end": self.ends[span],
                    "parent": self.parents[span],
                }
                handle.write(json.dumps(record) + "\n")


def traced(
    recorder: Recorder,
    name: str,
    fn: Callable[..., Any],
    before: Before | None = None,
    after: After | None = None,
) -> Callable[..., Any]:
    """``fn`` wrapped in a span called ``name``."""

    @functools.wraps(fn)
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        if not recorder.enabled:
            return fn(*args, **kwargs)
        token = before(recorder, args, kwargs) if before is not None else None
        span = recorder.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            recorder.close(span)
        if after is not None:
            after(recorder, token, args, kwargs, result)
        return result

    return wrapper


class Patches:
    """Rebindings of module globals and class attributes, undoable."""

    def __init__(self) -> None:
        self._undo: list[Callable[[], None]] = []

    def replace(self, owner: ModuleType | type, attr: str, value: Any) -> None:
        """Bind ``owner.attr`` to ``value`` until :meth:`restore`."""
        namespace = vars(owner)
        had = attr in namespace
        raw = namespace.get(attr)
        setattr(owner, attr, value)

        def undo() -> None:
            if had:
                setattr(owner, attr, raw)
            else:  # an inherited attribute: drop the shadowing one
                delattr(owner, attr)

        self._undo.append(undo)

    def wrap(
        self,
        owner: ModuleType | type | str,
        attr: str,
        recorder: Recorder,
        name: str,
        before: Before | None = None,
        after: After | None = None,
    ) -> None:
        """Wrap the function (or method) ``owner.attr`` in a span."""
        if isinstance(owner, str):
            owner = importlib.import_module(owner)
        raw = vars(owner).get(attr, getattr(owner, attr))
        if isinstance(raw, classmethod):
            value: Any = classmethod(
                traced(recorder, name, raw.__func__, before, after)
            )
        else:
            value = traced(recorder, name, raw, before, after)
        self.replace(owner, attr, value)

    def restore(self) -> None:
        """Undo every rebinding, newest first."""
        while self._undo:
            self._undo.pop()()


class _TracedOs:
    """Stands in for a module's ``os``: ``fsync`` is spanned, the rest
    is the real module."""

    def __init__(self, real: ModuleType, fsync: Callable[[int], None]) -> None:
        self._real = real
        self.fsync = fsync

    def __getattr__(self, attr: str) -> Any:
        return getattr(self._real, attr)


def _maintenance_fsync(recorder: Recorder, fsync: Callable[[int], None]) -> Callable[[int], None]:
    """``os.fsync`` spanned as ``maintenance.fsync`` when a maintenance
    span called it.  The store module's atomic writer also writes the
    paged store's pages; those fsyncs run unspanned, so their time stays
    in the enclosing storage (or partition) span's self time."""
    spanned = traced(recorder, "maintenance.fsync", fsync)

    @functools.wraps(fsync)
    def wrapper(fd: int) -> None:
        caller = recorder.innermost()
        if caller is not None and caller.startswith("maintenance."):
            return spanned(fd)
        return fsync(fd)

    return wrapper


def _eval_counter(args: tuple, kwargs: dict) -> Any:
    """The ``counter`` argument of ``evaluate_on_index``, if any."""
    return args[2] if len(args) > 2 else kwargs.get("counter")


def _eval_before(recorder: Recorder, args: tuple, kwargs: dict) -> Any:
    counter = _eval_counter(args, kwargs)
    if counter is None:
        return None
    return counter.index_nodes_visited, counter.validated_queries


def _eval_after(
    recorder: Recorder, token: Any, args: tuple, kwargs: dict, result: Any
) -> None:
    if token is None:
        return
    counter = _eval_counter(args, kwargs)
    visited, validated = token
    recorder.count("indexes.index_nodes_visited", counter.index_nodes_visited - visited)
    if counter.validated_queries > validated:
        recorder.count("indexes.validated_queries")


def _validator(recorder: Recorder, fn: Callable[..., Any]) -> Callable[..., Any]:
    """Span a validation call, counting candidates, verified nodes and
    data-graph visits.  The candidate iterable is materialised inside
    the span (it is the caller's lazy filter, part of the work)."""

    @functools.wraps(fn)
    def wrapper(graph: Any, candidates: Any, spec: Any, anchored: bool, counter: Any) -> Any:
        if not recorder.enabled:
            return fn(graph, candidates, spec, anchored, counter)
        visited = counter.data_nodes_visited
        span = recorder.open("indexes.validate")
        try:
            candidate_list = list(candidates)
            verified = fn(graph, candidate_list, spec, anchored, counter)
        finally:
            recorder.close(span)
        recorder.count("indexes.candidates", len(candidate_list))
        recorder.count("indexes.verified", len(verified))
        recorder.count("indexes.data_nodes_visited", counter.data_nodes_visited - visited)
        return verified

    return wrapper


def _count_after(key: str, measure: Callable[[Any, tuple], float]) -> After:
    def after(recorder: Recorder, token: Any, args: tuple, kwargs: dict, result: Any) -> None:
        recorder.count(key, measure(result, args))

    return after


def _add_edge_after(
    recorder: Recorder, token: Any, args: tuple, kwargs: dict, result: Any
) -> None:
    recorder.count("core.lowered_nodes", len(result.lowered))
    recorder.count("core.index_nodes_touched", result.index_nodes_touched)


def _promote_after(
    recorder: Recorder, token: Any, args: tuple, kwargs: dict, result: Any
) -> None:
    recorder.count("core.promote_rounds", result.rounds)
    recorder.count("core.promote_new_nodes", result.new_index_nodes)


def _blocks(result: Any, args: tuple) -> float:
    partition = result[0] if isinstance(result, tuple) else result
    return partition.num_blocks


def _external_before(recorder: Recorder, args: tuple, kwargs: dict) -> Any:
    engine = args[0]
    return engine.stats.snapshot(), engine.spilled_runs


def _external_after(
    recorder: Recorder, token: Any, args: tuple, kwargs: dict, result: Any
) -> None:
    engine = args[0]
    before, spills = token
    delta = engine.stats.delta(before)
    recorder.count("storage.pool_hits", delta.hits)
    recorder.count("storage.pool_misses", delta.misses)
    recorder.count("storage.pool_evictions", delta.evictions)
    recorder.count("storage.retries", delta.retries)
    recorder.count("storage.give_ups", delta.give_ups)
    recorder.count("storage.spilled_runs", engine.spilled_runs - spills)
    if isinstance(result, tuple):
        recorder.count("partition.external_rounds", result[1])


def _store_bytes(result: Any, args: tuple) -> float:
    """Bytes a new store or a checkpoint wrote (snapshot plus journal)."""
    if hasattr(result, "snapshot_path"):
        paths = [result.snapshot_path, result.journal_path]
    else:
        paths = [path for path in Path(result.directory).iterdir()]
    return sum(path.stat().st_size for path in paths if path.is_file())


def instrument(recorder: Recorder, caller: ModuleType) -> Patches:
    """Span every layer boundary the workloads cross.

    ``caller`` is the benchmark module whose imported names
    (``make_query``, ``build_1index``, ``build_ak_index``) it calls
    directly.  Returns the :class:`Patches` to restore afterwards.
    """
    from repro.graph.datagraph import DataGraph
    from repro.indexes.base import IndexGraph
    from repro.maintenance.journal import UpdateJournal
    from repro.maintenance.pipeline import UpdatePipeline
    from repro.maintenance.store import CheckpointStore
    from repro.partition.columnar import ColumnarEngine
    from repro.partition.engine import RefinementEngine
    from repro.partition.external import ExternalEngine
    from repro.paths.nfa import NFA
    from repro.storage.paged import PagedCSRGraph

    patches = Patches()
    wrap = functools.partial(patches.wrap, recorder=recorder)

    # repro.paths: parse and NFA construction.
    wrap(caller, "make_query", name="paths.parse")
    wrap("repro.paths.query", "compile_nfa", name="paths.nfa")
    wrap(NFA, "bind", name="paths.nfa")

    # repro.indexes: evaluation, validation, and the index builders.
    wrap("repro.core.dindex", "evaluate_on_index", name="indexes.eval",
         before=_eval_before, after=_eval_after)
    evaluation = importlib.import_module("repro.indexes.evaluation")
    for attr in ("validate_label_path_candidates", "validate_regex_candidates"):
        patches.replace(evaluation, attr, _validator(recorder, getattr(evaluation, attr)))
    wrap(caller, "build_1index", name="indexes.build")
    wrap(caller, "build_ak_index", name="indexes.build")

    # repro.core: mining, construction, updates, promote and demote.
    # Replay imports the update functions lazily from their home
    # modules, so those bindings are wrapped too.
    wrap("repro.core.dindex", "requirements_from_queries", name="core.mine")
    wrap("repro.core.dindex", "build_dk_index", name="core.build_dk")
    for module in ("repro.maintenance.pipeline", "repro.core.updates"):
        wrap(module, "dk_add_edge", name="core.add_edge", after=_add_edge_after)
    for module in ("repro.maintenance.pipeline", "repro.core.promote"):
        wrap(module, "promote_requirements", name="core.promote", after=_promote_after)
        wrap(module, "demote_index", name="core.demote", after=_count_after(
            "core.demote_merged_nodes",
            lambda result, args: args[0].num_nodes - result.num_nodes,
        ))

    # repro.partition: in-memory refinement and the external engine.
    # The external engine is wrapped first so that its wrappers call
    # the inherited, unwrapped columnar drivers.
    for attr in ("run_fixpoint", "run_kbisim", "run_leveled"):
        wrap(ExternalEngine, attr, name="partition.external",
             before=_external_before, after=_external_after)
    for engine in (RefinementEngine, ColumnarEngine):
        for attr in ("run_fixpoint", "run_kbisim", "run_leveled"):
            wrap(engine, attr, name="partition.refine",
                 after=_count_after("partition.blocks", _blocks))

    # repro.maintenance: transactions, journal, fsync, audit, store.
    for attr in ("add_edge", "promote", "demote"):
        wrap(UpdatePipeline, attr, name="maintenance.txn")
    for attr in ("begin", "commit", "abort"):
        wrap(UpdateJournal, attr, name="maintenance.journal",
             after=_count_after("maintenance.journal_appends", lambda r, a: 1))
    for module_name in ("repro.maintenance.journal", "repro.maintenance.store"):
        module = importlib.import_module(module_name)
        real_os = vars(module)["os"]
        fsync = _maintenance_fsync(recorder, real_os.fsync)
        patches.replace(module, "os", _TracedOs(real_os, fsync))
    for module in ("repro.maintenance.pipeline", "repro.maintenance.audit"):
        wrap(module, "run_audit", name="maintenance.audit")
    wrap("repro.maintenance.pipeline", "scoped_fast_ok", name="maintenance.audit")
    for attr in ("create", "checkpoint"):
        wrap(CheckpointStore, attr, name="maintenance.checkpoint",
             after=_count_after("maintenance.checkpoint_bytes", _store_bytes))
    wrap(CheckpointStore, "recover", name="maintenance.recover",
         after=_count_after("maintenance.replayed_ops", lambda result, a: result.replayed))

    # repro.storage: paging a graph out.
    wrap(PagedCSRGraph, "create", name="storage.page_out",
         after=_count_after("storage.pages", lambda result, a: result.store.page_count))

    # repro.graph: frozen CSR views.
    for graph_class in (DataGraph, IndexGraph):
        wrap(graph_class, "freeze", name="graph.freeze")
    return patches
