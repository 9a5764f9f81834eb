"""A state machine over a data graph's frozen-view cache.

``DataGraph`` caches its columnar view in one field: every mutation
clears it, ``copy()`` shares it, and a rollback (``GraphCheckpoint``, or
``UpdateTransaction`` in any scope) puts back the object the graph held
on entry.  The machine drives a graph through random mutations, freezes,
copies and rolled-back operations, and checks after every step that a
cached view describes the graph's rows exactly and that no view frozen
inside a rolled-back step is ever the graph's view again.
"""

from hypothesis import HealthCheck, settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)
import pytest

from conftest import small_graphs
from repro.core.construction import build_dk_index
from repro.core.updates import dk_add_edge, dk_add_subgraph, dk_remove_edge
from repro.exceptions import GraphError
from repro.graph.columnar import csr_from_lists
from repro.maintenance.transaction import (
    GraphCheckpoint,
    UpdateTransaction,
    state_fingerprint,
)
from repro.storage.paged import CORE_CSR_BUFFERS

LABELS = "abcd"

REQUIREMENTS = {"a": 1, "b": 2}

#: How many views frozen inside rolled-back steps the machine remembers.
REMEMBERED_VIEWS = 32


class Boom(Exception):
    """Raised after an operation's writes, to force its rollback."""


def graph_state(graph):
    """The graph's rows and label table, as values."""
    return (
        tuple(graph.label_names()),
        tuple(graph.label_ids),
        tuple(graph.children),
        tuple(graph.parents),
        graph.num_edges,
    )


class ViewCacheMachine(RuleBasedStateMachine):
    @initialize(graph=small_graphs(max_nodes=8, labels="abc"))
    def start(self, graph):
        self.graph = graph
        self.index = None
        self.inner_views = []

    # ------------------------------------------------------------------
    # Helpers
    # ------------------------------------------------------------------

    def current_index(self):
        """A D(k) index of the current graph, rebuilt after it changed."""
        if self.index is None:
            self.index, _levels = build_dk_index(self.graph, REQUIREMENTS)
        return self.index

    def changed(self):
        self.index = None

    def node(self, data):
        return data.draw(st.integers(0, self.graph.num_nodes - 1))

    def absent_edge(self, data):
        graph = self.graph
        src = self.node(data)
        dst = self.node(data)
        return None if graph.has_edge(src, dst) else (src, dst)

    def rolled_back(self, entry, inner):
        """The graph holds its entry view again; ``inner``, a view frozen
        inside the rolled-back step (or ``None``), is remembered."""
        assert self.graph.frozen_view is entry
        if inner is not None:
            self.inner_views.append(inner)
            del self.inner_views[:-REMEMBERED_VIEWS]

    # ------------------------------------------------------------------
    # Mutations
    # ------------------------------------------------------------------

    @rule(label=st.sampled_from(LABELS))
    def add_node(self, label):
        self.graph.add_node(label)
        self.changed()
        assert self.graph.frozen_view is None

    @rule(data=st.data())
    def add_edge(self, data):
        graph = self.graph
        src, dst = self.node(data), self.node(data)
        view = graph.frozen_view
        if graph.has_edge(src, dst):
            with pytest.raises(GraphError):
                graph.add_edge(src, dst)
            assert graph.frozen_view is view
            return
        graph.add_edge(src, dst)
        self.changed()
        assert graph.frozen_view is None

    @rule(data=st.data())
    def add_edge_if_absent(self, data):
        graph = self.graph
        src, dst = self.node(data), self.node(data)
        view = graph.frozen_view
        if graph.add_edge_if_absent(src, dst):
            self.changed()
            assert graph.frozen_view is None
        else:  # the no-op case writes nothing and keeps the view
            assert graph.frozen_view is view

    @rule(data=st.data())
    def add_edges(self, data):
        graph = self.graph
        count = data.draw(st.integers(0, 4))
        pairs = [(self.node(data), self.node(data)) for _ in range(count)]
        view, before = graph.frozen_view, graph_state(graph)
        valid = len(set(pairs)) == len(pairs) and not any(
            graph.has_edge(src, dst) for src, dst in pairs
        )
        sources = [src for src, _ in pairs]
        targets = [dst for _, dst in pairs]
        if not valid:
            with pytest.raises(GraphError):
                graph.add_edges(sources, targets)
            assert graph.frozen_view is view
            assert graph_state(graph) == before
            return
        graph.add_edges(sources, targets)
        if pairs:
            self.changed()
            assert graph.frozen_view is None
        else:
            assert graph.frozen_view is view

    @precondition(lambda self: self.graph.num_edges > 0)
    @rule(data=st.data())
    def remove_edge(self, data):
        graph = self.graph
        src, dst = data.draw(st.sampled_from(sorted(graph.edges())))
        graph.remove_edge(src, dst)
        self.changed()
        assert graph.frozen_view is None

    @rule(other=small_graphs(max_nodes=4, labels="abd", allow_cycles=False))
    def graft(self, other):
        self.graph.graft(other)
        self.changed()
        if other.num_nodes > 1:
            assert self.graph.frozen_view is None

    # ------------------------------------------------------------------
    # Views and copies
    # ------------------------------------------------------------------

    @rule()
    def freeze(self):
        graph = self.graph
        cached = graph.frozen_view
        view = graph.freeze()
        assert graph.frozen_view is view
        if cached is not None:
            assert view is cached

    @rule(mutate_original=st.booleans())
    def continue_on_copy(self, mutate_original):
        original = self.graph
        view = original.frozen_view
        clone = original.copy()
        assert clone.frozen_view is view
        if mutate_original:
            # A mutation of the original drops only the original's view.
            original.add_node("a")
            assert original.frozen_view is None
            assert clone.frozen_view is view
        self.graph = clone
        self.changed()

    # ------------------------------------------------------------------
    # Operations that raise after their writes and are rolled back
    # ------------------------------------------------------------------

    @rule(data=st.data(), freeze_inside=st.booleans())
    def rolled_back_checkpoint(self, data, freeze_inside):
        graph = self.graph
        entry, before = graph.frozen_view, graph_state(graph)
        checkpoint = GraphCheckpoint(graph)
        graph.add_node(data.draw(st.sampled_from(LABELS)))
        edge = self.absent_edge(data)
        if edge is not None:
            graph.add_edge(*edge)
        if graph.num_edges and data.draw(st.booleans()):
            graph.remove_edge(*data.draw(st.sampled_from(sorted(graph.edges()))))
        inner = graph.freeze() if freeze_inside else None
        checkpoint.restore()
        self.rolled_back(entry, inner)
        assert graph_state(graph) == before

    def roll_back(self, scope, edge, operation, freeze_inside):
        """Run ``operation(graph, index)`` in an ``UpdateTransaction`` of
        ``scope``, optionally freeze, raise, and check the rollback."""
        graph, index = self.graph, self.current_index()
        entry, before = graph.frozen_view, state_fingerprint(graph, index)
        inner = None
        with pytest.raises(Boom):
            with UpdateTransaction(graph, index, scope, edge):
                operation(graph, index)
                if freeze_inside:
                    inner = graph.freeze()
                raise Boom
        self.rolled_back(entry, inner)
        assert state_fingerprint(graph, index) == before

    @rule(
        other=small_graphs(max_nodes=3, labels="ab", allow_cycles=False),
        freeze_inside=st.booleans(),
    )
    def rolled_back_full_transaction(self, other, freeze_inside):
        def operation(graph, index):
            dk_add_subgraph(graph, index, other, REQUIREMENTS)
            graph.add_node("c")

        self.roll_back("full", None, operation, freeze_inside)

    @rule(data=st.data(), freeze_inside=st.booleans())
    def rolled_back_add_edge(self, data, freeze_inside):
        edge = self.absent_edge(data)
        if edge is not None:
            self.roll_back(
                "add-edge",
                edge,
                lambda graph, index: dk_add_edge(graph, index, *edge),
                freeze_inside,
            )

    @precondition(lambda self: self.graph.num_edges > 0)
    @rule(data=st.data(), freeze_inside=st.booleans())
    def rolled_back_remove_edge(self, data, freeze_inside):
        edge = data.draw(st.sampled_from(sorted(self.graph.edges())))
        self.roll_back(
            "remove-edge",
            edge,
            lambda graph, index: dk_remove_edge(graph, index, *edge),
            freeze_inside,
        )

    # ------------------------------------------------------------------
    # Invariants
    # ------------------------------------------------------------------

    @invariant()
    def cached_view_matches_rows(self):
        graph = self.graph
        view = graph.frozen_view
        if view is None:
            return
        expected = csr_from_lists(
            graph.label_ids,
            graph.children,
            graph.parents,
            num_labels=graph.num_labels,
        )
        for name in CORE_CSR_BUFFERS:
            assert getattr(view, name) == getattr(expected, name), name

    @invariant()
    def rolled_back_views_stay_dead(self):
        view = self.graph.frozen_view
        assert all(view is not inner for inner in self.inner_views)


ViewCacheMachine.TestCase.settings = settings(
    max_examples=200,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
TestViewCacheMachine = ViewCacheMachine.TestCase
