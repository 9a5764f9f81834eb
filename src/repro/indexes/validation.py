"""The validation process for approximate index results.

When a query is longer than an index node's guaranteed local similarity,
the extent may contain false positives; validation checks each candidate
data node against the *data graph* by matching the query's label path
backwards from the candidate (A(k) paper, adopted by Section 6.1 of the
D(k) paper).  This is exactly the expensive step the D(k)-index tries to
avoid by adapting its per-node similarities to the query load.

Cost accounting: every first visit of a ``(data node, position)`` (or
``(data node, state set)`` for regex validation) pair counts as one data
node visited; the memo is shared across all candidates of one query so
overlapping ancestor walks are counted once, mirroring a shared-scan
implementation.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Sequence

from repro.graph.datagraph import DataGraph
from repro.paths.cost import CostCounter
from repro.paths.nfa import NFA

# Memo states of label-path validation, one byte per (node, position).
_UNKNOWN = 0
_NO = 1
_YES = 2


def validate_label_path_candidates(
    graph: DataGraph,
    candidates: Iterable[int],
    label_ids: Sequence[int],
    anchored: bool,
    counter: CostCounter,
) -> set[int]:
    """Filter ``candidates`` to those actually matched by the label path.

    An iterative depth-first search backwards from each candidate: the
    pair ``(node, position)`` holds when ``node`` carries
    ``label_ids[position]`` and, for ``position > 0``, some parent holds
    at ``position - 1``.  Parents are scanned in ``graph.parents`` list
    order and the scan stops at the first parent that holds, so the
    visited pairs (and therefore the visit count) are exactly those this
    short-circuit demands.  Each visited pair is counted once, when its
    memo entry is first filled.

    Args:
        graph: the data graph.
        candidates: data nodes whose membership must be verified; their
            own label is assumed to equal ``label_ids[-1]`` already.
        label_ids: the query's labels as graph label ids.
        anchored: if True the matching node path must begin at a child
            of the root.
        counter: cost accumulator (data-node visits + validation count).

    Returns:
        The subset of candidates that truly match.
    """
    parents = graph.parents
    node_labels = graph.label_ids
    root = graph.root
    last = len(label_ids) - 1
    # memo[position][node]: _UNKNOWN, _NO or _YES for the pair (node, position).
    memo = [bytearray(graph.num_nodes) for _ in label_ids]
    top = memo[last]
    visits = 0
    total = 0
    verified: set[int] = set()
    # The open frames of one search, one per position from `last` down
    # to `position`: the node, and the suspended scan of its parents.
    nodes = [0] * len(label_ids)
    scans: list[Iterator[int]] = [iter(())] * len(label_ids)

    for candidate in candidates:
        total += 1
        verdict = top[candidate]
        if verdict == _UNKNOWN:
            visits += 1
            if node_labels[candidate] != label_ids[last]:
                verdict = _NO
            elif last == 0:
                verdict = _YES if not anchored or root in parents[candidate] else _NO
            else:
                nodes[last] = candidate
                scans[last] = iter(parents[candidate])
                position = last
                while position <= last:
                    below = position - 1
                    below_memo = memo[below]
                    want = label_ids[below]
                    verdict = _NO
                    for parent in scans[position]:
                        state = below_memo[parent]
                        if state == _UNKNOWN:
                            visits += 1
                            if node_labels[parent] != want:
                                below_memo[parent] = _NO
                                continue
                            if below:
                                # Suspend this scan and search from the parent.
                                nodes[below] = parent
                                scans[below] = iter(parents[parent])
                                verdict = _UNKNOWN
                                break
                            state = (
                                _YES if not anchored or root in parents[parent] else _NO
                            )
                            below_memo[parent] = state
                        if state == _YES:
                            verdict = _YES
                            break
                    if verdict == _UNKNOWN:
                        position = below
                        continue
                    memo[position][nodes[position]] = verdict
                    position += 1
                    if verdict == _YES:
                        # A match short-circuits every suspended scan above it.
                        while position <= last:
                            memo[position][nodes[position]] = _YES
                            position += 1
            top[candidate] = verdict
        if verdict == _YES:
            verified.add(candidate)
    counter.visit_data_node(visits)
    counter.record_validation(total)
    return verified


def validate_regex_candidates(
    graph: DataGraph,
    candidates: Iterable[int],
    nfa: NFA,
    anchored: bool,
    counter: CostCounter,
) -> set[int]:
    """Validate candidates against a full regular path expression.

    Uses the reversed automaton: starting from the original accepting
    states, consume the candidate's label and walk *up* the data graph;
    the candidate matches when the original start state is reached (and,
    for anchored queries, the walk is standing at a child of the root).
    """
    reversed_transitions: list[dict[str | None, set[int]]] = [
        {} for _ in range(nfa.num_states)
    ]
    for src, table in enumerate(nfa.transitions):
        for label, targets in table.items():
            for dst in targets:
                reversed_transitions[dst].setdefault(label, set()).add(src)

    id_to_name = list(graph.label_names())
    parents = graph.parents
    node_labels = graph.label_ids
    root = graph.root
    rev_start = frozenset(nfa.accepting)
    goal = nfa.start

    def step_reversed(states: frozenset[int], label_name: str) -> frozenset[int]:
        result: set[int] = set()
        for state in states:
            table = reversed_transitions[state]
            result.update(table.get(label_name, ()))
            result.update(table.get(None, ()))
        return frozenset(result)

    # Explore the product graph upward from all candidates at once, then
    # mark success vertices and propagate reachability backwards through
    # the explored subgraph.  (A memoised DFS would be wrong here: cycles
    # in the product graph can freeze "False" verdicts that a later
    # branch proves "True".)
    candidate_list = list(candidates)
    start_of: dict[int, tuple[int, frozenset[int]] | None] = {}
    out_edges: dict[tuple[int, frozenset[int]], list[tuple[int, frozenset[int]]]] = {}
    success: set[tuple[int, frozenset[int]]] = set()
    stack: list[tuple[int, frozenset[int]]] = []

    def enter(node: int, after: frozenset[int]) -> tuple[int, frozenset[int]] | None:
        """Register the product vertex for `node` whose label produced
        `after`; returns None when the automaton is stuck."""
        if not after:
            return None
        vertex = (node, after)
        if vertex not in out_edges:
            counter.visit_data_node()
            out_edges[vertex] = []
            if goal in after and (not anchored or root in parents[node]):
                success.add(vertex)
            stack.append(vertex)
        return vertex

    for candidate in candidate_list:
        after = step_reversed(rev_start, id_to_name[node_labels[candidate]])
        start_of[candidate] = enter(candidate, after)

    while stack:
        node, after = stack.pop()
        for parent in parents[node]:
            parent_after = step_reversed(after, id_to_name[node_labels[parent]])
            target = enter(parent, parent_after)
            if target is not None:
                out_edges[(node, after)].append(target)

    # Reverse reachability from the success vertices.
    incoming: dict[tuple[int, frozenset[int]], list[tuple[int, frozenset[int]]]] = {}
    for vertex, targets in out_edges.items():
        for target in targets:
            incoming.setdefault(target, []).append(vertex)
    reaches_success = set(success)
    worklist = list(success)
    while worklist:
        vertex = worklist.pop()
        for predecessor in incoming.get(vertex, ()):
            if predecessor not in reaches_success:
                reaches_success.add(predecessor)
                worklist.append(predecessor)

    verified: set[int] = set()
    for candidate in candidate_list:
        start_vertex = start_of[candidate]
        if start_vertex is not None and start_vertex in reaches_success:
            verified.add(candidate)
    counter.record_validation(len(candidate_list))
    return verified
