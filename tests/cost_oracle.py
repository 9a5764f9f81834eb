"""The cost oracle: the recursive query evaluator the library replaced.

The index evaluator (:mod:`repro.indexes.evaluation`) and the label-path
validator (:mod:`repro.indexes.validation`) were rewritten for speed
under one contract: every query visits exactly the same index and data
nodes, the same number of times, and returns the same answer.  This
module keeps the previous implementation verbatim as the reference the
cost-identity tests compare against:

- ``validate_label_path_candidates``: the recursive, tuple-memoised
  backward match whose ``any(...)`` short-circuit fixes which
  ``(node, position)`` pairs are visited;
- ``_evaluate_regex``: the product traversal that steps the automaton
  from *every* index node, with no start filter and no step memo;
- ``_match_positions`` and ``_evaluate_label_path``, unchanged in the
  library but copied so the oracle shares no evaluation code with it.

Regex validation (``validate_regex_candidates``) was not rewritten and is
imported from the library.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from repro.graph.datagraph import DataGraph
from repro.indexes.base import IndexGraph
from repro.indexes.validation import validate_regex_candidates
from repro.paths.cost import CostCounter
from repro.paths.query import LabelPathQuery, Query, RegexQuery


def evaluate(index: IndexGraph, query: Query, counter: CostCounter) -> set[int]:
    """The reference for :func:`repro.indexes.evaluation.evaluate_on_index`."""
    if isinstance(query, LabelPathQuery):
        return _evaluate_label_path(index, query, counter, True)
    if isinstance(query, RegexQuery):
        return _evaluate_regex(index, query, counter, True)
    raise TypeError(f"unsupported query type: {type(query).__name__}")


def validate_label_path_candidates(
    graph: DataGraph,
    candidates: Iterable[int],
    label_ids: Sequence[int],
    anchored: bool,
    counter: CostCounter,
) -> set[int]:
    """Filter ``candidates`` to those actually matched by the label path.

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
    positions = len(label_ids)
    # memo[(node, position)]: does a node path matching label_ids[:position+1]
    # and ending at `node` exist?
    memo: dict[tuple[int, int], bool] = {}

    def matches_up_to(node: int, position: int) -> bool:
        key = (node, position)
        cached = memo.get(key)
        if cached is not None:
            return cached
        counter.visit_data_node()
        if node_labels[node] != label_ids[position]:
            memo[key] = False
            return False
        if position == 0:
            result = (root in parents[node]) if anchored else True
        else:
            result = any(
                matches_up_to(parent, position - 1) for parent in parents[node]
            )
        memo[key] = result
        return result

    verified: set[int] = set()
    total = 0
    for candidate in candidates:
        total += 1
        if matches_up_to(candidate, positions - 1):
            verified.add(candidate)
    counter.record_validation(total)
    return verified


def _match_positions(
    index: IndexGraph,
    wanted: Sequence[int],
    anchored: bool,
    counter: CostCounter,
) -> set[int]:
    """Forward traversal of the index graph along a label-id chain."""
    if anchored:
        counter.visit_index_node()  # the root index node
        root = index.root_index_node
        frontier = {
            child for child in index.children[root] if index.label_ids[child] == wanted[0]
        }
    else:
        frontier = set(index.nodes_with_label_id(wanted[0]))
    counter.visit_index_node(len(frontier))

    for want in wanted[1:]:
        if not frontier:
            return set()
        next_frontier: set[int] = set()
        for node in frontier:
            for child in index.children[node]:
                if index.label_ids[child] == want:
                    next_frontier.add(child)
        counter.visit_index_node(len(next_frontier))
        frontier = next_frontier
    return frontier


def _evaluate_label_path(
    index: IndexGraph,
    query: LabelPathQuery,
    counter: CostCounter,
    validate: bool,
) -> set[int]:
    graph = index.graph
    if not all(graph.has_label(name) for name in query.labels):
        return set()
    wanted = [graph.label_id(name) for name in query.labels]
    terminals = _match_positions(index, wanted, query.anchored, counter)
    if not terminals:
        return set()

    # Soundness threshold: an unanchored query of s edges needs
    # k(terminal) >= s (Theorem 1).  An anchored query additionally pins
    # the path start to the root, which is equivalent to matching the
    # extended label path ROOT.l1...lp (s+1 edges, and ROOT labels only
    # the root node) — hence k(terminal) >= s + 1.
    required = query.num_edges + (1 if query.anchored else 0)
    results: set[int] = set()
    needs_validation: list[int] = []
    for terminal in terminals:
        if index.k[terminal] >= required or not validate:
            results.update(index.extents[terminal])
        else:
            needs_validation.extend(index.extents[terminal])
    if needs_validation:
        verified = validate_label_path_candidates(
            graph,
            (c for c in needs_validation if c not in results),
            wanted,
            query.anchored,
            counter,
        )
        results.update(verified)
    return results


def _evaluate_regex(
    index: IndexGraph,
    query: RegexQuery,
    counter: CostCounter,
    validate: bool,
) -> set[int]:
    graph = index.graph
    nfa = query.nfa.bind({name: i for i, name in enumerate(graph.label_names())})
    start = frozenset({nfa.start})
    label_ids = index.label_ids
    children = index.children

    # Track, per terminal index node, the *longest* accepted word length
    # seen (bounded by num_edges possible in the index); a terminal is
    # sound when k(n) covers every accepted match length, which we can
    # only certify for finite-language expressions.
    max_len = query.max_length
    matched: set[int] = set()
    seen: set[tuple[int, frozenset[int]]] = set()
    stack: list[tuple[int, frozenset[int]]] = []

    if query.anchored:
        counter.visit_index_node()  # the root index node
        start_candidates: Sequence[int] = sorted(
            index.children[index.root_index_node]
        )
    else:
        start_candidates = range(index.num_nodes)

    for node in start_candidates:
        states = nfa.step(start, label_ids[node])
        if states:
            key = (node, states)
            if key not in seen:
                seen.add(key)
                stack.append(key)
                counter.visit_index_node()
                if nfa.is_accepting(states):
                    matched.add(node)

    while stack:
        node, states = stack.pop()
        for child in children[node]:
            next_states = nfa.step(states, label_ids[child])
            if not next_states:
                continue
            key = (child, next_states)
            if key in seen:
                continue
            seen.add(key)
            counter.visit_index_node()
            if nfa.is_accepting(next_states):
                matched.add(child)
            stack.append(key)

    if not matched:
        return set()

    results: set[int] = set()
    needs_validation: list[int] = []
    for terminal in matched:
        # Finite-language expressions are sound on a terminal whose k
        # covers the longest possible match (plus one for the implicit
        # ROOT edge when anchored); unbounded expressions always validate.
        required = None if max_len is None else max_len - 1 + (
            1 if query.anchored else 0
        )
        sound = required is not None and index.k[terminal] >= required
        if sound or not validate:
            results.update(index.extents[terminal])
        else:
            needs_validation.extend(index.extents[terminal])
    if needs_validation:
        verified = validate_regex_candidates(
            graph,
            (c for c in needs_validation if c not in results),
            query.nfa,
            query.anchored,
            counter,
        )
        results.update(verified)
    return results
