"""EXPLAIN for index-graph query evaluation.

Answers the operational questions a user of an adaptive index keeps
asking: *which index nodes did my query land on, was it answered from
the index alone, and if it validated — why, and what would fix it?*

The explanation mirrors exactly what
:func:`repro.indexes.evaluation.evaluate_on_index` does (it calls the
same matching code), so it never lies about the plan.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.indexes.base import K_UNBOUNDED, IndexGraph
from repro.indexes.evaluation import evaluate_on_index, match_index_nodes
from repro.paths.cost import CostCounter
from repro.paths.query import LabelPathQuery, Query, RegexQuery


@dataclass(frozen=True)
class TerminalInfo:
    """One matched terminal index node.

    Attributes:
        index_node: its id.
        label: its label name.
        extent_size: number of data nodes it summarises.
        k: its assigned local similarity.
        sound: True when its extent is returned without validation.
    """

    index_node: int
    label: str
    extent_size: int
    k: int
    sound: bool


@dataclass
class Explanation:
    """The full story of one query evaluation.

    Attributes:
        query_text: the query as text.
        required_k: the terminal similarity needed for soundness
            (None when undeterminable, i.e. unbounded regexes).
        terminals: matched terminal index nodes.
        result_size: size of the (exact) answer.
        candidates_validated: data nodes that went through validation.
        cost: the evaluation's cost counter.
        suggestion: human-readable tuning advice, empty when none.
    """

    query_text: str
    required_k: int | None
    terminals: list[TerminalInfo] = field(default_factory=list)
    result_size: int = 0
    candidates_validated: int = 0
    cost: CostCounter = field(default_factory=CostCounter)
    suggestion: str = ""

    @property
    def fully_indexed(self) -> bool:
        """True when the answer came from the index alone."""
        return self.candidates_validated == 0

    def format(self) -> str:
        lines = [f"query: {self.query_text}"]
        needed = "?" if self.required_k is None else str(self.required_k)
        lines.append(
            f"requires terminal k >= {needed}; "
            f"{len(self.terminals)} terminal index node(s):"
        )
        for term in self.terminals:
            k_text = "∞" if term.k >= K_UNBOUNDED else str(term.k)
            status = "sound" if term.sound else "VALIDATES"
            lines.append(
                f"  #{term.index_node} <{term.label}> |ext|={term.extent_size} "
                f"k={k_text} -> {status}"
            )
        lines.append(
            f"result: {self.result_size} nodes; cost "
            f"{self.cost.index_nodes_visited} index + "
            f"{self.cost.data_nodes_visited} data visits "
            f"({self.candidates_validated} candidates validated)"
        )
        if self.suggestion:
            lines.append(f"hint: {self.suggestion}")
        return "\n".join(lines)


def explain(
    index: IndexGraph, query: Query, counter: CostCounter | None = None
) -> Explanation:
    """Explain how ``query`` evaluates against ``index``.

    Runs the actual evaluation (so costs and the result size are real),
    then annotates every terminal with its soundness verdict and, when
    validation happened, suggests the promotion that would avoid it.
    The explanation reports this evaluation's own cost; when the caller
    passes a running ``counter``, the same tallies are merged into it
    (so an EXPLAIN inside a measured run stays accounted).

    Example:
        >>> from repro.graph.builder import graph_from_edges
        >>> from repro.indexes.labelsplit import build_labelsplit_index
        >>> from repro.paths.query import make_query
        >>> g = graph_from_edges(
        ...     ["a", "b", "x", "x"], [(0, 1), (0, 2), (1, 3), (2, 4)]
        ... )
        >>> report = explain(build_labelsplit_index(g), make_query("a.x"))
        >>> report.fully_indexed
        False
        >>> "promote" in report.suggestion
        True
    """
    if isinstance(query, LabelPathQuery):
        required: int | None = query.num_edges + (1 if query.anchored else 0)
        terminals = match_index_nodes(index, query)
    elif isinstance(query, RegexQuery):
        max_len = query.max_length
        required = (
            None
            if max_len is None
            else max_len - 1 + (1 if query.anchored else 0)
        )
        terminals = set()  # regex terminal sets are not exposed; keep empty
    else:
        raise TypeError(f"unsupported query type: {type(query).__name__}")

    explanation = Explanation(query_text=query.to_text(), required_k=required)
    cost = explanation.cost
    explanation.result_size = len(evaluate_on_index(index, query, cost))
    explanation.candidates_validated = cost.validations
    if counter is not None:
        counter.merge(cost)

    unsound_labels: set[str] = set()
    for terminal in sorted(terminals):
        sound = required is not None and index.k[terminal] >= required
        explanation.terminals.append(
            TerminalInfo(
                index_node=terminal,
                label=index.label(terminal),
                extent_size=index.extent_size(terminal),
                k=index.k[terminal],
                sound=sound,
            )
        )
        if not sound:
            unsound_labels.add(index.label(terminal))
    if unsound_labels and required is not None:
        labels = ", ".join(sorted(unsound_labels))
        explanation.suggestion = (
            f"promote label(s) {labels} to local similarity {required} "
            f"to answer this query from the index alone"
        )
    elif cost.validations and required is None:
        explanation.suggestion = (
            "unbounded repetition: no finite similarity can avoid "
            "validation for this expression"
        )
    return explanation
