"""Regular path expressions and their evaluation.

Section 3 of the paper defines regular path expressions over label paths:

.. code-block:: text

    R  ::=  label  |  _  |  R.R  |  R|R  |  (R)  |  R?  |  R*

where ``_`` matches any single label.  This subpackage provides:

- :mod:`repro.paths.ast` — the expression tree;
- :mod:`repro.paths.lexer` / :mod:`repro.paths.parser` — text syntax,
  including the ``//`` descendant-axis sugar (``a//b`` ≡ ``a._*.b``) and a
  leading ``//`` for partial-matching (unanchored) queries; the lexer
  scans with one compiled pattern built on the one label rule,
  :data:`~repro.paths.lexer.LABEL`;
- :mod:`repro.paths.query` — query objects, and ``make_query``, which
  reads a plain label chain (the paper's test paths) with one pattern
  match and parses only other texts;
- :mod:`repro.paths.nfa` — Thompson construction to an ε-free NFA;
- :mod:`repro.paths.cost` — the paper's visited-node cost model;
- :mod:`repro.paths.evaluator` — evaluation over data graphs and index
  graphs, with the fast path for plain label-path queries used by the
  experiments.
"""

from repro.paths.ast import (
    AnyLabel,
    Concat,
    Label,
    Optional_,
    PathExpr,
    Star,
    Union_,
)
from repro.paths.cost import CostCounter
from repro.paths.evaluator import evaluate_on_data_graph
from repro.paths.nfa import NFA, compile_nfa
from repro.paths.parser import parse_path_expression
from repro.paths.query import LabelPathQuery, Query, RegexQuery
from repro.paths.twig import TwigQuery, evaluate_twig, parse_twig

__all__ = [
    "TwigQuery",
    "evaluate_twig",
    "parse_twig",
    "AnyLabel",
    "Concat",
    "CostCounter",
    "Label",
    "LabelPathQuery",
    "NFA",
    "Optional_",
    "PathExpr",
    "Query",
    "RegexQuery",
    "Star",
    "Union_",
    "compile_nfa",
    "evaluate_on_data_graph",
    "parse_path_expression",
]
