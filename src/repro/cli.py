"""Command-line interface: ``python -m repro`` / the ``dkindex`` script.

Commands:

- ``dkindex bench <experiment|all> [--scale S] [--csv]`` — regenerate
  the paper's tables/figures as text (fig4, fig5, table1, fig6, fig7,
  plus the ablations and extensions ``--help`` lists); ``S`` is a
  factor or a named scale (small/medium/large).  Wall-clock timing is
  the repository benchmark's job (``perfbench/``).
- ``dkindex audit FILE [--level fast|deep]`` — audit a stored
  D(k)-index; exits 1 on findings.
- ``dkindex chaos [--seed N] [--journal-dir DIR] [--no-durability]
  [--storage]`` — run the fault-injection suite proving
  rollback-or-repair for every update operation, the durability crash
  matrix over the checkpoint store, and the storage crash matrix over
  the paged out-of-core stack (``--storage`` runs only the last);
  exits 1 if any scenario breaks.
- ``dkindex scrub DIR [--no-repair]`` — digest-verify every live page
  of a paged store, copy corrupt pages to quarantine and repair them
  in place from older generations; exits 1 when a rebuild is required.
- ``dkindex checkpoint DIR [--init FILE] [--retain N]`` — create a
  checkpoint store around a saved index, or roll an existing store
  forward to a fresh generation (recover, snapshot, rotate).
- ``dkindex recover DIR [--out FILE]`` — climb the recovery ladder of a
  checkpoint store, print the recovery report, optionally save the
  recovered index; exits 1 when unrecoverable.
- ``dkindex generate <xmark|nasa> --out FILE [--scale S] [--seed N]`` —
  write a dataset graph as JSON.
- ``dkindex stats FILE`` — print statistics of a stored graph.
- ``dkindex query FILE EXPR [--k K]`` — evaluate a path expression over
  a stored graph through a D(k)-index (uniform requirement ``K`` on the
  expression's labels).
- ``dkindex twig FILE PATTERN`` — evaluate a branching pattern through
  an F&B-index.
- ``dkindex dot FILE [--index] [--max-nodes N]`` — Graphviz DOT export.
- ``dkindex conformance <xmark|nasa> [--scale S] [--seed N]`` — generate
  a dataset and verify it against its own DTD.
- ``dkindex lint [paths...]`` — run the repo's AST invariant linter
  (see ``docs/static-analysis.md``); exits 1 on new findings.
"""

from __future__ import annotations

import argparse
import sys
from typing import Sequence

from repro.bench.experiments import EXPERIMENTS
from repro.bench.harness import (
    DATASET_BUILDERS,
    ExperimentConfig,
    parse_scale,
)
from repro.core.broadcast import MAX_LEVEL
from repro.core.dindex import DKIndex
from repro.core.requirements import requirements_from_queries
from repro.exceptions import ReproError
from repro.graph.serialize import load_graph, save_graph
from repro.graph.stats import graph_stats
from repro.paths.cost import CostCounter
from repro.paths.query import make_query


def _non_negative_int(text: str) -> int:
    """argparse ``type=`` for similarity bounds and size limits; both
    must fit a signed 64-bit integer (:data:`MAX_LEVEL`)."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be non-negative, got {value}")
    if value > MAX_LEVEL:
        raise argparse.ArgumentTypeError(f"must be at most 2**63 - 1, got {value}")
    return value


def _cmd_bench(args: argparse.Namespace) -> int:
    # Validate up front: a bad token must be a clean CLI error (exit 1),
    # never a ValueError traceback out of float().
    _, scale_factor = parse_scale(args.scale)
    config = ExperimentConfig(scale=scale_factor)
    names = list(EXPERIMENTS) if args.experiment == "all" else [args.experiment]
    for name in names:
        runner, datasets = EXPERIMENTS[name]
        for dataset in datasets:
            result = runner(dataset, config)
            if args.csv:
                print(f"# {result.experiment_id} {dataset}")
                print(result.to_csv())
            else:
                print(result.render())
            print()
    return 0


def _cmd_generate(args: argparse.Namespace) -> int:
    builder = DATASET_BUILDERS[args.dataset]
    document = builder(args.scale, args.seed)
    save_graph(document.graph, args.out)
    stats = graph_stats(document.graph)
    print(f"wrote {args.out}: {stats.num_nodes} nodes, {stats.num_edges} edges")
    return 0


def _cmd_stats(args: argparse.Namespace) -> int:
    graph = load_graph(args.file)
    print(graph_stats(graph).format())
    return 0


def _cmd_query(args: argparse.Namespace) -> int:
    graph = load_graph(args.file)
    query = make_query(args.expression)
    if args.k is not None:
        requirements = {label: args.k for label in set(query.expr.labels())} \
            if hasattr(query, "expr") else {query.labels[-1]: args.k}
    else:
        requirements = requirements_from_queries([query])
    dk = DKIndex.build(graph, requirements)
    counter = CostCounter()
    result = dk.evaluate(query, counter)
    print(f"index size: {dk.size} nodes")
    print(f"cost: {counter.total} visited "
          f"({counter.index_nodes_visited} index, "
          f"{counter.data_nodes_visited} data)")
    print(f"{len(result)} matches: {sorted(result)[:50]}"
          + (" ..." if len(result) > 50 else ""))
    return 0


def _cmd_explain(args: argparse.Namespace) -> int:
    graph = load_graph(args.file)
    query = make_query(args.expression)
    if args.k is not None and hasattr(query, "labels"):
        requirements = {query.labels[-1]: args.k}
    elif args.k is not None:
        requirements = {label: args.k for label in set(query.expr.labels())}
    else:
        requirements = requirements_from_queries([query])
    dk = DKIndex.build(graph, requirements)
    print(dk.explain(query).format())
    return 0


def _cmd_twig(args: argparse.Namespace) -> int:
    from repro.indexes.fbindex import build_fb_index, evaluate_twig_on_fb
    from repro.paths.twig import parse_twig

    graph = load_graph(args.file)
    query = parse_twig(args.pattern)
    fb = build_fb_index(graph)
    counter = CostCounter()
    result = evaluate_twig_on_fb(fb, query, counter)
    print(f"F&B index: {fb.num_nodes} nodes (data: {graph.num_nodes})")
    print(f"cost: {counter.index_nodes_visited} index nodes visited")
    print(f"{len(result)} matches: {sorted(result)[:50]}"
          + (" ..." if len(result) > 50 else ""))
    return 0


def _cmd_dot(args: argparse.Namespace) -> int:
    from repro.graph.visualize import data_graph_to_dot, index_graph_to_dot

    graph = load_graph(args.file)
    if args.index:
        dk = DKIndex.build(graph, {})
        print(index_graph_to_dot(dk.index, max_nodes=args.max_nodes))
    else:
        print(data_graph_to_dot(graph, max_nodes=args.max_nodes))
    return 0


def _cmd_conformance(args: argparse.Namespace) -> int:
    from repro.datasets.dblp import DBLP_DTD
    from repro.datasets.dtd import parse_dtd
    from repro.datasets.nasa import NASA_DTD
    from repro.datasets.validate import check_conformance
    from repro.datasets.xmark import XMARK_DTD

    schema = {
        "xmark": (XMARK_DTD, "site"),
        "nasa": (NASA_DTD, "datasets"),
        "dblp": (DBLP_DTD, "dblp"),
    }
    dtd_text, root_element = schema[args.dataset]
    document = DATASET_BUILDERS[args.dataset](args.scale, args.seed)
    report = check_conformance(
        document.graph, parse_dtd(dtd_text), root_element
    )
    print(report.format())
    return 0 if report.ok else 1


def _cmd_audit(args: argparse.Namespace) -> int:
    from repro.indexes.serialize import load_dk_index
    from repro.maintenance.audit import run_audit

    dk = load_dk_index(args.file)
    outcome = run_audit(dk.index, args.level)
    print(f"{args.file}: {dk.index.num_nodes} index nodes over "
          f"{dk.graph.num_nodes} data nodes")
    print(outcome.format())
    return 0 if outcome.ok else 1


def _cmd_chaos(args: argparse.Namespace) -> int:
    from repro.maintenance.chaos import (
        run_chaos_suite,
        run_durability_suite,
        run_storage_suite,
    )

    ok = True
    first = True
    if not args.storage:
        report = run_chaos_suite(seed=args.seed, journal_dir=args.journal_dir)
        print(report.format())
        ok = report.ok
        first = False
        if not args.no_durability:
            work_dir = (
                f"{args.journal_dir}/durability"
                if args.journal_dir is not None
                else None
            )
            durability = run_durability_suite(
                seed=args.seed, work_dir=work_dir
            )
            print()
            print(durability.format())
            ok = ok and durability.ok
    if not first:
        print()
    storage_dir = (
        f"{args.journal_dir}/storage" if args.journal_dir is not None else None
    )
    storage = run_storage_suite(seed=args.seed, work_dir=storage_dir)
    print(storage.format())
    ok = ok and storage.ok
    return 0 if ok else 1


def _cmd_scrub(args: argparse.Namespace) -> int:
    from repro.maintenance.repair import scrub_store

    report = scrub_store(args.directory, repair=not args.no_repair)
    print(report.format())
    return 0 if report.ok else 1


def _cmd_checkpoint(args: argparse.Namespace) -> int:
    from repro.indexes.serialize import load_dk_index
    from repro.maintenance.store import CheckpointStore

    if args.init is not None:
        dk = load_dk_index(args.init)
        store = CheckpointStore.create(args.directory, dk, retain=args.retain)
        print(
            f"created checkpoint store {args.directory} at generation "
            f"{store.current_generation()} from {args.init}"
        )
        return 0
    store = CheckpointStore(args.directory, retain=args.retain)
    report = store.recover()
    if not report.recovered or report.dk is None:
        print(report.format())
        return 1
    info = store.checkpoint(report.dk)
    pruned = (
        f", pruned generation(s) {', '.join(map(str, info.pruned))}"
        if info.pruned
        else ""
    )
    print(
        f"checkpointed {args.directory} at generation {info.generation} "
        f"({report.replayed} journaled operation(s) folded in{pruned})"
    )
    return 0


def _cmd_recover(args: argparse.Namespace) -> int:
    from repro.maintenance.store import CheckpointStore

    report = CheckpointStore(args.directory).recover()
    print(report.format())
    if not report.recovered or report.dk is None:
        return 1
    if args.out is not None:
        from repro.indexes.serialize import save_dk_index

        save_dk_index(report.dk, args.out)
        print(f"saved recovered index to {args.out}")
    return 0


def _cmd_lint(args: argparse.Namespace) -> int:
    from pathlib import Path

    from repro.analysis import LintEngine, get_rules, load_baseline, write_baseline

    if args.effects_out is not None and not args.deep:
        raise ReproError("--effects-out requires --deep")

    deep_tokens: set[str] = set()
    if args.deep:
        from repro.analysis.flow import deep_rule_tokens

        deep_tokens = deep_rule_tokens()

    rules = get_rules(
        select=args.select, ignore=args.ignore, extra_known=deep_tokens
    )
    if args.list_rules:
        for rule in rules:
            print(f"{rule.rule_id}  {rule.name:24} {rule.description}")
        if args.deep:
            from repro.analysis.flow import get_deep_rules

            shallow = _shallow_rule_tokens()
            for deep_rule in get_deep_rules(
                select=args.select, ignore=args.ignore, extra_known=shallow
            ):
                print(
                    f"{deep_rule.rule_id}  {deep_rule.name:24} "
                    f"{deep_rule.description}"
                )
        return 0

    engine = LintEngine(rules)
    report = engine.run(args.paths)

    deep_stats_line: str | None = None
    if args.deep:
        from repro.analysis.flow import get_deep_rules, run_deep, write_effects

        deep_rules = get_deep_rules(
            select=args.select,
            ignore=args.ignore,
            extra_known=_shallow_rule_tokens(),
        )
        deep_report, analysis = run_deep(args.paths, deep_rules)
        report.findings = sorted(report.findings + deep_report.findings)
        report.suppressed += deep_report.suppressed
        deep_stats_line = deep_report.stats.format_line()
        if args.effects_out is not None:
            write_effects(args.effects_out, analysis)
            print(f"wrote effect summaries to {args.effects_out}")

    if args.write_baseline:
        baseline = write_baseline(args.baseline, report.findings)
        print(
            f"wrote {args.baseline}: {len(baseline)} accepted finding(s) "
            f"from {report.files_checked} file(s)"
        )
        return 0

    baseline = load_baseline(args.baseline)
    raw_findings = list(report.findings)
    stale = baseline.stale_entries(raw_findings)
    if args.prune_baseline and stale:
        baseline = baseline.pruned(raw_findings)
        Path(args.baseline).write_text(baseline.to_json(), encoding="utf-8")
        dropped = sum(excess for _, _, _, excess in stale)
        print(f"pruned {dropped} stale entr{'y' if dropped == 1 else 'ies'} from {args.baseline}")
        stale = []
    report.findings, report.baseline_matched = baseline.filter(raw_findings)
    if args.format == "json":
        print(report.to_json())
    else:
        print(report.format_text())
        if stale:
            count = sum(excess for _, _, _, excess in stale)
            print(
                f"baseline: {count} stale entr{'y' if count == 1 else 'ies'} "
                "no longer matched by any finding "
                "(run with --prune-baseline to drop them)"
            )
        if deep_stats_line is not None:
            print(deep_stats_line)
    return 0 if report.ok else 1


def _shallow_rule_tokens() -> set[str]:
    from repro.analysis.rules import all_rules

    return {
        token
        for rule in all_rules()
        for token in (rule.rule_id, rule.name)
    }


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dkindex",
        description="D(k)-Index (SIGMOD 2003) reproduction toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    bench = sub.add_parser("bench", help="run a paper experiment")
    bench.add_argument("experiment", choices=[*EXPERIMENTS, "all"])
    bench.add_argument("--scale", default="1.0",
                       help="dataset scale factor or a named scale "
                       "(small/medium/large)")
    bench.add_argument("--csv", action="store_true",
                       help="emit CSV series instead of text tables")
    bench.set_defaults(func=_cmd_bench)

    generate = sub.add_parser("generate", help="generate a dataset graph")
    generate.add_argument("dataset", choices=sorted(DATASET_BUILDERS))
    generate.add_argument("--out", required=True)
    generate.add_argument("--scale", type=float, default=1.0)
    generate.add_argument("--seed", type=int, default=0)
    generate.set_defaults(func=_cmd_generate)

    stats = sub.add_parser("stats", help="statistics of a stored graph")
    stats.add_argument("file")
    stats.set_defaults(func=_cmd_stats)

    query = sub.add_parser("query", help="evaluate a path expression")
    query.add_argument("file")
    query.add_argument("expression")
    query.add_argument("--k", type=_non_negative_int, default=None)
    query.set_defaults(func=_cmd_query)

    explain = sub.add_parser("explain", help="EXPLAIN a query's plan")
    explain.add_argument("file")
    explain.add_argument("expression")
    explain.add_argument("--k", type=_non_negative_int, default=None,
                         help="build the index at this similarity instead "
                         "of the query-derived one (shows validation)")
    explain.set_defaults(func=_cmd_explain)

    twig = sub.add_parser("twig", help="evaluate a branching pattern")
    twig.add_argument("file")
    twig.add_argument("pattern")
    twig.set_defaults(func=_cmd_twig)

    dot = sub.add_parser("dot", help="Graphviz DOT export")
    dot.add_argument("file")
    dot.add_argument("--index", action="store_true",
                     help="render the label-split index instead of the data")
    dot.add_argument("--max-nodes", type=_non_negative_int, default=500)
    dot.set_defaults(func=_cmd_dot)

    conformance = sub.add_parser(
        "conformance", help="generate a dataset and check it against its DTD"
    )
    conformance.add_argument("dataset", choices=sorted(DATASET_BUILDERS))
    conformance.add_argument("--scale", type=float, default=0.1)
    conformance.add_argument("--seed", type=int, default=0)
    conformance.set_defaults(func=_cmd_conformance)

    audit = sub.add_parser(
        "audit", help="audit a stored D(k)-index at a chosen tier"
    )
    audit.add_argument("file", help="a store written by Database.save / "
                       "save_dk_index")
    audit.add_argument("--level", choices=["fast", "deep"], default="deep",
                       help="audit tier (default: deep)")
    audit.set_defaults(func=_cmd_audit)

    chaos = sub.add_parser(
        "chaos", help="run the fault-injection chaos suite"
    )
    chaos.add_argument("--seed", type=int, default=0,
                       help="determinism anchor, printed in the report")
    chaos.add_argument("--journal-dir", default=None,
                       help="write per-scenario journals into this directory")
    chaos.add_argument("--no-durability", action="store_true",
                       help="skip the checkpoint-store durability crash "
                       "matrix and run only the update-operation suite")
    chaos.add_argument("--storage", action="store_true",
                       help="run only the paged-storage crash matrix "
                       "(fault-injected page I/O, retry, scrub & repair, "
                       "engine degradation)")
    chaos.set_defaults(func=_cmd_chaos)

    scrub = sub.add_parser(
        "scrub",
        help="digest-verify (and repair) every page of a paged store",
    )
    scrub.add_argument("directory", help="a PagedStore/PagedCSRGraph "
                       "directory")
    scrub.add_argument("--no-repair", action="store_true",
                       help="report corruption without restoring pages "
                       "from older generations")
    scrub.set_defaults(func=_cmd_scrub)

    checkpoint = sub.add_parser(
        "checkpoint",
        help="create a checkpoint store, or roll one to a new generation",
    )
    checkpoint.add_argument("directory", help="the checkpoint store directory")
    checkpoint.add_argument("--init", default=None, metavar="FILE",
                            help="initialise a new store from this saved "
                            "index (save_dk_index output) instead of rolling "
                            "an existing store forward")
    checkpoint.add_argument("--retain", type=int, default=2,
                            help="older generations to keep as recovery "
                            "rungs (default: 2)")
    checkpoint.set_defaults(func=_cmd_checkpoint)

    recover = sub.add_parser(
        "recover",
        help="recover a checkpoint store and print the recovery report",
    )
    recover.add_argument("directory", help="the checkpoint store directory")
    recover.add_argument("--out", default=None, metavar="FILE",
                         help="save the recovered index here (save_dk_index "
                         "format)")
    recover.set_defaults(func=_cmd_recover)

    lint = sub.add_parser(
        "lint", help="run the AST invariant linter over the codebase"
    )
    lint.add_argument("paths", nargs="*", default=["src"],
                      help="files or directories to lint (default: src)")
    lint.add_argument("--format", choices=["text", "json"], default="text",
                      help="findings as text lines or a JSON report")
    lint.add_argument("--baseline", default="lint-baseline.json",
                      help="baseline file of accepted findings")
    lint.add_argument("--write-baseline", action="store_true",
                      help="accept all current findings into the baseline")
    lint.add_argument("--select", action="append", default=None,
                      metavar="RULE", help="run only these rules (id or name)")
    lint.add_argument("--ignore", action="append", default=None,
                      metavar="RULE", help="skip these rules (id or name)")
    lint.add_argument("--list-rules", action="store_true",
                      help="print the (selected) rule catalogue and exit")
    lint.add_argument("--deep", action="store_true",
                      help="also run the interprocedural pass "
                      "(call graph + effect summaries, DK109–DK112)")
    lint.add_argument("--effects-out", default=None, metavar="FILE",
                      help="write the effect-summary artifact "
                      "(analysis-effects.json) here; requires --deep")
    lint.add_argument("--prune-baseline", action="store_true",
                      help="rewrite the baseline file without entries "
                      "no current finding justifies")
    lint.set_defaults(func=_cmd_lint)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
