"""Tests for the interprocedural rule pack DK109–DK112.

Each rule gets a deliberately planted violation that the per-file
DK101–DK108 pass provably misses (asserted in the same test), the
sanctioned fix pattern it must not flag, and the repo-wide gate: the
shipped source tree is deep-clean and analyzes in well under the CI
budget.
"""

from textwrap import dedent

import pytest

from repro.analysis import LintEngine, all_rules
from repro.analysis.flow import (
    all_deep_rules,
    analyze_sources,
    get_deep_rules,
    run_deep,
    run_deep_rules,
)
from repro.cli import main
from repro.exceptions import ReproError


def deep_findings(modules, rules=None):
    sources = {
        name: dedent(source) for name, source in modules.items()
    }
    analysis = analyze_sources(sources)
    report = run_deep_rules(analysis, rules)
    return report


def shallow_findings(modules):
    engine = LintEngine(all_rules())
    found = []
    for name, source in modules.items():
        path = name.replace(".", "/") + ".py"
        found.extend(
            engine.check_source(dedent(source), path=path, module=name)
        )
    return found


# ------------------------- DK109 fork safety ----------------------------

FORK_UNSAFE = {
    "repro.partition.parallel": """
    from multiprocessing import Pool

    SEEN: list = []

    def _worker(chunk: list) -> list:
        SEEN.append(chunk)
        return chunk

    def refine(chunks: list) -> list:
        with Pool(2) as pool:
            return pool.map(_worker, chunks)
    """
}

FORK_SAFE = {
    "repro.partition.parallel": """
    from multiprocessing import Pool

    def _worker(chunk: list) -> list:
        return sorted(chunk)

    def refine(chunks: list) -> list:
        with Pool(2) as pool:
            return pool.map(_worker, chunks)
    """
}


def test_dk109_flags_fork_unsafe_worker():
    report = deep_findings(FORK_UNSAFE)
    assert [f.rule_id for f in report.findings] == ["DK109"]
    finding = report.findings[0]
    assert "_worker" in finding.message
    assert "SEEN" in finding.message


def test_dk109_fork_unsafe_closure():
    report = deep_findings(
        {
            "repro.partition.parallel": """
            from multiprocessing import Pool

            def refine(chunks: list) -> list:
                seen: list = []
                with Pool(2) as pool:
                    pool.map(lambda chunk: seen.append(chunk), chunks)
                return seen
            """
        }
    )
    assert [f.rule_id for f in report.findings] == ["DK109"]
    assert "shared container `seen`" in report.findings[0].message


def test_dk109_violation_invisible_to_per_file_pass():
    assert shallow_findings(FORK_UNSAFE) == []


def test_dk109_pure_worker_clean():
    assert deep_findings(FORK_SAFE).findings == []


def instance_pool_module(worker_effect):
    """A sweep that keeps its fork pool on the instance and dispatches
    through ``self._pool.map(worker, bounds)``.  The worker reads the
    module-global ``_NODES`` buffer after running ``worker_effect``."""
    return {
        "repro.partition.sweep": f"""
    import multiprocessing

    _NODES: list = []
    _SEEN: list = []

    def _chunk_keys(bounds: tuple) -> list:
        {worker_effect}
        return [_NODES[i] for i in range(bounds[0], bounds[1])]

    class Sweeper:
        def __init__(self, processes: int) -> None:
            context = multiprocessing.get_context("fork")
            self._pool = context.Pool(processes)

        def keys(self, bounds: list) -> list:
            return self._pool.map(_chunk_keys, bounds)
    """
    }


def test_dk109_recognizes_instance_pool_dispatch_site():
    # A pool stored on the instance is still a dispatch site: DK109
    # must resolve the worker, find a read-only one pure, and flag one
    # that writes a module global.
    pure = instance_pool_module("pass")
    analysis = analyze_sources(
        {name: dedent(source) for name, source in pure.items()}
    )
    sites = analysis.program.dispatch_sites
    assert [(site.worker, site.kind) for site in sites] == [
        ("repro.partition.sweep._chunk_keys", "pool")
    ]
    report = run_deep_rules(analysis, get_deep_rules(select=["DK109"]))
    assert report.findings == []

    impure = instance_pool_module("_SEEN.append(bounds)")
    findings = deep_findings(impure).findings
    assert [f.rule_id for f in findings] == ["DK109"]
    assert "_SEEN" in findings[0].message


# ------------------------- DK110 transaction coverage -------------------

UNJOURNALED = {
    "repro.maintenance.sneaky": """
    def erode(index: object, node: int) -> None:
        index.k[node] -= 1

    def weaken(index: object) -> None:
        erode(index, 0)
    """
}

JOURNALED = {
    "repro.maintenance.sneaky": """
    def erode(index: object, node: int) -> None:
        index.k[node] -= 1

    def weaken(graph: object, index: object) -> None:
        with UpdateTransaction(graph, index):
            erode(index, 0)
    """
}


def test_dk110_flags_unjournaled_mutation():
    report = deep_findings(UNJOURNALED)
    assert [f.rule_id for f in report.findings] == ["DK110"]
    assert "index.k" in report.findings[0].message
    assert "UpdateTransaction" in report.findings[0].message


def test_dk110_violation_invisible_to_per_file_pass():
    # repro.maintenance is an owner module for DK101/DK107, so the
    # per-file pass deliberately allows the mutation — only the deep
    # pass sees it is reachable outside any transaction.
    assert shallow_findings(UNJOURNALED) == []


def test_dk110_covered_caller_protects_callee():
    assert deep_findings(JOURNALED).findings == []


def test_dk110_fresh_index_is_laundered():
    report = deep_findings(
        {
            "repro.maintenance.replay": """
            class IndexGraph:
                def __init__(self) -> None:
                    self.k: dict = {}

            def rebuild() -> IndexGraph:
                index = IndexGraph()
                index.k[0] = 1
                return index
            """
        }
    )
    # rebuild writes only to an index it just constructed — nothing any
    # concurrent reader could observe — and __init__'s receiver writes
    # are the constructor's own business.  No transaction required.
    assert report.findings == []


def test_dk110_exempt_modules_not_flagged():
    report = deep_findings(
        {
            "repro.maintenance.faults": """
            def corrupt(index, victim: int) -> None:
                index.k[victim] += 10
            """
        }
    )
    assert report.findings == []


# ------------------------- DK111 alias escape ---------------------------

ALIAS_ESCAPE = {
    "repro.indexes.evaluation": """
    def _lookup(index: object, label: int) -> set:
        return index.extents[label]

    def serve(index: object, label: int) -> set:
        return _lookup(index, label)
    """
}

ALIAS_COPIED = {
    "repro.indexes.evaluation": """
    def _lookup(index: object, label: int) -> set:
        return set(index.extents[label])

    def serve(index: object, label: int) -> set:
        return _lookup(index, label)
    """
}


def test_dk111_flags_escaped_alias():
    report = deep_findings(ALIAS_ESCAPE)
    assert report.findings
    assert all(f.rule_id == "DK111" for f in report.findings)
    flagged = {f.message.split("`")[1] for f in report.findings}
    assert "_lookup" in flagged  # the origin is flagged
    assert any("serve" in f.message for f in report.findings)  # and the escape


def test_dk111_violation_invisible_to_per_file_pass():
    # DK101 polices writes; a returned read reference is invisible to
    # the per-file pass.
    assert shallow_findings(ALIAS_ESCAPE) == []


def test_dk111_copies_are_clean():
    assert deep_findings(ALIAS_COPIED).findings == []


def test_dk111_out_of_scope_module_not_flagged():
    report = deep_findings(
        {
            "repro.indexes.base": """
            def raw_extent(index, label: int) -> set:
                return index.extents[label]
            """
        }
    )
    assert report.findings == []  # the owner hands out views by design


# ------------------------- DK112 durability discipline ------------------

NON_ATOMIC = {
    "repro.graph.rawio": """
    def dump_text(payload: str, path: str) -> None:
        with open(path, "w") as handle:
            handle.write(payload)
    """,
    "repro.graph.serialize": """
    from repro.graph.rawio import dump_text

    def save_graph(graph: object, path: str) -> None:
        dump_text("data", path)
    """,
}

ATOMIC = {
    "repro.maintenance.store": """
    def atomic_write_text(path: str, payload: str) -> None:
        with open(path + ".tmp", "w") as handle:
            handle.write(payload)
    """,
    "repro.graph.serialize": """
    from repro.maintenance.store import atomic_write_text

    def save_graph(graph: object, path: str) -> None:
        atomic_write_text(path, "data")
    """,
}


def test_dk112_flags_non_atomic_write_through_helper():
    report = deep_findings(NON_ATOMIC)
    assert [f.rule_id for f in report.findings] == ["DK112"]
    finding = report.findings[0]
    assert finding.path.endswith("repro/graph/serialize.py")
    assert "dump_text" in finding.message
    assert "atomic_write_text" in finding.message


def test_dk112_violation_invisible_to_per_file_pass():
    # DK108 only sees open() calls lexically inside persistence
    # modules; the helper lives outside its scope.
    assert shallow_findings(NON_ATOMIC) == []


def test_dk112_atomic_writer_path_is_clean():
    assert deep_findings(ATOMIC).findings == []


# ------------------------- suppression + selection ----------------------


def test_deep_findings_honour_dk_ignore_directive():
    report = deep_findings(
        {
            "repro.maintenance.sneaky": """
            def erode(index, node: int) -> None:
                index.k[node] -= 1  # dk: ignore[DK110]
            """
        }
    )
    assert report.findings == []
    assert report.suppressed == 1


def test_get_deep_rules_selection_and_validation():
    assert {rule.rule_id for rule in all_deep_rules()} == {
        "DK109", "DK110", "DK111", "DK112",
    }
    only = get_deep_rules(select=["DK110"])
    assert [rule.rule_id for rule in only] == ["DK110"]
    named = get_deep_rules(select=["fork-unsafe-worker"])
    assert [rule.rule_id for rule in named] == ["DK109"]
    without = get_deep_rules(ignore=["DK111"])
    assert "DK111" not in {rule.rule_id for rule in without}
    with pytest.raises(ReproError):
        get_deep_rules(select=["DK999"])
    # per-file tokens pass through when declared known
    mixed = get_deep_rules(select=["DK101", "DK110"], extra_known={"DK101"})
    assert [rule.rule_id for rule in mixed] == ["DK110"]


# ------------------------- repo gate + bench guard ----------------------


def test_repository_source_tree_is_deep_clean():
    report, analysis = run_deep(["src"])
    assert report.findings == [], "\n".join(
        finding.format() for finding in report.findings
    )
    assert report.stats.functions > 500
    assert report.stats.call_edges > 800
    # Bench guard: the CI gate runs this on every push; if the deep
    # pass rots past the budget the gate gets deleted, not the rot.
    assert report.stats.duration_seconds < 30.0


def test_cli_deep_lint_reports_stats_and_artifact(tmp_path, capsys):
    effects = tmp_path / "analysis-effects.json"
    baseline = tmp_path / "baseline.json"
    code = main(
        [
            "lint", "src", "--deep",
            "--baseline", str(baseline),
            "--effects-out", str(effects),
        ]
    )
    output = capsys.readouterr().out
    assert code == 0
    assert "deep analysis:" in output
    assert "call edge(s)" in output
    assert effects.exists()


def test_cli_effects_out_requires_deep(capsys):
    code = main(["lint", "src", "--effects-out", "x.json"])
    assert code == 1
    assert "--effects-out requires --deep" in capsys.readouterr().err
