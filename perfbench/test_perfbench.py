"""Self-test of the benchmark at a tiny scale.

Runs every workload, plain and traced, in a few seconds and checks that
each metric ``BENCHMARK.json`` declares is emitted with its unit and
that nothing failed; then plants a wrong answer and checks that the
correctness gate catches it.  Run from the repository root with
``python3 -m pytest perfbench -q``.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import Any

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

run.import_program()

import workloads  # noqa: E402
from repro.core.dindex import DKIndex  # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [workload["name"] for workload in SPEC["workloads"]]


@pytest.fixture(autouse=True)
def tiny(monkeypatch: pytest.MonkeyPatch) -> None:
    """Shrink the documents and the run to a few seconds per workload."""
    monkeypatch.setattr(workloads, "LARGE", 0.05)
    monkeypatch.setattr(run, "MIN_ROUNDS", 1)


def invoke(capsys: pytest.CaptureFixture[str], *args: str) -> tuple[int, dict[str, Any]]:
    """Run the command; returns its exit code and final JSON line."""
    code = run.main([*args, "--seed", "3", "--seconds", "0.1"])
    last = capsys.readouterr().out.strip().splitlines()[-1]
    return code, json.loads(last)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_declared_metric_is_emitted(
    capsys: pytest.CaptureFixture[str], workload: str, trace: int
) -> None:
    code, result = invoke(capsys, "--workload", workload, "--trace", str(trace))
    assert code == 0
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [metric["name"] for metric in declared]
    for metric in declared:
        entry = result["metrics"][metric["name"]]
        assert entry["unit"] == metric["unit"]
        assert isinstance(entry["value"], (int, float))
        # The process's high-water mark is shared with earlier tests, so
        # the rounds may not raise it here.
        if not trace and metric["name"] != "peak_rss_mb":
            assert entry["value"] > 0, metric["name"]
    if trace:
        metrics = {name: entry["value"] for name, entry in result["metrics"].items()}
        assert metrics["e2e.error_rate"] == 0
        assert metrics["trace.overhead"] > 0
        # Journal and checkpoint fsyncs are maintenance's; the paged
        # store's page writes stay in storage.
        if workload == "nasa-update":
            assert metrics["maintenance.fsyncs"] >= metrics["maintenance.journal_appends"] > 0
        else:
            assert metrics["maintenance.fsyncs"] == 0
        if workload == "nasa-build":
            assert metrics["storage.page_out_s"] > 0


def test_gate_catches_a_wrong_answer(
    capsys: pytest.CaptureFixture[str], monkeypatch: pytest.MonkeyPatch
) -> None:
    evaluate = DKIndex.evaluate

    def drops_one_node(self: DKIndex, query: Any, *args: Any, **kwargs: Any) -> set[int]:
        answer = set(evaluate(self, query, *args, **kwargs))
        if answer:
            answer.remove(min(answer))
        return answer

    monkeypatch.setattr(DKIndex, "evaluate", drops_one_node)
    code, result = invoke(capsys, "--workload", "xmark-query", "--trace", "0")
    assert code == 1
    assert result["correct"] is False
    assert result["failed"] > 0
