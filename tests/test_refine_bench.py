"""Tests for the refinement-engine benchmark harness and its CLI."""

import json

import pytest

from repro.bench.refine import (
    SCHEMA,
    RefineBenchConfig,
    format_report,
    run_refine_bench,
    synthetic_requirements,
    write_report,
)
from repro.cli import main
from repro.datasets.xmark import generate_xmark
from repro.exceptions import DatasetError
from repro.partition import columnar

TINY = RefineBenchConfig(scale="0.05", repeats=1, datasets=("xmark",))

SCENARIOS = {"ak_sweep", "oneindex_fixpoint", "dk_build", "table1_reindex"}


def test_report_structure_and_speedups():
    report = run_refine_bench(TINY)
    assert report["schema"] == SCHEMA
    assert report["config"]["scale_axis"] == {"0.05": 0.05}
    assert report["config"]["numpy"] is (columnar._numpy is not None)
    assert "jobs" not in report["config"]
    results = report["results"]
    # 4 scenarios x 2 engines x 1 scale.
    assert len(results) == 8
    assert {row["scenario"] for row in results} == SCENARIOS
    assert {row["engine"] for row in results} == {"legacy", "columnar"}
    for row in results:
        assert len(row["times_s"]) == 1
        assert row["median_s"] >= 0.0
        assert row["scale"] == "0.05"
        assert row["peak_kb"] > 0.0
        assert "jobs" not in row
    speedups = report["speedups"]
    assert set(speedups) == {f"xmark/{name}@0.05" for name in SCENARIOS}
    for entry in speedups.values():
        assert set(entry) == {"legacy_s", "columnar_s", "speedup"}
        assert entry["speedup"] == pytest.approx(
            entry["legacy_s"] / entry["columnar_s"]
        )


def test_scale_axis_produces_one_row_set_per_scale():
    report = run_refine_bench(
        RefineBenchConfig(
            scale="0.05,0.08", repeats=1, datasets=("xmark",)
        )
    )
    results = report["results"]
    assert len(results) == 16  # 4 scenarios x 2 engines x 2 scales
    assert {row["scale"] for row in results} == {"0.05", "0.08"}
    assert set(report["datasets"]) == {"xmark@0.05", "xmark@0.08"}
    assert set(report["speedups"]) == {
        f"xmark/{name}@{scale}"
        for name in SCENARIOS
        for scale in ("0.05", "0.08")
    }


def test_report_records_a_disabled_numpy_sweep(monkeypatch):
    monkeypatch.setattr(columnar, "_numpy", None)
    report = run_refine_bench(TINY)
    assert report["config"]["numpy"] is False


def test_write_report_round_trips(tmp_path):
    report = run_refine_bench(TINY)
    out = tmp_path / "BENCH_refinement.json"
    write_report(report, str(out))
    loaded = json.loads(out.read_text())
    assert loaded["schema"] == SCHEMA
    assert loaded["datasets"]["xmark@0.05"]["nodes"] > 0
    assert "leg/col" in format_report(report)


def test_named_numeric_and_mixed_scale_axes():
    assert RefineBenchConfig(scale="small").scale_axis == (("small", 0.2),)
    assert RefineBenchConfig(scale="0.4").scale_axis == (("0.4", 0.4),)
    assert RefineBenchConfig(scale="small,medium").scale_axis == (
        ("small", 0.2),
        ("medium", 0.6),
    )
    assert RefineBenchConfig(scale="small, 0.3").scale_axis == (
        ("small", 0.2),
        ("0.3", 0.3),
    )
    with pytest.raises(DatasetError):
        RefineBenchConfig(scale="galactic").scale_axis
    with pytest.raises(DatasetError):
        RefineBenchConfig(scale=",").scale_axis


def test_unknown_dataset_rejected():
    with pytest.raises(DatasetError):
        run_refine_bench(
            RefineBenchConfig(scale="0.05", repeats=1, datasets=("enron",))
        )


def test_synthetic_requirements_deterministic_and_varied():
    graph = generate_xmark(scale=0.05, seed=0).graph
    requirements = synthetic_requirements(graph)
    assert requirements == synthetic_requirements(graph)
    assert "ROOT" not in requirements and "VALUE" not in requirements
    assert set(requirements.values()) <= {1, 2, 3}
    assert len(set(requirements.values())) > 1


def test_cli_bench_refine(tmp_path, capsys):
    out = tmp_path / "bench.json"
    code = main(
        [
            "bench", "refine",
            "--scale", "0.05",
            "--repeats", "1",
            "--datasets", "xmark",
            "--out", str(out),
        ]
    )
    assert code == 0
    captured = capsys.readouterr().out
    assert "leg/col" in captured
    assert str(out) in captured
    loaded = json.loads(out.read_text())
    assert loaded["schema"] == SCHEMA
    assert loaded["config"]["repeats"] == 1


def test_cli_bench_refine_bad_scale_is_clean_error(tmp_path, capsys):
    code = main(
        [
            "bench", "refine",
            "--scale", "galactic",
            "--out", str(tmp_path / "bench.json"),
        ]
    )
    assert code == 1
    assert "error:" in capsys.readouterr().err
