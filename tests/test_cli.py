"""Tests for the command-line interface."""

import pytest

from repro.cli import main


def test_generate_and_stats(tmp_path, capsys):
    out = tmp_path / "g.json"
    code = main(["generate", "xmark", "--out", str(out), "--scale", "0.03"])
    assert code == 0
    assert out.exists()
    assert "wrote" in capsys.readouterr().out

    code = main(["stats", str(out)])
    assert code == 0
    assert "nodes:" in capsys.readouterr().out


def test_query_command(tmp_path, capsys):
    out = tmp_path / "g.json"
    main(["generate", "xmark", "--out", str(out), "--scale", "0.03"])
    code = main(["query", str(out), "item.name"])
    assert code == 0
    output = capsys.readouterr().out
    assert "index size:" in output
    assert "matches" in output


def test_query_command_with_k(tmp_path, capsys):
    out = tmp_path / "g.json"
    main(["generate", "xmark", "--out", str(out), "--scale", "0.03"])
    code = main(["query", str(out), "person.name", "--k", "2"])
    assert code == 0


def test_bench_command_small_scale(capsys):
    code = main(["bench", "fig4", "--scale", "0.03"])
    assert code == 0
    output = capsys.readouterr().out
    assert "[FIG4]" in output
    assert "D(k)" in output


def test_stats_missing_file_is_clean_error(tmp_path, capsys):
    # A nonexistent path raises OSError which is not a ReproError; the
    # CLI wraps only library errors, so use a corrupt file instead.
    bad = tmp_path / "bad.json"
    bad.write_text('{"format": "nope"}')
    code = main(["stats", str(bad)])
    assert code == 1
    assert "error:" in capsys.readouterr().err


def test_unknown_command_exits():
    with pytest.raises(SystemExit):
        main(["frobnicate"])


def test_twig_command(tmp_path, capsys):
    out = tmp_path / "g.json"
    main(["generate", "xmark", "--out", str(out), "--scale", "0.03"])
    code = main(["twig", str(out), "item[incategory]/name"])
    assert code == 0
    output = capsys.readouterr().out
    assert "F&B index:" in output
    assert "matches" in output


def test_dot_command(tmp_path, capsys):
    out = tmp_path / "g.json"
    main(["generate", "xmark", "--out", str(out), "--scale", "0.03"])
    code = main(["dot", str(out), "--index"])
    assert code == 0
    assert "digraph" in capsys.readouterr().out


def test_dot_command_size_guard(tmp_path, capsys):
    out = tmp_path / "g.json"
    main(["generate", "xmark", "--out", str(out), "--scale", "0.03"])
    with pytest.raises(ValueError):
        main(["dot", str(out), "--max-nodes", "3"])


def test_conformance_command(capsys):
    code = main(["conformance", "xmark", "--scale", "0.03"])
    assert code == 0
    assert "conforms" in capsys.readouterr().out


def test_explain_command(tmp_path, capsys):
    out = tmp_path / "g.json"
    main(["generate", "xmark", "--out", str(out), "--scale", "0.03"])
    code = main(["explain", str(out), "item.name"])
    assert code == 0
    assert "sound" in capsys.readouterr().out
    code = main(["explain", str(out), "site.regions.africa.item.name", "--k", "0"])
    assert code == 0
    assert "VALIDATES" in capsys.readouterr().out


def test_conformance_command_dblp(capsys):
    code = main(["conformance", "dblp", "--scale", "0.05"])
    assert code == 0
    assert "conforms" in capsys.readouterr().out


def test_bad_query_syntax_is_clean_error(tmp_path, capsys):
    out = tmp_path / "g.json"
    main(["generate", "xmark", "--out", str(out), "--scale", "0.03"])
    code = main(["query", str(out), "item..name"])
    assert code == 1
    assert "error:" in capsys.readouterr().err


def test_checkpoint_init_roll_and_recover(tmp_path, capsys):
    from repro.core.dindex import DKIndex
    from repro.graph.builder import graph_from_edges
    from repro.indexes.serialize import load_dk_index, save_dk_index

    graph = graph_from_edges(
        ["db", "m", "t", "a", "m", "t"], [(0, 1), (1, 2), (1, 3), (0, 4), (4, 5)]
    )
    dk = DKIndex.build(graph, {"t": 1})
    saved = tmp_path / "index.json"
    save_dk_index(dk, saved)
    store = tmp_path / "store"

    assert main(["checkpoint", str(store), "--init", str(saved)]) == 0
    assert "generation 1" in capsys.readouterr().out
    assert main(["checkpoint", str(store)]) == 0
    assert "generation 2" in capsys.readouterr().out

    out = tmp_path / "recovered.json"
    assert main(["recover", str(store), "--out", str(out)]) == 0
    output = capsys.readouterr().out
    assert "recovered via" in output
    restored = load_dk_index(out)
    assert restored.graph.num_edges == dk.graph.num_edges


def test_recover_unrecoverable_store_exits_nonzero(tmp_path, capsys):
    store = tmp_path / "store"
    store.mkdir()
    (store / "snapshot-0000001.json").write_text("garbage", encoding="utf-8")
    assert main(["recover", str(store)]) == 1
    assert "UNRECOVERED" in capsys.readouterr().out


def test_bench_recovery_writes_report(tmp_path, capsys):
    import json

    out = tmp_path / "BENCH_recovery.json"
    code = main(
        ["bench", "recovery", "--scale", "0.05", "--repeats", "1",
         "--edges", "3", "--datasets", "xmark", "--out", str(out)]
    )
    assert code == 0
    report = json.loads(out.read_text(encoding="utf-8"))
    assert report["schema"] == "dkindex-bench-recovery/1"
    assert {row["arm"] for row in report["results"]} == {"recover", "rebuild"}
    assert "[RECOVERY]" in capsys.readouterr().out


def test_chaos_no_durability_flag(capsys):
    code = main(["chaos", "--seed", "1", "--no-durability"])
    assert code == 0
    output = capsys.readouterr().out
    assert "durability crash matrix" not in output


def test_bench_bogus_scale_is_clean_error(capsys):
    # Regression: an unknown scale token used to escape as a raw
    # ValueError traceback from float(); it must be a clean CLI error.
    code = main(["bench", "fig4", "--scale", "bogus"])
    assert code == 1
    err = capsys.readouterr().err
    assert "error:" in err
    assert "bogus" in err
    assert "small" in err  # the message names the valid tokens


def test_bench_named_scale_accepted(capsys):
    # Named scales (small/medium/large) work on every bench experiment,
    # not just the refinement harness that introduced them.
    code = main(["bench", "fig4", "--scale", "small"])
    assert code == 0
    assert "[FIG4]" in capsys.readouterr().out


def test_bench_outofcore_writes_report(tmp_path, capsys):
    import json

    out = tmp_path / "BENCH_outofcore.json"
    code = main(
        ["bench", "outofcore", "--scale", "0.05", "--budget-ratio", "0.25",
         "--page-bytes", "4096", "--out", str(out)]
    )
    assert code == 0
    report = json.loads(out.read_text(encoding="utf-8"))
    assert report["schema"] == "dkindex-bench-outofcore/2"
    assert isinstance(report["config"]["numpy"], bool)
    assert report["config"]["nproc"] >= 1
    assert report["summary"]["partition_identical"] is True
    assert report["budget_bytes"] <= max(4096, report["footprint_bytes"] // 4)
    phases = report["phases"]
    assert set(phases) >= {
        "columnar_in_memory", "page_out", "external_build", "query_sweep"
    }
    assert phases["external_build"]["pool"]["misses"] > 0
    output = capsys.readouterr().out
    assert "[OUTOFCORE]" in output
    assert "partition identical" in output


def test_bench_outofcore_bogus_scale_is_clean_error(capsys):
    code = main(["bench", "outofcore", "--scale", "huge"])
    assert code == 1
    assert "error:" in capsys.readouterr().err
