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
    # Over --max-nodes the export fails with a typed error, which main
    # reports on stderr with exit code 1 instead of a traceback.
    out = tmp_path / "g.json"
    main(["generate", "xmark", "--out", str(out), "--scale", "0.03"])
    capsys.readouterr()
    assert main(["dot", str(out), "--max-nodes", "3"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: graph has ")
    assert "refusing to render more than 3" in captured.err


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


def test_chaos_no_durability_flag(capsys):
    code = main(["chaos", "--seed", "1", "--no-durability"])
    assert code == 0
    output = capsys.readouterr().out
    assert "durability crash matrix" not in output


def test_bench_bogus_scale_is_clean_error(capsys):
    # Regression: an unknown scale token used to escape as a raw
    # ValueError traceback from float(), and NaN or infinity as one from
    # int() inside the generator; each must be a clean CLI error.
    for token in ("bogus", "nan", "inf"):
        code = main(["bench", "fig4", "--scale", token])
        assert code == 1
        err = capsys.readouterr().err
        assert "error:" in err
        assert token in err
        assert "small" in err  # the message names the valid tokens


@pytest.mark.parametrize(
    "argv",
    [
        ["generate", "xmark", "--scale", "nan"],
        ["generate", "nasa", "--scale", "inf"],
        ["generate", "dblp", "--scale", "nan"],
        ["conformance", "xmark", "--scale", "nan"],
    ],
)
def test_non_finite_generator_scale_is_clean_error(tmp_path, capsys, argv):
    if argv[0] == "generate":
        argv = [*argv, "--out", str(tmp_path / "g.json")]
    assert main(argv) == 1
    assert "error: scale must be a positive finite number" in (
        capsys.readouterr().err
    )
    assert not (tmp_path / "g.json").exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["query", "{file}", "site.people", "--k", "-1"],
        ["explain", "{file}", "site.people", "--k", "-2"],
        ["dot", "{file}", "--max-nodes", "-1"],
    ],
)
def test_negative_cli_integers_are_usage_errors(tmp_path, capsys, argv):
    path = tmp_path / "g.json"
    main(["generate", "xmark", "--out", str(path), "--scale", "0.03"])
    capsys.readouterr()
    with pytest.raises(SystemExit) as raised:
        main([arg.format(file=path) for arg in argv])
    assert raised.value.code == 2
    assert "must be non-negative" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["query", "{file}", "site.people", "--k", str(2**63)],
        ["dot", "{file}", "--max-nodes", str(2**63)],
    ],
)
def test_cli_integers_past_int64_are_usage_errors(tmp_path, capsys, argv):
    # A requirement past 2**63 - 1 would overflow the int64 copy of k.
    path = tmp_path / "g.json"
    main(["generate", "xmark", "--out", str(path), "--scale", "0.03"])
    capsys.readouterr()
    with pytest.raises(SystemExit) as raised:
        main([arg.format(file=path) for arg in argv])
    assert raised.value.code == 2
    assert "must be at most 2**63 - 1" in capsys.readouterr().err


def test_bench_named_scale_accepted(capsys):
    # Named scales (small/medium/large) work on every bench experiment.
    code = main(["bench", "fig4", "--scale", "small"])
    assert code == 0
    assert "[FIG4]" in capsys.readouterr().out
