from __future__ import annotations

import gc
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from helpers import G1_TEXT, random_temporal_graph_large

import tempbc.__main__
import tempbc.cli
import tempbc.exact
from tempbc import hoeffding_size, write_edge_list
from tempbc.distances import estimate_distances
from tempbc.evaluation import compare
from tempbc.graph import read_edge_list
from tempbc.progressive import prtb_estimate
from tempbc.samplers import SampledPath, ScoreVector
from tempbc.tbfs import PathOptimality
from tempbc.cli import main
from tempbc.parallel import default_threads


@pytest.fixture()
def g1_path(tmp_path):
    p = tmp_path / "g1.txt"
    p.write_text(G1_TEXT)
    return p


def _serial(*argv):
    """``--threads 1``, unless ``argv`` runs prtb, which takes no --threads."""
    return [] if "prtb" in argv else ["--threads", "1"]


def run(capsys, *argv):
    code = main([str(a) for a in argv])
    out = capsys.readouterr().out
    return code, json.loads(out) if out.strip().startswith("{") else out


def test_exact_writes_scores_and_report(g1_path, tmp_path, capsys):
    scores = tmp_path / "scores.csv"
    code, report = run(capsys, "exact", g1_path, "--opt", "sh", "--scores", scores, "--threads", "1")
    assert code == 0
    assert report["schema_version"] == 1
    assert report["graph"]["n"] == 4
    assert report["scores_path"] == str(scores)
    lines = scores.read_text().splitlines()
    assert lines[0] == "node_id,score"
    by_id = dict(line.split(",") for line in lines[1:])
    assert float(by_id["2"]) == pytest.approx(1 / 24)
    assert float(by_id["3"]) == pytest.approx(1 / 24)
    assert float(by_id["1"]) == 0.0


def test_exact_empty_graph(tmp_path, capsys):
    p = tmp_path / "empty.txt"
    p.write_text("# nothing here\n")
    code, report = run(capsys, "exact", p, "--threads", "1")
    assert code == 0
    assert report["graph"]["n"] == 0
    assert report["scores"] == []


def test_exact_guardrail_exit_code(tmp_path, capsys, monkeypatch):
    p = tmp_path / "g.txt"
    write_edge_list(random_temporal_graph_large(3, 40, 200, 20), p)
    monkeypatch.setattr(tempbc.exact, "DEFAULT_WORK_LIMIT", 10)
    code, _ = run(capsys, "exact", p, "--threads", "1")
    assert code == 3
    code, _ = run(capsys, "exact", p, "--force", "--threads", "1")
    assert code == 0


def test_fixed_bound_hoeffding_echoes_sample_size(tmp_path, capsys):
    p = tmp_path / "g.txt"
    write_edge_list(random_temporal_graph_large(1, 100, 300, 30), p)
    code, report = run(
        capsys, "fixed", p, "--algo", "ob", "--bound", "hoeffding",
        "--epsilon", "0.1", "--delta", "0.1", "--threads", "1",
    )
    assert code == 0
    assert report["parameters"]["samples"] == 381


def test_fixed_rejects_zero_samples(g1_path, capsys):
    code, _ = run(capsys, "fixed", g1_path, "--algo", "ob", "--samples", "0")
    assert code == 2


def test_threads_below_one_is_a_validation_error(g1_path, capsys):
    code, _ = run(capsys, "exact", g1_path, "--threads", "0")
    assert code == 2
    code, _ = run(capsys, "fixed", g1_path, "--algo", "ob", "--samples", "4", "--threads", "-1")
    assert code == 2


def test_fixed_trk_runs(g1_path, capsys):
    code, report = run(
        capsys, "fixed", g1_path, "--algo", "trk", "--opt", "pfm",
        "--samples", "2000", "--seed", "4", "--threads", "1",
    )
    assert code == 0
    scores = {row["node_id"]: row["score"] for row in report["scores"]}
    assert scores[2] == pytest.approx(7 / 72, abs=0.03)
    assert scores[3] == pytest.approx(7 / 72, abs=0.03)


def test_fixed_bound_vc(g1_path, capsys):
    code, report = run(
        capsys, "fixed", g1_path, "--algo", "ob", "--bound", "vc",
        "--epsilon", "0.3", "--delta", "0.1", "--vd", "3", "--threads", "1",
    )
    assert code == 0
    assert report["parameters"]["vd"] == 3
    assert report["parameters"]["samples"] >= 1


def test_explicit_vd_below_two_is_a_validation_error(g1_path, capsys):
    for vd in ("-4", "1"):
        code = main(["fixed", str(g1_path), "--algo", "ob", "--bound", "vc", "--vd", vd, "--threads", "1"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert "vertex diameter must be >= 2" in captured.err


@pytest.mark.parametrize("size", [["--samples", "64"], ["--bound", "hoeffding"], []])
def test_vd_without_the_vc_bound_is_a_validation_error(g1_path, capsys, size):
    code = main(["fixed", str(g1_path), "--algo", "ob", *size, "--vd", "5", "--threads", "1"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "--bound vc" in captured.err


@pytest.mark.parametrize("algo", ["prtb", "ob", "trk"])
@pytest.mark.parametrize("cap", ["0", "-3"])
def test_max_samples_below_one_is_a_validation_error(g1_path, capsys, algo, cap):
    code = main(["progressive", str(g1_path), "--algo", algo, "--max-samples", cap, *_serial(algo)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "cap must be >= 1" in captured.err


@pytest.mark.parametrize(
    "argv",
    [
        ["diameter", "--epsilon", "1e-200"],
        ["fixed", "--algo", "ob", "--bound", "hoeffding", "--epsilon", "1e-200"],
        ["fixed", "--algo", "ob", "--bound", "vc", "--vd", "3", "--epsilon", "1e-170"],
        ["progressive", "--algo", "ob", "--epsilon", "1e-160"],
    ],
    ids=["diameter", "fixed-hoeffding", "fixed-vc", "progressive"],
)
def test_a_tiny_epsilon_is_a_validation_error(g1_path, capsys, argv):
    # each epsilon makes its sample size no finite integer: epsilon^2
    # underflows to 0, or the size overflows
    code = main([argv[0], str(g1_path), *argv[1:], "--threads", "1"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert f"epsilon {argv[-1]} is too small" in captured.err


def test_a_stalled_progressive_schedule_is_a_validation_error(g1_path, capsys):
    # alpha this close to 1 adds no sample for over a thousand checkpoints,
    # until the confidence budget delta / 2^i reaches 0
    code = main(["progressive", str(g1_path), "--algo", "ob", "--alpha", "1.00001", "--epsilon", "0.01",
                 "--threads", "1"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "checkpoints" in captured.err and "--max-samples" in captured.err and "--alpha" in captured.err


def test_progressive_ob_start_size(g1_path, capsys):
    code, report = run(
        capsys, "progressive", g1_path, "--algo", "ob",
        "--epsilon", "0.1", "--delta", "0.1", "--threads", "1",
    )
    assert code == 0
    assert report["stop"]["final_sample_size"] >= 350
    assert report["stop"]["stopped_by"] in ("bound_met", "iteration_cap")


def test_progressive_prtb_reports_stopping_reason(g1_path, capsys):
    code, report = run(
        capsys, "progressive", g1_path, "--algo", "prtb", "--c", "2", "--max-samples", "40",
    )
    assert code == 0
    assert report["stop"]["stopped_by"] in ("bound_met", "iteration_cap")
    assert report["parameters"]["c"] == 2.0


def test_progressive_prtb_stops_when_no_node_can_gain(tmp_path, capsys):
    # one edge: no node is ever internal, so no sample can reach c * n
    p = tmp_path / "g.txt"
    p.write_text("1 2 3\n")
    code, report = run(capsys, "progressive", p, "--algo", "prtb")
    assert code == 0
    assert report["stop"]["stopped_by"] == "iteration_cap"
    assert report["stop"]["xi"] == 0.0
    assert [row["score"] for row in report["scores"]] == [0.0, 0.0]


@pytest.mark.parametrize("text", ["", "1 1 3\n2 2 4\n"], ids=["empty", "self-loops-only"])
@pytest.mark.parametrize(
    "size", [["--bound", "vc"], ["--bound", "hoeffding"], ["--samples", "8"]],
    ids=["vc", "hoeffding", "samples"],
)
def test_fixed_on_a_graph_without_nodes_names_the_node_count(tmp_path, capsys, text, size):
    p = tmp_path / "g.txt"
    p.write_text(text)
    code = main(["fixed", str(p), "--algo", "ob", *size, "--threads", "1"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "sampling estimators need at least 2 nodes" in captured.err


@pytest.mark.parametrize("text", ["", "1 1 3\n2 2 4\n"], ids=["empty", "self-loops-only"])
@pytest.mark.parametrize("algo", ["prtb", "ob", "trk"])
def test_progressive_on_a_graph_without_nodes_names_the_node_count(tmp_path, capsys, text, algo):
    p = tmp_path / "g.txt"
    p.write_text(text)
    code = main(["progressive", str(p), "--algo", algo, *_serial(algo)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "sampling estimators need at least 2 nodes" in captured.err


@pytest.mark.parametrize("text", ["", "1 1 3\n2 2 4\n"], ids=["empty", "self-loops-only"])
def test_diameter_epsilon_on_a_graph_without_nodes_names_the_node_count(tmp_path, capsys, text):
    # the count derived from --epsilon needs a pair of nodes to sample from
    p = tmp_path / "g.txt"
    p.write_text(text)
    code = main(["diameter", str(p), "--epsilon", "0.5", "--threads", "1"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "sampling estimators need at least 2 nodes" in captured.err


def test_progressive_reports_threads_only_where_used(g1_path, capsys):
    # prtb is serial by design, so it refuses --threads; ob and trk fan
    # their checkpoint batches out
    argv = ["progressive", str(g1_path), "--algo", "prtb", "--max-samples", "5"]
    code = main(argv + ["--threads", "2"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "--threads applies only with --algo ob or trk" in captured.err
    code, report = run(capsys, *argv)
    assert code == 0
    assert "threads" not in report["parameters"]
    code, report = run(
        capsys, "progressive", g1_path, "--algo", "ob",
        "--epsilon", "0.25", "--delta", "0.1", "--threads", "2",
    )
    assert code == 0
    assert report["parameters"]["threads"] == 2


def test_progressive_trk_echoes_cap(g1_path, capsys):
    code, report = run(
        capsys, "progressive", g1_path, "--algo", "trk",
        "--epsilon", "0.2", "--delta", "0.1", "--threads", "1",
    )
    assert code == 0
    assert report["parameters"]["iteration_cap"] == hoeffding_size(0.2, 0.1, 4)


def test_diameter_census(g1_path, capsys):
    code, report = run(capsys, "diameter", g1_path, "--samples", "4", "--threads", "1")
    assert code == 0
    assert report["parameters"]["threads"] == 1
    summary = report["summary"]
    assert summary["diameter"] == 2
    assert summary["connectivity_rate"] == 0.5
    assert summary["avg_distance"] == pytest.approx(7 / 6)


def test_diameter_takes_no_path_optimality(g1_path, capsys):
    # hop distances are shortest-temporal by definition; --opt would be ignored
    with pytest.raises(SystemExit) as exc:
        main(["diameter", str(g1_path), "--samples", "4", "--opt", "pfm"])
    assert exc.value.code == 2
    assert "--opt" in capsys.readouterr().err


def test_diameter_takes_no_scores_path(g1_path, tmp_path, capsys):
    # the census writes no score vector, so --scores would be ignored
    with pytest.raises(SystemExit) as exc:
        main(["diameter", str(g1_path), "--samples", "4", "--scores", str(tmp_path / "x.csv")])
    assert exc.value.code == 2
    assert "--scores" in capsys.readouterr().err
    assert not (tmp_path / "x.csv").exists()


@pytest.mark.parametrize(
    "algo, flag, message",
    [
        ("ob", "--c", "--c applies only with --algo prtb"),
        ("trk", "--c", "--c applies only with --algo prtb"),
        ("prtb", "--epsilon", "--epsilon applies only with --algo ob or trk"),
        ("prtb", "--delta", "--delta applies only with --algo ob or trk"),
        ("prtb", "--alpha", "--alpha applies only with --algo ob or trk"),
    ],
)
def test_progressive_refuses_flags_its_algorithm_ignores(g1_path, capsys, algo, flag, message):
    argv = ["progressive", str(g1_path), "--algo", algo, "--max-samples", "40", *_serial(algo)]
    code = main(argv + [flag, "0.5"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert message in captured.err
    # without the flag, the run reports its own algorithm's defaults only
    code, report = run(capsys, *argv)
    assert code == 0
    if algo == "prtb":
        assert report["parameters"]["c"] == 2.0
        assert not {"epsilon", "delta", "alpha"} & report["parameters"].keys()
    else:
        assert [report["parameters"][k] for k in ("epsilon", "delta", "alpha")] == [0.1, 0.1, 1.5]
        assert "c" not in report["parameters"]


@pytest.mark.parametrize(
    "argv, message",
    [
        (["fixed", "--algo", "ob", "--samples", "3", "--bound", "vc"], "give either --samples or --bound"),
        (["fixed", "--algo", "ob", "--samples", "3", "--vd", "4"], "--vd applies only with --bound vc"),
        (["fixed", "--algo", "ob", "--samples", "0"], "--samples must be >= 1"),
        (["fixed", "--algo", "trk"], "one of --samples or --bound is required"),
        (["progressive", "--algo", "prtb", "--epsilon", "0.2"], "--epsilon applies only with --algo ob or trk"),
        (["progressive", "--algo", "ob", "--c", "3"], "--c applies only with --algo prtb"),
        (["progressive", "--algo", "prtb", "--threads", "2"], "--threads applies only with --algo ob or trk"),
        (["diameter"], "one of --samples or --epsilon is required"),
        (["exact", "--threads", "0"], "--threads must be at least 1"),
        (["diameter", "--samples", "0"], "sample size must be >= 1"),
        (["diameter", "--samples", "3", "--tau", "2"], "tau must be in (0, 1]"),
        (["diameter", "--epsilon", "-1"], "epsilon must be positive"),
        (["diameter", "--samples", "3", "--epsilon", "0.5"], "give either --samples or --epsilon, not both"),
        (["progressive", "--algo", "ob", "--max-samples", "0"], "iteration cap must be >= 1, got 0"),
        (["progressive", "--algo", "prtb", "--max-samples", "0"], "sample cap must be >= 1, got 0"),
        (["progressive", "--algo", "ob", "--epsilon", "2"], "epsilon must be in (0, 1)"),
        (["progressive", "--algo", "trk", "--delta", "1"], "delta must be in (0, 1)"),
        (["progressive", "--algo", "trk", "--alpha", "1"], "schedule constant alpha must be > 1"),
        (["progressive", "--algo", "prtb", "--c", "1"], "threshold constant c must be >= 2"),
        (["fixed", "--algo", "ob", "--bound", "vc", "--vd", "1"], "vertex diameter must be >= 2"),
        (["fixed", "--algo", "ob", "--bound", "hoeffding", "--epsilon", "0"], "epsilon must be in (0, 1)"),
        (["fixed", "--algo", "ob", "--bound", "vc", "--delta", "1.5"], "delta must be in (0, 1)"),
    ],
    ids=[
        "samples-and-bound", "vd-without-vc", "zero-samples", "no-sample-size",
        "prtb-epsilon", "ob-c", "prtb-threads", "diameter-no-size", "zero-threads",
        "diameter-zero-samples", "diameter-tau", "diameter-epsilon",
        "diameter-samples-and-epsilon", "ob-zero-cap",
        "prtb-zero-cap", "ob-epsilon", "trk-delta", "trk-alpha", "prtb-c", "vd-below-2",
        "hoeffding-epsilon", "vc-delta",
    ],
)
def test_flag_errors_come_before_the_graph_is_read(tmp_path, capsys, monkeypatch, argv, message):
    # a usage error needs no graph: it exits 2 on a missing file, which the
    # command never opens
    def no_read(*args, **kwargs):
        raise AssertionError("the graph was read before the flags were checked")

    monkeypatch.setattr(tempbc.cli, "read_edge_list", no_read)
    code = main([argv[0], str(tmp_path / "missing.txt"), *argv[1:]])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert message in captured.err


@pytest.mark.parametrize("flag", ["--scores", "--out"])
def test_a_missing_output_directory_fails_before_the_graph_is_read(tmp_path, capsys, monkeypatch, flag):
    def no_read(*args, **kwargs):
        raise AssertionError("the graph was read before the output paths were checked")

    monkeypatch.setattr(tempbc.cli, "read_edge_list", no_read)
    # a path in a missing directory, and a path that is a directory
    for path in (tmp_path / "missing" / "out.txt", tmp_path):
        code = main(["exact", str(tmp_path / "g1.txt"), flag, str(path)])
        captured = capsys.readouterr()
        assert code == 4
        assert captured.out == ""
        assert str(path) in captured.err


# {g} is the graph and {a}, {b} two score files; {link} is a hard link to
# the graph, the same file under another name
@pytest.mark.parametrize("argv, message", [
    (["exact", "{g}", "--scores", "{g}"], "--scores {g} would overwrite an input file"),
    (["exact", "{g}", "--out", "{g}"], "--out {g} would overwrite an input file"),
    (["fixed", "{g}", "--algo", "ob", "--samples", "2", "--scores", "{link}"],
     "--scores {link} would overwrite an input file"),
    (["exact", "{g}", "--scores", "{d}/s.csv", "--out", "{d}/./s.csv"], "--scores and --out both name"),
    (["compare", "{a}", "{b}", "--out", "{a}"], "--out {a} would overwrite an input file"),
    (["compare", "{a}", "{b}", "--out", "{b}"], "--out {b} would overwrite an input file"),
], ids=["scores-is-graph", "out-is-graph", "scores-is-graph-link", "scores-is-out", "out-is-first-scores",
        "out-is-second-scores"])
def test_an_output_that_names_an_input_or_the_other_output_fails_before_anything_is_read(
    tmp_path, capsys, monkeypatch, argv, message
):
    def no_read(*args, **kwargs):
        raise AssertionError("an input was read before the output paths were checked")

    monkeypatch.setattr(tempbc.cli, "read_edge_list", no_read)
    monkeypatch.setattr(ScoreVector, "read_csv", no_read)
    names = {"g": tmp_path / "g1.txt", "a": tmp_path / "a.csv", "b": tmp_path / "b.csv",
             "link": tmp_path / "link.txt", "d": tmp_path}
    names["g"].write_text(G1_TEXT)
    os.link(names["g"], names["link"])
    for name in ("a", "b"):
        names[name].write_text("node_id,score\n1,0.5\n")
    before = {path: path.read_bytes() for path in tmp_path.iterdir()}
    code = main([arg.format(**names) for arg in argv])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert message.format(**names) in captured.err
    assert {path: path.read_bytes() for path in tmp_path.iterdir()} == before


# every command's option strings; a new option, or one removed, changes this
# table
_FLAGS = {
    "exact": "--dedupe --force --opt --out --scores --threads --undirected",
    "fixed": "--algo --bound --dedupe --delta --epsilon --opt --out --samples --scores --seed "
             "--threads --undirected --vd",
    "progressive": "--algo --alpha --c --dedupe --delta --epsilon --max-samples --opt --out "
                   "--scores --seed --threads --undirected",
    "diameter": "--dedupe --epsilon --no-replace --out --samples --seed --tau --threads --undirected",
    "compare": "--k --out",
}


def test_each_command_takes_exactly_its_pinned_flags(tmp_path, capsys):
    parser = tempbc.cli.build_parser()
    [commands] = [action.choices for action in parser._actions if action.dest == "command"]
    flags = {
        name: " ".join(sorted(
            option for action in sub._actions for option in action.option_strings
            if option not in ("-h", "--help")
        ))
        for name, sub in commands.items()
    }
    assert flags == _FLAGS
    with pytest.raises(SystemExit) as usage_error:
        parser.parse_args(["exact", str(tmp_path / "g.txt"), "--work-limit", "5"])
    assert usage_error.value.code == 2
    assert "--work-limit" in capsys.readouterr().err


def test_fixed_samples_leave_epsilon_unchecked(g1_path, capsys):
    # an explicit sample size uses no bound, so its epsilon is only reported
    code, report = run(capsys, "fixed", g1_path, "--algo", "ob", "--samples", "2", "--epsilon", "5")
    assert code == 0
    assert report["parameters"]["epsilon"] == 5


def test_diameter_epsilon_may_exceed_one(g1_path, capsys):
    code, report = run(capsys, "diameter", g1_path, "--epsilon", "3", "--threads", "1")
    assert code == 0
    assert report["parameters"]["samples"] == 1


def test_diameter_validates_tau(g1_path, capsys):
    code, _ = run(capsys, "diameter", g1_path, "--samples", "2", "--tau", "0")
    assert code == 2


def test_compare_identity_and_round_trip(g1_path, tmp_path, capsys):
    scores = tmp_path / "s.csv"
    run(capsys, "exact", g1_path, "--scores", scores, "--threads", "1")
    code, report = run(capsys, "compare", scores, scores)
    assert code == 0
    assert report["evaluation"]["weighted_kendall"] == 1.0
    assert report["evaluation"]["sup_deviation"] == 0.0
    assert report["evaluation"]["k"] == 50  # default


@pytest.mark.parametrize("rows, message", [
    ("1,0.5\n2,nan\n", "line 3: score 'nan' is not finite"),
    ("1,0.5\n2,-inf\n", "line 3: score '-inf' is not finite"),
    ("1,0.5\n1,0.25\n", "line 3: node id 1 repeats"),
    ("1,0.5\n0\n", "line 3: no comma in '0'"),
], ids=["nan", "inf", "repeated-id", "no-comma"])
def test_compare_refuses_a_malformed_score_line(tmp_path, capsys, rows, message):
    good, bad = tmp_path / "good.csv", tmp_path / "bad.csv"
    good.write_text("node_id,score\n1,0.5\n2,0.25\n")
    bad.write_text("node_id,score\n" + rows)
    code = main(["compare", str(good), str(bad)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert f"{bad} {message}" in captured.err


def test_compare_k_below_one_fails_before_the_scores_are_read(tmp_path, capsys):
    missing = str(tmp_path / "missing.csv")
    code = main(["compare", missing, missing, "--k", "0"])
    captured = capsys.readouterr()
    assert code == 2
    assert "k must be >= 1" in captured.err


def test_undirected_flag_doubles_edges(tmp_path, capsys):
    p = tmp_path / "u.txt"
    p.write_text("0 1 3\n1 2 5\n")
    code, report = run(capsys, "exact", p, "--undirected", "--threads", "1")
    assert code == 0
    assert report["graph"]["edges"] == 4
    assert report["graph"]["directed"] is False


def test_missing_file_is_io_error(capsys, tmp_path):
    code, _ = run(capsys, "exact", tmp_path / "nope.txt")
    assert code == 4


def test_report_to_file(g1_path, tmp_path, capsys):
    out = tmp_path / "report.json"
    code, text = run(capsys, "exact", g1_path, "--out", out, "--threads", "1")
    assert code == 0
    assert json.loads(out.read_text())["graph"]["n"] == 4


def test_threads_do_not_change_scores(g1_path, tmp_path, capsys):
    csvs = []
    for i, threads in enumerate((1, 2)):
        p = tmp_path / f"s{i}.csv"
        run(capsys, "fixed", g1_path, "--algo", "ob", "--samples", "300",
            "--seed", "9", "--scores", p, "--threads", threads)
        csvs.append(p.read_bytes())
    assert csvs[0] == csvs[1]


REPORT_BASE = {"schema_version", "command", "algorithm", "graph", "parameters", "wall_seconds"}
STOP_KEYS = {"final_sample_size", "iterations", "xi", "epsilon", "stopped_by"}
SUMMARY_KEYS = {
    "diameter", "effective_diameter", "tau", "connectivity_rate",
    "avg_distance", "sample_size", "has_paths", "reach_profile",
}
EVALUATION_KEYS = {"sup_deviation", "mse", "weighted_kendall", "topk_intersection", "k"}


@pytest.mark.parametrize(
    "argv, top, params, section",
    [
        (["exact"], {"optimality", "scores"}, {"threads", "force", "work_estimate"}, None),
        (
            ["fixed", "--algo", "ob", "--samples", "8"], {"optimality", "scores"},
            {"epsilon", "delta", "samples", "seed", "threads"}, None,
        ),
        (
            ["fixed", "--algo", "ob", "--bound", "hoeffding"], {"optimality", "scores"},
            {"epsilon", "delta", "bound", "samples", "seed", "threads"}, None,
        ),
        (
            ["fixed", "--algo", "ob", "--bound", "vc"], {"optimality", "scores"},
            {"epsilon", "delta", "vd", "bound", "samples", "seed", "threads"}, None,
        ),
        (
            ["progressive", "--algo", "prtb", "--max-samples", "5"], {"optimality", "scores", "stop"},
            {"seed", "c", "max_samples"}, ("stop", STOP_KEYS),
        ),
        (
            ["progressive", "--algo", "ob", "--epsilon", "0.3"], {"optimality", "scores", "stop"},
            {"seed", "threads", "epsilon", "delta", "alpha"}, ("stop", STOP_KEYS),
        ),
        (
            ["progressive", "--algo", "trk", "--epsilon", "0.3"], {"optimality", "scores", "stop"},
            {"seed", "threads", "epsilon", "delta", "alpha", "iteration_cap"}, ("stop", STOP_KEYS),
        ),
        (["diameter", "--samples", "4"], {"summary"}, {"samples", "tau", "seed", "threads"}, ("summary", SUMMARY_KEYS)),
    ],
    ids=["exact", "fixed-samples", "fixed-hoeffding", "fixed-vc", "prtb", "ob", "trk", "diameter"],
)
def test_report_shape_is_pinned(g1_path, capsys, argv, top, params, section):
    code, report = run(capsys, argv[0], g1_path, *argv[1:], *_serial(*argv))
    assert code == 0
    assert set(report) == REPORT_BASE | top
    assert set(report["parameters"]) == params
    if section is not None:
        name, keys = section
        assert set(report[name]) == keys


def test_compare_report_shape_is_pinned(g1_path, tmp_path, capsys):
    scores = tmp_path / "s.csv"
    run(capsys, "exact", g1_path, "--scores", scores, "--threads", "1")
    code, report = run(capsys, "compare", scores, scores)
    assert code == 0
    assert set(report) == {"schema_version", "command", "algorithm", "parameters", "evaluation"}
    assert set(report["parameters"]) == {"k"}
    assert set(report["evaluation"]) == EVALUATION_KEYS


def test_the_reported_records_refuse_assignment_and_give_the_report_keys(g1_path):
    graph = read_edge_list(str(g1_path))
    _, stop = prtb_estimate(graph, PathOptimality.SHORTEST, 2.0, 0, max_samples=5)
    summary = estimate_distances(graph, 4, 0.9, 0, threads=1)
    vector = ScoreVector(None, [0.5, 0.25, 0.0])
    evaluation = compare(vector, vector, 2)
    path = SampledPath((0, 1), ((0, 0), (1, 1)))
    for record in (stop, summary, evaluation, path):
        with pytest.raises(AttributeError):
            setattr(record, record._fields[0], None)
        with pytest.raises(AttributeError):
            record.extra = None
    assert set(stop._asdict()) == STOP_KEYS
    assert set(summary._asdict()) == SUMMARY_KEYS
    assert set(evaluation._asdict()) == EVALUATION_KEYS


@pytest.mark.parametrize("reversed_file", ["exact", "approx"])
def test_compare_aligns_score_rows_by_node_id(g1_path, tmp_path, capsys, reversed_file):
    exact, approx = tmp_path / "exact.csv", tmp_path / "approx.csv"
    run(capsys, "exact", g1_path, "--scores", exact, "--threads", "1")
    run(capsys, "fixed", g1_path, "--algo", "ob", "--samples", "40", "--seed", "3",
        "--scores", approx, "--threads", "1")
    code, expected = run(capsys, "compare", exact, approx, "--k", "2")
    assert code == 0
    target = exact if reversed_file == "exact" else approx
    header, *rows = target.read_text().splitlines()
    swapped = tmp_path / "swapped.csv"
    swapped.write_text("\n".join([header, *reversed(rows)]) + "\n")
    operands = (swapped, approx) if reversed_file == "exact" else (exact, swapped)
    code, report = run(capsys, "compare", *operands, "--k", "2")
    assert code == 0
    assert report["evaluation"] == expected["evaluation"]


def test_compare_refuses_score_files_over_different_node_sets(tmp_path, capsys):
    full, short = tmp_path / "full.csv", tmp_path / "short.csv"
    full.write_text("node_id,score\n1,0.5\n2,0.25\n3,0.125\n")
    short.write_text("node_id,score\n3,0.125\n1,0.5\n")
    code = main(["compare", str(full), str(short)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "score files cover different node sets" in captured.err


def test_wall_seconds_leaves_out_the_vertex_diameter_estimate(g1_path, capsys, monkeypatch):
    estimate = tempbc.distances.estimate_distances

    def slow_estimate(*args, **kwargs):
        time.sleep(0.5)
        return estimate(*args, **kwargs)

    monkeypatch.setattr(tempbc.distances, "estimate_distances", slow_estimate)
    code, report = run(capsys, "fixed", g1_path, "--algo", "ob", "--bound", "vc", "--threads", "1")
    assert code == 0
    assert "vd" in report["parameters"]
    assert report["wall_seconds"] < 0.5


def _subprocess_env() -> dict:
    """This environment, with the checkout's ``src`` first on the path."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))


def test_python_m_tempbc_matches_main_in_process(tmp_path):
    graph_file = tmp_path / "graph.txt"
    write_edge_list(random_temporal_graph_large(7, n=40, m=240, max_time=20), graph_file)
    scores, report = tmp_path / "scores.csv", tmp_path / "report.json"
    argv = ["progressive", str(graph_file), "--algo", "ob", "--epsilon", "0.25", "--seed", "3",
            "--threads", "2", "--scores", str(scores), "--out", str(report)]

    def written():
        fields = json.loads(report.read_text())
        del fields["wall_seconds"]
        return fields, scores.read_bytes()

    proc = subprocess.run([sys.executable, "-m", "tempbc", *argv], env=_subprocess_env(),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    from_process = written()
    assert main(argv) == 0
    assert written() == from_process

    empty = tmp_path / "empty.txt"
    empty.write_text("")
    for args, code in (
        (["diameter", str(empty), "--epsilon", "0.5"], 2),
        (["exact", str(tmp_path / "missing.txt")], 4),
    ):
        proc = subprocess.run([sys.executable, "-m", "tempbc", *args], env=_subprocess_env(),
                              capture_output=True, text=True, timeout=120)
        assert (proc.returncode, proc.stdout) == (code, "")
        assert proc.stderr.startswith("error: ")


def test_only_the_process_entry_point_freezes_the_heap(g1_path, capsys, monkeypatch):
    frozen = gc.get_freeze_count()
    assert main(["exact", str(g1_path), "--threads", "1"]) == 0
    capsys.readouterr()
    assert gc.get_freeze_count() == frozen

    # run() freezes once, after the command's imports, just before its call
    calls = []
    exact_tbc = tempbc.cli.exact_tbc
    monkeypatch.setattr(gc, "freeze", lambda: calls.append("freeze"))
    monkeypatch.setattr(tempbc.cli, "exact_tbc", lambda *a, **k: calls.append("call") or exact_tbc(*a, **k))
    monkeypatch.setattr(sys, "argv", ["tempbc", "exact", str(g1_path), "--threads", "1"])
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")  # restored after the test
    assert tempbc.__main__.run() == 0
    assert calls == ["freeze", "call"]
    assert main(["exact", str(g1_path), "--threads", "1"]) == 0
    capsys.readouterr()
    assert calls == ["freeze", "call", "call"]


def test_default_threads_follows_cpu_affinity(monkeypatch):
    monkeypatch.setattr("os.sched_getaffinity", lambda pid: {0, 3}, raising=False)
    monkeypatch.setattr("os.cpu_count", lambda: 64)
    assert default_threads() == 2
    monkeypatch.delattr("os.sched_getaffinity", raising=False)
    assert default_threads() == 64
    monkeypatch.setattr("os.cpu_count", lambda: None)
    assert default_threads() == 1


# a run that fans slow chunks out to two workers and reports their pids
FANOUT_SCRIPT = """
import os
import sys
import time

from tempbc.parallel import run_chunks

PID_DIR = sys.argv[1]


def slow(lo, hi):
    open(os.path.join(PID_DIR, str(os.getpid())), "w").close()
    time.sleep(60)


if __name__ == "__main__":
    for _ in run_chunks(slow, 8, 2, chunk=1):
        pass
"""


def _running(pid: int) -> bool:
    """True while pid exists and is not a zombie."""
    try:
        with open(f"/proc/{pid}/stat", encoding="ascii") as fh:
            state = fh.read().rsplit(")", 1)[1].split()[0]
    except (FileNotFoundError, ProcessLookupError):
        return False
    return state != "Z"


def _wait_until(condition, seconds: float) -> bool:
    deadline = time.monotonic() + seconds
    while not condition():
        if time.monotonic() > deadline:
            return False
        time.sleep(0.05)
    return True


@pytest.mark.skipif(not os.path.isdir("/proc/self"), reason="needs /proc to read process states")
def test_pool_workers_exit_when_parent_is_killed(tmp_path):
    script = tmp_path / "fanout.py"
    script.write_text(FANOUT_SCRIPT)
    pid_dir = tmp_path / "pids"
    pid_dir.mkdir()
    parent = subprocess.Popen([sys.executable, str(script), str(pid_dir)], env=_subprocess_env())
    workers: set[int] = set()
    try:
        assert _wait_until(lambda: len(list(pid_dir.iterdir())) >= 2, 30), "workers did not start"
        workers = {int(p.name) for p in pid_dir.iterdir()}
        parent.terminate()
        parent.wait(timeout=10)
        assert _wait_until(lambda: not any(_running(pid) for pid in workers), 5), (
            f"workers still running 5 s after the parent was killed: "
            f"{[pid for pid in workers if _running(pid)]}"
        )
    finally:
        if parent.poll() is None:
            parent.kill()
            parent.wait()
        for pid in workers:
            if _running(pid):
                os.kill(pid, signal.SIGKILL)
