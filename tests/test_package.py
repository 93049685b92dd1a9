"""The lazy package namespace, the process entry point's environment, the
modules each CLI command imports, and the heap it freezes before its call."""

from __future__ import annotations

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from helpers import G1_TEXT

import tempbc
from tempbc.cli import main

SRC = str(Path(__file__).resolve().parents[1] / "src")


def _interpreter(*args: str) -> subprocess.CompletedProcess:
    """Run a fresh interpreter on ``args`` with the checkout's ``src`` first on
    the path and ``OPENBLAS_NUM_THREADS`` unset; check that it exits 0."""
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc


def _python(code: str, *argv: str) -> str:
    """Run ``code`` in a fresh interpreter (see ``_interpreter``); return its
    standard output."""
    return _interpreter("-c", code, *argv).stdout


def test_every_public_name_resolves_to_its_home_object():
    for name in tempbc.__all__:
        home = importlib.import_module(f"tempbc.{tempbc._HOME[name]}")
        assert getattr(tempbc, name) is getattr(home, name), name
    assert set(tempbc.__all__) <= set(dir(tempbc))
    star: dict = {}
    exec("from tempbc import *", star)
    assert set(star) - {"__builtins__"} == set(tempbc.__all__)
    with pytest.raises(AttributeError):
        tempbc.no_such_name


def test_import_tempbc_loads_no_numpy_and_leaves_the_environment_alone():
    out = _python(
        "import os, sys, tempbc, tempbc.__main__\n"
        "print(sorted(m for m in sys.modules if m == 'numpy' or m.startswith('tempbc')))\n"
        "print('OPENBLAS_NUM_THREADS' in os.environ)\n"
        "print(tempbc.tbfs.GROUP_WIDTH, 'numpy' in sys.modules)\n"
    )
    assert out.split("\n") == ["['tempbc', 'tempbc.__main__']", "False", "64 False", ""]


def test_main_in_process_leaves_the_environment_alone(tmp_path, capsys, monkeypatch):
    monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
    graph = tmp_path / "g1.txt"
    graph.write_text(G1_TEXT)
    before = dict(os.environ)
    assert main(["exact", str(graph), "--threads", "1"]) == 0
    capsys.readouterr()
    assert dict(os.environ) == before


# each command runs in a fresh interpreter on two CPUs, which reports the
# tempbc modules it loaded, whether it forked a worker, and whether any of
# the standard library's process-pool modules loaded
_LOADED = """
import contextlib, io, json, os, sys
os.sched_getaffinity = lambda pid: {0, 1}
from tempbc import cli, parallel
forked = []
start = parallel.Fanout._start
parallel.Fanout._start = lambda fan, count: forked.append(count) or start(fan, count)
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main(sys.argv[1:])
print(json.dumps([code, sorted(m[7:] for m in sys.modules if m.startswith("tempbc.")), bool(forked),
                  [m for m in sys.modules if m.split(".")[0] in ("concurrent", "multiprocessing")]]))
"""


# prtb runs serially and takes no --threads
@pytest.mark.parametrize("argv, unused", [
    (["exact", "--threads", "1"], {"progressive", "distances"}),
    (["fixed", "--algo", "trk", "--samples", "20", "--seed", "1", "--threads", "1"],
     {"progressive", "distances"}),
    (["progressive", "--algo", "ob", "--epsilon", "0.3", "--threads", "1"], {"distances"}),
    (["progressive", "--algo", "prtb", "--max-samples", "40"], {"distances"}),
    (["diameter", "--samples", "4", "--threads", "1"], {"progressive"}),
    (["exact", "--threads", "2"], {"progressive", "distances"}),
    (["fixed", "--algo", "ob", "--bound", "vc", "--epsilon", "0.3", "--threads", "2"], {"progressive"}),
    (["progressive", "--algo", "ob", "--epsilon", "0.3", "--threads", "2"], {"distances"}),
    (["diameter", "--samples", "4", "--threads", "2"], {"progressive"}),
])
def test_each_command_imports_only_what_it_uses(tmp_path, argv, unused):
    graph = tmp_path / "g1.txt"
    graph.write_text(G1_TEXT)
    command, *options = argv
    out = _python(_LOADED, command, str(graph), *options)
    code, modules, forked, pool_modules = json.loads(out)
    assert code == 0
    assert {"cli", "graph"} <= set(modules)
    assert not ({"bruteforce", "evaluation"} | unused) & set(modules)
    assert forked == ("2" in options)
    assert pool_modules == []


def _imports_of(tmp_path, argv) -> list[str]:
    """The modules that ``python -m tempbc`` imports on g1 for ``argv`` (or,
    for ``compare``, on a score CSV of g1 compared with itself), in its
    process and in the workers it forks, which log their own imports to the
    same stderr."""
    graph = tmp_path / "g1.txt"
    graph.write_text(G1_TEXT)
    scores = tmp_path / "g1.csv"
    scores.write_text("node_id,score\n1,0\n2,0.041666666666666664\n3,0.041666666666666664\n4,0\n")
    command, *options = argv
    operands = [str(scores)] * 2 if command == "compare" else [str(graph)]
    proc = _interpreter("-X", "importtime", "-m", "tempbc", command, *operands, *options)
    return [line.rsplit("|", 1)[-1].strip()
            for line in proc.stderr.splitlines() if line.startswith("import time:")]


@pytest.mark.parametrize("opt", ["sh", "pfm"])
def test_exact_imports_no_numpy_in_the_process_or_its_workers(tmp_path, opt):
    imported = _imports_of(tmp_path, ["exact", "--opt", opt, "--threads", "2"])
    assert "tempbc.exact" in imported
    assert [m for m in imported if m.split(".")[0] == "numpy"] == []


# prtb runs serially and takes no --threads; 20 samples at two workers are
# two chunks of pair work
_SAMPLING = {
    "fixed-ob-sh": ["fixed", "--algo", "ob", "--opt", "sh", "--samples", "20", "--threads", "2"],
    "fixed-ob-sfm": ["fixed", "--algo", "ob", "--opt", "sfm", "--samples", "20", "--threads", "2"],
    "fixed-trk-sh": ["fixed", "--algo", "trk", "--opt", "sh", "--samples", "20", "--threads", "2"],
    "fixed-trk-sfm": ["fixed", "--algo", "trk", "--opt", "sfm", "--samples", "20", "--threads", "2"],
    "fixed-ob-vc": ["fixed", "--algo", "ob", "--bound", "vc", "--epsilon", "0.3", "--threads", "2"],
    "fixed-ob-hoeffding": ["fixed", "--algo", "ob", "--bound", "hoeffding", "--epsilon", "0.3",
                           "--threads", "2"],
    "progressive-ob": ["progressive", "--algo", "ob", "--epsilon", "0.3", "--threads", "2"],
    "progressive-trk": ["progressive", "--algo", "trk", "--epsilon", "0.3", "--threads", "2"],
    "progressive-prtb": ["progressive", "--algo", "prtb", "--max-samples", "40"],
    "diameter": ["diameter", "--samples", "4", "--threads", "2"],
    "diameter-no-replace": ["diameter", "--samples", "2", "--no-replace", "--threads", "2"],
    "compare": ["compare", "--k", "2"],
}


_COMMAND_MODULE = {"fixed": "tempbc.samplers", "progressive": "tempbc.progressive",
                   "diameter": "tempbc.distances", "compare": "tempbc.evaluation"}


@pytest.mark.parametrize("name", _SAMPLING)
def test_sampling_commands_import_no_numpy_in_the_process_or_its_workers(tmp_path, name):
    argv = _SAMPLING[name]
    imported = _imports_of(tmp_path, argv)
    assert {"tempbc.rng", _COMMAND_MODULE[argv[0]]} <= set(imported)
    assert [m for m in imported if m.split(".")[0] == "numpy"] == []


# dataclasses would load inspect (and with it ast, dis and tokenize), which
# nothing else the package runs loads
@pytest.mark.parametrize("argv", [
    ["exact", "--threads", "2"],
    _SAMPLING["fixed-ob-vc"],
    _SAMPLING["fixed-trk-sh"],
    _SAMPLING["progressive-ob"],
    _SAMPLING["progressive-prtb"],
    _SAMPLING["diameter"],
    _SAMPLING["compare"],
], ids=["exact", "fixed-ob-vc", "fixed-trk", "progressive-ob", "progressive-prtb", "diameter",
        "compare"])
def test_no_command_imports_dataclasses_or_inspect(tmp_path, argv):
    imported = _imports_of(tmp_path, argv)
    assert not {"dataclasses", "inspect"} & set(imported)


# a command whose timed call first reports whether numpy has loaded and
# whether the collector still tracks the loaded graph: after gc.freeze() it
# is absent from the collector's generations. The first argument picks the
# entry point: run() freezes the heap, cli.main() called directly does not.
_AT_THE_CALL = """
import contextlib, gc, io, json, sys
from tempbc import __main__, cli

seen = []

def checked(derive):
    def wrapped(args, graph):
        params, call = derive(args, graph)
        def check_then_call():
            seen.append(["numpy" in sys.modules, any(o is graph for o in gc.get_objects())])
            return call()
        return params, check_then_call
    return wrapped

for name, derive in list(cli._COMMANDS.items()):
    cli._COMMANDS[name] = checked(derive)
entry = sys.argv.pop(1)
with contextlib.redirect_stdout(io.StringIO()):
    code = __main__.run() if entry == "run" else cli.main(sys.argv[1:])
print(json.dumps([code, seen]))
"""


def _at_the_call(tmp_path, entry, argv):
    graph = tmp_path / "g1.txt"
    graph.write_text(G1_TEXT)
    command, *options = argv
    return json.loads(_python(_AT_THE_CALL, entry, command, str(graph), *options))


@pytest.mark.parametrize("argv", [
    ["fixed", "--algo", "trk", "--samples", "20", "--seed", "1", "--threads", "1"],
    ["fixed", "--algo", "ob", "--bound", "vc", "--epsilon", "0.3", "--threads", "1"],
    ["fixed", "--algo", "ob", "--bound", "hoeffding", "--epsilon", "0.3", "--threads", "1"],
    ["progressive", "--algo", "ob", "--epsilon", "0.3", "--threads", "1"],
    ["progressive", "--algo", "trk", "--epsilon", "0.3", "--threads", "1"],
    ["progressive", "--algo", "prtb", "--max-samples", "40"],
    ["diameter", "--samples", "4", "--threads", "1"],
], ids=["fixed-trk", "fixed-ob-vc", "fixed-ob-hoeffding", "progressive-ob", "progressive-trk",
        "progressive-prtb", "diameter"])
def test_sampling_commands_freeze_the_heap_before_the_timed_call(tmp_path, argv):
    assert _at_the_call(tmp_path, "run", argv) == [0, [[False, False]]]


def test_only_run_freezes_the_heap_and_no_replace_loads_no_numpy(tmp_path):
    argv = ["fixed", "--algo", "trk", "--samples", "20", "--seed", "1", "--threads", "1"]
    assert _at_the_call(tmp_path, "main", argv) == [0, [[False, True]]]
    argv = ["diameter", "--samples", "4", "--no-replace", "--threads", "1"]
    assert _at_the_call(tmp_path, "run", argv) == [0, [[False, False]]]


# a graph of 200 arithmetic rows on up to 31 nodes, and the outputs of
# diameter --no-replace and compare, pinned when the first drew its sources
# with numpy's Generator.choice and the second computed on numpy arrays
_ARITH_TEXT = "".join(f"{(7 * i) % 31} {(11 * i + 3) % 29} {i % 17 + 1}\n" for i in range(200))
_NO_REPLACE_SUMMARY = {
    "avg_distance": 2.3071161048689137, "connectivity_rate": 0.89, "diameter": 7,
    "effective_diameter": 4, "has_paths": True, "sample_size": 10, "tau": 0.9,
    "reach_profile": [0.0, 189.1, 520.8000000000001, 740.9, 793.6, 815.3000000000001, 824.6, 827.7],
}
_COMPARE_EVALUATION = {
    "k": 5, "mse": 0.0005112107225140723, "sup_deviation": 0.06072196620583717,
    "topk_intersection": 2, "weighted_kendall": 0.27627346513213497,
}


def test_no_replace_and_compare_match_pinned_output(tmp_path):
    graph = tmp_path / "arith.txt"
    graph.write_text(_ARITH_TEXT)
    exact, ob = tmp_path / "exact.csv", tmp_path / "ob.csv"

    def report(*argv):
        return json.loads(_interpreter("-m", "tempbc", *argv).stdout)

    summary = report("diameter", str(graph), "--samples", "10", "--no-replace", "--seed", "3",
                     "--threads", "2")["summary"]
    assert summary == _NO_REPLACE_SUMMARY
    report("exact", str(graph), "--scores", str(exact), "--threads", "1")
    report("fixed", str(graph), "--algo", "ob", "--samples", "50", "--seed", "2", "--scores", str(ob),
           "--threads", "1")
    assert report("compare", str(exact), str(ob), "--k", "5")["evaluation"] == _COMPARE_EVALUATION


def test_score_vector_values_is_one_cached_float64_array():
    import numpy as np

    from tempbc.samplers import ScoreVector

    vector = ScoreVector(None, [0.5, 0.0, 1 / 3])
    values = vector.values
    assert values is vector.values
    assert values.dtype == np.float64
    assert values.tolist() == vector.scores


# runs each argv of a JSON list through the process entry point, in one
# interpreter where, when asked, no import of numpy can succeed
_ENTRY_POINT_RUNS = """
import json, sys
if sys.argv[1] == "blocked":
    sys.modules["numpy"] = None  # an import of numpy now raises ImportError
from tempbc import __main__
codes = []
for argv in json.loads(sys.argv[2]):
    sys.argv = ["tempbc", *argv]
    codes.append(__main__.run())
print(json.dumps(codes))
"""


def test_every_command_runs_alike_with_numpy_blocked(tmp_path):
    graph = tmp_path / "arith.txt"
    graph.write_text(_ARITH_TEXT)
    outputs = {}
    for mode in ("blocked", "importable"):
        out = tmp_path / mode
        out.mkdir()
        g, two = str(graph), ["--threads", "2"]
        commands = [
            ["exact", g, *two, "--scores", f"{out}/exact.csv"],
            ["fixed", g, "--algo", "ob", "--bound", "vc", "--epsilon", "0.3", *two, "--scores", f"{out}/ob.csv"],
            ["fixed", g, "--algo", "trk", "--samples", "40", "--seed", "1", *two, "--scores", f"{out}/trk.csv"],
            ["progressive", g, "--algo", "ob", "--epsilon", "0.3", *two, "--scores", f"{out}/pob.csv"],
            ["progressive", g, "--algo", "trk", "--epsilon", "0.3", *two, "--scores", f"{out}/ptrk.csv"],
            ["progressive", g, "--algo", "prtb", "--max-samples", "40", "--scores", f"{out}/prtb.csv"],
            ["diameter", g, "--samples", "10", *two],
            ["diameter", g, "--samples", "10", "--no-replace", "--seed", "3", *two],
            ["compare", f"{out}/exact.csv", f"{out}/ob.csv", "--k", "5"],
        ]
        commands = [[*argv, "--out", f"{out}/report{i}.json"] for i, argv in enumerate(commands)]
        assert json.loads(_python(_ENTRY_POINT_RUNS, mode, json.dumps(commands))) == [0] * len(commands)
        outputs[mode] = {path.name: path.read_bytes() for path in out.glob("*.csv")}
        for path in out.glob("*.json"):
            report = json.loads(path.read_text())
            for run_specific in ("wall_seconds", "command", "scores_path"):
                report.pop(run_specific, None)
            outputs[mode][path.name] = report
    assert len(outputs["blocked"]) == 15
    assert outputs["blocked"] == outputs["importable"]
