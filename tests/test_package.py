"""The lazy package namespace, the process entry point's environment, the
modules each CLI command imports, and the heap it freezes before its call."""

from __future__ import annotations

import gc
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from helpers import G1_TEXT

import tempbc
import tempbc.__main__
import tempbc.cli
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


@pytest.mark.parametrize("preset, seen", [(None, "1"), ("3", "3")])
def test_run_caps_openblas_threads_unless_set(monkeypatch, preset, seen):
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "unset")  # restored after the test
    if preset is None:
        monkeypatch.delenv("OPENBLAS_NUM_THREADS")
    else:
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", preset)
    values = []
    monkeypatch.setattr(gc, "freeze", lambda: None)
    monkeypatch.setattr(tempbc.cli, "main", lambda **_: values.append(os.environ["OPENBLAS_NUM_THREADS"]) or 0)
    assert tempbc.__main__.run() == 0
    assert values == [seen]


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
    """The modules that ``python -m tempbc`` imports on g1 for ``argv``, in
    its process and in the workers it forks, which log their own imports to
    the same stderr."""
    graph = tmp_path / "g1.txt"
    graph.write_text(G1_TEXT)
    command, *options = argv
    proc = _interpreter("-X", "importtime", "-m", "tempbc", command, str(graph), *options)
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
}


_COMMAND_MODULE = {"fixed": "tempbc.samplers", "progressive": "tempbc.progressive",
                   "diameter": "tempbc.distances"}


@pytest.mark.parametrize("name", _SAMPLING)
def test_sampling_commands_import_no_numpy_in_the_process_or_its_workers(tmp_path, name):
    argv = _SAMPLING[name]
    imported = _imports_of(tmp_path, argv)
    assert {"tempbc.rng", _COMMAND_MODULE[argv[0]]} <= set(imported)
    assert [m for m in imported if m.split(".")[0] == "numpy"] == []


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


def test_only_run_freezes_the_heap_and_no_replace_loads_numpy_before_its_call(tmp_path):
    argv = ["fixed", "--algo", "trk", "--samples", "20", "--seed", "1", "--threads", "1"]
    assert _at_the_call(tmp_path, "main", argv) == [0, [[False, True]]]
    argv = ["diameter", "--samples", "4", "--no-replace", "--threads", "1"]
    assert _at_the_call(tmp_path, "run", argv) == [0, [[True, False]]]


# a graph of 200 arithmetic rows on up to 31 nodes, and the outputs of the
# two commands that still load numpy, pinned from numpy's own Philox stream
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
