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


# each command runs in a fresh interpreter, which reports the tempbc modules
# it loaded and whether the process pool's modules were among them
_LOADED = """
import contextlib, io, json, sys
from tempbc import cli
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main(sys.argv[1:])
print(json.dumps([code, sorted(m[7:] for m in sys.modules if m.startswith("tempbc.")),
                  "concurrent.futures.process" in sys.modules]))
"""


# serial runs all: prtb runs serially and takes no --threads
@pytest.mark.parametrize("argv, unused", [
    (["exact", "--threads", "1"], {"progressive", "distances"}),
    (["fixed", "--algo", "trk", "--samples", "20", "--seed", "1", "--threads", "1"],
     {"progressive", "distances"}),
    (["progressive", "--algo", "ob", "--epsilon", "0.3", "--threads", "1"], {"distances"}),
    (["progressive", "--algo", "prtb", "--max-samples", "40"], {"distances"}),
    (["diameter", "--samples", "4", "--threads", "1"], {"progressive"}),
])
def test_each_command_imports_only_what_it_uses(tmp_path, argv, unused):
    graph = tmp_path / "g1.txt"
    graph.write_text(G1_TEXT)
    command, *options = argv
    out = _python(_LOADED, command, str(graph), *options)
    code, modules, pool = json.loads(out)
    assert code == 0
    assert {"cli", "graph"} <= set(modules)
    assert not ({"bruteforce", "evaluation"} | unused) & set(modules)
    assert not pool


@pytest.mark.parametrize("opt", ["sh", "pfm"])
def test_exact_imports_no_numpy_in_the_process_or_its_workers(tmp_path, opt):
    # forked workers log their own imports to the same stderr
    graph = tmp_path / "g1.txt"
    graph.write_text(G1_TEXT)
    proc = _interpreter("-X", "importtime", "-m", "tempbc", "exact", str(graph),
                        "--opt", opt, "--threads", "2")
    imported = [line.rsplit("|", 1)[-1].strip()
                for line in proc.stderr.splitlines() if line.startswith("import time:")]
    assert "tempbc.exact" in imported
    assert [m for m in imported if m.split(".")[0] == "numpy"] == []


# run() on a command whose timed call first reports whether numpy has loaded
# and is frozen: vars(numpy) is then absent from the collector's generations
_AT_THE_CALL = """
import contextlib, gc, io, json, sys
from tempbc import __main__, cli

seen = []

def checked(derive):
    def wrapped(args, graph):
        params, call = derive(args, graph)
        def check_then_call():
            numpy = sys.modules.get("numpy")
            seen.append(numpy is not None and all(o is not vars(numpy) for o in gc.get_objects()))
            return call()
        return params, check_then_call
    return wrapped

for name, derive in list(cli._COMMANDS.items()):
    cli._COMMANDS[name] = checked(derive)
with contextlib.redirect_stdout(io.StringIO()):
    code = __main__.run()
print(json.dumps([code, seen]))
"""


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
def test_sampling_commands_load_and_freeze_numpy_before_the_timed_call(tmp_path, argv):
    graph = tmp_path / "g1.txt"
    graph.write_text(G1_TEXT)
    command, *options = argv
    assert json.loads(_python(_AT_THE_CALL, command, str(graph), *options)) == [0, [True]]


def test_score_vector_values_is_one_cached_float64_array():
    import numpy as np

    from tempbc.samplers import ScoreVector

    vector = ScoreVector(None, [0.5, 0.0, 1 / 3])
    values = vector.values
    assert values is vector.values
    assert values.dtype == np.float64
    assert values.tolist() == vector.scores
