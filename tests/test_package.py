"""The lazy package namespace, the process entry point's environment, and the
modules each CLI command imports."""

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


def _python(code: str, *argv: str) -> str:
    """Run ``code`` in a fresh interpreter with the checkout's ``src`` first on
    the path and ``OPENBLAS_NUM_THREADS`` unset; return its standard output."""
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code, *argv], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


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
    assert out.split("\n") == ["['tempbc', 'tempbc.__main__']", "False", "64 True", ""]


@pytest.mark.parametrize("preset, seen", [(None, "1"), ("3", "3")])
def test_run_caps_openblas_threads_unless_set(monkeypatch, preset, seen):
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "unset")  # restored after the test
    if preset is None:
        monkeypatch.delenv("OPENBLAS_NUM_THREADS")
    else:
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", preset)
    values = []
    monkeypatch.setattr(gc, "freeze", lambda: None)
    monkeypatch.setattr(tempbc.cli, "main", lambda: values.append(os.environ["OPENBLAS_NUM_THREADS"]) or 0)
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
