"""Each demo's stdout is pinned by its SHA-256, so a refactor that changes
what a demo prints (a score, a sample size, a stop reason) fails here.

The digests were taken from the demos as they print today; a change that
means to alter a demo's output updates its digest in the same commit.
"""

from __future__ import annotations

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

DEMO_STDOUT_SHA256 = {
    "01_graphs_and_exact_scores.py": "e9f613bd83c677014d2d1111bb2f0d82f5accdaeb64e7df15f343cf68c70c1cc",
    "02_fixed_sample_estimators.py": "8be640b95dc0ad2ec1f1b7f98f06bd4bf1629e122d85c7242e55f7f83a31d164",
    "03_progressive_sampling.py": "e64d74715e179ae25424ad0da87771962462ad476d0c2d084ffee549d2dca7e7",
    "04_distance_summary.py": "ddae96f6b8668ff963900119aafa32d09ee082f1e30ca0a50433543a5cc64dd2",
    "05_rank_quality.py": "32b876ed6686cd49ade7a3f0782cee613dcdd285176b0e59331644c74fdf0b7d",
}


def test_every_demo_is_pinned():
    assert sorted(p.name for p in (ROOT / "demos").glob("*.py")) == sorted(DEMO_STDOUT_SHA256)


@pytest.mark.parametrize("name", sorted(DEMO_STDOUT_SHA256))
def test_demo_output_is_pinned(name):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, str(ROOT / "demos" / name)],
        capture_output=True, env=env, cwd=ROOT, timeout=300, check=True,
    )
    assert hashlib.sha256(done.stdout).hexdigest() == DEMO_STDOUT_SHA256[name]
