"""Benchmark entry point.

Run from the root of a tempbc checkout:

    python3 perfbench/run.py --workload exact-bursty --seed 1 --seconds 30 --trace 0

With ``--trace 0`` it runs the workload's ``python -m tempbc`` commands back
to back (one client, closed loop) for about ``--seconds`` and reports the
end-to-end metrics, in reference seconds (``measure.py``); with ``--trace 1`` it runs the traced in-process layer
calls instead and reports the per-layer metrics. Every operation's output is
checked against a reference computed in-process through the public API. The
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it carries the
machine and code stamp. Full results and trace spans go to
``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from generators import write_rows
from measure import Launcher, load_graph_timed, run_sequence, summarize
from workloads import THREADS, WORKLOADS, run_inprocess

# set-up time is the median of repeated loads: at least this many, and for at
# least this long, so that small graphs get enough loads for a steady median
SETUP_LOADS = 5
SETUP_SECONDS = 0.5


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


# ---------------------------------------------------------------- stamp


def git_commit(root: Path) -> str | None:
    if not (root / ".git").exists():
        return None
    try:
        out = subprocess.run(
            ["git", "-C", str(root), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=30, check=True,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip()


def stamp(root: Path) -> dict:
    import numpy

    src = sorted((root / "src" / "tempbc").glob("*.py"))
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": git_commit(root),
        "src_loc": sum(p.read_bytes().count(b"\n") for p in src),
    }


# ---------------------------------------------------------------- end to end


def end_to_end(launcher, workload, graph_path, seed, seconds, work) -> dict:
    graph, load_times, load_speeds = load_graph_timed(graph_path, SETUP_LOADS, SETUP_SECONDS)
    refs = [run_inprocess(cmd, graph, seed, THREADS, rational=True) for cmd in workload.commands]
    del graph

    # closed loop; no sequence starts that would likely end after ``seconds``
    sequences, durations = [], []
    started = time.perf_counter()
    while not durations or time.perf_counter() - started + statistics.median(durations) <= seconds:
        sequence_started = time.perf_counter()
        sequences.append(run_sequence(launcher, workload, graph_path, seed, refs, work))
        durations.append(time.perf_counter() - sequence_started)
    ops = [op for seq in sequences for op in seq]
    failed = sum(1 for op in ops if op["problems"])
    # times in reference seconds: each scaled by the host speed around it
    seq_wall = [sum(op["wall_s"] * op["speed"] for op in seq) for seq in sequences]
    seq_cpu = [sum(op["cpu_s"] * op["speed"] for op in seq) for seq in sequences]
    seq_rate = [
        sum(op["items"] for op in seq)
        / sum((op["report_wall_s"] or math.inf) * op["speed"] for op in seq)
        for seq in sequences
    ]
    metrics = {
        "wall_s": (statistics.median(seq_wall), "s"),
        "items_per_s": (statistics.median(seq_rate), "1/s"),
        "cpu_s": (statistics.median(seq_cpu), "s"),
        "peak_rss_mb": (max(op["maxrss_kb"] for op in ops) / 1024.0, "MB"),
        "setup_s": (statistics.median(t * v for t, v in zip(load_times, load_speeds)), "s"),
    }
    return {
        "attempted": len(ops),
        "failed": failed,
        "metrics": metrics,
        "detail": {
            "sequences": len(sequences),
            "wall_s": summarize(seq_wall),
            "cpu_s": summarize(seq_cpu),
            "unscaled_wall_s": summarize([sum(op["wall_s"] for op in seq) for seq in sequences]),
            "unscaled_setup_s": summarize(load_times),
            "setup_speeds": load_speeds,
            "ops": ops,
        },
    }


# ---------------------------------------------------------------- main


def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "tempbc" / "__init__.py").is_file():
        print("error: run from the root of a tempbc checkout (src/tempbc not found)", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    workload = WORKLOADS[args.workload]

    out_dir = root / "perfbench" / "out"
    work = out_dir / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        graph_path = work / "graph.txt"
        write_rows(workload.rows(args.seed), graph_path)
        with Launcher(root) as launcher:
            if args.trace:
                from layers import traced_run

                result = traced_run(launcher, workload, graph_path, args.seed, work, out_dir)
            else:
                result = end_to_end(launcher, workload, graph_path, args.seed, args.seconds, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    result["stamp"] = stamp(root)
    result.update(workload=args.workload, seed=args.seed, seconds=args.seconds, trace=args.trace)
    name = f"result-{args.workload}-{args.seed}-trace{args.trace}.json"
    (out_dir / name).write_text(json.dumps(result, indent=1, default=str) + "\n", encoding="utf-8")

    failed = result["failed"]
    for op in result["detail"]["ops"]:
        for problem in op["problems"]:
            print(f"FAILED {op['command']}: {problem}", file=sys.stderr)
    print(json.dumps({"stamp": result["stamp"], "fail_rate": failed / result["attempted"]}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": result["attempted"],
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in result["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
