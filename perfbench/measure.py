"""Measurement helpers shared by the end-to-end and the traced run: CLI
subprocesses with their process-tree cost, host-speed calibration, timing
summaries, timed loads."""

from __future__ import annotations

import contextlib
import functools
import itertools
import json
import math
import os
import random
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from workloads import THREADS, Outcome, check_report

# Other tenants of a shared host slow each of its CPUs by up to 1.7x, in
# spells of seconds to minutes. So a calibration loop is timed around and
# during every timed operation, and the end-to-end times are scaled to the
# reference speed, at which one loop takes REFERENCE_LOOP_S of CPU time. The
# constant only sets the unit: on the 2-CPU Xeon box the benchmark was sized
# on, one loop took 0.84-1.67 ms. See README.md, "Host speed".
REFERENCE_LOOP_S = 1.0e-3
CALIBRATION_LINES = 200_000
LOOP_LINES = 500
BRACKET_LOOPS = 9
SAMPLE_INTERVAL_S = 0.1
_loops_run = itertools.count()


# ---------------------------------------------------------------- host speed


@functools.cache
def _calibration_lines() -> tuple[list[str], list[int]]:
    """Edge-list lines, more than the caches hold, and an order to read them in."""
    rng = random.Random(0)
    lines = [
        f"{rng.randrange(100_000)} {rng.randrange(100_000)} {rng.randrange(1, 500)}"
        for _ in range(CALIBRATION_LINES)
    ]
    order = list(range(CALIBRATION_LINES))
    rng.shuffle(order)
    return lines, order


def _timed_loop() -> float:
    """CPU time of one calibration loop: parse lines, read in random order,
    into a list and a dict, the kind of work the program does."""
    lines, order = _calibration_lines()
    at = next(_loops_run) * LOOP_LINES % (CALIBRATION_LINES - LOOP_LINES)
    started = time.thread_time()
    rows, degree = [], {}
    for i in order[at:at + LOOP_LINES]:
        u, v, t = map(int, lines[i].split())
        rows.append((u, v, t))
        degree[u] = degree.get(u, 0) + 1
    return time.thread_time() - started


def loop_seconds() -> float:
    """The calibration loop's time now: the median of a few loops."""
    return statistics.median(_timed_loop() for _ in range(BRACKET_LOOPS))


def speed(loop_times: list[float]) -> float:
    """Host speed relative to the reference while ``loop_times`` were taken;
    multiply a time by it to get reference seconds."""
    return REFERENCE_LOOP_S / statistics.median(loop_times)


def _busy_ticks() -> dict[int, int]:
    """Clock ticks each CPU has spent busy, from ``/proc/stat``."""
    busy = {}
    with open("/proc/stat", encoding="ascii") as fh:
        for line in fh:
            name, *fields = line.split()
            if name.startswith("cpu") and name != "cpu":
                user, nice, system, _idle, _iowait, irq, softirq = map(int, fields[:7])
                busy[int(name[3:])] = user + nice + system + irq + softirq
    return busy


@contextlib.contextmanager
def sampling_speed():
    """Measure the host speed while the body runs; on exit, the yielded dict
    holds it as ``"speed"``.

    A background thread times a calibration loop every ``SAMPLE_INTERVAL_S``,
    moving to the next CPU each time. The CPUs can be slowed apart, so the
    result is each CPU's speed weighted by the ticks it was busy: a serial
    command counts the CPU it ran on, not the idle one. The body must wait
    outside the GIL.
    """
    result: dict = {}
    cpus = sorted(os.sched_getaffinity(0))
    loops: dict[int, list[float]] = {cpu: [] for cpu in cpus}
    done = threading.Event()

    def sample() -> None:
        for cpu in itertools.cycle(cpus):
            os.sched_setaffinity(0, {cpu})  # pins this thread only
            loops[cpu].append(_timed_loop())
            if done.wait(SAMPLE_INTERVAL_S):
                return

    busy_before = _busy_ticks()
    thread = threading.Thread(target=sample, daemon=True)
    thread.start()
    try:
        yield result
    finally:
        done.set()
        thread.join()
    busy_after = _busy_ticks()
    weights = {cpu: max(busy_after[cpu] - busy_before[cpu], 1) for cpu in cpus if loops[cpu]}
    result["speed"] = sum(w * speed(loops[cpu]) for cpu, w in weights.items()) / sum(weights.values())


# ---------------------------------------------------------------- CLI runs


class Launcher:
    """The ``launch.py`` process that runs the CLI commands (see there why);
    a context manager that stops it on exit."""

    def __init__(self, root: Path):
        self.root = root
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"), self.env.get("PYTHONPATH")]))
        self.proc = None

    def __enter__(self) -> "Launcher":
        self.proc = subprocess.Popen(
            [sys.executable, str(Path(__file__).with_name("launch.py"))],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )
        return self

    def __exit__(self, *exc) -> None:
        self.proc.stdin.close()
        self.proc.wait()

    def run(self, argv: list[str], stderr: Path) -> dict:
        request = {"argv": argv, "cwd": str(self.root), "env": self.env, "stderr": str(stderr)}
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        return json.loads(self.proc.stdout.readline())


def run_cli(launcher: Launcher, argv: list[str], work: Path) -> dict:
    """Run one CLI command to completion and collect its cost and report.

    ``wait4`` returns the command's rusage including every pool worker it
    reaped, so ``cpu_s`` and ``maxrss_kb`` cover the whole process tree.
    ``speed`` is the host speed sampled while the command ran.
    """
    report_path = work / "report.json"
    report_path.unlink(missing_ok=True)
    stderr_path = work / "stderr.txt"
    with sampling_speed() as host:
        op = launcher.run([sys.executable, "-m", "tempbc", *argv, "--out", str(report_path)], stderr_path)
    op["speed"] = host["speed"]
    op["stderr"] = stderr_path.read_text(encoding="utf-8")[-2000:]
    op["report"] = None
    if report_path.is_file():
        try:
            op["report"] = json.loads(report_path.read_text(encoding="utf-8"))
        except ValueError:
            pass
    return op


def run_sequence(launcher, workload, graph_path, seed, refs: list[Outcome], work) -> list[dict]:
    """Every command of the workload once, each checked against its reference."""
    ops = []
    for cmd, ref in zip(workload.commands, refs):
        op = run_cli(launcher, cmd.argv(str(graph_path), seed, THREADS), work)
        report = op.pop("report")
        if op["exit"] != 0:
            problems = [f"exit code {op['exit']}"]
        elif report is None:
            problems = ["no readable report"]
        else:
            problems = check_report(report, ref)
        op.update(command=cmd.name, problems=problems)
        wall_seconds = report.get("wall_seconds") if report else None
        op["report_wall_s"] = wall_seconds if isinstance(wall_seconds, (int, float)) else None
        op["items"] = 0 if problems else ref.items
        ops.append(op)
    return ops


# ---------------------------------------------------------------- statistics


def tail_percentile(count: int) -> float | None:
    """Highest listed percentile with at least ten samples beyond it."""
    for pct in (99.9, 99.0, 95.0, 90.0, 80.0, 75.0, 50.0):
        if count * (1.0 - pct / 100.0) >= 10.0:
            return pct
    return None


def summarize(samples: list[float]) -> dict:
    """Median and tail of a timing; with too few samples for a tail the
    maximum stands in, and ``tail_pct`` is null."""
    xs = sorted(samples)
    pct = tail_percentile(len(xs))
    tail = xs[math.ceil(len(xs) * pct / 100.0) - 1] if pct is not None else xs[-1]
    return {"p50": statistics.median(xs), "tail": tail, "tail_pct": pct, "n": len(xs)}


def load_graph_timed(graph_path, loads: int, min_seconds: float):
    """Load the graph ``loads`` times, or more until ``min_seconds`` of
    loading passed. Returns the graph, each load's time and its ``speed``."""
    from tempbc import read_edge_list

    times, speeds = [], []
    loop_before = loop_seconds()
    while len(times) < loads or sum(times) < min_seconds:
        started = time.perf_counter()
        graph = read_edge_list(graph_path)
        times.append(time.perf_counter() - started)
        loop_after = loop_seconds()
        speeds.append(speed([loop_before, loop_after]))
        loop_before = loop_after
    return graph, times, speeds
