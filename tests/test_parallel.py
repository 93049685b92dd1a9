"""The chunked fan-out: chunk sizes for source and pair work, the worker cap,
one worker set per run, workers that inherit the worker and are never sent
it, chunks that go to whichever worker is free, failures that reach the
caller and leave no worker behind, and outputs that do not depend on where
the chunks are cut."""

from __future__ import annotations

import contextlib
import json
import os
import pickle
import signal
import time

import pytest

from helpers import random_temporal_graph_large

from tempbc import Algorithm, PathOptimality, estimate_distances, progressive_estimate, write_edge_list
from tempbc import parallel, tbfs
from tempbc.cli import main as cli_main
from tempbc.samplers import summed_contributions

SH = PathOptimality.SHORTEST

# (source chunks per worker, pair chunk width): every item in one chunk (pairs
# up to one full 128-wide sweep group), seven or eight chunks, one item per
# chunk; the pair width also sets the width of the shared sweep groups
CHUNKINGS = ((1, 128), (7, 7), (10**9, 1))


@pytest.fixture(scope="module")
def graph():
    """Criterion 10's graph."""
    return random_temporal_graph_large(77, n=60, m=240, max_time=30)


@pytest.fixture
def pools(monkeypatch):
    """Two CPUs in the affinity set, and a record of every worker set a
    ``Fanout`` forks: its worker count and the ranges of each fanned-out
    ``map`` call."""
    monkeypatch.setattr("os.sched_getaffinity", lambda pid: {0, 1}, raising=False)
    record: list[dict] = []
    start, fan = parallel.Fanout._start, parallel.Fanout._fan

    def recording_start(self, count):
        self.record = {"workers": count, "maps": []}
        record.append(self.record)
        start(self, count)

    def recording_fan(self, ranges):
        self.record["maps"].append(ranges)
        return fan(self, ranges)

    monkeypatch.setattr(parallel.Fanout, "_start", recording_start)
    monkeypatch.setattr(parallel.Fanout, "_fan", recording_fan)
    return record


class CountingWorker:
    """Returns the indices of its range; counts its pickles in this process."""

    pickles = 0

    def __call__(self, lo, hi):
        return list(range(lo, hi))

    def __reduce__(self):
        CountingWorker.pickles += 1
        return (CountingWorker, ())


def test_chunks_are_sized_from_the_run():
    # ceil(items / (4 * workers)) items per chunk
    assert parallel.chunk_ranges(245, workers=2) == [(lo, min(lo + 31, 245)) for lo in range(0, 245, 31)]
    assert [hi - lo for lo, hi in parallel.chunk_ranges(266, workers=2)] == [34] * 7 + [28]
    assert parallel.chunk_ranges(10, workers=1) == [(0, 3), (3, 6), (6, 9), (9, 10)]
    assert parallel.chunk_ranges(3, workers=8) == [(0, 1), (1, 2), (2, 3)]
    assert parallel.chunk_ranges(5, 2, start=350) == [(350, 352), (352, 354), (354, 355)]
    assert parallel.chunk_ranges(0, workers=2) == []


def _widths(total, workers):
    return [hi - lo for lo, hi in parallel.chunk_ranges(total, tbfs.GROUP_WIDTH, workers)]


def test_pair_chunks_hold_whole_sweep_groups():
    # the fewest chunks no wider than a sweep group whose count is a
    # multiple of the workers; near-equal widths, the wider first. Each
    # progressive-uniform checkpoint batch (184/92/138/207) is one group per
    # worker; the fixed ob and trk runs of pairs-bursty (266, 512) two
    assert tbfs.GROUP_WIDTH == 128
    assert _widths(184, 2) == [92] * 2
    assert _widths(92, 2) == [46] * 2
    assert _widths(138, 2) == [69] * 2
    assert _widths(207, 2) == [104, 103]
    assert _widths(266, 2) == [67, 67, 66, 66]
    assert _widths(512, 2) == [128] * 4
    assert _widths(40, 1) == [40]
    # fewer items than workers: one item per chunk
    assert _widths(3, 8) == [1, 1, 1]
    assert _widths(1, 2) == [1]
    assert _widths(0, 2) == []
    assert parallel.chunk_ranges(92, 128, 2, start=350) == [(350, 396), (396, 442)]


def test_workers_never_exceed_the_affinity_set(pools, tmp_path):
    # 1000 threads on 2 CPUs start 2 workers and cut the 40 sources into
    # 8 chunks of 5, not 40 one-source chunks; the report keeps the 1000
    graph_file = tmp_path / "graph.txt"
    write_edge_list(random_temporal_graph_large(5, n=40, m=240, max_time=20), graph_file)
    scores = {}
    for threads in (1, 1000):
        out = tmp_path / f"scores-{threads}.csv"
        report_path = tmp_path / f"report-{threads}.json"
        argv = ["exact", str(graph_file), "--threads", str(threads), "--scores", str(out)]
        assert cli_main(argv + ["--out", str(report_path)]) == 0
        assert json.loads(report_path.read_text())["parameters"]["threads"] == threads
        scores[threads] = out.read_bytes()
    assert scores[1] == scores[1000]
    assert pools == [{"workers": 2, "maps": [parallel.chunk_ranges(40, 5)]}]


def test_worker_is_sent_once_per_pool_process_at_most(pools, monkeypatch):
    # three batches, 21 chunks in all, on one set of two forked workers,
    # which inherit the worker instead of receiving it
    monkeypatch.setattr(CountingWorker, "pickles", 0)
    with parallel.Fanout(CountingWorker(), 2) as fan:
        batches = [list(fan.map(lo, hi)) for lo, hi in ((0, 40), (40, 50), (50, 90))]
    assert [i for batch in batches for chunk in batch for i in chunk] == list(range(90))
    assert len(pools) == 1 and pools[0]["workers"] == 2
    assert sum(len(ranges) for ranges in pools[0]["maps"]) == 8 + 5 + 8
    assert CountingWorker.pickles == 0
    assert _no_children()


def test_progressive_starts_one_pool_per_run(pools, graph, tmp_path):
    # four checkpoint batches (350/175/263/394 samples), each fanned out in
    # chunks of at most 128 pairs, an even number of them
    graph_file = tmp_path / "graph.txt"
    write_edge_list(graph, graph_file)
    argv = ["progressive", str(graph_file), "--algo", "ob", "--epsilon", "0.1",
            "--delta", "0.1", "--seed", "5", "--threads", "2"]
    assert cli_main(argv + ["--out", str(tmp_path / "report.json")]) == 0
    assert len(pools) == 1 and pools[0]["workers"] == 2
    assert [len(ranges) for ranges in pools[0]["maps"]] == [4, 2, 4, 4]


def _no_children() -> bool:
    """True when this process has no child left, running or unreaped."""
    try:
        os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return True
    return False


@contextlib.contextmanager
def _deadline(seconds: int):
    """Raise TimeoutError in this process if the block runs longer."""

    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


# with two workers, 0..9 is cut into five chunks of two: (0, 2) ... (8, 10)
def _raise_at_4(lo, hi):
    if lo == 4:
        raise ValueError(f"no chunk at {lo}")
    return lo


def _exit_at_4(lo, hi):
    if lo == 4:
        os._exit(3)
    return lo


def _stall_after_0(lo, hi):
    if lo:
        time.sleep(60)
    return lo


def _pid_after_a_slow_0(lo, hi):
    if lo == 0:
        time.sleep(1)
    return os.getpid()


@pytest.mark.skipif(not hasattr(signal, "SIGALRM"), reason="needs SIGALRM for the deadline")
def test_a_worker_exception_reaches_the_caller(pools):
    with _deadline(30), parallel.Fanout(_raise_at_4, 2) as fan:
        with pytest.raises(ValueError, match="^no chunk at 4$"):
            list(fan.map(0, 10))
        # the failed map ended its workers; the next one forks new ones
        assert list(fan.map(10, 20)) == [10, 12, 14, 16, 18]
    assert [pool["workers"] for pool in pools] == [2, 2]
    assert _no_children()


@pytest.mark.skipif(not hasattr(signal, "SIGALRM"), reason="needs SIGALRM for the deadline")
def test_a_worker_that_dies_makes_map_raise(pools):
    # the death races with the parent handing out the chunks after it: run
    # it often enough that a send to the dead worker would show
    with _deadline(60):
        for _ in range(100):
            with pytest.raises(RuntimeError, match=r"ended \(exit code 3\) before returning its chunk"):
                with parallel.Fanout(_exit_at_4, 2) as fan:
                    list(fan.map(0, 10))
    assert [pool["workers"] for pool in pools] == [2] * 100
    assert _no_children()


def test_a_dead_worker_is_reported_with_its_exit_code():
    # a worker that exited before it was handed its chunk, and one that
    # exited halfway through writing its reply
    reply = pickle.dumps((None, list(range(1000))), pickle.HIGHEST_PROTOCOL)
    for written in (b"", reply[: len(reply) // 2]):
        task_read, task_write = os.pipe()
        reply_read, reply_write = os.pipe()
        pid = os.fork()
        if pid == 0:
            try:
                os.write(reply_write, written)
            finally:
                os._exit(5)
        os.close(task_read)
        os.close(reply_write)
        worker = parallel._Worker(pid, task_write, reply_read)
        try:
            os.waitid(os.P_PID, pid, os.WEXITED | os.WNOWAIT)  # exited, not yet reaped
            parallel._send(worker, iter([(0, (0, 1))]))
            with pytest.raises(RuntimeError, match=rf"process {pid} ended \(exit code 5\)"):
                parallel._receive(worker)
        finally:
            os.close(task_write)
            os.close(reply_read)
    assert _no_children()


@pytest.mark.skipif(not hasattr(signal, "SIGALRM"), reason="needs SIGALRM for the deadline")
def test_a_free_worker_takes_the_next_chunk(pools):
    # while one worker sleeps in chunk 0, the other runs all the rest
    with _deadline(30), parallel.Fanout(_pid_after_a_slow_0, 2) as fan:
        pids = list(fan.map(0, 6, chunk=1))
    assert pools[0]["maps"] == [[(i, i + 1) for i in range(6)]]
    assert len(set(pids[1:])) == 1 and pids[0] != pids[1]
    assert _no_children()


@pytest.mark.skipif(not hasattr(signal, "SIGALRM"), reason="needs SIGALRM for the deadline")
def test_a_map_left_early_leaves_no_worker_behind(pools):
    # both workers are inside a 60 s chunk when the block ends
    with _deadline(30):
        with parallel.Fanout(_stall_after_0, 2) as fan:
            results = fan.map(0, 10)
            assert next(results) == 0
            time.sleep(0.1)
    assert pools[0]["workers"] == 2
    assert _no_children()
    results.close()


def _under_each_chunking(monkeypatch, run):
    """run() under each chunking, and the chunk count of every cut it made.
    The runs must cut their work three different ways."""
    cut = parallel.chunk_ranges
    results, cuts = [], []
    for per_worker, pair_width in CHUNKINGS:
        monkeypatch.setattr(parallel, "CHUNKS_PER_WORKER", per_worker)
        monkeypatch.setattr(tbfs, "GROUP_WIDTH", pair_width)
        counts: list[int] = []

        def counted(*args, **kwargs):
            ranges = cut(*args, **kwargs)
            counts.append(len(ranges))
            return ranges

        monkeypatch.setattr(parallel, "chunk_ranges", counted)
        results.append(run())
        cuts.append(counts)
    assert len(set(map(tuple, cuts))) == len(CHUNKINGS)
    return results, cuts


def test_chunkings_cut_differently(monkeypatch):
    def counts():
        return len(parallel.chunk_ranges(50)), len(parallel.chunk_ranges(50, tbfs.GROUP_WIDTH))

    runs, _ = _under_each_chunking(monkeypatch, counts)
    sources, pairs = zip(*runs)
    assert sources == (1, 7, 50)
    assert pairs == (1, 8, 50)


@pytest.mark.parametrize("opt", list(PathOptimality))
@pytest.mark.parametrize("algorithm", list(Algorithm))
def test_sums_do_not_depend_on_chunk_boundaries(monkeypatch, graph, opt, algorithm):
    sums, cuts = _under_each_chunking(
        monkeypatch, lambda: summed_contributions(graph, opt, algorithm, 5, None, 50, 1)
    )
    assert sums[0] == sums[1] == sums[2]
    assert any(sums[0].values())
    # sources by the per-worker rule, pairs by the sweep group width
    assert cuts == ([[1], [7], [50]] if algorithm is Algorithm.RTB else [[1], [8], [50]])


@pytest.mark.parametrize("algorithm", [Algorithm.OB, Algorithm.TRK])
def test_progressive_stream_does_not_depend_on_chunk_boundaries(monkeypatch, graph, algorithm):
    def run():
        scores, stop = progressive_estimate(graph, SH, 0.25, 0.1, 1.5, algorithm, 5, threads=1)
        return scores.values.tobytes(), stop

    runs, _ = _under_each_chunking(monkeypatch, run)
    assert runs[0] == runs[1] == runs[2]


def test_distance_histogram_does_not_depend_on_chunk_boundaries(monkeypatch, graph):
    def run():
        summary = estimate_distances(graph, 40, 0.9, 5, threads=1)
        return [value.hex() for value in summary.reach_profile], summary.diameter, summary.avg_distance

    runs, _ = _under_each_chunking(monkeypatch, run)
    assert runs[0] == runs[1] == runs[2]
