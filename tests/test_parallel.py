"""The chunked fan-out: chunk sizes for source and pair work, the worker cap,
one pool per run, the worker sent once per pool process, and outputs that do
not depend on where the chunks are cut."""

from __future__ import annotations

import json

import pytest

from helpers import random_temporal_graph_large

from tempbc import Algorithm, PathOptimality, estimate_distances, progressive_estimate, write_edge_list
from tempbc import parallel, tbfs
from tempbc.cli import main as cli_main
from tempbc.samplers import summed_contributions

SH = PathOptimality.SHORTEST

# (source chunks per worker, pair chunk width): every item in one chunk (pairs
# up to one full 64-wide sweep group), seven or eight chunks, one item per
# chunk; the pair width also sets the width of the shared sweep groups
CHUNKINGS = ((1, 64), (7, 7), (10**9, 1))


@pytest.fixture(scope="module")
def graph():
    """Criterion 10's graph."""
    return random_temporal_graph_large(77, n=60, m=240, max_time=30)


@pytest.fixture
def pools(monkeypatch):
    """Two CPUs in the affinity set, and a record of every pool: its
    ``max_workers`` and the ranges of each ``map`` call."""
    monkeypatch.setattr("os.sched_getaffinity", lambda pid: {0, 1}, raising=False)
    record: list[dict] = []

    class RecordingPool(parallel.ProcessPoolExecutor):
        def __init__(self, max_workers=None, **kwargs):
            self.record = {"max_workers": max_workers, "maps": []}
            record.append(self.record)
            super().__init__(max_workers, **kwargs)

        def map(self, fn, *iterables, **kwargs):
            ranges = list(zip(*iterables))
            self.record["maps"].append(ranges)
            return super().map(fn, *zip(*ranges), **kwargs)

    monkeypatch.setattr(parallel, "ProcessPoolExecutor", RecordingPool)
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
    # multiple of the workers; near-equal widths, the wider first
    assert tbfs.GROUP_WIDTH == 64
    assert _widths(184, 2) == [46] * 4
    assert _widths(92, 2) == [46] * 2
    assert _widths(138, 2) == [35, 35, 34, 34]
    assert _widths(207, 2) == [52, 52, 52, 51]
    assert _widths(266, 2) == [45, 45] + [44] * 4
    assert _widths(512, 2) == [64] * 8
    assert _widths(40, 1) == [40]
    # fewer items than workers: one item per chunk
    assert _widths(3, 8) == [1, 1, 1]
    assert _widths(1, 2) == [1]
    assert _widths(0, 2) == []
    assert parallel.chunk_ranges(92, 64, 2, start=350) == [(350, 396), (396, 442)]


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
    assert pools == [{"max_workers": 2, "maps": [parallel.chunk_ranges(40, 5)]}]


def test_worker_is_sent_once_per_pool_process_at_most(pools, monkeypatch):
    # three batches, 21 chunks in all, on one pool of two processes
    monkeypatch.setattr(CountingWorker, "pickles", 0)
    with parallel.Fanout(CountingWorker(), 2) as fan:
        batches = [list(fan.map(lo, hi)) for lo, hi in ((0, 40), (40, 50), (50, 90))]
    assert [i for batch in batches for chunk in batch for i in chunk] == list(range(90))
    assert len(pools) == 1 and pools[0]["max_workers"] == 2
    assert sum(len(ranges) for ranges in pools[0]["maps"]) == 8 + 5 + 8
    assert CountingWorker.pickles <= 2


def test_progressive_starts_one_pool_per_run(pools, graph, tmp_path):
    # four checkpoint batches (350/175/263/394 samples), each fanned out in
    # chunks of at most 64 pairs, an even number of them
    graph_file = tmp_path / "graph.txt"
    write_edge_list(graph, graph_file)
    argv = ["progressive", str(graph_file), "--algo", "ob", "--epsilon", "0.1",
            "--delta", "0.1", "--seed", "5", "--threads", "2"]
    assert cli_main(argv + ["--out", str(tmp_path / "report.json")]) == 0
    assert len(pools) == 1 and pools[0]["max_workers"] == 2
    assert [len(ranges) for ranges in pools[0]["maps"]] == [6, 4, 6, 8]


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
