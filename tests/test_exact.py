from __future__ import annotations

import hashlib
import io
from fractions import Fraction

import numpy as np
import pytest

from helpers import random_temporal_graph, random_temporal_graph_large, target_view

from tempbc import (
    GuardrailError,
    PathOptimality,
    TemporalGraph,
    exact_tbc,
    exact_tbc_fractions,
    load_edge_list,
    ob_estimate,
    rtb_estimate,
    trk_estimate,
    truncated_tbfs,
)
from tempbc import exact as exact_module, parallel
from tempbc.bruteforce import bruteforce_betweenness

SH = PathOptimality.SHORTEST
PFM = PathOptimality.PREFIX_FOREMOST

# SHA-256 of the score CSVs on the synth200 graph; the estimators run at seed
# 7 with r=64. Recorded from the Fraction-by-Fraction dependency pass, so a
# change to how dependencies are accumulated must reproduce these bytes.
SCORE_CSV_SHA256 = {
    ("exact", "sh"): "d381641bd207ffdd04e79fa97fcea733ae4cdb7b24e34f6fd0beae2d4b78bd67",
    ("exact", "sfm"): "90d00715c99c5f59da52ba4dc56c4ae448c9c1ce9bdc37397da080dc9a7460ac",
    ("exact", "pfm"): "161245406ad05bc436d164dba6bf1d4f5bf73beebf09b5bd527b356f1e2230df",
    ("rtb", "sh"): "f654c1b40d4c3d4e596a7a2e68802501ecbe66743f34944a4a25efbcf16bda17",
    ("rtb", "sfm"): "7c2eb048c39740a722eb87daa3233b38ab374846676423411330cf5683ca9c40",
    ("rtb", "pfm"): "068d45aa9209fb0c96b9652229919fef34fc63c187ebe9efdbec929bd008f382",
    ("ob", "sh"): "306216941cef79e2dc3f560b46d7065f089594cf80b8a94f95dfe8670bdcc7ce",
    ("ob", "sfm"): "e0543680b31b60794ca167bb6d094b1564bddfbad2a04e8914cffe6ab7f2bb22",
    ("ob", "pfm"): "59d3af474a23f69b3eedc83325dc1ff4f6dcdc2f24d9468b3333a9ca2a2e6b02",
    ("trk", "sh"): "271890cf7fede21e5abc7a09ec3cf71886f0ce19dc357c2e11953129b3106082",
    ("trk", "sfm"): "b8e28269874518a328ed3612512103958f5f2c702757cf12ad9bddc0fe90624a",
    ("trk", "pfm"): "59d3af474a23f69b3eedc83325dc1ff4f6dcdc2f24d9468b3333a9ca2a2e6b02",
}
# The same pins for ob and trk on a 60-node graph with 8 time labels. On
# synth200 only 2/2/0 of the 64 sampled pairs have more than one optimal path
# under sh/sfm/pfm, so trk-pfm equals ob-pfm there; here 26/7/23 do, and the
# trk digests change if the order of any predecessor map changes. Recorded
# before full and truncated searches shared one routine.
TIES_CSV_SHA256 = {
    ("ob", "sh"): "7d91d3a36300162bec5841b80f24e49b788c5d3b24cfdd5b740f05b774ffcb7e",
    ("ob", "sfm"): "8ee19a4fd62d1341b3e2b8881205086d9862f750126e8a6c3272dbc7529d0586",
    ("ob", "pfm"): "74e0e4ad95be250b47a29376d0734b7b8788ac0f3dac7bac2d42f40a32d8160a",
    ("trk", "sh"): "5a3359b97a75525f8cef356f650ee2701642ba580eefe9bec4d0bd7737b6115e",
    ("trk", "sfm"): "f439f8dc4f6163fec7e37b0a50fb512b0a13966cc29e224ee50cd97d16c32d5e",
    ("trk", "pfm"): "c41669fb0926dc3cbb974cd27b915b1b28b673e5f6c9807c968ef20ecc7ec171",
}
ESTIMATORS = {"rtb": rtb_estimate, "ob": ob_estimate, "trk": trk_estimate}
PINNED_CSVS = [
    pytest.param("synth200", run, tag, digest, id=f"{run}-{tag}")
    for (run, tag), digest in SCORE_CSV_SHA256.items()
] + [
    pytest.param("ties", run, tag, digest, id=f"ties-{run}-{tag}")
    for (run, tag), digest in TIES_CSV_SHA256.items()
]


def test_g1_exact_values(g1):
    i = {k: g1.index_of(k) for k in (1, 2, 3, 4)}
    sh = exact_tbc_fractions(g1, SH)
    assert sh == {
        i[1]: 0,
        i[2]: Fraction(1, 24),
        i[3]: Fraction(1, 24),
        i[4]: 0,
    }
    pfm = exact_tbc_fractions(g1, PFM)
    assert pfm[i[2]] == Fraction(7, 72)
    assert pfm[i[3]] == Fraction(7, 72)
    assert pfm[i[1]] == pfm[i[4]] == 0


def test_no_two_hop_paths_means_all_zero():
    g = load_edge_list("0 1 5\n2 3 5\n")  # all contacts at one time: no 2-hop path
    for opt in PathOptimality:
        assert np.all(exact_tbc(g, opt).values == 0.0)


def test_tiny_graphs_are_zero_vectors():
    empty = TemporalGraph(0, [], 0)
    single = TemporalGraph(1, [], 0)
    for opt in PathOptimality:
        assert exact_tbc(empty, opt).values.shape == (0,)
        assert np.all(exact_tbc(single, opt).values == 0.0)


@pytest.mark.parametrize("seed", range(25))
def test_equals_pairwise_sum_formulation(seed):
    g = random_temporal_graph(seed + 50, max_n=7)
    n = g.n
    for opt in PathOptimality:
        pairwise: dict[int, Fraction] = {}
        for s in range(n):
            for z in range(n):
                if s == z:
                    continue
                for v, val in truncated_tbfs(g, s, z, opt).dependency.items():
                    pairwise[v] = pairwise.get(v, Fraction(0)) + val
        expected = {v: pairwise.get(v, Fraction(0)) / (n * (n - 1)) for v in range(n)}
        assert exact_tbc_fractions(g, opt) == expected


def test_matches_bruteforce_oracle():
    for seed in range(20):
        g = random_temporal_graph(seed + 200)
        for opt in PathOptimality:
            assert exact_tbc_fractions(g, opt) == bruteforce_betweenness(g, opt)


def test_adding_isolated_node_rescales():
    g = load_edge_list("0 1 1\n1 2 2\n0 2 3\n")
    extended = TemporalGraph(g.n + 1, list(g.edges), g.T)
    for opt in PathOptimality:
        base = exact_tbc_fractions(g, opt)
        grown = exact_tbc_fractions(extended, opt)
        n = g.n
        factor = Fraction(n * (n - 1), (n + 1) * n)
        for v in range(n):
            assert grown[v] == base[v] * factor
        assert grown[n] == 0


def test_never_internal_nodes_score_zero(g1):
    values = exact_tbc(g1, SH).values
    assert values[g1.index_of(1)] == 0.0
    assert values[g1.index_of(4)] == 0.0


def test_guardrail_refuses_without_force(g1, monkeypatch):
    monkeypatch.setattr(exact_module, "DEFAULT_WORK_LIMIT", 1)
    with pytest.raises(GuardrailError):
        exact_tbc(g1, SH)
    forced = exact_tbc(g1, SH, force=True)
    assert forced.values.max() > 0


def test_parallel_matches_serial(g1):
    for opt in PathOptimality:
        serial = exact_tbc(g1, opt, threads=1)
        parallel = exact_tbc(g1, opt, threads=2)
        assert np.array_equal(serial.values, parallel.values)


def test_pool_starts_no_more_workers_than_chunks(monkeypatch):
    # a Fanout forks every worker when it starts: on 8 CPUs, 3 sources make
    # 3 one-source chunks, so 8 threads must fork 3 workers
    asked = []
    start = parallel.Fanout._start

    def recording_start(self, count):
        asked.append(count)
        start(self, count)

    monkeypatch.setattr(parallel.Fanout, "_start", recording_start)
    monkeypatch.setattr("os.sched_getaffinity", lambda pid: set(range(8)), raising=False)
    g = random_temporal_graph_large(5, n=3, m=12, max_time=20)
    assert len(parallel.chunk_ranges(g.n, workers=8)) == 3
    assert exact_tbc_fractions(g, SH, threads=8) == exact_tbc_fractions(g, SH, threads=1)
    assert asked == [3]


def test_college_msg_pairwise_spot_check_when_present():
    # per-source dependencies agree with independent per-pair recomputation on
    # 50 random pairs of the real dataset
    from helpers import dataset_path

    path = dataset_path("CollegeMsg.txt")
    if path is None:
        pytest.skip("College msg dataset not present (drop CollegeMsg.txt into data/)")
    from tempbc import read_edge_list

    g = read_edge_list(path)
    rng = np.random.default_rng(0)
    by_source: dict[int, list[int]] = {}
    for _ in range(50):
        s, z = (int(x) for x in rng.choice(g.n, size=2, replace=False))
        by_source.setdefault(s, []).append(z)
    from tempbc import full_tbfs

    for s, targets in by_source.items():
        full = full_tbfs(g, s, SH)
        for z in targets:
            tr = truncated_tbfs(g, s, z, SH)
            assert tr.pair_sigma(z) == full.pair_sigma(z)
            if full.pair_sigma(z):
                assert target_view(tr)[z] == target_view(full)[z]


@pytest.mark.parametrize(("name", "run", "tag", "expected"), PINNED_CSVS)
def test_score_csv_bytes_are_pinned(synth200, ties, name, run, tag, expected):
    graph = synth200[0] if name == "synth200" else ties
    opt = PathOptimality.parse(tag)
    scores = exact_tbc(graph, opt) if run == "exact" else ESTIMATORS[run](graph, opt, 64, 7)
    buf = io.StringIO()
    scores.write_csv(buf)
    digest = hashlib.sha256(buf.getvalue().encode("utf-8")).hexdigest()
    assert digest == expected, (name, run, tag)


def test_score_csv_round_trip(tmp_path, g1):
    from tempbc import ScoreVector

    scores = exact_tbc(g1, PFM)
    path = tmp_path / "scores.csv"
    scores.write_csv(path, g1.node_ids)
    back, ids = ScoreVector.read_csv(path)
    assert ids == list(g1.node_ids)
    assert np.array_equal(back.values, scores.values)
