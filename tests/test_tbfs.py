from __future__ import annotations

import hashlib
from fractions import Fraction

import pytest

from helpers import bruteforce_all_optimal, make_g1, random_temporal_graph

from tempbc import tbfs as tbfs_module
from tempbc import (
    PathOptimality,
    enumerate_paths_bruteforce,
    full_tbfs,
    load_edge_list,
    ob_estimate,
    truncated_tbfs,
)
from tempbc.bruteforce import (
    PathBudgetExceeded,
    bruteforce_dependency,
    bruteforce_pair_stats,
    internal_nodes,
)

SH = PathOptimality.SHORTEST
SFM = PathOptimality.SHORTEST_FOREMOST
PFM = PathOptimality.PREFIX_FOREMOST

ALL_OPTS = [SH, SFM, PFM]


@pytest.fixture(scope="module")
def g1():
    return make_g1()


def ids(g1):
    return {k: g1.index_of(k) for k in (1, 2, 3, 4)}


def test_g1_shortest_full(g1):
    i = ids(g1)
    r = full_tbfs(g1, i[1], SH)
    assert r.pair_sigma(i[4]) == 2
    assert r.dependency == {i[2]: Fraction(1, 2), i[3]: Fraction(1, 2)}


def test_g1_prefix_foremost_full(g1):
    i = ids(g1)
    r = full_tbfs(g1, i[1], PFM)
    assert r.pair_sigma(i[3]) == 2
    assert r.pair_sigma(i[4]) == 3
    # computed value from the brute-force oracle: node 2 is internal to one of
    # the two (1,3) paths and two of the three (1,4) paths; node 3 only to the
    # latter
    assert r.dependency == {
        i[2]: Fraction(1, 2) + Fraction(2, 3),
        i[3]: Fraction(2, 3),
    }


def test_isolated_source_scores_nothing(g1):
    i = ids(g1)
    for opt in ALL_OPTS:
        r = full_tbfs(g1, i[4], opt)
        assert r.per_target == {}
        assert r.dependency == {}


def test_g1_truncated_matches_examples(g1):
    i = ids(g1)
    r = truncated_tbfs(g1, i[1], i[4], SH)
    assert r.pair_sigma(i[4]) == 2
    assert r.dependency == {i[2]: Fraction(1, 2), i[3]: Fraction(1, 2)}

    r = truncated_tbfs(g1, i[4], i[1], SH)
    assert r.pair_sigma(i[1]) == 0
    assert r.dependency == {}

    r = truncated_tbfs(g1, i[1], i[4], PFM)
    assert r.pair_sigma(i[4]) == 3
    assert r.dependency == {i[2]: Fraction(2, 3), i[3]: Fraction(2, 3)}


def test_g1_bruteforce_paths(g1):
    i = ids(g1)
    sh_paths = enumerate_paths_bruteforce(g1, i[1], i[4], SH)
    assert sorted(internal_nodes(p) for p in sh_paths) == [[i[2]], [i[3]]]
    assert len(enumerate_paths_bruteforce(g1, i[1], i[4], PFM)) == 3
    assert enumerate_paths_bruteforce(g1, i[4], i[1], SH) == []


def test_bruteforce_budget_is_enforced(g1):
    i = ids(g1)
    with pytest.raises(PathBudgetExceeded):
        enumerate_paths_bruteforce(g1, i[1], i[4], SH, budget=2)


def test_bruteforce_paths_are_strict_and_simple():
    for seed in range(30):
        g = random_temporal_graph(seed)
        for s in range(g.n):
            for z in range(g.n):
                if s == z:
                    continue
                for opt in ALL_OPTS:
                    for p in enumerate_paths_bruteforce(g, s, z, opt):
                        times = [t for _, _, t in p]
                        assert all(a < b for a, b in zip(times, times[1:]))
                        nodes = [p[0][0]] + [v for _, v, _ in p]
                        assert len(set(nodes)) == len(nodes)


@pytest.mark.parametrize("seed", range(60))
def test_full_tbfs_matches_bruteforce(seed):
    g = random_temporal_graph(seed)
    for opt in ALL_OPTS:
        for s in range(g.n):
            result = full_tbfs(g, s, opt)
            optimal = bruteforce_all_optimal(g, s, opt)
            for z, paths in optimal.items():
                assert result.pair_sigma(z) == len(paths), (seed, opt, s, z)
            for z, info in result.per_target.items():
                assert info.sigma == len(optimal.get(z, []))
            assert result.dependency == bruteforce_dependency(g, s, opt)


@pytest.mark.parametrize("seed", range(40))
def test_truncated_equals_full_restriction(seed):
    g = random_temporal_graph(seed + 1000)
    for opt in ALL_OPTS:
        for s in range(g.n):
            full = full_tbfs(g, s, opt)
            for z in range(g.n):
                if s == z:
                    continue
                tr = truncated_tbfs(g, s, z, opt)
                assert tr.pair_sigma(z) == full.pair_sigma(z)
                if full.pair_sigma(z) == 0:
                    assert tr.dependency == {}
                    continue
                assert tr.per_target[z] == full.per_target[z]
                sigma, through = bruteforce_pair_stats(g, s, z, opt)
                assert tr.dependency == {
                    v: Fraction(c, sigma) for v, c in through.items()
                }


@pytest.mark.parametrize("seed", range(20))
def test_appearance_records_are_consistent(seed):
    # the backward pass walks records in reverse creation order, so each
    # predecessor must come before its record; trk's draws read sh and sfm
    # predecessor maps in ascending (node, time) order
    g = random_temporal_graph(seed + 77)
    for opt in ALL_OPTS:
        results = [full_tbfs(g, 0, opt)] + [truncated_tbfs(g, 0, z, opt) for z in range(1, g.n)]
        for result in results:
            position = {app: i for i, app in enumerate(result.records)}
            for app, rec in result.records.items():
                assert rec.sigma >= 1
                for (u, tu), mult in rec.predecessors.items():
                    assert mult >= 1
                    assert tu < app[1]
                    assert position[(u, tu)] < position[app]
                if opt is not PFM:
                    assert list(rec.predecessors) == sorted(rec.predecessors)
                if rec.predecessors:
                    assert rec.sigma == sum(
                        mult * result.records[p].sigma for p, mult in rec.predecessors.items()
                    )


@pytest.mark.parametrize("seed", range(20))
def test_dependency_total_matches_mean_internal_length(seed):
    # sum_v dep[v] equals, over destinations, the mean internal length of the
    # optimal path set
    g = random_temporal_graph(seed + 300)
    for opt in ALL_OPTS:
        for s in range(g.n):
            result = full_tbfs(g, s, opt)
            expected = Fraction(0)
            for z, paths in bruteforce_all_optimal(g, s, opt).items():
                if paths:
                    expected += Fraction(
                        sum(len(internal_nodes(p)) for p in paths), len(paths)
                    )
            assert sum(result.dependency.values(), Fraction(0)) == expected


def test_diamond_chain_dependency_is_exact_past_float_range():
    # x_i -> {a_i, b_i} at 2i+1 and {a_i, b_i} -> x_{i+1} at 2i+2: every
    # criterion has 2^j optimal paths to x_j, and 2^k overflows a float
    k = 1100
    lines = []
    for i in range(k):
        x, a, b, x_next = 3 * i, 3 * i + 1, 3 * i + 2, 3 * i + 3
        lines += [f"{x} {a} {2 * i + 1}", f"{x} {b} {2 * i + 1}"]
        lines += [f"{a} {x_next} {2 * i + 2}", f"{b} {x_next} {2 * i + 2}"]
    g = load_edge_list("\n".join(lines) + "\n")
    x = [g.index_of(3 * i) for i in range(k + 1)]
    # x_j is internal to every path to the 3(k-j) destinations past it; a_i
    # and b_i each carry half of the paths to the 3(k-i)-2 destinations past
    # them
    expected = {x[j]: Fraction(3 * (k - j)) for j in range(1, k)}
    for i in range(k):
        half = Fraction(3 * (k - i) - 2, 2)
        expected[g.index_of(3 * i + 1)] = half
        expected[g.index_of(3 * i + 2)] = half
    for opt in ALL_OPTS:
        result = full_tbfs(g, x[0], opt)
        assert result.pair_sigma(x[k]) == 2**k
        assert result.dependency == expected


def test_dependency_bounds(g1):
    for seed in range(10):
        g = random_temporal_graph(seed + 4000)
        for opt in ALL_OPTS:
            for s in range(g.n):
                dep = full_tbfs(g, s, opt).dependency
                assert all(0 <= v <= g.n - 2 for v in dep.values())
                assert s not in dep


def test_source_out_of_range(g1):
    with pytest.raises(ValueError):
        full_tbfs(g1, 99, SH)
    with pytest.raises(ValueError):
        truncated_tbfs(g1, 0, 0, SH)
    # a negative id must not index from the end of the adjacency
    for opt in ALL_OPTS:
        for bad in (-1, g1.n):
            with pytest.raises(ValueError):
                full_tbfs(g1, bad, opt)
            with pytest.raises(ValueError):
                truncated_tbfs(g1, bad, 1, opt)
            with pytest.raises(ValueError):
                truncated_tbfs(g1, 1, bad, opt)
    with pytest.raises(ValueError):
        ob_estimate(g1, SH, 2, 0, pairs=[(-1, 1), (0, 1)])


# SHA-256 of every full sh and sfm search's records (key, hops, sigma and the
# predecessor items in order) from each source of the tie graph; a full sfm
# search runs the sh search, so both give the same digest. Recorded before the
# search skipped dominated expansions, which must leave every record as it was.
FULL_RECORDS_SHA256 = "ce7b22dd2f30d6324c881cf7dac382724eac47218a82e214bc45ae917b60ab98"


@pytest.mark.parametrize("opt", [SH, SFM], ids=lambda o: o.value)
def test_full_records_are_pinned(ties, opt):
    h = hashlib.sha256()
    for s in range(ties.n):
        for app, rec in full_tbfs(ties, s, opt).records.items():
            h.update(f"{s} {app} {rec.hops} {rec.sigma} {list(rec.predecessors.items())}\n".encode())
    assert h.hexdigest() == FULL_RECORDS_SHA256


def _earliest_arrival_from(graph, v, t, z):
    """Earliest time a strict path leaving v after t reaches z, or None."""
    best = None
    seen = {(v, t)}
    stack = [(v, t)]
    while stack:
        u, tu = stack.pop()
        for t2, w in graph.out_edges_after(u, tu):
            if w == z:
                best = t2 if best is None else min(best, t2)
            elif (w, t2) not in seen:
                seen.add((w, t2))
                stack.append((w, t2))
    return best


@pytest.mark.parametrize("seed", range(40))
def test_truncated_records_can_all_reach_the_destination(seed):
    # a pair search keeps only appearances from which z is still reachable;
    # for sfm, reachable no later than z's earliest arrival
    g = random_temporal_graph(seed + 2000)
    for opt in (SH, SFM):
        for s in range(g.n):
            for z in range(g.n):
                if s == z:
                    continue
                result = truncated_tbfs(g, s, z, opt)
                assert next(iter(result.records)) == (s, 0)
                if result.pair_sigma(z) == 0:
                    assert list(result.records) == [(s, 0)]
                    assert result.dependency == {}
                    continue
                deadline = result.per_target[z].appearances[-1][1]
                for v, t in list(result.records)[1:]:
                    if v == z:
                        continue
                    arrival = _earliest_arrival_from(g, v, t, z)
                    assert arrival is not None, (seed, opt, s, z, (v, t))
                    if opt is SFM:
                        assert arrival <= deadline


def test_disconnected_pair_returns_only_the_sentinel(ties):
    g = load_edge_list("0 1 1\n1 2 2\n3 0 1\n")
    s, z = g.index_of(2), g.index_of(0)  # 2 has no out-edge
    for opt in (SH, SFM):
        result = truncated_tbfs(g, s, z, opt)
        assert list(result.records) == [(s, 0)]
        assert result.pair_sigma(z) == 0
        assert result.dependency == {}
    disconnected = 0
    for s in range(ties.n):
        for z in range(ties.n):
            if s == z:
                continue
            result = truncated_tbfs(ties, s, z, SH)
            if result.pair_sigma(z) == 0:
                disconnected += 1
                assert list(result.records) == [(s, 0)]
                assert result.dependency == {}
    assert disconnected > 0


def _latest_departure_reference(graph, z, max_time=None):
    """Fixpoint of latest[v] = max t over out-edges (v, w, t) with
    latest[w] > t; with ``max_time``, only labels up to it, and that label
    only into z."""
    latest = [0] * graph.n
    latest[z] = graph.T + 1
    changed = True
    while changed:
        changed = False
        for v in range(graph.n):
            for t, w in graph.out_edges_after(v, 0):
                if max_time is not None and (t > max_time or (t == max_time and w != z)):
                    continue
                if latest[w] > t > latest[v]:
                    latest[v] = t
                    changed = True
    return latest


def _check_latest_departure(graph):
    for z in range(graph.n):
        reference = {None: _latest_departure_reference(graph, z)}
        for s in range(graph.n):
            if s == z or not graph.out_adjacency[s]:
                continue
            cut = graph.out_adjacency[s][0][0]
            # sh sweeps every label; sfm stops at z's earliest arrival
            for max_time in {None, tbfs_module._foremost_arrival(graph, s, z)}:
                if max_time not in reference:
                    reference[max_time] = _latest_departure_reference(graph, z, max_time)
                expected = [t if t >= cut else 0 for t in reference[max_time]]
                assert tbfs_module._latest_departure(graph, s, z, max_time) == expected, (s, z, max_time)


def test_latest_departure_matches_a_fixpoint_on_the_tie_graph(ties):
    _check_latest_departure(ties)


@pytest.mark.parametrize("seed", range(40))
def test_latest_departure_matches_a_fixpoint(seed):
    _check_latest_departure(random_temporal_graph(seed + 5000))


def test_source_without_out_edges_runs_no_sweep(monkeypatch):
    g = load_edge_list("0 1 1\n1 2 2\n3 0 1\n")
    s = g.index_of(2)  # 2 has no out-edge
    assert not g.out_adjacency[s]

    def no_sweep(*args, **kwargs):
        raise AssertionError("a source without out-edges ran a sweep")

    for name in ("_latest_departure", "_foremost_arrival", "_prefix_foremost_sweep", "_shortest_bfs"):
        monkeypatch.setattr(tbfs_module, name, no_sweep)
    for opt in ALL_OPTS:
        for z in range(g.n):
            if z == s:
                continue
            result = truncated_tbfs(g, s, z, opt)
            assert list(result.records) == [(s, 0)]
            assert result.pair_sigma(z) == 0
            assert result.dependency == {}
        result = full_tbfs(g, s, opt)
        assert list(result.records) == [(s, 0)]
        assert result.per_target == {} and result.dependency == {}
