from __future__ import annotations

import math
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from helpers import (
    bursty_temporal_graph,
    enumerate_dag_paths,
    expectation_ob,
    expectation_rtb,
    expectation_trk,
    path_appearances,
    random_temporal_graph,
    random_temporal_graph_large,
)

from tempbc import (
    PathOptimality,
    enumerate_paths_bruteforce,
    exact_tbc,
    exact_tbc_fractions,
    full_tbfs,
    load_edge_list,
    ob_estimate,
    rtb_estimate,
    sample_optimal_path,
    trk_estimate,
    truncated_tbfs,
)
from tempbc import tbfs as tbfs_module
from tempbc.rng import draw_pair, draw_source, substream
from tempbc.samplers import Algorithm, chunk_contributions

SH = PathOptimality.SHORTEST
SFM = PathOptimality.SHORTEST_FOREMOST
PFM = PathOptimality.PREFIX_FOREMOST


def all_pairs(n):
    return [(s, z) for s in range(n) for z in range(n) if s != z]


def test_rtb_census_equals_exact(g1):
    exact = exact_tbc(g1, SH)
    census = rtb_estimate(g1, SH, g1.n, 0, sources=list(range(g1.n)))
    assert np.array_equal(census.values, exact.values)


def test_ob_census_equals_exact(g1):
    for opt in PathOptimality:
        exact = exact_tbc(g1, opt)
        pairs = all_pairs(g1.n)
        census = ob_estimate(g1, opt, len(pairs), 0, pairs=pairs)
        assert np.array_equal(census.values, exact.values)


def _monte_carlo_band(estimate, graph, opt, per_sample_values, r):
    """Assert every node is within 3 standard errors of its expectation."""
    for v in range(graph.n):
        vals = per_sample_values[v]
        mean = sum(vals, Fraction(0)) / len(vals)
        var = sum((x - mean) ** 2 for x in vals) / len(vals)
        band = 3 * math.sqrt(float(var) / r) + 1e-12
        assert abs(estimate.values[v] - float(mean)) <= band, v


def test_rtb_monte_carlo_matches_exact(g1):
    r = 4000
    est = rtb_estimate(g1, SH, r, seed=11)
    per_sample = {
        v: [full_tbfs(g1, s, SH).dependency.get(v, Fraction(0)) / (g1.n - 1) for s in range(g1.n)]
        for v in range(g1.n)
    }
    _monte_carlo_band(est, g1, SH, per_sample, r)


def test_ob_monte_carlo_matches_exact(g1):
    r = 4000
    est = ob_estimate(g1, PFM, r, seed=13)
    per_sample = {
        v: [
            truncated_tbfs(g1, s, z, PFM).dependency.get(v, Fraction(0))
            for s, z in all_pairs(g1.n)
        ]
        for v in range(g1.n)
    }
    _monte_carlo_band(est, g1, PFM, per_sample, r)


def test_trk_monte_carlo_matches_exact(g1):
    r = 20000
    est = trk_estimate(g1, SH, r, seed=17)
    exact = exact_tbc(g1, SH)
    # per-sample value is a 0/1 indicator with mean tb(v)
    for v in range(g1.n):
        p = exact.values[v]
        band = 3 * math.sqrt(p * (1 - p) / r) + 1e-9
        assert abs(est.values[v] - p) <= band


def test_rtb_single_sample_of_sink_is_zero(g1):
    sink = g1.index_of(4)  # no out-edges
    seed = next(
        s for s in range(1000) if draw_source(substream(s, 0), g1.n) == sink
    )
    est = rtb_estimate(g1, SH, 1, seed)
    assert np.all(est.values == 0.0)


def test_disconnected_pair_contributes_zero(g1):
    pair = (g1.index_of(4), g1.index_of(1))
    est = ob_estimate(g1, SH, 1, 0, pairs=[pair])
    assert np.all(est.values == 0.0)
    est = trk_estimate(g1, SH, 1, 0, pairs=[pair])
    assert np.all(est.values == 0.0)


def test_trk_single_iteration_increments_one_internal_node(g1):
    pair = (g1.index_of(1), g1.index_of(4))
    est = trk_estimate(g1, SH, 1, seed=0, pairs=[pair])
    # both optimal paths have exactly one internal node, 2 or 3
    touched = {v for v in range(g1.n) if est.values[v] > 0}
    assert touched in ({g1.index_of(2)}, {g1.index_of(3)})
    assert est.values[next(iter(touched))] == 1.0


def test_sample_optimal_path_contract(g1):
    i = {k: g1.index_of(k) for k in (1, 4)}
    unreachable = truncated_tbfs(g1, i[4], i[1], SH)
    with pytest.raises(ValueError):
        sample_optimal_path(unreachable, substream(0, 0))


def test_sample_optimal_path_unique_path():
    g = load_edge_list("0 1 1\n1 2 2\n")
    tr = truncated_tbfs(g, 0, 2, SH)
    path = sample_optimal_path(tr, substream(0, 0))
    assert path.appearances == ((0, 0), (1, 1), (2, 2))
    assert path.internal() == [1]


def test_g1_path_sampler_frequencies(g1):
    i = {k: g1.index_of(k) for k in (1, 4)}
    draws = 20000
    rng = substream(23, 0)
    tr = truncated_tbfs(g1, i[1], i[4], SH)
    counts = Counter(sample_optimal_path(tr, rng).appearances for _ in range(draws))
    assert len(counts) == 2
    for c in counts.values():
        assert abs(c / draws - 0.5) < 0.02


@pytest.mark.parametrize("seed", range(15))
def test_path_sampler_probabilities_symbolic(seed):
    # analytic branch-probability product equals multiplicity / sigma per path
    g = random_temporal_graph(seed, max_n=7)
    for opt in PathOptimality:
        for s in range(g.n):
            for z in range(g.n):
                if s == z:
                    continue
                tr = truncated_tbfs(g, s, z, opt)
                sigma = tr.pair_sigma(z)
                if sigma == 0:
                    continue
                analytic = dict(enumerate_dag_paths(tr))
                assert sum(analytic.values()) == 1
                grouped = Counter(
                    path_appearances(p, s)
                    for p in enumerate_paths_bruteforce(g, s, z, opt)
                )
                assert analytic == {
                    apps: Fraction(m, sigma) for apps, m in grouped.items()
                }


@pytest.mark.parametrize("seed", range(10))
def test_estimators_unbiased_on_small_graphs(seed):
    g = random_temporal_graph(seed + 31, max_n=6)
    for opt in PathOptimality:
        exact = exact_tbc_fractions(g, opt)
        for expectation in (expectation_rtb, expectation_ob, expectation_trk):
            got = expectation(g, opt)
            assert all(
                got.get(v, Fraction(0)) == exact.get(v, Fraction(0)) for v in range(g.n)
            ), (seed, opt, expectation.__name__)


def test_per_sample_values_in_unit_interval():
    for seed in range(10):
        g = random_temporal_graph(seed + 90, max_n=7)
        for opt in PathOptimality:
            for s in range(g.n):
                dep = full_tbfs(g, s, opt).dependency
                assert all(0 <= val / (g.n - 1) <= 1 for val in dep.values())
                for z in range(g.n):
                    if s == z:
                        continue
                    ratios = truncated_tbfs(g, s, z, opt).dependency
                    assert all(0 <= val <= 1 for val in ratios.values())


def test_seeded_determinism_and_thread_independence(g1):
    for estimator in (rtb_estimate, ob_estimate, trk_estimate):
        a = estimator(g1, SH, 200, seed=5)
        b = estimator(g1, SH, 200, seed=5)
        c = estimator(g1, SH, 200, seed=5, threads=2)
        assert np.array_equal(a.values, b.values)
        assert np.array_equal(a.values, c.values)
        assert not np.array_equal(
            a.values, estimator(g1, SH, 200, seed=6).values
        ) or np.all(a.values == 0)


def test_preconditions():
    single = load_edge_list("")
    with pytest.raises(ValueError):
        rtb_estimate(single, SH, 1, 0)
    g = load_edge_list("0 1 1\n")
    with pytest.raises(ValueError):
        ob_estimate(g, SH, 0, 0)


def _per_pair_contribution(graph, opt, algorithm, seed, fixed, i):
    """Sample i of a pair estimator from its own truncated_tbfs search."""
    rng = substream(seed, i)
    s, z = fixed[i] if fixed is not None else draw_pair(rng, graph.n)
    result = truncated_tbfs(graph, s, z, opt)
    if algorithm is Algorithm.OB:
        return result.dependency
    if result.pair_sigma(z) == 0:
        return {}
    return dict.fromkeys(sample_optimal_path(result, rng).internal(), 1)


def _explicit_pairs(graph, seed, count=130):
    """Seeded pairs with repeats, disconnected pairs and, where the graph has
    them, sources without out-edges, in a seeded order."""
    rng = np.random.default_rng(seed)
    pairs = [draw_pair(substream(seed, i), graph.n) for i in range(count // 2)]
    pairs += pairs[: count // 8]
    sinks = [s for s in range(graph.n) if not graph._out_times[s]]
    for s in sinks[:4]:
        pairs.append((s, (s + 1) % graph.n))
    for s, z in all_pairs(graph.n):
        if len(pairs) >= count:
            break
        if graph._out_times[s] and truncated_tbfs(graph, s, z, SH).pair_sigma(z) == 0:
            pairs.append((s, z))
    while len(pairs) < count:
        pairs.append(pairs[int(rng.integers(len(pairs)))])
    return [pairs[i] for i in rng.permutation(len(pairs))]


def _check_chunks_match_per_pair_searches(graph, seed):
    r = 130
    for fixed in (None, _explicit_pairs(graph, seed, r)):
        for algorithm in (Algorithm.OB, Algorithm.TRK):
            for opt in (SH, SFM, PFM):
                expected = [
                    list(_per_pair_contribution(graph, opt, algorithm, seed, fixed, i).items())
                    for i in range(r)
                ]
                for width in (1, 2, 7, 64, 65):
                    got = [
                        list(contribution.items())
                        for lo in range(0, r, width)
                        for contribution in chunk_contributions(
                            graph, opt, algorithm, seed, fixed, lo, min(lo + width, r)
                        )
                    ]
                    assert got == expected, (algorithm, opt, width, fixed is None)


@pytest.mark.parametrize("seed", range(6))
def test_chunk_contributions_match_per_pair_searches(seed):
    _check_chunks_match_per_pair_searches(random_temporal_graph(seed + 8000), seed)


def test_chunk_contributions_match_per_pair_searches_on_the_tie_graph(ties):
    _check_chunks_match_per_pair_searches(ties, 3)


def test_chunk_contributions_match_per_pair_searches_on_a_bursty_graph():
    graph = bursty_temporal_graph(3, n=60, m=500, max_time=40)
    assert any(not graph._out_times[s] for s in range(graph.n))
    _check_chunks_match_per_pair_searches(graph, 4)


def test_sh_pairs_share_one_sweep_per_chunk(monkeypatch):
    # 40 samples at one worker are one chunk of 40 pairs, a single sweep
    # group: one backward group sweep under sh and under sfm, where the
    # pairs first find their deadlines in one forward group sweep; pfm pairs
    # share no sweep, so they run none of either kind
    graph = random_temporal_graph_large(21, n=40, m=400, max_time=30)
    assert all(graph._out_times[s] for s in range(graph.n))
    calls = {"group": 0, "arrival": 0}
    group_sweep = tbfs_module._group_latest_departure
    arrival_sweep = tbfs_module._group_foremost_arrival

    def count_group(*args):
        calls["group"] += 1
        return group_sweep(*args)

    def count_arrival(*args):
        calls["arrival"] += 1
        return arrival_sweep(*args)

    monkeypatch.setattr(tbfs_module, "_group_latest_departure", count_group)
    monkeypatch.setattr(tbfs_module, "_group_foremost_arrival", count_arrival)
    ob_estimate(graph, SH, 40, 1, threads=1)
    assert calls == {"group": 1, "arrival": 0}
    calls.update(group=0)
    ob_estimate(graph, SFM, 40, 1, threads=1)
    assert calls == {"group": 1, "arrival": 1}
    calls.update(group=0, arrival=0)
    ob_estimate(graph, PFM, 40, 1, threads=1)
    assert calls == {"group": 0, "arrival": 0}


@pytest.mark.parametrize("opt", [SH, SFM, PFM])
def test_only_dependency_readers_run_the_dependency_pass(monkeypatch, opt):
    # trk reads sigma and the predecessors alone; ob, rtb and exact read each
    # search's dependencies, and a second read reuses the first pass
    graph = random_temporal_graph_large(21, n=40, m=400, max_time=30)
    passes = []
    accumulate = tbfs_module._accumulate_dependency

    def counting(*args):
        passes.append(args[0])
        return accumulate(*args)

    monkeypatch.setattr(tbfs_module, "_accumulate_dependency", counting)
    runs = (
        (lambda: trk_estimate(graph, opt, 30, 1, threads=1), 0),
        (lambda: ob_estimate(graph, opt, 30, 1, threads=1), 30),
        (lambda: rtb_estimate(graph, opt, 30, 1, threads=1), 30),
        (lambda: exact_tbc(graph, opt, threads=1), graph.n),
    )
    for estimate, searches in runs:
        passes.clear()
        estimate()
        assert len(passes) == searches
    passes.clear()
    result = full_tbfs(graph, 0, opt)
    assert passes == []
    assert result.dependency is result.dependency
    assert passes == [0]
