from __future__ import annotations

import pytest

from helpers import bursty_temporal_graph, random_temporal_graph, random_temporal_graph_large

from tempbc import TemporalGraph, estimate_distances, recommended_sample_size
from tempbc.distances import _settle_hops


def brute_pair_distances(graph) -> dict[tuple[int, int], int]:
    dists = {}
    for s in range(graph.n):
        for v, h in _settle_hops_reference(graph, s).items():
            if v != s:
                dists[(s, v)] = h
    return dists


def _settle_hops_reference(graph, s):
    # independent reference: repeated relaxation over appearance pairs
    apps = {(s, 0): 0}
    changed = True
    while changed:
        changed = False
        for (v, t), h in list(apps.items()):
            for t2, w in graph.out_edges_after(v, t):
                if (w, t2) not in apps or apps[(w, t2)] > h + 1:
                    apps[(w, t2)] = h + 1
                    changed = True
    settled: dict[int, int] = {}
    for (v, _), h in apps.items():
        settled[v] = min(settled.get(v, h), h)
    return settled


@pytest.mark.parametrize(
    "graph",
    [
        pytest.param(random_temporal_graph_large(12345, n=60, m=600, max_time=8), id="ties"),
        pytest.param(bursty_temporal_graph(3, n=80, m=700, max_time=60), id="bursty"),
    ],
)
def test_settle_hops_equals_reference_per_source(graph):
    # graphs where nodes reappear at several hop layers, so an appearance
    # reached later by fewer hops matters
    for s in range(graph.n):
        assert _settle_hops(graph, s) == _settle_hops_reference(graph, s), s


def test_census_on_g1(g1):
    d = estimate_distances(g1, g1.n, 0.9, 0)
    assert d.diameter == 2
    assert d.effective_diameter == 2
    assert d.connectivity_rate == 0.5
    assert d.avg_distance == pytest.approx(7 / 6)
    assert d.sample_size == 4
    assert list(d.reach_profile) == [0.0, 5.0, 6.0]


def test_empty_graph_flags_degenerate():
    g = TemporalGraph(3, [], 0)
    d = estimate_distances(g, 3, 0.9, 0)
    assert not d.has_paths
    assert d.diameter == 0
    assert d.connectivity_rate == 0.0
    assert d.avg_distance == 0.0


@pytest.mark.parametrize("seed", range(30))
def test_census_equals_brute_force(seed):
    g = random_temporal_graph(seed + 10)
    d = estimate_distances(g, g.n, 0.9, 0)
    pairs = brute_pair_distances(g)
    if not pairs:
        assert not d.has_paths
        return
    diameter = max(pairs.values())
    assert d.diameter == diameter
    assert d.connectivity_rate == pytest.approx(len(pairs) / (g.n * (g.n - 1)))
    assert d.avg_distance == pytest.approx(sum(pairs.values()) / len(pairs))
    reach = [sum(1 for h in pairs.values() if h <= k) for k in range(diameter + 1)]
    assert [round(x) for x in d.reach_profile] == reach
    d_tau = next(h for h in range(diameter + 1) if reach[h] / reach[diameter] >= 0.9)
    assert d.effective_diameter == d_tau


def test_sampled_diameter_never_exceeds_truth():
    for seed in range(10):
        g = random_temporal_graph(seed, max_n=9, max_edges=25)
        truth = estimate_distances(g, g.n, 0.9, 0).diameter
        for s in (1, 2, 3):
            est = estimate_distances(g, s, 0.9, seed)
            assert est.diameter <= truth


def test_oversized_sample_is_census(g1):
    census = estimate_distances(g1, g1.n, 0.9, 0)
    capped = estimate_distances(g1, 50, 0.9, 123)
    assert capped.sample_size == g1.n
    assert capped.connectivity_rate == census.connectivity_rate


def test_without_replacement_mode(g1):
    d = estimate_distances(g1, 3, 0.9, 5, replace=False)
    assert d.sample_size == 3


def test_validation(g1):
    with pytest.raises(ValueError):
        estimate_distances(g1, 0, 0.9, 0)
    with pytest.raises(ValueError):
        estimate_distances(g1, 2, 0.0, 0)
    with pytest.raises(ValueError):
        estimate_distances(g1, 2, 1.5, 0)


@pytest.mark.parametrize("eps", [1e-200, 1e-160])
def test_recommended_sample_size_tiny_epsilon_is_a_value_error(eps):
    with pytest.raises(ValueError, match=f"epsilon {eps!r} is too small"):
        recommended_sample_size(4, eps)


def test_recommended_sample_size():
    assert recommended_sample_size(1899, 0.25) == 121
    assert recommended_sample_size(2, 1.0) == 1
    sizes = [recommended_sample_size(n, 0.2) for n in (10, 100, 1000)]
    assert sizes == sorted(sizes)
    assert recommended_sample_size(100, 0.1) > recommended_sample_size(100, 0.2)


def test_estimator_accuracy_at_recommended_size(synth200):
    # additive-error behavior at the ln(n)/eps^2 sample size on a graph with
    # known exact values
    graph, _ = synth200
    eps = 0.2
    exact = estimate_distances(graph, graph.n, 0.9, 0)
    s = recommended_sample_size(graph.n, eps)
    zeta_ok = 0
    avg_bound = eps * exact.diameter / exact.connectivity_rate
    runs = 200
    for seed in range(runs):
        est = estimate_distances(graph, s, 0.9, seed)
        if abs(est.connectivity_rate - exact.connectivity_rate) <= eps:
            zeta_ok += 1
        assert abs(est.avg_distance - exact.avg_distance) <= avg_bound
    assert zeta_ok == runs
