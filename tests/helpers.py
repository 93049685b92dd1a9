"""Shared test utilities: graph generators and symbolic oracles."""

from __future__ import annotations

import os
from fractions import Fraction
from pathlib import Path

import numpy as np

from tempbc import TemporalGraph, load_edge_list
from tempbc.bruteforce import _all_paths_from, _filter_optimal
from tempbc.tbfs import PathOptimality, TbfsResult

G1_TEXT = "1 2 1\n2 3 2\n1 3 2\n3 4 3\n2 4 3\n"


def make_g1() -> TemporalGraph:
    return load_edge_list(G1_TEXT)


def random_temporal_graph(
    seed: int,
    max_n: int = 9,
    max_edges: int = 25,
    max_time: int = 6,
    allow_undirected: bool = True,
    allow_parallel: bool = True,
) -> TemporalGraph:
    """Small random temporal graph, loaded through the parser."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, max_n + 1))
    m = int(rng.integers(1, max_edges + 1))
    lines = []
    for _ in range(m):
        u = int(rng.integers(n))
        v = int(rng.integers(n - 1))
        if v >= u:
            v += 1
        t = int(rng.integers(1, max_time + 1))
        lines.append(f"{u} {v} {t}")
    if not allow_parallel:
        lines = sorted(set(lines))
    directed = True if not allow_undirected else bool(rng.integers(2))
    return load_edge_list("\n".join(lines) + "\n", directed=directed)


def random_temporal_graph_large(seed: int, n: int, m: int, max_time: int) -> TemporalGraph:
    rng = np.random.default_rng(seed)
    lines = []
    for _ in range(m):
        u = int(rng.integers(n))
        v = int(rng.integers(n - 1))
        if v >= u:
            v += 1
        lines.append(f"{u} {v} {int(rng.integers(1, max_time + 1))}")
    return load_edge_list("\n".join(lines) + "\n")


def bursty_temporal_graph(seed: int, n: int, m: int, max_time: int) -> TemporalGraph:
    """Hub-heavy graph with clustered times: Zipf endpoints and eight Gaussian
    time bursts, so many nodes reappear at several hop layers."""
    rng = np.random.default_rng(seed)
    weights = 1.0 / np.arange(1, n + 1, dtype=np.float64) ** 1.1
    weights /= weights.sum()
    src = rng.choice(n, size=m, p=weights)
    dst = rng.choice(n, size=m, p=weights)
    centers = rng.uniform(1, max_time, size=8)
    times = centers[rng.integers(8, size=m)] + rng.normal(0.0, 2.0, size=m)
    times = np.clip(np.rint(times), 1, max_time).astype(np.int64)
    lines = [f"{u} {v} {t}" for u, v, t in zip(src, dst, times) if u != v]
    return load_edge_list("\n".join(lines) + "\n")


def path_appearances(path, source: int) -> tuple[tuple[int, int], ...]:
    """Edge-sequence path to its vertex-appearance sequence, with the (s, 0) sentinel."""
    apps = [(source, 0)]
    apps.extend((v, t) for _, v, t in path)
    return tuple(apps)


def enumerate_dag_paths(tbfs: TbfsResult) -> list[tuple[tuple[tuple[int, int], ...], Fraction]]:
    """Every appearance path of a single-destination TBFS result with its
    analytic probability under the backward sampling walk."""
    (z, info), = tbfs.per_target.items()
    assert info.sigma > 0
    results: list[tuple[tuple[tuple[int, int], ...], Fraction]] = []

    def walk(app, prob: Fraction, suffix):
        rec = tbfs.records[app]
        if not rec.predecessors:
            results.append(((app, *suffix), prob))
            return
        for pred, mult in rec.predecessors.items():
            branch = Fraction(mult * tbfs.records[pred].sigma, rec.sigma)
            walk(pred, prob * branch, (app, *suffix))

    for app in info.appearances:
        walk(app, Fraction(tbfs.records[app].sigma, info.sigma), ())
    return results


def bruteforce_all_optimal(graph: TemporalGraph, s: int, opt: PathOptimality, budget: int = 200_000):
    """Per-destination optimal paths of one source, straight from the definition."""
    by_dest = _all_paths_from(graph, s, budget)
    return {z: _filter_optimal(by_dest, z, opt) for z in by_dest if z != s}


def expectation_rtb(graph: TemporalGraph, opt: PathOptimality) -> dict[int, Fraction]:
    """Exact expectation of the source-sampling estimator over its sample space."""
    from tempbc import full_tbfs

    n = graph.n
    total: dict[int, Fraction] = {}
    for s in range(n):
        for v, val in full_tbfs(graph, s, opt).dependency.items():
            total[v] = total.get(v, Fraction(0)) + Fraction(1, n) * val / (n - 1)
    return total


def expectation_ob(graph: TemporalGraph, opt: PathOptimality) -> dict[int, Fraction]:
    """Exact expectation of the pair-sampling estimator over its sample space."""
    from tempbc import truncated_tbfs

    n = graph.n
    total: dict[int, Fraction] = {}
    weight = Fraction(1, n * (n - 1))
    for s in range(n):
        for z in range(n):
            if s == z:
                continue
            for v, val in truncated_tbfs(graph, s, z, opt).dependency.items():
                total[v] = total.get(v, Fraction(0)) + weight * val
    return total


def expectation_trk(graph: TemporalGraph, opt: PathOptimality) -> dict[int, Fraction]:
    """Exact expectation of the path-sampling estimator: all pairs crossed with
    all paths at their analytic backward-walk probabilities."""
    from tempbc import truncated_tbfs

    n = graph.n
    total: dict[int, Fraction] = {}
    weight = Fraction(1, n * (n - 1))
    for s in range(n):
        for z in range(n):
            if s == z:
                continue
            result = truncated_tbfs(graph, s, z, opt)
            if result.pair_sigma(z) == 0:
                continue
            for apps, prob in enumerate_dag_paths(result):
                for v, _ in apps[1:-1]:
                    total[v] = total.get(v, Fraction(0)) + weight * prob
    return total


def bruteforce_betweenness_all_opts(
    graph: TemporalGraph, budget: int = 200_000
) -> dict[PathOptimality, dict[int, Fraction]]:
    """Normalized betweenness for all three criteria, sharing one DFS per source."""
    n = graph.n
    totals = {opt: {v: Fraction(0) for v in range(n)} for opt in PathOptimality}
    if n <= 1:
        return totals
    scale = Fraction(1, n * (n - 1))
    for s in range(n):
        by_dest = _all_paths_from(graph, s, budget)
        for opt in PathOptimality:
            for z in by_dest:
                if z == s:
                    continue
                paths = _filter_optimal(by_dest, z, opt)
                if not paths:
                    continue
                sigma = len(paths)
                acc = totals[opt]
                for p in paths:
                    for _, v, _ in p[:-1]:
                        acc[v] += Fraction(1, sigma)
    return {
        opt: {v: val * scale for v, val in acc.items()} for opt, acc in totals.items()
    }


def dataset_path(name: str) -> Path | None:
    """Optional real dataset lookup: $TEMPBC_DATA_DIR or <repo>/data."""
    root = os.environ.get("TEMPBC_DATA_DIR")
    candidates = []
    if root:
        candidates.append(Path(root) / name)
    candidates.append(Path(__file__).resolve().parent.parent / "data" / name)
    for c in candidates:
        if c.is_file():
            return c
    return None
