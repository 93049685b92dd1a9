"""Shared test utilities: graph generators and symbolic oracles."""

from __future__ import annotations

import math
import os
from bisect import bisect_left, bisect_right
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


def target_view(tbfs: TbfsResult) -> dict[int, tuple[tuple[tuple[int, int], ...], int]]:
    """Per destination of a TBFS result, its target appearances in sorted
    (node, time) order and its optimal-path count, read from ``targets`` and
    ``pair_sigma``: the form :func:`tbfs_reference` gives."""
    return {
        z: (tuple(divmod(key, tbfs.base) for key in sorted(keys)), tbfs.pair_sigma(z))
        for z, keys in tbfs.targets.items()
    }


def enumerate_dag_paths(tbfs: TbfsResult) -> list[tuple[tuple[tuple[int, int], ...], Fraction]]:
    """Every appearance path of a single-destination TBFS result with its
    analytic probability under the backward sampling walk."""
    (z, (appearances, sigma)), = target_view(tbfs).items()
    assert sigma > 0
    results: list[tuple[tuple[tuple[int, int], ...], Fraction]] = []

    def walk(app, prob: Fraction, suffix):
        rec = tbfs.records[app]
        if not rec.predecessors:
            results.append(((app, *suffix), prob))
            return
        for pred, mult in rec.predecessors.items():
            branch = Fraction(mult * tbfs.records[pred].sigma, rec.sigma)
            walk(pred, prob * branch, (app, *suffix))

    for app in appearances:
        walk(app, Fraction(tbfs.records[app].sigma, sigma), ())
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


# Reference searches: the tuple-keyed engine that kept one record per
# appearance, keyed by (node, time). tempbc.tbfs keeps the same state in flat
# int-keyed dicts; tests hold it to these records, targets and dependencies.


class ReferenceRecord:
    """One appearance of a reference search: its hop layer, ``sigma`` and
    ``predecessors``. The library keeps no hop count, so tests compare its
    records with these on ``(sigma, predecessors)`` in creation order; the
    layer serves the tests that ask which layer an appearance lies in."""

    __slots__ = ("hops", "sigma", "predecessors")

    def __init__(self, hops: int, sigma: int):
        self.hops = hops
        self.sigma = sigma
        self.predecessors: dict[tuple[int, int], int] = {}


def tbfs_reference(
    graph: TemporalGraph,
    s: int,
    z: int | None,
    opt: PathOptimality,
    *,
    cut_z_layer: bool = True,
    keep_dominated: bool = False,
):
    """(records, targets, dependency) of one search; ``z=None`` means every
    destination, as in ``tempbc.tbfs._tbfs``. ``targets`` maps each
    destination to its sorted target appearances and optimal-path count, as
    :func:`target_view` reads them from a result. An sh/sfm pair search keeps
    only z's appearances in z's hop layer; ``cut_z_layer=False`` keeps the
    whole layer, as the searches did before they cut it. An sh/sfm search
    creates no dominated appearance; ``keep_dominated=True`` creates and
    counts them, as the searches did before they dropped them."""
    records, first_time = {(s, 0): ReferenceRecord(0, 1)}, {s: 0}
    if not graph._out_times[s]:
        pass
    elif opt is PathOptimality.PREFIX_FOREMOST:
        records, first_time = _prefix_foremost_sweep_reference(graph, s, stop_node=z)
    elif z is None:
        records, settle_apps, first_time = _shortest_bfs_reference(graph, s, keep_dominated=keep_dominated)
    else:
        arrival = None
        if opt is PathOptimality.SHORTEST_FOREMOST:
            arrival = foremost_arrival_reference(graph, s, z)
        if opt is PathOptimality.SHORTEST or arrival is not None:
            latest = latest_departure_reference(graph, z, arrival)
            if latest[s]:
                records, settle_apps, first_time = _shortest_bfs_reference(
                    graph,
                    s,
                    stop_node=z,
                    max_time=arrival,
                    latest=latest,
                    cut_z_layer=cut_z_layer,
                    keep_dominated=keep_dominated,
                )

    targets: dict[int, tuple[tuple[tuple[int, int], ...], int]] = {}
    for w in [w for w in first_time if w != s] if z is None else [z]:
        if w not in first_time:
            apps = ()
        elif opt is PathOptimality.SHORTEST:
            apps = tuple(sorted(settle_apps[w]))
        else:
            apps = ((w, first_time[w]),)
        targets[w] = (apps, sum(records[a].sigma for a in apps))
    return records, targets, _accumulate_dependency_reference(s, records, targets)


def foremost_arrival_reference(graph: TemporalGraph, s: int, z: int) -> int | None:
    """Fixpoint of arrival[w] = min t over rows (t, u, w) with
    arrival[u] < t, with arrival[s] = 0; z's value, None when z is never
    reached. Reads ``graph.edges`` in input order, not the time-sorted rows
    the sweeps read."""
    never = graph.T + 1
    arrival = [never] * graph.n
    arrival[s] = 0
    changed = True
    while changed:
        changed = False
        for t, u, w in graph.edges:
            if arrival[u] < t < arrival[w]:
                arrival[w] = t
                changed = True
    return None if arrival[z] == never else arrival[z]


def latest_departure_reference(graph: TemporalGraph, z: int, max_time: int | None = None) -> list[int]:
    """Fixpoint of latest[v] = max t over out-edges (v, w, t) with
    latest[w] > t, 0 where v cannot reach z and ``graph.T + 1`` at z; with
    ``max_time``, only labels up to it, and that label only into z."""
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


def _shortest_bfs_reference(
    graph, s, *, stop_node=None, max_time=None, latest=None, cut_z_layer=False, keep_dominated=False
):
    """Hop-layered BFS over (node, time) appearances, one record each. With
    ``cut_z_layer``, the layer in which ``stop_node`` settles keeps only
    that node's appearances: nothing on an optimal path to it reads the
    others. Without ``keep_dominated``, an appearance (w, t2) is not created
    when w appeared at an earlier layer at a time before t2 (s did, at 0):
    it would be neither expanded nor a target."""
    src_app = (s, 0)
    records = {src_app: ReferenceRecord(0, 1)}
    settle_hops = {s: 0}
    settle_apps = {s: [src_app]}
    min_time = {s: 0}
    never = graph.T + 1
    # per source, its out-rows (time, head) sorted by time, then by head,
    # built from the edges rather than read from the index under test
    out_rows = [[] for _ in range(graph.n)]
    for t, u, w in graph.edges:
        out_rows[u].append((t, w))
    for rows in out_rows:
        rows.sort()

    frontier = [src_app]
    layer = 0
    while frontier:
        layer += 1
        discovered = {}
        for v, t in sorted(frontier):
            sigma_v = records[(v, t)].sigma
            rows = out_rows[v]
            for t2, w in rows[bisect_right(rows, (t, graph.n)):]:
                if max_time is not None:
                    if t2 > max_time:
                        break
                    if t2 == max_time and w != stop_node:
                        continue
                app = (w, t2)
                known = records.get(app)
                if known is None:
                    if not keep_dominated and min_time.get(w, never) < t2:
                        continue
                    if latest is not None and latest[w] <= t2:
                        continue
                    known = ReferenceRecord(layer, 0)
                    records[app] = known
                    discovered[app] = known
                elif known.hops != layer:
                    continue
                known.sigma += sigma_v
                preds = known.predecessors
                preds[(v, t)] = preds.get((v, t), 0) + 1
        frontier = [(w, t2) for w, t2 in discovered if t2 < min_time.get(w, never)]
        for w, t2 in discovered:
            if w not in settle_hops:
                settle_hops[w] = layer
                settle_apps[w] = [(w, t2)]
            elif settle_hops[w] == layer:
                settle_apps[w].append((w, t2))
            if t2 < min_time.get(w, never):
                min_time[w] = t2
        if stop_node is not None and stop_node in settle_hops:
            if cut_z_layer:
                for w, t2 in discovered:
                    if w != stop_node:
                        del records[(w, t2)]
            break
    return records, settle_apps, min_time


def _prefix_foremost_sweep_reference(graph, s, stop_node=None):
    """One pass over the rows in time order, one record per reached node."""
    never = graph.T + 1
    arrival = [never] * graph.n
    arrival[s] = 0
    records = {(s, 0): ReferenceRecord(0, 1)}
    edges = graph.edges_by_time
    deadline = never
    for t, u, v in edges[bisect_left(edges, (graph._out_times[s][0],)):]:
        if t > deadline:
            break
        a_u = arrival[u]
        if a_u >= t:
            continue
        u_rec = records[(u, a_u)]
        a_v = arrival[v]
        if a_v > t:
            arrival[v] = t
            if v == stop_node:
                deadline = t
            rec = ReferenceRecord(u_rec.hops + 1, u_rec.sigma)
            rec.predecessors[(u, a_u)] = 1
            records[(v, t)] = rec
        elif a_v == t:
            rec = records[(v, t)]
            rec.sigma += u_rec.sigma
            rec.hops = min(rec.hops, u_rec.hops + 1)
            preds = rec.predecessors
            preds[(u, a_u)] = preds.get((u, a_u), 0) + 1
    return records, {v: t for v, t in records}


def _accumulate_dependency_reference(s, records, targets):
    """Backward pass over the records in exact integers, one Fraction per node."""
    sigmas = [sigma for _, sigma in targets.values() if sigma]
    if not sigmas:
        return {}
    scale = math.lcm(*sigmas)
    seeds = {}
    for apps, sigma in targets.values():
        if sigma:
            for app in apps:
                seeds[app] = scale // sigma
    acc = dict(seeds)
    totals = {}
    for app, rec in reversed(records.items()):
        w = acc.get(app)
        if not w:
            continue
        for pred, mult in rec.predecessors.items():
            acc[pred] = acc.get(pred, 0) + w * mult
        through = w - seeds.get(app, 0)
        v = app[0]
        if through and v != s:
            totals[v] = totals.get(v, 0) + rec.sigma * through
    return {v: Fraction(total, scale) for v, total in totals.items()}


def weighted_kendall_reference(x, y) -> float:
    """``evaluation.weighted_kendall`` by its pair-sum definition, on n x n
    numpy matrices: sign matrices of x and y, pair weights w_i + w_j with
    w = 1/(1 + rank) for ranks by descending score (ties by ascending id),
    averaged over the rankings of x and of y."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if len(x) < 2:
        return 1.0
    sx = np.sign(x[:, None] - x[None, :])
    sy = np.sign(y[:, None] - y[None, :])
    upper = np.triu(np.ones((len(x), len(x)), dtype=bool), 1)
    taus = []
    for scores in (x, y):
        order = np.lexsort((np.arange(len(scores)), -scores))
        ranks = np.empty(len(scores), dtype=np.int64)
        ranks[order] = np.arange(len(scores))
        w = 1.0 / (1.0 + ranks.astype(np.float64))
        weight = w[:, None] + w[None, :]
        num = float(np.sum(weight * sx * sy, where=upper))
        den_x = float(np.sum(weight * sx * sx, where=upper))
        den_y = float(np.sum(weight * sy * sy, where=upper))
        if den_x == 0.0 or den_y == 0.0:
            return 1.0 if np.array_equal(sx, sy) else 0.0
        taus.append(num / np.sqrt(den_x * den_y))
    return 0.5 * (taus[0] + taus[1])
