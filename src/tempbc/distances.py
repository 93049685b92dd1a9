"""Hop-distance summary of a temporal graph by source sampling.

For sampled sources, a hop-layered search finds each node's minimum
strict-temporal hop distance (starting at time 0). It keeps one earliest
arrival key per node, not every vertex appearance: layer h expands only the
nodes whose earliest arrival improved in layer h - 1, which settles every
node at the same hop count as a BFS over all appearances. The per-hop
first-settle histogram scales up to an estimate of the cumulative pair-count
profile, from which diameter, effective diameter, connectivity rate, and
average distance follow. With every source sampled the summary is exact.
"""

from __future__ import annotations

import functools
import math
from bisect import bisect_right
from typing import NamedTuple

from .bounds import epsilon_size
from .graph import TemporalGraph
from .parallel import run_chunks
from .rng import draw_distinct, draw_source, substream

__all__ = ["DistanceSummary", "estimate_distances", "recommended_sample_size"]


class DistanceSummary(NamedTuple):
    """Sampling summary of shortest-temporal hop distances.

    ``reach_profile[h]`` estimates the number of ordered distinct pairs within
    distance h (self pairs excluded). ``effective_diameter`` is the smallest h
    whose profile share reaches ``tau``. ``has_paths`` is False when no
    connected pair was observed; the ratio fields are then reported as 0.
    """

    diameter: int
    effective_diameter: int
    tau: float
    connectivity_rate: float
    avg_distance: float
    reach_profile: list[float]
    sample_size: int
    has_paths: bool


def recommended_sample_size(n: int, epsilon: float) -> int:
    """Source count ceil(ln n / epsilon^2) for additive-error estimates."""
    if n < 2:
        raise ValueError("node count must be >= 2")
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    return epsilon_size(epsilon, lambda e2: math.log(n) / e2)


def _settle_hops(graph: TemporalGraph, s: int) -> dict[int, int]:
    """First-settle hop count per node reachable from (s, 0).

    Hop-bounded Bellman-Ford on appearance keys ``v * (T + 1) + t``: after
    layer h, ``arrival[v]`` is v's earliest over paths of at most h hops. A
    later arrival at v (a larger key) reaches nothing the earliest does not,
    so layer h + 1 expands only the nodes whose arrival improved in layer h,
    each from the key it had at the end of layer h.
    """
    out_keys = graph._out_keys
    out_times = graph._out_times
    base = graph.T + 1
    past = graph.n * base  # above every key
    arrival = {s: s * base}
    settled = {s: 0}
    frontier = [s * base]
    hops = 0
    while frontier:
        hops += 1
        improved: dict[int, int] = {}
        for vk in frontier:
            v, t = divmod(vk, base)
            for key in out_keys[v][bisect_right(out_times[v], t):]:
                w = key // base
                if key < arrival.get(w, past):
                    arrival[w] = key
                    improved[w] = key
                    if w not in settled:
                        settled[w] = hops
        frontier = list(improved.values())
    return settled


def _histogram_chunk(graph: TemporalGraph, sources, lo, hi) -> dict[int, int]:
    dd: dict[int, int] = {}
    for i in range(lo, hi):
        for h in _settle_hops(graph, sources[i]).values():
            dd[h] = dd.get(h, 0) + 1
    return dd


def estimate_distances(
    graph: TemporalGraph,
    sample_size: int,
    tau: float,
    seed: int,
    *,
    replace: bool = True,
    threads: int = 1,
) -> DistanceSummary:
    """Distance summary from ``sample_size`` uniformly sampled sources.

    Sampling is with replacement by default (set ``replace=False`` to draw
    distinct sources). A request of at least n sources runs the exact census
    over all nodes. The diameter estimate never exceeds the true diameter.
    """
    if sample_size < 1:
        raise ValueError("sample size must be >= 1")
    if not 0.0 < tau <= 1.0:
        raise ValueError("tau must be in (0, 1]")
    n = graph.n
    if n == 0:
        return DistanceSummary(0, 0, tau, 0.0, 0.0, [0.0], 0, False)

    if sample_size >= n:
        sources = list(range(n))
    elif replace:
        sources = [draw_source(substream(seed, i), n) for i in range(sample_size)]
    else:
        sources = draw_distinct(substream(seed, 0), n, sample_size)
    s_used = len(sources)

    dd: dict[int, int] = {}
    worker = functools.partial(_histogram_chunk, graph, sources)
    for partial in run_chunks(worker, s_used, threads):
        for h, c in partial.items():
            dd[h] = dd.get(h, 0) + c

    max_distance = max(dd) if dd else 0
    # cumulative settle counts, self-settles (hop 0, one per source) removed
    profile = []
    acc = 0
    for h in range(max_distance + 1):
        acc += dd.get(h, 0)
        profile.append((n / s_used) * (acc - s_used))

    denom = profile[max_distance]
    if denom <= 0:
        return DistanceSummary(0, 0, tau, 0.0, 0.0, profile[:1], s_used, False)

    zeta = denom / (n * (n - 1))
    # a plain left-to-right sum: from Python 3.12 on, sum() of floats is
    # compensated and may round differently
    avg = 0.0
    for h in range(1, max_distance + 1):
        avg += (profile[h] - profile[h - 1]) * h
    avg /= denom
    d_tau = next(h for h in range(max_distance + 1) if profile[h] / denom >= tau)
    return DistanceSummary(
        diameter=max_distance,
        effective_diameter=d_tau,
        tau=tau,
        connectivity_rate=zeta,
        avg_distance=avg,
        reach_profile=profile,
        sample_size=s_used,
        has_paths=True,
    )
