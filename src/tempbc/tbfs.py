"""Per-source temporal BFS engines for optimal strict temporal paths.

Counts paths over vertex appearances ``(node, time)``. A strict temporal path
uses strictly increasing edge labels and visits every node at most once. Three
optimality criteria are supported:

* shortest (``sh``): fewest hops over all arrival times,
* shortest-foremost (``sfm``): fewest hops among paths arriving at the
  earliest reachable time,
* prefix-foremost (``pfm``): earliest arrival such that every prefix also
  arrives earliest.

:func:`full_tbfs` (every destination) and :func:`truncated_tbfs` (one
destination) run the same routine. For ``sh``/``sfm`` it runs a hop-layered
BFS over appearances; for ``pfm`` a single sweep of edges in time order
suffices. One rule then picks each destination's target appearances: ``sh``
its min-hop appearances, ``sfm`` and ``pfm`` its earliest one.

The BFS does not expand an appearance that an earlier layer dominates (same
node, earlier time), since that adds no record. For one ``sh``/``sfm`` pair it
first sweeps the edges backward from the destination z and then creates only
appearances that can still reach z, so a truncated result's ``records`` hold
the source sentinel and the live appearances only.

Every sweep unpacks the plain ``(time, src, dst)`` rows of
``graph.edges_by_time`` from s's first departure on: a search from s leaves
s on one of its out-edges, so nothing it creates or follows has an earlier
label. A source without out-edges keeps the sentinel ``(s, 0)`` alone.

Path counts are exact integers; dependency aggregates are exact rationals.
The backward dependency pass walks the records in reverse creation order,
which is a topological order of the predecessor DAG because every record is
created after its predecessors. It runs in Python ints over one common
denominator, the lcm of the destinations' path counts, and forms one Fraction
per node at the end.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction

from .graph import TemporalGraph

__all__ = [
    "PathOptimality",
    "AppearanceRecord",
    "PairTargets",
    "TbfsResult",
    "full_tbfs",
    "truncated_tbfs",
]

Appearance = tuple[int, int]


class PathOptimality(str, Enum):
    SHORTEST = "sh"
    SHORTEST_FOREMOST = "sfm"
    PREFIX_FOREMOST = "pfm"

    @classmethod
    def parse(cls, tag: str) -> "PathOptimality":
        try:
            return cls(tag.lower())
        except ValueError:
            raise ValueError(f"unknown path optimality {tag!r}; expected sh, sfm, or pfm") from None


@dataclass(slots=True)
class AppearanceRecord:
    """Counting state for one reachable vertex appearance.

    ``sigma`` is the number of admissible paths whose last edge arrives here;
    ``predecessors`` maps each predecessor appearance to its edge multiplicity
    (parallel edges count separately). All predecessor times are strictly
    smaller than this appearance's time. The appearance itself is the
    record's key in ``TbfsResult.records``.
    """

    hops: int
    sigma: int
    predecessors: dict[Appearance, int] = field(default_factory=dict)


@dataclass(slots=True, frozen=True)
class PairTargets:
    """Optimal-path endpoints for one destination: target appearances and the
    total optimal-path count sigma."""

    appearances: tuple[Appearance, ...]
    sigma: int


@dataclass(slots=True)
class TbfsResult:
    """Output of one (possibly truncated) temporal BFS.

    ``dependency[v]`` is the exact rational sum over reachable destinations z
    of (optimal s-z paths through v) / (optimal s-z paths). For a truncated
    run it is restricted to the single requested destination, i.e. the
    per-pair ratio vector.
    """

    source: int
    optimality: PathOptimality
    records: dict[Appearance, AppearanceRecord]
    per_target: dict[int, PairTargets]
    dependency: dict[int, Fraction]

    def pair_sigma(self, z: int) -> int:
        info = self.per_target.get(z)
        return info.sigma if info is not None else 0


def full_tbfs(graph: TemporalGraph, s: int, opt: PathOptimality) -> TbfsResult:
    """All-destinations optimal path counts and dependency aggregates from s."""
    return _tbfs(graph, s, None, opt)


def truncated_tbfs(graph: TemporalGraph, s: int, z: int, opt: PathOptimality) -> TbfsResult:
    """Single-pair variant of :func:`full_tbfs`.

    Prunes exploration that cannot lie on an optimal s-z path: hop layers past
    the destination's optimal depth, (for the foremost criteria) edges at or
    beyond the destination's earliest arrival, and (for ``sh`` and ``sfm``)
    appearances from which z can no longer be reached. The returned sigma,
    target set, and per-node ratios match the full search restricted to z.
    Under ``sh`` and ``sfm``, ``records`` holds the source sentinel ``(s, 0)``
    and only the appearances that can still reach z (for ``sfm``, by z's
    earliest arrival); a disconnected pair gets the sentinel alone.
    """
    return _tbfs(graph, s, z, opt)


def _tbfs(graph: TemporalGraph, s: int, z: int | None, opt: PathOptimality) -> TbfsResult:
    """The search behind both entry points; ``z=None`` means every destination.

    Runs the criterion's search, then picks each requested destination's
    target appearances with one rule: sh takes its min-hop appearances in
    sorted order, sfm and pfm its earliest appearance. A source without
    out-edges runs no search or sweep.
    """
    if not 0 <= s < graph.n:
        raise ValueError(f"source {s} out of range for n={graph.n}")
    if z is not None:
        if not 0 <= z < graph.n:
            raise ValueError(f"destination {z} out of range for n={graph.n}")
        if s == z:
            raise ValueError("source and destination must differ")

    records, first_time = {(s, 0): AppearanceRecord(0, 1)}, {s: 0}
    if not graph._out_times[s]:
        pass  # s reaches nothing: the sentinel alone, no sweep
    elif opt is PathOptimality.PREFIX_FOREMOST:
        records, first_time = _prefix_foremost_sweep(graph, s, stop_node=z)
    elif z is None:
        records, settle_apps, first_time = _shortest_bfs(graph, s)
    else:
        # one sh or sfm pair; an sfm path can only use edges up to z's
        # earliest arrival
        arrival = None
        if opt is PathOptimality.SHORTEST_FOREMOST:
            arrival = _foremost_arrival(graph, s, z)
        if opt is PathOptimality.SHORTEST or arrival is not None:
            latest = _latest_departure(graph, s, z, arrival)
            if latest[s]:
                records, settle_apps, first_time = _shortest_bfs(
                    graph, s, stop_node=z, max_time=arrival, latest=latest
                )

    per_target: dict[int, PairTargets] = {}
    for w in [w for w in first_time if w != s] if z is None else [z]:
        if w not in first_time:  # z is unreachable
            apps = ()
        elif opt is PathOptimality.SHORTEST:
            apps = tuple(sorted(settle_apps[w]))
        else:
            apps = ((w, first_time[w]),)
        per_target[w] = PairTargets(apps, sum(records[a].sigma for a in apps))
    dependency = _accumulate_dependency(s, records, per_target)
    return TbfsResult(s, opt, records, per_target, dependency)


def _shortest_bfs(
    graph: TemporalGraph,
    s: int,
    *,
    stop_node: int | None = None,
    max_time: int | None = None,
    latest: list[int] | None = None,
):
    """Hop-layered BFS over vertex appearances from the sentinel (s, 0).

    Computes, per appearance, the minimum hop count, the number of minimum-hop
    paths ending there, and the predecessor appearances realizing them. Within
    a layer, appearances are expanded in sorted order so predecessor maps are
    reproducible. With ``stop_node`` set, the search halts after the layer in
    which that node first settles. With ``max_time`` set, edges labeled beyond
    it are skipped, and edges labeled exactly ``max_time`` are followed only
    into ``stop_node``. With ``latest`` set (see :func:`_latest_departure`),
    an appearance (w, t2) is created only when ``latest[w] > t2``, that is,
    when it can still reach the stop node.

    An appearance (w, t2) is not expanded when w is s, or when w appeared at
    an earlier layer at a time before t2: that earlier appearance reaches
    every appearance (w, t2) reaches, each at a lower layer, so expanding
    (w, t2) would add nothing. Its record is still created and counted.

    Returns the records, in creation order, each after all of its
    predecessors; per node its min-hop appearances; and per node its earliest
    appearance time (the source's is 0).
    """
    src_app = (s, 0)
    records: dict[Appearance, AppearanceRecord] = {src_app: AppearanceRecord(0, 1)}
    settle_hops: dict[int, int] = {s: 0}
    settle_apps: dict[int, list[Appearance]] = {s: [src_app]}
    min_time: dict[int, int] = {s: 0}
    never = graph.T + 1
    out_adj = graph.out_adjacency
    out_times = graph._out_times

    frontier: list[Appearance] = [src_app]
    layer = 0
    while frontier:
        layer += 1
        discovered: dict[Appearance, AppearanceRecord] = {}
        for v, t in sorted(frontier):
            rec = records[(v, t)]
            sigma_v = rec.sigma
            adj = out_adj[v]
            for j in range(bisect_right(out_times[v], t), len(adj)):
                t2, _, w = adj[j]
                if max_time is not None:
                    if t2 > max_time:
                        break
                    if t2 == max_time and w != stop_node:
                        continue
                app = (w, t2)
                known = records.get(app)
                if known is None:
                    if latest is not None and latest[w] <= t2:
                        continue
                    known = AppearanceRecord(layer, 0)
                    records[app] = known
                    discovered[app] = known
                elif known.hops != layer:
                    continue
                known.sigma += sigma_v
                preds = known.predecessors
                preds[(v, t)] = preds.get((v, t), 0) + 1
        # leave dominated appearances out; min_time still holds the earlier
        # layers only, so appearances of one node in this layer all stay
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
            break
    return records, settle_apps, min_time


def _latest_departure(graph: TemporalGraph, s: int, z: int, max_time: int | None = None) -> list[int]:
    """Per node v, the largest label at which v can leave and still reach z.

    Returns a list indexed by node, 0 where v cannot reach z; z itself gets
    ``graph.T + 1``. One sweep over the rows in descending time: a row
    (t, u, w) lets u leave at t when w can leave after t. Rows tied at one
    label cannot chain (strict paths), and the strict comparison keeps them
    apart. With ``max_time`` set, only rows labeled up to it count, and those
    labeled exactly ``max_time`` only into z. Labels below s's first
    departure are skipped, so a value below it reads 0: a search from s asks
    only about labels t2 at or above it, where ``latest[w] <= t2`` comes out
    the same either way, and ``latest[s]`` is exact.
    """
    edges = graph.edges_by_time
    latest = [0] * graph.n
    latest[z] = graph.T + 1
    start = bisect_left(edges, (graph._out_times[s][0],))
    stop = len(edges)
    if max_time is not None:
        stop = bisect_left(edges, (max_time,))
        for _, u, w in edges[stop:bisect_left(edges, (max_time + 1,))]:
            if w == z and not latest[u]:
                latest[u] = max_time
    for t, u, w in reversed(edges[start:stop]):
        if latest[w] > t and not latest[u]:
            latest[u] = t
    return latest


def _prefix_foremost_sweep(graph: TemporalGraph, s: int, stop_node: int | None = None):
    """Single pass over edges in time order.

    An edge (u, v, t) extends a prefix-foremost path iff u is already settled
    strictly before t. It settles v at t on first arrival, or adds counts when
    t equals v's settle time. Each node has exactly one appearance, at its
    earliest arrival. Edges tied at one label cannot chain (strict paths), so
    any processing order within a label is correct.

    Returns the records, each created after its predecessors (they settled
    at earlier labels), and the arrival time of every reached node, in the
    order reached.
    """
    never = graph.T + 1
    arrival = [never] * graph.n
    arrival[s] = 0
    records: dict[Appearance, AppearanceRecord] = {(s, 0): AppearanceRecord(0, 1)}
    edges = graph.edges_by_time
    deadline = never  # the stop node's arrival, once it has one
    for t, u, v in edges[bisect_left(edges, (graph._out_times[s][0],)):]:
        if t > deadline:
            break
        a_u = arrival[u]
        if a_u >= t:
            continue
        u_rec = records[(u, a_u)]
        a_v = arrival[v]
        if a_v > t:  # first arrival: rows come in time order
            arrival[v] = t
            if v == stop_node:
                deadline = t
            rec = AppearanceRecord(u_rec.hops + 1, u_rec.sigma)
            rec.predecessors[(u, a_u)] = 1
            records[(v, t)] = rec
        elif a_v == t:
            rec = records[(v, t)]
            rec.sigma += u_rec.sigma
            rec.hops = min(rec.hops, u_rec.hops + 1)
            preds = rec.predecessors
            preds[(u, a_u)] = preds.get((u, a_u), 0) + 1
        # a_v < t: arriving later than the earliest time, not foremost
    return records, {v: t for v, t in records}


def _foremost_arrival(graph: TemporalGraph, s: int, z: int) -> int | None:
    """Earliest arrival time at z from s (None when unreachable)."""
    arrival = [graph.T + 1] * graph.n
    arrival[s] = 0
    edges = graph.edges_by_time
    for t, u, w in edges[bisect_left(edges, (graph._out_times[s][0],)):]:
        if arrival[u] < t < arrival[w]:
            if w == z:
                return t
            arrival[w] = t
    return None


def _accumulate_dependency(
    s: int,
    records: dict[Appearance, AppearanceRecord],
    per_target: dict[int, PairTargets],
) -> dict[int, Fraction]:
    """One backward pass over the predecessor DAG, in exact integers.

    In rational terms, a target appearance a of destination z starts with
    weight sigma(a)/sigma_sz, the fraction of optimal s-z paths ending there,
    and passes its weight to each predecessor p in proportion to
    mult*sigma(p)/sigma(a). The weight a node's appearances receive (seeds
    excluded) is the sum over z of the fraction of optimal s-z paths with
    that node internal.

    The pass tracks W(a) = weight(a)/sigma(a) instead. Then the update is
    W(p) += W(a)*mult, and every seed of z is 1/sigma_sz. With D the lcm of
    the nonzero sigma_sz, D*W is an integer at every seed and stays one under
    the sums and integer products of the walk, so the walk does no division,
    no gcd and no rounding. The dependency of v is the sum over its
    appearances of sigma(a)*D*W(a), divided by D once, as an exact Fraction.

    Both searches create a record after all of its predecessors, so walking
    the records in reverse creation order reaches each appearance only after
    every record that passes weight to it.
    """
    sigmas = [info.sigma for info in per_target.values() if info.sigma]
    if not sigmas:
        return {}
    scale = math.lcm(*sigmas)
    seeds: dict[Appearance, int] = {}
    for info in per_target.values():
        if info.sigma:
            for app in info.appearances:
                seeds[app] = scale // info.sigma

    acc = dict(seeds)
    totals: dict[int, int] = {}
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
