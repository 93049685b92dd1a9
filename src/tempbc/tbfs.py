"""Per-source temporal BFS engines for optimal strict temporal paths.

Counts paths over vertex appearances ``(node, time)``. A strict temporal path
uses strictly increasing edge labels and visits every node at most once. Three
optimality criteria are supported:

* shortest (``sh``): fewest hops over all arrival times,
* shortest-foremost (``sfm``): fewest hops among paths arriving at the
  earliest reachable time,
* prefix-foremost (``pfm``): earliest arrival such that every prefix also
  arrives earliest.

:func:`full_tbfs` searches from one source to every destination,
:func:`truncated_tbfs` to one, and :func:`pair_searches` runs many pair
searches. ``sh`` and ``sfm`` run a hop-layered BFS over appearances
(:func:`_shortest_bfs`). A pair search bounds it by each node's latest
departure toward the destination (:class:`_LatestDeparture`), which one
backward sweep finds for a group of up to ``GROUP_WIDTH`` (128) pairs
(:func:`_group_latest_departure`); under ``sfm`` one forward sweep of the
same group first finds the destinations' earliest arrivals
(:func:`_group_foremost_arrival`). ``pfm`` needs one sweep of the
rows in time order (:func:`_prefix_foremost_sweep`). A :class:`TbfsResult`
keeps the search state flat: exact integer path counts, predecessors and
each destination's targets. It computes the exact rational dependencies
(:func:`_accumulate_dependency`) when first read. Every search and sweep
runs on Python ints alone.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from collections.abc import Iterator
from enum import Enum
from fractions import Fraction
from itertools import islice
from typing import NamedTuple

from .graph import TemporalGraph

__all__ = [
    "PathOptimality",
    "AppearanceRecord",
    "TbfsResult",
    "full_tbfs",
    "truncated_tbfs",
    "pair_searches",
]

Appearance = tuple[int, int]

# the widest sweep group, and so the widest pair chunk: pair k of a group is
# bit k of a node's mask. A sweep scans the same rows at any width, so wider
# groups mean fewer sweeps; 128 keeps each progressive checkpoint batch of up
# to 256 samples at one group per worker of two, and bounds a group's gain
# log (about 0.9 MB on the 20,000-row uniform benchmark graph)
GROUP_WIDTH = 128


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


class AppearanceRecord(NamedTuple):
    """Counting state for one vertex appearance that a search created.

    ``sigma`` is the number of admissible paths whose last edge arrives here;
    ``predecessors`` maps each predecessor appearance to its edge multiplicity
    (parallel edges count separately). All predecessor times are strictly
    smaller than this appearance's time. The appearance itself is the
    record's key in ``TbfsResult.records``.
    """

    sigma: int
    predecessors: dict[Appearance, int]


class TbfsResult:
    """Output of one (possibly truncated) temporal BFS.

    ``dependency[v]`` is the exact rational sum over reachable destinations z
    of (optimal s-z paths through v) / (optimal s-z paths). For a truncated
    run it is restricted to the single requested destination, i.e. the
    per-pair ratio vector. The search does not compute it: the backward
    dependency pass runs on the first read of ``dependency``, and its result
    is cached. Path sampling (trk) reads only ``sigma`` and the predecessors,
    so its searches never run the pass.

    The search state is flat: ``sigma`` and ``preds`` are keyed by
    appearance key ``node * base + time`` (``base`` is ``T + 1``), in
    creation order, and ``preds[key]`` maps each predecessor to its edge
    multiplicity. Under ``sh`` and ``sfm`` a predecessor may be compressed: a
    negative key ``~(g * base + c)`` stands for the first c members of
    ``groups[g]`` (``(cut, member keys)``, see :func:`_shortest_bfs`), each
    with the entry's multiplicity. :meth:`predecessors` expands it, in
    ascending (node, time) order. ``targets[z]`` holds destination z's target
    appearance keys (empty when z is unreachable), and :meth:`pair_sigma`
    its optimal-path count. The estimators read nothing else; no hop count
    is kept.

    Under ``sh`` and ``sfm`` the state holds no dominated appearance (see
    :func:`_shortest_bfs`): a node's appearance later than one at a lower
    hop layer is neither expanded nor a target, so it is never created.
    ``records`` presents the same state keyed by ``(node, time)``, with
    compressed predecessors expanded; it is built on first access and cached.
    """

    __slots__ = (
        "source", "base", "sigma", "preds", "groups", "targets", "_dependency", "_records",
    )

    def __init__(
        self,
        source: int,
        base: int,
        sigma: dict[int, int],
        preds: dict[int, dict[int, int]],
        groups: list[tuple[int, list[int]]],
        targets: dict[int, list[int]],
    ):
        self.source = source
        self.base = base
        self.sigma = sigma
        self.preds = preds
        self.groups = groups
        self.targets = targets
        self._dependency: dict[int, Fraction] | None = None
        self._records: dict[Appearance, AppearanceRecord] | None = None

    @property
    def dependency(self) -> dict[int, Fraction]:
        if self._dependency is None:
            self._dependency = _accumulate_dependency(
                self.source, self.base, self.sigma, self.preds, self.groups, self.targets
            )
        return self._dependency

    @property
    def records(self) -> dict[Appearance, AppearanceRecord]:
        """One record per appearance the search created, in creation order;
        under ``sh`` and ``sfm`` that leaves out every dominated one."""
        if self._records is None:
            self._records = _build_records(self)
        return self._records

    def predecessors(self, key: int) -> list[tuple[int, int]]:
        """``(predecessor key, multiplicity)`` of appearance ``key``, with every
        compressed predecessor expanded into its members."""
        items = []
        for p, mult in self.preds[key].items():
            if p >= 0:
                items.append((p, mult))
            else:
                g, c = divmod(~p, self.base)
                items += [(m, mult) for m in self.groups[g][1][:c]]
        return items

    def pair_sigma(self, z: int) -> int:
        sigma = self.sigma
        return sum(sigma[key] for key in self.targets.get(z, ()))


def _build_records(result: TbfsResult) -> dict[Appearance, AppearanceRecord]:
    """The ``records`` view: one record per appearance, in creation order."""
    base = result.base
    return {
        divmod(key, base): AppearanceRecord(
            sigma, {divmod(p, base): mult for p, mult in result.predecessors(key)}
        )
        for key, sigma in result.sigma.items()
    }


def full_tbfs(graph: TemporalGraph, s: int, opt: PathOptimality) -> TbfsResult:
    """All-destinations optimal path counts and dependency aggregates from s."""
    _check_node(graph, s, "source")
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
    earliest arrival) and are not dominated, and of z's hop layer only z's
    appearances; a disconnected pair gets the sentinel alone.
    """
    return next(pair_searches(graph, [(s, z)], opt))


def pair_searches(
    graph: TemporalGraph, pairs: list[tuple[int, int]], opt: PathOptimality
) -> Iterator[TbfsResult]:
    """The :func:`truncated_tbfs` result of each pair, lazily, in order.

    Every pair is checked before any search runs. Under ``sh`` and ``sfm``
    the pairs are cut into groups of up to ``GROUP_WIDTH`` that share one
    backward sweep (:func:`_group_latest_departure`); an sfm group takes its
    deadlines, the destinations' earliest arrivals, from one forward sweep
    (:func:`_group_foremost_arrival`). A result is the same as the one-pair
    search gives.
    """
    for s, z in pairs:
        _check_node(graph, s, "source")
        _check_node(graph, z, "destination")
        if s == z:
            raise ValueError("source and destination must differ")
    return _pair_searches(graph, pairs, opt)


def _check_node(graph: TemporalGraph, v: int, role: str) -> None:
    if not 0 <= v < graph.n:
        raise ValueError(f"{role} {v} out of range for n={graph.n}")


def _pair_searches(graph, pairs, opt):
    if opt is PathOptimality.PREFIX_FOREMOST:  # pfm pairs share no sweep
        yield from (_tbfs(graph, s, z, opt) for s, z in pairs)
        return
    out_times = graph._out_times
    for lo in range(0, len(pairs), GROUP_WIDTH):
        group = pairs[lo:lo + GROUP_WIDTH]
        # a pair with no path (s without out-edges, an sfm z never reached)
        # has no deadline: no bit, and the sentinel alone
        if opt is PathOptimality.SHORTEST:
            deadlines = [graph.T + 1 if out_times[s] else None for s, _ in group]
        else:
            deadlines = _group_foremost_arrival(graph, group)
        gains = _group_latest_departure(graph, group, deadlines)
        for k, ((s, z), d) in enumerate(zip(group, deadlines)):
            yield _tbfs(graph, s, z, opt, None if d is None else _LatestDeparture(graph, gains, k, z))


def _tbfs(
    graph: TemporalGraph,
    s: int,
    z: int | None,
    opt: PathOptimality,
    latest: _LatestDeparture | None = None,
) -> TbfsResult:
    """The search behind every entry point; ``z=None`` means every destination.

    Runs the criterion's search, then picks each requested destination's
    target appearance keys with one rule: sh takes its min-hop appearances,
    sfm and pfm its earliest appearance. A source without out-edges runs no
    search. One sh or sfm pair runs the bounded BFS only when handed a
    ``latest`` with ``latest[s]`` nonzero (s can reach z); otherwise it
    keeps the sentinel. The caller has checked s and z.
    """
    base = graph.T + 1
    src = s * base
    sigma, preds, groups = {src: 1}, {src: {}}, []
    settled, earliest = {s: [src]}, {s: src}
    if not graph._out_times[s]:
        pass  # s reaches nothing: the sentinel alone, no sweep
    elif opt is PathOptimality.PREFIX_FOREMOST:
        sigma, preds, earliest = _prefix_foremost_sweep(graph, s, stop_node=z)
    elif z is None:
        sigma, preds, groups, settled, earliest = _shortest_bfs(graph, s)
    elif latest is not None and latest[s]:
        sigma, preds, groups, settled, earliest = _shortest_bfs(graph, s, latest)

    if z is not None:
        if opt is PathOptimality.SHORTEST:
            keys = settled.get(z, [])
        else:
            keys = [earliest[z]] if z in earliest else []
        targets = {z: keys}
    elif opt is PathOptimality.SHORTEST:
        del settled[s]
        targets = settled
    else:
        targets = {w: [key] for w, key in earliest.items() if w != s}
    return TbfsResult(s, base, sigma, preds, groups, targets)


def _shortest_bfs(graph: TemporalGraph, s: int, latest: _LatestDeparture | None = None):
    """Hop-layered BFS over vertex appearances from the sentinel (s, 0).

    Creates each appearance in the hop layer that first reaches it and
    counts the minimum-hop paths ending there and the predecessor
    appearances realizing them; the layer itself is not kept. Within a
    layer, appearances are expanded in ascending key order, that is in
    (node, time) order, so predecessor maps are reproducible.

    With ``latest`` set (a :class:`_LatestDeparture`), the search is one
    pair's: it halts after the layer in which the pair's destination z first
    settles. An appearance (w, t2) is created only when ``latest[w] > t2``,
    that is, when it can still reach z, and an appearance of v follows only
    edges labeled up to ``latest[v]``: a row (t2, v, w) with
    ``latest[w] > t2`` lets v leave at t2, so the rows past ``latest[v]``
    lead nowhere live. For an sfm pair, ``latest`` counts no edge past z's
    earliest arrival, and at that label only edges into z, so the same rule
    keeps the search within the foremost deadline. Each layer first looks
    for frontier appearances (v, t) with a counted row into z labeled after
    t. If there are any, z settles in this layer, and it is the last: only
    they expand, each scanning rows only up to v's last counted row into z,
    and only z's appearances are created. Per node they are a prefix of its
    frontier appearances, so a group keeps its first members and a
    compressed predecessor means what it meant in the whole layer.

    An appearance (w, t2) is dominated when w is s, or when w appeared at an
    earlier layer at a time before t2: that earlier appearance reaches every
    appearance (w, t2) reaches, each at a lower layer, and (w, t2) is no
    target (sh takes w's min-hop appearances, sfm its earliest). So no
    dominated appearance is created. ``floor[w]`` holds w's earliest
    appearance key over the finished layers (``floor[s]`` is the sentinel's),
    and a row whose head key is at or above its node's floor is dropped by
    that one comparison: it is dominated, or it exists at an earlier layer.
    The next frontier is every appearance that the layer created.

    A node v with k >= 2 appearances t_1 < ... < t_k in one layer's frontier
    forms a group and scans its out-edges once: member c scans only the rows
    labeled in (t_c, t_{c+1}] (the last one every row after t_k), with the
    summed sigma of members 1..c, since a row there extends exactly those
    members. A head reached that way records one compressed predecessor
    ``~(g * base + c)``, "the first c members of group g", in place of c
    explicit ones; for c = 1 it records member 1's key. Each group is kept as
    ``(cut, members)``: its members' keys in time order, and the number of
    appearances created before its heads' layer.

    Returns the sigma and predecessor maps by appearance key, in creation
    order, each appearance after all of its predecessors; the groups;
    ``settled``, per node its min-hop appearance keys (its sh targets),
    taken from each layer's map of the nodes it reached first; and
    ``floor``, per node its earliest appearance key (the source's is the
    sentinel's). Both are needed: a node's appearances in later layers, at
    times before its floor, lower the floor but are no sh targets.
    """
    base = graph.T + 1
    src = s * base
    sigma = {src: 1}
    preds: dict[int, dict[int, int]] = {src: {}}
    groups: list[tuple[int, list[int]]] = []
    settled = {s: [src]}
    # per reached node, its earliest appearance key over the finished layers
    floor = {s: src}
    out_keys = graph._out_keys
    out_times = graph._out_times
    past = graph.n * base  # above every key: the successor of the last one

    # per node u, the latest label of a row u -> z that counts for this pair
    # (for sfm, one by z's earliest arrival): a frontier appearance (u, t)
    # with into_z[u] > t reaches z in the layer it expands
    z = into_z = None
    if latest is not None:
        z = latest.z
        into_z = {u: t for t, u, _ in graph._rows_into(z) if latest[u] >= t}
        # the row loop reads ``labels`` inline and decodes a node on its
        # first read; every frontier node has been read, s before the
        # search and any other when its appearance was created
        labels, node_gains, bit = latest.labels, latest.gains, latest.bit
    last = False  # expanding z's layer

    frontier = [src]
    while frontier:
        discovered = []
        frontier.sort()
        if into_z:
            near = [vk for vk in frontier if into_z.get(vk // base, 0) > vk % base]
            if near:
                frontier, last = near, True
        cut = len(sigma)
        members = None  # the open group, whose next member is the next key
        for vk, after in zip(frontier, frontier[1:] + [past]):
            v, t = divmod(vk, base)
            times = out_times[v]
            lo = bisect_right(times, t)
            hi = None if latest is None else bisect_right(times, into_z[v] if last else labels[v], lo)
            if members is None:
                pk, sigma_v = vk, sigma[vk]
            else:
                members.append(vk)
                pk = ~(gbase + len(members))
                sigma_v += sigma[vk]
            if after < vk - t + base:
                # v appears again in this layer: that appearance scans on
                hi = bisect_right(times, after - vk + t, lo, hi)
                if members is None:
                    members = [vk]
                    gbase = len(groups) * base
                    groups.append((cut, members))
            else:
                members = None
            for key in out_keys[v][lo:hi]:
                # an appearance of a node that appeared at an earlier layer
                # no later than key's time exists already or is dominated
                if key >= floor.get(key // base, past):
                    continue
                if key not in sigma:
                    if last:
                        # z's layer creates z's appearances alone, and z is
                        # always live
                        if key // base != z:
                            continue
                    elif latest is not None:
                        w, t2 = divmod(key, base)
                        lw = labels[w]
                        if lw < 0:
                            lw = labels[w] = _decode_label(node_gains[w], bit)
                        if lw <= t2:
                            continue
                    sigma[key] = sigma_v
                    preds[key] = {pk: 1}
                    discovered.append(key)
                else:  # created in this layer
                    sigma[key] += sigma_v
                    p = preds[key]
                    p[pk] = p.get(pk, 0) + 1
        first: dict[int, list[int]] = {}  # the nodes this layer reached first
        for key in discovered:
            w = key // base
            if w not in settled:
                first.setdefault(w, []).append(key)
            if key < floor.get(w, past):
                floor[w] = key
        settled.update(first)
        if z in settled:  # never for a full search, whose z is None
            break
        frontier = discovered
    return sigma, preds, groups, settled, floor


def _group_foremost_arrival(graph: TemporalGraph, group) -> list[int | None]:
    """One ascending sweep for a group of up to ``GROUP_WIDTH`` pairs: each
    pair's earliest arrival at its destination, None where there is none.

    Keeps per node w an int mask whose bit k is set once the source of pair
    k has arrived at w; each source starts with its own bit, and a source
    without out-edges gets none. A row (t, u, w) passes to w the bits u held
    before label t: when u gained bits at t itself, its mask from before t
    is read instead, so rows tied at one label cannot chain (strict paths).
    Pair k arrives at the label at which z_k first gains bit k. The rows run
    from the earliest first departure of a source with out-edges, and the
    sweep stops at the row that brings the last pair still waiting.
    """
    arrivals: list[int | None] = [None] * len(group)
    out_times = graph._out_times
    mask = [0] * graph.n
    zbits = [0] * graph.n  # per node, the pairs whose destination it is
    waiting = 0
    for k, (s, z) in enumerate(group):
        if out_times[s]:
            mask[s] |= 1 << k
            zbits[z] |= 1 << k
            waiting |= 1 << k
    if not waiting:
        return arrivals
    first = min(out_times[s][0] for s, _ in group if out_times[s])
    before = [0] * graph.n  # a node's mask before the label it last gained at
    gained_at = [-1] * graph.n
    edges = graph.edges_by_time
    for t, u, w in edges[bisect_left(edges, (first,)):]:
        mu = mask[u]
        if mu:
            mw = mask[w]
            gain = mu & ~mw
            # the bits u gained at t itself do not pass on at t
            if gain and gained_at[u] == t:
                gain = before[u] & ~mw
            if gain:
                if gained_at[w] != t:
                    before[w] = mw
                    gained_at[w] = t
                mask[w] = mw | gain
                reached = gain & zbits[w]
                if reached:
                    waiting &= ~reached
                    while reached:
                        k = reached.bit_length() - 1
                        arrivals[k] = t
                        reached ^= 1 << k
                    if not waiting:
                        break
    return arrivals


def _group_latest_departure(graph: TemporalGraph, group, deadlines) -> list[list[int]] | None:
    """One descending sweep for a group of up to ``GROUP_WIDTH`` pairs.

    Keeps per node v an int mask whose bit k is set once v can leave at the
    current label or later and still reach z_k, the destination of pair k.
    Bit k enters z_k when the sweep reaches label ``deadlines[k]``: ``T + 1``
    for sh, z's earliest arrival for sfm (a pair without one gets no bit).
    A row (t, u, w) passes to u the bits w gained above label t: when w
    gained bits at t itself, its mask from before t is read instead, so rows
    tied at one label cannot chain (strict paths). A bit reaches a node
    first at the node's latest departure for that pair.

    The rows run from the earliest first departure of a source with a
    deadline up to the largest deadline, in segments between distinct
    deadlines; bits enter at their segment's top, so the row loop tests no
    deadline. Returns per node its gains in descending label order, as one
    flat list ``[label, bits, label, bits, ...]`` (ints alone, which the
    garbage collector does not track), for :class:`_LatestDeparture`; None
    when no pair has a deadline.
    """
    entering: dict[int, list[int]] = {}  # deadline -> the pairs whose bit enters there
    for k, d in enumerate(deadlines):
        if d is not None:
            entering.setdefault(d, []).append(k)
    if not entering:
        return None
    first = min(graph._out_times[s][0] for (s, _), d in zip(group, deadlines) if d is not None)
    tops = sorted(entering, reverse=True)
    edges = graph.edges_by_time
    cuts = [bisect_left(edges, (label,)) for label in [top + 1 for top in tops] + [first]]
    mask = [0] * graph.n
    before = [0] * graph.n  # a node's mask before the label it last gained at
    gained_at = [-1] * graph.n
    gains: list[list[int]] = [[] for _ in range(graph.n)]
    for top, hi, lo in zip(tops, cuts, cuts[1:]):
        # no row at label top has run yet, so each one reads the new bits
        for k in entering[top]:
            mask[group[k][1]] |= 1 << k
        for t, u, w in reversed(edges[lo:hi]):
            mw = mask[w] if gained_at[w] != t else before[w]
            if mw:
                mu = mask[u]
                gain = mw & ~mu
                if gain:
                    if gained_at[u] != t:
                        before[u] = mu
                        gained_at[u] = t
                    mask[u] = mu | gain
                    gains[u] += t, gain
    return gains


class _LatestDeparture:
    """The state of one pair search: pair k of its group, its destination z,
    and its latest departures, decoded from the group's gains (see
    :func:`_group_latest_departure`).

    ``latest[w]`` is the largest label at which w can leave and still reach
    z by the pair's deadline (0 where it cannot, ``graph.T + 1`` at z),
    exact at every label from the pair's source's first departure on. Each
    node is decoded when first read: ``labels[w]`` is -1 until then. The
    search reads ``labels`` directly, since a list read inline costs it less
    than a mapping whose ``__missing__`` decodes.
    """

    __slots__ = ("labels", "gains", "bit", "z")

    def __init__(self, graph: TemporalGraph, gains: list[list[int]], k: int, z: int):
        self.labels = [-1] * graph.n
        self.labels[z] = graph.T + 1
        self.gains = gains
        self.bit = 1 << k
        self.z = z

    def __getitem__(self, w: int) -> int:
        label = self.labels[w]
        if label < 0:
            label = self.labels[w] = _decode_label(self.gains[w], self.bit)
        return label


def _decode_label(entries: list[int], bit: int) -> int:
    """The label of the node's gain entry that holds ``bit`` (a node gains
    each bit once), 0 when none does."""
    i, end = 1, len(entries)
    while i < end:
        if entries[i] & bit:
            return entries[i - 1]
        i += 2
    return 0


def _prefix_foremost_sweep(graph: TemporalGraph, s: int, stop_node: int | None = None):
    """Single pass over edges in time order.

    An edge (u, v, t) extends a prefix-foremost path iff u is already settled
    strictly before t. It settles v at t on first arrival, or adds counts when
    t equals v's settle time. Each node has exactly one appearance, at its
    earliest arrival. Edges tied at one label cannot chain (strict paths), so
    any processing order within a label is correct.

    The rows run from s's first departure on: a path from s leaves s on one
    of its out-edges, so no earlier row extends it.

    Returns the sigma and predecessor maps by appearance key, each
    appearance created after its predecessors (they settled at earlier
    labels), and per reached node its one appearance key, in the order
    reached.
    """
    base = never = graph.T + 1
    arrival = [never] * graph.n
    arrival[s] = 0
    src = s * base
    sigma = {src: 1}
    preds: dict[int, dict[int, int]] = {src: {}}
    edges = graph.edges_by_time
    deadline = never  # the stop node's arrival, once it has one
    for t, u, v in edges[bisect_left(edges, (graph._out_times[s][0],)):]:
        if t > deadline:
            break
        a_u = arrival[u]
        if a_u >= t:
            continue
        uk = u * base + a_u
        a_v = arrival[v]
        if a_v > t:  # first arrival: rows come in time order
            arrival[v] = t
            if v == stop_node:
                deadline = t
            key = v * base + t
            sigma[key] = sigma[uk]
            preds[key] = {uk: 1}
        elif a_v == t:
            key = v * base + t
            sigma[key] += sigma[uk]
            p = preds[key]
            p[uk] = p.get(uk, 0) + 1
        # a_v < t: arriving later than the earliest time, not foremost
    return sigma, preds, {key // base: key for key in sigma}


def _accumulate_dependency(
    s: int,
    base: int,
    sigma: dict[int, int],
    preds: dict[int, dict[int, int]],
    groups: list[tuple[int, list[int]]],
    targets: dict[int, list[int]],
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

    Both searches create an appearance after all of its predecessors, so
    walking ``preds`` in reverse creation order reaches each appearance only
    after every one that passes weight to it. A compressed predecessor (g, c)
    collects its weight under its own key, one entry of a difference array
    over group g; member c receives the sum over every prefix c' >= c. Those
    prefixes are complete once the walk has passed every appearance from
    the group's cut on, since the group's heads all lie in the layer after
    its members, so the group is resolved there, before any member is walked.
    """
    ends = []
    for keys in targets.values():
        total = sum(sigma[key] for key in keys)
        if total:
            ends.append((keys, total))
    if not ends:
        return {}
    scale = math.lcm(*[total for _, total in ends])
    seeds = {key: scale // total for keys, total in ends for key in keys}

    acc = dict(seeds)
    totals: dict[int, int] = {}
    walk = reversed(preds.items())
    left = len(preds)
    for g in range(len(groups) - 1, -1, -1):
        cut, members = groups[g]
        _pass_weight_back(islice(walk, left - cut), acc, seeds, sigma, base, s, totals)
        left = cut
        running = 0
        for c in range(len(members), 0, -1):
            running += acc.pop(~(g * base + c), 0)
            if running:
                m = members[c - 1]
                acc[m] = acc.get(m, 0) + running
    _pass_weight_back(walk, acc, seeds, sigma, base, s, totals)
    return {v: Fraction(total, scale) for v, total in totals.items()}


def _pass_weight_back(items, acc, seeds, sigma, base, s, totals) -> None:
    """The walk of :func:`_accumulate_dependency` over ``(key, preds)`` items."""
    for key, key_preds in items:
        w = acc.get(key)
        if not w:
            continue
        for p, mult in key_preds.items():
            acc[p] = acc.get(p, 0) + w * mult
        through = w - seeds.get(key, 0)
        v = key // base
        if through and v != s:
            totals[v] = totals.get(v, 0) + sigma[key] * through
