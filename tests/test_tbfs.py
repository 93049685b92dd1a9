from __future__ import annotations

import hashlib
import re
from fractions import Fraction

import numpy as np
import pytest

from helpers import (
    bruteforce_all_optimal,
    bursty_temporal_graph,
    foremost_arrival_reference,
    latest_departure_reference,
    make_g1,
    random_temporal_graph,
    random_temporal_graph_large,
    target_view,
    tbfs_reference,
)

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
from tempbc.rng import substream
from tempbc.samplers import SampledPath, _weighted_index, sample_optimal_path

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
        assert r.targets == {}
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
            for z in result.targets:
                assert result.pair_sigma(z) == len(optimal.get(z, []))
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
                assert target_view(tr)[z] == target_view(full)[z]
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


@pytest.mark.parametrize("threads", [1, 2])
def test_invalid_explicit_pairs_fail_before_any_sweep(threads, monkeypatch):
    from tempbc import trk_estimate

    g = random_temporal_graph_large(77, n=60, m=240, max_time=30)
    if threads == 1:
        # the bad pair shares the first chunk with a valid one
        def no_sweep(*args, **kwargs):
            raise AssertionError("a sweep ran before the pairs were checked")

        for name in (
            "_group_latest_departure",
            "_group_foremost_arrival",
            "_prefix_foremost_sweep",
            "_shortest_bfs",
        ):
            monkeypatch.setattr(tbfs_module, name, no_sweep)
    bad_pairs = {
        (3, 3): "source and destination must differ",
        (-1, 0): "source -1 out of range for n=60",
        (0, g.n): "destination 60 out of range for n=60",
    }
    for bad, message in bad_pairs.items():
        for pairs in ([bad, (0, 1)] * 4, [(0, 1), bad, (1, 2), (2, 5)] * 2):
            for estimator in (ob_estimate, trk_estimate):
                for opt in ALL_OPTS:
                    with pytest.raises(ValueError, match=re.escape(message)):
                        estimator(g, opt, len(pairs), 1, threads=threads, pairs=pairs)


# SHA-256 of the records (key, sigma and the predecessor items in order)
# of every full search from each source of the tie graph, and of every
# truncated search over each ordered pair. A full sfm search runs the sh
# search, so both give the same digest. The sh/sfm digest was recorded before
# the search skipped dominated expansions, and all of them before the searches
# kept their state in int-keyed dicts behind the ``records`` view: neither may
# change a record. The truncated sh/sfm digests were recorded again when a
# pair search stopped creating anything but z's appearances in z's hop layer:
# that drops records by design, and test_cut_z_layer_drops_only_dead_records
# holds every kept record to the uncut search. All sh/sfm digests were
# recorded again when the search stopped creating dominated appearances: that
# drops records by design, and test_search_drops_only_dominated_records holds
# every kept record to the search that keeps them. The pfm digests did not
# move until every digest here was recorded again, from the search that still
# kept hop counts, when the hop field left the records: that drops a field,
# not a record, and pins the same order and counts.
FULL_RECORDS_SHA256 = {
    SH: "00c35e2876ee527303d602a721b793b91f2d11c17042fa91d7493b9d2e4f7daf",
    SFM: "00c35e2876ee527303d602a721b793b91f2d11c17042fa91d7493b9d2e4f7daf",
    PFM: "5683de691abf7901c0207e6cb2e29f2f52f54ef3e54a2764626fb67cd107ffab",
}
TRUNCATED_RECORDS_SHA256 = {
    SH: "d0b79a769eee66e7b18f386ffc4feba877aca181a078a0e6fa33148e673c7949",
    SFM: "5107053b59eb4472e46cd4b26794015185cc117626cb452954879a34c7163a30",
    PFM: "3e8d12e9a6ad3e9c080f4d1fee8e4e57cc64198c1dc5b2adfe1f7875750b3289",
}


def _records_digest(results) -> str:
    h = hashlib.sha256()
    for s, result in results:
        for app, rec in result.records.items():
            h.update(f"{s} {app} {rec.sigma} {list(rec.predecessors.items())}\n".encode())
    return h.hexdigest()


@pytest.mark.parametrize("opt", ALL_OPTS, ids=lambda o: o.value)
def test_full_records_are_pinned(ties, opt):
    digest = _records_digest((s, full_tbfs(ties, s, opt)) for s in range(ties.n))
    assert digest == FULL_RECORDS_SHA256[opt]


@pytest.mark.parametrize("opt", ALL_OPTS, ids=lambda o: o.value)
def test_truncated_records_are_pinned(ties, opt):
    pairs = [(s, z) for s in range(ties.n) for z in range(ties.n) if s != z]
    digest = _records_digest((s, truncated_tbfs(ties, s, z, opt)) for s, z in pairs)
    assert digest == TRUNCATED_RECORDS_SHA256[opt]


# The same digests over the bursty graph below, where many nodes have several
# appearances in one frontier layer, so the sh/sfm search scans them as groups
# and records compressed predecessors. Recorded before the search grouped
# them: the expanded records must not change. The truncated digests moved,
# as above, when pair searches cut z's hop layer, and all of them when the
# search stopped creating dominated appearances. All four were recorded
# again, as above, when the hop field left the records.
BURSTY_RECORDS_SHA256 = {
    (SH, "full"): "addd3bfa9fba3b3619726c1de57c002132e1b0c1a002bc050218f38e862033f4",
    (SFM, "full"): "addd3bfa9fba3b3619726c1de57c002132e1b0c1a002bc050218f38e862033f4",
    (SH, "truncated"): "8ffd726bb0d2a9e69775521c317eb72dea915ea56565f3f2d7434b1de02b9d94",
    (SFM, "truncated"): "0ec95655e10bdc0d9a06a975900c25ae91a023b48785b0f2ec3047ea170a0150",
}


@pytest.fixture(scope="module")
def bursty60():
    return bursty_temporal_graph(3, n=60, m=500, max_time=40)


@pytest.mark.parametrize(
    "opt, kind", list(BURSTY_RECORDS_SHA256), ids=lambda x: getattr(x, "value", x)
)
def test_bursty_records_are_pinned(bursty60, opt, kind):
    g = bursty60
    if kind == "full":
        results = ((s, full_tbfs(g, s, opt)) for s in range(g.n))
    else:
        pairs = [(s, z) for s in range(g.n) for z in range(g.n) if s != z]
        results = ((s, truncated_tbfs(g, s, z, opt)) for s, z in pairs)
    assert _records_digest(results) == BURSTY_RECORDS_SHA256[opt, kind]


# Appearances created by all truncated searches over the ordered pairs of
# bursty60. Before pair searches cut z's hop layer they read 78,381 (sh) and
# 35,180 (sfm); a change that stops the cut moves them back up. They then
# read 26,200 and 20,333 until the search stopped creating dominated
# appearances.
BURSTY_TRUNCATED_APPEARANCES = {SH: 24_517, SFM: 18_737}


@pytest.mark.parametrize("opt", [SH, SFM], ids=lambda o: o.value)
def test_bursty_truncated_appearances_are_pinned(bursty60, opt):
    g = bursty60
    pairs = [(s, z) for s in range(g.n) for z in range(g.n) if s != z]
    total = sum(len(result.sigma) for result in tbfs_module.pair_searches(g, pairs, opt))
    assert total == BURSTY_TRUNCATED_APPEARANCES[opt]


# Appearances created by the full searches from every source of bursty60
# (sh and sfm run one search). They read 9,094 while the search created
# dominated appearances; a change that brings them back moves this up.
BURSTY_FULL_APPEARANCES = 5_228


def test_bursty_full_appearances_are_pinned(bursty60):
    for opt in (SH, SFM):
        total = sum(len(full_tbfs(bursty60, s, opt).sigma) for s in range(bursty60.n))
        assert total == BURSTY_FULL_APPEARANCES, opt


def _compressed_entries(result):
    return sum(p < 0 for key_preds in result.preds.values() for p in key_preds)


@pytest.mark.parametrize("graph", ["ties", "bursty60"])
def test_grouped_state_expands_to_the_reference(graph, request):
    # the full sh search must record compressed predecessors on these graphs
    # (no silent fall-back to one scan per appearance), and expanded they
    # must give the reference's records, targets and dependencies
    g = request.getfixturevalue(graph)
    groups = compressed = 0
    for s in range(g.n):
        result = full_tbfs(g, s, SH)
        records, targets, dependency = tbfs_reference(g, s, None, SH)
        groups += len(result.groups)
        compressed += _compressed_entries(result)
        for cut, members in result.groups:
            times = [key % result.base for key in members]
            assert len(members) >= 2 and times == sorted(set(times))
            assert len({key // result.base for key in members}) == 1
            layers = {records[divmod(key, result.base)].hops for key in members}
            assert len(layers) == 1
            assert all(list(result.sigma).index(key) < cut for key in members)
        assert _record_items(result.records) == _record_items(records), s
        assert list(target_view(result).items()) == list(targets.items()), s
        assert list(result.dependency.items()) == list(dependency.items()), s
    assert groups > 0 and compressed > 0


def test_group_members_created_out_of_time_order():
    # s reaches 1 and 2 at label 1; 1 creates (3, 4) before 2 creates (3, 2),
    # so 3's group in layer 2 has its members in reverse creation order. The
    # head (4, 3) follows (3, 2) alone (an explicit predecessor); (4, 5), over
    # two parallel rows, and (5, 5) follow both members (compressed ones).
    g = load_edge_list("0 1 1\n0 1 1\n0 2 1\n1 3 4\n2 3 2\n3 4 3\n3 4 5\n3 4 5\n3 5 5\n")
    s, v, w, x = (g.index_of(u) for u in (0, 3, 4, 5))
    result = full_tbfs(g, s, SH)
    base = result.base
    (g3, (cut, members)), = [(k, gr) for k, gr in enumerate(result.groups) if gr[1][0] // base == v]
    assert members == [v * base + 2, v * base + 4]
    order = list(result.sigma)
    assert order.index(members[0]) > order.index(members[1])
    assert result.preds[w * base + 3] == {members[0]: 1}
    both = ~(g3 * base + 2)
    assert result.preds[w * base + 5] == {both: 2}
    assert result.preds[x * base + 5] == {both: 1}
    assert result.predecessors(w * base + 5) == [(members[0], 2), (members[1], 2)]
    assert result.dependency == bruteforce_dependency(g, s, SH)
    records, _, dependency = tbfs_reference(g, s, None, SH)
    assert _record_items(result.records) == _record_items(records)
    assert list(result.dependency.items()) == list(dependency.items())


def _draw_from_records(source, targets, records, rng):
    """trk's backward walk over expanded records, from the sorted target
    appearances of a single-destination ``targets``."""
    (z, (apps, _)), = targets.items()
    current = apps[_weighted_index(rng, [records[a].sigma for a in apps])]
    path = [current]
    while records[current].predecessors:
        items = list(records[current].predecessors.items())
        current = items[_weighted_index(rng, [mult * records[p].sigma for p, mult in items])][0]
        path.append(current)
    return SampledPath((source, z), tuple(reversed(path)))


@pytest.mark.parametrize("opt", [SH, SFM], ids=lambda o: o.value)
def test_path_draws_match_a_walk_over_the_records(bursty60, opt):
    pairs = _sampled_pairs(bursty60, 11, count=200)
    drawn = compressed = 0
    for i, ((s, z), result) in enumerate(zip(pairs, tbfs_module.pair_searches(bursty60, pairs, opt))):
        if not result.pair_sigma(z):
            continue
        compressed += _compressed_entries(result)
        for j in range(3):
            path = sample_optimal_path(result, substream(i, j))
            drawn_path = _draw_from_records(s, target_view(result), result.records, substream(i, j))
            assert path == drawn_path, (s, z, j)
            drawn += 1
    assert drawn > 100 and compressed > 0


def _record_items(records):
    """A search's records, or a reference search's, as comparable items:
    (appearance, sigma, predecessor items) in creation order."""
    return [(app, rec.sigma, list(rec.predecessors.items())) for app, rec in records.items()]


def _check_against_reference(graph, pairs):
    for opt in ALL_OPTS:
        searches = [(s, None) for s in range(graph.n)] + list(pairs)
        for s, z in searches:
            result = full_tbfs(graph, s, opt) if z is None else truncated_tbfs(graph, s, z, opt)
            records, targets, dependency = tbfs_reference(graph, s, z, opt)
            assert _record_items(result.records) == _record_items(records), (opt, s, z)
            assert list(target_view(result).items()) == list(targets.items()), (opt, s, z)
            assert list(result.dependency.items()) == list(dependency.items()), (opt, s, z)


def _sampled_pairs(graph, seed, count=40):
    rng = np.random.default_rng(seed)
    pairs = []
    while len(pairs) < count:
        s, z = (int(x) for x in rng.integers(graph.n, size=2))
        if s != z:
            pairs.append((s, z))
    return pairs


@pytest.mark.parametrize("seed", range(40))
def test_search_state_matches_the_reference(seed):
    g = random_temporal_graph(seed + 6000)
    _check_against_reference(g, _sampled_pairs(g, seed))


@pytest.mark.parametrize(
    "make",
    [
        lambda: random_temporal_graph_large(7, n=60, m=600, max_time=8),
        lambda: random_temporal_graph_large(8, n=120, m=900, max_time=40),
        lambda: bursty_temporal_graph(3, n=60, m=500, max_time=40),
        lambda: bursty_temporal_graph(4, n=120, m=1000, max_time=80),
    ],
    ids=["dense-60", "uniform-120", "bursty-60", "bursty-120"],
)
def test_search_state_matches_the_reference_on_larger_graphs(make):
    g = make()
    _check_against_reference(g, _sampled_pairs(g, g.n))


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
                deadline = target_view(result)[z][0][-1][1]
                for v, t in list(result.records)[1:]:
                    if v == z:
                        continue
                    arrival = _earliest_arrival_from(g, v, t, z)
                    assert arrival is not None, (seed, opt, s, z, (v, t))
                    if opt is SFM:
                        assert arrival <= deadline


def _check_cut_z_layer(graph) -> int:
    """Holds each pair search of every group to the reference search that
    keeps z's whole hop layer: the kept records are its records, in its
    order; each dropped one is a non-z appearance of z's layer; targets,
    sigma, dependencies and trk's path draws are equal. Returns the number
    dropped."""
    dropped = 0
    references = {}
    for opt in (SH, SFM):
        for group in _pair_groups(graph):
            for (s, z), result in zip(group, tbfs_module.pair_searches(graph, group, opt)):
                if (opt, s, z) not in references:
                    references[opt, s, z] = tbfs_reference(graph, s, z, opt, cut_z_layer=False)
                records, targets, dependency = references[opt, s, z]
                kept = result.records
                assert _record_items(kept) == [
                    item for item in _record_items(records) if item[0] in kept
                ], (opt, s, z)
                z_layer = max(rec.hops for rec in records.values())
                for app in records.keys() - kept.keys():
                    assert app[0] != z and records[app].hops == z_layer, (opt, s, z, app)
                    dropped += 1
                assert target_view(result) == targets, (opt, s, z)
                assert result.pair_sigma(z) == targets[z][1]
                assert result.dependency == dependency, (opt, s, z)
                if result.pair_sigma(z):
                    for j in range(2):
                        path = sample_optimal_path(result, substream(s * graph.n + z, j))
                        drawn = _draw_from_records(s, targets, records, substream(s * graph.n + z, j))
                        assert path == drawn, (opt, s, z, j)
    return dropped


def _check_dominated_dropped(graph) -> int:
    """Holds every full search and every pair search (all ordered pairs,
    grouped as ``pair_searches`` groups them) under sh and sfm to the
    reference search that keeps dominated appearances: the kept records are
    its records, in its order; each dropped one is dominated, its node
    having a record at a lower hop layer at an earlier time; targets, sigma,
    dependencies and trk's path draws are equal. Returns the number
    dropped."""
    dropped = 0
    pairs = [(s, z) for s in range(graph.n) for z in range(graph.n) if s != z]
    for opt in (SH, SFM):
        searches = [(s, None, full_tbfs(graph, s, opt)) for s in range(graph.n)]
        searches += [(s, z, r) for (s, z), r in zip(pairs, tbfs_module.pair_searches(graph, pairs, opt))]
        for s, z, result in searches:
            records, targets, dependency = tbfs_reference(graph, s, z, opt, keep_dominated=True)
            kept = result.records
            assert _record_items(kept) == [
                item for item in _record_items(records) if item[0] in kept
            ], (opt, s, z)
            layers: dict[int, list[tuple[int, int]]] = {}
            for (w, t), rec in records.items():
                layers.setdefault(w, []).append((rec.hops, t))
            for w, t2 in records.keys() - kept.keys():
                hops = records[w, t2].hops
                assert any(h < hops and t < t2 for h, t in layers[w]), (opt, s, z, (w, t2))
                dropped += 1
            assert list(target_view(result).items()) == list(targets.items()), (opt, s, z)
            assert list(result.dependency.items()) == list(dependency.items()), (opt, s, z)
            if z is not None and result.pair_sigma(z):
                for j in range(2):
                    path = sample_optimal_path(result, substream(s * graph.n + z, j))
                    drawn = _draw_from_records(s, targets, records, substream(s * graph.n + z, j))
                    assert path == drawn, (opt, s, z, j)
    return dropped


@pytest.mark.parametrize("seed", range(40))
def test_search_drops_only_dominated_records(seed):
    _check_dominated_dropped(random_temporal_graph(seed + 6000))


@pytest.mark.parametrize("graph", ["ties", "bursty60"])
def test_search_drops_only_dominated_records_on_larger_graphs(graph, request):
    assert _check_dominated_dropped(request.getfixturevalue(graph)) > 0


@pytest.mark.parametrize("seed", range(40))
def test_cut_z_layer_drops_only_dead_records(seed):
    _check_cut_z_layer(random_temporal_graph(seed + 5000))


@pytest.mark.parametrize("graph", ["ties", "bursty60"])
def test_cut_z_layer_drops_only_dead_records_on_larger_graphs(graph, request):
    assert _check_cut_z_layer(request.getfixturevalue(graph)) > 0


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


def _check_handed_latest(graph, groups, monkeypatch, opts=(SH, SFM)):
    """The latest-departure maps that ``pair_searches`` hands to ``_tbfs``
    for each pair of each group, read at every node, against the fixpoint:
    for sh every label counts, for sfm only labels up to z's earliest
    arrival, and that label only into z. A map is compared from its
    source's first departure on, the only labels the search reads. A pair
    with no path gets none."""
    handed = []
    search = tbfs_module._tbfs

    def record(graph, s, z, opt, latest=None):
        handed.append(latest)
        return search(graph, s, z, opt, latest)

    monkeypatch.setattr(tbfs_module, "_tbfs", record)
    reference = {}
    for opt in opts:
        for group in groups:
            handed.clear()
            list(tbfs_module.pair_searches(graph, group, opt))
            assert len(handed) == len(group)
            for k, ((s, z), latest) in enumerate(zip(group, handed)):
                deadline = None
                if graph._out_times[s] and opt is SFM:
                    deadline = foremost_arrival_reference(graph, s, z)
                if not graph._out_times[s] or (opt is SFM and deadline is None):
                    assert latest is None, (opt, len(group), k)
                    continue
                if (z, deadline) not in reference:
                    reference[z, deadline] = latest_departure_reference(graph, z, deadline)
                assert latest.z == z, (opt, len(group), k)
                cut = graph._out_times[s][0]
                expected = [t if t >= cut else 0 for t in reference[z, deadline]]
                got = [latest[v] for v in range(graph.n)]
                assert [t if t >= cut else 0 for t in got] == expected, (opt, len(group), k, s, z)


def _pair_groups(graph):
    """Every ordered pair in a group of its own, then every ordered pair in
    a seeded order, cycled up to the group size, so sources differ and, past
    n(n-1) pairs, pairs repeat; a group of GROUP_WIDTH + 1 pairs ends in a
    group of one."""
    width = tbfs_module.GROUP_WIDTH
    pairs = [(s, z) for s in range(graph.n) for z in range(graph.n) if s != z]
    order = np.random.default_rng(graph.n).permutation(len(pairs))
    groups = [[pair] for pair in pairs]
    groups += [[pairs[order[k % len(pairs)]] for k in range(size)] for size in (2, 5, width, width + 1)]
    return groups


def _check_latest_departure(graph, monkeypatch):
    _check_handed_latest(graph, _pair_groups(graph), monkeypatch)


def test_latest_departure_matches_a_fixpoint_on_the_tie_graph(ties, monkeypatch):
    _check_latest_departure(ties, monkeypatch)


@pytest.mark.parametrize("seed", range(40))
def test_latest_departure_matches_a_fixpoint(seed, monkeypatch):
    _check_latest_departure(random_temporal_graph(seed + 5000), monkeypatch)


def test_sfm_pairs_sharing_a_destination_keep_their_own_deadlines(monkeypatch):
    # z = 2 is first reached at label 1 from 0 and at label 3 from 1; nodes
    # 1 and 3 reach z by the second deadline, not by the first, so the two
    # pairs' lists differ although they share z and one sweep
    g = load_edge_list("0 2 1\n1 3 2\n3 2 3\n0 1 1\n")
    a, b, z = g.index_of(0), g.index_of(1), g.index_of(2)
    deadlines = [foremost_arrival_reference(g, s, z) for s in (a, b)]
    assert deadlines == [1, 3]
    _check_handed_latest(g, [[(a, z), (b, z)], [(b, z), (a, z)]], monkeypatch, opts=(SFM,))
    for s, result in zip((a, b), tbfs_module.pair_searches(g, [(a, z), (b, z)], SFM)):
        records, targets, _ = tbfs_reference(g, s, z, SFM)
        assert _record_items(result.records) == _record_items(records), s
        assert target_view(result) == targets, s


@pytest.mark.parametrize("graph", [*range(40), "ties", "bursty60"])
def test_group_foremost_arrival_matches_the_reference(graph, request):
    # every ordered pair alone, then seeded groups of 2, 5, 64 and 65 pairs,
    # cut at GROUP_WIDTH as pair_searches cuts them; the groups hold pairs
    # that share a destination, sources without out-edges and pairs whose
    # destination is never reached
    g = random_temporal_graph(graph + 5000) if isinstance(graph, int) else request.getfixturevalue(graph)
    width = tbfs_module.GROUP_WIDTH
    reference = {}
    for group in _pair_groups(g):
        for lo in range(0, len(group), width):
            part = group[lo:lo + width]
            got = tbfs_module._group_foremost_arrival(g, part)
            assert len(got) == len(part)
            for k, ((s, z), arrival) in enumerate(zip(part, got)):
                if (s, z) not in reference:
                    reference[s, z] = foremost_arrival_reference(g, s, z)
                assert arrival == reference[s, z], (len(group), lo + k, s, z)


def test_group_foremost_arrival_on_shared_destinations_and_missing_paths():
    # 2 is reached at label 1 from 0 and at label 3 from 1; 4 has no
    # out-edge; 0 is never reached from 2 or 1; the rows 0 -> 5 and 5 -> 4
    # share label 1, so 0 reaches 4 at label 2 through 2, not through 5;
    # the last pair repeats the first
    g = load_edge_list("0 2 1\n0 1 1\n0 5 1\n5 4 1\n1 3 2\n2 4 2\n3 2 3\n5 0 4\n")
    v = {k: g.index_of(k) for k in range(6)}
    pairs = [(0, 2), (1, 2), (4, 2), (2, 0), (1, 0), (0, 4), (5, 4), (0, 2)]
    expected = [1, 3, None, None, None, 2, 1, 1]
    group = [(v[s], v[z]) for s, z in pairs]
    assert [foremost_arrival_reference(g, s, z) for s, z in group] == expected
    assert tbfs_module._group_foremost_arrival(g, group) == expected
    assert [tbfs_module._group_foremost_arrival(g, [pair]) for pair in group] == [[a] for a in expected]
    # no source with out-edges: no pair waits, and every arrival is None
    assert tbfs_module._group_foremost_arrival(g, [(v[4], v[0])] * 3) == [None] * 3


class _RecordingRows(tuple):
    """An ``edges_by_time`` stand-in that records each row a sweep reads
    from a slice of it."""

    def __getitem__(self, index):
        rows = super().__getitem__(index)
        return self._record(rows) if isinstance(index, slice) else rows

    def _record(self, rows):
        for row in rows:
            self.read.append(row)
            yield row


def test_group_foremost_arrival_stops_at_the_last_arrival():
    # both pairs have arrived by label 3; the row at label 1, before either
    # source departs, and every row past the last arrival stay unread
    g = load_edge_list("5 6 1\n0 1 2\n1 2 3\n0 3 3\n2 3 4\n3 4 5\n0 4 5\n")
    rows = _RecordingRows(g.edges_by_time)
    rows.read = []
    g.edges_by_time = rows
    a, b, c = g.index_of(0), g.index_of(1), g.index_of(2)
    assert tbfs_module._group_foremost_arrival(g, [(a, c), (a, b)]) == [3, 2]
    assert rows.read and {t for t, _, _ in rows.read} == {2, 3}
    rows.read.clear()
    assert tbfs_module._group_foremost_arrival(g, [(a, g.index_of(4))]) == [5]
    # 3 -> 4 at label 5 brings the arrival: the row at label 1 and the row
    # 0 -> 4 after it, at the same label, stay unread
    assert len(rows.read) == len(rows) - 2


def test_source_without_out_edges_runs_no_sweep(monkeypatch):
    # an sfm pair's group still calls _group_foremost_arrival, which finds no
    # source to wait for and returns before reading a row
    g = load_edge_list("0 1 1\n1 2 2\n3 0 1\n")
    s = g.index_of(2)  # 2 has no out-edge
    assert not g._out_times[s]
    rows = _RecordingRows(g.edges_by_time)
    rows.read = []
    g.edges_by_time = rows

    def no_sweep(*args, **kwargs):
        raise AssertionError("a source without out-edges ran a sweep")

    for name in ("_prefix_foremost_sweep", "_shortest_bfs"):
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
        assert result.targets == {} and result.dependency == {}
    assert rows.read == []


def test_only_sh_and_sfm_pair_searches_build_the_in_row_index(ties, tmp_path):
    # the index costs 8 B per edge; loading, exact runs and full searches
    # never read it, so they must not build it
    from tempbc import exact_tbc, read_edge_list, write_edge_list

    path = tmp_path / "ties.txt"
    write_edge_list(ties, path)
    g = read_edge_list(path)
    assert g._in_rows is None
    for opt in ALL_OPTS:
        exact_tbc(g, opt, threads=1)
        for s in range(g.n):
            full_tbfs(g, s, opt)
    truncated_tbfs(g, 0, 1, PFM)  # a pfm pair runs the forward sweep alone
    assert g._in_rows is None
    assert truncated_tbfs(g, 0, 1, SH).pair_sigma(1)
    assert len(g._in_rows) == len(g.edges)


def test_estimators_never_build_records(ties, monkeypatch):
    # the estimators read dependencies and the flat search state only; the
    # records view is for callers that ask for it
    from tempbc import Algorithm, exact_tbc, progressive_estimate, rtb_estimate, trk_estimate

    def no_records(result):
        raise AssertionError("an estimator built the records view")

    monkeypatch.setattr(tbfs_module, "_build_records", no_records)
    for opt in ALL_OPTS:
        exact_tbc(ties, opt, threads=1)
        rtb_estimate(ties, opt, 20, 1, threads=1)
        ob_estimate(ties, opt, 60, 1, threads=1)
        trk_estimate(ties, opt, 60, 1, threads=1)
        progressive_estimate(ties, opt, 0.3, 0.1, 1.5, Algorithm.OB, 1, threads=1)
    with pytest.raises(AssertionError, match="records view"):
        full_tbfs(ties, 0, SH).records
