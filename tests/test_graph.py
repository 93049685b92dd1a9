from __future__ import annotations

import io
from collections import Counter

import pytest
from hypothesis import given, strategies as st

from helpers import random_temporal_graph

from tempbc import ParseError, load_edge_list, summarize, write_edge_list


def test_relabeling_ranks_distinct_timestamps():
    g = load_edge_list("0 1 5\n1 2 9\n0 2 9\n")
    assert summarize(g) == (3, 3, 2)
    assert [(e.src, e.dst, e.time) for e in g.edges] == [(0, 1, 1), (1, 2, 2), (0, 2, 2)]


def test_self_loops_dropped_and_counted():
    g = load_edge_list("0 0 3\n0 1 3\n")
    assert summarize(g) == (2, 1, 1)
    assert g.dropped_self_loops == 1


def test_undirected_rows_stored_in_both_orientations():
    g = load_edge_list("0 1 7\n", directed=False)
    assert summarize(g) == (2, 2, 1)
    assert {(e.src, e.dst, e.time) for e in g.edges} == {(0, 1, 1), (1, 0, 1)}


def test_empty_input_gives_empty_graph():
    g = load_edge_list("")
    assert summarize(g) == (0, 0, 0)


def test_comment_and_blank_lines_skipped():
    g = load_edge_list("# header\n% other style\n\n0 1 4\n")
    assert summarize(g) == (2, 1, 1)


def test_malformed_lines_report_line_number():
    with pytest.raises(ParseError) as exc:
        load_edge_list("0 1 4\n0 1\n")
    assert exc.value.line_number == 2
    with pytest.raises(ParseError) as exc:
        load_edge_list("0 1 4\n0 x 5\n")
    assert exc.value.line_number == 2


def test_duplicate_rows_kept_unless_deduped():
    text = "0 1 4\n0 1 4\n"
    assert len(load_edge_list(text).edges) == 2
    assert len(load_edge_list(text, dedupe=True).edges) == 1


def test_arbitrary_ids_are_compacted_with_id_map():
    g = load_edge_list("100 7 10\n7 100 20\n5 100 20\n")
    assert g.n == 3
    assert g.node_ids == (100, 7, 5)
    assert g.index_of(5) == 2
    assert [(e.src, e.dst) for e in g.edges] == [(0, 1), (1, 0), (2, 0)]


@given(st.lists(st.integers(min_value=-(10**12), max_value=10**12), min_size=1, max_size=30))
def test_relabeling_is_order_isomorphic(raw_times):
    lines = "".join(f"0 1 {t}\n" for t in raw_times)
    g = load_edge_list(lines)
    relabeled = [e.time for e in g.edges]
    for a, ta in zip(relabeled, raw_times):
        for b, tb in zip(relabeled, raw_times):
            assert (ta < tb) == (a < b)
    assert g.T == len(set(raw_times))
    assert set(relabeled) == set(range(1, g.T + 1))


@pytest.mark.parametrize("seed", range(25))
def test_writer_round_trip_identity(seed):
    g = random_temporal_graph(seed)
    buf = io.StringIO()
    write_edge_list(g, buf)
    again = load_edge_list(buf.getvalue(), directed=g.directed)
    assert again == g
    assert again.out_adjacency == g.out_adjacency


@pytest.mark.parametrize("seed", range(10))
def test_undirected_adjacency_is_symmetric(seed):
    rows = io.StringIO()
    write_edge_list(random_temporal_graph(seed * 31 + 5, allow_undirected=False), rows)
    g = load_edge_list(rows.getvalue(), directed=False)
    forward = Counter((u, t, w) for u in range(g.n) for t, _, w in g.out_adjacency[u])
    backward = Counter((w, t, u) for u in range(g.n) for t, _, w in g.out_adjacency[u])
    assert forward == backward
    assert Counter(g.edges_by_time) == Counter((t, w, u) for t, u, w in g.edges_by_time)


def _stable_rows_by_time(g):
    return tuple((e.time, e.src, e.dst) for e in sorted(g.edges, key=lambda e: e.time))


@pytest.mark.parametrize("directed", [True, False], ids=["directed", "undirected"])
@pytest.mark.parametrize("seed", range(10))
def test_edges_by_time_is_a_stable_sort_by_time(seed, directed):
    rows = io.StringIO()
    write_edge_list(random_temporal_graph(seed + 600, allow_undirected=False), rows)
    g = load_edge_list(rows.getvalue(), directed=directed)
    assert g.edges_by_time == _stable_rows_by_time(g)


def test_edges_by_time_keeps_input_order_within_a_label(ties):
    # rows of one label stay in input order, not sorted by endpoints: the
    # pfm predecessor order and trk's path draws read that order
    assert ties.edges_by_time == _stable_rows_by_time(ties)
    assert ties.edges_by_time != tuple(sorted(ties.edges_by_time))
    assert all(type(row) is tuple for row in ties.edges_by_time)


def test_adjacency_sorted_by_time():
    g = random_temporal_graph(3)
    for u in range(g.n):
        times = [t for t, _, _ in g.out_adjacency[u]]
        assert times == sorted(times)
        assert all(src == u for _, src, _ in g.out_adjacency[u])
    # the adjacency holds the row objects of edges_by_time, not copies
    rows = {id(row) for row in g.edges_by_time}
    assert all(id(row) in rows for adj in g.out_adjacency for row in adj)


def test_college_msg_summary_when_present():
    from helpers import dataset_path
    from tempbc import read_edge_list

    path = dataset_path("CollegeMsg.txt")
    if path is None:
        pytest.skip("College msg dataset not present (drop CollegeMsg.txt into data/)")
    assert summarize(read_edge_list(path)) == (1899, 59798, 58911)


def test_stream_input_accepted(tmp_path):
    g_text = "0 1 5\n1 2 9\n"
    assert load_edge_list(io.StringIO(g_text)) == load_edge_list(g_text)
    p = tmp_path / "g.txt"
    p.write_text(g_text)
    from tempbc import read_edge_list

    assert read_edge_list(p) == load_edge_list(g_text)
