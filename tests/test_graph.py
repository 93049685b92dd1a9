from __future__ import annotations

import io
from collections import Counter

import pytest
from hypothesis import given, strategies as st

from helpers import random_temporal_graph

from tempbc import ParseError, TemporalGraph, load_edge_list, summarize, write_edge_list


def test_relabeling_ranks_distinct_timestamps():
    g = load_edge_list("0 1 5\n1 2 9\n0 2 9\n")
    assert summarize(g) == (3, 3, 2)
    assert [(u, v, t) for t, u, v in g.edges] == [(0, 1, 1), (1, 2, 2), (0, 2, 2)]


def test_self_loops_dropped_and_counted():
    g = load_edge_list("0 0 3\n0 1 3\n")
    assert summarize(g) == (2, 1, 1)
    assert g.dropped_self_loops == 1


def test_undirected_rows_stored_in_both_orientations():
    g = load_edge_list("0 1 7\n", directed=False)
    assert summarize(g) == (2, 2, 1)
    assert {(u, v, t) for t, u, v in g.edges} == {(0, 1, 1), (1, 0, 1)}


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
    # an undirected contact listed in both orientations is one contact
    cases = [("0 1 4\n0 1 4\n", True, 2, 1), ("1 2 5\n2 1 5\n2 3 6\n1 4 5\n4 3 6\n", False, 10, 8)]
    for text, directed, kept, deduped in cases:
        assert len(load_edge_list(text, directed=directed).edges) == kept
        assert len(load_edge_list(text, directed=directed, dedupe=True).edges) == deduped


def test_arbitrary_ids_are_compacted_with_id_map():
    g = load_edge_list("100 7 10\n7 100 20\n5 100 20\n")
    assert g.n == 3
    assert g.node_ids == (100, 7, 5)
    assert g.index_of(5) == 2
    assert [(u, v) for _, u, v in g.edges] == [(0, 1), (1, 0), (2, 0)]


@given(st.lists(st.integers(min_value=-(10**12), max_value=10**12), min_size=1, max_size=30))
def test_relabeling_is_order_isomorphic(raw_times):
    lines = "".join(f"0 1 {t}\n" for t in raw_times)
    g = load_edge_list(lines)
    relabeled = [t for t, _, _ in g.edges]
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
    assert again._out_times == g._out_times
    assert again._out_keys == g._out_keys


@pytest.mark.parametrize("seed", range(10))
def test_undirected_adjacency_is_symmetric(seed):
    rows = io.StringIO()
    write_edge_list(random_temporal_graph(seed * 31 + 5, allow_undirected=False), rows)
    g = load_edge_list(rows.getvalue(), directed=False)
    forward = Counter((u, t, w) for u in range(g.n) for t, w in _index_rows(g, u))
    backward = Counter((w, t, u) for u in range(g.n) for t, w in _index_rows(g, u))
    assert forward == backward
    assert Counter(g.edges_by_time) == Counter((t, w, u) for t, u, w in g.edges_by_time)


def _scan_rows(g, u):
    """``(time, head)`` of u's out-edges, by a scan of ``edges``, sorted."""
    return sorted((t, w) for t, src, w in g.edges if src == u)


def _index_rows(g, u):
    """``(time, head)`` of u's out-edges, decoded from the out-edge index."""
    base = g.T + 1
    return [(key % base, key // base) for key in g._out_keys[u]]


def _stable_rows_by_time(g):
    return tuple(sorted(g.edges, key=lambda row: row[0]))


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
        assert g._out_times[u] == sorted(g._out_times[u])
        # the keys decode to exactly u's rows, in (time, head) order
        assert _index_rows(g, u) == _scan_rows(g, u)
        assert g._out_times[u] == [t for t, _ in _scan_rows(g, u)]


@pytest.mark.parametrize("directed", [True, False], ids=["directed", "undirected"])
@pytest.mark.parametrize("seed", range(5))
def test_out_edges_after_matches_a_scan_of_the_edges(seed, directed):
    rows = io.StringIO()
    write_edge_list(random_temporal_graph(seed + 700, allow_undirected=False), rows)
    g = load_edge_list(rows.getvalue(), directed=directed)
    for u in range(g.n):
        for time in (0, (g.T + 1) // 2, g.T):
            expected = [(t, w) for t, w in _scan_rows(g, u) if t > time]
            assert g.out_edges_after(u, time) == expected, (u, time)


@pytest.mark.parametrize("directed", [True, False], ids=["directed", "undirected"])
@pytest.mark.parametrize("seed", range(5))
def test_edge_views_share_one_row_object_per_edge(seed, directed):
    rows = io.StringIO()
    write_edge_list(random_temporal_graph(seed + 900, allow_undirected=False), rows)
    g = load_edge_list(rows.getvalue(), directed=directed)
    assert all(type(row) is tuple and len(row) == 3 for row in g.edges)
    # every stored edge is one tuple, and each view holds that same object
    edge_ids = sorted(map(id, g.edges))
    assert len(set(edge_ids)) == len(g.edges)
    assert sorted(map(id, g.edges_by_time)) == edge_ids


@pytest.mark.parametrize("directed", [True, False], ids=["directed", "undirected"])
@pytest.mark.parametrize("seed", range(5))
def test_rows_into_a_node_come_in_time_order(seed, directed):
    rows = io.StringIO()
    write_edge_list(random_temporal_graph(seed + 950, allow_undirected=False), rows)
    g = load_edge_list(rows.getvalue(), directed=directed)
    assert g._in_rows is None
    for v in range(g.n):
        # the same row objects, in edges_by_time order
        into = [row for row in g.edges_by_time if row[2] == v]
        assert list(map(id, g._rows_into(v))) == list(map(id, into))
    assert len(g._in_rows) == len(g.edges)


_ROUND_TRIP_TEXT = {
    "directed": ("5 7 10\n7 9 20\n5 9 20\n9 5 30\n7 9 20\n", True),
    "undirected": ("5 7 10\n7 9 20\n5 9 20\n9 5 30\n7 9 20\n", False),
    "self-loops-dropped": ("5 5 1\n5 7 10\n7 7 15\n7 9 20\n9 9 25\n", True),
}


@pytest.mark.parametrize("case", list(_ROUND_TRIP_TEXT))
def test_constructor_round_trip_from_rows(case):
    text, directed = _ROUND_TRIP_TEXT[case]
    g = load_edge_list(text, directed=directed)
    again = TemporalGraph(
        g.n, list(g.edges), g.T, directed=g.directed,
        node_ids=g.node_ids, dropped_self_loops=g.dropped_self_loops,
    )
    assert again == g
    assert again._out_times == g._out_times
    assert again._out_keys == g._out_keys
    assert again.edges_by_time == g.edges_by_time
    assert (again.node_ids, again.dropped_self_loops) == (g.node_ids, g.dropped_self_loops)
    if case == "self-loops-dropped":
        assert g.dropped_self_loops == 3


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


def test_a_byte_order_mark_reads_as_the_plain_file(tmp_path):
    # some editors save UTF-8 with a leading BOM; it is not part of the
    # first row's source id
    from tempbc import read_edge_list

    text = "1 2 1\n2 3 2\n1 3 2\n"
    plain, marked = tmp_path / "plain.txt", tmp_path / "bom.txt"
    plain.write_text(text, encoding="utf-8")
    marked.write_text(text, encoding="utf-8-sig")
    assert marked.read_bytes().startswith(b"\xef\xbb\xbf")
    graph = read_edge_list(marked)
    assert graph == read_edge_list(plain)
    assert graph.node_ids == (1, 2, 3)
