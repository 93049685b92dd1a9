"""Temporal graph loading, relabeling, and adjacency indexing.

A temporal graph is a set of directed contacts ``(u, v, t)``: node ``u`` can
pass to node ``v`` at discrete time ``t``. On load, node ids are compacted to
``0..n-1`` in first-appearance order and raw timestamps are replaced by their
rank among the distinct raw values (1-based). The relabeling is
order-isomorphic, so strict time ordering along paths is preserved; distinct
raw times are never merged.
"""

from __future__ import annotations

import io
from bisect import bisect_left, bisect_right
from operator import itemgetter
from pathlib import Path
from typing import Iterable, TextIO

__all__ = [
    "TemporalGraph",
    "ParseError",
    "load_edge_list",
    "read_edge_list",
    "write_edge_list",
    "summarize",
]

_COMMENT_PREFIXES = ("#", "%")


class ParseError(ValueError):
    """Raised on a malformed edge-list line; carries the 1-based line number."""

    def __init__(self, message: str, line_number: int):
        super().__init__(f"line {line_number}: {message}")
        self.line_number = line_number


class TemporalGraph:
    """Immutable relabeled temporal edge set with time-sorted adjacency.

    Every stored directed edge is one ``(time, src, dst)`` int tuple; the
    two edge views below share these row objects.

    Attributes:
        n: number of nodes.
        edges: the rows, one per kept input row in input order; undirected
            input stores each row as ``(t, u, v)`` then ``(t, v, u)``, so
            ``len(edges)`` is twice the kept input rows.
            :func:`write_edge_list` reads the input rows back from here.
        T: life-time, the number of distinct time labels.
        directed: False when the input was declared undirected.
        node_ids: original input id for each compact id.
        dropped_self_loops: count of self-loop rows removed at load.
        edges_by_time: the rows sorted stably by time alone (rows of one
            label keep input order), for the sweeps of :mod:`tempbc.tbfs`.

    The out-edge index, which every search reads, lists v's out-edges sorted
    by time, ties by head: ``_out_times[v]`` holds their times, ``_out_keys[v]``
    their heads' appearance keys ``head * (T + 1) + time`` (see :mod:`tempbc.tbfs`).

    The in-row index behind :meth:`_rows_into` is one list of the rows of
    ``edges_by_time`` sorted stably by head, 8 B per edge. Only pair searches
    read it, so it is built on their first call and cached; loading and the
    full searches never build it.
    """

    __slots__ = (
        "n",
        "edges",
        "T",
        "directed",
        "node_ids",
        "dropped_self_loops",
        "edges_by_time",
        "_out_times",
        "_out_keys",
        "_in_rows",
    )

    def __init__(
        self,
        n: int,
        edges: Iterable[tuple[int, int, int]],
        T: int,
        *,
        directed: bool = True,
        node_ids: tuple[int, ...] | None = None,
        dropped_self_loops: int = 0,
    ):
        self.n = n
        self.edges = tuple(edges)
        self.T = T
        self.directed = directed
        self.node_ids = node_ids if node_ids is not None else tuple(range(n))
        self.dropped_self_loops = dropped_self_loops

        self.edges_by_time = tuple(sorted(self.edges, key=itemgetter(0)))
        # equal rows are indistinguishable, so no input-order tie-break
        out: list[list[tuple[int, int, int]]] = [[] for _ in range(n)]
        for row in self.edges_by_time:
            out[row[1]].append(row)
        for lst in out:
            lst.sort()
        self._out_times = tuple([row[0] for row in adj] for adj in out)
        base = T + 1
        self._out_keys = tuple([w * base + t for t, _, w in adj] for adj in out)
        self._in_rows: list[tuple[int, int, int]] | None = None

    def _rows_into(self, node: int) -> list[tuple[int, int, int]]:
        """The rows into ``node`` in time order, from the in-row index."""
        rows = self._in_rows
        if rows is None:
            rows = self._in_rows = sorted(self.edges_by_time, key=itemgetter(2))
        head = itemgetter(2)
        return rows[bisect_left(rows, node, key=head):bisect_right(rows, node, key=head)]

    def index_of(self, original_id: int) -> int:
        """Compact id of an original input node id; ``ValueError`` if there is none."""
        return self.node_ids.index(original_id)

    def out_edges_after(self, node: int, time: int) -> list[tuple[int, int]]:
        """``(time, head)`` of the edges leaving ``node`` labeled after ``time``."""
        base = self.T + 1
        keys = self._out_keys[node][bisect_right(self._out_times[node], time):]
        return [(key % base, key // base) for key in keys]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TemporalGraph):
            return NotImplemented
        return (
            self.n == other.n
            and self.edges == other.edges
            and self.T == other.T
            and self.directed == other.directed
        )

    def __repr__(self) -> str:
        kind = "directed" if self.directed else "undirected"
        return f"TemporalGraph(n={self.n}, edges={len(self.edges)}, T={self.T}, {kind})"


def _iter_lines(source: Iterable[str] | TextIO | str) -> Iterable[str]:
    if isinstance(source, str):
        return io.StringIO(source)
    return source


def load_edge_list(
    source: Iterable[str] | TextIO | str,
    *,
    directed: bool = True,
    dedupe: bool = False,
) -> TemporalGraph:
    """Parse a whitespace-delimited ``u v t`` edge list into a TemporalGraph.

    Lines starting with '#' or '%' and blank lines are skipped. Self-loops are
    dropped (and counted); a simple temporal path can never use one. Duplicate
    rows are kept as parallel temporal edges unless ``dedupe`` is set, which
    for undirected input also drops a row repeated in the other orientation.
    For undirected input each row is stored in both orientations.
    """
    rows: list[tuple[int, int, int]] = []
    dropped = 0
    seen_rows: set[tuple[int, int, int]] = set()
    # compact ids follow first appearance among kept rows, the dict's order
    id_index: dict[int, int] = {}
    for lineno, raw in enumerate(_iter_lines(source), start=1):
        line = raw.strip()
        if not line or line.startswith(_COMMENT_PREFIXES):
            continue
        parts = line.split()
        if len(parts) != 3:
            raise ParseError(f"expected 3 fields, got {len(parts)}", lineno)
        try:
            u, v, t = map(int, parts)
        except ValueError:
            raise ParseError(f"non-integer field in {line!r}", lineno) from None
        if u == v:
            dropped += 1
            continue
        if dedupe:
            key = (u, v, t) if directed or u < v else (v, u, t)
            if key in seen_rows:
                continue
            seen_rows.add(key)
        u = id_index.setdefault(u, len(id_index))
        rows.append((t, u, id_index.setdefault(v, len(id_index))))

    time_rank = {t: i + 1 for i, t in enumerate(sorted({t for t, _, _ in rows}))}
    edges: list[tuple[int, int, int]] = []
    for t, u, v in rows:
        t = time_rank[t]
        edges.append((t, u, v))
        if not directed:
            edges.append((t, v, u))

    node_ids, T = tuple(id_index), len(time_rank)
    # free the parse temporaries before the graph builds its indexes
    del rows, seen_rows, time_rank, id_index
    return TemporalGraph(
        len(node_ids), edges, T, directed=directed, node_ids=node_ids, dropped_self_loops=dropped
    )


def read_edge_list(path: str | Path, *, directed: bool = True, dedupe: bool = False) -> TemporalGraph:
    with open(path, "r", encoding="utf-8") as fh:
        return load_edge_list(fh, directed=directed, dedupe=dedupe)


def write_edge_list(graph: TemporalGraph, destination: TextIO | str | Path) -> None:
    """Emit the graph in the input format, with relabeled ids and times.

    One line per kept input row, in input order; reloading the output with the
    same directedness flag reproduces the graph exactly.
    """
    if isinstance(destination, (str, Path)):
        with open(destination, "w", encoding="utf-8") as fh:
            write_edge_list(graph, fh)
        return
    rows = graph.edges if graph.directed else graph.edges[::2]
    for t, u, v in rows:
        destination.write(f"{u} {v} {t}\n")


def summarize(graph: TemporalGraph) -> tuple[int, int, int]:
    """(node count, stored temporal edge count, life-time)."""
    return graph.n, len(graph.edges), graph.T
