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
from bisect import bisect_right
from dataclasses import dataclass
from operator import itemgetter
from pathlib import Path
from typing import Iterable, TextIO

__all__ = [
    "TemporalEdge",
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


@dataclass(frozen=True, slots=True)
class TemporalEdge:
    """One directed contact. ``time`` is a relabeled label in ``1..T``."""

    src: int
    dst: int
    time: int


class TemporalGraph:
    """Immutable relabeled temporal edge set with time-sorted adjacency.

    Attributes:
        n: number of nodes.
        edges: stored directed edges, one per kept input row in input
            order; undirected input stores each row as (u, v) then (v, u),
            so ``len(edges)`` is twice the kept input rows.
            :func:`write_edge_list` reads the input rows back from here.
        T: life-time, the number of distinct time labels.
        directed: False when the input was declared undirected.
        node_ids: original input id for each compact id.
        dropped_self_loops: count of self-loop rows removed at load.
        edges_by_time: every stored edge as a plain ``(time, src, dst)``
            int tuple, sorted stably by time alone (rows of one label keep
            input order), for the sweeps of :mod:`tempbc.tbfs`.
        out_adjacency: per node, the same row objects for its out-edges,
            sorted ascending by time, ties by head.
    """

    __slots__ = (
        "n",
        "edges",
        "T",
        "directed",
        "node_ids",
        "dropped_self_loops",
        "out_adjacency",
        "edges_by_time",
        "_out_times",
        "_id_index",
    )

    def __init__(
        self,
        n: int,
        edges: list[TemporalEdge],
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
        self._id_index = {orig: i for i, orig in enumerate(self.node_ids)}

        self.edges_by_time = tuple(
            sorted(((e.time, e.src, e.dst) for e in self.edges), key=itemgetter(0))
        )
        # equal rows are indistinguishable, so no input-order tie-break
        out: list[list[tuple[int, int, int]]] = [[] for _ in range(n)]
        for row in self.edges_by_time:
            out[row[1]].append(row)
        for lst in out:
            lst.sort()
        self.out_adjacency = tuple(map(tuple, out))
        self._out_times = tuple([row[0] for row in adj] for adj in self.out_adjacency)

    def index_of(self, original_id: int) -> int:
        """Compact id of an original input node id."""
        return self._id_index[original_id]

    def out_edges_after(self, node: int, time: int) -> list[tuple[int, int]]:
        """``(time, head)`` of the edges leaving ``node`` labeled after ``time``."""
        adj = self.out_adjacency[node]
        return [(t, w) for t, _, w in adj[bisect_right(self._out_times[node], time):]]

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
    rows are kept as parallel temporal edges unless ``dedupe`` is set. For
    undirected input each row is stored in both orientations.
    """
    rows: list[tuple[int, int, int]] = []
    dropped = 0
    seen_rows: set[tuple[int, int, int]] = set()
    for lineno, raw in enumerate(_iter_lines(source), start=1):
        line = raw.strip()
        if not line or line.startswith(_COMMENT_PREFIXES):
            continue
        parts = line.split()
        if len(parts) != 3:
            raise ParseError(f"expected 3 fields, got {len(parts)}", lineno)
        try:
            u, v, t = (int(p) for p in parts)
        except ValueError:
            raise ParseError(f"non-integer field in {line!r}", lineno) from None
        if u == v:
            dropped += 1
            continue
        if dedupe:
            if (u, v, t) in seen_rows:
                continue
            seen_rows.add((u, v, t))
        rows.append((u, v, t))

    id_index: dict[int, int] = {}
    for u, v, _ in rows:
        if u not in id_index:
            id_index[u] = len(id_index)
        if v not in id_index:
            id_index[v] = len(id_index)

    time_rank = {t: i + 1 for i, t in enumerate(sorted({t for _, _, t in rows}))}

    edges: list[TemporalEdge] = []
    for u, v, t in rows:
        u, v, t = id_index[u], id_index[v], time_rank[t]
        edges.append(TemporalEdge(u, v, t))
        if not directed:
            edges.append(TemporalEdge(v, u, t))

    return TemporalGraph(
        len(id_index),
        edges,
        len(time_rank),
        directed=directed,
        node_ids=tuple(sorted(id_index, key=id_index.get)),
        dropped_self_loops=dropped,
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
    for e in rows:
        destination.write(f"{e.src} {e.dst} {e.time}\n")


def summarize(graph: TemporalGraph) -> tuple[int, int, int]:
    """(node count, stored temporal edge count, life-time)."""
    return graph.n, len(graph.edges), graph.T
