"""Exact normalized temporal betweenness by dependency accumulation.

Per-source dependencies are accumulated as exact rationals over every source
and divided by n(n-1); rounding to float happens once, at the score-vector
boundary, so results are bit-reproducible regardless of worker count.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import TextIO

import numpy as np

from .graph import TemporalGraph
from .parallel import run_chunks
from .rng import draw_source, substream
from .tbfs import PathOptimality, full_tbfs

__all__ = ["ScoreVector", "GuardrailError", "exact_tbc", "exact_tbc_fractions", "work_estimate"]

# coarse per-run cost proxy; exact runs above this need force=True
DEFAULT_WORK_LIMIT = 200_000_000


class GuardrailError(RuntimeError):
    """Refused to start an exact run whose work estimate exceeds the limit."""


@dataclass
class ScoreVector:
    """Per-node scores in [0, 1], indexed by compact node id.

    ``sample_size`` is set by the sampling estimators and absent for exact
    computation. ``optimality`` may be None for vectors read back from CSV.
    """

    optimality: PathOptimality | None
    values: np.ndarray
    sample_size: int | None = None

    @property
    def n(self) -> int:
        return len(self.values)

    def write_csv(self, destination: TextIO | str | Path, node_ids=None) -> None:
        if isinstance(destination, (str, Path)):
            with open(destination, "w", encoding="utf-8", newline="\n") as fh:
                self.write_csv(fh, node_ids)
            return
        ids = node_ids if node_ids is not None else range(self.n)
        destination.write("node_id,score\n")
        for nid, val in zip(ids, self.values):
            destination.write(f"{nid},{val:.17g}\n")

    @classmethod
    def read_csv(cls, source: TextIO | str | Path, optimality: PathOptimality | None = None):
        """Read a score CSV back; returns (vector, node_ids)."""
        if isinstance(source, (str, Path)):
            with open(source, "r", encoding="utf-8") as fh:
                return cls.read_csv(fh, optimality)
        header = source.readline().strip()
        if header != "node_id,score":
            raise ValueError(f"unexpected score CSV header: {header!r}")
        ids: list[int] = []
        vals: list[float] = []
        for line in source:
            line = line.strip()
            if not line:
                continue
            nid, _, val = line.partition(",")
            ids.append(int(nid))
            vals.append(float(val))
        return cls(optimality, np.array(vals, dtype=np.float64)), ids


def work_estimate(graph: TemporalGraph) -> int:
    return graph.n * max(1, len(graph.edges))


def _rtb_chunk(graph, opt, seed, sources, lo, hi):
    """Summed dependency vectors of samples lo..hi-1: ``sources[i]``, or a
    source drawn from substream i when ``sources`` is None."""
    total: dict[int, Fraction] = {}
    for i in range(lo, hi):
        s = sources[i] if sources is not None else draw_source(substream(seed, i), graph.n)
        for v, val in full_tbfs(graph, s, opt).dependency.items():
            total[v] = total.get(v, Fraction(0)) + val
    return total


def exact_tbc_fractions(
    graph: TemporalGraph, opt: PathOptimality, *, threads: int = 1
) -> dict[int, Fraction]:
    """Normalized betweenness of every node as exact rationals."""
    n = graph.n
    scores = {v: Fraction(0) for v in range(n)}
    if n <= 1:
        return scores
    scale = Fraction(1, n * (n - 1))
    worker = functools.partial(_rtb_chunk, graph, opt, None, range(n))
    for partial in run_chunks(worker, n, threads, chunk=32):
        for v, val in partial.items():
            scores[v] += val
    return {v: val * scale for v, val in scores.items()}


def exact_tbc(
    graph: TemporalGraph,
    opt: PathOptimality,
    *,
    threads: int = 1,
    force: bool = False,
    work_limit: int = DEFAULT_WORK_LIMIT,
) -> ScoreVector:
    """Exact normalized temporal betweenness of all nodes.

    Refuses graphs whose work estimate exceeds ``work_limit`` unless ``force``
    is set; a full run visits every source and can take hours on large inputs.
    """
    if not force and work_estimate(graph) > work_limit:
        raise GuardrailError(
            f"work estimate {work_estimate(graph)} exceeds limit {work_limit}; "
            "pass force=True (or --force) to run anyway"
        )
    fractions = exact_tbc_fractions(graph, opt, threads=threads)
    values = np.array([float(fractions[v]) for v in range(graph.n)], dtype=np.float64)
    return ScoreVector(opt, values)
