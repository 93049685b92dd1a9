"""The sample pipeline and the fixed-sample-size estimators built on it.

Every estimator draws one sample per index and folds a sparse per-node
contribution; :func:`chunk_contributions` is the one place samples are drawn
and turned into those contributions, a chunk of indices at a time:

* ``rtb``: a uniform source; its full-TBFS dependency vector (exact's census
  is the same over ``sources=range(n)``).
* ``ob``: a uniform ordered node pair; each internal node's optimal-path
  fraction from one truncated TBFS.
* ``trk``: a uniform ordered pair, then one optimal path drawn uniformly from
  the pair's optimal-path set; 1 for every internal node of the drawn path.

Sample i draws from its own substream ``substream(seed, i)``, so a seeded
run is reproducible for any worker count. A chunk draws all of its pairs
before it searches, so that :func:`tempbc.tbfs.pair_searches` can share
sweeps among them; pair work is cut into chunks of at most
``tbfs.GROUP_WIDTH`` (128) pairs, each one sweep group (see
:func:`tempbc.parallel.chunk_ranges`), and source work into about four
chunks per worker. Chunk sums fold exactly, so
where the chunks are cut does not matter. rtb divides by r(n-1), ob by r,
and trk multiplies its integer counts by 1/r.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Iterator
from enum import Enum
from pathlib import Path
from typing import TYPE_CHECKING, NamedTuple, TextIO

from . import tbfs
from .graph import TemporalGraph
from .parallel import run_chunks
from .rng import Substream, draw_pair, draw_source, randbelow, substream
from .tbfs import Appearance, PathOptimality, TbfsResult, full_tbfs, pair_searches

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "Algorithm",
    "SampledPath",
    "ScoreVector",
    "rtb_estimate",
    "ob_estimate",
    "trk_estimate",
    "chunk_contributions",
    "sample_optimal_path",
]


class Algorithm(str, Enum):
    RTB = "rtb"
    OB = "ob"
    TRK = "trk"


class ScoreVector:
    """Per-node scores in [0, 1], indexed by compact node id.

    ``scores`` holds the Python floats the estimator computed; ``values``
    presents them as a float64 array, built on first read and cached; it
    needs numpy, which nothing else in the package imports.
    ``optimality`` may be None for vectors read back from CSV.
    """

    def __init__(self, optimality: PathOptimality | None, scores: list[float]):
        self.optimality = optimality
        self.scores = scores

    @functools.cached_property
    def values(self) -> np.ndarray:
        import numpy as np

        return np.array(self.scores, dtype=np.float64)

    @property
    def n(self) -> int:
        return len(self.scores)

    def write_csv(self, destination: TextIO | str | Path, node_ids=None) -> None:
        if isinstance(destination, (str, Path)):
            with open(destination, "w", encoding="utf-8", newline="\n") as fh:
                self.write_csv(fh, node_ids)
            return
        ids = node_ids if node_ids is not None else range(self.n)
        destination.write("node_id,score\n")
        for nid, val in zip(ids, self.scores):
            destination.write(f"{nid},{val:.17g}\n")

    @classmethod
    def read_csv(cls, source: TextIO | str | Path):
        """Read a score CSV back; returns (vector, node_ids). A line without a
        comma, a repeated node id or a score that is not finite raises
        ``ValueError`` naming the line, as does a number that does not parse."""
        if isinstance(source, (str, Path)):
            with open(source, "r", encoding="utf-8-sig") as fh:  # a leading BOM is dropped
                return cls.read_csv(fh)
        header = source.readline().strip()
        if header != "node_id,score":
            raise ValueError(f"unexpected score CSV header: {header!r}")
        ids: list[int] = []
        vals: list[float] = []
        seen: set[int] = set()
        name = getattr(source, "name", "score CSV")
        for number, line in enumerate(source, start=2):
            line = line.strip()
            if not line:
                continue
            try:  # a fault of the line is reported with its number
                nid, comma, val = line.partition(",")
                if not comma:
                    raise ValueError(f"no comma in {line!r}")
                node, score = int(nid), float(val)
                if node in seen:
                    raise ValueError(f"node id {node} repeats")
                if not math.isfinite(score):
                    raise ValueError(f"score {val!r} is not finite")
            except ValueError as exc:
                raise ValueError(f"{name} line {number}: {exc}") from None
            seen.add(node)
            ids.append(node)
            vals.append(score)
        return cls(None, vals), ids


class SampledPath(NamedTuple):
    """One drawn optimal path, as its vertex-appearance sequence.

    ``appearances`` runs from the source sentinel (s, 0) to a target
    appearance of z; internal nodes are those strictly between the endpoints.
    """

    pair: tuple[int, int]
    appearances: tuple[Appearance, ...]

    def internal(self) -> list[int]:
        return [v for v, _ in self.appearances[1:-1]]


def chunk_contributions(
    graph: TemporalGraph, opt: PathOptimality, algorithm: Algorithm, seed, fixed, lo: int, hi: int
) -> Iterator[dict]:
    """Sparse per-node contributions of samples lo..hi-1, in index order.

    Sample i is ``fixed[i]`` (a source for rtb, a pair otherwise) or is drawn
    from ``substream(seed, i)`` when ``fixed`` is None; trk draws its path
    from that substream either way. Every sample of the chunk is drawn (and
    every pair checked) before the first search, and the pair searches run
    through :func:`tempbc.tbfs.pair_searches`, which shares sweeps among sh
    or sfm pairs. rtb and ob give exact rationals, trk gives 1 per internal
    node of the drawn path, in path order, and nothing for an unconnected
    pair. The searches run as the contributions are read.
    """
    samples = range(lo, hi)
    if algorithm is Algorithm.RTB:
        if fixed is None:
            sources = [draw_source(substream(seed, i), graph.n) for i in samples]
        else:
            sources = fixed[lo:hi]
        return (full_tbfs(graph, s, opt).dependency for s in sources)
    rngs = [substream(seed, i) for i in samples]
    pairs = fixed[lo:hi] if fixed is not None else [draw_pair(rng, graph.n) for rng in rngs]
    results = pair_searches(graph, pairs, opt)
    if algorithm is Algorithm.OB:
        return (result.dependency for result in results)
    return (
        dict.fromkeys(sample_optimal_path(result, rng).internal(), 1)
        if result.pair_sigma(z)
        else {}
        for (_, z), result, rng in zip(pairs, results, rngs)
    )


def _sum_chunk(graph, opt, algorithm, seed, fixed, lo, hi) -> dict:
    total: dict = {}
    for contribution in chunk_contributions(graph, opt, algorithm, seed, fixed, lo, hi):
        for v, val in contribution.items():
            total[v] = total.get(v, 0) + val
    return total


def summed_contributions(graph, opt, algorithm, seed, fixed, r: int, threads: int) -> dict:
    """Sum of the contributions of samples 0..r-1, folded in chunk order."""
    worker = functools.partial(_sum_chunk, graph, opt, algorithm, seed, fixed)
    chunk = None if algorithm is Algorithm.RTB else tbfs.GROUP_WIDTH
    total: dict = {}
    for partial in run_chunks(worker, r, threads, chunk):
        for v, val in partial.items():
            total[v] = total.get(v, 0) + val
    return total


def sampled_n(graph: TemporalGraph) -> int:
    """The node count of a graph to sample from, which needs a pair of nodes."""
    if graph.n < 2:
        raise ValueError("sampling estimators need at least 2 nodes")
    return graph.n


def _require_sampling_pre(graph: TemporalGraph, r: int, fixed, what: str) -> None:
    sampled_n(graph)
    if r < 1:
        raise ValueError("sample size must be >= 1")
    if fixed is not None and len(fixed) != r:
        raise ValueError(f"explicit {what} list must have length r")


def rtb_estimate(
    graph: TemporalGraph,
    opt: PathOptimality,
    r: int,
    seed: int,
    *,
    threads: int = 1,
    sources: list[int] | None = None,
) -> ScoreVector:
    """Uniform-source estimator: the mean of per-source dependency vectors,
    scaled by 1/(n-1).

    ``sources`` overrides the random draw with an explicit sample sequence
    (used for census checks and cross-estimator tests).
    """
    _require_sampling_pre(graph, r, sources, "source")
    total = summed_contributions(graph, opt, Algorithm.RTB, seed, sources, r, threads)
    denom = r * (graph.n - 1)
    scores = [float(total.get(v, 0) / denom) for v in range(graph.n)]
    return ScoreVector(opt, scores)


def ob_estimate(
    graph: TemporalGraph,
    opt: PathOptimality,
    r: int,
    seed: int,
    *,
    threads: int = 1,
    pairs: list[tuple[int, int]] | None = None,
) -> ScoreVector:
    """Pair-sampling estimator: the mean over sampled ordered pairs (s, z) of
    each node's optimal-path fraction; unconnected pairs contribute zero."""
    _require_sampling_pre(graph, r, pairs, "pair")
    total = summed_contributions(graph, opt, Algorithm.OB, seed, pairs, r, threads)
    scores = [float(total.get(v, 0) / r) for v in range(graph.n)]
    return ScoreVector(opt, scores)


def sample_optimal_path(tbfs: TbfsResult, rng: Substream) -> SampledPath:
    """Draw one optimal path uniformly from a single-destination TBFS result.

    Picks a target appearance with probability proportional to its path count,
    then walks the predecessor DAG backward, choosing each predecessor with
    probability proportional to multiplicity times its path count. Every
    optimal path comes out with probability 1/sigma. The walk reads the
    result's flat state, expanding compressed predecessors in the order
    ``records`` lists them; it never builds ``records``.
    """
    if len(tbfs.targets) != 1:
        raise ValueError("sample_optimal_path needs a TBFS result restricted to one destination")
    (z, keys), = tbfs.targets.items()
    if not keys:
        raise ValueError(f"no optimal path from {tbfs.source} to {z} to sample")

    base, sigma = tbfs.base, tbfs.sigma
    keys = sorted(keys)
    current = keys[_weighted_index(rng, [sigma[key] for key in keys])]

    reversed_keys = [current]
    while tbfs.preds[current]:
        items = tbfs.predecessors(current)
        current = items[_weighted_index(rng, [mult * sigma[p] for p, mult in items])][0]
        reversed_keys.append(current)
    return SampledPath((tbfs.source, z), tuple(divmod(key, base) for key in reversed(reversed_keys)))


def _weighted_index(rng: Substream, weights: list[int]) -> int:
    if len(weights) == 1:
        return 0
    pick = randbelow(rng, sum(weights))
    acc = 0
    for i, w in enumerate(weights):
        acc += w
        if pick < acc:
            return i
    raise AssertionError("unreachable")


def trk_estimate(
    graph: TemporalGraph,
    opt: PathOptimality,
    r: int,
    seed: int,
    *,
    threads: int = 1,
    pairs: list[tuple[int, int]] | None = None,
) -> ScoreVector:
    """Path-sampling estimator: each drawn optimal path adds 1/r to every one
    of its internal nodes."""
    _require_sampling_pre(graph, r, pairs, "pair")
    total = summed_contributions(graph, opt, Algorithm.TRK, seed, pairs, r, threads)
    scale = 1.0 / r
    scores = [float(total.get(v, 0)) * scale for v in range(graph.n)]
    return ScoreVector(opt, scores)
