"""Fixed-sample-size estimators of normalized temporal betweenness.

Three unbiased estimators over different sample spaces:

* ``rtb``: uniform sources; one full TBFS per sample contributes its
  dependency vector scaled by 1/(n-1).
* ``ob``: uniform ordered node pairs; one truncated TBFS per sample
  contributes the per-pair path-fraction of every internal node.
* ``trk``: uniform ordered pairs, then one optimal path drawn uniformly from
  the pair's optimal-path set; every internal node of the drawn path gains
  1/r.

All estimators draw each sample from its own counter-based substream, so a
seeded run is reproducible for any worker count.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction

import numpy as np

from .exact import ScoreVector, _rtb_chunk
from .graph import TemporalGraph
from .parallel import run_chunks
from .rng import draw_pair, randbelow, substream
from .tbfs import Appearance, PathOptimality, TbfsResult, truncated_tbfs

__all__ = [
    "Algorithm",
    "SamplerConfig",
    "SampledPath",
    "rtb_estimate",
    "ob_estimate",
    "trk_estimate",
    "sample_optimal_path",
]


class Algorithm(str, Enum):
    RTB = "rtb"
    OB = "ob"
    TRK = "trk"


@dataclass(frozen=True)
class SamplerConfig:
    optimality: PathOptimality
    sample_size: int
    seed: int
    algorithm: Algorithm

    def __post_init__(self):
        if self.sample_size < 1:
            raise ValueError("sample_size must be >= 1")


@dataclass(frozen=True)
class SampledPath:
    """One drawn optimal path, as its vertex-appearance sequence.

    ``appearances`` runs from the source sentinel (s, 0) to a target
    appearance of z; internal nodes are those strictly between the endpoints.
    """

    pair: tuple[int, int]
    appearances: tuple[Appearance, ...]
    empty: bool = False

    def internal(self) -> list[int]:
        return [v for v, _ in self.appearances[1:-1]]


def _require_sampling_pre(graph: TemporalGraph, r: int) -> None:
    if graph.n < 2:
        raise ValueError("sampling estimators need at least 2 nodes")
    if r < 1:
        raise ValueError("sample size must be >= 1")


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
    _require_sampling_pre(graph, r)
    if sources is not None and len(sources) != r:
        raise ValueError("explicit source list must have length r")
    worker = functools.partial(_rtb_chunk, graph, opt, seed, sources)
    total: dict[int, Fraction] = {}
    for partial in run_chunks(worker, r, threads):
        for v, val in partial.items():
            total[v] = total.get(v, Fraction(0)) + val
    denom = r * (graph.n - 1)
    values = np.array(
        [float(total.get(v, Fraction(0)) / denom) for v in range(graph.n)], dtype=np.float64
    )
    return ScoreVector(opt, values, sample_size=r)


def _ob_chunk(graph, opt, seed, pairs, lo, hi):
    total: dict[int, Fraction] = {}
    for i in range(lo, hi):
        s, z = pairs[i] if pairs is not None else draw_pair(substream(seed, i), graph.n)
        for v, val in truncated_tbfs(graph, s, z, opt).dependency.items():
            total[v] = total.get(v, Fraction(0)) + val
    return total


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
    _require_sampling_pre(graph, r)
    if pairs is not None and len(pairs) != r:
        raise ValueError("explicit pair list must have length r")
    worker = functools.partial(_ob_chunk, graph, opt, seed, pairs)
    total: dict[int, Fraction] = {}
    for partial in run_chunks(worker, r, threads):
        for v, val in partial.items():
            total[v] = total.get(v, Fraction(0)) + val
    values = np.array(
        [float(total.get(v, Fraction(0)) / r) for v in range(graph.n)], dtype=np.float64
    )
    return ScoreVector(opt, values, sample_size=r)


def sample_optimal_path(tbfs: TbfsResult, rng: np.random.Generator) -> SampledPath:
    """Draw one optimal path uniformly from a single-destination TBFS result.

    Picks a target appearance with probability proportional to its path count,
    then walks the predecessor DAG backward, choosing each predecessor with
    probability proportional to multiplicity times its path count. Every
    optimal path comes out with probability 1/sigma.
    """
    if len(tbfs.per_target) != 1:
        raise ValueError("sample_optimal_path needs a TBFS result restricted to one destination")
    (z, info), = tbfs.per_target.items()
    if info.sigma < 1:
        raise ValueError(f"no optimal path from {tbfs.source} to {z} to sample")

    records = tbfs.records
    weights = [records[a].sigma for a in info.appearances]
    current = info.appearances[_weighted_index(rng, weights)]

    reversed_apps = [current]
    while records[current].predecessors:
        preds = list(records[current].predecessors.items())
        weights = [mult * records[p].sigma for p, mult in preds]
        current = preds[_weighted_index(rng, weights)][0]
        reversed_apps.append(current)
    return SampledPath((tbfs.source, z), tuple(reversed(reversed_apps)))


def _weighted_index(rng: np.random.Generator, weights: list[int]) -> int:
    if len(weights) == 1:
        return 0
    pick = randbelow(rng, sum(weights))
    acc = 0
    for i, w in enumerate(weights):
        acc += w
        if pick < acc:
            return i
    raise AssertionError("unreachable")


def _trk_chunk(graph, opt, seed, pairs, lo, hi):
    counts: dict[int, int] = {}
    for i in range(lo, hi):
        rng = substream(seed, i)
        s, z = pairs[i] if pairs is not None else draw_pair(rng, graph.n)
        result = truncated_tbfs(graph, s, z, opt)
        if result.pair_sigma(z) == 0:
            continue
        for v in sample_optimal_path(result, rng).internal():
            counts[v] = counts.get(v, 0) + 1
    return counts


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
    _require_sampling_pre(graph, r)
    if pairs is not None and len(pairs) != r:
        raise ValueError("explicit pair list must have length r")
    worker = functools.partial(_trk_chunk, graph, opt, seed, pairs)
    counts = np.zeros(graph.n, dtype=np.int64)
    for partial in run_chunks(worker, r, threads):
        for v, c in partial.items():
            counts[v] += c
    values = counts.astype(np.float64) * (1.0 / r)
    return ScoreVector(opt, values, sample_size=r)
