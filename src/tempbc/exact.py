"""Exact normalized temporal betweenness by dependency accumulation.

Exact betweenness is the rtb census: the per-sample pipeline of
:mod:`tempbc.samplers` run over ``sources=range(n)``, in chunks of about
n / (4 * workers) sources. Per-source dependencies are summed as exact
rationals and divided by n(n-1); rounding to float happens once, at the
score-vector boundary, so results are bit-reproducible regardless of worker
count and chunk size. ``ScoreVector`` is defined in
:mod:`tempbc.samplers` and re-exported here.
"""

from __future__ import annotations

from fractions import Fraction

from .graph import TemporalGraph
from .samplers import Algorithm, ScoreVector, summed_contributions
from .tbfs import PathOptimality

__all__ = ["ScoreVector", "GuardrailError", "exact_tbc", "exact_tbc_fractions", "work_estimate"]

# coarse per-run cost proxy; exact runs above this need force=True
DEFAULT_WORK_LIMIT = 200_000_000


class GuardrailError(RuntimeError):
    """Refused to start an exact run whose work estimate exceeds the limit."""


def work_estimate(graph: TemporalGraph) -> int:
    return graph.n * max(1, len(graph.edges))


def exact_tbc_fractions(
    graph: TemporalGraph, opt: PathOptimality, *, threads: int = 1
) -> dict[int, Fraction]:
    """Normalized betweenness of every node as exact rationals."""
    n = graph.n
    if n <= 1:
        return {v: Fraction(0) for v in range(n)}
    total = summed_contributions(graph, opt, Algorithm.RTB, None, range(n), n, threads)
    scale = Fraction(1, n * (n - 1))
    return {v: total.get(v, 0) * scale for v in range(n)}


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
    return ScoreVector(opt, [float(fractions[v]) for v in range(graph.n)])
