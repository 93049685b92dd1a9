"""Progressive sampling with a data-dependent stopping bound.

Two schemes:

* :func:`progressive_estimate` grows a pair sample along a geometric schedule
  and stops once a supremum-deviation bound, built from an empirical
  Rademacher-average upper bound, falls below the target accuracy. Works for
  the pair-fraction (``ob``) and path-indicator (``trk``) estimators; the
  latter is additionally capped at the union-bound sample size.
* :func:`prtb_estimate` repeatedly samples sources and stops once some node's
  accumulated unnormalized dependency reaches ``c * n``; a cheap heuristic
  with guarantees only for high-centrality nodes.

Both run their samples through :func:`tempbc.samplers.chunk_contributions`,
the sample pipeline of the fixed-sample estimators. Each checkpoint batch of
:func:`progressive_estimate` runs in chunks of one sweep group each (at 2
workers, a batch of up to 256 samples is one group per worker) on up to
``threads`` workers forked once for the whole run; a chunk returns each
sample's per-node values as floats in fold order, and the batch is folded in
sample-index order, so the scores and the bound are the same for any worker
count.
:func:`prtb_estimate` is serial and runs one sample per call, because it
checks its stop rules after every sample (one of them reads the source).

The bookkeeping keeps, per node, the running sum of its per-sample values and
of their squares, plus a multiset of the squared norms; the norm multiset is
all the bound needs, so the per-sample cost stays constant.
"""

from __future__ import annotations

import functools
import math
from enum import Enum
from fractions import Fraction
from typing import NamedTuple

from . import tbfs
from .bounds import check_bound_inputs, epsilon_size, hoeffding_size
from .graph import TemporalGraph
from .parallel import Fanout
from .rng import draw_source, substream
from .samplers import Algorithm, ScoreVector, chunk_contributions, sampled_n
from .tbfs import PathOptimality

__all__ = [
    "RademacherState",
    "Schedule",
    "StopReason",
    "StopReport",
    "initial_sample_size",
    "update_values",
    "rademacher_bound",
    "stopping_xi",
    "progressive_estimate",
    "prtb_estimate",
]

# golden-section bracket for the bound minimization; the upper end grows
# geometrically until the minimum is bracketed or the cap is hit
_S_LO = 1e-4
_S_CAP = 1e12
_GOLDEN_TOL = 1e-12


class StopReason(str, Enum):
    BOUND_MET = "bound_met"
    ITERATION_CAP = "iteration_cap"


class StopReport(NamedTuple):
    final_sample_size: int
    iterations: int
    xi: float
    epsilon: float
    stopped_by: StopReason


class Schedule:
    """Geometric sample schedule: the i-th checkpoint is ceil(alpha^(i-1) * initial)."""

    __slots__ = ("initial", "alpha")

    def __init__(self, initial: int, alpha: float):
        if initial < 1:
            raise ValueError("initial sample size must be >= 1")
        if not math.isfinite(alpha):
            raise ValueError(f"schedule constant alpha must be finite, got {alpha!r}")
        if alpha <= 1.0:
            raise ValueError("schedule constant alpha must be > 1")
        self.initial = initial
        self.alpha = alpha

    def size(self, iteration: int, cap: int | None = None) -> int:
        """The i-th checkpoint, at most ``cap``. Raises ValueError naming alpha
        when it is no finite integer and the cap does not bound it."""
        try:
            size = self.alpha ** (iteration - 1) * self.initial
        except OverflowError:
            size = math.inf
        if cap is not None and size >= cap:
            return cap
        if size == math.inf:
            raise ValueError(
                f"schedule constant alpha {self.alpha!r} makes checkpoint {iteration}'s sample"
                " size no finite integer: take a smaller alpha (--alpha) or cap the samples"
                " (--max-samples)"
            )
        return math.ceil(size)


class RademacherState:
    """Running per-node sums needed by the stopping bound.

    ``b`` maps a squared-norm value to the number of nodes currently holding
    it; ``b1`` holds each touched node's running value sum and ``b2`` its
    squared-value sum where that is nonzero. The other nodes, whose norm is
    0 (never touched, or touched only by values whose squares underflow),
    are accounted for separately via ``n_nodes``.
    """

    __slots__ = ("n_nodes", "b", "b1", "b2")

    def __init__(self, n_nodes: int):
        self.n_nodes = n_nodes
        self.b: dict[float, int] = {}
        self.b1: dict[int, float] = {}
        self.b2: dict[int, float] = {}

    @property
    def untouched(self) -> int:
        return self.n_nodes - len(self.b2)


def initial_sample_size(epsilon: float, delta: float) -> int:
    """Smallest schedule start at which the zero-complexity stopping bound can
    already reach ``epsilon``: ceil((1 + 8e + sqrt(1 + 16e)) * ln(6/d) / (4e^2))."""
    check_bound_inputs(epsilon, delta)
    closed_form = (1 + 8 * epsilon + math.sqrt(1 + 16 * epsilon)) * math.log(6 / delta)
    return epsilon_size(epsilon, lambda e2: closed_form / (4 * e2))


def update_values(state: RademacherState, u: int, h_u: float) -> None:
    """Fold one per-sample value for node u into the state.

    Moves one unit of mass in the squared-norm multiset from the node's old
    norm to its new one, and advances the running sums. A zero value changes
    nothing and is skipped outright. A value whose square underflows to 0.0
    adds to the node's value sum, and a node whose squared sum is still 0.0
    stays among the untouched.
    """
    if not 0.0 <= h_u <= 1.0:
        raise ValueError(f"per-sample value {h_u!r} outside [0, 1]")
    if h_u == 0.0:
        return
    old = state.b2.get(u, 0.0)
    new = old + h_u * h_u
    if new:
        state.b[new] = state.b.get(new, 0) + 1
        if old:
            state.b[old] -= 1
            if state.b[old] == 0:
                del state.b[old]
        state.b2[u] = new
    state.b1[u] = state.b1.get(u, 0.0) + h_u


def _log_mass(state: RademacherState, s: float, r: int) -> float:
    """log of: sum over nodes of exp(s^2 * ||v||^2 / (2 r^2)), stably."""
    scale = s * s / (2.0 * r * r)
    exponents = []
    counts = []
    if state.untouched > 0:
        exponents.append(0.0)
        counts.append(state.untouched)
    for norm, count in state.b.items():
        if count > 0:
            exponents.append(scale * norm)
            counts.append(count)
    m = max(exponents)
    total = sum(c * math.exp(a - m) for a, c in zip(exponents, counts))
    return m + math.log(total)


def rademacher_bound(state: RademacherState, r: int) -> float:
    """Upper bound on the empirical Rademacher average of the node-value
    family: min over s > 0 of (1/s) * log(sum_nodes exp(s^2 ||v||^2 / (2 r^2))).

    The objective is unimodal, so a golden-section search on a bracket grown
    geometrically from the left end finds the minimum; if the function is
    still decreasing at the bracket cap the capped value is returned, which is
    still a valid upper bound.
    """
    if r < 1:
        raise ValueError("sample size must be >= 1")
    if state.n_nodes <= 0:
        return 0.0

    def w(s: float) -> float:
        return _log_mass(state, s, r) / s

    lo = _S_LO
    hi = lo * 8.0
    prev = w(lo)
    while hi < _S_CAP:
        cur = w(hi)
        if cur > prev:
            break
        prev = cur
        hi *= 8.0
    hi = min(hi, _S_CAP)
    return min(w(lo), w(hi), _golden_min(w, lo, hi))


def _golden_min(w, lo: float, hi: float) -> float:
    inv_phi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - inv_phi * (b - a)
    d = a + inv_phi * (b - a)
    wc, wd = w(c), w(d)
    while b - a > _GOLDEN_TOL * max(1.0, abs(a)):
        if wc < wd:
            b, d, wd = d, c, wc
            c = b - inv_phi * (b - a)
            wc = w(c)
        else:
            a, c, wc = c, d, wd
            d = a + inv_phi * (b - a)
            wd = w(d)
    return min(wc, wd)


def stopping_xi(R: float, r: int, delta_i: float) -> float:
    """Supremum-deviation bound at the current checkpoint.

    With probability at least 1 - delta_i, every node's estimate is within
    this value of its expectation.
    """
    if R < 0:
        raise ValueError("Rademacher bound must be nonnegative")
    if r < 1:
        raise ValueError("sample size must be >= 1")
    if not 0.0 < delta_i < 1.0:
        raise ValueError("confidence budget must be in (0, 1)")
    ln_term = math.log(3.0 / delta_i)
    return (
        2.0 * R
        + (ln_term + math.sqrt((ln_term + 4.0 * r * R) * ln_term)) / r
        + math.sqrt(ln_term / (2.0 * r))
    )


def progressive_estimate(
    graph: TemporalGraph,
    opt: PathOptimality,
    epsilon: float,
    delta: float,
    alpha: float,
    algorithm: Algorithm,
    seed: int,
    *,
    iteration_cap: int | None = None,
    threads: int = 1,
) -> tuple[ScoreVector, StopReport]:
    """Pair sampling along a geometric schedule until the bound meets epsilon.

    Per sample: draw an ordered pair, run a truncated search; when the pair is
    connected, fold each internal node's value into the state (the exact path
    fraction for ``ob``, by ascending node id, or a 0/1 indicator of one
    uniformly drawn path for ``trk``, in path order). At each checkpoint the
    supremum-deviation bound is evaluated with confidence budget delta / 2^i;
    its Rademacher bound is evaluated again only when the checkpoint added
    samples.
    On a bound-met stop, all node estimates are within epsilon of the truth
    with probability at least 1 - delta. For ``trk`` the sample size is
    additionally capped at the union-bound size, after which the run stops
    regardless. Each checkpoint batch is computed on up to ``threads`` workers
    forked once for the whole run, and is folded in sample-index
    order, so the result does not depend on ``threads``.
    """
    check_bound_inputs(epsilon, delta)
    if algorithm not in (Algorithm.OB, Algorithm.TRK):
        raise ValueError("progressive_estimate supports the ob and trk estimators")
    sampled_n(graph)
    if iteration_cap is not None and iteration_cap < 1:
        raise ValueError(f"iteration cap must be >= 1, got {iteration_cap}")

    cap = iteration_cap
    if cap is None and algorithm is Algorithm.TRK:
        cap = hoeffding_size(epsilon, delta, graph.n)

    schedule = Schedule(initial_sample_size(epsilon, delta), alpha)
    state = RademacherState(graph.n)
    done = 0
    iteration = 0
    worker = functools.partial(_sample_chunk, graph, opt, algorithm, seed)
    with Fanout(worker, threads) as fan:
        while True:
            iteration += 1
            delta_i = math.ldexp(delta, -iteration)  # delta / 2^i, exact
            if not delta_i:
                raise ValueError(
                    f"no stop after {iteration - 1} checkpoints, and the confidence budget"
                    f" delta / 2^{iteration} is 0: cap the samples (--max-samples) or take"
                    " a larger alpha (--alpha)"
                )
            target = schedule.size(iteration, cap)
            # a checkpoint that adds no sample leaves the state, and so the
            # bound, as it was; only delta_i changes
            if target > done:
                for samples in fan.map(done, target, tbfs.GROUP_WIDTH):
                    for sample in samples:
                        for u, h_u in sample.items():
                            update_values(state, u, h_u)
                done = target
                bound = rademacher_bound(state, done)
            xi = stopping_xi(bound, done, delta_i)
            if xi <= epsilon:
                reason = StopReason.BOUND_MET
                break
            if cap is not None and done >= cap:
                reason = StopReason.ITERATION_CAP
                break

    scores = [state.b1.get(u, 0.0) / done for u in range(graph.n)]
    report = StopReport(done, iteration, xi, epsilon, reason)
    return ScoreVector(opt, scores), report


def _sample_chunk(graph, opt, algorithm, seed, lo, hi) -> list[dict[int, float]]:
    """Per-node values of samples lo..hi-1, one dict per sample, in index
    order. Each dict lists its nodes in the order the state folds them,
    because its float sums depend on that order: ascending node id for ob,
    path order for trk."""
    contributions = chunk_contributions(graph, opt, algorithm, seed, None, lo, hi)
    if algorithm is Algorithm.OB:
        return [{u: float(c[u]) for u in sorted(c)} for c in contributions]
    return [dict.fromkeys(c, 1.0) for c in contributions]


def prtb_estimate(
    graph: TemporalGraph,
    opt: PathOptimality,
    c: float,
    seed: int,
    *,
    max_samples: int | None = None,
) -> tuple[ScoreVector, StopReport]:
    """Source sampling until some node's accumulated dependency reaches c * n.

    The estimator itself is the uniform-source one; the threshold only decides
    when to stop, checked after every sample, so the run is serial. It also
    stops, by the iteration cap, once every node was drawn as a source while
    every dependency is still zero: no sample can then reach c * n. Returns
    each node's accumulated dependency divided by (n - 1) * r. In the stop
    report, ``xi`` carries the largest accumulated dependency and ``epsilon``
    the threshold ``c * n``.
    """
    if not math.isfinite(c):
        raise ValueError(f"threshold constant c must be finite, got {c!r}")
    if c < 2:
        raise ValueError("threshold constant c must be >= 2")
    sampled_n(graph)
    if max_samples is not None and max_samples < 1:
        raise ValueError(f"sample cap must be >= 1, got {max_samples}")

    threshold = c * graph.n
    if threshold == math.inf:
        raise ValueError(f"threshold constant c {c!r} makes the threshold c * n overflow for n={graph.n}")
    totals: dict[int, Fraction] = {}
    max_total = Fraction(0)
    r = 0
    reason = StopReason.ITERATION_CAP
    undrawn = set(range(graph.n))
    while True:
        source = draw_source(substream(seed, r), graph.n)
        contribution, = chunk_contributions(graph, opt, Algorithm.RTB, seed, [source], 0, 1)
        for v, val in contribution.items():
            cur = totals.get(v, Fraction(0)) + val
            totals[v] = cur
            if cur > max_total:
                max_total = cur
        r += 1
        if max_total >= threshold:
            reason = StopReason.BOUND_MET
            break
        if max_samples is not None and r >= max_samples:
            break
        if not max_total:
            undrawn.discard(source)
            if not undrawn:
                break

    denom = (graph.n - 1) * r
    scores = [float(totals.get(v, Fraction(0)) / denom) for v in range(graph.n)]
    report = StopReport(r, r, float(max_total), float(threshold), reason)
    return ScoreVector(opt, scores), report
