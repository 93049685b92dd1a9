"""Quality metrics comparing an approximate score vector to an exact one."""

from __future__ import annotations

import math
import operator
from collections.abc import Sequence
from typing import NamedTuple

from .samplers import ScoreVector

__all__ = ["EvalReport", "compare", "weighted_kendall", "top_k_nodes"]


class EvalReport(NamedTuple):
    sup_deviation: float
    mse: float
    weighted_kendall: float
    topk_intersection: int
    k: int
    sample_size: int | None = None


def compare(exact: ScoreVector, approx: ScoreVector, k: int = 50) -> EvalReport:
    """Supremum deviation, mean squared error, rank correlation, and top-k
    overlap between two score vectors over the same node set."""
    if exact.n != approx.n:
        raise ValueError(f"score vectors differ in length: {exact.n} vs {approx.n}")
    if (
        exact.optimality is not None
        and approx.optimality is not None
        and exact.optimality is not approx.optimality
    ):
        raise ValueError("score vectors were computed under different optimalities")
    if k < 1:
        raise ValueError("k must be >= 1")
    e, a = [float(v) for v in exact.scores], [float(v) for v in approx.scores]
    sup = max(map(abs, map(operator.sub, e, a)), default=0.0)
    mse = math.fsum(d * d for d in map(operator.sub, e, a)) / len(e) if e else 0.0
    tau = weighted_kendall(e, a)
    inter = len(set(top_k_nodes(e, k)) & set(top_k_nodes(a, k)))
    return EvalReport(sup, mse, tau, inter, k, sample_size=approx.sample_size)


def top_k_nodes(scores: Sequence[float], k: int) -> list[int]:
    """Indices of the k largest scores; ties broken by ascending node id
    (the sort is stable, and stays so with reverse=True)."""
    return sorted(range(len(scores)), key=scores.__getitem__, reverse=True)[:k]


def _ranks(scores: Sequence[float]) -> list[int]:
    """Rank 0 = largest score; ties broken by ascending node id."""
    ranks = [0] * len(scores)
    for rank, i in enumerate(top_k_nodes(scores, len(scores))):
        ranks[i] = rank
    return ranks


def _runs(order: list[int], key) -> tuple[list[int], list[int]]:
    """Per node, how many nodes precede its run of equal keys along
    ``order``, and the length of that run."""
    n = len(order)
    before, length = [0] * n, [0] * n
    start = 0
    for end in range(1, n + 1):
        if end == n or key(order[end]) != key(order[start]):
            for i in order[start:end]:
                before[i], length[i] = start, end - start
            start = end
    return before, length


def _signed_before(levels: list[int], size: int) -> list[int]:
    """Per position p, the sum of sign(levels[p] - levels[q]) over the
    positions q before p, for levels in 1..size: one Fenwick tree pass."""
    tree, at = [0] * (size + 1), [0] * (size + 1)
    sums = []
    for before, k in enumerate(levels):
        smaller = 0
        j = k - 1
        while j:
            smaller += tree[j]
            j &= j - 1
        sums.append(2 * smaller + at[k] - before)  # smaller minus larger
        at[k] += 1
        while k <= size:
            tree[k] += 1
            k += k & -k
    return sums


def _concordance(x: list[float], y: list[float]) -> tuple[list[int], list[int], list[int]]:
    """Per node i, C_i = sum over j of sign(x_i - x_j) * sign(y_i - y_j),
    and the number of nodes tied with i in x and in y, i included.

    In the order of x ascending, then y descending, let E_i sum
    sign(y_i - y_j) over the j before i, and T_i over all j. Then
    C_i = 2 E_i - T_i + #{j : x_j = x_i, y_j != y_i}.
    """
    n = len(x)
    below, y_ties = _runs(sorted(range(n), key=y.__getitem__), y.__getitem__)
    order = sorted(range(n), key=below.__getitem__, reverse=True)
    order.sort(key=x.__getitem__)
    _, x_ties = _runs(order, x.__getitem__)
    _, xy_ties = _runs(order, lambda i: (x[i], below[i]))
    c = [0] * n
    for i, e in zip(order, _signed_before([below[i] + 1 for i in order], n)):
        t = 2 * below[i] + y_ties[i] - n
        c[i] = 2 * e - t + x_ties[i] - xy_ties[i]
    return c, x_ties, y_ties


def weighted_kendall(x: Sequence[float], y: Sequence[float]) -> float:
    """Weighted rank correlation in [-1, 1], invariant under strictly
    monotone transforms of either argument: hyperbolic additive weights
    1/(1+rank), averaged over the two ranking projections. As a pair weighs
    w_i + w_j, the pair sums are per-node sums, in O(n log n) time and O(n)
    memory: sum_i w_i C_i (see :func:`_concordance`) over the root of the
    product of the sums sum_i w_i (n - the nodes tied with i)."""
    x, y = [float(v) for v in x], [float(v) for v in y]
    if len(x) != len(y):
        raise ValueError("vectors differ in length")
    n = len(x)
    if n < 2:
        return 1.0
    c, x_ties, y_ties = _concordance(x, y)
    if x_ties[0] == n or y_ties[0] == n:  # a denominator is 0
        return 1.0 if x_ties[0] == y_ties[0] else 0.0
    tau = 0.0
    for ranks in (_ranks(x), _ranks(y)):
        w = [1.0 / (1.0 + r) for r in ranks]
        den_x = math.fsum(wi * (n - t) for wi, t in zip(w, x_ties))
        den_y = math.fsum(wi * (n - t) for wi, t in zip(w, y_ties))
        tau += math.fsum(map(operator.mul, w, c)) / math.sqrt(den_x * den_y)
    return 0.5 * tau
