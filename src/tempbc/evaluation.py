"""Quality metrics comparing an approximate score vector to an exact one."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exact import ScoreVector

__all__ = ["EvalReport", "compare", "weighted_kendall", "top_k_nodes"]


@dataclass(frozen=True)
class EvalReport:
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
    e = np.asarray(exact.values, dtype=np.float64)
    a = np.asarray(approx.values, dtype=np.float64)
    diff = e - a
    sup = float(np.max(np.abs(diff))) if len(diff) else 0.0
    mse = float(np.mean(diff * diff)) if len(diff) else 0.0
    tau = weighted_kendall(e, a)
    inter = len(set(top_k_nodes(e, k)) & set(top_k_nodes(a, k)))
    return EvalReport(sup, mse, tau, inter, k, sample_size=approx.sample_size)


def top_k_nodes(scores: np.ndarray, k: int) -> list[int]:
    """Indices of the k largest scores; ties broken by ascending node id."""
    order = np.lexsort((np.arange(len(scores)), -scores))
    return [int(i) for i in order[:k]]


def _ranks(scores: np.ndarray) -> np.ndarray:
    """Rank 0 = largest score; ties broken by ascending node id."""
    order = np.lexsort((np.arange(len(scores)), -scores))
    ranks = np.empty(len(scores), dtype=np.int64)
    ranks[order] = np.arange(len(scores))
    return ranks


def _tau_with_ranks(sx: np.ndarray, sy: np.ndarray, ranks: np.ndarray) -> float:
    # additive hyperbolic weights on the given ranking: w_ij = w(r_i) + w(r_j)
    w = 1.0 / (1.0 + ranks.astype(np.float64))
    weight = w[:, None] + w[None, :]
    upper = np.triu(np.ones_like(weight, dtype=bool), 1)
    num = float(np.sum(weight * sx * sy, where=upper))
    den_x = float(np.sum(weight * sx * sx, where=upper))
    den_y = float(np.sum(weight * sy * sy, where=upper))
    if den_x == 0.0 or den_y == 0.0:
        return 1.0 if np.array_equal(sx, sy) else 0.0
    return num / np.sqrt(den_x * den_y)


def weighted_kendall(x: np.ndarray, y: np.ndarray) -> float:
    """Weighted rank correlation in [-1, 1].

    Hyperbolic additive weights 1/(1+rank), with the statistic averaged over
    the two ranking projections; a correlation statistic, invariant under
    strictly monotone transforms of either argument.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if len(x) != len(y):
        raise ValueError("vectors differ in length")
    if len(x) < 2:
        return 1.0
    sx = np.sign(x[:, None] - x[None, :])
    sy = np.sign(y[:, None] - y[None, :])
    tau_x = _tau_with_ranks(sx, sy, _ranks(x))
    tau_y = _tau_with_ranks(sx, sy, _ranks(y))
    return 0.5 * (tau_x + tau_y)
