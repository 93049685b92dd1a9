"""Closed-form a-priori sample sizes for the fixed-sample estimators."""

from __future__ import annotations

import math
from collections.abc import Callable

__all__ = ["check_bound_inputs", "hoeffding_size", "vc_size"]

# universal constant c of the standard VC sample-complexity bound
C_UNIV = 0.5


def check_bound_inputs(
    epsilon: float, delta: float, *, n: int | None = None, vd: int | None = None
) -> None:
    """Raise ValueError unless the inputs of a sample-size bound are valid.

    ``n`` is the node count (the union bound uses it). ``vd`` is the
    shortest-temporal vertex diameter (node count of the longest shortest
    temporal path); only the VC-style bound uses it.
    """
    if not 0.0 < epsilon < 1.0:
        raise ValueError("epsilon must be in (0, 1)")
    if not 0.0 < delta < 1.0:
        raise ValueError("delta must be in (0, 1)")
    if n is not None and n < 1:
        raise ValueError("node count must be >= 1")
    if vd is not None and vd < 2:
        raise ValueError("vertex diameter must be >= 2")


def epsilon_size(epsilon: float, size: Callable[[float], float]) -> int:
    """``ceil(size(epsilon^2))``: a sample size that grows as 1/epsilon^2.

    Raises ValueError naming epsilon when that is no finite integer, as when
    a tiny epsilon makes epsilon^2 underflow to 0 or the size overflow.
    """
    try:
        return math.ceil(size(epsilon * epsilon))
    except (ZeroDivisionError, OverflowError):
        raise ValueError(f"epsilon {epsilon!r} is too small: its sample size is no finite integer") from None


def hoeffding_size(epsilon: float, delta: float, n: int) -> int:
    """Union-bound sample size: ceil(ln(2n / delta) / (2 epsilon^2)).

    Valid for every optimality criterion; guarantees all n node estimates are
    within epsilon with probability 1 - delta.
    """
    check_bound_inputs(epsilon, delta, n=n)
    return epsilon_size(epsilon, lambda e2: math.log(2 * n / delta) / (2 * e2))


def vc_size(epsilon: float, delta: float, vd: int) -> int:
    """Vertex-diameter sample size for the shortest criterion:
    ceil((c / epsilon^2) * (floor(log2(vd - 2)) + 1 + ln(1/delta))), c = C_UNIV.

    Independent of the node count. The epsilon guarantee only holds when every
    connected pair has a unique shortest temporal path; otherwise treat this
    as a heuristic and prefer :func:`hoeffding_size`. For ``vd < 3`` (paths
    with at most one internal node) the bracket degenerates to 1 + ln(1/delta).
    """
    check_bound_inputs(epsilon, delta, vd=vd)
    if vd < 3:
        bracket = 1 + math.log(1 / delta)
    else:
        # exact floor(log2) on the integer
        bracket = ((vd - 2).bit_length() - 1) + 1 + math.log(1 / delta)
    return epsilon_size(epsilon, lambda e2: C_UNIV / e2 * bracket)
