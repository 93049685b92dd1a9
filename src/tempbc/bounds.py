"""Closed-form a-priori sample sizes for the fixed-sample estimators."""

from __future__ import annotations

import math
from collections.abc import Callable

__all__ = ["check_bound_inputs", "hoeffding_size", "vc_size"]

# universal constant c of the standard VC sample-complexity bound
C_UNIV = 0.5

# the first sample count refused: a sample index travels to a worker in a
# signed 64-bit field (parallel._TASK), and a substream keeps only 64 bits of
# its index, so past 2^64 the streams would repeat
SAMPLE_COUNT_LIMIT = 1 << 63


def check_bound_inputs(epsilon: float, delta: float, *, vd: int | None) -> None:
    """Raise ValueError unless epsilon and delta are in (0, 1) and ``vd``, the
    shortest-temporal vertex diameter (node count of the longest shortest
    temporal path) of the VC-style bound, is None or at least 2."""
    if not 0.0 < epsilon < 1.0:
        raise ValueError("epsilon must be in (0, 1)")
    if not 0.0 < delta < 1.0:
        raise ValueError("delta must be in (0, 1)")
    if vd is not None and vd < 2:
        raise ValueError("vertex diameter must be >= 2")


def check_sample_count(count: int, name: str) -> None:
    """Raise ValueError naming ``name`` unless ``count`` is a sample count the
    estimators can index: at least 1 and below ``SAMPLE_COUNT_LIMIT``."""
    if count < 1:
        raise ValueError(f"{name} must be >= 1, got {count}")
    if count >= SAMPLE_COUNT_LIMIT:
        raise ValueError(f"{name} must be below 2^63, got {count}")


def epsilon_size(epsilon: float, size: Callable[[float], float]) -> int:
    """``ceil(size(epsilon^2))``: a sample size that grows as 1/epsilon^2.

    Raises ValueError naming epsilon when that is no finite integer, as when
    a tiny epsilon makes epsilon^2 underflow to 0 or the size overflow, and
    when it is below 1, as when a huge epsilon makes epsilon^2 overflow.
    """
    try:
        r = math.ceil(size(epsilon * epsilon))
    except (ZeroDivisionError, OverflowError):
        raise ValueError(f"epsilon {epsilon!r} is too small: its sample size is no finite integer") from None
    if r < 1:
        raise ValueError(f"epsilon {epsilon!r} is too large: its sample size is below 1")
    return r


def hoeffding_size(epsilon: float, delta: float, n: int) -> int:
    """Union-bound sample size: ceil(ln(2n / delta) / (2 epsilon^2)).

    Valid for every optimality criterion; guarantees all n node estimates are
    within epsilon with probability 1 - delta.
    """
    check_bound_inputs(epsilon, delta, vd=None)
    if n < 1:
        raise ValueError("node count must be >= 1")
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
