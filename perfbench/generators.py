"""Seeded temporal-graph generators for the benchmark workloads.

Both generators return ``u v t`` rows; the benchmark writes them to an
edge-list file, and the program under test only ever reads that file.
"""

from __future__ import annotations

import numpy as np

# bursty graphs: Zipf exponent of node activity, number of time bursts and the
# standard deviation of each burst
ZIPF_EXPONENT = 1.1
BURSTS = 40
BURST_WIDTH = 3.0


def uniform_rows(seed: int, n: int, m: int, max_time: int) -> list[tuple[int, int, int]]:
    """Uniform endpoints with ``v != u`` and uniform times in ``1..max_time``.

    The draw order (u, then v, then t, edge by edge) is that of the test
    suite's ``random_temporal_graph_large``, so the same seed gives the same
    graph.
    """
    rng = np.random.default_rng(seed)
    rows = []
    for _ in range(m):
        u = int(rng.integers(n))
        v = int(rng.integers(n - 1))
        if v >= u:
            v += 1
        rows.append((u, v, int(rng.integers(1, max_time + 1))))
    return rows


def bursty_rows(seed: int, n: int, m: int, max_time: int) -> list[tuple[int, int, int]]:
    """Skewed node activity and clustered contact times.

    Endpoints are drawn independently with Zipf weights over a random
    permutation of the nodes; times come from ``BURSTS`` Gaussian bursts of
    standard deviation ``BURST_WIDTH``, rounded and clipped to
    ``1..max_time``. Burst centres are jittered on an even grid rather than
    drawn freely, so that two seeds give graphs of similar search cost.
    Self-loops are dropped, so slightly fewer than ``m`` rows remain.
    """
    rng = np.random.default_rng(seed)
    weights = 1.0 / np.arange(1, n + 1, dtype=np.float64) ** ZIPF_EXPONENT
    weights /= weights.sum()
    nodes = rng.permutation(n)
    src = nodes[rng.choice(n, size=m, p=weights)]
    dst = nodes[rng.choice(n, size=m, p=weights)]
    centers = 1 + (np.arange(BURSTS) + rng.uniform(size=BURSTS)) * (max_time - 1) / BURSTS
    times = centers[rng.integers(BURSTS, size=m)] + rng.normal(0.0, BURST_WIDTH, size=m)
    times = np.clip(np.rint(times), 1, max_time).astype(np.int64)
    keep = src != dst
    return [(int(u), int(v), int(t)) for u, v, t in zip(src[keep], dst[keep], times[keep])]


def write_rows(rows: list[tuple[int, int, int]], path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(f"{u} {v} {t}\n" for u, v, t in rows)
