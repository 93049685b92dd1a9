"""Deterministic chunked fan-out.

Work is split into fixed-size chunks by item index, independent of the worker
count, and partial results are folded in chunk order. A run with 1, 4, or 8
workers therefore produces bit-identical output.
"""

from __future__ import annotations

import os
import threading
import time
from concurrent.futures import ProcessPoolExecutor
from typing import Callable, Iterator, TypeVar

__all__ = ["CHUNK_SIZE", "chunk_ranges", "run_chunks", "default_threads"]

CHUNK_SIZE = 256

# how often a worker checks that the process that started it is still alive
PARENT_POLL_SECONDS = 0.5

T = TypeVar("T")


def default_threads() -> int:
    """CPUs this process may run on: its affinity set where the platform
    reports one, else the machine's CPU count."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def chunk_ranges(total: int, chunk: int = CHUNK_SIZE) -> list[tuple[int, int]]:
    return [(lo, min(lo + chunk, total)) for lo in range(0, total, chunk)]


def run_chunks(
    worker: Callable[[int, int], T], total: int, threads: int, chunk: int = CHUNK_SIZE
) -> Iterator[T]:
    """Yield worker(lo, hi) per chunk, in chunk order.

    ``worker`` must be picklable (a module-level function or functools.partial
    over one) when threads > 1.
    """
    ranges = chunk_ranges(total, chunk)
    if threads <= 1 or len(ranges) <= 1:
        for lo, hi in ranges:
            yield worker(lo, hi)
        return
    # the pool forks all of its workers up front, so start no idle ones
    with ProcessPoolExecutor(
        max_workers=min(threads, len(ranges)),
        initializer=_exit_with_parent,
        initargs=(os.getpid(),),
    ) as pool:
        yield from pool.map(worker, *zip(*ranges))


def _exit_with_parent(parent: int) -> None:
    """Pool initializer: end this worker once ``parent`` has died, so a killed
    run does not leave workers computing queued chunks under pid 1."""

    def watch() -> None:
        while os.getppid() == parent:
            time.sleep(PARENT_POLL_SECONDS)
        os._exit(1)

    threading.Thread(target=watch, daemon=True).start()
