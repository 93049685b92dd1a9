"""Chunked fan-out over item indices.

Work over an index range is cut into chunks whose results come back in chunk
order. Every caller folds them exactly (sums of ints or ``Fraction``s) or one
sample at a time in index order, so where the chunks are cut never changes
the output, for any worker count. Chunks are therefore sized from the run,
by one of two rules:

* source work (exact, rtb, distances): ``ceil(items / (4 * workers))``
  items, about four chunks per worker, so that uneven chunk costs even out;
* pair work (ob, trk): the caller names the widest chunk, the width of one
  shared sweep group (``tbfs.GROUP_WIDTH``), and the run is cut into the
  fewest chunks of near-equal width that fit it and number a multiple of
  the workers. A pair's sweep is cheaper the wider its group, and a group
  never spans two chunks.

``threads`` is an upper bound: a run starts no more workers than the CPUs it
may run on, nor more than it has chunks. Each pool process receives the
worker once, through the pool initializer, so a task carries only its
``(lo, hi)`` range.
"""

from __future__ import annotations

import os
import threading
import time
from typing import TYPE_CHECKING, Callable, Iterator, TypeVar

if TYPE_CHECKING:
    from concurrent.futures import ProcessPoolExecutor

__all__ = ["Fanout", "chunk_ranges", "run_chunks", "default_threads"]

# chunks per worker: enough that one slow chunk does not leave a worker idle
CHUNKS_PER_WORKER = 4

# how often a worker checks that the process that started it is still alive
PARENT_POLL_SECONDS = 0.5

T = TypeVar("T")

# the worker function of this pool process, set by the pool initializer
_installed: Callable | None = None


def default_threads() -> int:
    """CPUs this process may run on: its affinity set where the platform
    reports one, else the machine's CPU count."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def chunk_ranges(
    total: int, chunk: int | None = None, workers: int = 1, start: int = 0
) -> list[tuple[int, int]]:
    """Ranges covering start..start+total-1, in order.

    Without ``chunk``, each range holds ``ceil(total / (4 * workers))``
    indices, the last one the rest. With it, the ranges are the fewest that
    hold at most ``chunk`` indices each and number a multiple of ``workers``
    (or ``total``, when that is smaller); their widths differ by at most
    one, the wider ones first.
    """
    stop = start + total
    if chunk is None:
        width = max(1, -(-total // (CHUNKS_PER_WORKER * workers)))
        return [(lo, min(lo + width, stop)) for lo in range(start, stop, width)]
    count = min(total, -(-total // (chunk * workers)) * workers)
    if not count:
        return []
    width, wider = divmod(total, count)
    bounds = [start + i * width + min(i, wider) for i in range(count + 1)]
    return list(zip(bounds, bounds[1:]))


class Fanout:
    """Runs ``worker(lo, hi)`` over index ranges on up to ``threads`` workers.

    ``worker`` must be picklable (a module-level function or
    functools.partial over one). The pool starts at the first call with more
    than one chunk and serves every later call until the ``with`` block ends.
    """

    def __init__(self, worker: Callable[[int, int], T], threads: int):
        self.worker = worker
        self.workers = max(1, min(threads, default_threads()))
        self._pool: ProcessPoolExecutor | None = None

    def __enter__(self) -> "Fanout":
        return self

    def __exit__(self, *exc) -> None:
        if self._pool is not None:
            self._pool.shutdown()
            self._pool = None

    def map(self, start: int, stop: int, chunk: int | None = None) -> Iterator[T]:
        """Yield worker(lo, hi) per chunk of start..stop-1, in chunk order;
        ``chunk`` as in :func:`chunk_ranges`."""
        ranges = chunk_ranges(stop - start, chunk, self.workers, start)
        if self.workers == 1 or len(ranges) <= 1:
            for lo, hi in ranges:
                yield self.worker(lo, hi)
            return
        if self._pool is None:
            # read as a module attribute, so that tests can substitute the class
            executor = globals().get("ProcessPoolExecutor") or __getattr__("ProcessPoolExecutor")
            # the pool forks all of its workers up front, so start no idle ones
            self._pool = executor(
                max_workers=min(self.workers, len(ranges)),
                initializer=_install,
                initargs=(os.getpid(), self.worker),
            )
        yield from self._pool.map(_run_installed, *zip(*ranges))


def __getattr__(name: str):
    """``ProcessPoolExecutor``, imported on first use: its modules
    (``concurrent.futures.process``, ``multiprocessing``) load when the first
    pool starts, so a serial run never imports them."""
    if name != "ProcessPoolExecutor":
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from concurrent.futures import ProcessPoolExecutor

    globals()[name] = ProcessPoolExecutor
    return ProcessPoolExecutor


def run_chunks(
    worker: Callable[[int, int], T], total: int, threads: int, chunk: int | None = None
) -> Iterator[T]:
    """Yield worker(lo, hi) per chunk of 0..total-1, in chunk order, on a
    :class:`Fanout` used for this call alone."""
    with Fanout(worker, threads) as fan:
        yield from fan.map(0, total, chunk)


def _install(parent: int, worker: Callable) -> None:
    """Pool initializer: keep ``worker`` for this process's tasks, and end the
    process once ``parent`` has died, so a killed run does not leave workers
    computing queued chunks under pid 1."""
    global _installed
    _installed = worker

    def watch() -> None:
        while os.getppid() == parent:
            time.sleep(PARENT_POLL_SECONDS)
        os._exit(1)

    threading.Thread(target=watch, daemon=True).start()


def _run_installed(lo: int, hi: int):
    return _installed(lo, hi)
