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
may run on, nor more than it has chunks. Workers are forked (``os.fork``), so
each inherits the worker function and the graph it refers to, and nothing of
them is pickled: a task is its ``(lo, hi)`` range on the worker's own pipe,
and a reply is the chunk's pickled result on another; a worker holds one
chunk at a time. A worker ends as soon as the process that forked it closes
its worker set or dies. Where the platform has no ``os.fork``, every run is
serial.
"""

from __future__ import annotations

import os
import struct
from typing import Callable, Iterator, TypeVar

__all__ = ["Fanout", "chunk_ranges", "run_chunks", "default_threads"]

# chunks per worker: enough that one slow chunk does not leave a worker idle
CHUNKS_PER_WORKER = 4

# a task is a chunk's (lo, hi); a reply is one pickle, which marks its own end
_TASK = struct.Struct("qq")

T = TypeVar("T")

# this process's ends of the pipes of every live worker set. Descriptors
# belong to the process, not to one Fanout: a newly forked worker closes all
# of them, so that a worker sees end-of-file once the parent closes its ends
# or dies.
_PARENT_FDS: set[int] = set()


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


class _Worker:
    """A forked worker: its pid, the parent's ends of its task and reply
    pipes, and the index of the chunk it was last handed."""

    __slots__ = ("pid", "tasks", "replies", "chunk")

    def __init__(self, pid: int, tasks: int, replies: int, chunk: int = -1):
        self.pid = pid
        self.tasks = tasks
        self.replies = replies
        self.chunk = chunk


class Fanout:
    """Runs ``worker(lo, hi)`` over index ranges on up to ``threads`` workers.

    The workers are forked at the first call with more than one chunk and
    serve every later call until the ``with`` block ends, which ends and
    reaps them, on the error path too.
    """

    def __init__(self, worker: Callable[[int, int], T], threads: int):
        self.worker = worker
        self.workers = max(1, min(threads, default_threads()))
        self._procs: list[_Worker] = []
        self._lifeline: int | None = None

    def __enter__(self) -> "Fanout":
        return self

    def __exit__(self, *exc) -> None:
        self._stop()

    def map(self, start: int, stop: int, chunk: int | None = None) -> Iterator[T]:
        """Yield worker(lo, hi) per chunk of start..stop-1, in chunk order;
        ``chunk`` as in :func:`chunk_ranges`."""
        ranges = chunk_ranges(stop - start, chunk, self.workers, start)
        if self.workers == 1 or len(ranges) <= 1 or not hasattr(os, "fork"):
            for lo, hi in ranges:
                yield self.worker(lo, hi)
            return
        if not self._procs:
            # forked workers all start at once, so start no idle ones
            self._start(min(self.workers, len(ranges)))
        yield from self._fan(ranges)

    def _start(self, count: int) -> None:
        """Fork ``count`` workers. Each holds the read end of a lifeline pipe
        whose write end only this process holds, and ends when it closes."""
        import pickle  # noqa: F401  loaded once here, not in every worker

        lifeline, self._lifeline = os.pipe()
        _PARENT_FDS.add(self._lifeline)
        try:
            for _ in range(count):
                task_read, task_write = os.pipe()
                reply_read, reply_write = os.pipe()
                _PARENT_FDS.update((task_write, reply_read))
                pid = os.fork()
                if pid == 0:
                    _serve(self.worker, task_read, reply_write, lifeline)
                os.close(task_read)
                os.close(reply_write)
                self._procs.append(_Worker(pid, task_write, reply_read))
        except BaseException:
            self._stop()
            raise
        finally:
            os.close(lifeline)

    def _fan(self, ranges: list[tuple[int, int]]) -> Iterator[T]:
        """Yield the results of ``ranges`` in order. Each worker holds one
        chunk at a time and is handed the next one when its reply arrives."""
        import select

        tasks = enumerate(ranges)
        done: dict[int, T] = {}
        by_fd = {proc.replies: proc for proc in self._procs}
        poller = select.poll()
        for fd in by_fd:
            poller.register(fd, select.POLLIN)
        try:
            for proc in self._procs:
                _send(proc, tasks)
            for i in range(len(ranges)):
                while i not in done:
                    for fd, _ in poller.poll():
                        proc = by_fd[fd]
                        done[proc.chunk] = _receive(proc)
                        _send(proc, tasks)
                yield done.pop(i)
        except BaseException:
            # a map that failed or was left early leaves replies in the
            # pipes that a later map would misread: end these workers
            self._stop()
            raise

    def _stop(self) -> None:
        """Close this process's pipe ends, which ends every worker, idle or
        in the middle of a chunk, and reap them all."""
        procs, self._procs = self._procs, []
        fds = [fd for proc in procs for fd in (proc.tasks, proc.replies)]
        if self._lifeline is not None:
            fds.append(self._lifeline)
            self._lifeline = None
        for fd in fds:
            _PARENT_FDS.discard(fd)
            os.close(fd)
        for proc in procs:
            try:
                os.waitpid(proc.pid, 0)
            except ChildProcessError:  # reaped already, by _receive
                pass


def run_chunks(
    worker: Callable[[int, int], T], total: int, threads: int, chunk: int | None = None
) -> Iterator[T]:
    """Yield worker(lo, hi) per chunk of 0..total-1, in chunk order, on a
    :class:`Fanout` used for this call alone."""
    with Fanout(worker, threads) as fan:
        yield from fan.map(0, total, chunk)


def _serve(worker: Callable, tasks: int, replies: int, lifeline: int) -> None:
    """A forked worker's life; it never returns. Run each task read from
    ``tasks`` and write its reply, ``(None, result)`` or ``(traceback,
    exception)``, to ``replies`` until ``tasks`` closes. A thread ends the
    process at once when ``lifeline`` closes."""
    import _thread
    import pickle

    status = 1
    try:
        for fd in _PARENT_FDS:
            os.close(fd)
        _PARENT_FDS.clear()
        _thread.start_new_thread(_exit_at_eof, (lifeline,))
        out = os.fdopen(replies, "wb")
        while task := os.read(tasks, _TASK.size):
            try:
                reply = pickle.dumps((None, worker(*_TASK.unpack(task))), pickle.HIGHEST_PROTOCOL)
            except Exception as exc:
                reply = _pickled_error(exc)
            out.write(reply)
            out.flush()
        status = 0
    finally:
        os._exit(status)


def _exit_at_eof(lifeline: int) -> None:
    # nothing is written to the lifeline: the read returns only at
    # end-of-file, once the parent has closed it or died
    os.read(lifeline, 1)
    os._exit(1)


def _pickled_error(exc: Exception) -> bytes:
    import pickle
    import traceback

    text = "".join(traceback.format_exception(type(exc), exc, exc.__traceback__))
    try:
        return pickle.dumps((text, exc), pickle.HIGHEST_PROTOCOL)
    except Exception:  # an exception that does not pickle arrives as its repr
        return pickle.dumps((text, RuntimeError(repr(exc))), pickle.HIGHEST_PROTOCOL)


def _send(proc: _Worker, tasks: Iterator[tuple[int, tuple[int, int]]]) -> None:
    """Hand ``proc`` the next of the numbered ``tasks``, if one is left. A
    worker that has exited cannot take it; ``_receive`` then reports it."""
    item = next(tasks, None)
    if item is not None:
        proc.chunk, (lo, hi) = item
        try:
            os.write(proc.tasks, _TASK.pack(lo, hi))
        except BrokenPipeError:
            pass


def _receive(proc: _Worker):
    """The result of the chunk ``proc`` holds, read as one pickle from its
    reply pipe. An exception the chunk raised is raised here, and a worker
    that died, before or while it wrote its reply, raises ``RuntimeError``."""
    import pickle

    try:
        with open(proc.replies, "rb", closefd=False) as reply:
            error, value = pickle.load(reply)
    except (EOFError, pickle.UnpicklingError):
        status = os.waitstatus_to_exitcode(os.waitpid(proc.pid, 0)[1])
        raise RuntimeError(
            f"worker process {proc.pid} ended (exit code {status}) before returning its chunk"
        ) from None
    if error is not None:
        raise value from RuntimeError(f"raised in worker process {proc.pid}:\n{error}")
    return value
