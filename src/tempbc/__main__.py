"""The process entry point: ``python -m tempbc`` and the ``tempbc`` script.

Importing this module imports no other submodule and changes nothing; only
:func:`run` prepares the process.
"""

import os
import sys


def run() -> int:
    """Run the CLI on ``sys.argv`` in a process of its own.

    numpy's OpenBLAS starts a thread pool when numpy is imported, and tempbc
    never calls BLAS, so the pool only costs CPU. ``OPENBLAS_NUM_THREADS`` is
    therefore set to 1, unless the user set it, before any command imports
    numpy (only ``compare`` and ``diameter --no-replace`` do; ``exact``,
    ``fixed``, ``progressive`` and ``diameter`` draw and compute without
    it). The run also asks the CLI to freeze the start-up heap (the
    modules the command loaded and the graph), which
    lives until exit, just before the timed call: no collection walks it
    again, the final one at interpreter shutdown included. ``cli.main``
    called as a library function leaves the caller's environment and
    collector as they are.
    """
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    from . import cli

    return cli.main(freeze_heap=True)


if __name__ == "__main__":
    sys.exit(run())
