"""The process entry point: ``python -m tempbc`` and the ``tempbc`` script."""

import gc
import sys

from .cli import main


def run() -> int:
    """Run the CLI on ``sys.argv`` in a process of its own.

    The start-up heap (numpy and the package's modules) lives until exit, so
    it is frozen first: no collection walks it again, the final one at
    interpreter shutdown included. ``cli.main`` called as a library
    function leaves the caller's collector as it is.
    """
    gc.freeze()
    return main()


if __name__ == "__main__":
    sys.exit(run())
