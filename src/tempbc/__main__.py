"""The process entry point: ``python -m tempbc`` and the ``tempbc`` script.
Importing this module imports no other submodule and changes nothing."""

import sys


def run() -> int:
    """Run the CLI on ``sys.argv`` in a process of its own, freezing the
    start-up heap (the loaded modules and the graph, which live until exit)
    just before the timed call, so that no collection walks it again."""
    from . import cli

    return cli.main(freeze_heap=True)


if __name__ == "__main__":
    sys.exit(run())
