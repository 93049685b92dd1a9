"""Runs the benchmark's CLI commands from a small process.

A command's ``ru_maxrss`` also counts the memory of the process it was forked
from, so the benchmark, which holds graphs and references, does not fork the
commands itself. This process reads one JSON request per line on standard
input (``argv``, ``cwd``, ``env``, ``stderr``), runs the command to completion
and answers one JSON line: its exit code, wall time and the ``wait4`` rusage
of its process tree. It ends when its standard input closes.
"""

import json
import os
import subprocess
import sys
import time


def main() -> None:
    for line in sys.stdin:
        request = json.loads(line)
        with open(request["stderr"], "w", encoding="utf-8") as err:
            started = time.perf_counter()
            proc = subprocess.Popen(
                request["argv"], cwd=request["cwd"], env=request["env"],
                stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL, stderr=err,
            )
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - started
        proc.returncode = os.waitstatus_to_exitcode(status)
        print(json.dumps({
            "exit": proc.returncode,
            "wall_s": wall,
            "cpu_s": usage.ru_utime + usage.ru_stime,
            "maxrss_kb": usage.ru_maxrss,
        }), flush=True)


if __name__ == "__main__":
    main()
