"""Starts the benchmark's child processes and reports each child's rusage.

    python3 -S spawner.py     (requests on stdin, replies on stdout)

On Linux a child's ru_maxrss keeps the high-water mark of the memory it
was forked from, so a child started by the harness, which holds numpy and
the results, would report at least the harness's own RSS. Children are
started from this small process instead, which imports only the standard
library.

One JSON request per line: {"argv", "cwd", "env", "stdout", "stderr",
"timeout"}; one JSON reply per line: {"wall_s", "returncode", "cpu_s",
"maxrss_kb"}. Wall time runs from just before the child starts to its exit.
"""

import json
import os
import subprocess
import sys
import threading
import time


def run(req):
    with open(req["stdout"], "wb") as out, open(req["stderr"], "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(req["argv"], cwd=req["cwd"], env=req["env"],
                                stdin=subprocess.DEVNULL, stdout=out, stderr=err)
        watchdog = threading.Timer(req["timeout"], proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {"wall_s": wall, "returncode": proc.returncode,
            "cpu_s": usage.ru_utime + usage.ru_stime, "maxrss_kb": usage.ru_maxrss}


def main():
    for line in sys.stdin:
        sys.stdout.write(json.dumps(run(json.loads(line))) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
