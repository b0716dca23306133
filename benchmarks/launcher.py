"""Spawns the benchmark's children and reports their times and peak RSS.

Usage: python3 launcher.py   (started by run.py; one JSON request per stdin line)

Each request {"argv", "out", "err", "deadline_s"} runs one child with its
stdout and stderr sent to the two files, kills it at the wall-clock
deadline, and answers with one JSON line {"wall_s", "cpu_s", "code",
"rss_mb", "timed_out"}.  ``cpu_s`` is the child's user plus system time,
all its threads together.

Linux counts the memory a process had before exec into its child's
``ru_maxrss``, so a child spawned by the benchmark's own process, which
holds every output it has checked, would report that process's size.
This launcher stays small, so ``ru_maxrss`` is the child's own peak.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import threading
import time


def spawn(argv, out_path: str, err_path: str, deadline_s: float) -> dict:
    """Run argv to its end or its deadline; the clock spans spawn to exit."""
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdin=subprocess.DEVNULL, stdout=out, stderr=err)
        exited = threading.Event()
        lock = threading.Lock()
        timed_out = []

        def kill():
            with lock:
                if not exited.is_set():
                    timed_out.append(True)
                    os.kill(proc.pid, signal.SIGKILL)

        timer = threading.Timer(deadline_s, kill)
        timer.start()
        try:
            # Wait without reaping, so the timer can never signal a reused pid.
            os.waitid(os.P_PID, proc.pid, os.WEXITED | os.WNOWAIT)
            wall = time.perf_counter() - t0
            with lock:
                exited.set()
        finally:
            timer.cancel()
            timer.join()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    return {"wall_s": wall, "cpu_s": usage.ru_utime + usage.ru_stime, "code": proc.returncode,
            "rss_mb": usage.ru_maxrss / 1024, "timed_out": bool(timed_out)}


def main() -> int:
    for line in sys.stdin:
        req = json.loads(line)
        reply = spawn(req["argv"], req["out"], req["err"], req["deadline_s"])
        sys.stdout.write(json.dumps(reply) + "\n")
        sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
