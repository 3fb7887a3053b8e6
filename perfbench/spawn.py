"""Run one child process; print its wall time and resource usage as JSON.

    python3 -I -S perfbench/spawn.py CAP_S STDOUT STDERR -- ARGV...

The benchmark starts every measured child through this small process.  On
Linux a process made by fork or vfork takes its creator's peak RSS as the
start of its own ru_maxrss; started from here, that floor is this process's
few megabytes rather than the benchmark's.  A child still running after
CAP_S seconds is killed and reported with ``killed``.
"""

import json
import os
import signal
import sys
import threading
import time


def main(argv):
    cap, out_path, err_path, sep, *child = argv
    if sep != "--" or not child:
        sys.stderr.write("usage: spawn.py CAP_S STDOUT STDERR -- ARGV...\n")
        return 2
    write = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    actions = [
        (os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
        (os.POSIX_SPAWN_OPEN, 1, out_path, write, 0o644),
        (os.POSIX_SPAWN_OPEN, 2, err_path, write, 0o644),
    ]
    lock = threading.Lock()
    state = {"running": True, "killed": False}

    def kill():
        with lock:
            if state["running"]:
                state["killed"] = True
                os.kill(pid, signal.SIGKILL)

    start = time.perf_counter()
    pid = os.posix_spawn(child[0], child, os.environ, file_actions=actions)
    timer = threading.Timer(float(cap), kill)
    timer.start()
    try:
        _, status, usage = os.wait4(pid, 0)
    finally:
        with lock:
            state["running"] = False
        timer.cancel()
        timer.join()
    wall = time.perf_counter() - start
    json.dump(
        {
            "wall_s": wall,
            "cpu_s": usage.ru_utime + usage.ru_stime,
            "peak_rss_mb": usage.ru_maxrss / 1024.0,
            "exit": os.waitstatus_to_exitcode(status),
            "killed": state["killed"],
        },
        sys.stdout,
    )
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
