"""Run one command; write its spawn-to-exit time and resource use to a file.

    python3 -S -I bench/launch.py <result> <timeout_s> <program> [args...]

The result file gets one line: wall seconds, peak resident KiB and the
exit code.  A child's peak resident memory (``ru_maxrss``) includes that
of the process it was spawned from, so the benchmark spawns through this
small interpreter rather than from its own, larger process.  The child is killed after ``timeout_s`` or when this
process receives SIGTERM.
"""

import os
import signal
import sys
import time


def main():
    result, timeout, argv = sys.argv[1], float(sys.argv[2]), sys.argv[3:]
    start = time.perf_counter()
    pid = os.posix_spawn(argv[0], argv, os.environ)

    def stop(signum, frame):
        os.kill(pid, signal.SIGKILL)

    signal.signal(signal.SIGALRM, stop)
    signal.signal(signal.SIGTERM, stop)
    signal.setitimer(signal.ITIMER_REAL, timeout)
    _, status, usage = os.wait4(pid, 0)
    wall = time.perf_counter() - start
    signal.setitimer(signal.ITIMER_REAL, 0)
    with open(result, "w") as fh:
        fh.write(f"{wall!r} {usage.ru_maxrss} {os.waitstatus_to_exitcode(status)}\n")


if __name__ == "__main__":
    main()
