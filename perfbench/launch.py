"""Run one command and write its exit code, wall time, CPU time and peak RSS as JSON.

    python3 perfbench/launch.py STATS.json COMMAND [ARGS...]

Linux reports a child's peak resident set as at least the peak of the
process that spawned it, so the benchmark spawns each step through this
small interpreter instead of from its own, larger process.  The command
inherits this process's standard streams, environment and directory.
"""

import json
import os
import sys
import time


def main() -> int:
    stats, cmd = sys.argv[1], sys.argv[2:]
    t0 = time.perf_counter()
    pid = os.posix_spawn(cmd[0], cmd, os.environ)
    _, status, usage = os.wait4(pid, 0)
    wall = time.perf_counter() - t0
    with open(stats, "w") as fh:
        json.dump(
            {
                "exit": os.waitstatus_to_exitcode(status),
                "wall_s": wall,
                "cpu_s": usage.ru_utime + usage.ru_stime,
                "rss_mb": usage.ru_maxrss / 1024,
            },
            fh,
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
