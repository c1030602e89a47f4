"""Run one child process and report its wall time, CPU time and peak RSS.

    python3 perfbench/launch.py STDOUT STDERR TIMEOUT_S -- program args...

Prints one JSON object: wall_s (start to exit), cpu_s (user + system),
peak_rss_mb and returncode.  The child's output goes to the two files.

Linux carries a parent's peak RSS across fork and exec into the child's
ru_maxrss, so a child started by the benchmark itself, whose memory grows
with the outputs it checks, would report the benchmark's peak instead of
its own.  This launcher is a fresh, small interpreter that never reads the
child's output, so the peak it passes on is below any child's own.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import threading
import time


def main(argv: list[str]) -> int:
    out_path, err_path, timeout = argv[0], argv[1], float(argv[2])
    if argv[3] != "--" or len(argv) < 5:
        print(__doc__, file=sys.stderr)
        return 2
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        started = time.perf_counter()
        proc = subprocess.Popen(argv[4:], stdout=out, stderr=err)
        watchdog = threading.Timer(timeout, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - started
    proc.returncode = os.waitstatus_to_exitcode(status)
    print(json.dumps({
        "wall_s": wall,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "peak_rss_mb": usage.ru_maxrss / 1024.0,  # Linux reports KiB
        "returncode": proc.returncode,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
