"""Start commands for run.py and report each one's wall time and peak RSS.

Reads one JSON request per line on stdin ({"argv", "cwd", "stdout", "stderr"})
and answers each with one JSON line ({"wall_s", "peak_rss_kib", "returncode"})
on stdout; it exits when stdin closes.

This process exists to stay small. On Linux a child started by fork or vfork
begins with its parent's memory high-water mark, so a child of run.py, which
reads the whole cohort to check outputs, would report run.py's peak instead
of its own.
"""

import json
import os
import subprocess
import sys
import time


def main() -> int:
    for line in sys.stdin:
        req = json.loads(line)
        with open(req["stdout"], "wb") as out, open(req["stderr"], "wb") as err:
            start = time.perf_counter()
            child = subprocess.Popen(req["argv"], cwd=req["cwd"], stdout=out, stderr=err)
            _, status, usage = os.wait4(child.pid, 0)
            wall = time.perf_counter() - start
            child.returncode = os.waitstatus_to_exitcode(status)
        print(json.dumps({"wall_s": wall, "peak_rss_kib": usage.ru_maxrss,
                          "returncode": child.returncode}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
