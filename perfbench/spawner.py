"""Launches the CLI children of a benchmark run from a small process.

On Linux a child's ``ru_maxrss`` starts at the peak RSS of the process it
was forked from, so children forked by the benchmark itself, which holds
scenes in memory, would all report at least the benchmark's peak. This
process stays small. It reads one JSON request per line on stdin,
``{"argv", "env", "stderr", "timeout_s"}``, runs that child to completion,
killing it once ``timeout_s`` has passed, and answers one JSON line
``{"code", "wall_s", "cpu_s", "rss_mib"}``. It exits when stdin closes.
"""

import json
import os
import select
import subprocess
import sys
import time


def run_child(argv, env, stderr_path, timeout_s) -> dict:
    with open(stderr_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, env=env, stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL, stderr=err)
        ready = []
        try:
            pidfd = os.pidfd_open(proc.pid)
            try:
                ready, _, _ = select.select([pidfd], [], [], max(0.0, timeout_s))
            finally:
                os.close(pidfd)
        finally:
            if not ready:
                proc.kill()
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
        wall = time.perf_counter() - start
    return {"code": proc.returncode, "wall_s": wall,
            "cpu_s": usage.ru_utime + usage.ru_stime, "rss_mib": usage.ru_maxrss / 1024}


def main() -> None:
    for line in sys.stdin:
        request = json.loads(line)
        reply = run_child(request["argv"], request["env"], request["stderr"], request["timeout_s"])
        print(json.dumps(reply), flush=True)


if __name__ == "__main__":
    main()
