"""Runs the benchmark's child processes from a small, separate process.

On Linux a child inherits the RSS high-water mark of the process that
spawns it when it execs, so the max RSS that wait4 reports for a child of
the benchmark (which holds inputs and expected outputs) would be the
benchmark's own. This launcher is started before any input is built and
stays small, so the figure it reports is the child's.

Protocol, one JSON array per line: reads [argv, stdout_path, timeout_s] on
stdin and writes [wall_s, exit_code, max_rss_mb] on stdout. It exits when
stdin closes.
"""

import contextlib
import json
import os
import signal
import sys
import threading
import time


def _kill(pid):
    with contextlib.suppress(ProcessLookupError):
        os.kill(pid, signal.SIGKILL)


def run(argv, stdout_path, timeout_s):
    actions = [
        (os.POSIX_SPAWN_OPEN, 1, stdout_path,
         os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644),
        (os.POSIX_SPAWN_OPEN, 2, os.devnull, os.O_WRONLY, 0),
    ]
    start = time.perf_counter()
    pid = os.posix_spawn(argv[0], argv, os.environ, file_actions=actions)
    killer = threading.Timer(timeout_s, _kill, (pid,))
    killer.start()
    try:
        _, status, usage = os.wait4(pid, 0)
    finally:
        killer.cancel()
    wall = time.perf_counter() - start
    return [wall, os.waitstatus_to_exitcode(status), usage.ru_maxrss / 1024]


def main():
    for line in sys.stdin:
        print(json.dumps(run(*json.loads(line))), flush=True)


if __name__ == "__main__":
    main()
