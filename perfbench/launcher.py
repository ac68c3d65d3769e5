"""Starts the cli workload's hptcanon children, one at a time.

A process's peak resident set includes that of the process that
started it, so children started by the benchmark itself would all
report at least the benchmark's size.  This small process starts them
instead.  It reads one JSON argv list per line on stdin and answers
each with one JSON line: exit code, stdout, and peak RSS in KiB.
"""

import json
import os
import subprocess
import sys
import threading

TIMEOUT_S = 60

for line in sys.stdin:
    argv = json.loads(line)
    try:
        proc = subprocess.Popen(argv, stdout=subprocess.PIPE,
                                stderr=subprocess.DEVNULL)
    except OSError as exc:
        answer = {"code": None, "out": repr(exc), "maxrss_kb": 0}
    else:
        timer = threading.Timer(TIMEOUT_S, proc.kill)
        timer.start()
        out = proc.stdout.read()
        proc.stdout.close()
        _, status, usage = os.wait4(proc.pid, 0)
        timer.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
        answer = {"code": proc.returncode,
                  "out": out.decode("utf-8", errors="replace"),
                  "maxrss_kb": usage.ru_maxrss}
    print(json.dumps(answer), flush=True)
