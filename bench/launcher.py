"""Spawns the CLI children of one benchmark run from a small process.

A child's peak RSS from ``wait4`` includes the peak RSS of the process that
spawned it: exec records the peak of the address space it replaces, which a
vfork or fork child shares with or copies from its parent.  The benchmark
process grows to 190 MB in its warm rounds, so it starts this launcher
while it is still small (about 10 MB) and has it spawn every CLI child.

Protocol: one JSON line ``[argv, cwd, timeout_s]`` per child on stdin; one
JSON line ``[wall_s, peak_rss_mb, exit_code, stderr]`` back on stdout.
The launcher exits when stdin closes.
"""
import json
import os
import subprocess
import sys
import tempfile
import threading
import time

for line in sys.stdin:
    argv, cwd, timeout = json.loads(line)
    with tempfile.TemporaryFile(dir=cwd) as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, stdout=subprocess.DEVNULL, stderr=err)
        killer = threading.Timer(timeout, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        err.seek(0)
        stderr = err.read().decode(errors="replace")[-2000:]
    print(json.dumps([wall, usage.ru_maxrss / 1024.0, proc.returncode, stderr]), flush=True)
