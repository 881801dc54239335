"""The launcher that tests use to read a child command's own peak RSS."""

# Starts the command given in argv, passes its stdout on, and writes its exit
# code and peak RSS in KiB to stderr. A child's ru_maxrss also counts the
# pages it shared with its parent before exec, so the test process, which
# has grown by then, starts this small one to start the command.
LAUNCHER = """
import os, subprocess, sys
with subprocess.Popen(sys.argv[1:], stdout=subprocess.PIPE) as proc:
    out = proc.stdout.read()
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
sys.stdout.buffer.write(out)
print(proc.returncode, usage.ru_maxrss, file=sys.stderr)
"""
