"""One benchmark sample: a cold `otplab.cli.main` call in this fresh process.

    python3 perfbench/child.py SPAWN_NS TRACE < argv.json

SPAWN_NS is the parent's `time.monotonic_ns()` just before it started this
process; TRACE is 1 to install the tracer.  The otplab argv arrives on
stdin as a JSON list.  Writes one JSON header line to stdout, then the
report bytes that `cli.main` wrote to its (captured) stdout.
"""

import contextlib
import importlib
import io
import json
import sys
import time

import tracer


def peak_resident_kb() -> int:
    """This address space's peak resident set (VmHWM).

    Not `ru_maxrss`: Linux carries the larger of the parent's resident set
    at spawn and the child's own across fork and exec, so a large parent
    would mask the child's figure.
    """
    with open("/proc/self/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM line in /proc/self/status")


def main() -> None:
    spawn_ns = int(sys.argv[1])
    cli = importlib.import_module("otplab.cli")
    setup_s = (time.monotonic_ns() - spawn_ns) / 1e9

    argv = json.load(sys.stdin)
    captured = io.StringIO()
    recorder = None
    call = cli.main
    if sys.argv[2] == "1":
        recorder = tracer.Tracer()
        tracer.install(recorder)
        call = lambda args: recorder.call(tracer.ROOT, cli.main, (args,), {})  # noqa: E731
    start = time.perf_counter()
    with contextlib.redirect_stdout(captured):
        code = call(argv)
    wall_s = time.perf_counter() - start
    peak_rss_kb = peak_resident_kb()

    header = {
        "exit_code": code,
        "wall_s": wall_s,
        "setup_s": setup_s,
        "peak_rss_mb": peak_rss_kb / 1024.0,
        "spans": None if recorder is None else recorder.spans,
    }
    out = sys.stdout.buffer
    out.write(json.dumps(header, separators=(",", ":")).encode() + b"\n")
    out.write(captured.getvalue().encode())
    out.flush()


if __name__ == "__main__":
    main()
