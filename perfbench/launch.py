"""Run one mipverify CLI invocation in this process and record its timing.

Usage::

    python3 perfbench/launch.py TIMING_FILE SPANS_FILE|- -- CLI_ARGS...

Imports ``mipverify.cli`` and, when SPANS_FILE is not ``-``, wraps the
public functions listed in ``tracer.TARGETS``.  It then notes the
``time.monotonic()`` instant at which ``mipverify.cli.main`` is entered,
calls it with CLI_ARGS and exits with its return code.  When the call ends,
the instant and the process's peak resident set go to TIMING_FILE and the
spans to SPANS_FILE, so stdout and stderr carry only what the CLI writes.
"""

from __future__ import annotations

import json
import sys
import time
import uuid


def peak_rss_kb() -> int:
    """Peak resident set of this process image (VmHWM), in kB.

    ``ru_maxrss`` is not used: on Linux a child's value also counts the
    resident set of the parent it was forked from, which here is the
    benchmark client.
    """
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("VmHWM missing from /proc/self/status")


def run(argv: list[str]) -> int:
    if len(argv) < 3 or argv[2] != "--":
        raise SystemExit("usage: launch.py TIMING_FILE SPANS_FILE|- -- CLI_ARGS...")
    timing_path, spans_path, cli_args = argv[0], argv[1], argv[3:]
    import mipverify.cli as cli
    tracer = None
    if spans_path != "-":
        from tracer import Tracer
        tracer = Tracer(trace_id=uuid.uuid4().hex)
        tracer.install()
    entered = time.monotonic()
    try:
        return cli.main(cli_args)
    finally:
        with open(timing_path, "w", encoding="ascii") as fh:
            json.dump({"main_entered": entered, "peak_rss_kb": peak_rss_kb()}, fh)
        if tracer is not None:
            tracer.dump(spans_path)


if __name__ == "__main__":
    sys.exit(run(sys.argv[1:]))
