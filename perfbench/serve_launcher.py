"""Start ``repro serve`` in this process, optionally with the layer probes.

    python3 serve_launcher.py [--trace-out SPANS.json] -- serve --dir D ...

Everything after ``--`` goes to ``repro.cli.main`` unchanged.  SIGINT stops
the daemon with exit code 0.  With ``--trace-out`` the probes are installed
before the daemon starts, and the spans are written once the daemon has
stopped after SIGINT.
"""

from __future__ import annotations

import argparse
import json
import sys
import time


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--trace-out", default=None)
    parser.add_argument("cli", nargs=argparse.REMAINDER)
    args = parser.parse_args()
    argv = args.cli[1:] if args.cli[:1] == ["--"] else args.cli

    tracer = None
    if args.trace_out:
        import probes
        from spans import Tracer

        tracer = Tracer()
        probes.install(tracer, entry_modules=("repro.cli",))

    from repro.cli import main as cli_main

    try:
        code = cli_main(argv)
    except KeyboardInterrupt:
        # SIGINT is how the benchmark stops the daemon.  After a fast
        # restart it can land before the CLI has entered the loop that
        # catches it; the daemon's threads are daemonic, so this is the
        # same clean stop.
        code = 0
    if tracer is not None:
        payload = {
            "spans": tracer.spans,
            "counters": dict(tracer.counters),
            # The launching parent times the daemon on its monotonic clock.
            "clock_offset": time.perf_counter() - time.monotonic(),
        }
        with open(args.trace_out, "w", encoding="utf-8") as handle:
            json.dump(payload, handle)
    return code


if __name__ == "__main__":
    sys.exit(main())
