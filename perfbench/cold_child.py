"""Traced stand-in for ``python -m barnesg.cli ARGS`` in a fresh process.

Usage: python cold_child.py SPANS_FILE CLI_ARGS...

Times ``import barnesg.cli`` as the span ``cold.import``, installs the
benchmark's spans, runs ``barnesg.cli.main(CLI_ARGS)`` (whose output goes to
stdout exactly as from the real entry point) and writes the spans as JSON
lines to SPANS_FILE. The caller puts the repository's ``src`` on PYTHONPATH.
"""

import sys
import time

from tracing import Tracer


def main() -> int:
    spans_file, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    t0 = time.perf_counter_ns()
    import barnesg.cli
    tracer.record("cold.import", t0, time.perf_counter_ns())
    tracer.install()
    try:
        return barnesg.cli.main(argv)
    finally:
        tracer.uninstall()
        tracer.dump(spans_file)


if __name__ == "__main__":
    sys.exit(main())
