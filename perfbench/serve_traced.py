"""``repro serve`` with the benchmark's spans installed.

Usage: ``python3 perfbench/serve_traced.py SPANS_PATH serve [serve args]``.
Runs the real CLI verb in this process after wrapping the job store,
result cache, executor and simulator layers, and writes the spans to
``SPANS_PATH`` once SIGTERM has drained the server.
"""

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from spans import Tracer, instrument_service  # noqa: E402


def main(argv) -> int:
    tracer = Tracer()
    with tracer.span("cli.import"):
        import repro.cli
    instrument_service(tracer)
    try:
        return repro.cli.main(argv[1:])
    finally:
        tracer.restore()
        tracer.write(argv[0])


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
