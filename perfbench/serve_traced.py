"""Run ``repro serve`` with the benchmark's tracer installed.

Usage: ``python3 perfbench/serve_traced.py SPANS.json serve [serve args]``

The wrappers are installed before the service starts but record nothing
until SIGUSR1.  SIGUSR2 stops recording and writes the spans, observer
events, counter deltas, absent layers and the recording window's wall time
to ``SPANS.json``.  Each signal is acknowledged with one line on standard
output, after the service's own start-up line.
"""

from __future__ import annotations

import json
import signal
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import repro.cli  # noqa: E402  (after the path set-up above)
import repro.serve.service  # noqa: E402,F401  (imported before patching)
from tracer import Tracer  # noqa: E402


def main() -> int:
    out = Path(sys.argv[1])
    tracer = Tracer().install()
    window = {}

    def start(*_):
        window["t0"] = time.perf_counter()
        tracer.start()
        print("perfbench: tracing", flush=True)

    def dump(*_):
        tracer.stop()
        payload = tracer.dump()
        payload["window_s"] = time.perf_counter() - window.get("t0", 0.0)
        out.write_text(json.dumps(payload))
        print("perfbench: spans written", flush=True)

    signal.signal(signal.SIGUSR1, start)
    signal.signal(signal.SIGUSR2, dump)
    return repro.cli.main(sys.argv[2:])


if __name__ == "__main__":
    raise SystemExit(main())
