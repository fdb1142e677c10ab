"""Start ``repro serve`` through ``repro.cli.main`` with tracing on request.

    python3 e2ebench/serve_launcher.py SPANS_OUT serve --port 0 ...

The server runs exactly as ``python -m repro serve ...`` would.  SIGUSR1
installs the span wrappers of ``spans.LAYERS`` and prints ``tracing on``;
a run that never sends it executes the program unwrapped.  After the
server drains (SIGTERM), the recorded spans are written to SPANS_OUT.
"""

from __future__ import annotations

import json
import signal
import sys
from pathlib import Path


def main(argv: list[str]) -> int:
    out, args = Path(argv[0]), argv[1:]
    armed = []

    def arm(signum, frame):  # noqa: ARG001 - signal signature
        if not armed:
            from spans import Tracer, install

            armed.append(Tracer())
            install(armed[0])
        print("tracing on", flush=True)

    signal.signal(signal.SIGUSR1, arm)
    from repro.cli import main as cli_main

    code = cli_main(args)
    if armed:
        out.write_text(json.dumps({"spans": armed[0].spans,
                                   "bytes": armed[0].bytes}),
                       encoding="utf-8")
    return code


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
