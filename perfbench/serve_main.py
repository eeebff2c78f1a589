"""``repro serve`` with the benchmark's tracing installed.

    python perfbench/serve_main.py --trace-dir DIR serve --jobs 2 ...

Installs the tracing wrappers, then hands the remaining arguments to the
public CLI, so the server and the pool workers it forks record spans.
The server writes its own trace file after it drains and stops.
"""

from __future__ import annotations

import sys


def main() -> int:
    if len(sys.argv) < 3 or sys.argv[1] != "--trace-dir":
        print(
            "usage: serve_main.py --trace-dir DIR serve [ARGS...]", file=sys.stderr
        )
        return 2
    import tracer

    tracer.install(sys.argv[2])
    from repro.cli import main as cli_main

    try:
        return cli_main(sys.argv[3:])
    finally:
        tracer.flush()


if __name__ == "__main__":
    raise SystemExit(main())
