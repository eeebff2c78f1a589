"""One grid pass of the figure7 or sensitivity workload, in a fresh process.

    python perfbench/pass_main.py --workload figure7 --seed 3 \\
        --memo-dir DIR [--trace-dir DIR]

``run.py`` launches this once per cold or warm pass.  It prints one JSON
line: when its imports finished (on the monotonic clock the launching
process shares), the pass's host time, the largest peak resident set of
the pass process and its pool workers, and the result fingerprint of the
pass's ``RunResult``s.  With ``--trace-dir`` it installs the tracing
wrappers before the pass and writes its trace file after it.
"""

from __future__ import annotations

import argparse
import json
import os
import time
from pathlib import Path


def _peak_kb(pid: int | str) -> int:
    """``VmHWM`` (peak resident set, kB) of a live process; 0 if it is gone."""
    try:
        status = Path(f"/proc/{pid}/status").read_text()
    except OSError:
        return 0
    for line in status.splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1])
    return 0


def peak_rss_mb() -> float:
    """Largest peak RSS of this process and its children, the pool workers
    the engine keeps resident until exit."""
    me = os.getpid()
    peaks = [_peak_kb(me)]
    for entry in Path("/proc").iterdir():
        if not entry.name.isdigit():
            continue
        try:
            stat = (entry / "stat").read_text()
        except OSError:
            continue
        # "pid (comm) state ppid ...": comm may hold spaces, so split after it.
        if int(stat.rsplit(")", 1)[1].split()[1]) == me:
            peaks.append(_peak_kb(entry.name))
    return max(peaks) / 1024.0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("figure7", "sensitivity"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--memo-dir", required=True)
    parser.add_argument("--trace-dir", default=None)
    args = parser.parse_args()

    from repro.api import Engine
    from repro.cache.store import configure_memo_store
    from repro.serve.service import result_fingerprint

    import grids

    imported = time.monotonic()
    if args.trace_dir is not None:
        import tracer

        tracer.install(args.trace_dir)
    configure_memo_store(args.memo_dir)
    spec = grids.pass_spec(args.workload, args.seed)
    started = time.monotonic()
    outcome = Engine(jobs=grids.PASS_JOBS[args.workload]).run_campaign(spec)
    elapsed = time.monotonic() - started
    if args.trace_dir is not None:
        tracer.flush()
    print(
        json.dumps(
            {
                "imported_at": imported,
                "pass_s": elapsed,
                "cells": len(outcome.results),
                "failures": len(outcome.failures),
                "peak_rss_mb": peak_rss_mb(),
                "fingerprint": result_fingerprint(outcome.results),
            }
        ),
        flush=True,
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
