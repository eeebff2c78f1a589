#!/usr/bin/env python
"""CI chaos smoke: a campaign survives injected crashes, hangs, and errors.

Drives the real ``repro campaign`` CLI four times over the same grid:

1. **Fault-free baseline** — establishes the expected results.
2. **Chaos pass** — with ``REPRO_FAULT_PLAN`` injecting a transient worker
   crash (recovered by ``--max-retries``), a hung cell (killed by
   ``--cell-timeout``), and a persistent cell error.  Must finish with
   exit code 3, exactly two quarantined cells, and every surviving
   result identical to the baseline.
3. **Serial chaos pass** — the same hang and error under ``--jobs 1``,
   where cells run in the CLI's own process (so no crash: an injected
   ``os._exit`` would kill the CLI itself).  Same expectations, and the
   abandoned hung cell must not hold the process open: the pass fails
   if it takes longer than :data:`SERIAL_BUDGET` seconds.
4. **Repair pass** — faults cleared, ``--resume`` re-attempts only the
   quarantined cells.  Must exit 0 and converge the store to the full,
   failure-free grid.

With ``--serve``, a fifth pass runs the campaign-*service* chaos smoke
(``scripts/serve_smoke.py --chaos``): the same invariants stated against
``python -m repro serve`` under injected request errors, disconnects,
delays, and a murdered worker.

Usage: PYTHONPATH=src python scripts/chaos_smoke.py [--serve] [--keep]
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

GRID = [
    "--workloads", "MxM,Shape",
    "--schedulers", "RS,LS",
    "--seeds", "0,1",
    "--scale", "0.25",
    "--quiet",
]

#: The two cells expected to be quarantined by the chaos pass.
HANG_CELL = ("Shape", "LS", 1)
ERROR_CELL = ("MxM", "LS", 1)

#: Flags shared by both chaos passes.
CHAOS_FLAGS = ["--max-retries", "1", "--cell-timeout", "3", "--keep-going"]

#: Wall-clock bound on the serial chaos pass: the hung cell sleeps 60 s,
#: and its two 3 s timeouts must be all the pass waits for.
SERIAL_BUDGET = 30.0


def run_cli(arguments, env, expect):
    command = [sys.executable, "-m", "repro", "campaign", *arguments]
    printable = " ".join(arguments)
    print(f"$ repro campaign {printable}")
    proc = subprocess.run(command, env=env, capture_output=True, text=True)
    sys.stdout.write(proc.stdout)
    sys.stderr.write(proc.stderr)
    if proc.returncode != expect:
        raise SystemExit(
            f"FAIL: expected exit {expect}, got {proc.returncode}"
        )
    return proc


def load_store(path: Path):
    results, failures = {}, {}
    for line in path.read_text().splitlines():
        record = json.loads(line)
        if record.get("failure"):
            failures[record["key"]] = record
            results.pop(record["key"], None)
        else:
            results[record["key"]] = record
            failures.pop(record["key"], None)
    return results, failures


def comparable(record: dict) -> dict:
    """A result record minus its nondeterministic wall-clock fields."""
    return {
        k: v
        for k, v in record.items()
        if k not in ("seconds", "downgraded")
    }


def check_quarantine(label: str, store: Path, baseline: dict) -> None:
    """A chaos pass quarantined exactly the hung and erroring cells and
    every survivor equals its fault-free baseline."""
    survivors, quarantined = load_store(store)
    expected_bad = {
        key
        for key, record in baseline.items()
        if (record["workload"], record["scheduler"], record["seed"])
        in (HANG_CELL, ERROR_CELL)
    }
    assert set(quarantined) == expected_bad, (
        f"quarantine mismatch: {sorted(quarantined)} != "
        f"{sorted(expected_bad)}"
    )
    kinds = sorted(record["kind"] for record in quarantined.values())
    assert kinds == ["error", "timeout"], f"unexpected kinds: {kinds}"
    assert set(survivors) == set(baseline) - expected_bad, (
        f"{label} pass lost or invented surviving cells"
    )
    for key, record in survivors.items():
        assert comparable(record) == comparable(baseline[key]), (
            f"survivor {key} differs from the fault-free baseline"
        )
    print(
        f"{label} pass OK: {len(survivors)} survivors identical, "
        f"{len(quarantined)} quarantined ({', '.join(kinds)})"
    )


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--keep", action="store_true",
        help="keep the scratch directory for inspection",
    )
    parser.add_argument(
        "--serve", action="store_true",
        help="also run the campaign-service chaos smoke "
             "(scripts/serve_smoke.py --chaos)",
    )
    options = parser.parse_args()

    scratch = Path(tempfile.mkdtemp(prefix="repro-chaos-"))
    baseline_store = scratch / "baseline.jsonl"
    chaos_store = scratch / "chaos.jsonl"
    serial_store = scratch / "serial.jsonl"
    rules = [
        "hang@cell:Shape|*|LS|seed=1*,seconds=60",
        "error@cell:MxM|*|LS|seed=1*",
    ]
    plan = "; ".join(
        [
            f"seed=1; ledger={scratch / 'ledger'}",
            "crash@cell:MxM|*|RS|seed=0*,times=1",
            *rules,
        ]
    )
    clean_env = {
        k: v for k, v in os.environ.items() if k != "REPRO_FAULT_PLAN"
    }
    chaos_env = dict(clean_env, REPRO_FAULT_PLAN=plan)
    serial_env = dict(clean_env, REPRO_FAULT_PLAN="; ".join(rules))
    pooled = ["--jobs", "2"]

    try:
        print("== 1/4 fault-free baseline ==")
        run_cli(
            GRID + pooled + ["--store", str(baseline_store)], clean_env, expect=0
        )
        baseline, none_expected = load_store(baseline_store)
        assert len(baseline) == 8, f"baseline incomplete: {len(baseline)}/8"
        assert not none_expected, "baseline must not record failures"

        print("== 2/4 chaos pass (crash + hang + error injected) ==")
        run_cli(
            GRID + pooled + CHAOS_FLAGS + ["--store", str(chaos_store)],
            chaos_env,
            expect=3,
        )
        check_quarantine("chaos", chaos_store, baseline)

        print("== 3/4 serial chaos pass (hang + error injected, --jobs 1) ==")
        started = time.monotonic()
        run_cli(
            GRID + ["--jobs", "1"] + CHAOS_FLAGS + ["--store", str(serial_store)],
            serial_env,
            expect=3,
        )
        elapsed = time.monotonic() - started
        print(f"serial chaos pass took {elapsed:.1f}s (budget {SERIAL_BUDGET:g}s)")
        if elapsed > SERIAL_BUDGET:
            raise SystemExit(
                f"FAIL: serial chaos pass took {elapsed:.1f}s "
                f"(budget {SERIAL_BUDGET:g}s): a timed-out cell held "
                "the process open"
            )
        check_quarantine("serial chaos", serial_store, baseline)

        print("== 4/4 repair pass (faults cleared, --resume) ==")
        run_cli(
            GRID + pooled + ["--store", str(chaos_store), "--resume"],
            clean_env,
            expect=0,
        )
        repaired, leftover = load_store(chaos_store)
        assert not leftover, f"failures survived the repair: {leftover}"
        assert set(repaired) == set(baseline), "repair did not converge"
        for key, record in repaired.items():
            assert comparable(record) == comparable(baseline[key]), (
                f"repaired {key} differs from the fault-free baseline"
            )
        print("repair pass OK: store converged to the full grid")

        if options.serve:
            print("== 5/5 campaign-service chaos smoke ==")
            serve_smoke = Path(__file__).with_name("serve_smoke.py")
            proc = subprocess.run(
                [sys.executable, str(serve_smoke), "--chaos"], env=clean_env
            )
            if proc.returncode != 0:
                raise SystemExit(
                    f"FAIL: serve chaos smoke exited {proc.returncode}"
                )

        print("CHAOS SMOKE PASSED")
        return 0
    finally:
        if options.keep:
            print(f"scratch kept at {scratch}")
        else:
            shutil.rmtree(scratch, ignore_errors=True)


if __name__ == "__main__":
    raise SystemExit(main())
