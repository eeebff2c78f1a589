#!/usr/bin/env python
"""CI serve smoke: the campaign service under concurrent clients and murder.

Exercises the full ``python -m repro serve`` stack as a real subprocess:

1. **Baseline** — the grid runs in-process; its timing-independent
   result fingerprint is the expected answer.
2. **Service pass** — a server subprocess announces its ephemeral port;
   two concurrent clients submit the *same* spec (in-flight dedup), and
   a worker process is SIGKILLed mid-campaign.  Both clients must
   converge to ``done`` with zero failures, byte-identical rollups, and
   the baseline fingerprint.
3. **Drain** — SIGTERM must exit 0 after flushing the store.

With ``--chaos``, the server additionally runs under a fault plan that
injects request errors, mid-stream disconnects, delays, and a transient
worker crash; the retrying clients must still converge byte-identically.

Usage: PYTHONPATH=src python scripts/serve_smoke.py [--chaos] [--keep]
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from repro.api.engine import Engine  # noqa: E402
from repro.campaign.spec import (  # noqa: E402
    CampaignSpec,
    MachineVariant,
    SchedulerSpec,
)
from repro.serve import (  # noqa: E402
    ServeClient,
    result_fingerprint,
    submit_converged,
)

CHAOS_PLAN = "; ".join(
    [
        "seed=11",
        "crash@cell:Shape|*|RS|seed=1*,times=1",
        "error@serve:request:submit,times=2",
        "disconnect@serve:event:cell,times=3",
        "delay@serve:event:done,seconds=0.1,times=1",
    ]
)


def smoke_spec() -> CampaignSpec:
    return CampaignSpec(
        name="serve-smoke",
        workloads=("MxM", "Shape"),
        machines=(MachineVariant(),),
        schedulers=(SchedulerSpec("RS"), SchedulerSpec("LS")),
        seeds=(0, 1),
        scale=0.25,
    )


def child_pids(pid: int) -> list[int]:
    """Direct children of ``pid`` (via /proc; Linux CI runners)."""
    children = []
    for entry in Path("/proc").iterdir():
        if not entry.name.isdigit():
            continue
        try:
            stat = (entry / "stat").read_text()
        except OSError:
            continue
        # field 4 of /proc/<pid>/stat (after the parenthesized comm)
        ppid = int(stat.rsplit(")", 1)[1].split()[1])
        if ppid == pid:
            children.append(int(entry.name))
    return children


def kill_one_worker(server_pid: int, deadline: float) -> int | None:
    """SIGKILL the first pool worker the server forks; None if none showed."""
    while time.monotonic() < deadline:
        workers = child_pids(server_pid)
        if workers:
            victim = workers[0]
            try:
                os.kill(victim, signal.SIGKILL)
            except OSError:
                continue  # won the race against a clean worker exit
            return victim
        time.sleep(0.05)
    return None


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--chaos", action="store_true",
        help="also inject serve-site and cell faults via REPRO_FAULT_PLAN",
    )
    parser.add_argument(
        "--keep", action="store_true",
        help="keep the scratch directory for inspection",
    )
    options = parser.parse_args()

    scratch = Path(tempfile.mkdtemp(prefix="repro-serve-smoke-"))
    spec = smoke_spec()

    print("== 1/3 in-process baseline ==")
    baseline = Engine().run_campaign(spec)
    expected = result_fingerprint(baseline.results)
    print(f"baseline: {len(baseline.results)} cells, fingerprint {expected}")

    env = {k: v for k, v in os.environ.items() if k != "REPRO_FAULT_PLAN"}
    env["PYTHONPATH"] = str(Path(__file__).resolve().parents[1] / "src")
    if options.chaos:
        env["REPRO_FAULT_PLAN"] = (
            f"ledger={scratch / 'ledger'}; {CHAOS_PLAN}"
        )
        print(f"chaos plan: {env['REPRO_FAULT_PLAN']}")

    print("== 2/3 service pass (two clients, one murdered worker) ==")
    server = subprocess.Popen(
        [
            sys.executable, "-m", "repro", "serve",
            "--port", "0",
            "--store-root", str(scratch / "campaigns"),
            "--jobs", "2",
            "--max-retries", "3",
            "--cell-timeout", "60",
            "--lease", "5",
        ],
        env=env,
        stdout=subprocess.PIPE,
        text=True,
    )
    try:
        announce = server.stdout.readline()
        listening = json.loads(announce)
        assert listening.get("event") == "listening", announce
        port = int(listening["port"])
        print(f"server pid {server.pid} listening on port {port}")

        outcomes: dict[str, object] = {}

        def client(name: str) -> None:
            try:
                outcomes[name] = submit_converged(
                    ServeClient(port), spec, budget=180.0
                )
            except Exception as exc:  # surfaces in the main thread's asserts
                outcomes[name] = exc

        threads = [
            threading.Thread(target=client, args=(name,))
            for name in ("client-a", "client-b")
        ]
        for thread in threads:
            thread.start()
        victim = kill_one_worker(server.pid, time.monotonic() + 10.0)
        print(
            f"SIGKILLed worker {victim}" if victim is not None
            else "no worker appeared to kill (campaign may have finished)"
        )
        for thread in threads:
            thread.join(timeout=200)
            assert not thread.is_alive(), "client did not converge in time"

        for name in ("client-a", "client-b"):
            outcome = outcomes[name]
            assert isinstance(outcome, dict), f"{name} failed: {outcome!r}"
            assert outcome["failures"] == 0, f"{name}: {outcome['failures']}"
            assert outcome["fingerprint"] == expected, (
                f"{name} fingerprint {outcome['fingerprint']} != {expected}"
            )
        a, b = outcomes["client-a"], outcomes["client-b"]
        assert a["rollup"] == b["rollup"], "client rollups differ"
        assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True), (
            "terminal events are not byte-identical"
        )
        print(
            f"service pass OK: both clients done, fingerprint {expected}, "
            "rollups byte-identical"
        )

        print("== 3/3 SIGTERM drain ==")
        server.send_signal(signal.SIGTERM)
        server.wait(timeout=30)
        assert server.returncode == 0, f"drain exited {server.returncode}"
        store = scratch / "campaigns" / f"{spec.spec_hash()}.jsonl"
        assert store.exists(), "result store missing after drain"
        print("drain OK: exit 0, store flushed")
        print("SERVE SMOKE PASSED" + (" (chaos)" if options.chaos else ""))
        return 0
    finally:
        if server.poll() is None:
            server.kill()
            server.wait(timeout=10)
        if server.stdout is not None:
            server.stdout.close()
        if options.keep:
            print(f"scratch kept at {scratch}")
        else:
            shutil.rmtree(scratch, ignore_errors=True)


if __name__ == "__main__":
    raise SystemExit(main())
