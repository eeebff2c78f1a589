"""The output check is live, failures count, and runs stay hermetic."""

from __future__ import annotations

import math
import os
import threading
import time
from dataclasses import dataclass

import pytest

import loadgen
import run


def test_wrong_reference_fails_the_run(monkeypatch, capsys):
    before = set(os.listdir(run.ROOT))
    monkeypatch.setattr(run, "MIN_PAIRS", 1)
    monkeypatch.setattr(
        run, "oracle_fingerprints", lambda specs: ["0" * 16 for _ in specs]
    )
    monkeypatch.setenv("REPRO_FAST_CACHE", "0")
    code = run.main(
        ["--workload", "figure7", "--seed", "1", "--seconds", "0", "--trace", "0"]
    )
    out = capsys.readouterr().out.splitlines()
    assert code != 0
    failed_frac = next(line for line in out if "failed_frac" in line).split()[2]
    assert float(failed_frac) > 0
    assert '"correct": false' in out[-1]
    # Nothing left behind in the checkout: no stores, no scratch space.
    assert set(os.listdir(run.ROOT)) == before
    # The caller's engine toggle was scrubbed, not inherited.
    assert "REPRO_FAST_CACHE" not in os.environ


def test_failed_requests_miss_both_percentiles():
    p50, p90 = run.latency_percentiles([0.5, 0.6, 0.7], failed=0)
    assert math.isfinite(p50) and math.isfinite(p90)
    p50, p90 = run.latency_percentiles([0.5], failed=1)
    assert p50 == p90 == math.inf
    p50, p90 = run.latency_percentiles([0.5] * 8, failed=2)
    assert p50 == 0.5 and p90 == math.inf


@dataclass(frozen=True)
class _Invalid:
    kind: str = "fresh"
    seed: int = 3
    bus: bool = False

    def spec(self):
        return {"name": "broken", "workloads": ["no-such-workload"]}


def test_refused_and_errored_requests_count_as_failed():
    from repro.serve.client import ServeClient
    from repro.serve.server import start_in_thread
    from repro.serve.service import ServeConfig

    ws = run.Workspace()
    out = run.Outcome()
    try:
        config = ServeConfig(
            store_root=ws.fresh("store"), jobs=1, max_active=1, queue_limit=1
        )
        with start_in_thread(config) as handle:
            errored = loadgen.submit(handle.port, _Invalid(), run.clock)
            first = loadgen.plan(3, cold=2).cold
            records = {}
            worker = threading.Thread(
                target=lambda: records.setdefault(
                    "ok", loadgen.submit(handle.port, first[0], run.clock)
                )
            )
            worker.start()
            deadline = time.monotonic() + 10
            while not ServeClient(handle.port).status()["jobs"]:
                assert time.monotonic() < deadline
                time.sleep(0.01)
            refused = loadgen.submit(handle.port, first[1], run.clock)
            worker.join(timeout=60)
            assert not worker.is_alive()
        run.check_served(out, [errored, refused, records["ok"]])
    finally:
        ws.close()
    assert errored["error"].startswith("error")
    assert refused["error"].startswith("rejected")
    assert (out.attempted, out.failed) == (3, 2)
    latencies = [r["done"] - r["submitted"] for r in (errored, refused, records["ok"]) if r["ok"]]
    assert len(latencies) == 1
    p50, p90 = run.latency_percentiles(latencies, failed=out.failed)
    assert p50 == p90 == math.inf


@pytest.mark.parametrize("name", run.SCRUBBED_ENV)
def test_workspace_scrubs_engine_settings(monkeypatch, name):
    monkeypatch.setenv(name, "0")
    ws = run.Workspace()
    try:
        assert name not in ws.env
        assert ws.root.is_relative_to(run.ROOT)
        assert ws.env["TMPDIR"].startswith(str(ws.root))
    finally:
        ws.close()
