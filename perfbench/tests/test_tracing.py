"""The traced run sees every binding, every worker and every server span."""

from __future__ import annotations

import json
import os
import subprocess
import sys

import loadgen
import run
import tracer

PROBE = """
import json, sys
import tracer
sites = tracer.install(sys.argv[1])
import repro.sim.simulator, repro.sched.online, repro.sched.locality
import repro.sched.locality_mapping, repro.sim.qplan, repro.cache.memo
from repro.api.registries import SCHEDULERS

def traced(fn):
    return getattr(fn, "__perfbench_original__", None) is not None

checks = {
    "simulator.build_trace": traced(repro.sim.simulator.build_trace),
    "online.build_trace": traced(repro.sched.online.build_trace),
    "locality.sharing_matrix_for": traced(repro.sched.locality.sharing_matrix_for),
    "locality_mapping.sharing_matrix_for":
        traced(repro.sched.locality_mapping.sharing_matrix_for),
    "qplan.memoized_analysis": traced(repro.sim.qplan.memoized_analysis),
    "memo.analyze_trace": traced(repro.cache.memo.analyze_trace),
    "memo.warm_adjust": traced(repro.cache.memo.warm_adjust),
}
for name in SCHEDULERS.names():
    checks[f"{name}.prepare"] = traced(type(SCHEDULERS.get(name)(0)).prepare)
print(json.dumps({"checks": checks, "sites": sites}))
"""


def test_install_patches_every_binding_site(tmp_path):
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(run.SRC), str(run.BENCH_DIR)])}
    proc = subprocess.run(
        [sys.executable, "-c", PROBE, str(tmp_path)],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    assert all(report["checks"].values()), report["checks"]
    sites = report["sites"]
    assert "repro.sim.simulator.build_trace" in sites["build_trace"]
    assert "repro.sched.online.build_trace" in sites["build_trace"]
    assert "repro.sched.locality.sharing_matrix_for" in sites["sharing_matrix_for"]
    assert "repro.sim.qplan.memoized_analysis" in sites["memoized_analysis"]
    assert "repro.cache.memo.analyze_trace" in sites["analyze_trace"]
    assert "repro.cache.memo.warm_adjust" in sites["warm_adjust"]


def test_worker_spans_reach_the_merged_trace():
    """A traced sensitivity pass at --jobs 2: every cell, all from workers."""
    ws = run.Workspace()
    try:
        trace_dir = ws.fresh("trace")
        result = run.run_pass(ws, "sensitivity", 5, ws.fresh("memo"), trace_dir)
        assert result["cells"] == 68
        merged = tracer.merge(trace_dir)
    finally:
        ws.close()
    assert tracer.cross_checks(merged) == []
    metrics = tracer.layer_metrics(merged)
    assert metrics["campaign.cells"] == 68
    assert metrics["api.first_dispatch_s"] > 0
    assert metrics["sim.qplan.quanta"] + metrics["cache.rows_quanta"] > 0
    assert metrics["sim.contention.charges"] == 0
    workers = [p for p in merged["processes"] if p["worker"]]
    assert workers
    assert sum(p["values"].get("campaign.cells", 0) for p in workers) == 68


def test_server_spans_reach_the_merged_trace():
    """One traced serve-open submission counts its 15 cells."""
    ws = run.Workspace()
    try:
        trace_dir = ws.fresh("trace")
        server = run.Server(ws, trace_dir)
        try:
            submission = loadgen.plan(7, cold=1).cold[0]
            record = loadgen.submit(server.port, submission, run.clock)
        finally:
            server.stop()
        merged = tracer.merge(trace_dir)
    finally:
        ws.close()
    assert record["ok"], record["error"]
    assert tracer.cross_checks(merged) == []
    metrics = tracer.layer_metrics(merged, [record])
    assert metrics["campaign.cells"] == 15
    assert metrics["serve.events"] == record["events"] >= 17
    assert metrics["sim.qplan.quanta"] == metrics["cache.rows_quanta"] == 0
    jobs = [
        span
        for proc in merged["processes"]
        for span in proc["spans"]
        if span["name"] == "serve.job"
    ]
    assert [span["attrs"]["spec_hash"] for span in jobs] == [record["spec_hash"]]
