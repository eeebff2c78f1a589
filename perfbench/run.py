"""Layered benchmark: end-to-end host time and a traced per-layer breakdown.

Run from the repository root:

    python3 perfbench/run.py --workload figure7 --seed 1 --seconds 35 --trace 0

Workloads (METRICS.md says why each exists and what every metric means):

- ``figure7``: the paper's 24-cell figure-7 grid, serially, as pairs of a
  cold pass (fresh process, empty ``--memo-dir``) and a warm pass (fresh
  process, the store the cold pass filled).
- ``sensitivity``: the 68-cell Section-4 sweeps at ``--jobs 2``, the same
  cold/warm pairs.
- ``serve-open``: ``repro serve --jobs 2 --max-active 1`` under a
  closed-loop load of seeded ``open-system --smoke`` submissions.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs the
workload with the tracing wrappers installed (see ``tracer.py``) and
prints the per-layer metrics and the tracing overhead.  Every pass
fingerprint and every served ``done`` fingerprint is checked against the
scalar oracle.  The last stdout line is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the exit code is 0 only when
every check passed.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import select
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Any

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

WORKLOADS = ("figure7", "sensitivity", "serve-open")

#: Engine toggles, a fault plan or a memo directory inherited from the
#: caller's environment would change what is measured.
SCRUBBED_ENV = (
    "REPRO_MEMO_DIR",
    "REPRO_FAULT_PLAN",
    "REPRO_FAST_CACHE",
    "REPRO_TRACE_MEMO",
    "REPRO_QUANTUM_BATCH",
)

#: A run measures at least this many cold/warm pairs, however short.
MIN_PAIRS = 3

#: Most cold/warm server-start pairs one serve-open run can make.
SERVER_STARTS = 32

#: Share of a serve-open run's seconds spent on server-start pairs; the
#: closed-loop load gets the rest.
START_SHARE = 0.3

#: Serve-open server shape: at most nproc = 2 pool workers in total.
SERVE_ARGS = ("--jobs", "2", "--max-active", "1")

#: Pool workers of the scalar oracle; results do not depend on the count.
ORACLE_JOBS = 2

#: Timings reported as the mean of a run's samples, not the median.  A
#: warm pass or a served submission takes 0.02-0.4 s, shorter than the
#: spells (a second to minutes) in which a core of the shared host runs
#: fast or slow, so each sample reads one of two speeds and a median of
#: them jumps between the two; the mean moves with the share of each.
MEAN_METRICS = ("cold_s", "warm_s")

#: Traced runs: cold/warm rounds of a pass workload, and submissions per
#: client on each of the untraced and traced serve-open servers.
TRACE_ROUNDS = 3
TRACE_SUBMISSIONS = 6

PASS_TIMEOUT = 120.0
LISTEN_TIMEOUT = 30.0

clock = time.monotonic


class BenchError(RuntimeError):
    """The benchmark could not run (not a failed output check)."""


# -- workspace and child processes ---------------------------------------------


class Workspace:
    """Scratch space inside the checkout; every pass and server runs here."""

    def __init__(self) -> None:
        parent = ROOT / ".perfbench-work"
        parent.mkdir(exist_ok=True)
        self.root = Path(tempfile.mkdtemp(prefix="run-", dir=parent))
        self._count = 0
        self.cwd = self.fresh("cwd")
        env = {k: v for k, v in os.environ.items() if k not in SCRUBBED_ENV}
        path = env.get("PYTHONPATH")
        env["PYTHONPATH"] = str(SRC) + (os.pathsep + path if path else "")
        # The program's own temporary files (worker leases) stay in here.
        env["TMPDIR"] = str(self.fresh("tmp"))
        self.env = env

    def fresh(self, label: str) -> Path:
        self._count += 1
        path = self.root / f"{label}-{self._count}"
        path.mkdir()
        return path

    def close(self) -> None:
        shutil.rmtree(self.root, ignore_errors=True)
        try:
            self.root.parent.rmdir()
        except OSError:
            pass  # another run's workspace is still there


def children_peak_rss_mb() -> float:
    """Largest peak RSS of any finished child or descendant it reaped."""
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0


def run_pass(
    ws: Workspace,
    workload: str,
    seed: int,
    memo_dir: Path,
    trace_dir: Path | None = None,
) -> dict[str, Any]:
    """One pass in a fresh process; ``None`` fingerprint when it crashed."""
    cmd = [
        sys.executable,
        str(BENCH_DIR / "pass_main.py"),
        "--workload", workload,
        "--seed", str(seed),
        "--memo-dir", str(memo_dir),
    ]
    if trace_dir is not None:
        cmd += ["--trace-dir", str(trace_dir)]
    launched = clock()
    proc = subprocess.run(
        cmd, cwd=ws.cwd, env=ws.env, capture_output=True, text=True,
        timeout=PASS_TIMEOUT,
    )
    finished = clock()
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        print(f"perfbench: pass failed: {proc.stderr[-2000:]}", file=sys.stderr)
        return {"fingerprint": None, "cells": 0, "wall": finished - launched}
    data = json.loads(lines[-1])
    return {
        "setup": data["imported_at"] - launched,
        "pass": data["pass_s"],
        "wall": finished - launched,
        "cells": data["cells"],
        "peak_rss_mb": data["peak_rss_mb"],
        "fingerprint": data["fingerprint"] if data["failures"] == 0 else None,
    }


class Server:
    """One ``repro serve`` process; fresh store root and memo dir by default."""

    def __init__(
        self,
        ws: Workspace,
        trace_dir: Path | None = None,
        stores: tuple[Path, Path] | None = None,
    ) -> None:
        memo, store_root = stores or (ws.fresh("memo"), ws.fresh("store"))
        args = [
            "serve", *SERVE_ARGS, "--port", "0",
            "--memo-dir", str(memo), "--store-root", str(store_root),
        ]
        if trace_dir is None:
            cmd = [sys.executable, "-m", "repro", *args]
        else:
            cmd = [
                sys.executable, str(BENCH_DIR / "serve_main.py"),
                "--trace-dir", str(trace_dir), *args,
            ]
        self.log = (ws.fresh("server") / "stderr").open("wb")
        launched = clock()
        self.proc = subprocess.Popen(
            cmd, cwd=ws.cwd, env=ws.env, stdout=subprocess.PIPE, stderr=self.log
        )
        try:
            self.port = self._await_listening(launched + LISTEN_TIMEOUT)
        except BaseException:
            self.stop()
            raise
        self.setup = clock() - launched

    def _await_listening(self, deadline: float) -> int:
        assert self.proc.stdout is not None
        while True:
            remaining = deadline - clock()
            if remaining <= 0:
                raise BenchError("repro serve did not print 'listening' in time")
            ready, _, _ = select.select([self.proc.stdout], [], [], remaining)
            if not ready:
                continue
            line = self.proc.stdout.readline()
            if not line:
                raise BenchError("repro serve exited before listening")
            try:
                evt = json.loads(line)
            except ValueError:
                continue
            if isinstance(evt, dict) and evt.get("event") == "listening":
                return int(evt["port"])

    def stop(self) -> None:
        """Ask for a drain; kill if it does not exit; reap in any case."""
        from repro.errors import ServeError
        from repro.serve.client import ServeClient

        if self.proc.poll() is None and hasattr(self, "port"):
            try:
                ServeClient(self.port, timeout=10.0).shutdown()
            except (OSError, ServeError):
                pass
        try:
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        if self.proc.stdout is not None:
            self.proc.stdout.close()
        self.log.close()


# -- statistics ----------------------------------------------------------------


def percentile(values: list[float], q: float) -> float:
    """Linear-interpolated percentile; ``inf`` entries sort last."""
    if not values:
        return math.nan
    ordered = sorted(values)
    position = (len(ordered) - 1) * q
    low = math.floor(position)
    high = math.ceil(position)
    if ordered[high] == math.inf:
        return math.inf if position > low or ordered[low] == math.inf else ordered[low]
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def latency_percentiles(
    latencies: list[float], failed: int
) -> tuple[float, float]:
    """p50 and p90 where each failed or refused request counts as a miss."""
    samples = list(latencies) + [math.inf] * failed
    return percentile(samples, 0.5), percentile(samples, 0.9)


# -- output check ----------------------------------------------------------------


def oracle_fingerprints(specs: list[Any]) -> list[str]:
    """Result fingerprints of ``specs`` from the scalar oracle, in order."""
    from repro.api.engine import Engine
    from repro.cache.memo import set_fast_cache
    from repro.serve.service import result_fingerprint
    from repro.sim.qplan import set_quantum_batch

    set_fast_cache(False)
    set_quantum_batch(False)
    runs_of = [spec.expand() for spec in specs]
    results = Engine(jobs=ORACLE_JOBS).run_many(
        [run for runs in runs_of for run in runs]
    )
    by_key = {result.key: result for result in results}
    return [
        result_fingerprint([by_key[run.cell_key()] for run in runs])
        for runs in runs_of
    ]


# -- workloads -----------------------------------------------------------------


class Outcome:
    """What one run measured: samples, operation counts, check failures."""

    def __init__(self) -> None:
        self.samples: dict[str, list[float]] = {}
        self.metrics: dict[str, float] = {}
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def sample(self, name: str, value: float) -> None:
        self.samples.setdefault(name, []).append(value)

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.problems.append(what)


def pass_workload(
    ws: Workspace, workload: str, seed: int, seconds: float
) -> Outcome:
    """Cold/warm pass pairs for ``seconds``; the end-to-end metrics.

    Every metric is a median over the pairs that completed: a pair's peak
    RSS is the larger of its two passes, its ``cells_per_s`` both passes'
    cells over the pair's wall time.
    """
    import grids

    out = Outcome()
    fingerprints = []
    started = clock()
    pair_wall = 0.0
    pairs = 0
    while pairs < MIN_PAIRS or clock() - started + pair_wall <= seconds:
        memo = ws.fresh("memo")
        pair_started = clock()
        cold = run_pass(ws, workload, seed, memo)
        warm = run_pass(ws, workload, seed, memo)
        pair_wall = clock() - pair_started
        pairs += 1
        fingerprints += [("cold", cold["fingerprint"]), ("warm", warm["fingerprint"])]
        if cold["fingerprint"] is None or warm["fingerprint"] is None:
            continue
        for phase, result in (("cold", cold), ("warm", warm)):
            out.sample("setup_s", result["setup"])
            out.sample(f"{phase}_s", result["pass"])
        out.sample("submit_done_s", cold["wall"])
        out.sample("peak_rss_mb", max(cold["peak_rss_mb"], warm["peak_rss_mb"]))
        out.sample("cells_per_s", (cold["cells"] + warm["cells"]) / pair_wall)
    (reference,) = oracle_fingerprints([grids.pass_spec(workload, seed)])
    for phase, fingerprint in fingerprints:
        out.check(fingerprint == reference, f"{phase} pass fingerprint {fingerprint}")
    failed_cold = sum(1 for p, f in fingerprints if p == "cold" and f is None)
    out.metrics["submit_done_p50_s"], out.metrics["submit_done_p90_s"] = (
        latency_percentiles(out.samples.get("submit_done_s", []), failed_cold)
    )
    return out


def check_served(out: Outcome, records: list[dict[str, Any]]) -> None:
    """Every served ``done`` must match the oracle for its spec and seed;
    a record that does not is marked not ``ok``."""
    import grids

    keys = sorted({(r["seed"], r["bus"]) for r in records})
    references = dict(
        zip(keys, oracle_fingerprints([grids.open_spec(s, b) for s, b in keys]))
    )
    for record in records:
        ok = record["ok"] and record["fingerprint"] == references[
            (record["seed"], record["bus"])
        ]
        out.check(
            ok,
            f"{record['kind']} submission seed={record['seed']}: "
            f"{record['error'] or record['fingerprint']}",
        )
        record["ok"] = ok


def serve_workload(ws: Workspace, seed: int, seconds: float) -> Outcome:
    """Cold and warm server starts, then a closed-loop load; ``seconds`` in all.

    A cold start is a fresh server on empty stores answering its first
    submission; the warm start restarts the server on the stores the cold
    one filled and submits the same spec again, which the new server
    serves from the result store.  Start pairs take ``START_SHARE`` of the
    run (at least ``MIN_PAIRS`` of them), the load the remaining time.
    """
    import loadgen

    out = Outcome()
    plan = loadgen.plan(seed, cold=SERVER_STARTS)
    records = []
    started = clock()
    for pairs, submission in enumerate(plan.cold):
        if pairs >= MIN_PAIRS and clock() - started >= START_SHARE * seconds:
            break
        stores = (ws.fresh("memo"), ws.fresh("store"))
        for phase in ("cold", "warm"):
            server = Server(ws, stores=stores)
            try:
                out.sample("setup_s", server.setup)
                record = loadgen.submit(server.port, submission, clock)
            finally:
                server.stop()
            record["kind"] = phase
            records.append(record)
    server = Server(ws)
    try:
        out.sample("setup_s", server.setup)
        load_started = clock()
        load = loadgen.closed_loop(
            server.port, plan.clients, clock, deadline=started + seconds
        )
        elapsed = max(r["done"] or r["submitted"] for r in load) - load_started
    finally:
        server.stop()
    out.metrics["peak_rss_mb"] = children_peak_rss_mb()
    check_served(out, records + load)
    for record in records:
        if record["ok"]:
            out.sample(f"{record['kind']}_s", record["done"] - record["submitted"])
    fresh = [r for r in load if r["kind"] == "fresh"]
    for record in fresh:
        if record["ok"]:
            out.sample("submit_done_s", record["done"] - record["submitted"])
    out.metrics["submit_done_p50_s"], out.metrics["submit_done_p90_s"] = (
        latency_percentiles(
            out.samples.get("submit_done_s", []),
            sum(1 for r in fresh if not r["ok"]),
        )
    )
    out.metrics["cells_per_s"] = sum(r["cells"] for r in load) / elapsed
    return out


def traced_pass_workload(
    ws: Workspace, workload: str, seed: int
) -> tuple[Outcome, dict[str, Any], list[dict[str, Any]], float]:
    """Untraced cold passes interleaved with traced cold/warm pairs."""
    import grids

    out = Outcome()
    trace_dir = ws.fresh("trace")
    untraced, traced, fingerprints = [], [], []
    for _ in range(TRACE_ROUNDS):
        plain = run_pass(ws, workload, seed, ws.fresh("memo"))
        fingerprints.append(plain["fingerprint"])
        if plain["fingerprint"] is not None:
            untraced.append(plain["pass"])
        memo = ws.fresh("memo")
        for phase in ("cold", "warm"):
            result = run_pass(ws, workload, seed, memo, trace_dir)
            fingerprints.append(result["fingerprint"])
            if phase == "cold" and result["fingerprint"] is not None:
                traced.append(result["pass"])
    (reference,) = oracle_fingerprints([grids.pass_spec(workload, seed)])
    for fingerprint in fingerprints:
        out.check(fingerprint == reference, f"pass fingerprint {fingerprint}")
    overhead = statistics.median(traced) / statistics.median(untraced)
    return out, _traced_merge(trace_dir, rounds=TRACE_ROUNDS), [], overhead


def traced_serve_workload(
    ws: Workspace, seed: int
) -> tuple[Outcome, dict[str, Any], list[dict[str, Any]], float]:
    """The same fixed load against an untraced and a traced server."""
    import loadgen

    out = Outcome()
    plan = loadgen.plan(seed, cold=0)
    trace_dir = ws.fresh("trace")
    loads = []
    for traced in (False, True):
        server = Server(ws, trace_dir if traced else None)
        try:
            loads.append(
                loadgen.closed_loop(
                    server.port, plan.clients, clock, count=TRACE_SUBMISSIONS
                )
            )
        finally:
            server.stop()
    check_served(out, loads[0] + loads[1])
    p50 = [
        statistics.median(
            [r["done"] - r["submitted"] for r in load if r["kind"] == "fresh" and r["ok"]]
            or [math.nan]
        )
        for load in loads
    ]
    return out, _traced_merge(trace_dir, rounds=1), loads[1], p50[1] / p50[0]


def _traced_merge(trace_dir: Path, rounds: int) -> dict[str, Any]:
    import tracer

    merged = tracer.merge(trace_dir)
    problems = tracer.cross_checks(merged)
    merged = tracer.scaled(merged, 1.0 / rounds)
    merged["problems"] = problems
    return merged


# -- reporting -------------------------------------------------------------------


def load_definitions() -> dict[str, Any]:
    with (ROOT / "BENCHMARK.json").open() as handle:
        return json.load(handle)


def end_to_end(out: Outcome) -> dict[str, tuple[float, int]]:
    """Each end-to-end metric with its sample count: a whole-run value, or
    the mean (``MEAN_METRICS``) or median of the run's samples."""
    values: dict[str, tuple[float, int]] = {}
    for name in ("setup_s", "cold_s", "warm_s", "peak_rss_mb", "cells_per_s"):
        if name in out.metrics:
            values[name] = (out.metrics[name], 1)
            continue
        samples = out.samples.get(name, [])
        average = statistics.fmean if name in MEAN_METRICS else statistics.median
        values[name] = (average(samples) if samples else math.nan, len(samples))
    submits = len(out.samples.get("submit_done_s", []))
    values["submit_done_p50_s"] = (out.metrics["submit_done_p50_s"], submits)
    values["submit_done_p90_s"] = (out.metrics["submit_done_p90_s"], submits)
    return values


def finite(value: float) -> float | None:
    return value if math.isfinite(value) else None


def report(
    workload: str,
    out: Outcome,
    metrics: dict[str, tuple[float, int]],
    listed: list[dict[str, Any]],
) -> int:
    """Print every metric by name, then the result line; the exit code."""
    units = {entry["name"]: entry["unit"] for entry in listed}
    for name, (value, count) in metrics.items():
        unit = units.get(name, "")
        print(f"{workload:12s} {name:34s} {value:14.6g} {unit:8s} n={count}")
    failed_frac = out.failed / out.attempted if out.attempted else 1.0
    print(
        f"{workload:12s} {'failed_frac':34s} {failed_frac:14.6g} {'ratio':8s} "
        f"n={out.attempted}"
    )
    for problem in out.problems:
        print(f"perfbench: check failed: {problem}", file=sys.stderr)
    missing = [entry["name"] for entry in listed if entry["name"] not in metrics]
    if missing:
        raise BenchError(f"metrics not measured: {', '.join(missing)}")
    correct = out.failed == 0 and out.attempted > 0
    result = {
        "correct": correct,
        "attempted": out.attempted,
        "failed": out.failed,
        "metrics": {
            entry["name"]: {
                "value": finite(metrics[entry["name"]][0]),
                "unit": entry["unit"],
            }
            for entry in listed
        },
    }
    print(json.dumps(result), flush=True)
    return 0 if correct else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="Layered benchmark of repro.")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro sources under {SRC}", file=sys.stderr)
        return 2
    for name in SCRUBBED_ENV:
        os.environ.pop(name, None)
    sys.path.insert(0, str(SRC))
    definitions = load_definitions()

    ws = Workspace()
    try:
        if not args.trace:
            if args.workload == "serve-open":
                out = serve_workload(ws, args.seed, args.seconds)
            else:
                out = pass_workload(ws, args.workload, args.seed, args.seconds)
            return report(
                args.workload, out, end_to_end(out), definitions["end_to_end"]
            )
        import tracer

        if args.workload == "serve-open":
            out, merged, clients, overhead = traced_serve_workload(ws, args.seed)
        else:
            out, merged, clients, overhead = traced_pass_workload(
                ws, args.workload, args.seed
            )
        for problem in merged["problems"]:
            out.check(False, f"cross-check: {problem}")
        layers = tracer.layer_metrics(merged, clients)
        layers["trace_overhead_ratio"] = overhead
        return report(
            args.workload,
            out,
            {name: (value, 1) for name, value in layers.items()},
            definitions["per_layer"],
        )
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    finally:
        ws.close()


if __name__ == "__main__":
    raise SystemExit(main())
