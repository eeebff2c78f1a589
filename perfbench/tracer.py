"""Span-and-count tracing for the benchmark's traced run.

The program keeps no telemetry of its own yet, so the traced run wraps
each layer's public functions from here, by monkeypatching:

- :func:`install` replaces every wrapped function in its defining module
  *and* in every ``repro`` module that imported it by name (a
  ``from x import f`` binding would otherwise keep calling the original),
  and replaces each registered scheduler class's own ``prepare``.
- Each process keeps its spans and counts in memory (:class:`Recorder`).
  Pool workers forked after :func:`install` inherit the wrappers and
  start an empty recorder; they write their file after every cell, so the
  spans are on disk before the parent sees the result.  Root processes
  (a pass process, the server) call :func:`flush` when they finish.
- :func:`merge` reads one directory of per-process files back;
  :func:`layer_metrics` turns them into the per-layer metrics and
  :func:`cross_checks` compares the wrapper counts with counters the
  program keeps itself, so a missed binding fails instead of reading 0.

A layer's self time is its span time minus the time its child spans
cover, computed online from a per-thread span stack.  Spans at layer
boundaries that other metrics need (``api.run_many``, ``campaign.cell``,
``campaign.append``, ``serve.job``) are also kept one by one, with name,
start, end, parent and pid; the hot inner layers keep only their
aggregates so the trace stays small.
"""

from __future__ import annotations

import functools
import json
import os
import statistics
import sys
import threading
import time
from pathlib import Path
from typing import Any, Callable

#: CLOCK_MONOTONIC on Linux: one clock for every process on the host, so
#: a worker's span can be placed inside its parent's ``run_many`` window.
clock = time.monotonic

#: Modules that must be imported before patching, so that every
#: by-name binding of a wrapped function already exists to be replaced.
MODULES = (
    "repro",
    "repro.api",
    "repro.api.engine",
    "repro.api.registries",
    "repro.cache",
    "repro.cache.fast_engine",
    "repro.cache.memo",
    "repro.cache.sa_cache",
    "repro.cache.store",
    "repro.campaign",
    "repro.campaign.executor",
    "repro.campaign.leases",
    "repro.campaign.spec",
    "repro.campaign.store",
    "repro.experiments.runner",
    "repro.sched",
    "repro.sched.base",
    "repro.sched.locality",
    "repro.sched.locality_mapping",
    "repro.sched.online",
    "repro.serve.service",
    "repro.sharing",
    "repro.sharing.matrix",
    "repro.sim",
    "repro.sim.contention",
    "repro.sim.qplan",
    "repro.sim.simulator",
    "repro.sim.trace",
)


def program_counters() -> dict[str, Any]:
    """The program's own memo and store counters in this process."""
    from repro.cache.memo import TRACE_MEMO
    from repro.cache.store import active_memo_store

    store = active_memo_store()
    return {
        "memo_hits": TRACE_MEMO.hits,
        "memo_misses": TRACE_MEMO.misses,
        "store_id": id(store) if store is not None else None,
        "store_hits": store.hits if store is not None else 0,
        "store_misses": store.misses if store is not None else 0,
    }


class _Frame:
    __slots__ = ("name", "start", "child", "span_id", "attrs")

    def __init__(self, name: str, span_id: str | None, attrs: dict) -> None:
        self.name = name
        self.start = clock()
        self.child = 0.0
        self.span_id = span_id
        self.attrs = attrs


class Recorder:
    """One process's spans and counts, written to ``<out_dir>/<token>.json``."""

    def __init__(self, out_dir: Path) -> None:
        self.out_dir = Path(out_dir)
        self.root_pid = os.getpid()
        self.reset()

    def reset(self) -> None:
        """Start empty; a forked worker calls this before doing any work."""
        self.pid = os.getpid()
        self.token = f"{self.pid}-{time.monotonic_ns()}"
        self.lock = threading.Lock()
        self.local = threading.local()
        self.stats: dict[str, list[float]] = {}  # name -> [calls, total, self]
        self.values: dict[str, float] = {}
        self.spans: list[dict[str, Any]] = []
        self.next_id = 0
        self.baseline = program_counters()

    @property
    def in_worker(self) -> bool:
        return self.pid != self.root_pid

    def _stack(self) -> list[_Frame]:
        stack = getattr(self.local, "stack", None)
        if stack is None:
            stack = self.local.stack = []
        return stack

    def enter(self, name: str, keep: bool = False, **attrs: Any) -> _Frame:
        span_id = None
        if keep:
            with self.lock:
                self.next_id += 1
                span_id = f"{self.token}:{self.next_id}"
        frame = _Frame(name, span_id, attrs)
        self._stack().append(frame)
        return frame

    def exit(self, frame: _Frame) -> None:
        end = clock()
        stack = self._stack()
        stack.pop()
        duration = end - frame.start
        if stack:
            stack[-1].child += duration
        with self.lock:
            entry = self.stats.setdefault(frame.name, [0, 0.0, 0.0])
            entry[0] += 1
            entry[1] += duration
            entry[2] += duration - frame.child
            if frame.span_id is not None:
                parent = next(
                    (f.span_id for f in reversed(stack) if f.span_id is not None),
                    None,
                )
                self.spans.append(
                    {
                        "name": frame.name,
                        "id": frame.span_id,
                        "parent": parent,
                        "pid": self.pid,
                        "start": frame.start,
                        "end": end,
                        "attrs": frame.attrs,
                    }
                )

    def add(self, name: str, amount: float = 1) -> None:
        with self.lock:
            self.values[name] = self.values.get(name, 0) + amount

    def flag(self, name: str) -> None:
        """Mark that ``name`` happened on this thread (see :meth:`take`)."""
        setattr(self.local, name, True)

    def take(self, name: str) -> bool:
        """Whether ``name`` was flagged on this thread since the last take."""
        seen = bool(getattr(self.local, name, False))
        setattr(self.local, name, False)
        return seen

    def snapshot(self) -> dict[str, Any]:
        now = program_counters()
        base = self.baseline
        same_store = now["store_id"] == base["store_id"]
        with self.lock:
            return {
                "pid": self.pid,
                "ppid": os.getppid(),
                "worker": self.in_worker,
                "stats": {k: list(v) for k, v in self.stats.items()},
                "values": dict(self.values),
                "spans": list(self.spans),
                "program": {
                    "memo_hits": now["memo_hits"] - base["memo_hits"],
                    "memo_misses": now["memo_misses"] - base["memo_misses"],
                    "store_hits": now["store_hits"]
                    - (base["store_hits"] if same_store else 0),
                    "store_misses": now["store_misses"]
                    - (base["store_misses"] if same_store else 0),
                },
            }

    def flush(self) -> None:
        path = self.out_dir / f"{self.token}.json"
        tmp = path.with_suffix(".tmp")
        tmp.write_text(json.dumps(self.snapshot()))
        os.replace(tmp, path)


#: The recorder of this process; None until :func:`install`.
REC: Recorder | None = None


def flush() -> None:
    """Write this process's trace file (root processes call this at the end)."""
    if REC is not None:
        REC.flush()


# -- wrappers --------------------------------------------------------------------


def _span(
    fn: Callable[..., Any],
    name: str | Callable[[tuple, dict], str],
    keep: bool = False,
    after: Callable[[Any, tuple, dict], None] | None = None,
    attrs: Callable[[tuple, dict], dict] | None = None,
) -> Callable[..., Any]:
    """Wrap ``fn`` in a span; ``after(result, args, kwargs)`` adds counts.

    ``name`` and ``attrs`` may be computed from the call's arguments.
    """

    @functools.wraps(fn)
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        frame = REC.enter(
            name if isinstance(name, str) else name(args, kwargs),
            keep,
            **(attrs(args, kwargs) if attrs is not None else {}),
        )
        try:
            result = fn(*args, **kwargs)
        finally:
            REC.exit(frame)
        if after is not None:
            after(result, args, kwargs)
        return result

    wrapper.__perfbench_original__ = fn  # type: ignore[attr-defined]
    return wrapper


def _counted(
    fn: Callable[..., Any], after: Callable[[Any, tuple, dict], None]
) -> Callable[..., Any]:
    """Wrap ``fn`` with counts only (no span of its own)."""

    @functools.wraps(fn)
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        result = fn(*args, **kwargs)
        after(result, args, kwargs)
        return result

    wrapper.__perfbench_original__ = fn  # type: ignore[attr-defined]
    return wrapper


def _arg(args: tuple, kwargs: dict, index: int, name: str) -> Any:
    return kwargs[name] if name in kwargs else args[index]


class _TracedContention:
    """Proxy for the model ``contention_model_for`` returns: times each charge."""

    def __init__(self, model: Any) -> None:
        self._model = model

    def delay_cycles(self, core: int, transfers: int, wall_cycles: int) -> int:
        frame = REC.enter("sim.contention")
        try:
            stall = self._model.delay_cycles(core, transfers, wall_cycles)
        finally:
            REC.exit(frame)
        REC.add("sim.contention.stall_cycles", stall)
        return stall

    def __getattr__(self, name: str) -> Any:
        return getattr(self._model, name)


def _contention_for(fn: Callable[..., Any]) -> Callable[..., Any]:
    @functools.wraps(fn)
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        model = fn(*args, **kwargs)
        return _TracedContention(model) if model is not None else None

    wrapper.__perfbench_original__ = fn  # type: ignore[attr-defined]
    return wrapper


def _after_prepare(plan: Any, args: tuple, kwargs: dict) -> None:
    picker = getattr(plan, "picker", None)
    if picker is not None and not hasattr(picker, "__perfbench_original__"):
        plan.picker = _span(picker, "sched.pick")


def _plan_mode(args: tuple, kwargs: dict) -> str:
    """``sim.<mode>`` of a ``run_plan``/``run_plan_open`` call."""
    return f"sim.{_arg(args, kwargs, 2, 'plan').mode.value}"


def _after_run_plan(result: Any, args: tuple, kwargs: dict) -> None:
    dispatches = sum(len(core.executed_pids) for core in result.cores)
    REC.add("sim.dispatches", dispatches)
    REC.add(f"{_plan_mode(args, kwargs)}.dispatches", dispatches)


def _fanout_jobs(args: tuple, kwargs: dict) -> dict:
    """The worker count an ``Engine.run_many`` call fans out over."""
    jobs = kwargs.get("jobs")
    return {"jobs": jobs if jobs is not None else args[0].jobs}


def _job_hash(args: tuple, kwargs: dict) -> dict:
    return {"spec_hash": args[0].spec_hash}


def _execute_run(fn: Callable[..., Any]) -> Callable[..., Any]:
    """One span per cell; workers write their trace file after each one.

    A cell is a hit when it built no workload (the cell memo or the
    store served it).
    """

    @functools.wraps(fn)
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        REC.take("built")
        frame = REC.enter("campaign.cell", keep=True)
        try:
            result = fn(*args, **kwargs)
            REC.add("campaign.cells")
            if not REC.take("built"):
                REC.add("campaign.cell_hits")
            return result
        finally:
            REC.exit(frame)
            if REC.in_worker:
                REC.flush()

    wrapper.__perfbench_original__ = fn  # type: ignore[attr-defined]
    return wrapper


def _memo_lookup(fn: Callable[..., Any]) -> Callable[..., Any]:
    """``memoized_analysis``: a hit is a lookup that neither read the
    store nor analyzed (both wrappers flag ``memo_miss``)."""

    @functools.wraps(fn)
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        REC.take("memo_miss")
        frame = REC.enter("cache.memo")
        try:
            result = fn(*args, **kwargs)
        finally:
            REC.exit(frame)
        if not REC.take("memo_miss"):
            REC.add("cache.memo.hits")
        return result

    wrapper.__perfbench_original__ = fn  # type: ignore[attr-defined]
    return wrapper


def _after_store_get(result: Any, args: tuple, kwargs: dict) -> None:
    if result is not None:
        REC.add("cache.store.get_hits")


def _after_get_analysis(result: Any, args: tuple, kwargs: dict) -> None:
    REC.flag("memo_miss")
    _after_store_get(result, args, kwargs)


def _after_analyze(result: Any, args: tuple, kwargs: dict) -> None:
    REC.flag("memo_miss")
    REC.add("cache.analyze.accesses", len(_arg(args, kwargs, 0, "lines")))


def _after_rows(result: Any, args: tuple, kwargs: dict) -> None:
    REC.add("cache.rows.accesses", result[2] + result[3])


def _after_build(result: Any, args: tuple, kwargs: dict) -> None:
    REC.add("sim.trace.builds")
    REC.add("sim.trace.accesses", len(result.lines))


def _after_workload(result: Any, args: tuple, kwargs: dict) -> None:
    REC.flag("built")


# -- installation ----------------------------------------------------------------


def _rebind(original: Any, replacement: Any) -> list[str]:
    """Point every ``repro`` module binding of ``original`` at ``replacement``."""
    sites = []
    for module_name, module in sorted(sys.modules.items()):
        if module is None or not (
            module_name == "repro" or module_name.startswith("repro.")
        ):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)
                sites.append(f"{module_name}.{attr}")
    return sites


def _scheduler_classes() -> list[type]:
    """Each registered scheduler's class that defines the ``prepare`` it runs."""
    from repro.api.registries import SCHEDULERS

    classes: list[type] = []
    for name in SCHEDULERS.names():
        scheduler = SCHEDULERS.get(name)(0)
        for cls in type(scheduler).__mro__:
            prepare = vars(cls).get("prepare")
            if prepare is None:
                continue
            if not getattr(prepare, "__isabstractmethod__", False) and (
                cls not in classes
            ):
                classes.append(cls)
            break
    return classes


def install(out_dir: str | Path) -> dict[str, list[str]]:
    """Wrap every traced layer in this process; returns the binding sites.

    Call once, after nothing but imports and before any pool or server
    starts, so forked workers inherit the wrappers.
    """
    global REC
    if REC is not None:
        raise RuntimeError("tracing is already installed in this process")
    import importlib

    for name in MODULES:
        importlib.import_module(name)
    from repro.api.engine import Engine
    from repro.cache import fast_engine
    from repro.cache.memo import memoized_analysis
    from repro.cache.sa_cache import SetAssociativeCache
    from repro.cache.store import MemoStore
    from repro.campaign import executor, spec, store
    from repro.serve.service import CampaignJob
    from repro.sharing import matrix
    from repro.sim import contention, qplan, trace
    from repro.sim.simulator import MPSoCSimulator

    REC = Recorder(Path(out_dir))
    os.register_at_fork(after_in_child=REC.reset)

    sites: dict[str, list[str]] = {}

    def function(original: Any, wrapper: Any) -> None:
        sites[original.__name__] = _rebind(original, wrapper)

    def method(cls: type, attr: str, wrapper: Any) -> None:
        setattr(cls, attr, wrapper)
        site = f"{cls.__module__}.{cls.__qualname__}.{attr}"
        sites[site] = [site]

    function(trace.build_trace, _span(trace.build_trace, "sim.trace"))
    function(
        trace._build_trace_uncached,
        _counted(trace._build_trace_uncached, _after_build),
    )
    function(
        matrix.sharing_matrix_for,
        _span(matrix.sharing_matrix_for, "sharing.lookup"),
    )
    function(
        matrix.compute_sharing_matrix,
        _span(matrix.compute_sharing_matrix, "sharing.compute"),
    )
    method(
        matrix.IncrementalSharingMatrix,
        "admit",
        _span(matrix.IncrementalSharingMatrix.admit, "sharing.admit"),
    )
    function(memoized_analysis, _memo_lookup(memoized_analysis))
    function(
        fast_engine.analyze_trace,
        _span(fast_engine.analyze_trace, "cache.analyze", after=_after_analyze),
    )
    function(fast_engine.warm_adjust, _span(fast_engine.warm_adjust, "cache.adjust"))
    method(
        SetAssociativeCache,
        "run_budget_rows",
        _span(SetAssociativeCache.run_budget_rows, "cache.rows", after=_after_rows),
    )
    method(
        MemoStore,
        "get_analysis",
        _span(MemoStore.get_analysis, "cache.store.get", after=_after_get_analysis),
    )
    for attr in ("get_sharing", "get_cell"):
        method(
            MemoStore,
            attr,
            _span(getattr(MemoStore, attr), "cache.store.get", after=_after_store_get),
        )
    for attr in ("put_analysis", "put_sharing", "put_cell"):
        method(MemoStore, attr, _span(getattr(MemoStore, attr), "cache.store.put"))
    function(
        qplan.compile_quantum_plan,
        _span(qplan.compile_quantum_plan, "sim.qplan.compile"),
    )
    function(
        qplan.run_plan_quantum,
        _span(qplan.run_plan_quantum, "sim.qplan.quantum"),
    )
    function(
        contention.contention_model_for,
        _contention_for(contention.contention_model_for),
    )
    for attr in ("run_plan", "run_plan_open"):
        method(
            MPSoCSimulator,
            attr,
            _span(getattr(MPSoCSimulator, attr), _plan_mode, after=_after_run_plan),
        )
    for cls in _scheduler_classes():
        method(cls, "prepare", _span(cls.prepare, "sched.prepare", after=_after_prepare))
    function(
        spec.build_campaign_workload,
        _span(spec.build_campaign_workload, "workloads.build", after=_after_workload),
    )
    function(executor.execute_run, _execute_run(executor.execute_run))
    method(
        store.ResultStore,
        "append",
        _span(store.ResultStore.append, "campaign.append", keep=True),
    )
    method(
        Engine,
        "run_many",
        _span(Engine.run_many, "api.run_many", keep=True, attrs=_fanout_jobs),
    )
    method(
        CampaignJob, "run", _span(CampaignJob.run, "serve.job", keep=True, attrs=_job_hash)
    )
    return sites


# -- reading a traced run back ---------------------------------------------------


def merge(trace_dir: str | Path) -> dict[str, Any]:
    """Combine every per-process file of one traced run."""
    processes = [
        json.loads(path.read_text())
        for path in sorted(Path(trace_dir).glob("*.json"))
    ]
    stats: dict[str, list[float]] = {}
    values: dict[str, float] = {}
    program: dict[str, float] = {}
    for proc in processes:
        for name, (calls, total, self_time) in proc["stats"].items():
            entry = stats.setdefault(name, [0, 0.0, 0.0])
            entry[0] += calls
            entry[1] += total
            entry[2] += self_time
        for name, amount in proc["values"].items():
            values[name] = values.get(name, 0) + amount
        for name, amount in proc["program"].items():
            program[name] = program.get(name, 0) + amount
    return {
        "processes": processes,
        "stats": stats,
        "values": values,
        "program": program,
    }


def scaled(merged: dict[str, Any], factor: float) -> dict[str, Any]:
    """The merged totals times ``factor`` (per-pass averages of several passes)."""
    return {
        "processes": merged["processes"],
        "stats": {
            name: [calls * factor, total * factor, self_time * factor]
            for name, (calls, total, self_time) in merged["stats"].items()
        },
        "values": {k: v * factor for k, v in merged["values"].items()},
        "program": {k: v * factor for k, v in merged["program"].items()},
    }


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def _api_dispatch(processes: list[dict[str, Any]]) -> tuple[float, float]:
    """(median first-dispatch wait, worker utilization) over pooled fan-outs.

    A fan-out is pooled when cells ran in worker processes whose parent
    is the process that called ``run_many``, inside its time window.
    """
    cells_by_parent: dict[int, list[dict[str, Any]]] = {}
    fanouts = []
    for proc in processes:
        for span in proc["spans"]:
            if span["name"] == "api.run_many":
                fanouts.append(span)
            elif span["name"] == "campaign.cell" and proc["worker"]:
                cells_by_parent.setdefault(proc["ppid"], []).append(span)
    waits = []
    busy = capacity = 0.0
    for fanout in fanouts:
        inside = [
            cell
            for cell in cells_by_parent.get(fanout["pid"], [])
            if fanout["start"] <= cell["start"] <= fanout["end"]
        ]
        if not inside:
            continue
        waits.append(min(cell["start"] for cell in inside) - fanout["start"])
        busy += sum(cell["end"] - cell["start"] for cell in inside)
        capacity += fanout["attrs"]["jobs"] * (fanout["end"] - fanout["start"])
    return _median(waits), (busy / capacity if capacity else 0.0)


def _serve_metrics(
    processes: list[dict[str, Any]], clients: list[dict[str, Any]]
) -> dict[str, float]:
    """The serve layer: client-side events joined to the server's job spans."""
    job_start: dict[str, float] = {}
    for proc in processes:
        for span in proc["spans"]:
            if span["name"] == "serve.job":
                spec_hash = span["attrs"]["spec_hash"]
                job_start[spec_hash] = min(
                    job_start.get(spec_hash, span["start"]), span["start"]
                )
    fresh = [c for c in clients if c["kind"] != "replay" and c["ok"]]
    replays = [c for c in clients if c["kind"] == "replay" and c["ok"]]
    queued = [
        max(0.0, job_start[c["spec_hash"]] - c["accepted"])
        for c in fresh
        if c["spec_hash"] in job_start
    ]
    first_cell = [
        c["first_cell"] - job_start[c["spec_hash"]]
        for c in fresh
        if c["spec_hash"] in job_start and c["first_cell"] is not None
    ]
    return {
        "serve.accept_s": _median([c["accepted"] - c["submitted"] for c in fresh]),
        "serve.queue_s": _median(queued),
        "serve.first_cell_s": _median(first_cell),
        "serve.replay_s": _median([c["done"] - c["submitted"] for c in replays]),
        "serve.events": float(sum(c["events"] for c in clients)),
    }


def layer_metrics(
    merged: dict[str, Any], clients: list[dict[str, Any]] | None = None
) -> dict[str, float]:
    """Every per-layer metric, by name (absent layers read 0)."""
    stats = merged["stats"]
    values = merged["values"]

    def calls(name: str) -> float:
        return stats.get(name, [0, 0.0, 0.0])[0]

    def total(name: str) -> float:
        return stats.get(name, [0, 0.0, 0.0])[1]

    def self_time(name: str) -> float:
        return stats.get(name, [0, 0.0, 0.0])[2]

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    def maps(accesses: float, seconds: float) -> float:
        return accesses / seconds / 1e6 if seconds else 0.0

    first_dispatch, utilization = _api_dispatch(merged["processes"])
    cells = values.get("campaign.cells", 0)
    quanta = calls("sim.qplan.quantum")
    rows = calls("cache.rows")
    metrics = _serve_metrics(merged["processes"], clients or [])
    metrics.update(
        {
            "api.first_dispatch_s": first_dispatch,
            "api.worker_util_ratio": utilization,
            "api.attempts": calls("campaign.cell"),
            "api.retries": calls("campaign.cell") - cells,
            "campaign.cells": cells,
            "campaign.cell_s": self_time("campaign.cell"),
            "campaign.cell_hit_ratio": ratio(values.get("campaign.cell_hits", 0), cells),
            "campaign.append_s": total("campaign.append"),
            "workloads.builds": calls("workloads.build"),
            "workloads.build_s": self_time("workloads.build"),
            "sharing.lookups": calls("sharing.lookup"),
            "sharing.computes": calls("sharing.compute"),
            "sharing.compute_s": self_time("sharing.compute"),
            "sharing.admit_s": self_time("sharing.admit"),
            "sched.prepare_s": self_time("sched.prepare"),
            "sched.picks": calls("sched.pick"),
            "sched.pick_s": self_time("sched.pick"),
            "sim.runs": sum(
                calls(f"sim.{mode}")
                for mode in ("static", "dynamic", "shared_queue")
            ),
            "sim.dispatches": values.get("sim.dispatches", 0),
            "sim.dynamic_self_s": self_time("sim.dynamic"),
            "sim.shared_queue_self_s": self_time("sim.shared_queue"),
            "sim.trace.calls": calls("sim.trace"),
            "sim.trace.builds": values.get("sim.trace.builds", 0),
            "sim.trace.build_s": self_time("sim.trace"),
            "sim.trace.accesses": values.get("sim.trace.accesses", 0),
            "sim.qplan.quanta": quanta,
            "sim.qplan.quantum_s": self_time("sim.qplan.quantum"),
            "sim.qplan.compile_s": self_time("sim.qplan.compile"),
            "sim.qplan.batched_ratio": ratio(quanta, quanta + rows),
            "sim.contention.charges": calls("sim.contention"),
            "sim.contention.charge_s": self_time("sim.contention"),
            "sim.contention.stall_cycles": values.get(
                "sim.contention.stall_cycles", 0
            ),
            "cache.analyze_calls": calls("cache.analyze"),
            "cache.analyze_s": self_time("cache.analyze"),
            "cache.analyze_maps": maps(
                values.get("cache.analyze.accesses", 0), self_time("cache.analyze")
            ),
            "cache.adjust_calls": calls("cache.adjust"),
            "cache.adjust_s": self_time("cache.adjust"),
            "cache.rows_quanta": rows,
            "cache.rows_s": self_time("cache.rows"),
            "cache.rows_maps": maps(
                values.get("cache.rows.accesses", 0), self_time("cache.rows")
            ),
            "cache.memo.lookups": calls("cache.memo"),
            "cache.memo.hit_ratio": ratio(
                values.get("cache.memo.hits", 0), calls("cache.memo")
            ),
            "cache.store.gets": calls("cache.store.get"),
            "cache.store.get_s": self_time("cache.store.get"),
            "cache.store.get_hit_ratio": ratio(
                values.get("cache.store.get_hits", 0), calls("cache.store.get")
            ),
            "cache.store.puts": calls("cache.store.put"),
            "cache.store.put_s": self_time("cache.store.put"),
        }
    )
    return metrics


def cross_checks(merged: dict[str, Any]) -> list[str]:
    """Wrapper counts that disagree with the program's own counters."""
    stats = merged["stats"]
    values = merged["values"]
    program = merged["program"]

    def calls(name: str) -> float:
        return stats.get(name, [0, 0.0, 0.0])[0]

    checks = [
        (
            "cache.memo.lookups == TRACE_MEMO hits + misses",
            calls("cache.memo"),
            program.get("memo_hits", 0) + program.get("memo_misses", 0),
        ),
        (
            "cache.store.gets == MemoStore hits + misses",
            calls("cache.store.get"),
            program.get("store_hits", 0) + program.get("store_misses", 0),
        ),
        (
            "sim.qplan.quanta + cache.rows_quanta == shared-queue sim.dispatches",
            calls("sim.qplan.quantum") + calls("cache.rows"),
            values.get("sim.shared_queue.dispatches", 0),
        ),
    ]
    return [
        f"{label}: {left:g} != {right:g}"
        for label, left, right in checks
        if left != right
    ]
