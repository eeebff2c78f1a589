"""Campaign cell execution.

:func:`execute_run` turns one :class:`~repro.campaign.spec.RunSpec`
cell into one simulation — a fresh machine, EPG and scheduler, run by
:meth:`~repro.sim.simulator.MPSoCSimulator.run` (or ``run_open`` for a
cell with an arrival process) — and flattens it into a
:class:`RunResult`.  Cells are independent by construction, which is
what makes the fan-out trivial: :class:`repro.api.engine.Engine` runs
them inline, on threads or on a worker pool, and streams results back
into the JSON-lines store as they complete.
"""

from __future__ import annotations

import hashlib
import pickle
from dataclasses import astuple, dataclass, field, replace
from pathlib import Path
from typing import TYPE_CHECKING, Callable

if TYPE_CHECKING:
    from repro.sched.base import Scheduler
    from repro.sim.arrivals import ArrivalSpec
    from repro.sim.config import MachineConfig
    from repro.sim.results import OpenSystemResult

from repro.campaign.failures import CellFailure
from repro.campaign.spec import (
    CampaignSpec,
    RunSpec,
    build_campaign_workload,
    workload_seed_sensitive,
)
from repro.errors import CampaignError
from repro.util.faults import fault_point
from repro.util.invalidation import register_worker_state
from repro.util.memo import BoundedDict

#: Progress callback: (result, completed_count, total_count).
ProgressFn = Callable[["RunResult", int, int], None]


@dataclass
class RunResult:
    """Aggregate metrics of one executed cell.

    Deliberately flat and JSON-friendly: the store, the rollups, the
    figure renderers and the CSV exporters all read this record.
    """

    key: str
    workload: str
    machine: str
    scheduler: str
    scheduler_name: str
    seed: int
    scale: float
    seconds: float
    makespan_cycles: int
    miss_rate: float
    hits: int
    misses: int
    utilization: float
    per_core_utilization: list[float] = field(default_factory=list)
    #: Total cycles cores spent queued on the contended off-chip path;
    #: None for cells whose machine runs the null ("none") model.
    queue_delay_cycles: int | None = None
    #: Off-chip line transfers summed across cores; None without a
    #: contention model.
    bus_transfers: int | None = None
    #: Arrival-axis label for open-system cells; None for closed cells.
    arrival: str | None = None
    #: Open-system metrics (response times, slowdown, throughput) for
    #: cells run with an ArrivalSpec; None for closed cells.
    open: dict[str, float] | None = None
    #: Set when the cell's batched/vectorized path raised and the scalar
    #: oracle re-ran it ("<ErrorType>: message"); None on the fast path.
    downgraded: str | None = None

    def to_dict(self) -> dict[str, object]:
        data: dict[str, object] = {
            "key": self.key,
            "workload": self.workload,
            "machine": self.machine,
            "scheduler": self.scheduler,
            "scheduler_name": self.scheduler_name,
            "seed": self.seed,
            "scale": self.scale,
            "seconds": self.seconds,
            "makespan_cycles": self.makespan_cycles,
            "miss_rate": self.miss_rate,
            "hits": self.hits,
            "misses": self.misses,
            "utilization": self.utilization,
            "per_core_utilization": self.per_core_utilization,
        }
        # Closed-system rows keep their historical schema byte for byte.
        if self.queue_delay_cycles is not None:
            data["queue_delay_cycles"] = self.queue_delay_cycles
        if self.bus_transfers is not None:
            data["bus_transfers"] = self.bus_transfers
        if self.arrival is not None:
            data["arrival"] = self.arrival
        if self.open is not None:
            data["open"] = self.open
        if self.downgraded is not None:
            data["downgraded"] = self.downgraded
        return data

    @classmethod
    def from_dict(cls, data: dict[str, object]) -> "RunResult":
        arrival = data.get("arrival")
        open_metrics = data.get("open")
        queue_delay = data.get("queue_delay_cycles")
        bus_transfers = data.get("bus_transfers")
        return cls(
            key=str(data["key"]),
            workload=str(data["workload"]),
            machine=str(data["machine"]),
            scheduler=str(data["scheduler"]),
            scheduler_name=str(data["scheduler_name"]),
            seed=int(data["seed"]),
            scale=float(data["scale"]),
            seconds=float(data["seconds"]),
            makespan_cycles=int(data["makespan_cycles"]),
            miss_rate=float(data["miss_rate"]),
            hits=int(data["hits"]),
            misses=int(data["misses"]),
            utilization=float(data["utilization"]),
            per_core_utilization=[float(u) for u in data.get("per_core_utilization", [])],
            queue_delay_cycles=int(queue_delay) if queue_delay is not None else None,
            bus_transfers=int(bus_transfers) if bus_transfers is not None else None,
            arrival=str(arrival) if arrival is not None else None,
            open=dict(open_metrics) if open_metrics is not None else None,
            downgraded=(
                str(data["downgraded"]) if data.get("downgraded") is not None else None
            ),
        )


#: Per-process memo of campaign cells, keyed by what determines each
#: result (:func:`_cell_memo_key`): replicas, aliases and re-runs of one
#: cell reuse one simulation.
_CELL_MEMO: BoundedDict = BoundedDict(4096)
register_worker_state(
    __name__, "_CELL_MEMO", note="content-addressed; values pure in keys"
)


def clear_cell_memo() -> None:
    """Drop all memoized campaign cells (benchmarks, tests)."""
    _CELL_MEMO.clear()


def _cell_memo_key(
    run: RunSpec, scheduler: "Scheduler", machine: "MachineConfig"
) -> tuple[object, ...] | None:
    """Everything that determines a cell's result, as its memo key.

    The machine enters by the configuration it builds, not by its
    variant's name, so variants that build one machine share a cell.
    A cell whose scheduler, workload or arrival process draws from the
    seed ends in ``("seed", run.seed)``: every one of its random draws
    comes from that seed.  Any other cell keeps one key across seeds,
    so its replicas share one simulation.  None only for a ``trace``
    arrival file that cannot be read; the cell then fails as it would
    without a memo.
    """
    arrival: tuple[object, ...] | None = None
    seeded = scheduler.seed_sensitive or workload_seed_sensitive(run.workload)
    if run.arrival is not None:
        arrival = _arrival_identity(run.arrival)
        if arrival is None:
            return None
        seeded = seeded or run.arrival.seed_sensitive
    key: tuple[object, ...] = (
        run.workload,
        run.scale,
        astuple(machine),
        run.scheduler.name,
        run.scheduler.params,
        arrival,
    )
    return key + (("seed", run.seed),) if seeded else key


def _arrival_identity(arrival: "ArrivalSpec") -> tuple[object, ...] | None:
    """``(process, params)``, plus the file's SHA-256 for a ``trace`` file.

    ``trace`` reads its ``path`` when the schedule is built, so the
    file's bytes determine the cell, not its name.
    """
    identity: tuple[object, ...] = (arrival.process, arrival.params)
    path = dict(arrival.params).get("path") if arrival.process == "trace" else None
    if path is None:
        return identity
    try:
        data = Path(path).read_bytes()
    except (OSError, TypeError):
        return None
    return identity + (hashlib.sha256(data).hexdigest(),)


def _persistent_cell_key(memo_key: tuple[object, ...]) -> str:
    """Stable store key for a cell identity.

    The in-RAM key is a tuple of primitives whose ``repr`` is
    deterministic across processes and interpreter runs, so its digest
    can key the shared store (:mod:`repro.cache.store`).
    """
    from repro.cache.store import fingerprint_key

    return fingerprint_key(memo_key)


def _cell_persistable(run: RunSpec, machine: "MachineConfig") -> bool:
    """Whether a cell's result may outlive this process.

    Only cells built entirely from *builtin* registry entries persist:
    a plugin workload, scheduler, arrival process, or contention model
    can change its code between sessions without changing its
    registered name, which would silently resurrect stale results from
    the shared store.  (The in-RAM memo is unaffected — it dies with the
    process and therefore with the plugin code that filled it.)
    """
    from repro.api.registries import ARRIVALS, CONTENTION, SCHEDULERS, WORKLOADS

    base = run.workload.partition(":")[0]
    if WORKLOADS.get_entry(base).origin != "builtin":
        return False
    if SCHEDULERS.get_entry(run.scheduler.name).origin != "builtin":
        return False
    if CONTENTION.get_entry(machine.contention).origin != "builtin":
        return False
    if run.arrival is not None:
        if ARRIVALS.get_entry(run.arrival.process).origin != "builtin":
            return False
    return True


def _adopt_cached(run: RunSpec, cached: "RunResult") -> "RunResult":
    """Re-badge a memoized simulation with this cell's identity."""
    return replace(
        cached,
        key=run.cell_key(),
        machine=run.machine.name,
        seed=run.seed,
        scheduler=run.scheduler.effective_label,
        arrival=run.arrival.effective_label if run.arrival is not None else None,
    )


def execute_run(run: RunSpec) -> RunResult:
    """Execute one cell; pure function of the spec (workers call this).

    A cell whose fast path (compiled kernel, compiled quantum plans,
    memoized analysis) raises is transparently re-run under the pure
    scalar oracle — bit-identical by construction — and the result
    carries the downgrade note, so one bad compiled plan degrades one
    cell's speed, never a campaign.  The downgrade switches the engines
    of the calling thread only, so concurrent cells keep theirs.
    """
    fault_point("cell", run.cell_key())
    try:
        return _execute_cell(run)
    except Exception as exc:
        from repro.cache.memo import fast_cache_enabled, scalar_fallback

        if not fast_cache_enabled():
            raise  # already on the scalar oracle: the error is organic
        with scalar_fallback():
            result = _execute_cell(run)
        note = f"{type(exc).__name__}: {exc}"
        return replace(
            result,
            downgraded=note if len(note) <= 200 else note[:197] + "...",
        )


def _execute_cell(run: RunSpec) -> RunResult:
    from repro.cache.store import active_memo_store
    from repro.sim.simulator import MPSoCSimulator

    scheduler = run.scheduler.build(run.seed)
    machine = run.machine.build()
    memo_key = _cell_memo_key(run, scheduler, machine)
    store = active_memo_store() if memo_key is not None else None
    if store is not None and not _cell_persistable(run, machine):
        store = None
    store_key = _persistent_cell_key(memo_key) if store is not None else None
    if memo_key is not None:
        cached = _CELL_MEMO.get(memo_key)
        if cached is not None:
            # Same simulation, this cell's identity (labels are cosmetic).
            return _adopt_cached(run, cached)
        if store is not None:
            payload = store.get_cell(store_key)
            if payload is not None:
                cached = RunResult.from_dict(payload)
                _CELL_MEMO.put(memo_key, cached)
                return _adopt_cached(run, cached)
    epg = build_campaign_workload(run.workload, scale=run.scale, seed=run.seed)
    simulator = MPSoCSimulator(machine)
    open_metrics: dict[str, float] | None = None
    if run.arrival is not None:
        schedule = run.arrival.build(epg.task_names, run.seed, machine)
        result = simulator.run_open(epg, scheduler, schedule)
        open_metrics = _open_metrics(result)
    else:
        result = simulator.run(epg, scheduler)
    makespan = result.makespan_cycles
    run_result = RunResult(
        key=run.cell_key(),
        workload=run.workload,
        machine=run.machine.name,
        scheduler=run.scheduler.effective_label,
        scheduler_name=run.scheduler.name,
        seed=run.seed,
        scale=run.scale,
        seconds=result.seconds,
        makespan_cycles=makespan,
        miss_rate=result.miss_rate,
        hits=result.total_cache.hits,
        misses=result.total_cache.misses,
        utilization=result.core_utilization(),
        per_core_utilization=[
            (core.busy_cycles / makespan) if makespan else 0.0
            for core in result.cores
        ],
        queue_delay_cycles=(
            result.total_queue_delay_cycles
            if machine.contention != "none"
            else None
        ),
        bus_transfers=(
            result.total_bus_transfers if machine.contention != "none" else None
        ),
        arrival=run.arrival.effective_label if run.arrival is not None else None,
        open=open_metrics,
    )
    if memo_key is not None:
        _CELL_MEMO.put(memo_key, run_result)
        if store is not None:
            store.put_cell(store_key, run_result.to_dict())
    return run_result


#: One cell's outcome within a unit: ``("ok", result)`` or ``("err", exc)``.
Outcome = tuple[str, RunResult | Exception]


def execute_chunk_outcomes(runs: list[RunSpec]) -> list[Outcome]:
    """Execute a batch in one worker round trip, errors as data.

    The pooled executor groups cells by workload before dispatch, so a
    chunk's cells share the worker's memoized EPGs, traces, and
    analyses instead of rebuilding them once per task.  The engine's
    fan-out loop needs exact failure attribution — which cell of a
    chunk raised — so worker-side exceptions travel back as ``("err",
    exc)`` markers next to their siblings' ``("ok", result)`` instead
    of poisoning the whole chunk.  A future-level exception therefore
    always means the transport died (worker crash, broken pool), never
    a cell.
    """
    outcomes: list[Outcome] = []
    for run in runs:
        try:
            outcomes.append(("ok", execute_run(run)))
        except Exception as exc:
            try:
                # Full round-trip: an exception whose custom __init__
                # signature pickles but fails to *unpickle* would kill
                # the parent's result pipe (a fake pool break).
                pickle.loads(pickle.dumps(exc))
            except Exception:
                exc = CampaignError(f"{type(exc).__name__}: {exc}")
            outcomes.append(("err", exc))
    return outcomes


def _open_metrics(result: "OpenSystemResult") -> dict[str, float]:
    """Flatten an :class:`~repro.sim.results.OpenSystemResult` for the store."""
    stats = result.response_stats()
    to_ms = 1e3 / result.clock_hz
    return {
        "apps": len(result.apps),
        "response_mean_ms": stats["mean"] * to_ms,
        "response_p50_ms": stats["p50"] * to_ms,
        "response_p95_ms": stats["p95"] * to_ms,
        "response_p99_ms": stats["p99"] * to_ms,
        "response_max_ms": stats["max"] * to_ms,
        "queue_delay_mean_ms": result.mean_queue_delay_cycles() * to_ms,
        "mean_slowdown": result.mean_slowdown(),
        "max_slowdown": result.max_slowdown(),
        "throughput_apps_per_s": result.throughput_apps_per_second(),
        "windowed_miss_rates": result.windowed_miss_rates(10),
    }


@dataclass
class CampaignOutcome:
    """Everything a campaign run produced."""

    spec: CampaignSpec
    results: list[RunResult]  # expansion order, cached cells included
    executed: int
    skipped: int
    store_path: Path | None = None
    #: Cells quarantined after exhausting retries (``keep_going`` runs
    #: only — without it the first terminal failure raises instead).
    failures: list[CellFailure] = field(default_factory=list)

    @property
    def total(self) -> int:
        """Number of grid cells (completed plus quarantined)."""
        return len(self.results) + len(self.failures)

    @property
    def downgraded(self) -> int:
        """How many cells fell back from the fast path to the oracle."""
        return sum(1 for result in self.results if result.downgraded is not None)
