"""The :class:`Engine` — one execution surface behind every entry point.

The engine is the only way to run campaign cells: the figure harnesses,
the CLI and the campaign service all go through it.  It takes
anything that normalizes to :class:`~repro.campaign.spec.RunSpec` cells
and runs them under one of three policies —

- ``"serial"`` — one cell at a time, in-process (deterministic, no
  pool overhead; what the figure harnesses use);
- ``"threads"`` — one daemon thread per cell; worthwhile because the
  cache kernels release the GIL, and required when plugin schedulers or
  workloads were registered at runtime (thread workers see them);
- ``"processes"`` — the multiprocessing fan-out campaigns always used.
  Worker processes re-import :mod:`repro`, so runtime-registered
  plugins are only visible where the start method is ``fork`` (the
  Linux default) or the plugin module is imported on worker start.

Every policy runs through one loop, :class:`_FanOut`, which hands
units of cells to a *lane* — the object that runs a unit and knows how
to stop it (:class:`_InlineLane`, :class:`_ThreadLane`,
:class:`_ProcessLane`).

Results are the typed records everything downstream reads:
:class:`RunResult` per cell, :class:`CampaignOutcome` per campaign
(:meth:`Engine.run_campaign`, with the store and resume handling), and
:class:`SchedulerComparison` per workload (:meth:`Engine.compare`).
"""

from __future__ import annotations

import atexit
import contextlib
import math
import threading
import time
from concurrent.futures import (
    FIRST_COMPLETED,
    CancelledError,
    Future,
    ProcessPoolExecutor,
    wait,
)
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Iterable, Sequence

from repro.api.scenario import Scenario
from repro.campaign.spec import CampaignSpec, RunSpec
from repro.errors import (
    CampaignError,
    CellTimeoutError,
    LeaseExpiredError,
    WorkerCrashError,
)
from repro.util.invalidation import register_worker_state, worker_state_epoch

if TYPE_CHECKING:
    from repro.campaign.executor import (
        CampaignOutcome,
        Outcome,
        ProgressFn,
        RunResult,
    )
    from repro.campaign.failures import CellFailure
    from repro.campaign.store import ResultStore
    from repro.experiments.runner import SchedulerComparison

#: The supported execution policies, in cheapest-first order.
EXECUTION_POLICIES = ("serial", "threads", "processes")

#: Per-result callback invoked as cells complete (completion order).
ResultFn = Callable[["RunResult"], None]

#: Per-quarantine callback invoked when a cell fails for good.
FailureFn = Callable[["CellFailure"], None]

#: Exponential-backoff schedule between attempts of one cell: the n-th
#: retry waits ``min(BACKOFF_CAP, BACKOFF_BASE * 2**(n-1))`` seconds.
#: Deterministic (no jitter): cells of one campaign are independent, so
#: thundering-herd decorrelation buys nothing and reproducibility does.
BACKOFF_BASE = 0.05
BACKOFF_CAP = 2.0


def _backoff_delay(failures_so_far: int) -> float:
    """Capped exponential backoff before the next attempt of a cell."""
    return min(BACKOFF_CAP, BACKOFF_BASE * (2 ** max(0, failures_so_far - 1)))


def _pool_worker_init(
    memo_dir: str | None,
    memo_mode: str,
    fast_cache: bool,
    fault_plan: str | None,
) -> None:
    """Align a fresh pool worker with the parent's tuning state.

    Fork workers inherit it anyway; with the spawn start method (or
    after the parent reconfigured mid-session) this keeps the persistent
    memo store (directory *and* access mode), the engine switch, and
    the active fault-injection plan consistent across the fleet.
    """
    import gc as _gc
    import os as _os
    import signal as _signal

    # Never collect what the fork inherited.  A lock another parent
    # thread held at the fork stays held here for good, and inherited
    # garbage runs parent callbacks when collected: a retired pool's
    # weakref callback takes that pool's shutdown lock, which its
    # manager thread holds while closing down after a worker crash, so
    # a worker forked at that moment would deadlock mid-cell.
    _gc.freeze()

    from repro.cache.memo import set_fast_cache
    from repro.cache.store import active_memo_store, configure_memo_store
    from repro.util.faults import PLAN_ENV

    # Shed fork-inherited asyncio signal plumbing.  A parent running an
    # event loop (the campaign service) holds SIGTERM/SIGINT handlers
    # and a signal wakeup fd whose pipe the forked worker shares; left
    # in place, terminating a worker (a) does not kill it — the
    # inherited Python-level handler just returns — and (b) writes the
    # signal byte into the *parent's* wakeup pipe, which the parent
    # loop dispatches as its own SIGTERM and begins draining.
    with contextlib.suppress(ValueError, OSError, RuntimeError):
        _signal.set_wakeup_fd(-1)
        _signal.signal(_signal.SIGTERM, _signal.SIG_DFL)
        _signal.signal(_signal.SIGINT, _signal.SIG_DFL)

    set_fast_cache(fast_cache)
    if fault_plan:
        _os.environ[PLAN_ENV] = fault_plan
    else:
        _os.environ.pop(PLAN_ENV, None)
    current = active_memo_store()
    current_dir = str(current.root) if current is not None else None
    current_mode = current.mode if current is not None else "rw"
    if (current_dir, current_mode) != (memo_dir, memo_mode):
        configure_memo_store(memo_dir, mode=memo_mode)


def _pool_init_args() -> tuple[object, ...]:
    import os as _os

    from repro.cache.memo import fast_cache_enabled
    from repro.cache.store import active_memo_store
    from repro.util.faults import PLAN_ENV

    store = active_memo_store()
    return (
        str(store.root) if store is not None else None,
        store.mode if store is not None else "rw",
        fast_cache_enabled(),
        _os.environ.get(PLAN_ENV),
    )


class _WorkerPool:
    """Owns at most one worker pool, started on first use.

    Worker start-up (an interpreter plus the NumPy import) dwarfs a
    typical cell, so the pool outlives ``run_many`` calls: campaigns
    composed of several rollup passes (sensitivity, the figure
    harnesses, benches) pay it once.  Every engine without
    ``private_pool`` shares :data:`_SHARED_POOL`; an engine with it owns
    an instance of its own.  The pool is retired, so that one lives at a
    time, when a different ``jobs`` count asks for one or when
    fork-inherited state changed since it started (plugin registrations,
    the engine switch, memo-store reconfiguration — see
    repro.util.invalidation).

    The lock serializes every swap: engines reach the shared owner from
    arbitrary threads (the campaign service runs them on runner
    threads), and two concurrent misses would otherwise start duplicate
    pools, one leaking resident workers for the process lifetime.
    """

    def __init__(self) -> None:
        self.pool: ProcessPoolExecutor | None = None
        self._key: tuple[int, int] | None = None  # (jobs, epoch) of the pool
        self._lock = threading.Lock()

    def acquire(self, jobs: int) -> ProcessPoolExecutor:
        with self._lock:
            key = (jobs, worker_state_epoch())
            stale = self.pool
            if stale is not None and self._key == key:
                return stale
            pool = self.pool = ProcessPoolExecutor(
                max_workers=jobs,
                initializer=_pool_worker_init,
                initargs=_pool_init_args(),
            )
            self._key = key
        if stale is not None:
            stale.shutdown(wait=False, cancel_futures=True)
        return pool

    def retire(
        self, pool: ProcessPoolExecutor | None = None, *, kill: bool = False
    ) -> None:
        """Shut ``pool`` (default: the current one) down for good.

        ``kill`` terminates its workers first: ``shutdown`` only refuses
        new work, and a worker stuck in a hung cell never returns.
        """
        with self._lock:
            if pool is None or pool is self.pool:
                pool, self.pool = self.pool, None
        if pool is None:
            return
        if kill:
            for process in list((getattr(pool, "_processes", None) or {}).values()):
                with contextlib.suppress(Exception):
                    process.terminate()
        pool.shutdown(wait=False, cancel_futures=True)


#: The worker pool every engine without ``private_pool`` shares.
_SHARED_POOL = _WorkerPool()
register_worker_state(
    __name__, "_SHARED_POOL",
    note="one pool at a time; retired on a jobs or epoch mismatch",
)
atexit.register(_SHARED_POOL.retire)


def _workload_weight(ref: str) -> int:
    """Crude relative cost of one cell of a workload reference."""
    _, _, arg = ref.partition(":")
    try:
        return max(1, int(arg))
    except ValueError:
        return 1


def _chunk_runs(
    runs: "Sequence[RunSpec]", jobs: int
) -> "list[list[int]]":
    """Group cell indices into worker-sized chunks, heaviest first.

    Cells sharing a workload and machine reuse each other's memoized
    EPGs, traces, and analyses, so they belong in the same worker; a
    cap keeps single-workload grids (open-system sweeps) from
    collapsing into one serial task.  Chunks are ordered by descending
    estimated cost so the pool's greedy assignment balances naturally.
    """
    groups: dict[tuple[object, ...], list[int]] = {}
    for index, run in enumerate(runs):
        groups.setdefault((run.workload, run.machine, run.scale), []).append(index)
    cap = max(4, math.ceil(len(runs) / (jobs * 4)))
    chunks: list[tuple[int, list[int]]] = []
    for (ref, _machine, _scale), indices in groups.items():
        weight = _workload_weight(ref)
        for start in range(0, len(indices), cap):
            part = indices[start : start + cap]
            chunks.append((weight * len(part), part))
    chunks.sort(key=lambda item: item[0], reverse=True)
    return [part for _, part in chunks]


# -- lanes ---------------------------------------------------------------------


class _Lane:
    """Runs units of cells and knows how to stop them.

    :meth:`submit` starts a unit and returns a future of its per-cell
    outcomes, ``("ok", result)`` or ``("err", exc)`` in unit order, so
    a future that raises means the transport died, never a cell.
    :meth:`stop` stops the overdue units.  The remaining hooks keep
    worker-liveness leases; only the process lane grants any.
    """

    #: Lease length of this lane's units; None when they carry none.
    lease_seconds: float | None = None

    def submit(self, cells: "list[RunSpec]") -> "Future[list[Outcome]]":
        raise NotImplementedError

    def stop(self) -> bool:
        """Stop the overdue units; True when every unit in flight died.

        The default abandons them: a unit running in this process cannot
        be killed, so the loop forgets it and discards whatever it
        eventually produces.  Nothing else in flight is touched.
        """
        return False

    def running(self, future: "Future[list[Outcome]]") -> None:
        """The unit was first seen running."""

    def silence(self, future: "Future[list[Outcome]]") -> float:
        """Seconds since the unit's worker last renewed its lease."""
        return 0.0

    def forget(self, future: "Future[list[Outcome]]") -> None:
        """The unit left the loop: it finished, died or was stopped."""

    def close(self) -> None:
        """The loop is over."""


def _resolve(future: "Future[list[Outcome]]", cells: "list[RunSpec]") -> None:
    """Run ``cells`` in this process and resolve ``future`` with their outcomes.

    A cell's error is reported as the original object: unlike a worker's
    (see ``execute_chunk_outcomes``) it crosses no pickle boundary.
    Anything else the unit raises, ``BaseException`` included, resolves
    the future as ``ThreadPoolExecutor`` would.
    """
    from repro.campaign import executor

    outcomes: "list[Outcome]" = []
    try:
        for run in cells:
            try:
                outcomes.append(("ok", executor.execute_run(run)))
            except Exception as exc:
                outcomes.append(("err", exc))
    except BaseException as exc:
        future.set_exception(exc)
    else:
        future.set_result(outcomes)


class _InlineLane(_Lane):
    """``serial`` without a timeout: each unit runs in the caller's thread."""

    def submit(self, cells: "list[RunSpec]") -> "Future[list[Outcome]]":
        future: "Future[list[Outcome]]" = Future()
        _resolve(future, cells)
        return future


class _ThreadLane(_Lane):
    """One daemon thread per unit: ``threads``, and ``serial`` under a timeout.

    Stopping an overdue unit abandons its thread, so its slot frees at
    once, and a daemon thread cannot hold the process open at exit.
    """

    def submit(self, cells: "list[RunSpec]") -> "Future[list[Outcome]]":
        future: "Future[list[Outcome]]" = Future()
        future.set_running_or_notify_cancel()
        threading.Thread(
            target=_resolve, args=(future, cells), name="repro-cell", daemon=True
        ).start()
        return future


class _ProcessLane(_Lane):
    """Units on a worker pool; stopping one kills the pool.

    With ``lease_seconds`` each unit carries a lease (see
    :mod:`repro.campaign.leases`): a heartbeat file its worker renews,
    granted at submission and re-granted when the unit is first seen
    running, so time spent queued never counts against the worker.
    """

    def __init__(
        self, pools: _WorkerPool, jobs: int, lease_seconds: float | None
    ) -> None:
        self.pools = pools
        self.jobs = jobs
        self.lease_seconds = lease_seconds
        self.pool: ProcessPoolExecutor | None = None
        self.leases: "dict[Future[list[Outcome]], Path]" = {}
        self.lease_dir: Path | None = None
        self.granted = 0

    def submit(self, cells: "list[RunSpec]") -> "Future[list[Outcome]]":
        from repro.campaign import executor, leases

        self.pool = self.pools.acquire(self.jobs)
        if self.lease_seconds is None:
            return self.pool.submit(executor.execute_chunk_outcomes, cells)
        if self.lease_dir is None:
            import tempfile

            self.lease_dir = Path(tempfile.mkdtemp(prefix="repro-leases-"))
        self.granted += 1
        lease = self.lease_dir / f"unit-{self.granted}.hb"
        leases.grant_lease(lease)
        future = self.pool.submit(
            leases.execute_leased_outcomes,
            cells,
            str(lease),
            leases.heartbeat_interval(self.lease_seconds),
        )
        self.leases[future] = lease
        return future

    def stop(self) -> bool:
        """Kill the pool: the only way to stop a hung worker."""
        self.pools.retire(self.pool, kill=True)
        return True

    def running(self, future: "Future[list[Outcome]]") -> None:
        from repro.campaign.leases import grant_lease

        lease = self.leases.get(future)
        if lease is not None:
            grant_lease(lease)

    def silence(self, future: "Future[list[Outcome]]") -> float:
        from repro.campaign.leases import heartbeat_age

        lease = self.leases.get(future)
        return heartbeat_age(lease) if lease is not None else 0.0

    def forget(self, future: "Future[list[Outcome]]") -> None:
        lease = self.leases.pop(future, None)
        if lease is not None:
            with contextlib.suppress(OSError):
                lease.unlink()

    def close(self) -> None:
        if self.lease_dir is not None:
            import shutil

            shutil.rmtree(self.lease_dir, ignore_errors=True)


# -- the one cell loop ---------------------------------------------------------


@dataclass
class _Unit:
    """The cells behind one in-flight future."""

    indices: list[int]
    #: Monotonic stamp of when the unit was first seen running.
    started: float | None = None


@dataclass
class _FanOut:
    """The retry/timeout/lease/quarantine loop every policy runs through.

    Cells travel as *units* (one future each): :attr:`pending` starts as
    workload-grouped chunks when nothing needs per-cell attribution and
    as single cells otherwise, and every resubmission is a single cell.
    At most ``width`` units are in flight; the rest wait in
    :attr:`pending`.  ``ProcessPoolExecutor`` marks a future RUNNING as
    soon as it enters the call queue (which holds ``max_workers + 1``
    items), so without the cap a unit stuck behind a full pool would
    look running, anchor its wall-clock deadline, and age its lease with
    no worker heartbeating it — long cells would spuriously expire
    queued neighbors and charge them crashes.
    """

    runs: "Sequence[RunSpec]"
    pending: "list[list[int]]"
    lane: _Lane
    width: int
    attempts_allowed: int
    cell_timeout: float | None
    keep_going: bool
    on_result: ResultFn | None
    on_failure: FailureFn | None

    #: Poll interval while waiting for a unit to enter the running
    #: state (needed to anchor its deadline and lease).
    poll: float = 0.05

    def __post_init__(self) -> None:
        count = len(self.runs)
        self.results: "list[RunResult | None]" = [None] * count
        self.outstanding: set[int] = set(range(count))
        self.attempts_used = [0] * count
        self.first_submit: dict[int, float] = {}
        self.active: "dict[Future[list[Outcome]], _Unit]" = {}
        self.delayed: list[tuple[float, int]] = []  # (due, index)
        self.abort_exc: BaseException | None = None
        self.pool_breaks = 0
        #: Cells implicated in a pool break.  A suspect is re-run *solo*
        #: (one suspect in flight at a time) so the next break attributes
        #: the crash to exactly one cell instead of charging every unit
        #: that happened to be running when a sibling's worker died.
        self.suspects: set[int] = set()
        self.probe_queue: list[int] = []
        self.probe: int | None = None

    def execute(self) -> "list[RunResult]":
        """Run every cell; completed results in declaration order."""
        try:
            while self.outstanding and self.abort_exc is None:
                self._step()
        finally:
            for future in self.active:
                future.cancel()
            self.lane.close()
        if self.abort_exc is not None:
            raise self.abort_exc
        return [result for result in self.results if result is not None]

    # -- dispatch ------------------------------------------------------------

    def _submit(self, indices: list[int]) -> None:
        now = time.monotonic()
        for index in indices:
            self.first_submit.setdefault(index, now)
        future = self.lane.submit([self.runs[i] for i in indices])
        self.active[future] = _Unit(indices)

    def _dispatch(self, index: int) -> None:
        if index in self.suspects:
            if index not in self.probe_queue:
                self.probe_queue.append(index)
        else:
            self.pending.append([index])

    def _resubmit(self, indices: list[int]) -> None:
        for index in indices:
            if index in self.outstanding:
                self._dispatch(index)

    # -- one scheduler turn --------------------------------------------------

    def _step(self) -> None:
        now = time.monotonic()
        for item in [d for d in self.delayed if d[0] <= now]:
            self.delayed.remove(item)
            self._dispatch(item[1])
        while self.pending and len(self.active) < self.width:
            self._submit(self.pending.pop(0))
        if self.probe is None and not self.active:
            while self.probe_queue:
                index = self.probe_queue.pop(0)
                if index in self.outstanding:
                    self.probe = index
                    self._submit([index])
                    break
        if not self.active:
            if self.delayed:
                time.sleep(max(0.0, min(d for d, _ in self.delayed) - now))
            return
        for future, unit in self.active.items():
            if unit.started is None and future.running():
                unit.started = now
                self.lane.running(future)
        done, _ = wait(
            set(self.active),
            timeout=self._wait_timeout(now),
            return_when=FIRST_COMPLETED,
        )
        for future in done:
            self._complete(future)
        if self.abort_exc is None:
            self._stop_overdue(time.monotonic())

    def _wait_timeout(self, now: float) -> float | None:
        candidates = [due - now for due, _ in self.delayed]
        lease = self.lane.lease_seconds
        if self.cell_timeout is not None or lease is not None:
            if any(unit.started is None for unit in self.active.values()):
                candidates.append(self.poll)
        if self.cell_timeout is not None:
            candidates.extend(
                unit.started + self.cell_timeout - now
                for unit in self.active.values()
                if unit.started is not None
            )
        if lease is not None:
            from repro.campaign.leases import heartbeat_interval

            # Wake at the heartbeat cadence so stale leases are noticed
            # within one renewal interval of going stale.
            candidates.append(heartbeat_interval(lease))
        if not candidates:
            return None  # block until a future completes
        return max(0.0, min(candidates))

    # -- completion paths ----------------------------------------------------

    def _complete(self, future: "Future[list[Outcome]]") -> None:
        # A pool break drains *all* in-flight units at once, so sibling
        # futures from the same wait() batch may already be gone.
        unit = self.active.pop(future, None)
        if unit is None:
            return
        self.lane.forget(future)
        indices = unit.indices
        try:
            outcomes = future.result()
        except BrokenProcessPool as exc:
            self._pool_break(future, unit, exc)
            return
        except CancelledError:
            if self.probe in indices:
                self.probe = None
            self._resubmit(indices)
            return
        except Exception as exc:
            # The unit raised in-band, so its worker is alive: whatever
            # broke the pool earlier, these cells are cleared.
            self._clear_suspects(indices)
            if len(indices) == 1:
                self._cell_failed(indices[0], exc)
            else:
                # Transport-level failure of a chunk (unpicklable result,
                # executor teardown): resubmit its cells singly for exact
                # attribution.
                self._resubmit(indices)
            return
        self._clear_suspects(indices)
        for index, (_, value) in zip(indices, outcomes):
            if isinstance(value, Exception):
                self._cell_failed(index, value)
            else:
                self._cell_done(index, value)

    def _clear_suspects(self, indices: list[int]) -> None:
        for index in indices:
            self.suspects.discard(index)
        if self.probe in indices:
            self.probe = None

    def _cell_done(self, index: int, result: "RunResult") -> None:
        if index not in self.outstanding:
            return
        self.outstanding.discard(index)
        self.results[index] = result
        if self.on_result is not None:
            self.on_result(result)

    def _cell_failed(self, index: int, exc: BaseException) -> None:
        from repro.campaign.failures import failure_from_exception

        if index not in self.outstanding:
            return
        self.attempts_used[index] += 1
        if self.attempts_used[index] < self.attempts_allowed:
            due = time.monotonic() + _backoff_delay(self.attempts_used[index])
            self.delayed.append((due, index))
            return
        self.outstanding.discard(index)
        if not self.keep_going:
            # Re-raise the *original* exception so callers that never
            # opted into quarantine see exactly the historical error.
            self.abort_exc = exc
            return
        if self.on_failure is not None:
            elapsed = time.monotonic() - self.first_submit[index]
            self.on_failure(
                failure_from_exception(
                    self.runs[index], exc, self.attempts_used[index], elapsed
                )
            )

    def _pool_break(
        self, future: "Future[list[Outcome]]", unit: _Unit, exc: BaseException
    ) -> None:
        """A worker died: retire the pool, resubmit only incomplete work.

        Every in-flight future dies with the pool, so the break alone
        cannot say *which* cell crashed its worker.  Units that were
        observed running become suspects and re-run solo (see
        :attr:`suspects`): a break during a solo probe is charged to that
        probe exactly, and every innocent suspect clears itself with one
        clean run.  Queued units were never running and resubmit as
        ordinary single cells.
        """
        self.pool_breaks += 1
        self.lane.stop()
        broken = [(future, unit), *self.active.items()]
        self.active.clear()
        probe, self.probe = self.probe, None
        if self.pool_breaks > max(4, self.attempts_allowed * len(self.runs)):
            self.abort_exc = CampaignError(
                f"worker pool died {self.pool_breaks} times; giving up "
                f"(last error: {exc})"
            )
            return
        for dead, dead_unit in broken:
            self.lane.forget(dead)
            if probe is not None and dead_unit.indices == [probe]:
                self._cell_failed(
                    probe, WorkerCrashError(self.runs[probe].cell_key())
                )
                if self.abort_exc is not None:
                    return
                # A surviving retry stays a suspect: it re-probes after
                # its backoff, so repeat offenders exhaust their budget.
            else:
                if dead is future or dead_unit.started is not None:
                    self.suspects.update(
                        i for i in dead_unit.indices if i in self.outstanding
                    )
                self._resubmit(dead_unit.indices)

    def _stop_overdue(self, now: float) -> None:
        """Stop units past their ``cell_timeout`` or their lease.

        An overdue unit is charged a :class:`CellTimeoutError`, or a
        :class:`LeaseExpiredError` (kind ``crash``) when its worker
        stopped heartbeating: a stale heartbeat names its cell exactly,
        so no suspect probing is needed.  When the lane can only stop a
        unit by killing every unit in flight (the process lane kills its
        pool), the innocent bystanders resubmit uncharged.
        """
        lease = self.lane.lease_seconds
        overdue: "dict[Future[list[Outcome]], Exception]" = {}
        for future, unit in self.active.items():
            if unit.started is None:
                continue
            key = self.runs[unit.indices[0]].cell_key()
            if self.cell_timeout is not None and (
                now - unit.started >= self.cell_timeout
            ):
                overdue[future] = CellTimeoutError(key, self.cell_timeout)
            elif lease is not None and self.lane.silence(future) >= lease:
                overdue[future] = LeaseExpiredError(key, lease)
        if not overdue:
            return
        stopped = list(self.active) if self.lane.stop() else list(overdue)
        for future in stopped:
            unit = self.active.pop(future)
            self.lane.forget(future)
            if self.probe in unit.indices:
                self.probe = None
            if future in overdue:
                self._cell_failed(unit.indices[0], overdue[future])
                if self.abort_exc is not None:
                    return
            else:
                self._resubmit(unit.indices)


def _as_run_specs(runnable: object) -> list[RunSpec]:
    """Normalize any facade input to a flat list of grid cells."""
    if isinstance(runnable, RunSpec):
        return [runnable]
    if isinstance(runnable, (Scenario, CampaignSpec)):
        return runnable.expand()
    if isinstance(runnable, Iterable) and not isinstance(runnable, (str, bytes)):
        runs: list[RunSpec] = []
        for item in runnable:
            runs.extend(_as_run_specs(item))
        return runs
    raise CampaignError(
        f"cannot run {runnable!r}: expected a Scenario, CampaignSpec, "
        f"RunSpec, or an iterable of those"
    )


@dataclass
class Engine:
    """Runs scenarios; construction is cheap and carries only policy.

    The fields are the engine's only knobs: every execution method runs
    under them, and they are validated once, here.

    ``jobs`` is the worker count for the pooled policies; ``policy=None``
    picks ``"serial"`` for ``jobs=1`` and ``"processes"`` otherwise
    (the campaign executor's historical behavior).  ``store``/``resume``/
    ``progress`` apply to :meth:`run_campaign` only.

    ``max_retries`` re-attempts a failing cell with capped exponential
    backoff before giving up on it; ``cell_timeout`` bounds one attempt's
    wall clock (a hung thread is abandoned, hung process workers are
    killed via pool retirement); ``keep_going`` converts terminal cell
    failures into structured
    :class:`~repro.campaign.failures.CellFailure` quarantine records
    instead of aborting the batch.  All three default off, which is
    byte-for-byte the historical behavior.

    ``lease_seconds`` adds a liveness check on top: each dispatched unit
    carries a lease renewed by worker heartbeats, and a worker silent
    for a full lease is presumed dead — its cell is charged a ``crash``
    and resubmitted (see :mod:`repro.campaign.leases`).  Leases need
    real worker processes, so the knob applies to the ``processes``
    policy only and is silently ignored elsewhere; it bounds *silence*,
    not runtime — pair it with ``cell_timeout`` to also bound a worker
    that is alive but stuck.

    ``private_pool`` gives this engine its own worker pool instead of
    the process-wide shared one.  Engines running *concurrently* in
    one process (the campaign service runs several campaigns at once)
    must set it: recovering one engine's hung cell terminates its pool,
    and a shared pool would take every sibling engine's in-flight
    workers down with it.  A private pool is reused across this
    engine's calls; call :meth:`close` (or use the engine as a context
    manager) to release its workers.
    """

    jobs: int = 1
    policy: str | None = None
    store: "ResultStore | str | Path | None" = None
    resume: bool = False
    progress: "ProgressFn | None" = None
    max_retries: int = 0
    cell_timeout: float | None = None
    keep_going: bool = False
    lease_seconds: float | None = None
    private_pool: bool = False

    def __post_init__(self) -> None:
        if self.jobs < 1:
            raise CampaignError(f"jobs must be >= 1, got {self.jobs}")
        if self.policy is not None and self.policy not in EXECUTION_POLICIES:
            raise CampaignError(
                f"unknown execution policy {self.policy!r}; expected one "
                f"of {', '.join(EXECUTION_POLICIES)}"
            )
        if self.max_retries < 0:
            raise CampaignError(
                f"max_retries must be >= 0, got {self.max_retries}"
            )
        if self.cell_timeout is not None and self.cell_timeout <= 0:
            raise CampaignError(
                f"cell_timeout must be positive, got {self.cell_timeout}"
            )
        if self.lease_seconds is not None and self.lease_seconds <= 0:
            raise CampaignError(
                f"lease_seconds must be positive, got {self.lease_seconds}"
            )
        self._pools = _WorkerPool() if self.private_pool else _SHARED_POOL

    # -- worker-pool ownership -----------------------------------------------

    def close(self) -> None:
        """Release this engine's dedicated worker pool, if it has one.

        Only meaningful with ``private_pool`` (the shared pool is
        process-wide and persists by design); safe to call repeatedly.
        """
        if self.private_pool:
            self._pools.retire()

    def __enter__(self) -> "Engine":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # -- the cell loop -------------------------------------------------------

    def run(self, runnable: object) -> "RunResult":
        """Run exactly one cell and return its :class:`RunResult`.

        Retries and the timeout apply; a cell that fails for good raises
        its error, since there is no batch to quarantine it beside.
        """
        runs = _as_run_specs(runnable)
        if len(runs) != 1:
            raise CampaignError(
                f"Engine.run() executes exactly one cell, got {len(runs)}; "
                f"use run_many() or run_campaign() for grids"
            )
        return self._fan_out(runs, keep_going=False)[0]

    def run_many(
        self,
        runnables: object,
        on_result: ResultFn | None = None,
        on_failure: FailureFn | None = None,
    ) -> "list[RunResult]":
        """Run every cell; returns completed results in declaration order.

        ``on_result`` fires as cells complete (completion order).  This
        is *the* cell loop — campaigns and the figure harnesses all
        funnel through here.

        A failing cell is retried up to ``max_retries`` times with capped
        exponential backoff; one that fails for good either aborts the
        batch by re-raising its original error (the default) or — with
        ``keep_going`` — is quarantined: ``on_failure`` receives the
        structured :class:`~repro.campaign.failures.CellFailure` and the
        returned list simply omits that cell.
        """
        return self._fan_out(
            _as_run_specs(runnables), self.keep_going, on_result, on_failure
        )

    def _fan_out(
        self,
        runs: "list[RunSpec]",
        keep_going: bool,
        on_result: ResultFn | None = None,
        on_failure: FailureFn | None = None,
    ) -> "list[RunResult]":
        """Pick this engine's lane and units, then run the loop."""
        policy = self.policy or ("serial" if self.jobs == 1 else "processes")
        if self.jobs == 1 or len(runs) <= 1:
            policy = "serial"
        units = [[index] for index in range(len(runs))]
        lane: _Lane
        if policy == "processes":
            lane = _ProcessLane(self._pools, self.jobs, self.lease_seconds)
            if self.cell_timeout is None and self.lease_seconds is None:
                units = _chunk_runs(runs, self.jobs)
        elif policy == "threads" or self.cell_timeout is not None:
            lane = _ThreadLane()
        else:
            lane = _InlineLane()
        return _FanOut(
            runs=runs,
            pending=units,
            lane=lane,
            width=1 if policy == "serial" else self.jobs,
            attempts_allowed=self.max_retries + 1,
            cell_timeout=self.cell_timeout,
            keep_going=keep_going,
            on_result=on_result,
            on_failure=on_failure,
        ).execute()

    # -- full campaigns (store, resume, rollup-ready outcome) ----------------

    def run_campaign(
        self, campaign: "Scenario | CampaignSpec"
    ) -> "CampaignOutcome":
        """Run a whole grid with store/resume handling.

        With a ``store`` and ``resume``, cells whose keys are already in
        the store are skipped; with a store but no ``resume``, the store
        is truncated and the whole grid runs.  Results and quarantine
        records stream into the store as cells finish.  Failure lines
        never load as results, so the next ``resume`` run re-attempts
        quarantined cells and is thereby a repair pass.
        """
        from repro.campaign.executor import CampaignOutcome
        from repro.campaign.store import as_store

        spec = campaign.to_campaign() if isinstance(campaign, Scenario) else campaign
        if not isinstance(spec, CampaignSpec):
            raise CampaignError(
                f"run_campaign() needs a Scenario or CampaignSpec, "
                f"got {campaign!r}"
            )
        runs = spec.expand()
        store = as_store(self.store)
        done: "dict[str, RunResult]" = {}
        if store is not None and self.resume:
            wanted = {run.cell_key() for run in runs}
            done = {key: r for key, r in store.load().items() if key in wanted}
        elif store is not None:
            store.clear()
        todo = [run for run in runs if run.cell_key() not in done]
        failures: "list[CellFailure]" = []

        def record(result: "RunResult") -> None:
            done[result.key] = result
            if store is not None:
                store.append(result)
            if self.progress is not None:
                self.progress(result, len(done), len(runs))

        def record_failure(failure: "CellFailure") -> None:
            failures.append(failure)
            if store is not None:
                store.append_failure(failure)

        skipped = len(done)
        self.run_many(todo, on_result=record, on_failure=record_failure)
        return CampaignOutcome(
            spec=spec,
            results=[done[run.cell_key()] for run in runs if run.cell_key() in done],
            executed=len(todo) - len(failures),
            skipped=skipped,
            store_path=store.path if store is not None else None,
            failures=failures,
        )

    # -- scheduler comparisons ----------------------------------------------

    def compare(
        self, runnable: "Scenario | CampaignSpec | Sequence[RunSpec]"
    ) -> "SchedulerComparison":
        """Run one workload/machine/seed under several schedulers.

        Returns the :class:`SchedulerComparison` record the figure
        renderers and CSV exporters consume.
        """
        from repro.experiments.runner import group_comparisons

        runs = _as_run_specs(runnable)
        # group on the full frozen MachineVariant, not just its name, so
        # same-named variants with different overrides cannot merge
        groups = {(r.workload, r.machine, r.seed, r.scale, r.arrival) for r in runs}
        if len(groups) != 1:
            raise CampaignError(
                f"compare() wants one workload/machine/seed under several "
                f"schedulers; got {len(groups)} distinct cells — use "
                f"run_many() and group_comparisons() instead"
            )
        return group_comparisons(self.run_many(runs))[0]
