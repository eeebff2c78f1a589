"""The MPSoC simulator: executes a scheduler plan over an EPG.

One deterministic event loop runs every plan.  Its events — an app's
arrival, or the end of one executed segment — pop in ``(cycle,
insertion sequence)`` order (:class:`~repro.sim.engine.EventQueue`).
Whenever a core is offered work, the plan mode's *dispatch policy*
decides what it runs, through three hooks: ``admit`` a process that
became ready (or was preempted), ``pick`` the next process for the
offered core (or none), and ``run`` one segment of its trace.  One
policy per :class:`~repro.sched.base.PlanMode`:

- **static** (LS-static): fixed per-core queues, non-preemptive.  A core
  takes its queue head once the head's predecessors are done, so each
  process starts at ``max(core free, dependences complete)`` and each
  private cache sees exactly its own queue's order.
- **dynamic** (RS, LS, LSM and the online zoo): whenever a core is
  offered work, the plan's picker chooses among the ready processes;
  non-preemptive.
- **shared_queue** (RRS): one global FIFO, quantum preemption, processes
  resume wherever a core frees up — faithfully migrating (and thereby
  losing) cache state, per the paper's motivating scenario.

Under RRS the core a segment freed takes the queue head before the idle
cores get theirs; under the other policies it rejoins the idle set.
Idle cores are offered work lowest id first.  Every segment is charged
the same way (:meth:`_Cores.charge`) and every process record sums its
segments, so the modes differ in nothing but their policy.

Open-system admission (beyond the paper): :meth:`MPSoCSimulator.run_open`
executes dynamic and shared-queue plans against an
:class:`~repro.sim.arrivals.ArrivalSchedule` — each application's process
set is *released* only once its arrival event fires, so the ready set
grows mid-run and the result carries per-app response-time records
(:class:`~repro.sim.results.OpenSystemResult`).  A schedule with every
arrival at cycle 0 takes the exact closed-system code path and reproduces
the batch results bit for bit.  Static plans cannot react to admissions
and are rejected in open mode.

Heterogeneous machines: when :class:`~repro.sim.config.MachineConfig`
declares per-core speed factors or cache geometries, each core simulates
its own cache and every charged duration is ceiling-scaled by the core's
speed.  Homogeneous configs (the default) execute the identical integer
arithmetic as before.

Modelling notes (documented substitutions for Simics):

- Caches are tag-only, true-LRU, write-allocate; dirty write-backs are
  counted and optionally charged (`MachineConfig.charge_writebacks`).
- No coherence traffic is modelled: the workloads are read-shared /
  privately-written (as in the paper's examples), where coherence events
  are negligible relative to the conflict/reuse effects under study.
- A hit costs ``cache_hit_cycles``; a miss additionally costs
  ``memory_latency_cycles``; each iteration charges its fragment's
  compute cycles.
- Off-chip contention (``MachineConfig.contention``): after a segment's
  ordinary cost is settled — including heterogeneity scaling — the
  machine's contention model is charged once on the segment's aggregate
  off-chip transfers (misses plus dirty write-backs) and its undelayed
  wall duration, and the returned stall extends the segment.  The stall
  is a pure function of those per-segment aggregates, so the scalar and
  quantum-batched paths charge bit-identical delays and hit/miss counts
  are never perturbed (see :mod:`repro.sim.contention`).  The default
  ``none`` model skips the branch entirely.
"""

from __future__ import annotations

import bisect
from collections import deque
from types import MappingProxyType
from typing import Sequence

from repro.cache import native
from repro.cache.memo import execute_trace, fast_cache_enabled, trace_memo_enabled
from repro.cache.miss_classifier import MissClassifier
from repro.cache.native import KernelState
from repro.cache.sa_cache import SetAssociativeCache
from repro.errors import InfeasibleScheduleError, SchedulingError
from repro.errors import SimulationError, ValidationError
from repro.procgraph.graph import ProcessGraph
from repro.sched.base import PlanMode, Scheduler, SchedulerPlan, default_layout
from repro.sim.arrivals import ArrivalSchedule
from repro.sim.config import MachineConfig
from repro.sim.contention import contention_model_for
from repro.sim.engine import EventQueue
from repro.sim.qplan import MIN_BATCH_WINDOW, compile_quantum_plan
from repro.sim.qplan import estimate_quantum_accesses, make_way_table
from repro.sim.qplan import quantum_batch_enabled, run_plan_quantum
from repro.sim.results import CoreRecord, OpenSystemResult, ProcessRecord
from repro.sim.results import SimulationResult
from repro.sim.trace import ProcessTrace, build_trace

#: Event kinds: an app's process set is released, or a segment ended
#: with its process unfinished or finished.
_ARRIVE, _PREEMPT, _DONE = "arrive", "preempt", "done"


class MPSoCSimulator:
    """Simulates one machine configuration; reusable across runs."""

    def __init__(self, config: MachineConfig | None = None) -> None:
        self._config = config if config is not None else MachineConfig.paper_default()
        if not isinstance(self._config, MachineConfig):
            raise ValidationError(f"expected MachineConfig, got {config!r}")

    @property
    def config(self) -> MachineConfig:
        """The simulated machine."""
        return self._config

    # -- public entry points -----------------------------------------------------

    def run(
        self,
        epg: ProcessGraph,
        scheduler: Scheduler,
        layout=None,
        validate: bool = True,
    ) -> SimulationResult:
        """Prepare the scheduler's plan and execute it."""
        plan = self._prepare(epg, scheduler, layout)
        return self.run_plan(epg, plan, validate=validate)

    def run_plan(
        self, epg: ProcessGraph, plan: SchedulerPlan, validate: bool = True
    ) -> SimulationResult:
        """Execute an already-prepared plan."""
        result = self._simulate(epg, plan, release={})
        if validate:
            result.validate_against(epg)
        return result

    def _prepare(
        self, epg: ProcessGraph, scheduler: Scheduler, layout
    ) -> SchedulerPlan:
        if not isinstance(scheduler, Scheduler):
            raise ValidationError(f"expected a Scheduler, got {scheduler!r}")
        epg.validate_acyclic()
        base = layout if layout is not None else default_layout(epg, self._config)
        return scheduler.prepare(epg, self._config, base)

    # -- open-system entry points ----------------------------------------------------

    def run_open(
        self,
        epg: ProcessGraph,
        scheduler: Scheduler,
        schedule: ArrivalSchedule,
        layout=None,
        validate: bool = True,
    ) -> OpenSystemResult:
        """Run with dynamic admission: apps release at their arrival cycles."""
        plan = self._prepare(epg, scheduler, layout)
        return self.run_plan_open(epg, plan, schedule, validate=validate)

    def run_plan_open(
        self,
        epg: ProcessGraph,
        plan: SchedulerPlan,
        schedule: ArrivalSchedule,
        validate: bool = True,
    ) -> OpenSystemResult:
        """Execute an already-prepared plan against an arrival schedule."""
        if not isinstance(schedule, ArrivalSchedule):
            raise ValidationError(
                f"expected an ArrivalSchedule, got {schedule!r}"
            )
        release = self._release_map(epg, schedule)
        if plan.mode is PlanMode.STATIC:
            raise SimulationError(
                "static plans fix every core queue ahead of time and cannot "
                "admit mid-run arrivals; use a dynamic or shared-queue "
                "scheduler for open-system runs"
            )
        result = OpenSystemResult.from_simulation(
            self._simulate(epg, plan, release), epg, schedule, machine=self._config
        )
        if validate:
            result.validate_against(epg)
        return result

    @staticmethod
    def _release_map(epg: ProcessGraph, schedule: ArrivalSchedule) -> dict[str, int]:
        """Per-pid release cycles from the per-app arrival schedule.

        Every task in the EPG must arrive exactly once; an arriving app
        releases its *whole* process set (interior processes stay gated
        by their dependences as usual).
        """
        tasks = {process.task_name for process in epg}
        scheduled = set(schedule.apps)
        missing = tasks - scheduled
        if missing:
            raise SimulationError(
                f"no arrival scheduled for apps: {sorted(missing)}"
            )
        extra = scheduled - tasks
        if extra:
            raise SimulationError(
                f"arrival schedule names apps not in the EPG: {sorted(extra)}"
            )
        by_app = schedule.as_dict()
        return {process.pid: by_app[process.task_name] for process in epg}

    # -- the event loop ------------------------------------------------------------

    def _simulate(
        self, epg: ProcessGraph, plan: SchedulerPlan, release: dict[str, int]
    ) -> SimulationResult:
        """Run ``plan`` under its mode's policy.

        ``release`` maps pids to arrival cycles.  Empty (a closed run),
        or every arrival at cycle 0, marks everything arrived up front
        and schedules no arrival events.
        """
        geometry = self._config.geometry()
        traces = {
            process.pid: build_trace(process, plan.layout, geometry)
            for process in epg
        }
        policy = _POLICIES[plan.mode](plan, self._config, traces)
        cores = policy.cores
        events = EventQueue()
        pending = {pid: len(epg.predecessors(pid)) for pid in epg.pids}
        arrived = {pid for pid in pending if release.get(pid, 0) == 0}
        for pid, cycle in sorted(release.items()):
            if cycle > 0:
                events.push(cycle, (_ARRIVE, -1, pid))
        for pid in sorted(pid for pid in arrived if pending[pid] == 0):
            policy.admit(pid)
        idle = set(range(self._config.num_cores))
        running: dict[int, str] = {}
        cursor: dict[str, int] = {}
        records: dict[str, ProcessRecord] = {}

        def dispatch(core: int, now: int) -> None:
            pid = policy.pick(core, running, cores.executed[core])
            if pid is None:
                idle.add(core)
                return
            idle.discard(core)
            running[core] = pid
            trace = traces[pid]
            stats = cores.caches[core].stats
            before = stats.dirty_evictions
            end, cycles, hits, misses = policy.run(core, trace, cursor.get(pid, 0))
            evictions = stats.dirty_evictions - before
            duration = cores.charge(core, pid, cycles, misses, evictions)
            cursor[pid] = end
            record = records.get(pid)
            if record is None:
                records[pid] = ProcessRecord(
                    pid, now, now + duration, [core], hits, misses
                )
            else:
                record.end_cycle = now + duration
                record.cores.append(core)
                record.hits += hits
                record.misses += misses
            kind = _DONE if end >= trace.num_accesses else _PREEMPT
            events.push(now + duration, (kind, core, pid))

        def offer_idle_cores(now: int) -> None:
            for core in sorted(idle):
                dispatch(core, now)

        offer_idle_cores(0)
        makespan = 0
        finished = 0
        while events:
            now, (kind, core, pid) = events.pop()
            if kind == _ARRIVE:
                arrived.add(pid)
                if pending[pid] == 0:
                    policy.admit(pid)
            else:
                makespan = now
                del running[core]
                if kind == _PREEMPT:
                    records[pid].preemptions += 1
                    policy.admit(pid)
                else:
                    finished += 1
                    for successor in sorted(epg.successors(pid)):
                        pending[successor] -= 1
                        if pending[successor] == 0 and successor in arrived:
                            policy.admit(successor)
                if policy.freed_core_first:
                    dispatch(core, now)
                else:
                    idle.add(core)
            offer_idle_cores(now)
        if finished != len(epg):
            raise InfeasibleScheduleError(
                f"{plan.mode.value} run ended with {len(epg) - finished} of "
                f"{len(epg)} processes unfinished"
            )
        result = SimulationResult(
            scheduler_name=plan.scheduler_name,
            makespan_cycles=makespan,
            clock_hz=self._config.clock_hz,
            processes=records,
            cores=cores.records(),
        )
        result.metadata.update(plan.metadata)
        result.metadata["layout"] = plan.layout
        return result


class _Cores:
    """One run's per-core state: caches, engines, contention, tallies.

    Owns each core's cache (and miss classifier), the compiled-kernel tag
    state when the run uses it, the machine's contention model, and the
    busy/dispatch/contention tallies its :class:`CoreRecord`\\ s report.
    """

    def __init__(self, config: MachineConfig, kernel: bool) -> None:
        self.config = config
        num_cores = config.num_cores
        self.caches = [
            SetAssociativeCache(config.geometry_for(core))
            for core in range(num_cores)
        ]
        self.classifiers = (
            [MissClassifier(cache.geometry) for cache in self.caches]
            if config.classify_misses
            else None
        )
        # The compiled kernel, when asked for and loadable, holds each
        # core's tags for the whole run (the caches then only accumulate
        # statistics); it is built on the first run that asks for it.
        # Never under the scalar oracle.
        library = native.kernel() if kernel and fast_cache_enabled() else None
        self.states = (
            None
            if library is None
            else [KernelState(library, cache.geometry) for cache in self.caches]
        )
        self.contention = contention_model_for(config)
        self.busy = [0] * num_cores
        self.executed: list[list[str]] = [[] for _ in range(num_cores)]
        self.queue_delay = [0] * num_cores
        self.transfers = [0] * num_cores

    def run_whole(self, core: int, trace: ProcessTrace) -> tuple[int, int]:
        """Run a full trace on one core; ``(hits, misses)``.

        The slow per-access path runs only when classifying misses.
        """
        cache = self.caches[core]
        if self.states is not None:
            counters = self.states[core].run_trace(
                trace.kernel_trace(self.config.cache_hit_cycles)
            )
            cache.stats.add(counters)
            return counters[0], counters[1]
        if self.classifiers is None:
            if fast_cache_enabled():
                return execute_trace(
                    cache, trace.lines, trace.writes, fingerprint=trace.fingerprint()
                )
            return cache.run_trace(trace.lines, trace.writes)
        classifier = self.classifiers[core]
        hits = 0
        for line, is_write in zip(trace.lines.tolist(), trace.writes.tolist()):
            hit = cache.access_line(line, is_write)
            classifier.observe(line, hit)
            hits += hit
        return hits, trace.num_accesses - hits

    def charge(
        self, core: int, pid: str, cycles: int, misses: int, evictions: int
    ) -> int:
        """Settle one segment of ``pid`` on ``core``; its wall duration.

        ``cycles`` is the segment's access and compute cost.  Charged
        write-backs and the context switch are added, the sum is scaled
        by the core's speed, and the contention model's stall extends it.
        """
        config = self.config
        if config.charge_writebacks:
            cycles += evictions * config.memory_latency_cycles
        cycles = config.scaled_cycles(core, cycles + config.context_switch_cycles)
        if self.contention is not None:
            transfers = misses + evictions
            stall = self.contention.delay_cycles(core, transfers, cycles)
            cycles += stall
            self.queue_delay[core] += stall
            self.transfers[core] += transfers
        self.busy[core] += cycles
        self.executed[core].append(pid)
        return cycles

    def records(self) -> list[CoreRecord]:
        """One :class:`CoreRecord` per core."""
        classifiers = self.classifiers
        return [
            CoreRecord(
                core_id=core,
                busy_cycles=self.busy[core],
                executed_pids=self.executed[core],
                cache=cache.stats,
                classified=classifiers[core].counts if classifiers else None,
                queue_delay_cycles=self.queue_delay[core],
                bus_transfers=self.transfers[core],
            )
            for core, cache in enumerate(self.caches)
        ]


# -- dispatch policies ----------------------------------------------------------------


class _WholeTraces:
    """Non-preemptive dispatch: every segment runs a whole trace.

    Miss classification must see every access, so it keeps the run off
    the compiled kernel.  A freed core rejoins the idle set.
    """

    freed_core_first = False

    def __init__(self, config: MachineConfig) -> None:
        self.cores = _Cores(config, kernel=not config.classify_misses)

    def run(
        self, core: int, trace: ProcessTrace, cursor: int
    ) -> tuple[int, int, int, int]:
        """``(next cursor, cycles, hits, misses)`` of the whole trace."""
        hits, misses = self.cores.run_whole(core, trace)
        config = self.cores.config
        cycles = trace.cost_cycles(
            hits, misses, config.cache_hit_cycles, config.miss_cycles
        )
        return trace.num_accesses, cycles, hits, misses


class _StaticPolicy(_WholeTraces):
    """Fixed per-core queues: a core takes its queue head once it is ready."""

    def __init__(
        self, plan: SchedulerPlan, config: MachineConfig, traces: dict
    ) -> None:
        queues = plan.core_queues
        if len(queues) != config.num_cores:
            raise SchedulingError(
                f"plan has {len(queues)} queues but machine has "
                f"{config.num_cores} cores"
            )
        if sorted(pid for queue in queues for pid in queue) != sorted(traces):
            raise SchedulingError(
                "static plan must place every process exactly once"
            )
        super().__init__(config)
        self._queues = [deque(queue) for queue in queues]
        self._ready: set[str] = set()

    def admit(self, pid: str) -> None:
        self._ready.add(pid)

    def pick(
        self, core: int, running: dict[int, str], history: Sequence[str]
    ) -> str | None:
        queue = self._queues[core]
        return queue.popleft() if queue and queue[0] in self._ready else None


class _DynamicPolicy(_WholeTraces):
    """The plan's picker chooses among the ready processes."""

    def __init__(
        self, plan: SchedulerPlan, config: MachineConfig, traces: dict
    ) -> None:
        super().__init__(config)
        self._picker = plan.picker
        self._ready: list[str] = []  # sorted: pickers see a fixed order

    def admit(self, pid: str) -> None:
        bisect.insort(self._ready, pid)

    def pick(
        self, core: int, running: dict[int, str], history: Sequence[str]
    ) -> str | None:
        # One picker call per dispatch, never on an empty ready set, so a
        # seeded picker (RS) draws its stream in a fixed order.
        ready = self._ready
        if not ready:
            return None
        last_pid = history[-1] if history else None
        co_running = tuple(running[c] for c in sorted(running))
        pid = self._picker(core, tuple(ready), last_pid, co_running)
        if pid not in ready:
            raise SchedulingError(
                f"picker returned {pid!r}, not in the ready set"
            )
        ready.remove(pid)
        return pid


class _SharedQueuePolicy:
    """One FIFO ready queue with quantum preemption (RRS).

    The core a segment freed takes the queue head before idle cores do.
    """

    freed_core_first = True

    def __init__(
        self, plan: SchedulerPlan, config: MachineConfig, traces: dict
    ) -> None:
        if config.classify_misses:
            raise SimulationError(
                "miss classification is not supported in shared-queue mode; "
                "use a static or dynamic plan"
            )
        # The compiled kernel, when it loads, holds every core's tags for
        # the whole run and executes each quantum in one call; quantum
        # batching off keeps RRS on the scalar loop.
        self.cores = cores = _Cores(config, kernel=quantum_batch_enabled())
        self._queue: deque[str] = deque()
        self._hit_cost = config.cache_hit_cycles
        self._miss_extra = config.memory_latency_cycles
        num_cores = config.num_cores
        # Work budget per quantum, in Table-2-core work cycles: a core at
        # speed s retires s cycles of work per wall cycle.
        self._budgets = [
            max(1, int(plan.quantum_cycles * config.speed_for(core)))
            for core in range(num_cores)
        ]
        # Per-core set masks (heterogeneous caches may differ in size or
        # associativity); ``budget_rows`` memoizes per mask, so the
        # homogeneous machine still converts each trace exactly once.
        self._set_masks = [cache.geometry.num_sets - 1 for cache in cores.caches]
        # A batched core runs every quantum through run_plan_quantum on
        # its tag table: the kernel state, or without the kernel a
        # compiled quantum plan (repro.sim.qplan) on a vectorized way
        # table (associativity ≤ 2, the paper machine) or, table None,
        # the scalar cache's per-set lists in place.  All are
        # bit-identical and gated on the fast engine, so
        # REPRO_FAST_CACHE=0 remains a pure scalar oracle mode.  Compiled
        # plans pay off only when quanta span enough accesses to amortize
        # their per-quantum vector setup, so each core opts in by its
        # expected window (budget over the run's mean per-access cost); a
        # core either batches every dispatch or none, keeping its tag
        # state in one backend.
        self._batch = [cores.states is not None] * num_cores
        self._tables: list = cores.states or [None] * num_cores
        if (
            cores.states is None
            and quantum_batch_enabled()
            and fast_cache_enabled()
            and trace_memo_enabled()
        ):
            estimates: dict[tuple, float] = {}
            for core, cache in enumerate(cores.caches):
                geometry = cache.geometry
                key = (geometry.num_sets, geometry.associativity, self._budgets[core])
                if key not in estimates:
                    estimates[key] = estimate_quantum_accesses(
                        traces.values(),
                        geometry.num_sets,
                        geometry.associativity,
                        self._hit_cost,
                        self._miss_extra,
                        self._budgets[core],
                    )
                if estimates[key] >= MIN_BATCH_WINDOW:
                    self._batch[core] = True
                    self._tables[core] = make_way_table(geometry)

    def admit(self, pid: str) -> None:
        self._queue.append(pid)

    def pick(
        self, core: int, running: dict[int, str], history: Sequence[str]
    ) -> str | None:
        return self._queue.popleft() if self._queue else None

    def run(
        self, core: int, trace: ProcessTrace, cursor: int
    ) -> tuple[int, int, int, int]:
        """One quantum from ``cursor``: ``(next cursor, cycles, hits, misses)``."""
        cache = self.cores.caches[core]
        if not self._batch[core]:
            return cache.run_budget_rows(
                trace.budget_rows(self._set_masks[core], self._hit_cost),
                cursor,
                self._miss_extra,
                self._budgets[core],
            )
        if self.cores.states is not None:
            plan = trace.kernel_trace(self._hit_cost)
        else:
            geometry = cache.geometry
            plan = compile_quantum_plan(
                trace, geometry.num_sets, geometry.associativity, self._hit_cost
            )
        return run_plan_quantum(
            cache,
            plan,
            cursor,
            self._miss_extra,
            self._budgets[core],
            self._tables[core],
        )


_POLICIES = MappingProxyType(
    {
        PlanMode.STATIC: _StaticPolicy,
        PlanMode.DYNAMIC: _DynamicPolicy,
        PlanMode.SHARED_QUEUE: _SharedQueuePolicy,
    }
)
