"""Fast-engine-vs-scalar equivalence for the quantum executor and policies.

:func:`repro.sim.qplan.run_plan_quantum` must be bit-identical to the
scalar ``run_budget_rows`` walk — same stop index, same cycle
accounting, same per-access verdicts, same end tag state, same
dirty-eviction statistics — on every backend: the compiled LRU kernel
(:mod:`repro.cache.native`), and without it the compiled plans' way
tables (associativity ≤ 2) and per-set lists (above).  The simulator
classes run the full event loop on the scalar oracle and on each fast
engine (the ``fast_engine`` fixture: the kernel, and the loader forced
to "no kernel"): shared-queue runs in closed and open modes, and the
static and dynamic policies under every non-preemptive scheduler.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro.sim.simulator as simulator_module
from repro.api.registries import SCHEDULERS
from repro.cache import native
from repro.cache.fast_engine import CacheState
from repro.cache.geometry import CacheGeometry
from repro.cache.memo import set_fast_cache
from repro.cache.native import KernelState
from repro.cache.sa_cache import SetAssociativeCache
from repro.errors import ValidationError
from repro.procgraph.graph import ExtendedProcessGraph
from repro.sched.round_robin import RoundRobinScheduler
from repro.sim.arrivals import AppArrival, ArrivalSchedule
from repro.sim.config import MachineConfig
from repro.sim.qplan import (
    QuantumPlan,
    compile_quantum_plan,
    make_way_table,
    run_plan_quantum,
    set_quantum_batch,
)
from repro.sim.simulator import MPSoCSimulator
from repro.sim.trace import ProcessTrace

from conftest import make_two_phase_task


def _geometry(num_sets: int, assoc: int) -> CacheGeometry:
    return CacheGeometry(num_sets * assoc * 32, assoc, 32)


def _random_trace(rng, pid: str, length: int, line_span: int) -> ProcessTrace:
    lines = rng.integers(0, line_span, size=length).astype(np.int64)
    writes = rng.random(length) < 0.3
    extra = rng.integers(0, 6, size=length).astype(np.int64)
    return ProcessTrace(pid=pid, lines=lines, writes=writes, extra_cycles=extra)


def _table_state(table, num_sets: int) -> CacheState:
    sets = []
    dirty = set()
    for s in range(num_sets):
        ways = []
        line = int(table.w0[s])
        if line >= 0:
            ways.append(line)
            if table.d0[s]:
                dirty.add(line)
            if table.assoc == 2:
                second = int(table.w1[s])
                if second >= 0:
                    ways.append(second)
                    if table.d1[s]:
                        dirty.add(second)
        sets.append(tuple(ways))
    return CacheState(sets=tuple(sets), dirty=frozenset(dirty))


def _scalar_rows(plan: QuantumPlan) -> list:
    return list(
        zip(
            plan.sets.tolist(),
            plan.lines.tolist(),
            plan.writes.tolist(),
            plan.base.tolist(),
        )
    )


class TestQuantumExecutorEquivalence:
    """Randomized interleaved quanta against the scalar oracle.

    Each seed builds a few traces and replays a full interleaving of
    budgeted quanta through the batched executor and the scalar loop in
    lock-step, comparing results, statistics, and the complete tag
    state after every quantum.  Across the seed grid this checks well
    over 500 independently seeded quantum executions per backend.
    """

    @pytest.mark.parametrize("assoc", [1, 2, 4])
    @pytest.mark.parametrize("seed", range(12))
    def test_interleaved_quanta_match_scalar(self, assoc, seed):
        rng = np.random.default_rng(1000 * assoc + seed)
        num_sets = int(rng.choice([8, 16, 32]))
        geometry = _geometry(num_sets, assoc)
        hit_cost = int(rng.integers(1, 4))
        miss_extra = int(rng.integers(5, 80))
        traces = [
            _random_trace(
                rng,
                f"p{k}",
                int(rng.integers(40, 600)),
                num_sets * assoc * int(rng.integers(1, 4)),
            )
            for k in range(int(rng.integers(2, 5)))
        ]
        plans = [
            compile_quantum_plan(t, num_sets, assoc, hit_cost) for t in traces
        ]
        rows = [_scalar_rows(p) for p in plans]
        cursors = [0] * len(traces)

        batch_cache = SetAssociativeCache(geometry)
        table = make_way_table(geometry)
        scalar_cache = SetAssociativeCache(geometry)

        executed = 0
        while any(c < t.num_accesses for c, t in zip(cursors, traces)):
            k = int(rng.integers(0, len(traces)))
            if cursors[k] >= traces[k].num_accesses:
                continue
            budget = int(rng.integers(20, 2000))
            got = run_plan_quantum(
                batch_cache, plans[k], cursors[k], miss_extra, budget, table
            )
            want = scalar_cache.run_budget_rows(
                rows[k], cursors[k], miss_extra, budget
            )
            assert got == want
            if table is not None:
                state = _table_state(table, num_sets)
            else:
                state = batch_cache.export_state()
            assert state == scalar_cache.export_state()
            assert batch_cache.stats == scalar_cache.stats
            cursors[k] = got[0]
            executed += 1
        assert executed > 0

    @pytest.mark.parametrize("assoc", [1, 2, 4, 8])
    @pytest.mark.parametrize("seed", range(6))
    def test_kernel_quanta_match_scalar(self, assoc, seed):
        """The same interleavings, run through ``run_plan_quantum`` on a
        kernel plan and the core's kernel state."""
        library = native.kernel()
        if library is None:
            pytest.skip("no C compiler: the compiled kernel is unavailable")
        rng = np.random.default_rng(5000 + 100 * assoc + seed)
        num_sets = int(rng.choice([8, 16, 32]))
        geometry = _geometry(num_sets, assoc)
        hit_cost = int(rng.integers(1, 4))
        miss_extra = int(rng.integers(5, 80))
        traces = [
            _random_trace(
                rng,
                f"p{k}",
                int(rng.integers(40, 600)),
                num_sets * assoc * int(rng.integers(1, 4)),
            )
            for k in range(int(rng.integers(2, 5)))
        ]
        rows = [t.budget_rows(num_sets - 1, hit_cost) for t in traces]
        cursors = [0] * len(traces)
        kernel_cache = SetAssociativeCache(geometry)
        state = KernelState(library, geometry)
        scalar_cache = SetAssociativeCache(geometry)
        while any(c < t.num_accesses for c, t in zip(cursors, traces)):
            k = int(rng.integers(0, len(traces)))
            if cursors[k] >= traces[k].num_accesses:
                continue
            budget = int(rng.integers(20, 2000))
            got = run_plan_quantum(
                kernel_cache,
                traces[k].kernel_trace(hit_cost),
                cursors[k],
                miss_extra,
                budget,
                state,
            )
            want = scalar_cache.run_budget_rows(
                rows[k], cursors[k], miss_extra, budget
            )
            assert got == want
            assert state.export_state() == scalar_cache.export_state()
            assert kernel_cache.stats == scalar_cache.stats
            cursors[k] = got[0]

    def test_plan_and_state_kinds_must_match(self):
        library = native.kernel()
        if library is None:
            pytest.skip("no C compiler: the compiled kernel is unavailable")
        rng = np.random.default_rng(9)
        geometry = _geometry(16, 2)
        trace = _random_trace(rng, "p", 64, 64)
        cache = SetAssociativeCache(geometry)
        with pytest.raises(ValidationError):
            run_plan_quantum(cache, trace.kernel_trace(2), 0, 75, 100)
        with pytest.raises(ValidationError):
            run_plan_quantum(
                cache,
                compile_quantum_plan(trace, 16, 2, 2),
                0,
                75,
                100,
                KernelState(library, geometry),
            )

    def test_finished_trace_is_a_no_op(self):
        rng = np.random.default_rng(7)
        geometry = _geometry(16, 2)
        trace = _random_trace(rng, "p", 64, 64)
        plan = compile_quantum_plan(trace, 16, 2, 2)
        cache = SetAssociativeCache(geometry)
        table = make_way_table(geometry)
        assert run_plan_quantum(cache, plan, 64, 75, 100, table) == (64, 0, 0, 0)

    def test_empty_trace(self):
        plan = compile_quantum_plan(
            ProcessTrace(
                pid="e",
                lines=np.empty(0, dtype=np.int64),
                writes=np.empty(0, dtype=bool),
                extra_cycles=np.empty(0, dtype=np.int64),
            ),
            16,
            2,
            2,
        )
        cache = SetAssociativeCache(_geometry(16, 2))
        assert run_plan_quantum(cache, plan, 0, 75, 100) == (0, 0, 0, 0)

    def test_bad_start_and_budget_rejected(self):
        rng = np.random.default_rng(3)
        trace = _random_trace(rng, "p", 32, 32)
        plan = compile_quantum_plan(trace, 16, 2, 2)
        cache = SetAssociativeCache(_geometry(16, 2))
        with pytest.raises(ValidationError):
            run_plan_quantum(cache, plan, -1, 75, 100)
        with pytest.raises(ValidationError):
            run_plan_quantum(cache, plan, 0, 75, 0)


def _canon(result):
    return (
        result.makespan_cycles,
        {
            pid: (
                rec.start_cycle,
                rec.end_cycle,
                tuple(rec.cores),
                rec.hits,
                rec.misses,
                rec.preemptions,
            )
            for pid, rec in result.processes.items()
        },
        [
            (
                core.core_id,
                core.busy_cycles,
                tuple(core.executed_pids),
                core.queue_delay_cycles,
                core.bus_transfers,
                core.cache.hits,
                core.cache.misses,
                core.cache.write_hits,
                core.cache.write_misses,
                core.cache.dirty_evictions,
            )
            for core in result.cores
        ],
    )


def _epg(seed: int) -> ExtendedProcessGraph:
    rng = np.random.default_rng(seed)
    tasks = [
        make_two_phase_task(
            f"T{k}",
            rows=int(rng.integers(4, 10)),
            cols=int(rng.integers(8, 24)),
            pieces=int(rng.integers(2, 5)),
        )
        for k in range(int(rng.integers(1, 4)))
    ]
    return ExtendedProcessGraph.from_tasks(tasks)


def _fast_and_scalar(run):
    """``run()`` on the fast engines, then on the pure scalar oracle."""
    set_quantum_batch(True)
    fast = run()
    set_quantum_batch(False)
    previous = set_fast_cache(False)
    try:
        scalar = run()
    finally:
        set_fast_cache(previous)
        set_quantum_batch(True)
    return fast, scalar


#: A two-core machine whose cores differ in speed and cache geometry.
HETEROGENEOUS = MachineConfig(
    num_cores=2,
    cache_size_bytes=1024,
    cache_associativity=2,
    cache_line_size=32,
    quantum_cycles=500,
    context_switch_cycles=10,
    core_speeds=(1.0, 0.5),
    core_cache_sizes=(1024, 2048),
    core_cache_assocs=(2, 4),
)


class TestSharedQueueDriverEquivalence:
    """Full RRS runs, fast engine vs scalar, closed and open modes."""

    @pytest.mark.parametrize("seed", range(8))
    def test_closed_runs_match(self, fast_engine, seed, small_machine):
        epg = _epg(seed)
        simulator = MPSoCSimulator(small_machine)
        fast, scalar = _fast_and_scalar(
            lambda: simulator.run(epg, RoundRobinScheduler())
        )
        assert _canon(fast) == _canon(scalar)

    @pytest.mark.parametrize("seed", range(4))
    def test_open_runs_match(self, fast_engine, seed, small_machine):
        epg = _epg(seed + 100)
        rng = np.random.default_rng(seed)
        schedule = ArrivalSchedule(
            tuple(
                AppArrival(task, int(rng.integers(0, 40_000)))
                for task in epg.task_names
            )
        )
        simulator = MPSoCSimulator(small_machine)
        fast, scalar = _fast_and_scalar(
            lambda: simulator.run_open(epg, RoundRobinScheduler(), schedule)
        )
        assert _canon(fast) == _canon(scalar)

    def test_charge_writebacks_match(self, fast_engine, small_machine):
        from dataclasses import replace

        machine = replace(small_machine, charge_writebacks=True)
        epg = _epg(42)
        simulator = MPSoCSimulator(machine)
        fast, scalar = _fast_and_scalar(
            lambda: simulator.run(epg, RoundRobinScheduler())
        )
        assert _canon(fast) == _canon(scalar)

    def test_heterogeneous_machine_matches(self, fast_engine):
        epg = _epg(7)
        simulator = MPSoCSimulator(HETEROGENEOUS)
        fast, scalar = _fast_and_scalar(
            lambda: simulator.run(epg, RoundRobinScheduler())
        )
        assert _canon(fast) == _canon(scalar)

    @pytest.mark.parametrize("seed", range(3))
    def test_every_registered_contention_model_matches(
        self, fast_engine, seed, small_machine
    ):
        """Fast-vs-scalar equality must hold for every model in the
        CONTENTION registry at its default parameters — a plugin that
        breaks the oracle fails here, not in production.
        """
        from repro.api.registries import list_contentions

        epg = _epg(seed + 500)
        for name, _, _ in list_contentions():
            simulator = MPSoCSimulator(
                small_machine.with_overrides(contention=name)
            )
            fast, scalar = _fast_and_scalar(
                lambda: simulator.run(epg, RoundRobinScheduler())
            )
            assert _canon(fast) == _canon(scalar), name

    def test_default_paper_machine_stays_scalar(self, monkeypatch):
        """Without the kernel, the Table-2 8k quantum sits below the
        batching crossover, so the adaptive driver keeps the scalar loop
        (no way tables built).

        Pinned on the no-kernel path and the cold estimate (no memoized
        analyses): with real miss rates available the heuristic may
        legitimately differ.
        """
        from repro.cache.memo import TRACE_MEMO
        from repro.campaign.spec import build_campaign_workload

        monkeypatch.setattr(native, "kernel", lambda: None)
        TRACE_MEMO.clear()
        epg = build_campaign_workload("MxM", scale=0.25, seed=0)
        captured = []
        original = simulator_module.make_way_table

        def spy(geometry):
            captured.append(geometry)
            return original(geometry)

        simulator_module.make_way_table = spy
        try:
            MPSoCSimulator().run(epg, RoundRobinScheduler())
        finally:
            simulator_module.make_way_table = original
        assert captured == []


#: Every registered scheduler whose plans run whole traces: LS-static
#: takes the static driver, the rest the dynamic one.
WHOLE_TRACE_SCHEDULERS = ("LS-static", "LS", "LSM", "RS", "ETF", "WS", "LA")


class TestWholeTraceDriverEquivalence:
    """Static and dynamic runs, fast engine vs scalar."""

    @pytest.mark.parametrize("name", WHOLE_TRACE_SCHEDULERS)
    @pytest.mark.parametrize("seed", range(3))
    def test_closed_runs_match(self, fast_engine, name, seed, small_machine):
        epg = _epg(seed + 200)
        simulator = MPSoCSimulator(small_machine)
        fast, scalar = _fast_and_scalar(
            lambda: simulator.run(epg, SCHEDULERS.get(name)(seed))
        )
        assert _canon(fast) == _canon(scalar)

    @pytest.mark.parametrize("name", WHOLE_TRACE_SCHEDULERS)
    def test_heterogeneous_machine_matches(self, fast_engine, name):
        epg = _epg(17)
        simulator = MPSoCSimulator(HETEROGENEOUS.with_overrides(charge_writebacks=True))
        fast, scalar = _fast_and_scalar(
            lambda: simulator.run(epg, SCHEDULERS.get(name)(0))
        )
        assert _canon(fast) == _canon(scalar)

    @pytest.mark.parametrize("name", ("RS", "WS", "LA"))
    def test_open_runs_match(self, fast_engine, name, small_machine):
        epg = _epg(300)
        rng = np.random.default_rng(3)
        schedule = ArrivalSchedule(
            tuple(
                AppArrival(task, int(rng.integers(0, 40_000)))
                for task in epg.task_names
            )
        )
        simulator = MPSoCSimulator(small_machine.with_overrides(contention="bus"))
        fast, scalar = _fast_and_scalar(
            lambda: simulator.run_open(epg, SCHEDULERS.get(name)(1), schedule)
        )
        assert _canon(fast) == _canon(scalar)


def test_kernel_runs_every_trace_and_quantum(monkeypatch, small_machine):
    """With the kernel loaded, no driver touches the Python engines:
    no trace analysis, no compiled plan, no scalar budget loop."""
    if native.kernel() is None:
        pytest.skip("no C compiler: the compiled kernel is unavailable")

    def boom(*args, **kwargs):
        raise AssertionError("a Python cache engine ran beside the kernel")

    monkeypatch.setattr(simulator_module, "execute_trace", boom)
    monkeypatch.setattr(simulator_module, "compile_quantum_plan", boom)
    monkeypatch.setattr(SetAssociativeCache, "run_budget_rows", boom)
    epg = _epg(11)
    simulator = MPSoCSimulator(small_machine)
    previous = set_quantum_batch(True)
    try:
        for name in ("LS-static", "LS", "RRS"):
            simulator.run(epg, SCHEDULERS.get(name)(0))
    finally:
        set_quantum_batch(previous)
