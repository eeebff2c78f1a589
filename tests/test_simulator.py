"""The event loop under its three dispatch policies: static, dynamic, shared-queue."""

from __future__ import annotations

import pytest

from repro.errors import SchedulingError, SimulationError, ValidationError
from repro.sched.base import PlanMode, Scheduler, SchedulerPlan, default_layout
from repro.sched.locality import LocalityScheduler, StaticLocalityScheduler
from repro.sched.locality_mapping import LocalityMappingScheduler
from repro.sched.random_sched import RandomScheduler
from repro.sched.round_robin import RoundRobinScheduler
from repro.sim.config import MachineConfig
from repro.sim.simulator import MPSoCSimulator


@pytest.fixture
def simulator(small_machine) -> MPSoCSimulator:
    return MPSoCSimulator(small_machine)


ALL_SCHEDULERS = [
    RandomScheduler(seed=0),
    RoundRobinScheduler(),
    LocalityScheduler(),
    StaticLocalityScheduler(),
    LocalityMappingScheduler(),
]


class TestCommonInvariants:
    @pytest.mark.parametrize("scheduler", ALL_SCHEDULERS, ids=lambda s: s.name)
    def test_every_process_runs_once_and_deps_respected(
        self, simulator, small_epg, scheduler
    ):
        result = simulator.run(small_epg, scheduler)
        result.validate_against(small_epg)  # raises on any violation

    @pytest.mark.parametrize("scheduler", ALL_SCHEDULERS, ids=lambda s: s.name)
    def test_makespan_bounds(self, simulator, small_epg, scheduler):
        result = simulator.run(small_epg, scheduler)
        total_busy = sum(c.busy_cycles for c in result.cores)
        assert result.makespan_cycles >= max(
            (r.end_cycle - r.start_cycle for r in result.processes.values()),
            default=0,
        )
        # Makespan is at least the average load and at most the serial time.
        assert result.makespan_cycles >= total_busy / len(result.cores)
        assert result.makespan_cycles <= total_busy

    @pytest.mark.parametrize("scheduler", ALL_SCHEDULERS, ids=lambda s: s.name)
    def test_deterministic_repeat(self, simulator, small_epg, scheduler):
        first = simulator.run(small_epg, scheduler)
        second = simulator.run(small_epg, scheduler)
        assert first.makespan_cycles == second.makespan_cycles
        assert first.schedule == second.schedule

    @pytest.mark.parametrize("scheduler", ALL_SCHEDULERS, ids=lambda s: s.name)
    def test_accesses_conserved(self, simulator, small_epg, scheduler):
        """Total cache accesses equal the total trace length regardless of
        scheduling (work conservation)."""
        result = simulator.run(small_epg, scheduler)
        total_trace = sum(p.trip_count * 2 for p in small_epg)  # 2 accesses/iter
        assert result.total_cache.accesses == total_trace

    def test_non_scheduler_rejected(self, simulator, small_epg):
        with pytest.raises(ValidationError):
            simulator.run(small_epg, object())  # type: ignore[arg-type]


class TestStaticDriver:
    def test_queue_count_must_match_cores(self, simulator, small_epg, small_machine):
        layout = default_layout(small_epg, small_machine)
        plan = SchedulerPlan(
            "X", PlanMode.STATIC, layout, core_queues=[list(small_epg.pids)]
        )
        with pytest.raises(SchedulingError):
            simulator.run_plan(small_epg, plan)

    def test_incomplete_placement_rejected(self, simulator, small_epg, small_machine):
        layout = default_layout(small_epg, small_machine)
        pids = list(small_epg.pids)
        plan = SchedulerPlan(
            "X", PlanMode.STATIC, layout, core_queues=[pids[:-1], []]
        )
        with pytest.raises(SchedulingError):
            simulator.run_plan(small_epg, plan)

    def test_cache_state_persists_across_processes(self, small_machine, small_epg):
        """A consumer scheduled after its producer on the same core has
        strictly fewer misses than on a fresh core."""
        layout = default_layout(small_epg, small_machine)
        producer, consumer = "T.ph0.p0", "T.ph1.p0"
        others = [p for p in small_epg.pids if p not in (producer, consumer)]
        paired = SchedulerPlan(
            "paired",
            PlanMode.STATIC,
            layout,
            core_queues=[[producer, consumer], others],
        )
        split = SchedulerPlan(
            "split",
            PlanMode.STATIC,
            layout,
            core_queues=[[producer] + others, [consumer]],
        )
        sim = MPSoCSimulator(small_machine)
        warm = sim.run_plan(small_epg, paired).processes[consumer]
        cold = sim.run_plan(small_epg, split).processes[consumer]
        assert warm.misses < cold.misses


class TestDynamicDriver:
    def test_picker_choice_validated(self, simulator, small_epg, small_machine):
        layout = default_layout(small_epg, small_machine)

        def bad_picker(core_id, ready, last_pid, running):
            return "not-a-pid"

        plan = SchedulerPlan("X", PlanMode.DYNAMIC, layout, picker=bad_picker)
        with pytest.raises(SchedulingError):
            simulator.run_plan(small_epg, plan)

    def test_different_seeds_can_differ(self, simulator, small_epg):
        results = {
            simulator.run(small_epg, RandomScheduler(seed=s)).makespan_cycles
            for s in range(6)
        }
        assert len(results) >= 1  # all valid; usually several distinct values

    def test_cores_never_idle_while_ready(self, simulator, small_epg):
        """Work conservation: with independent processes remaining, a core
        is never left idle (checked via executed counts)."""
        result = simulator.run(small_epg, RandomScheduler(seed=1))
        executed_total = sum(len(c.executed_pids) for c in result.cores)
        assert executed_total == len(small_epg)


class TestSharedQueueDriver:
    def test_preemption_happens_with_small_quantum(self, small_machine, small_epg):
        sim = MPSoCSimulator(small_machine.with_overrides(quantum_cycles=100))
        result = sim.run(small_epg, RoundRobinScheduler())
        assert any(r.preemptions > 0 for r in result.processes.values())

    def test_large_quantum_no_preemption(self, small_machine, small_epg):
        sim = MPSoCSimulator(small_machine.with_overrides(quantum_cycles=10**9))
        result = sim.run(small_epg, RoundRobinScheduler())
        assert all(r.preemptions == 0 for r in result.processes.values())

    def test_migration_recorded(self, small_machine):
        # An odd process count over 2 cores breaks the lockstep symmetry,
        # so quantum slices resume on different cores.
        from repro.procgraph.graph import ExtendedProcessGraph
        from tests.conftest import make_two_phase_task

        epg = ExtendedProcessGraph.from_tasks(
            [make_two_phase_task("T", rows=9, pieces=3)]
        )
        sim = MPSoCSimulator(small_machine.with_overrides(quantum_cycles=100))
        result = sim.run(epg, RoundRobinScheduler())
        assert any(r.migrated for r in result.processes.values())

    def test_classification_unsupported(self, small_machine, small_epg):
        sim = MPSoCSimulator(small_machine.with_overrides(classify_misses=True))
        with pytest.raises(SimulationError):
            sim.run(small_epg, RoundRobinScheduler())

    @pytest.mark.parametrize("quantum", [-5, True])
    def test_plugin_plan_with_bad_quantum_rejected(
        self, simulator, small_epg, quantum
    ):
        """A non-positive or bool quantum would clamp every quantum to a
        1-cycle budget, so the plan refuses it."""

        class BadQuantum(Scheduler):
            name = "BAD"

            def prepare(self, epg, machine, layout):
                return SchedulerPlan(
                    self.name, PlanMode.SHARED_QUEUE, layout, quantum_cycles=quantum
                )

        with pytest.raises(ValidationError, match="quantum_cycles"):
            simulator.run(small_epg, BadQuantum())

    def test_smaller_quantum_never_faster(self, small_machine, small_epg):
        """More preemption can only add context-switch and refetch cost."""
        slow = MPSoCSimulator(small_machine.with_overrides(quantum_cycles=100))
        fast = MPSoCSimulator(small_machine.with_overrides(quantum_cycles=10**9))
        time_small_quantum = slow.run(small_epg, RoundRobinScheduler()).makespan_cycles
        time_big_quantum = fast.run(small_epg, RoundRobinScheduler()).makespan_cycles
        assert time_small_quantum >= time_big_quantum


class TestMissClassificationPath:
    def test_classified_counts_match_misses(self, small_machine, small_epg):
        sim = MPSoCSimulator(small_machine.with_overrides(classify_misses=True))
        result = sim.run(small_epg, LocalityScheduler())
        for core in result.cores:
            assert core.classified is not None
            assert core.classified.total == core.cache.misses

    def test_classification_does_not_change_timing(self, small_machine, small_epg):
        plain = MPSoCSimulator(small_machine)
        classified = MPSoCSimulator(
            small_machine.with_overrides(classify_misses=True)
        )
        a = plain.run(small_epg, LocalityScheduler())
        b = classified.run(small_epg, LocalityScheduler())
        assert a.makespan_cycles == b.makespan_cycles


class TestWritebackCharging:
    def test_writeback_charging_increases_time(self, small_machine, small_epg):
        base = MPSoCSimulator(small_machine)
        charged = MPSoCSimulator(
            small_machine.with_overrides(charge_writebacks=True)
        )
        t_base = base.run(small_epg, LocalityScheduler()).makespan_cycles
        t_charged = charged.run(small_epg, LocalityScheduler()).makespan_cycles
        assert t_charged >= t_base


class TestContextSwitchCost:
    def test_context_switch_cost_charged_per_process(self, small_machine, small_epg):
        cheap = MPSoCSimulator(small_machine.with_overrides(context_switch_cycles=0))
        costly = MPSoCSimulator(
            small_machine.with_overrides(context_switch_cycles=1000)
        )
        t_cheap = cheap.run(small_epg, LocalityScheduler())
        t_costly = costly.run(small_epg, LocalityScheduler())
        # Each process pays the dispatch cost once; busy totals differ by
        # exactly processes * 1000.
        busy_cheap = sum(c.busy_cycles for c in t_cheap.cores)
        busy_costly = sum(c.busy_cycles for c in t_costly.cores)
        assert busy_costly - busy_cheap == 1000 * len(small_epg)
