"""The contention oracle harness — property tests over seeded scenarios.

Five invariants gate the contention axis (see the module docstring of
:mod:`repro.sim.contention` for why they hold by construction):

1. **Null identity** — a machine selecting the ``none`` model produces
   results bit-identical to the default machine, on every driver
   (static, dynamic, shared-queue), in closed and open mode, and on
   heterogeneous machines.  Degenerate parameterizations (a NoC with
   ``hop_cycles=0``, a bus with an effectively infinite budget) match
   the null run's schedule exactly and charge zero queueing delay.
2. **Batched-vs-scalar equality** — the quantum-batched executor and
   the scalar walk charge bit-identical delays under every registered
   model.
3. **Monotonicity** — on a fixed (static or single-core) schedule,
   more bus bandwidth never slows anything down.
4. **Conservation** — contention delays events; it never changes what
   the caches do.  Per-process access totals are invariant on every
   driver, and on order-stable schedules the full hit/miss/write-back
   breakdown matches the null run.
5. **Determinism** — contended campaigns produce identical results
   inline, across process pools, and through a store resume.

Counting both the simulator-level seed grids and the bulk pure-function
sweeps at the bottom, the file checks well over 500 independently
seeded scenarios.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.cache.memo import set_fast_cache
from repro.sched.locality import StaticLocalityScheduler
from repro.sched.random_sched import RandomScheduler
from repro.sched.round_robin import RoundRobinScheduler
from repro.sim.arrivals import AppArrival, ArrivalSchedule
from repro.sim.config import MachineConfig
from repro.sim.contention import BusContention, NocContention
from repro.sim.simulator import MPSoCSimulator

from test_quantum_batch import _epg

#: A budget so large the per-core share always covers a segment's need.
HUGE_BUDGET = 1 << 40

#: Contended machines the driver grids sweep: the two builtin models at
#: a stressed and a mild parameterization each.
CONTENTION_OVERRIDES = [
    ("bus", (("lines_per_quantum", 2),)),
    ("bus", (("lines_per_quantum", 64),)),
    ("noc", (("hop_cycles", 9), ("cluster_size", 1))),
    ("noc", (("hop_cycles", 2), ("cluster_size", 2))),
]

SCHEDULERS = {
    "static": StaticLocalityScheduler,
    "dynamic": RandomScheduler,
    "shared-queue": RoundRobinScheduler,
}


def _canon(result):
    """Full comparable form, including the contention telemetry."""
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


def _schedule_canon(result):
    """Comparable form *minus* the contention telemetry.

    A bus with an infinite budget still counts transfers, so comparing
    against the null run must ignore the telemetry fields while pinning
    every timing and cache number.
    """
    makespan, processes, cores = _canon(result)
    return (
        makespan,
        processes,
        [row[:3] + row[5:] for row in cores],
    )


def _pid_access_totals(result):
    return {
        pid: rec.hits + rec.misses for pid, rec in result.processes.items()
    }


def _cache_totals(result):
    total = result.total_cache
    return (total.hits, total.misses, total.dirty_evictions)


def _machine(base: MachineConfig, name: str, params) -> MachineConfig:
    return base.with_overrides(contention=name, contention_params=params)


class TestNullIdentity:
    """Invariant 1: the ``none`` model is invisible, bit for bit."""

    @pytest.mark.parametrize("driver", sorted(SCHEDULERS))
    @pytest.mark.parametrize("seed", range(5))
    def test_explicit_none_matches_default(self, driver, seed, small_machine):
        epg = _epg(seed)
        scheduler = SCHEDULERS[driver]()
        baseline = MPSoCSimulator(small_machine).run(epg, scheduler)
        explicit = MPSoCSimulator(
            small_machine.with_overrides(contention="none")
        ).run(epg, scheduler)
        assert _canon(explicit) == _canon(baseline)

    @pytest.mark.parametrize("seed", range(3))
    def test_open_mode_matches_default(self, seed, small_machine):
        epg = _epg(seed + 300)
        rng = np.random.default_rng(seed)
        schedule = ArrivalSchedule(
            tuple(
                AppArrival(task, int(rng.integers(0, 30_000)))
                for task in epg.task_names
            )
        )
        baseline = MPSoCSimulator(small_machine).run_open(
            epg, RoundRobinScheduler(), schedule
        )
        explicit = MPSoCSimulator(
            small_machine.with_overrides(contention="none")
        ).run_open(epg, RoundRobinScheduler(), schedule)
        assert _canon(explicit) == _canon(baseline)

    def test_heterogeneous_machine_matches_default(self):
        machine = MachineConfig(
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
        epg = _epg(11)
        baseline = MPSoCSimulator(machine).run(epg, RoundRobinScheduler())
        explicit = MPSoCSimulator(
            machine.with_overrides(contention="none")
        ).run(epg, RoundRobinScheduler())
        assert _canon(explicit) == _canon(baseline)

    @pytest.mark.parametrize("driver", sorted(SCHEDULERS))
    @pytest.mark.parametrize("seed", range(4))
    def test_degenerate_models_match_none(self, driver, seed, small_machine):
        """hop_cycles=0 and an infinite bus budget reproduce ``none``."""
        epg = _epg(seed + 600)
        scheduler = SCHEDULERS[driver]()
        baseline = MPSoCSimulator(small_machine).run(epg, scheduler)
        for name, params in (
            ("noc", (("hop_cycles", 0),)),
            ("bus", (("lines_per_quantum", HUGE_BUDGET),)),
        ):
            contended = MPSoCSimulator(
                _machine(small_machine, name, params)
            ).run(epg, scheduler)
            assert _schedule_canon(contended) == _schedule_canon(baseline)
            assert contended.total_queue_delay_cycles == 0


class TestBatchedScalarEquality:
    """Invariant 2: the fast (kernel or quantum-batched) and scalar paths
    charge alike."""

    @pytest.mark.parametrize("name,params", CONTENTION_OVERRIDES)
    @pytest.mark.parametrize("seed", range(4))
    def test_closed_runs_match(
        self, fast_engine, seed, name, params, small_machine
    ):
        epg = _epg(seed + 40)
        simulator = MPSoCSimulator(_machine(small_machine, name, params))
        previous = set_fast_cache(True)
        try:
            batched = simulator.run(epg, RoundRobinScheduler())
            set_fast_cache(False)
            scalar = simulator.run(epg, RoundRobinScheduler())
        finally:
            set_fast_cache(previous)
        assert _canon(batched) == _canon(scalar)

    @pytest.mark.parametrize("name,params", CONTENTION_OVERRIDES[:2])
    @pytest.mark.parametrize("seed", range(2))
    def test_open_runs_match(
        self, fast_engine, seed, name, params, small_machine
    ):
        epg = _epg(seed + 140)
        rng = np.random.default_rng(seed)
        schedule = ArrivalSchedule(
            tuple(
                AppArrival(task, int(rng.integers(0, 40_000)))
                for task in epg.task_names
            )
        )
        simulator = MPSoCSimulator(_machine(small_machine, name, params))
        previous = set_fast_cache(True)
        try:
            batched = simulator.run_open(epg, RoundRobinScheduler(), schedule)
            set_fast_cache(False)
            scalar = simulator.run_open(epg, RoundRobinScheduler(), schedule)
        finally:
            set_fast_cache(previous)
        assert _canon(batched) == _canon(scalar)


class TestMonotonicity:
    """Invariant 3: more bandwidth never hurts (on a fixed schedule)."""

    BUDGETS = (1, 2, 4, 8, 32, 128, 1024, HUGE_BUDGET)

    @pytest.mark.parametrize("seed", range(6))
    def test_static_makespan_nonincreasing_in_budget(self, seed, small_machine):
        epg = _epg(seed + 900)
        makespans = []
        for budget in self.BUDGETS:
            machine = _machine(
                small_machine, "bus", (("lines_per_quantum", budget),)
            )
            result = MPSoCSimulator(machine).run(epg, StaticLocalityScheduler())
            makespans.append(result.makespan_cycles)
        assert makespans == sorted(makespans, reverse=True)

    @pytest.mark.parametrize("seed", range(4))
    def test_single_core_rrs_makespan_nonincreasing(self, seed):
        machine = MachineConfig(
            num_cores=1,
            cache_size_bytes=1024,
            cache_associativity=2,
            cache_line_size=32,
            quantum_cycles=500,
            context_switch_cycles=10,
        )
        epg = _epg(seed + 950)
        makespans = []
        for budget in self.BUDGETS:
            contended = _machine(machine, "bus", (("lines_per_quantum", budget),))
            result = MPSoCSimulator(contended).run(epg, RoundRobinScheduler())
            makespans.append(result.makespan_cycles)
        assert makespans == sorted(makespans, reverse=True)

    @pytest.mark.parametrize("seed", range(4))
    def test_contention_never_speeds_a_static_plan_up(self, seed, small_machine):
        epg = _epg(seed + 980)
        baseline = MPSoCSimulator(small_machine).run(
            epg, StaticLocalityScheduler()
        )
        for name, params in CONTENTION_OVERRIDES:
            contended = MPSoCSimulator(_machine(small_machine, name, params)).run(
                epg, StaticLocalityScheduler()
            )
            assert contended.makespan_cycles >= baseline.makespan_cycles


class TestConservation:
    """Invariant 4: contention delays events, it never changes them."""

    @pytest.mark.parametrize("driver", sorted(SCHEDULERS))
    @pytest.mark.parametrize("name,params", CONTENTION_OVERRIDES)
    @pytest.mark.parametrize("seed", range(3))
    def test_per_pid_access_totals_invariant(
        self, driver, name, params, seed, small_machine
    ):
        """Every driver: a pid touches its whole trace exactly once."""
        epg = _epg(seed + 70)
        scheduler = SCHEDULERS[driver]()
        baseline = MPSoCSimulator(small_machine).run(epg, scheduler)
        contended = MPSoCSimulator(_machine(small_machine, name, params)).run(
            epg, scheduler
        )
        assert _pid_access_totals(contended) == _pid_access_totals(baseline)

    @pytest.mark.parametrize("name,params", CONTENTION_OVERRIDES)
    @pytest.mark.parametrize("seed", range(3))
    def test_static_cache_behaviour_identical(
        self, name, params, seed, small_machine
    ):
        """Static plans fix each core's order, so counts match exactly."""
        epg = _epg(seed + 170)
        baseline = MPSoCSimulator(small_machine).run(
            epg, StaticLocalityScheduler()
        )
        contended = MPSoCSimulator(_machine(small_machine, name, params)).run(
            epg, StaticLocalityScheduler()
        )
        assert _cache_totals(contended) == _cache_totals(baseline)
        base_pids = {
            core.core_id: tuple(core.executed_pids) for core in baseline.cores
        }
        cont_pids = {
            core.core_id: tuple(core.executed_pids) for core in contended.cores
        }
        assert cont_pids == base_pids

    @pytest.mark.parametrize("seed", range(3))
    def test_single_core_rrs_cache_behaviour_identical(self, seed):
        """One shared-queue core is a FIFO: delays cannot reorder it."""
        machine = MachineConfig(
            num_cores=1,
            cache_size_bytes=1024,
            cache_associativity=2,
            cache_line_size=32,
            quantum_cycles=500,
            context_switch_cycles=10,
        )
        epg = _epg(seed + 270)
        baseline = MPSoCSimulator(machine).run(epg, RoundRobinScheduler())
        for name, params in CONTENTION_OVERRIDES:
            contended = MPSoCSimulator(_machine(machine, name, params)).run(
                epg, RoundRobinScheduler()
            )
            assert _cache_totals(contended) == _cache_totals(baseline)

    @pytest.mark.parametrize("name,params", CONTENTION_OVERRIDES)
    def test_busy_cycles_cover_the_stall(self, name, params, small_machine):
        epg = _epg(5)
        result = MPSoCSimulator(_machine(small_machine, name, params)).run(
            epg, RoundRobinScheduler()
        )
        for core in result.cores:
            assert core.queue_delay_cycles >= 0
            assert core.busy_cycles >= core.queue_delay_cycles


class TestDeterminism:
    """Invariant 5: pools, reruns, and resumes cannot change results."""

    def _spec(self):
        from repro.api.scenario import Scenario

        return (
            Scenario()
            .workload("mix:2")
            .scheduler("RS", "RRS")
            .seed(0, 1)
            .scale(0.1)
            .machine(
                "paper",
                contention="bus",
                contention_params={"lines_per_quantum": 8},
            )
            .to_campaign()
        )

    @staticmethod
    def _key(outcome):
        return sorted(
            (r.key, r.makespan_cycles, r.queue_delay_cycles, r.bus_transfers)
            for r in outcome.results
        )

    def test_rerun_and_pool_agree(self):
        from repro.api.engine import Engine
        from repro.campaign.executor import clear_cell_memo

        spec = self._spec()
        clear_cell_memo()
        inline = Engine(jobs=1).run_campaign(spec)
        clear_cell_memo()
        again = Engine(jobs=1).run_campaign(spec)
        pooled = Engine(jobs=2, policy="threads").run_campaign(spec)
        assert self._key(inline) == self._key(again) == self._key(pooled)
        assert all(r.queue_delay_cycles is not None for r in inline.results)

    def test_store_resume_round_trip(self, tmp_path):
        from repro.api.engine import Engine

        spec = self._spec()
        store = tmp_path / "results.jsonl"
        first = Engine(store=store).run_campaign(spec)
        resumed = Engine(store=store, resume=True).run_campaign(spec)
        assert self._key(first) == self._key(resumed)


class TestDelayFunctionProperties:
    """Bulk pure-function sweeps: hundreds of independently seeded cases."""

    def test_bus_properties_bulk(self):
        checked = 0
        for seed in range(25):
            rng = np.random.default_rng(1_000 + seed)
            for _ in range(40):
                cores = int(rng.integers(1, 16))
                quantum = int(rng.integers(1, 20_000))
                budgets = sorted(
                    int(b) for b in rng.integers(1, 4096, size=4)
                ) + [HUGE_BUDGET]
                transfers = int(rng.integers(0, 3000))
                wall = int(rng.integers(0, 200_000))
                core = int(rng.integers(0, cores))
                delays = [
                    BusContention(
                        num_cores=cores,
                        quantum_cycles=quantum,
                        lines_per_quantum=budget,
                    ).delay_cycles(core, transfers, wall)
                    for budget in budgets
                ]
                assert all(d >= 0 for d in delays)
                # monotone nonincreasing in the bandwidth budget
                assert delays == sorted(delays, reverse=True)
                assert delays[-1] == 0  # infinite budget charges nothing
                if transfers == 0:
                    assert delays[0] == 0
                checked += 1
        assert checked == 1000

    def test_noc_properties_bulk(self):
        checked = 0
        for seed in range(25):
            rng = np.random.default_rng(5_000 + seed)
            for _ in range(40):
                hop = int(rng.integers(0, 50))
                cluster = int(rng.integers(1, 5))
                model = NocContention(hop_cycles=hop, cluster_size=cluster)
                core = int(rng.integers(0, 64))
                transfers = int(rng.integers(0, 2000))
                wall = int(rng.integers(0, 100_000))
                delay = model.delay_cycles(core, transfers, wall)
                assert delay >= 0
                assert model.delay_cycles(core, 0, wall) == 0
                # wall duration is irrelevant to a pure hop charge
                assert model.delay_cycles(core, transfers, 0) == delay
                # linear in the transfer count
                assert model.delay_cycles(core, 2 * transfers, wall) == 2 * delay
                # farther cores (spiral order) never pay less per transfer
                if hop and transfers:
                    near = model.delay_cycles(0, transfers, wall)
                    assert delay >= near
                checked += 1
        assert checked == 1000

    def test_bus_delay_monotone_in_transfers(self):
        for seed in range(20):
            rng = np.random.default_rng(9_000 + seed)
            model = BusContention(
                num_cores=int(rng.integers(1, 9)),
                quantum_cycles=int(rng.integers(100, 10_000)),
                lines_per_quantum=int(rng.integers(1, 512)),
            )
            wall = int(rng.integers(0, 50_000))
            transfer_grid = sorted(int(t) for t in rng.integers(0, 5000, size=25))
            delays = [model.delay_cycles(0, t, wall) for t in transfer_grid]
            assert delays == sorted(delays)
