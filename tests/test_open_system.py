"""Open-system simulation: equivalence, invariants, metrics, campaign axis.

The two acceptance anchors live here:

- **closed-system equivalence** — a degenerate open run (every arrival
  at t=0, homogeneous cores) reproduces the closed results byte for
  byte, per-process records included, for every driver mode;
- **heterogeneous conservation** — per-core speed/cache deltas change
  durations, never the amount of work: access totals are conserved and
  single-core scaling is exact.
"""

from __future__ import annotations

import pytest

from repro.api import Engine, Scenario
from repro.campaign.executor import clear_cell_memo, execute_run
from repro.campaign.spec import CampaignSpec, MachineVariant, RunSpec, SchedulerSpec
from repro.errors import SimulationError, ValidationError
from repro.sched import (
    GreedyEtfScheduler,
    LocalityAdmissionScheduler,
    LocalityMappingScheduler,
    LocalityScheduler,
    RandomScheduler,
    RoundRobinScheduler,
    StaticLocalityScheduler,
    WorkStealingScheduler,
)
from repro.sim import ArrivalSchedule, ArrivalSpec, MachineConfig, MPSoCSimulator
from repro.sim.results import OpenSystemResult
from repro.workloads.suite import build_arrival_stream, build_workload_mix


def process_fingerprint(result) -> dict:
    return {
        pid: (r.start_cycle, r.end_cycle, r.cores, r.hits, r.misses, r.preemptions)
        for pid, r in result.processes.items()
    }


class TestClosedSystemEquivalence:
    """batch@0 + homogeneous cores == the paper's closed runs, bit for bit."""

    @pytest.mark.parametrize(
        "scheduler",
        [
            RandomScheduler(3),
            LocalityScheduler(),
            LocalityMappingScheduler(),
            GreedyEtfScheduler(),
            WorkStealingScheduler(),
            LocalityAdmissionScheduler(),
            RoundRobinScheduler(),
        ],
        ids=lambda s: s.name,
    )
    def test_batch_at_zero_reproduces_closed_run(self, scheduler):
        epg = build_workload_mix(3, scale=0.5)
        sim = MPSoCSimulator(MachineConfig.paper_default())
        closed = sim.run(epg, scheduler)
        open_result = sim.run_open(
            epg, scheduler, ArrivalSchedule.batch(epg.task_names)
        )
        assert open_result.makespan_cycles == closed.makespan_cycles
        assert process_fingerprint(open_result) == process_fingerprint(closed)
        assert open_result.total_cache.hits == closed.total_cache.hits
        assert open_result.total_cache.misses == closed.total_cache.misses

    def test_campaign_cell_equivalence(self):
        base = dict(
            workload="mix:2",
            machine=MachineVariant(),
            scheduler=SchedulerSpec("LS"),
            seed=0,
            scale=0.25,
        )
        closed = execute_run(RunSpec(**base))
        degenerate = execute_run(
            RunSpec(**base, arrival=ArrivalSpec.of("batch"))
        )
        assert degenerate.makespan_cycles == closed.makespan_cycles
        assert degenerate.seconds == closed.seconds
        assert degenerate.miss_rate == closed.miss_rate
        assert (degenerate.hits, degenerate.misses) == (closed.hits, closed.misses)
        assert degenerate.open is not None and closed.open is None

    def test_static_plans_rejected_in_open_mode(self):
        epg = build_workload_mix(2, scale=0.25)
        sim = MPSoCSimulator(MachineConfig.paper_default())
        with pytest.raises(SimulationError, match="static plans"):
            sim.run_open(
                epg,
                StaticLocalityScheduler(),
                ArrivalSchedule.batch(epg.task_names),
            )

    def test_schedule_must_cover_every_app(self):
        epg = build_workload_mix(2, scale=0.25)
        sim = MPSoCSimulator(MachineConfig.paper_default())
        with pytest.raises(SimulationError, match="no arrival scheduled"):
            sim.run_open(
                epg,
                LocalityScheduler(),
                ArrivalSchedule.batch(epg.task_names[:1]),
            )
        with pytest.raises(SimulationError, match="not in the EPG"):
            sim.run_open(
                epg,
                LocalityScheduler(),
                ArrivalSchedule.batch(epg.task_names + ("ghost",)),
            )


class TestAdmissionSemantics:
    def test_no_process_starts_before_its_arrival(self):
        epg = build_arrival_stream(4, scale=0.25, seed=1)
        machine = MachineConfig.paper_default()
        schedule = ArrivalSpec.of("poisson", rate=3000.0).build(
            epg.task_names, 1, machine
        )
        result = MPSoCSimulator(machine).run_open(
            epg, LocalityScheduler(), schedule
        )
        for process in epg:
            record = result.processes[process.pid]
            assert record.start_cycle >= schedule.release_of(process.task_name)

    def test_late_arrival_delays_work(self):
        epg = build_workload_mix(1, scale=0.25)
        machine = MachineConfig.paper_default()
        sim = MPSoCSimulator(machine)
        delayed = sim.run_open(
            epg,
            LocalityScheduler(),
            ArrivalSchedule.from_cycles({epg.task_names[0]: 100_000}),
        )
        assert min(r.start_cycle for r in delayed.processes.values()) >= 100_000
        assert delayed.apps[epg.task_names[0]].queue_delay_cycles == 0

    def test_shared_queue_admission(self):
        epg = build_arrival_stream(3, scale=0.25, seed=2)
        machine = MachineConfig.paper_default()
        schedule = ArrivalSpec.of("poisson", rate=2000.0).build(
            epg.task_names, 2, machine
        )
        result = MPSoCSimulator(machine).run_open(
            epg, RoundRobinScheduler(), schedule
        )
        assert isinstance(result, OpenSystemResult)
        for app, record in result.apps.items():
            assert record.first_dispatch_cycle >= record.arrival_cycle


class TestHeterogeneousMachines:
    def test_single_core_half_speed_doubles_makespan_exactly(self):
        epg = build_workload_mix(1, scale=0.25)
        base = MachineConfig(num_cores=1)
        slow = MachineConfig(num_cores=1, core_speeds=(0.5,))
        fast = MPSoCSimulator(base).run(epg, LocalityScheduler())
        scaled = MPSoCSimulator(slow).run(epg, LocalityScheduler())
        # One core, non-preemptive: identical dispatch order, every
        # integer duration doubled by ceil(d / 0.5).
        assert scaled.makespan_cycles == 2 * fast.makespan_cycles

    def test_access_totals_conserved_under_heterogeneity(self):
        epg = build_workload_mix(3, scale=0.25)
        homogeneous = MPSoCSimulator(MachineConfig.paper_default()).run(
            epg, LocalityScheduler()
        )
        het = MPSoCSimulator(
            MachineConfig(core_speeds=(1.0, 2.0, 0.5, 1.0, 1.0, 0.25, 1.0, 4.0))
        ).run(epg, LocalityScheduler())
        total = lambda r: r.total_cache.hits + r.total_cache.misses
        assert total(het) == total(homogeneous)

    def test_per_core_cache_geometry(self):
        config = MachineConfig(
            num_cores=2, core_cache_sizes=(8192, 4096), core_cache_assocs=(2, 1)
        )
        assert config.heterogeneous
        assert config.geometry_for(0) != config.geometry_for(1)
        assert config.geometry_for(1).size_bytes == 4096
        epg = build_workload_mix(2, scale=0.25)
        result = MPSoCSimulator(config).run(epg, LocalityScheduler())
        assert result.makespan_cycles > 0
        for core in result.cores:
            assert core.busy_cycles <= result.makespan_cycles

    def test_heterogeneous_shared_queue(self):
        config = MachineConfig(
            num_cores=4,
            core_speeds=(1.0, 1.0, 0.5, 0.5),
            core_cache_sizes=(8192, 8192, 4096, 4096),
        )
        epg = build_workload_mix(2, scale=0.25)
        result = MPSoCSimulator(config).run(epg, RoundRobinScheduler())
        total = result.total_cache
        assert total.hits + total.misses == sum(
            r.hits + r.misses for r in result.processes.values()
        )

    def test_clustered_builder_and_presets(self):
        config = MachineConfig.clustered(
            [(2, {"speed": 1.0}), (2, {"speed": 0.5, "cache_size_bytes": 4096})]
        )
        assert config.num_cores == 4
        assert config.speed_for(3) == 0.5
        assert config.geometry_for(3).size_bytes == 4096
        rows = dict(config.describe())
        assert "Core speed factors" in rows
        homogeneous = MachineConfig.clustered([(4, {})])
        assert not homogeneous.heterogeneous

    def test_validation(self):
        with pytest.raises(ValidationError, match="entries for"):
            MachineConfig(num_cores=4, core_speeds=(1.0, 1.0))
        with pytest.raises(ValidationError, match="positive"):
            MachineConfig(num_cores=2, core_speeds=(1.0, 0.0))
        with pytest.raises(ValidationError, match="power of two"):
            MachineConfig(num_cores=2, core_cache_sizes=(8192, 3000))
        with pytest.raises(ValidationError, match="out of range"):
            MachineConfig.paper_default().speed_for(99)

    def test_homogeneous_scaled_cycles_is_identity(self):
        config = MachineConfig.paper_default()
        assert config.scaled_cycles(0, 12345) == 12345
        assert not config.heterogeneous

    def test_json_roundtrip_through_machine_variant(self):
        variant = MachineVariant.from_overrides(
            "het", num_cores=4, core_speeds=(1.0, 1.0, 0.5, 0.5)
        )
        rebuilt = MachineVariant.from_dict(
            __import__("json").loads(
                __import__("json").dumps(variant.to_dict())
            )
        )
        assert rebuilt.build() == variant.build()


class TestOpenMetrics:
    def make_result(self, rate: float = 2000.0, seed: int = 0) -> OpenSystemResult:
        epg = build_arrival_stream(5, scale=0.25, seed=seed)
        machine = MachineConfig.paper_default()
        schedule = ArrivalSpec.of("poisson", rate=rate).build(
            epg.task_names, seed, machine
        )
        return MPSoCSimulator(machine).run_open(epg, LocalityScheduler(), schedule)

    def test_stats_are_ordered_and_sane(self):
        result = self.make_result()
        stats = result.response_stats()
        assert stats["p50"] <= stats["p95"] <= stats["p99"] <= stats["max"]
        assert result.mean_slowdown() >= 1.0
        assert result.max_slowdown() >= result.mean_slowdown()
        assert result.throughput_apps_per_second() > 0
        assert result.mean_queue_delay_cycles() >= 0
        for rate_value in result.windowed_miss_rates(8):
            assert 0.0 <= rate_value <= 1.0

    def test_isolated_arrivals_have_zero_queue_delay(self):
        epg = build_arrival_stream(3, scale=0.25, seed=0)
        machine = MachineConfig.paper_default()
        # Gaps far larger than any app's service time: no queueing.
        sparse = ArrivalSpec.of(
            "trace", times_ms=(0.0, 50.0, 100.0)
        ).build(epg.task_names, 0, machine)
        isolated = MPSoCSimulator(machine).run_open(
            epg, LocalityScheduler(), sparse
        )
        assert isolated.mean_queue_delay_cycles() == 0.0
        # Everything at once: at least as much mean response time.
        contended = MPSoCSimulator(machine).run_open(
            epg, LocalityScheduler(), ArrivalSchedule.batch(epg.task_names)
        )
        assert (
            contended.response_stats()["mean"]
            >= isolated.response_stats()["mean"]
        )

    def test_load_sweep_sanity(self):
        """Open metrics stay sane (and deterministic) across a rate sweep."""
        spec = CampaignSpec(
            workloads=("stream:4",),
            schedulers=(SchedulerSpec("LS"), SchedulerSpec("ETF")),
            seeds=(0,),
            scale=0.25,
            arrivals=tuple(
                ArrivalSpec.of("poisson", rate=r) for r in (500.0, 2000.0, 8000.0)
            ),
            name="load-sweep",
        )
        outcome = Engine().run_campaign(spec)
        assert outcome.total == 6
        for result in outcome.results:
            metrics = result.open
            assert metrics["apps"] == 4
            assert metrics["response_p99_ms"] >= metrics["response_p50_ms"] >= 0
            assert metrics["mean_slowdown"] >= 1.0
            assert metrics["throughput_apps_per_s"] > 0
            assert len(metrics["windowed_miss_rates"]) == 10
        # Determinism: re-running the sweep reproduces it exactly.
        clear_cell_memo()
        again = Engine().run_campaign(spec)
        assert [r.to_dict() for r in again.results] == [
            r.to_dict() for r in outcome.results
        ]

    def test_rrs_slowdown_denominator_excludes_queueing_waits(self):
        """Preempted records reconstruct service from consumed cycles.

        ``duration_cycles`` of a shared-queue record spans its waits
        between quanta; the slowdown denominator must not (otherwise
        contention inflates service and biases RRS slowdowns toward 1).
        """
        epg = build_arrival_stream(5, scale=0.25, seed=0)
        # A short quantum forces preemptions even at test scale.
        machine = MachineConfig(quantum_cycles=1_000)
        batch = ArrivalSchedule.batch(epg.task_names)
        result = MPSoCSimulator(machine).run_open(
            epg, RoundRobinScheduler(), batch
        )
        assert any(r.preemptions for r in result.processes.values())
        # The legacy wall-duration weighting (no machine): service can
        # only shrink once waits are excluded, so slowdowns only grow.
        legacy = OpenSystemResult.from_simulation(result, epg, batch)
        for app, record in result.apps.items():
            assert record.service_cycles <= legacy.apps[app].service_cycles
        assert result.mean_slowdown() >= legacy.mean_slowdown()

    def test_validate_catches_admission_violation(self):
        result = self.make_result()
        epg = build_arrival_stream(5, scale=0.25, seed=0)
        some_app = next(iter(result.apps))
        result.apps[some_app].arrival_cycle = 10**12
        with pytest.raises(ValidationError, match="before its app"):
            result.validate_against(epg)


class TestCampaignAxis:
    def test_closed_spec_hash_unchanged_by_arrival_field(self):
        spec = CampaignSpec(workloads=("MxM",), name="hash-check")
        assert "arrivals" not in spec.to_dict()
        cell = spec.expand()[0]
        assert cell.arrival is None
        assert "|batch" not in cell.cell_key()

    def test_open_cells_key_on_arrival_params(self):
        a = RunSpec(
            workload="stream:2", machine=MachineVariant(),
            scheduler=SchedulerSpec("LS"), seed=0,
            arrival=ArrivalSpec.of("poisson", rate=1000.0),
        )
        b = RunSpec(
            workload="stream:2", machine=MachineVariant(),
            scheduler=SchedulerSpec("LS"), seed=0,
            arrival=ArrivalSpec.of("poisson", rate=2000.0),
        )
        assert a.cell_key() != b.cell_key()
        assert "poisson(rate=1000.0)" in a.cell_key()

    def test_spec_file_roundtrip_with_arrivals(self):
        spec = CampaignSpec(
            workloads=("stream:3",),
            schedulers=(SchedulerSpec("LS"),),
            arrivals=(
                ArrivalSpec.of("poisson", rate=1000.0),
                ArrivalSpec.of("bursty", rate=2000.0, burst=2),
            ),
            name="open-roundtrip",
        )
        rebuilt = CampaignSpec.from_dict(
            __import__("json").loads(__import__("json").dumps(spec.to_dict()))
        )
        assert rebuilt == spec
        assert rebuilt.spec_hash() == spec.spec_hash()
        assert rebuilt.num_cells == 2

    def test_campaign_csv_gains_arrival_column_only_for_open_runs(self):
        from repro.campaign.rollup import results_to_csv

        closed = Engine().run_many(
            Scenario().workload("MxM").scheduler("LS").scale(0.25)
        )
        assert "arrival" not in results_to_csv(closed).splitlines()[0]
        open_results = Engine().run_many(
            Scenario().workload("stream:2").scheduler("LS").scale(0.25)
            .arrival("poisson", rate=1000.0)
            .arrival("poisson", rate=4000.0)
        )
        header, *rows = results_to_csv(open_results).splitlines()
        assert "scheduler,arrival," in header
        assert len({row for row in rows}) == len(rows)  # rows distinguishable
        assert any("poisson(rate=4000.0)" in row for row in rows)

    def test_store_roundtrip_of_open_results(self, tmp_path):
        from repro.campaign.store import ResultStore

        outcome = Engine(
            store=ResultStore(tmp_path / "open.jsonl")
        ).run_campaign(
            Scenario().workload("stream:2").scheduler("LS").scale(0.25)
            .arrival("poisson", rate=2000.0)
        )
        loaded = ResultStore(tmp_path / "open.jsonl").load()
        (result,) = outcome.results
        assert loaded[result.key].open == result.open
        assert loaded[result.key].arrival == result.arrival

    def test_resume_skips_open_cells(self, tmp_path):
        from repro.campaign.store import ResultStore

        scenario = (
            Scenario().workload("stream:2").scheduler("LS", "ETF").scale(0.25)
            .arrival("poisson", rate=2000.0)
        )
        store = ResultStore(tmp_path / "resume.jsonl")
        first = Engine(store=store).run_campaign(scenario)
        assert first.executed == 2
        second = Engine(store=store, resume=True).run_campaign(scenario)
        assert second.executed == 0 and second.skipped == 2
        assert [r.to_dict() for r in second.results] == [
            r.to_dict() for r in first.results
        ]

    @staticmethod
    def _labelled(*labels: str) -> CampaignSpec:
        """Arrivals that differ only in their label (one memo identity)."""
        return CampaignSpec(
            workloads=("mix:2",),
            schedulers=(SchedulerSpec("LS"), SchedulerSpec("RS")),
            scale=0.25,
            arrivals=tuple(ArrivalSpec.of("batch", label=label) for label in labels),
            name="labels",
        )

    def _run_checked(self, *labels: str) -> str:
        from repro.campaign.rollup import rollup_results
        from repro.serve.service import result_fingerprint

        spec = self._labelled(*labels)
        runs = spec.expand()
        results = Engine().run_many(runs)
        assert [r.arrival for r in results] == [
            run.arrival.effective_label for run in runs
        ]
        rows = rollup_results(results)
        assert sorted((row.arrival, row.scheduler, row.runs) for row in rows) == sorted(
            (label, name, 1) for label in labels for name in ("LS", "RS")
        )
        return result_fingerprint(results)

    def test_memoized_cell_keeps_its_arrival_label(self):
        from repro.campaign.executor import clear_cell_memo

        clear_cell_memo()
        forward = self._run_checked("early", "late")
        clear_cell_memo()
        assert self._run_checked("late", "early") == forward

    def test_stored_cell_keeps_its_arrival_label(self, tmp_path):
        from repro.cache.store import active_memo_store, configure_memo_store
        from repro.campaign.executor import clear_cell_memo

        previous = active_memo_store()
        try:
            configure_memo_store(tmp_path / "memo")
            clear_cell_memo()
            forward = self._run_checked("early", "late")
            clear_cell_memo()  # a "new process": LS/late loads from the store
            assert self._run_checked("late", "early") == forward
        finally:
            clear_cell_memo()
            configure_memo_store(previous.root if previous is not None else None)

    def test_open_system_experiment_smoke(self, tmp_path):
        from repro.experiments.open_system import (
            render_open_system,
            run_open_system,
            write_open_csv,
        )

        outcome = run_open_system(
            apps=3,
            rates=(1000.0, 4000.0),
            schedulers=("RS", "LS", "ETF"),
            seeds=(0,),
            scale=0.25,
            store=tmp_path / "exp.jsonl",
        )
        assert outcome.total == 6
        rendered = render_open_system(outcome)
        assert "resp p99 (ms)" in rendered
        assert "LS" in rendered and "ETF" in rendered
        csv_path = write_open_csv(outcome, tmp_path / "open.csv")
        header = csv_path.read_text().splitlines()[0]
        assert "response_p99_ms" in header and "arrival" in header
