"""The online scheduler zoo, the incremental sharing matrix, and streams."""

from __future__ import annotations

import pytest

from repro.api import SCHEDULERS, Engine, Scenario
from repro.errors import ValidationError
from repro.sched import (
    GreedyEtfScheduler,
    LocalityAdmissionScheduler,
    LocalityScheduler,
    WorkStealingScheduler,
)
from repro.sharing.matrix import (
    IncrementalSharingMatrix,
    compute_sharing_matrix,
    sharing_matrix_for,
)
from repro.sim import ArrivalSchedule, MachineConfig, MPSoCSimulator
from repro.workloads.suite import (
    SUITE,
    build_arrival_stream,
    build_task,
    build_workload_mix,
    clone_task,
)


class TestIncrementalSharingMatrix:
    def test_matches_full_matrix_regardless_of_admission_order(self):
        epg = build_workload_mix(3, scale=0.25)
        full = sharing_matrix_for(epg)
        by_task: dict[str, list] = {}
        for process in epg:
            by_task.setdefault(process.task_name, []).append(process)
        # Admit apps in reverse order; entries must still match exactly.
        incremental = IncrementalSharingMatrix()
        for task in reversed(list(by_task)):
            incremental.admit(by_task[task])
        for a in epg.pids:
            for b in epg.pids:
                assert incremental.shared(a, b) == full.shared(a, b)

    def test_admit_is_idempotent(self):
        epg = build_workload_mix(1, scale=0.25)
        incremental = IncrementalSharingMatrix()
        processes = epg.processes()
        assert incremental.admit(processes) == len(processes)
        assert incremental.admit(processes) == 0
        assert len(incremental) == len(processes)

    def test_snapshot_is_a_valid_sharing_matrix(self):
        epg = build_workload_mix(2, scale=0.25)
        incremental = IncrementalSharingMatrix()
        incremental.admit(epg.processes())
        snapshot = incremental.snapshot()
        full = compute_sharing_matrix(epg.processes())
        pid = epg.pids[0]
        assert snapshot.footprint(pid) == full.footprint(pid)

    def test_unknown_pid_raises(self):
        incremental = IncrementalSharingMatrix()
        epg = build_workload_mix(1, scale=0.25)
        incremental.admit(epg.processes())
        from repro.errors import UnknownProcessError

        with pytest.raises(UnknownProcessError):
            incremental.shared(epg.pids[0], "ghost")


class TestOnlineSchedulers:
    def test_registered(self):
        for name in ("ETF", "WS", "LA"):
            assert name in SCHEDULERS

    def test_la_matches_ls_dispatch_for_closed_runs(self):
        """LA is LS under its online-zoo name: identical schedules, closed mode."""
        epg = build_workload_mix(3, scale=0.25)
        sim = MPSoCSimulator(MachineConfig.paper_default())
        ls = sim.run(epg, LocalityScheduler())
        la = sim.run(epg, LocalityAdmissionScheduler())
        assert la.makespan_cycles == ls.makespan_cycles
        assert la.schedule == ls.schedule

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    @pytest.mark.parametrize("contention", ["none", "bus"])
    def test_la_matches_ls_dispatch_for_open_runs(self, seed, contention):
        from repro.campaign.executor import _open_metrics
        from repro.sim import ArrivalSpec

        epg = build_arrival_stream(4, scale=0.25, seed=seed)
        machine = MachineConfig(contention=contention)
        schedule = ArrivalSpec.of("poisson", rate=2500.0).build(
            epg.task_names, seed, machine
        )
        sim = MPSoCSimulator(machine)
        ls = sim.run_open(epg, LocalityScheduler(), schedule)
        la = sim.run_open(epg, LocalityAdmissionScheduler(), schedule)
        assert la.makespan_cycles == ls.makespan_cycles
        assert la.schedule == ls.schedule
        assert la.total_cache.hits == ls.total_cache.hits
        assert la.total_cache.misses == ls.total_cache.misses
        assert _open_metrics(la) == _open_metrics(ls)

    def test_la_and_ls_plans_share_the_graph_matrix(self):
        from repro.sched.base import default_layout

        epg = build_arrival_stream(4, scale=0.25, seed=3)
        machine = MachineConfig.paper_default()
        layout = default_layout(epg, machine)
        plans = [
            scheduler.prepare(epg, machine, layout)
            for scheduler in (LocalityScheduler(), LocalityAdmissionScheduler())
        ]
        assert plans[1].scheduler_name == "LA"
        for plan in plans:
            assert plan.metadata["sharing_matrix"] is sharing_matrix_for(epg)

    def test_etf_prefers_shorter_jobs(self):
        epg = build_workload_mix(2, scale=0.25)
        machine = MachineConfig.paper_default()
        plan = GreedyEtfScheduler().prepare(
            epg, machine, __import__("repro.sched.base", fromlist=["default_layout"]).default_layout(epg, machine)
        )
        estimates = plan.metadata["estimates"]
        ready = sorted(epg.pids)[:4]
        chosen = plan.picker(0, ready, None, ())
        assert estimates[chosen] == min(estimates[pid] for pid in ready)

    def test_ws_prefers_home_apps_then_steals(self):
        epg = build_workload_mix(2, scale=0.25)
        machine = MachineConfig.paper_default()
        from repro.sched.base import default_layout

        plan = WorkStealingScheduler().prepare(
            epg, machine, default_layout(epg, machine)
        )
        home = plan.metadata["task_home"]
        tasks = list(home)
        assert home[tasks[0]] == 0 and home[tasks[1]] == 1
        first_app = [p.pid for p in epg.processes_of_task(tasks[0])]
        second_app = [p.pid for p in epg.processes_of_task(tasks[1])]
        # Core 0 takes its own app's work first...
        chosen = plan.picker(0, sorted(first_app[:2] + second_app[:2]), None, ())
        assert chosen in first_app
        # ...and steals when it has none.
        stolen = plan.picker(0, sorted(second_app[:2]), None, ())
        assert stolen in second_app

    @pytest.mark.parametrize("name", ["ETF", "WS", "LA"])
    def test_zoo_runs_closed_and_open_through_the_facade(self, name):
        closed = Engine().run(
            Scenario().workload("mix:2").scheduler(name).scale(0.25)
        )
        assert closed.makespan_cycles > 0
        open_result = Engine().run(
            Scenario().workload("stream:3").scheduler(name).scale(0.25)
            .arrival("poisson", rate=2000.0)
        )
        assert open_result.open is not None
        assert open_result.open["apps"] == 3

    def test_zoo_is_seed_insensitive(self):
        for cls in (GreedyEtfScheduler, WorkStealingScheduler,
                    LocalityAdmissionScheduler):
            assert cls.seed_sensitive is False


class TestArrivalStreamWorkload:
    def test_clone_task_renames_everything(self):
        task = build_task("MxM", scale=0.25)
        clone = clone_task(task, 2)
        assert clone.name == "MxM#2"
        assert clone.num_processes == task.num_processes
        assert all(pid.startswith("MxM#2.") for pid in
                   (p.pid for p in clone.processes))
        assert len(clone.edges) == len(task.edges)
        # Pieces (and data) are shared with the original by design.
        assert clone.processes[0].pieces is not None
        assert clone.processes[0].pieces == tuple(task.processes[0].pieces)

    def test_clone_instance_zero_is_the_original(self):
        task = build_task("Radar", scale=0.25)
        assert clone_task(task, 0) is task

    def test_clone_negative_instance_rejected(self):
        with pytest.raises(ValidationError, match="non-negative"):
            clone_task(build_task("Radar", scale=0.25), -1)

    def test_stream_samples_with_replacement_and_unique_names(self):
        epg = build_arrival_stream(10, scale=0.25, seed=0)
        names = epg.task_names
        assert len(names) == 10
        assert len(set(names)) == 10  # instances made distinct
        bases = {name.split("#", 1)[0] for name in names}
        assert bases <= {spec.name for spec in SUITE}
        assert len(bases) < 10  # with replacement: some app repeated

    def test_stream_is_seed_deterministic(self):
        a = build_arrival_stream(6, scale=0.25, seed=4)
        b = build_arrival_stream(6, scale=0.25, seed=4)
        c = build_arrival_stream(6, scale=0.25, seed=5)
        assert a.task_names == b.task_names
        assert a.task_names != c.task_names

    def test_stream_validates_count(self):
        with pytest.raises(ValidationError, match="num_apps"):
            build_arrival_stream(0)

    def test_instances_share_data_and_schedulers_can_exploit_it(self):
        """Two instances of one app fully share their arrays (by design)."""
        task = build_task("MxM", scale=0.25)
        clone = clone_task(task, 1)
        original = task.processes[0]
        cloned = clone.processes[0]
        assert cloned.shared_bytes_with(original) == original.footprint_bytes()

    def test_stream_runs_under_every_open_scheduler(self):
        epg = build_arrival_stream(4, scale=0.25, seed=1)
        sim = MPSoCSimulator(MachineConfig.paper_default())
        batch = ArrivalSchedule.batch(epg.task_names)
        for name in ("ETF", "WS", "LA"):
            scheduler = SCHEDULERS.get(name)(0)
            result = sim.run_open(epg, scheduler, batch)
            assert len(result.apps) == 4
