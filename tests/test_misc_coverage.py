"""Edge cases and smaller API surfaces not covered elsewhere."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import ValidationError
from repro.presburger.terms import var
from repro.procgraph.graph import ExtendedProcessGraph
from repro.procgraph.process import Process
from repro.procgraph.task import Task
from repro.programs.accesses import AffineAccess
from repro.programs.arrays import ArraySpec
from repro.programs.fragments import ProgramFragment
from repro.programs.loops import LoopNest
from repro.sched.random_sched import RandomScheduler
from repro.sim.config import MachineConfig
from repro.sim.simulator import MPSoCSimulator
from repro.sim.trace import build_trace


class TestMultiPieceProcess:
    def make(self) -> Process:
        a = ArraySpec("A", (4, 4))
        b = ArraySpec("B", (4, 4))
        x, y = var("x"), var("y")
        f1 = ProgramFragment(
            "f1",
            LoopNest([("x", 0, 4), ("y", 0, 4)]),
            [AffineAccess(a, [x, y])],
            compute_cycles_per_iteration=2,
        )
        f2 = ProgramFragment(
            "f2",
            LoopNest([("x", 0, 4), ("y", 0, 4)]),
            [AffineAccess(b, [x, y], is_write=True)],
            compute_cycles_per_iteration=3,
        )
        return Process("p", "T", [f1.whole(), f2.whole()])

    def test_aggregates_across_pieces(self):
        process = self.make()
        assert process.trip_count == 32
        assert process.compute_cycles == 16 * 2 + 16 * 3
        assert set(process.arrays) == {"A", "B"}
        assert process.footprint_bytes() == 128

    def test_trace_concatenates_pieces_in_order(self, small_machine):
        from repro.memory.layout import DataLayout

        process = self.make()
        layout = DataLayout.allocate(
            [process.arrays["A"], process.arrays["B"]], stagger=1
        )
        trace = build_trace(process, layout, small_machine.geometry())
        assert trace.num_accesses == 32
        # First 16 accesses are reads (piece 1), last 16 writes (piece 2).
        assert not trace.writes[:16].any()
        assert trace.writes[16:].all()


class TestInterTaskDependences:
    def make_epg(self) -> ExtendedProcessGraph:
        def proc(pid, task, array):
            a = ArraySpec(array, (8, 8))
            frag = ProgramFragment(
                f"frag_{pid}",
                LoopNest([("x", 0, 8), ("y", 0, 8)]),
                [AffineAccess(a, [var("x"), var("y")])],
            )
            return Process(pid, task, [frag.whole()])

        t1 = Task("T1", [proc("T1.a", "T1", "T1.A"), proc("T1.b", "T1", "T1.B")],
                  [("T1.a", "T1.b")])
        t2 = Task("T2", [proc("T2.a", "T2", "T2.A")])
        # T2 waits for T1's first stage: an inter-task dependence.
        return ExtendedProcessGraph.from_tasks([t1, t2], [("T1.a", "T2.a")])

    @pytest.mark.parametrize("quantum", [100, 10**9])
    def test_cross_task_edges_respected_in_shared_queue(self, quantum):
        from repro.sched.round_robin import RoundRobinScheduler

        epg = self.make_epg()
        machine = MachineConfig(
            num_cores=2,
            cache_size_bytes=1024,
            cache_associativity=2,
            cache_line_size=32,
            quantum_cycles=quantum,
            context_switch_cycles=10,
        )
        result = MPSoCSimulator(machine).run(epg, RoundRobinScheduler())
        result.validate_against(epg)
        assert (
            result.processes["T2.a"].start_cycle
            >= result.processes["T1.a"].end_cycle
        )


class TestGantt:
    def test_gantt_shows_every_core_and_process(self, small_machine, small_epg):
        result = MPSoCSimulator(small_machine).run(small_epg, RandomScheduler(seed=1))
        chart = result.gantt(width=40)
        assert chart.count("core ") == small_machine.num_cores
        for pid in small_epg.pids:
            assert pid in chart  # in the legend

    def test_gantt_width_validated(self, small_machine, small_epg):
        result = MPSoCSimulator(small_machine).run(small_epg, RandomScheduler(seed=1))
        with pytest.raises(ValidationError):
            result.gantt(width=3)


class TestWorkloadUpscale:
    def test_scale_above_one(self):
        from repro.workloads.suite import build_task

        task = build_task("Shape", scale=1.5)
        assert 9 <= task.num_processes <= 37
        assert task.total_footprint_bytes() > build_task("Shape").total_footprint_bytes()


class TestDefaultLayoutEdges:
    def test_small_arrays_only(self, small_machine):
        from repro.sched.base import default_layout

        a = ArraySpec("tiny", (4,))
        frag = ProgramFragment(
            "f", LoopNest([("x", 0, 4)]), [AffineAccess(a, [var("x")])]
        )
        epg = ExtendedProcessGraph.from_tasks(
            [Task("T", [Process("p", "T", [frag.whole()])])]
        )
        layout = default_layout(epg, small_machine)
        assert layout.array_names == ("tiny",)
