"""MachineConfig, EventQueue, and trace generation."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import EventOrderingError, ValidationError
from repro.presburger.terms import var
from repro.procgraph.process import Process
from repro.programs.accesses import AffineAccess
from repro.programs.arrays import ArraySpec
from repro.programs.fragments import ProgramFragment
from repro.programs.loops import LoopNest
from repro.memory.layout import DataLayout
from repro.sim.config import MachineConfig
from repro.sim.engine import EventQueue
from repro.sim.trace import ProcessTrace, build_trace


class TestMachineConfig:
    def test_paper_defaults_match_table2(self):
        config = MachineConfig.paper_default()
        assert config.num_cores == 8
        assert config.cache_size_bytes == 8192
        assert config.cache_associativity == 2
        assert config.cache_hit_cycles == 2
        assert config.memory_latency_cycles == 75
        assert config.clock_hz == 200e6

    def test_miss_cycles_is_hit_plus_memory(self):
        config = MachineConfig.paper_default()
        assert config.miss_cycles == 77

    def test_geometry_derived(self):
        geometry = MachineConfig.paper_default().geometry()
        assert geometry.cache_page == 4096

    def test_seconds_conversion(self):
        config = MachineConfig.paper_default()
        assert config.seconds(200_000_000) == 1.0

    def test_with_overrides_returns_copy(self):
        config = MachineConfig.paper_default()
        other = config.with_overrides(num_cores=4)
        assert other.num_cores == 4
        assert config.num_cores == 8

    def test_invalid_values_rejected(self):
        with pytest.raises(ValidationError):
            MachineConfig(num_cores=0)
        with pytest.raises(ValidationError):
            MachineConfig(cache_size_bytes=1000)
        with pytest.raises(ValidationError):
            MachineConfig(context_switch_cycles=-1)

    @pytest.mark.parametrize(
        "field",
        [
            "num_cores",
            "quantum_cycles",
            "cache_hit_cycles",
            "memory_latency_cycles",
        ],
    )
    def test_bool_counts_rejected(self, field):
        from repro.campaign.spec import MachineVariant
        from repro.errors import CampaignError

        with pytest.raises(ValidationError, match="bool"):
            MachineConfig(**{field: True})
        with pytest.raises(CampaignError, match="bool"):
            MachineVariant.from_overrides("x", **{field: True})

    def test_float_counts_still_accepted(self):
        assert MachineConfig(quantum_cycles=8000.0).quantum_cycles == 8000.0

    def test_describe_covers_table2_rows(self):
        rows = dict(MachineConfig.paper_default().describe())
        assert rows["Number of processors"] == "8"
        assert "8KB" in rows["Data cache per processor"]
        assert rows["Processor speed"] == "200 MHz"


class TestEventQueue:
    def test_time_order(self):
        q = EventQueue()
        q.push(5, "b")
        q.push(3, "a")
        assert q.pop() == (3, "a")
        assert q.pop() == (5, "b")

    def test_ties_pop_in_push_order(self):
        q = EventQueue()
        q.push(1, "first")
        q.push(1, "second")
        assert q.pop()[1] == "first"
        assert q.pop()[1] == "second"

    def test_past_push_rejected(self):
        q = EventQueue()
        q.push(10, "x")
        q.pop()
        with pytest.raises(EventOrderingError):
            q.push(5, "y")

    def test_pop_empty_rejected(self):
        with pytest.raises(ValidationError):
            EventQueue().pop()

    def test_len_and_bool(self):
        q = EventQueue()
        assert not q and len(q) == 0
        q.push(0, "x")
        assert q and len(q) == 1


def make_process(rows=4, cols=8, compute=3) -> tuple[Process, DataLayout]:
    a = ArraySpec("A", (rows, cols))
    b = ArraySpec("B", (rows, cols))
    x, y = var("x"), var("y")
    frag = ProgramFragment(
        "copy",
        LoopNest([("x", 0, rows), ("y", 0, cols)]),
        [AffineAccess(a, [x, y]), AffineAccess(b, [x, y], is_write=True)],
        compute_cycles_per_iteration=compute,
    )
    process = Process("p", "T", [frag.whole()])
    layout = DataLayout.allocate([a, b], alignment=32, stagger=1)
    return process, layout


class TestBuildTrace:
    def test_trace_length_is_iterations_times_accesses(self):
        process, layout = make_process(rows=4, cols=8)
        trace = build_trace(process, layout, MachineConfig.paper_default().geometry())
        assert trace.num_accesses == 4 * 8 * 2

    def test_program_order_interleaving(self):
        process, layout = make_process(rows=1, cols=2)
        geometry = MachineConfig.paper_default().geometry()
        trace = build_trace(process, layout, geometry)
        # Iteration (0,0): read A[0,0], write B[0,0]; then (0,1): ...
        a0 = geometry.line_of(layout.addr("A", 0))
        b0 = geometry.line_of(layout.addr("B", 0))
        assert trace.lines[:2].tolist() == [a0, b0]
        assert trace.writes[:2].tolist() == [False, True]

    def test_compute_cycles_on_iteration_boundaries(self):
        process, layout = make_process(rows=2, cols=2, compute=5)
        trace = build_trace(process, layout, MachineConfig.paper_default().geometry())
        # First access of each iteration carries the compute cost.
        assert trace.extra_cycles.tolist() == [5, 0] * 4
        assert trace.total_compute_cycles == 20

    def test_cost_cycles(self):
        process, layout = make_process(rows=1, cols=1, compute=1)
        trace = build_trace(process, layout, MachineConfig.paper_default().geometry())
        # 2 accesses; 1 hit 1 miss at (2, 77): 2 + 77 + compute 1.
        assert trace.cost_cycles(1, 1, 2, 77) == 80

    def test_cost_cycles_arity_checked(self):
        process, layout = make_process(rows=1, cols=1)
        trace = build_trace(process, layout, MachineConfig.paper_default().geometry())
        with pytest.raises(ValidationError):
            trace.cost_cycles(0, 0, 2, 77)

    def test_mismatched_arrays_rejected(self):
        with pytest.raises(ValidationError):
            ProcessTrace(
                pid="p",
                lines=np.array([1, 2]),
                writes=np.array([False]),
                extra_cycles=np.array([0, 0]),
            )

    def test_remapped_layout_changes_lines(self):
        from repro.cache.geometry import CacheGeometry
        from repro.memory.remap import RemappedLayout

        process, layout = make_process()
        geometry = CacheGeometry(1024, 2, 32)
        remapped = RemappedLayout(layout, geometry, {"A": 0})
        plain = build_trace(process, layout, geometry)
        moved = build_trace(process, remapped, geometry)
        assert plain.lines.tolist() != moved.lines.tolist()
        # Writes (to B) are identical; only A's reads moved.
        assert plain.writes.tolist() == moved.writes.tolist()
