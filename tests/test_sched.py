"""Schedulers: plan structure, Figure-3 algorithm, dispatch pickers."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import SchedulingError, ValidationError
from repro.procgraph.graph import ProcessGraph
from repro.procgraph.process import Process
from repro.programs.accesses import AffineAccess
from repro.programs.arrays import ArraySpec
from repro.programs.fragments import ProgramFragment
from repro.programs.loops import LoopNest
from repro.presburger.terms import var
from repro.sched.base import (
    PlanMode,
    SchedulerPlan,
    default_layout,
)
from repro.sched.locality import (
    LocalityScheduler,
    StaticLocalityScheduler,
    figure3_schedule,
    make_locality_picker,
)
from repro.sched.locality_mapping import LocalityMappingScheduler
from repro.sched.random_sched import RandomScheduler
from repro.sched.round_robin import RoundRobinScheduler
from repro.sharing.matrix import SharingMatrix, compute_sharing_matrix


class TestSchedulerPlan:
    def test_static_needs_queues(self, small_epg, small_machine):
        layout = default_layout(small_epg, small_machine)
        with pytest.raises(SchedulingError):
            SchedulerPlan("X", PlanMode.STATIC, layout)

    def test_dynamic_needs_picker(self, small_epg, small_machine):
        layout = default_layout(small_epg, small_machine)
        with pytest.raises(SchedulingError):
            SchedulerPlan("X", PlanMode.DYNAMIC, layout)

    def test_shared_queue_needs_quantum(self, small_epg, small_machine):
        layout = default_layout(small_epg, small_machine)
        with pytest.raises(SchedulingError):
            SchedulerPlan("X", PlanMode.SHARED_QUEUE, layout)

    @pytest.mark.parametrize("quantum", [0, -5, True, "8000"])
    def test_shared_queue_quantum_must_be_positive(
        self, small_epg, small_machine, quantum
    ):
        layout = default_layout(small_epg, small_machine)
        with pytest.raises(ValidationError):
            SchedulerPlan(
                "X", PlanMode.SHARED_QUEUE, layout, quantum_cycles=quantum
            )


class TestDefaultLayout:
    def test_big_arrays_page_aligned(self, small_epg, small_machine):
        layout = default_layout(small_epg, small_machine)
        page = small_machine.geometry().cache_page
        for name in layout.array_names:
            if layout.spec(name).size_bytes >= page:
                assert layout.base(name) % page == 0

    def test_deterministic(self, small_epg, small_machine):
        a = default_layout(small_epg, small_machine)
        b = default_layout(small_epg, small_machine)
        assert [a.base(n) for n in a.array_names] == [
            b.base(n) for n in b.array_names
        ]

    def test_covers_every_array(self, small_epg, small_machine):
        layout = default_layout(small_epg, small_machine)
        wanted = set()
        for process in small_epg:
            wanted.update(process.arrays)
        assert set(layout.array_names) == wanted


class TestFigure3Schedule:
    def test_every_process_placed_exactly_once(self, small_epg):
        sharing = compute_sharing_matrix(small_epg.processes())
        queues = figure3_schedule(small_epg, sharing, 2)
        placed = [pid for q in queues for pid in q]
        assert sorted(placed) == sorted(small_epg.pids)

    def test_placement_respects_dependence_prefix(self, small_epg):
        """A process appears only after all its predecessors in global
        placement order (the property that guarantees deadlock-freedom)."""
        sharing = compute_sharing_matrix(small_epg.processes())
        queues = figure3_schedule(small_epg, sharing, 2)
        # Reconstruct global placement order: round-robin over queue ranks.
        order: list[str] = []
        rank = 0
        while any(rank < len(q) for q in queues):
            for q in queues:
                if rank < len(q):
                    order.append(q[rank])
            rank += 1
        position = {pid: i for i, pid in enumerate(order)}
        for pid in small_epg.pids:
            for pred in small_epg.predecessors(pid):
                assert position[pred] < position[pid]

    def test_consumer_follows_producer_on_same_core(self, small_epg):
        """With 2 cores and 4 producer/consumer pairs, Figure 3 pairs each
        consumer right after its producer."""
        sharing = compute_sharing_matrix(small_epg.processes())
        queues = figure3_schedule(small_epg, sharing, 2)
        for queue in queues:
            for prev, nxt in zip(queue, queue[1:]):
                if nxt.startswith("T.ph1"):
                    # Its producer is the best-sharing predecessor.
                    producer = next(iter(small_epg.predecessors(nxt)))
                    assert sharing.shared(prev, nxt) >= 0
                    if prev.startswith("T.ph0"):
                        assert prev == producer

    def test_trim_reduces_first_round(self, small_epg):
        sharing = compute_sharing_matrix(small_epg.processes())
        queues = figure3_schedule(small_epg, sharing, 2)
        # 4 independent processes, 2 cores: exactly one first-slot each.
        assert all(len(q) >= 1 for q in queues)

    def test_invalid_cores_rejected(self, small_epg):
        sharing = compute_sharing_matrix(small_epg.processes())
        with pytest.raises(ValidationError):
            figure3_schedule(small_epg, sharing, 0)

    def test_invalid_trim_rejected(self, small_epg):
        sharing = compute_sharing_matrix(small_epg.processes())
        with pytest.raises(ValidationError):
            figure3_schedule(small_epg, sharing, 2, trim="bogus")

    def test_min_sharing_trim_differs(self, two_task_epg):
        sharing = compute_sharing_matrix(two_task_epg.processes())
        q_max = figure3_schedule(two_task_epg, sharing, 2, trim="max-sharing")
        q_min = figure3_schedule(two_task_epg, sharing, 2, trim="min-sharing")
        first_max = sorted(q[0] for q in q_max if q)
        first_min = sorted(q[0] for q in q_min if q)
        assert first_max != first_min


def reference_trim(sharing, candidates, num_cores, trim):
    """The pairwise Figure-3 trim loop that row sums replaced."""
    candidates = sorted(candidates)

    def total_sharing(pid, among):
        i = sharing.index_of(pid)
        return sum(
            int(sharing.matrix[i, sharing.index_of(other)])
            for other in among
            if sharing.index_of(other) != i
        )

    while len(candidates) > num_cores:
        totals = [(total_sharing(pid, candidates), pid) for pid in candidates]
        _, victim = (max if trim == "max-sharing" else min)(totals)
        candidates.remove(victim)
    return candidates


def independent_graph(pids):
    fragment = ProgramFragment(
        "f",
        LoopNest([("i", 0, 4)]),
        [AffineAccess(ArraySpec("A", (4,)), [var("i")])],
    )
    graph = ProcessGraph()
    for pid in pids:
        graph.add_process(Process(pid, "T", [fragment.whole()]))
    return graph


class TestFigure3TrimEquivalence:
    """Row-sum trimming picks the first round exactly as the pairwise loop."""

    @pytest.mark.parametrize("seed", range(25))
    @pytest.mark.parametrize("trim", ["max-sharing", "min-sharing"])
    def test_matches_pairwise_loop(self, seed, trim):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 10))
        # Few distinct values make ties common; matrix order is not pid order.
        pids = [f"q{k}" for k in rng.permutation(n)]
        upper = np.triu(rng.integers(0, 3, size=(n, n)) * 64)
        matrix = upper + upper.T
        np.fill_diagonal(matrix, rng.integers(0, 1000, size=n))
        sharing = SharingMatrix(pids, matrix)
        graph = independent_graph(sorted(pids, key=lambda pid: rng.random()))
        for num_cores in range(1, n + 1):
            expected = reference_trim(sharing, pids, num_cores, trim)
            queues = figure3_schedule(graph, sharing, num_cores, trim=trim)
            assert [queue[0] for queue in queues[: len(expected)]] == expected

    def test_ties_follow_pid_order(self):
        pids = ["a", "b", "c", "d"]
        sharing = SharingMatrix(pids, np.ones((4, 4), dtype=np.int64))
        graph = independent_graph(pids)
        trimmed = figure3_schedule(graph, sharing, 2, trim="max-sharing")
        assert [queue[0] for queue in trimmed] == ["a", "b"]
        trimmed = figure3_schedule(graph, sharing, 2, trim="min-sharing")
        assert [queue[0] for queue in trimmed] == ["c", "d"]


class TestLocalityPicker:
    def test_prefers_max_sharing_with_last(self, small_epg):
        sharing = compute_sharing_matrix(small_epg.processes())
        picker = make_locality_picker(sharing)
        producer = "T.ph0.p0"
        consumer = "T.ph1.p0"
        other = "T.ph1.p3"
        chosen = picker(0, (other, consumer), producer, ())
        assert chosen == consumer

    def test_cold_start_avoids_sharing_with_running(self, small_epg):
        sharing = compute_sharing_matrix(small_epg.processes())
        picker = make_locality_picker(sharing)
        # Phase-1 siblings share array B; phase-0 siblings are disjoint.
        chosen = picker(1, ("T.ph1.p1", "T.ph0.p1"), None, ("T.ph1.p0",))
        assert chosen == "T.ph0.p1"

    def test_tie_breaks_lexicographically(self, small_epg):
        sharing = compute_sharing_matrix(small_epg.processes())
        picker = make_locality_picker(sharing)
        chosen = picker(0, ("T.ph0.p2", "T.ph0.p1"), None, ())
        assert chosen == "T.ph0.p1"


class TestSchedulerPrepare:
    def test_random_plan_is_dynamic(self, small_epg, small_machine):
        layout = default_layout(small_epg, small_machine)
        plan = RandomScheduler(seed=3).prepare(small_epg, small_machine, layout)
        assert plan.mode is PlanMode.DYNAMIC
        assert plan.metadata["seed"] == 3

    def test_round_robin_quantum_defaults_to_machine(self, small_epg, small_machine):
        layout = default_layout(small_epg, small_machine)
        plan = RoundRobinScheduler().prepare(small_epg, small_machine, layout)
        assert plan.quantum_cycles == small_machine.quantum_cycles

    def test_round_robin_quantum_override(self, small_epg, small_machine):
        layout = default_layout(small_epg, small_machine)
        plan = RoundRobinScheduler(quantum_cycles=123).prepare(
            small_epg, small_machine, layout
        )
        assert plan.quantum_cycles == 123

    def test_round_robin_rejects_bad_quantum(self):
        with pytest.raises(ValidationError):
            RoundRobinScheduler(quantum_cycles=0)

    def test_ls_plan_dynamic_with_sharing(self, small_epg, small_machine):
        layout = default_layout(small_epg, small_machine)
        plan = LocalityScheduler().prepare(small_epg, small_machine, layout)
        assert plan.mode is PlanMode.DYNAMIC
        assert "sharing_matrix" in plan.metadata

    def test_static_ls_plan(self, small_epg, small_machine):
        layout = default_layout(small_epg, small_machine)
        plan = StaticLocalityScheduler().prepare(small_epg, small_machine, layout)
        assert plan.mode is PlanMode.STATIC
        assert len(plan.core_queues) == small_machine.num_cores

    def test_lsm_plan_has_remapped_layout(self, two_task_epg, small_machine):
        layout = default_layout(two_task_epg, small_machine)
        plan = LocalityMappingScheduler(conflict_threshold=0.0).prepare(
            two_task_epg, small_machine, layout
        )
        assert plan.mode is PlanMode.DYNAMIC
        decision = plan.metadata["relayout"]
        assert decision.num_remapped > 0
        assert plan.layout.remapped_arrays == decision.b_offsets

    def test_lsm_threshold_inf_remaps_nothing(self, two_task_epg, small_machine):
        import math

        layout = default_layout(two_task_epg, small_machine)
        plan = LocalityMappingScheduler(conflict_threshold=math.inf).prepare(
            two_task_epg, small_machine, layout
        )
        assert plan.metadata["relayout"].num_remapped == 0
