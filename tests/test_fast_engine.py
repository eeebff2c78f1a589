"""Oracle equivalence for the vectorized cache engine and the trace memo.

The scalar :class:`SetAssociativeCache` is the reference; every engine
path — the vectorized kernel, the scalar analyzer, the warm-start
adjustment, the memoized glue — must reproduce its counters and tag
state bit for bit.  The randomized suites below sweep geometries
(associativity 1/2/4/8 across set counts), chained warm starts, write
streams, and dirty-eviction accounting, totalling well over 1000 seeded
trace executions.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.cache.fast_engine import (
    CacheState,
    TraceAnalysis,
    _analyze_scalar,
    analyze_trace,
    empty_state,
    simulate_trace,
    warm_adjust,
)
from repro.cache.geometry import CacheGeometry
from repro.cache.memo import (
    TraceMemo,
    execute_trace,
    set_fast_cache,
    trace_fingerprint,
)
from repro.cache.sa_cache import SetAssociativeCache
from repro.errors import ValidationError

GEOMETRIES = [
    (1, 1),
    (1, 8),
    (2, 1),
    (4, 2),
    (8, 4),
    (16, 2),
    (64, 2),
    (128, 2),
    (16, 8),
]


def oracle_state(cache: SetAssociativeCache) -> CacheState:
    return cache.export_state()


def oracle_counters(delta) -> tuple[int, int, int, int, int]:
    return (
        delta.hits,
        delta.misses,
        delta.write_hits,
        delta.write_misses,
        delta.dirty_evictions,
    )


class TestSimulateTraceEquivalence:
    def test_randomized_chained_warm_start_equivalence(self):
        """>= 1000 seeded trace executions across geometries, chained.

        Each trial chains several segments through the same cache, so
        warm starts, dirty carryover, and end-state reconstruction are
        all exercised against the scalar oracle.
        """
        rng = np.random.default_rng(2024)
        executions = 0
        for trial in range(420):
            num_sets, assoc = GEOMETRIES[trial % len(GEOMETRIES)]
            nlines = int(rng.integers(1, num_sets * assoc * 3 + 2))
            geometry = CacheGeometry(num_sets * assoc * 32, assoc, 32)
            cache = SetAssociativeCache(geometry)
            state = empty_state(num_sets)
            for _segment in range(3):
                n = int(rng.integers(0, 500))
                lines = rng.integers(0, nlines, size=n).astype(np.int64)
                writes = (
                    rng.random(n) < 0.3 if rng.random() < 0.8 else None
                )
                before = cache.stats.snapshot()
                cache.run_trace(lines, writes)
                delta = cache.stats.delta_since(before)
                run = simulate_trace(lines, writes, num_sets, assoc, state)
                state = run.end_state
                assert run.counters() == oracle_counters(delta)
                assert state == oracle_state(cache)
                assert run.hit_mask.sum() == delta.hits
                executions += 1
        assert executions >= 1000

    def test_hit_mask_matches_per_access_oracle(self):
        rng = np.random.default_rng(5)
        geometry = CacheGeometry(256, 2, 32)
        lines = rng.integers(0, 12, size=300).astype(np.int64)
        cache = SetAssociativeCache(geometry)
        expected = [cache.access_line(int(line)) for line in lines]
        run = simulate_trace(lines, None, geometry.num_sets, 2)
        assert run.hit_mask.tolist() == expected

    def test_empty_trace_preserves_state(self):
        state = CacheState(sets=((3, 1), (2,)), dirty=frozenset({3}))
        run = simulate_trace(
            np.empty(0, dtype=np.int64), None, 2, 2, state
        )
        assert run.counters() == (0, 0, 0, 0, 0)
        assert run.end_state == state

    def test_negative_line_rejected(self):
        with pytest.raises(ValidationError):
            simulate_trace(np.array([-1], dtype=np.int64), None, 4, 2)

    def test_collect_requires_cold_start(self):
        warm = CacheState(sets=((1,), ()), dirty=frozenset())
        with pytest.raises(ValidationError):
            simulate_trace(
                np.array([0], dtype=np.int64), None, 2, 1, warm, {}
            )


class TestWarmAdjust:
    def test_randomized_adjustment_matches_oracle(self):
        """Analysis + O(sets x assoc) adjustment == scalar warm run."""
        rng = np.random.default_rng(77)
        for trial in range(600):
            num_sets, assoc = GEOMETRIES[trial % len(GEOMETRIES)]
            nlines = int(rng.integers(1, num_sets * assoc * 3 + 2))
            geometry = CacheGeometry(num_sets * assoc * 32, assoc, 32)
            cache = SetAssociativeCache(geometry)
            warm_n = int(rng.integers(0, 300))
            if warm_n:
                cache.run_trace(
                    rng.integers(0, nlines, size=warm_n).astype(np.int64),
                    rng.random(warm_n) < 0.3,
                )
            warm_sets = [list(ways) for ways in cache.state_view()[0]]
            warm_dirty = set(cache.state_view()[1])
            n = int(rng.integers(0, 400))
            lines = rng.integers(0, nlines, size=n).astype(np.int64)
            writes = rng.random(n) < 0.3 if rng.random() < 0.8 else None
            before = cache.stats.snapshot()
            cache.run_trace(lines, writes)
            delta = cache.stats.delta_since(before)
            analysis = analyze_trace(lines, writes, num_sets, assoc)
            counters, end_state = warm_adjust(analysis, warm_sets, warm_dirty)
            assert counters == oracle_counters(delta)
            assert end_state == oracle_state(cache)

    def test_scalar_and_kernel_analyses_agree(self):
        rng = np.random.default_rng(9)
        for num_sets, assoc in GEOMETRIES:
            n = 700
            lines = rng.integers(0, num_sets * assoc * 2 + 1, size=n).astype(
                np.int64
            )
            writes = rng.random(n) < 0.25
            scalar = _analyze_scalar(lines, writes, num_sets, assoc)
            collect: dict = {}
            cold = simulate_trace(lines, writes, num_sets, assoc, None, collect)
            kernel = TraceAnalysis(
                num_sets=num_sets,
                assoc=assoc,
                cold=cold,
                line_meta=collect["line_meta"],
                set_counts=collect["set_counts"],
            )
            assert scalar.cold.counters() == kernel.cold.counters()
            assert scalar.cold.end_state == kernel.cold.end_state
            assert scalar.line_meta == kernel.line_meta
            assert tuple(scalar.set_counts) == tuple(kernel.set_counts)


class TestExecuteTraceMemo:
    def test_memoized_execution_bit_identical_and_hits(self):
        geometry = CacheGeometry(1024, 2, 32)
        rng = np.random.default_rng(1)
        lines = rng.integers(0, 64, size=3000).astype(np.int64)
        writes = rng.random(3000) < 0.2
        fingerprint = trace_fingerprint(lines, writes)
        memo = TraceMemo()

        reference = SetAssociativeCache(geometry)
        reference.run_trace(lines, writes)
        reference.run_trace(lines, writes)

        cache = SetAssociativeCache(geometry)
        execute_trace(cache, lines, writes, fingerprint, memo)
        execute_trace(cache, lines, writes, fingerprint, memo)
        assert cache.stats == reference.stats
        assert cache.export_state() == reference.export_state()
        assert memo.stats()["hits"] == 1
        assert memo.stats()["misses"] == 1

    def test_copy_on_write_snapshot_not_corrupted(self):
        """Scalar mutation after load_state must not alter the snapshot."""
        geometry = CacheGeometry(256, 2, 32)
        cache = SetAssociativeCache(geometry)
        cache.run_trace(np.array([1, 9, 17, 1], dtype=np.int64))
        snapshot = cache.export_state()
        other = SetAssociativeCache(geometry)
        other.load_state(snapshot)
        other.access_line(25)
        other.access_line(33)
        assert snapshot == cache.export_state()

    def test_disabled_engine_uses_scalar_path(
        self, monkeypatch, small_epg, small_machine
    ):
        """With the switch off, no run reaches a fast engine."""
        import repro.sim.simulator as simulator_module
        from repro.api.registries import SCHEDULERS
        from repro.cache import native
        from repro.sim.simulator import MPSoCSimulator

        fast = {}
        previous = set_fast_cache(True)
        try:
            for name in ("LS-static", "LS", "RRS"):
                fast[name] = MPSoCSimulator(small_machine).run(
                    small_epg, SCHEDULERS.get(name)(0)
                )

            def boom(*args, **kwargs):
                raise AssertionError("a fast engine ran under the scalar oracle")

            monkeypatch.setattr(native, "kernel", boom)
            monkeypatch.setattr(simulator_module, "execute_trace", boom)
            monkeypatch.setattr(simulator_module, "run_plan_quantum", boom)
            set_fast_cache(False)
            for name in ("LS-static", "LS", "RRS"):
                scalar = MPSoCSimulator(small_machine).run(
                    small_epg, SCHEDULERS.get(name)(0)
                )
                assert scalar.makespan_cycles == fast[name].makespan_cycles
                assert scalar.total_cache == fast[name].total_cache
        finally:
            set_fast_cache(previous)


class TestBudgetRows:
    def test_run_budget_rows_matches_run_trace_budget(self):
        rng = np.random.default_rng(13)
        geometry = CacheGeometry(512, 2, 32)
        for _ in range(60):
            n = int(rng.integers(1, 600))
            lines = rng.integers(0, 40, size=n).astype(np.int64)
            writes = rng.random(n) < 0.3
            extra = rng.integers(0, 4, size=n).astype(np.int64)
            budget = int(rng.integers(20, 400))
            hit_cost, miss_extra = 2, 75
            rows = list(
                zip(
                    (lines & (geometry.num_sets - 1)).tolist(),
                    lines.tolist(),
                    writes.tolist(),
                    (extra + hit_cost).tolist(),
                )
            )
            a = SetAssociativeCache(geometry)
            b = SetAssociativeCache(geometry)
            index_a = index_b = 0
            while index_a < n:
                index_a, used_a, hit_a, miss_a = a.run_trace_budget(
                    lines, writes, index_a, hit_cost,
                    hit_cost + miss_extra, extra, budget,
                )
                index_b, used_b, hit_b, miss_b = b.run_budget_rows(
                    rows, index_b, miss_extra, budget
                )
                assert (index_a, used_a, hit_a, miss_a) == (
                    index_b, used_b, hit_b, miss_b,
                )
            assert a.stats == b.stats
            assert a.export_state() == b.export_state()


class TestCampaignMemoCorrectness:
    def test_memoized_campaign_equals_cold_run(self, fast_engine):
        """A campaign served by warm memos == the same campaign run cold,
        on either fast engine (only the no-kernel one analyzes traces)."""
        from repro.api.engine import Engine
        from repro.campaign.executor import clear_cell_memo
        from repro.campaign.spec import CampaignSpec, MachineVariant
        from repro.cache.memo import TRACE_MEMO

        spec = CampaignSpec(
            workloads=("MxM", "mix:2"),
            machines=(MachineVariant(),),
            seeds=(0, 1),
            scale=0.25,
            name="memo-correctness",
        )

        def snapshot(outcome):
            return [
                (r.key, r.seconds, r.makespan_cycles, r.hits, r.misses)
                for r in outcome.results
            ]

        TRACE_MEMO.clear()
        clear_cell_memo()
        cold = snapshot(Engine().run_campaign(spec))
        # Everything is now memoized: workloads, campaign cells and,
        # without the kernel, analyses.  A re-run must reproduce the cold
        # results exactly.
        warm = snapshot(Engine().run_campaign(spec))
        assert warm == cold

        # And the scalar reference engine agrees with both.
        previous = set_fast_cache(False)
        try:
            clear_cell_memo()
            scalar = snapshot(Engine().run_campaign(spec))
        finally:
            set_fast_cache(previous)
        assert scalar == cold
