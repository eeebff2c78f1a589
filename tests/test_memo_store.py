"""The persistent cross-process memo store (``repro.cache.store``)."""

from __future__ import annotations

import json
import multiprocessing
import sqlite3

import numpy as np
import pytest

from repro.cache.fast_engine import analyze_trace
from repro.cache.memo import TraceMemo, memoized_analysis, trace_fingerprint
from repro.cache.store import (
    STORE_VERSION,
    MemoStore,
    active_memo_store,
    configure_memo_store,
)
from repro.errors import MemoStoreError


@pytest.fixture
def store(tmp_path) -> MemoStore:
    return MemoStore(tmp_path / "memo")


def _trace(seed: int = 0, n: int = 256):
    rng = np.random.default_rng(seed)
    lines = rng.integers(0, 128, size=n).astype(np.int64)
    writes = rng.random(n) < 0.3
    return lines, writes


def _analysis_equal(a, b) -> bool:
    return (
        a.num_sets == b.num_sets
        and a.assoc == b.assoc
        and a.cold.counters() == b.cold.counters()
        and a.cold.end_state == b.cold.end_state
        and a.line_meta == b.line_meta
        and a.set_counts == b.set_counts
        and np.array_equal(a.packed_hits, b.packed_hits)
    )


class TestRoundTrips:
    def test_analysis_roundtrip(self, store):
        lines, writes = _trace()
        analysis = analyze_trace(lines, writes, 16, 2)
        fingerprint = trace_fingerprint(lines, writes)
        assert store.get_analysis(16, 2, fingerprint) is None
        store.put_analysis(16, 2, fingerprint, analysis)
        loaded = store.get_analysis(16, 2, fingerprint)
        assert loaded is not None and _analysis_equal(loaded, analysis)
        # The same fingerprint under another geometry is a distinct key.
        assert store.get_analysis(32, 2, fingerprint) is None

    def test_cell_roundtrip(self, store):
        payload = {"key": "a|b", "seconds": 0.25, "hits": 3}
        assert store.get_cell("k1") is None
        store.put_cell("k1", payload)
        assert store.get_cell("k1") == payload

    def test_sharing_roundtrip(self, store):
        matrix = np.arange(9, dtype=np.int64).reshape(3, 3)
        matrix = matrix + matrix.T
        store.put_sharing("s1", ("a", "b", "c"), matrix)
        pids, loaded = store.get_sharing("s1")
        assert pids == ("a", "b", "c")
        assert np.array_equal(loaded, matrix)

    def test_put_is_idempotent_first_writer_wins(self, store):
        store.put_cell("k", {"v": 1})
        store.put_cell("k", {"v": 2})  # INSERT OR IGNORE: no overwrite
        assert store.get_cell("k") == {"v": 1}

    def test_stats_and_clear(self, store):
        lines, writes = _trace()
        store.put_analysis(
            16, 2, trace_fingerprint(lines, writes), analyze_trace(lines, writes, 16, 2)
        )
        store.put_cell("c", {"v": 1})
        stats = store.stats()
        assert stats["entries"] == {"analysis": 1, "cell": 1}
        assert stats["version"] == STORE_VERSION
        store.clear()
        assert store.counts() == {}


def _writer(root: str, seed: int, barrier) -> None:
    store = MemoStore(root)
    lines, writes = _trace(0)  # every writer computes the same content
    analysis = analyze_trace(lines, writes, 16, 2)
    fingerprint = trace_fingerprint(lines, writes)
    barrier.wait()  # maximize overlap between the racing writers
    for _ in range(50):
        store.put_analysis(16, 2, fingerprint, analysis)
        store.put_cell("shared-cell", {"writer": seed})


class TestConcurrency:
    def test_two_writers_same_fingerprint(self, tmp_path):
        """Two processes racing identical keys: no errors, one row."""
        root = str(tmp_path / "memo")
        barrier = multiprocessing.Barrier(2)
        workers = [
            multiprocessing.Process(target=_writer, args=(root, seed, barrier))
            for seed in (1, 2)
        ]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(timeout=60)
            assert worker.exitcode == 0
        store = MemoStore(root)
        assert store.counts() == {"analysis": 1, "cell": 1}
        lines, writes = _trace(0)
        fingerprint = trace_fingerprint(lines, writes)
        loaded = store.get_analysis(16, 2, fingerprint)
        assert loaded is not None
        assert _analysis_equal(loaded, analyze_trace(lines, writes, 16, 2))
        # One of two identical-key writers won; either value is valid.
        assert store.get_cell("shared-cell")["writer"] in (1, 2)


class TestModesAndVersioning:
    def test_read_only_missing_store_reads_empty(self, tmp_path):
        store = MemoStore(tmp_path / "nope", mode="ro")
        assert store.get_cell("k") is None
        assert store.counts() == {}

    def test_read_only_never_writes(self, tmp_path):
        rw = MemoStore(tmp_path / "memo")
        rw.put_cell("k", {"v": 1})
        ro = MemoStore(tmp_path / "memo", mode="ro")
        ro.put_cell("k2", {"v": 2})  # silently ignored
        assert ro.get_cell("k") == {"v": 1}
        assert rw.get_cell("k2") is None
        with pytest.raises(MemoStoreError):
            ro.clear()

    def test_bad_mode_rejected(self, tmp_path):
        with pytest.raises(MemoStoreError):
            MemoStore(tmp_path, mode="append")

    def test_version_mismatch_drops_store(self, tmp_path):
        root = tmp_path / "memo"
        first = MemoStore(root)
        first.put_cell("k", {"v": 1})
        first.close()
        with sqlite3.connect(root / "memo.sqlite") as conn:
            conn.execute("UPDATE meta SET value='ancient' WHERE key='version'")
            conn.commit()
        reopened = MemoStore(root)
        assert reopened.get_cell("k") is None  # dropped, not trusted
        assert reopened.stats()["version"] == STORE_VERSION

    def test_version_mismatch_read_only_reads_empty(self, tmp_path):
        root = tmp_path / "memo"
        first = MemoStore(root)
        first.put_cell("k", {"v": 1})
        first.close()
        with sqlite3.connect(root / "memo.sqlite") as conn:
            conn.execute("UPDATE meta SET value='ancient' WHERE key='version'")
            conn.commit()
        ro = MemoStore(root, mode="ro")
        assert ro.get_cell("k") is None

    def test_corrupt_analysis_row_reads_as_miss(self, store):
        key = MemoStore.analysis_key(16, 2, b"\x00" * 16)
        store._put("analysis", key, b"not a pickle")
        assert store.get_analysis(16, 2, b"\x00" * 16) is None


class TestProcessWideActivation:
    def test_configure_and_deactivate(self, tmp_path):
        previous = active_memo_store()
        try:
            installed = configure_memo_store(tmp_path / "memo")
            assert active_memo_store() is installed
            assert configure_memo_store(None) is None
            assert active_memo_store() is None
        finally:
            configure_memo_store(
                previous.root if previous is not None else None
            )

    def test_memoized_analysis_uses_store(self, tmp_path):
        """A fresh in-RAM memo is repopulated from the persistent store."""
        previous = active_memo_store()
        lines, writes = _trace(5)
        fingerprint = trace_fingerprint(lines, writes)
        try:
            configure_memo_store(tmp_path / "memo")
            first = memoized_analysis(
                lines, writes, 16, 2, fingerprint, TraceMemo()
            )
            # New RAM memo (a "new process"): must come from the store,
            # not a recomputation.
            import repro.cache.memo as memo_module

            def boom(*args, **kwargs):
                raise AssertionError("analysis should come from the store")

            original = memo_module.analyze_trace
            memo_module.analyze_trace = boom
            try:
                second = memoized_analysis(
                    lines, writes, 16, 2, fingerprint, TraceMemo()
                )
            finally:
                memo_module.analyze_trace = original
            assert _analysis_equal(first, second)
        finally:
            configure_memo_store(
                previous.root if previous is not None else None
            )


class TestExecutorCellPersistence:
    def test_seed_invariant_cell_loads_from_store(self, tmp_path):
        from repro.campaign.executor import clear_cell_memo, execute_run
        from repro.campaign.spec import MachineVariant, RunSpec, SchedulerSpec

        previous = active_memo_store()
        try:
            configure_memo_store(tmp_path / "memo")
            run = RunSpec(
                workload="MxM",
                machine=MachineVariant(),
                scheduler=SchedulerSpec("LS"),
                seed=0,
                scale=0.25,
            )
            clear_cell_memo()
            first = execute_run(run)
            assert active_memo_store().counts().get("cell", 0) >= 1
            clear_cell_memo()  # a "new process"
            from repro.sim.simulator import MPSoCSimulator

            original = MPSoCSimulator.run

            def boom(*args, **kwargs):
                raise AssertionError("cell should come from the store")

            MPSoCSimulator.run = boom
            try:
                second = execute_run(run)
            finally:
                MPSoCSimulator.run = original
            assert second.to_dict() == first.to_dict()
            # A different seed of the same deterministic cell re-badges
            # the persisted simulation.
            clear_cell_memo()
            third = execute_run(
                RunSpec(
                    workload="MxM",
                    machine=run.machine,
                    scheduler=SchedulerSpec("LS"),
                    seed=9,
                    scale=0.25,
                )
            )
            assert third.seed == 9
            assert third.makespan_cycles == first.makespan_cycles
        finally:
            clear_cell_memo()
            configure_memo_store(
                previous.root if previous is not None else None
            )


class TestPluginPersistenceRestriction:
    def test_plugin_scheduler_cells_never_persist(self, tmp_path):
        """Plugin code can change between sessions without changing its
        registered name, so nothing derived from it may enter the store."""
        from repro.api.registries import SCHEDULERS
        from repro.campaign.executor import clear_cell_memo, execute_run
        from repro.campaign.spec import MachineVariant, RunSpec, SchedulerSpec
        from repro.sched.locality import LocalityScheduler

        previous = active_memo_store()
        SCHEDULERS.register(
            "store-test-ls",
            lambda seed, **params: LocalityScheduler(),
            description="persistence restriction test",
        )
        try:
            configure_memo_store(tmp_path / "memo")
            clear_cell_memo()
            execute_run(
                RunSpec(
                    workload="MxM",
                    machine=MachineVariant(),
                    scheduler=SchedulerSpec("store-test-ls"),
                    seed=0,
                    scale=0.25,
                )
            )
            assert active_memo_store().counts().get("cell", 0) == 0
        finally:
            clear_cell_memo()
            SCHEDULERS.unregister("store-test-ls")
            configure_memo_store(
                previous.root if previous is not None else None
            )


class TestMemoCli:
    def test_stats_and_clear(self, tmp_path, capsys):
        from repro.cli import main

        store = MemoStore(tmp_path / "memo")
        store.put_cell("k", {"v": 1})
        store.close()
        assert main(["memo", "stats", "--memo-dir", str(tmp_path / "memo")]) == 0
        out = capsys.readouterr().out
        assert "seed-invariant cells: 1" in out
        assert main(["memo", "clear", "--memo-dir", str(tmp_path / "memo")]) == 0
        assert main(["memo", "stats", "--memo-dir", str(tmp_path / "memo")]) == 0
        out = capsys.readouterr().out
        assert "seed-invariant cells: 0" in out
