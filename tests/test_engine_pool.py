"""Worker-pool reuse and workload-grouped chunking in the engine."""

from __future__ import annotations

import gc
import threading
import weakref
from concurrent.futures import ThreadPoolExecutor

import pytest

import repro.api.engine as engine_module
from repro.api.engine import Engine, _chunk_runs
from repro.campaign.spec import CampaignSpec, MachineVariant, RunSpec, SchedulerSpec
from repro.util.faults import configure_fault_plan
from repro.util.invalidation import bump_worker_state_epoch


def _collect() -> bool:
    gc.collect()
    return True


class _Node:
    pass


def _runs(workloads, schedulers=("LS", "RS"), seeds=(0,), scale=0.25):
    return [
        RunSpec(
            workload=ref,
            machine=MachineVariant(),
            scheduler=SchedulerSpec(name),
            seed=seed,
            scale=scale,
        )
        for ref in workloads
        for name in schedulers
        for seed in seeds
    ]


class TestChunking:
    def test_partitions_all_indices_exactly_once(self):
        runs = _runs(["MxM", "Radar", "mix:2"], seeds=(0, 1))
        chunks = _chunk_runs(runs, jobs=2)
        flat = sorted(index for chunk in chunks for index in chunk)
        assert flat == list(range(len(runs)))

    def test_groups_by_workload(self):
        runs = _runs(["MxM", "Radar"], seeds=(0, 1))
        chunks = _chunk_runs(runs, jobs=2)
        for chunk in chunks:
            assert len({runs[index].workload for index in chunk}) == 1

    def test_heavy_workloads_dispatch_first(self):
        runs = _runs(["MxM", "mix:6"])
        chunks = _chunk_runs(runs, jobs=2)
        assert runs[chunks[0][0]].workload == "mix:6"

    def test_single_workload_grid_still_splits(self):
        runs = _runs(["MxM"], schedulers=("LS",), seeds=range(40))
        chunks = _chunk_runs(runs, jobs=4)
        assert len(chunks) > 1
        assert max(len(chunk) for chunk in chunks) <= 10


class TestProcessPoolReuse:
    def test_results_ordered_and_streamed(self):
        runs = _runs(["MxM", "Radar"])
        seen = []
        results = Engine(jobs=2, policy="processes").run_many(
            runs, on_result=lambda r: seen.append(r.key)
        )
        assert [r.key for r in results] == [run.cell_key() for run in runs]
        assert sorted(seen) == sorted(run.cell_key() for run in runs)

    def test_pool_survives_across_calls(self):
        engine = Engine(jobs=2, policy="processes")
        engine.run_many(_runs(["MxM"], schedulers=("LS",)))
        first = engine_module._SHARED_POOL.pool
        assert first is not None
        engine.run_many(_runs(["Radar"], schedulers=("LS",)))
        assert engine_module._SHARED_POOL.pool is first

    def test_worker_state_change_retires_pool(self):
        engine = Engine(jobs=2, policy="processes")
        engine.run_many(_runs(["MxM"]))
        first = engine_module._SHARED_POOL.pool
        bump_worker_state_epoch()  # what any plugin registration does
        engine.run_many(_runs(["Radar"]))
        second = engine_module._SHARED_POOL.pool
        assert second is not None and second is not first

    def test_private_engine_leaves_the_shared_cache_alone(self):
        engine_module._SHARED_POOL.retire()
        runs = _runs(["MxM"])
        with Engine(jobs=2, policy="processes", private_pool=True) as engine:
            results = engine.run_many(runs)
            assert [r.key for r in results] == [run.cell_key() for run in runs]
            assert engine_module._SHARED_POOL.pool is None

    def test_private_pool_survives_across_calls_and_closes(self):
        engine = Engine(jobs=2, policy="processes", private_pool=True)
        try:
            engine.run_many(_runs(["MxM"]))
            owner = engine._pools
            assert owner is not engine_module._SHARED_POOL
            first = owner.pool
            assert first is not None
            engine.run_many(_runs(["Radar"]))
            assert engine._pools is owner and owner.pool is first
        finally:
            engine.close()
        assert owner.pool is None

    def test_run_campaign_uses_the_private_pool(self):
        engine_module._SHARED_POOL.retire()
        spec = CampaignSpec(
            name="private-campaign",
            workloads=("MxM",),
            machines=(MachineVariant(),),
            schedulers=(SchedulerSpec("LS"), SchedulerSpec("RS")),
            scale=0.25,
        )
        with Engine(jobs=2, private_pool=True) as engine:
            outcome = engine.run_campaign(spec)
            assert engine._pools.pool is not None
            assert engine_module._SHARED_POOL.pool is None
        assert len(outcome.results) == 2

    def test_one_pool_lives_at_a_time(self):
        Engine(jobs=2, policy="processes").run_many(_runs(["MxM"]))
        first = engine_module._SHARED_POOL.pool
        Engine(jobs=3, policy="processes").run_many(_runs(["MxM"]))
        second = engine_module._SHARED_POOL.pool
        assert second is not None and second is not first
        with pytest.raises(RuntimeError, match="shutdown"):
            first.submit(int)

    def test_hung_cell_recovery_does_not_disrupt_a_sibling_engine(
        self, tmp_path
    ):
        """Two engines running concurrently in one process (the campaign
        service's shape): one engine's cell-timeout recovery terminates
        *its* pool only — the sibling's in-flight workers keep going."""
        configure_fault_plan(
            f"ledger={tmp_path}; hang@cell:MxM|*|LS|seed=0*,seconds=30,times=1"
        )
        try:
            hung = Engine(
                jobs=2, policy="processes", private_pool=True,
                cell_timeout=1.0, keep_going=True,
            )
            healthy = Engine(jobs=2, policy="processes", private_pool=True)
            healthy_runs = _runs(["Radar"], seeds=(0, 1, 2, 3))
            with hung, healthy, ThreadPoolExecutor(max_workers=2) as threads:
                hung_failures = []
                hung_future = threads.submit(
                    hung.run_many,
                    _runs(["MxM"]),
                    on_failure=hung_failures.append,
                )
                healthy_results = healthy.run_many(healthy_runs)
                hung_results = hung_future.result(timeout=60)
            assert [r.key for r in healthy_results] == [
                run.cell_key() for run in healthy_runs
            ]
            assert [f.kind for f in hung_failures] == ["timeout"]
            assert len(hung_results) == 1
        finally:
            configure_fault_plan(None)

    def test_plugin_registered_after_pool_reaches_workers(self):
        from repro.api.registries import SCHEDULERS
        from repro.sched.fifo import FifoScheduler

        engine = Engine(jobs=2, policy="processes")
        engine.run_many(_runs(["MxM"]))
        name = "pool-test-sched"
        SCHEDULERS.register(
            name,
            lambda seed, **params: FifoScheduler(),
            description="pool reuse test plugin",
        )
        try:
            runs = _runs(["MxM", "Radar"], schedulers=(name,))
            results = engine.run_many(runs)
            assert [r.key for r in results] == [run.cell_key() for run in runs]
        finally:
            SCHEDULERS.unregister(name)

    def test_workers_never_collect_inherited_garbage(self):
        """A fork copies the parent's garbage and its locks, held ones
        included.  Garbage whose callback takes a lock held at the fork
        (a retired pool's wakeup callback and its shutdown lock) would
        deadlock a worker that collected it; workers leave it alone."""
        lock = threading.Lock()
        fired = []
        pools = engine_module._WorkerPool()
        gc.disable()  # keep the cycle uncollected until the fork
        try:
            node = _Node()
            node.cycle = node
            guard = weakref.ref(
                node, lambda _: (lock.acquire(), lock.release(), fired.append(1))
            )
            del node
            with lock:
                future = pools.acquire(1).submit(_collect)
            assert future.result(timeout=30)
        finally:
            gc.enable()
            pools.retire(kill=True)
        gc.collect()
        assert fired == [1]  # the parent still collects its own garbage
        assert guard() is None
