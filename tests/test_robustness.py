"""End-to-end fault-tolerance: crashes, hangs, corruption, downgrades.

Each scenario drives the real execution stack (campaign machinery, the
process pool, the SQLite memo store) under a seeded fault plan and
asserts the layer's contract: surviving results identical to a fault-free
run, failures attributed to exactly the right cells, and every degraded
component rebuilt warm.
"""

from __future__ import annotations

import dataclasses
import sys
import threading
import warnings

import pytest

from repro.api.engine import Engine
from repro.cache.memo import fast_cache_enabled, scalar_fallback, set_fast_cache
from repro.campaign.executor import clear_cell_memo
from repro.campaign.spec import CampaignSpec, MachineVariant, SchedulerSpec
from repro.campaign.store import ResultStore
from repro.cache.store import MemoStore
from repro.util.faults import configure_fault_plan

# Ambient REPRO_FAULT_PLAN hygiene comes from conftest.py's shared
# autouse environment fixtures.


@pytest.fixture
def fault_plan():
    yield configure_fault_plan
    configure_fault_plan(None)


def _spec(schedulers=("RS", "LS"), seeds=(0, 1)):
    return CampaignSpec(
        name="chaos",
        workloads=("MxM", "Shape"),
        machines=(MachineVariant(),),
        schedulers=tuple(SchedulerSpec(s) for s in schedulers),
        seeds=tuple(seeds),
        scale=0.25,
    )


def _batched_rrs_spec(workloads, scale):
    """RRS on a 32k-cycle quantum: every core runs its quanta through the
    batched executor (the paper machine's 8k quantum stays under the
    adaptive window)."""
    return CampaignSpec(
        name="downgrade",
        workloads=tuple(workloads),
        machines=(MachineVariant("quantum-32k", (("quantum_cycles", 32000),)),),
        schedulers=(SchedulerSpec("RRS"),),
        seeds=(0,),
        scale=scale,
    )


def _result_dicts(results):
    return {r.key: {k: v for k, v in r.to_dict().items() if k != "downgraded"}
            for r in results}


class TestWorkerCrash:
    def test_seeded_worker_kill_recovers_identically(self, fault_plan, tmp_path):
        """A mid-campaign worker crash (os._exit) must not lose or skew
        any *other* cell: with a retry budget the campaign completes and
        every result is identical to the fault-free run."""
        spec = _spec()
        clear_cell_memo()
        baseline = Engine().run_campaign(spec)
        fault_plan(f"ledger={tmp_path}; crash@cell:Shape|*|LS|seed=0*,times=1")
        clear_cell_memo()  # private workers fork with an empty cell memo
        with Engine(
            jobs=2, max_retries=1, keep_going=True, private_pool=True
        ) as engine:
            outcome = engine.run_campaign(spec)
        assert not outcome.failures
        assert _result_dicts(outcome.results) == _result_dicts(baseline.results)

    def test_persistent_crash_is_quarantined_as_crash(self, fault_plan, tmp_path):
        """A cell that crashes on every attempt exhausts its budget and
        is quarantined as kind="crash"; its chunk siblings — which the
        pool break also killed — recover on resubmission."""
        spec = _spec(seeds=(0,))
        fault_plan(f"ledger={tmp_path}; crash@cell:Shape|*|LS|*,times=5")
        outcome = Engine(jobs=2, max_retries=1, keep_going=True).run_campaign(spec)
        assert len(outcome.failures) == 1
        failure = outcome.failures[0]
        assert failure.kind == "crash"
        assert failure.workload == "Shape"
        assert failure.scheduler == "LS"
        assert failure.attempts == 2
        # every other cell still completed
        assert len(outcome.results) == spec.num_cells - 1


class TestHungCells:
    def test_hung_process_cell_times_out_and_rest_complete(
        self, fault_plan, tmp_path
    ):
        spec = _spec(seeds=(0,))
        fault_plan(
            f"ledger={tmp_path}; hang@cell:Shape|*|LS|*,seconds=60,times=2"
        )
        outcome = Engine(jobs=2, cell_timeout=2.0, keep_going=True).run_campaign(spec)
        assert [f.kind for f in outcome.failures] == ["timeout"]
        assert outcome.failures[0].workload == "Shape"
        assert len(outcome.results) == spec.num_cells - 1

    def test_timeout_quarantine_is_repaired_by_resume(
        self, fault_plan, tmp_path
    ):
        spec = _spec(seeds=(0,))
        store = ResultStore(tmp_path / "campaign.jsonl")
        fault_plan(
            f"ledger={tmp_path}/led; hang@cell:Shape|*|LS|*,seconds=60,times=2"
        )
        outcome = Engine(
            jobs=2, cell_timeout=2.0, keep_going=True, store=store
        ).run_campaign(spec)
        assert len(outcome.failures) == 1
        assert store.load_failures().keys() == {outcome.failures[0].key}
        configure_fault_plan(None)
        repaired = Engine(store=store, resume=True).run_campaign(spec)
        assert repaired.skipped == spec.num_cells - 1
        assert len(repaired.results) == spec.num_cells
        assert store.load_failures() == {}


class TestStoreCorruption:
    def test_corrupt_database_is_quarantined_and_rebuilt_warm(self, tmp_path):
        store = MemoStore(tmp_path)
        store.put_cell("cell-key", {"value": 1})
        store.close()
        # scribble over the SQLite header
        db = tmp_path / "memo.sqlite"
        with db.open("r+b") as handle:
            handle.write(b"\x00CHAOS\xff" * 128)
        for sidecar in (tmp_path / "memo.sqlite-wal", tmp_path / "memo.sqlite-shm"):
            sidecar.unlink(missing_ok=True)

        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            healed = MemoStore(tmp_path)
            assert healed.get_cell("cell-key") is None  # contents are gone
            healed.put_cell("cell-key", {"value": 2})  # ...but writes work
            assert healed.get_cell("cell-key") == {"value": 2}
        assert healed.health["status"] == "quarantined"
        assert any("quarantined" in str(w.message) for w in caught)
        corpse = tmp_path / "memo.sqlite.corrupt.0"
        assert corpse.exists()
        # the rebuilt database passes its own integrity check
        report = healed.verify()
        assert report["status"] == "ok"
        assert report["integrity"] == "ok"
        healed.close()

    def test_zero_byte_database_reads_as_empty(self, tmp_path):
        (tmp_path / "memo.sqlite").touch()
        store = MemoStore(tmp_path, mode="ro")
        assert store.get_cell("anything") is None
        assert store.counts() == {}
        report = store.verify()
        assert report["status"] == "stale"  # valid empty db, no version stamp
        store.close()

    def test_readonly_attach_to_corrupt_db_reports_health(self, tmp_path):
        (tmp_path / "memo.sqlite").write_bytes(b"\x00CHAOS\xff" * 512)
        store = MemoStore(tmp_path, mode="ro")
        assert store.get_cell("anything") is None
        assert store.health["status"] == "corrupt"
        assert store.verify()["status"] == "corrupt"
        # ro mode must never quarantine (rename) the file
        assert (tmp_path / "memo.sqlite").exists()
        assert not (tmp_path / "memo.sqlite.corrupt.0").exists()
        store.close()

    def test_injected_store_corruption_heals_in_campaign(
        self, fault_plan, tmp_path
    ):
        """corrupt@store fires at connection setup; the campaign must
        still complete (memo degradation is never a simulation failure)."""
        from repro.cache.store import configure_memo_store

        memo_dir = tmp_path / "memo"
        store = MemoStore(memo_dir)
        store.put_cell("seed-entry", {"value": 1})
        store.close()
        fault_plan(f"ledger={tmp_path}/led; corrupt@store,times=1")
        configure_memo_store(memo_dir)
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)
                outcome = Engine().run_campaign(_spec(seeds=(0,)))
            assert len(outcome.results) == _spec(seeds=(0,)).num_cells
        finally:
            configure_memo_store(None)

    def test_uncreatable_memo_dir_degrades_to_readonly(self, tmp_path):
        # a *file* where the parent directory should be: mkdir raises
        # (chmod tricks do not work under root, this always does)
        (tmp_path / "blocked").write_text("not a directory")
        store = MemoStore(tmp_path / "blocked" / "memo")
        assert store.mode == "ro"
        assert store.health["status"] == "read-only"
        store.put_cell("k", {"v": 1})  # silently a no-op
        assert store.get_cell("k") is None


class TestGracefulDowngrade:
    def test_qplan_fault_downgrades_cell_to_scalar_identically(
        self, fault_plan, tmp_path
    ):
        """A cell whose batched executor raises re-runs on the scalar
        oracle: same numbers, plus a downgrade note."""
        spec = _batched_rrs_spec(("MxM",), scale=1.0)
        clear_cell_memo()
        fault_plan(f"ledger={tmp_path}; error@qplan,times=1")
        previous = set_fast_cache(True)
        try:
            faulty = Engine().run_campaign(spec).results[0]
            assert faulty.downgraded is not None
            assert "InjectedFaultError" in faulty.downgraded

            configure_fault_plan(None)
            clear_cell_memo()
            set_fast_cache(False)
            scalar = Engine().run_campaign(spec).results[0]
        finally:
            set_fast_cache(previous)
            clear_cell_memo()
        fa = dataclasses.asdict(faulty)
        fb = dataclasses.asdict(scalar)
        fa.pop("downgraded"), fb.pop("downgraded")
        assert fa == fb

    def test_downgrade_note_persists_through_the_store(self, tmp_path):
        from repro.campaign.executor import RunResult

        result = RunResult(
            key="k", workload="MxM", machine="paper", scheduler="LS",
            scheduler_name="LS", seed=0, scale=1.0, seconds=0.1,
            makespan_cycles=100, miss_rate=0.01, hits=99, misses=1,
            utilization=0.5, downgraded="ValueError: bad plan",
        )
        store = ResultStore(tmp_path / "r.jsonl")
        store.append(result)
        loaded = store.load()["k"]
        assert loaded.downgraded == "ValueError: bad plan"
        # absent on the fast path: the historical schema is unchanged
        clean = dataclasses.replace(result, downgraded=None)
        assert "downgraded" not in clean.to_dict()

    def test_scalar_fallback_restores_engine_state(self):
        before = fast_cache_enabled()
        with scalar_fallback():
            assert not fast_cache_enabled()
        assert fast_cache_enabled() == before

    def test_overlapping_fallbacks_stay_per_thread(self):
        """A enters, B enters, A exits, B exits: each override is its own
        thread's, so neither leaks to the process or to the other."""
        steps = {name: threading.Event() for name in ("a_in", "b_in", "a_out")}
        seen: dict[str, bool] = {}

        def thread_a():
            with scalar_fallback():
                steps["a_in"].set()
                steps["b_in"].wait(10)
                seen["a_inside"] = fast_cache_enabled()
            steps["a_out"].set()

        def thread_b():
            steps["a_in"].wait(10)
            with scalar_fallback():
                steps["b_in"].set()
                steps["a_out"].wait(10)
                seen["b_after_a_exits"] = fast_cache_enabled()
            seen["b_after"] = fast_cache_enabled()

        previous = set_fast_cache(True)
        try:
            threads = [threading.Thread(target=f) for f in (thread_a, thread_b)]
            for thread in threads:
                thread.start()
            steps["b_in"].wait(10)
            seen["main_during"] = fast_cache_enabled()
            for thread in threads:
                thread.join(10)
                assert not thread.is_alive()
            assert seen == {
                "a_inside": False,
                "main_during": True,
                "b_after_a_exits": False,
                "b_after": True,
            }
            assert fast_cache_enabled()
        finally:
            set_fast_cache(previous)

    def test_fallback_churn_never_leaks_across_threads(self):
        """Eight threads entering and leaving the fallback under a tiny
        switch interval: an observer thread never sees the switch off,
        no churner sees it on inside its scope, and it ends on."""
        stop = threading.Event()
        wrong: list[str] = []

        def churn():
            for _ in range(300):
                with scalar_fallback():
                    if fast_cache_enabled():
                        wrong.append("on inside a fallback")

        def observe():
            while not stop.is_set():
                if not fast_cache_enabled():
                    wrong.append("off outside every fallback")

        previous = set_fast_cache(True)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            observer = threading.Thread(target=observe)
            observer.start()
            churners = [threading.Thread(target=churn) for _ in range(8)]
            for thread in churners:
                thread.start()
            for thread in churners:
                thread.join(30)
                assert not thread.is_alive()
            stop.set()
            observer.join(30)
            assert not observer.is_alive()
            assert not wrong
            assert fast_cache_enabled()
        finally:
            stop.set()
            sys.setswitchinterval(interval)
            set_fast_cache(previous)

    def test_concurrent_downgrades_under_threads(self, fault_plan, tmp_path):
        """Two cells whose batched executor raises at once, on sibling
        threads: both downgrade, neither is judged organic and
        quarantined, and the switch is back on afterwards."""
        spec = _batched_rrs_spec(("MxM", "Shape"), scale=1.0)
        clear_cell_memo()
        fault_plan(f"ledger={tmp_path}; error@qplan,times=2")
        previous = set_fast_cache(True)
        try:
            outcome = Engine(
                jobs=2, policy="threads", keep_going=True
            ).run_campaign(spec)
            assert fast_cache_enabled()
        finally:
            set_fast_cache(previous)
            clear_cell_memo()
        assert not outcome.failures
        assert len(outcome.results) == 2
        for result in outcome.results:
            assert "InjectedFaultError" in (result.downgraded or "")

    def test_organic_error_on_scalar_path_still_raises(self, fault_plan, tmp_path):
        """With the fast paths off, there is no oracle to fall back to:
        the error must propagate (no infinite downgrade loops)."""
        from repro.errors import InjectedFaultError

        fault_plan(f"ledger={tmp_path}; error@cell:*|LS|*")
        previous = set_fast_cache(False)
        try:
            with pytest.raises(InjectedFaultError):
                Engine().run_many(_spec(schedulers=("LS",), seeds=(0,)).expand())
        finally:
            set_fast_cache(previous)


class TestArtefactStability:
    def test_robustness_knobs_leave_results_byte_identical(self):
        """max_retries/cell_timeout/keep_going engaged (but never firing)
        must not perturb a single simulated number."""
        spec = _spec(seeds=(0,))
        clear_cell_memo()
        plain = Engine().run_campaign(spec)
        clear_cell_memo()  # private workers fork with an empty cell memo
        with Engine(
            jobs=2,
            max_retries=2,
            cell_timeout=120.0,
            keep_going=True,
            private_pool=True,
        ) as engine:
            hardened = engine.run_campaign(spec)
        assert not hardened.failures
        assert _result_dicts(plain.results) == _result_dicts(hardened.results)
