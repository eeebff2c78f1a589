"""Worker-liveness leases: heartbeat files and the engine's reaper.

Leases catch the failure shape nothing else does: a worker that is
*dead but undetected* — stopped, wedged past its own crash reporting,
or killed in a way the pool never notices.  The heartbeat file's mtime
is the proof of life; when it goes stale the reaper charges exactly the
leased cell and resubmits the innocent bystanders.
"""

from __future__ import annotations

import os
import pickle
import threading
import time
from pathlib import Path

import pytest

import repro.campaign.leases as leases
from repro.api.engine import _SHARED_POOL, Engine
from repro.campaign.failures import classify_failure
from repro.campaign.leases import (
    LEASE_HEARTBEAT_FRACTION,
    MIN_HEARTBEAT_INTERVAL,
    grant_lease,
    heartbeat_age,
    heartbeat_interval,
)
from repro.campaign.spec import CampaignSpec, MachineVariant, SchedulerSpec
from repro.errors import CampaignError, LeaseExpiredError, WorkerCrashError
from repro.util.faults import configure_fault_plan


@pytest.fixture
def fault_plan():
    yield configure_fault_plan
    configure_fault_plan(None)


def _spec() -> CampaignSpec:
    return CampaignSpec(
        name="leases",
        workloads=("MxM",),
        machines=(MachineVariant(),),
        schedulers=(SchedulerSpec("RS"), SchedulerSpec("LS")),
        seeds=(0,),
        scale=0.25,
    )


class TestHeartbeatPrimitives:
    def test_interval_is_a_fraction_of_the_lease(self):
        assert heartbeat_interval(1.0) == pytest.approx(
            LEASE_HEARTBEAT_FRACTION
        )
        assert heartbeat_interval(100.0) == pytest.approx(
            100.0 * LEASE_HEARTBEAT_FRACTION
        )

    def test_interval_is_floored_for_tiny_leases(self):
        assert heartbeat_interval(0.001) == MIN_HEARTBEAT_INTERVAL

    def test_grant_creates_and_stamps(self, tmp_path):
        lease = tmp_path / "deep" / "unit-1.hb"
        grant_lease(lease)
        assert lease.exists()
        assert heartbeat_age(lease) < 5.0

    def test_age_of_missing_file_is_infinite(self, tmp_path):
        assert heartbeat_age(tmp_path / "gone.hb") == float("inf")

    def test_age_uses_mtime(self, tmp_path):
        lease = tmp_path / "unit-1.hb"
        grant_lease(lease)
        stale = time.time() - 60.0
        os.utime(lease, (stale, stale))
        assert heartbeat_age(lease) >= 59.0
        assert heartbeat_age(lease, now=stale) == 0.0

    def test_beat_renews_until_stopped(self, tmp_path):
        lease = tmp_path / "unit-1.hb"
        grant_lease(lease)
        stale = time.time() - 60.0
        os.utime(lease, (stale, stale))
        stop = threading.Event()
        thread = threading.Thread(
            target=leases._beat, args=(str(lease), 0.01, stop), daemon=True
        )
        thread.start()
        deadline = time.monotonic() + 5.0
        while heartbeat_age(lease) > 1.0 and time.monotonic() < deadline:
            time.sleep(0.01)
        stop.set()
        thread.join(timeout=5.0)
        assert heartbeat_age(lease) < 5.0

    def test_beat_stops_when_the_file_vanishes(self, tmp_path):
        lease = tmp_path / "unit-1.hb"
        stop = threading.Event()
        thread = threading.Thread(
            target=leases._beat, args=(str(lease), 0.01, stop), daemon=True
        )
        thread.start()  # file never existed: the first utime ends the loop
        thread.join(timeout=5.0)
        assert not thread.is_alive()


class TestLeaseExpiredError:
    def test_is_a_worker_crash(self):
        exc = LeaseExpiredError("MxM|m|RS|seed=0", 15.0)
        assert isinstance(exc, WorkerCrashError)
        assert classify_failure(exc) == "crash"

    def test_message_names_cell_and_lease(self):
        exc = LeaseExpiredError("MxM|m|RS|seed=0", 15.0)
        assert "MxM|m|RS|seed=0" in str(exc)
        assert "15" in str(exc)
        assert "heartbeat" in str(exc)

    def test_survives_pickle(self):
        exc = LeaseExpiredError("cell-key", 2.5)
        clone = pickle.loads(pickle.dumps(exc))
        assert type(clone) is LeaseExpiredError
        assert str(clone) == str(exc)
        assert clone.key == "cell-key"
        assert clone.lease_seconds == 2.5


class TestEngineValidation:
    @pytest.mark.parametrize("bad", [0, -1.0])
    def test_nonpositive_lease_rejected(self, bad):
        with pytest.raises(CampaignError, match="lease_seconds"):
            Engine(jobs=2, lease_seconds=bad).run_campaign(_spec())

    def test_lease_ignored_off_processes_policy(self):
        # Threads share the parent; liveness leases are meaningless and
        # must not interfere (a 10ms lease would expire every cell).
        outcome = Engine(
            jobs=2, policy="threads", lease_seconds=0.01
        ).run_campaign(_spec())
        assert not outcome.failures
        assert len(outcome.results) == 2


class TestReaper:
    def test_queued_units_do_not_expire_behind_a_full_pool(
        self, fault_plan, tmp_path
    ):
        """Cells legitimately running longer than the lease must never
        expire units waiting for pool capacity.  The executor premarks
        queued futures as running, so if they were dispatched eagerly a
        queued unit would anchor its lease with no worker heartbeating
        it — the engine instead caps in-flight units at ``jobs``, and a
        lease only ages once a worker actually holds the unit."""
        _SHARED_POOL.retire(kill=True)
        # Every cell runs ~1s (heartbeats keep flowing during the
        # delay) against a 0.4s lease: with 4 cells on 2 workers, two
        # units always wait while both workers are legitimately busy
        # for longer than a full lease.
        fault_plan(f"ledger={tmp_path}; delay@cell:*,seconds=1.0")
        spec = CampaignSpec(
            name="lease-queue",
            workloads=("MxM",),
            machines=(MachineVariant(),),
            schedulers=(SchedulerSpec("RS"), SchedulerSpec("LS")),
            seeds=(0, 1),
            scale=0.25,
        )
        outcome = Engine(
            jobs=2, policy="processes", lease_seconds=0.4, keep_going=True
        ).run_campaign(spec)
        assert not outcome.failures
        assert len(outcome.results) == 4

    def test_leases_are_inert_on_healthy_runs(self):
        outcome = Engine(
            jobs=2, policy="processes", lease_seconds=30.0
        ).run_campaign(_spec())
        assert not outcome.failures
        assert len(outcome.results) == 2

    def test_stale_heartbeat_expires_exactly_the_leased_cell(
        self, fault_plan, tmp_path, monkeypatch
    ):
        """A worker that stops beating is presumed dead: its cell is
        charged a LeaseExpiredError (kind crash) while the innocent
        cells complete on a fresh pool."""
        # Silence the worker-side heartbeat thread; forked workers
        # inherit the patched module, so the lease granted at dispatch
        # is never renewed.  The pool must fork *after* the patch.
        monkeypatch.setattr(leases, "_beat", lambda path, interval, stop: None)
        _SHARED_POOL.retire(kill=True)
        # The hang keeps the victim alive well past the lease without
        # raising, which is exactly the shape only the reaper catches.
        fault_plan(
            f"ledger={tmp_path}; hang@cell:MxM|*|LS|seed=0*,seconds=15,times=1"
        )
        outcome = Engine(
            jobs=2, policy="processes", lease_seconds=0.5, keep_going=True
        ).run_campaign(_spec())
        assert len(outcome.failures) == 1
        failure = outcome.failures[0]
        assert failure.kind == "crash"
        assert "lease" in failure.error
        assert "LS" in failure.key
        assert len(outcome.results) == 1
        assert "RS" in outcome.results[0].key

    def test_expired_cell_recovers_through_retries(
        self, fault_plan, tmp_path, monkeypatch
    ):
        """With a retry budget the expiry is absorbed: the fault ledger
        exhausts, the retry beats normally, and the campaign matches the
        fault-free run."""
        baseline = Engine().run_campaign(_spec())
        monkeypatch.setattr(leases, "_beat", lambda path, interval, stop: None)
        _SHARED_POOL.retire(kill=True)
        fault_plan(
            f"ledger={tmp_path}; hang@cell:MxM|*|LS|seed=0*,seconds=15,times=1"
        )
        outcome = Engine(
            jobs=2,
            policy="processes",
            lease_seconds=0.5,
            max_retries=1,
            keep_going=True,
        ).run_campaign(_spec())
        assert not outcome.failures

        def comparable(results):
            return {
                r.key: {
                    k: v
                    for k, v in r.to_dict().items()
                    if k not in ("seconds", "downgraded")
                }
                for r in results
            }

        assert comparable(outcome.results) == comparable(baseline.results)
