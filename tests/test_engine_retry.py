"""Retry, timeout, and quarantine semantics of the engine fan-out."""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.api.engine import BACKOFF_BASE, BACKOFF_CAP, Engine, _backoff_delay
from repro.campaign.executor import run_campaign
from repro.campaign.failures import CellFailure, classify_failure
from repro.campaign.rollup import render_failures, render_rollup, results_to_csv
from repro.campaign.spec import MachineVariant, RunSpec, SchedulerSpec
from repro.campaign.store import ResultStore
from repro.errors import (
    CampaignError,
    CellTimeoutError,
    InjectedFaultError,
    WorkerCrashError,
)
from repro.util.faults import configure_fault_plan

# Ambient REPRO_FAULT_PLAN hygiene comes from conftest.py's shared
# autouse environment fixtures.


@pytest.fixture
def fault_plan():
    """Install a fault plan the supported way (epoch-bumping).

    Plain ``setenv`` would leave a previously-forked worker pool running
    with the old environment; ``configure_fault_plan`` retires it.
    """
    yield configure_fault_plan
    configure_fault_plan(None)


def _runs(workloads=("MxM",), schedulers=("LS", "RS"), seeds=(0,)):
    return [
        RunSpec(
            workload=ref,
            machine=MachineVariant(),
            scheduler=SchedulerSpec(name),
            seed=seed,
            scale=0.25,
        )
        for ref in workloads
        for name in schedulers
        for seed in seeds
    ]


def _spec(workloads=("MxM", "Shape"), schedulers=("RS", "LS"), seeds=(0,)):
    from repro.campaign.spec import CampaignSpec

    return CampaignSpec(
        name="retry-test",
        workloads=tuple(workloads),
        machines=(MachineVariant(),),
        schedulers=tuple(SchedulerSpec(s) for s in schedulers),
        seeds=tuple(seeds),
        scale=0.25,
    )


class TestBackoff:
    def test_schedule_is_capped_exponential(self):
        assert _backoff_delay(1) == BACKOFF_BASE
        assert _backoff_delay(2) == BACKOFF_BASE * 2
        assert _backoff_delay(3) == BACKOFF_BASE * 4
        assert _backoff_delay(100) == BACKOFF_CAP

    def test_engine_validates_knobs(self):
        with pytest.raises(CampaignError):
            Engine(max_retries=-1)
        with pytest.raises(CampaignError):
            Engine(cell_timeout=0.0)
        with pytest.raises(CampaignError):
            Engine(cell_timeout=-1.0)


class TestSerialRetry:
    def test_transient_fault_is_retried_away(self, fault_plan, tmp_path):
        # The injected error fires once; the retry then succeeds.
        fault_plan(
            f"ledger={tmp_path}; error@cell:*|LS|*,times=1"
        )
        runs = _runs()
        results = Engine(max_retries=2).run_many(runs)
        assert [r.key for r in results] == [run.cell_key() for run in runs]

    def test_abort_reraises_the_original_error(self, fault_plan, tmp_path):
        fault_plan(f"ledger={tmp_path}; error@cell:*|LS|*")
        with pytest.raises(InjectedFaultError):
            Engine(max_retries=1).run_many(_runs())

    def test_keep_going_quarantines_and_finishes(self, fault_plan, tmp_path):
        fault_plan(f"ledger={tmp_path}; error@cell:*|LS|*")
        failures: list[CellFailure] = []
        results = Engine(max_retries=1, keep_going=True).run_many(
            _runs(), on_failure=failures.append
        )
        assert len(results) == 1  # the RS cell
        assert results[0].scheduler == "RS"
        assert len(failures) == 1
        failure = failures[0]
        assert failure.kind == "error"
        assert failure.injected is True
        assert failure.attempts == 2
        assert failure.scheduler == "LS"
        assert "injected fault" in failure.error

    def test_serial_cell_timeout_fires(self, fault_plan, tmp_path):
        fault_plan(
            f"ledger={tmp_path}; hang@cell:*|LS|*,seconds=30"
        )
        failures: list[CellFailure] = []
        results = Engine(cell_timeout=0.5, keep_going=True).run_many(
            _runs(), on_failure=failures.append
        )
        assert len(results) == 1
        assert [f.kind for f in failures] == ["timeout"]

    def test_serial_timeout_abort_raises_cell_timeout(
        self, fault_plan, tmp_path
    ):
        fault_plan(
            f"ledger={tmp_path}; hang@cell:*|RS|*,seconds=30"
        )
        with pytest.raises(CellTimeoutError) as info:
            Engine(cell_timeout=0.5).run_many(_runs(schedulers=("RS",)))
        assert "RS" in info.value.key
        assert info.value.timeout == 0.5


class TestPooledRetry:
    @pytest.mark.parametrize("policy", ["threads", "processes"])
    def test_keep_going_quarantines_across_policies(
        self, fault_plan, tmp_path, policy
    ):
        fault_plan(f"ledger={tmp_path}; error@cell:*|LS|*")
        failures: list[CellFailure] = []
        runs = _runs(workloads=("MxM", "Shape"))
        results = Engine(jobs=2, policy=policy, keep_going=True).run_many(
            runs, on_failure=failures.append
        )
        assert len(results) == 2  # both RS cells
        assert {f.workload for f in failures} == {"MxM", "Shape"}
        assert all(f.kind == "error" for f in failures)

    @pytest.mark.parametrize("policy", ["threads", "processes"])
    def test_transient_fault_retried_across_policies(
        self, fault_plan, tmp_path, policy
    ):
        fault_plan(
            f"ledger={tmp_path}; error@cell:*|LS|*,times=1"
        )
        runs = _runs(workloads=("MxM", "Shape"))
        results = Engine(jobs=2, policy=policy, max_retries=2).run_many(runs)
        assert sorted(r.key for r in results) == sorted(
            run.cell_key() for run in runs
        )

    @pytest.mark.parametrize("policy", ["threads", "processes"])
    def test_abort_reraises_original_across_policies(
        self, fault_plan, tmp_path, policy
    ):
        fault_plan(f"ledger={tmp_path}; error@cell:*|LS|*")
        with pytest.raises(InjectedFaultError):
            Engine(jobs=2, policy=policy).run_many(
                _runs(workloads=("MxM", "Shape"))
            )


class TestFailureRecords:
    def test_classify_failure(self):
        assert classify_failure(CellTimeoutError("k", 1.0)) == "timeout"
        assert classify_failure(WorkerCrashError("k")) == "crash"
        assert classify_failure(ValueError("boom")) == "error"

    def test_round_trips_through_dict(self):
        failure = CellFailure(
            key="MxM|paper|LS|seed=0|scale=0.25|deadbeef",
            workload="MxM",
            machine="paper",
            scheduler="LS",
            seed=0,
            scale=0.25,
            kind="timeout",
            error="too slow",
            error_type="CellTimeoutError",
            attempts=3,
            elapsed=1.25,
            injected=True,
        )
        data = failure.to_dict()
        assert data["failure"] is True
        assert CellFailure.from_dict(json.loads(json.dumps(data))) == failure

    def test_store_quarantine_lines_do_not_load_as_results(self, tmp_path):
        store = ResultStore(tmp_path / "r.jsonl")
        spec = _spec()
        outcome = run_campaign(spec)  # no store: nothing persisted yet
        failure = CellFailure(
            key=outcome.results[0].key,
            workload="MxM",
            machine="paper",
            scheduler="RS",
            seed=0,
            scale=0.25,
            kind="crash",
            error="died",
            error_type="WorkerCrashError",
            attempts=1,
            elapsed=0.5,
        )
        store.append_failure(failure)
        # a quarantine record is not a result: resume re-attempts it
        assert failure.key not in store.load()
        assert store.load_failures()[failure.key].kind == "crash"
        # the repair pass appends the success; the failure is superseded
        store.append(outcome.results[0])
        assert failure.key in store.load()
        assert store.load_failures() == {}

    def test_campaign_keep_going_records_and_resume_repairs(
        self, fault_plan, tmp_path
    ):
        fault_plan(f"ledger={tmp_path}; error@cell:*|LS|*")
        store = ResultStore(tmp_path / "campaign.jsonl")
        spec = _spec()
        outcome = run_campaign(spec, store=store, keep_going=True)
        assert len(outcome.failures) == 2
        assert outcome.total == spec.num_cells
        assert outcome.executed == spec.num_cells - 2
        assert store.load_failures().keys() == {
            f.key for f in outcome.failures
        }
        # repair pass: faults cleared, --resume re-attempts only the
        # quarantined cells and the store converges to fully complete
        fault_plan(None)
        repaired = run_campaign(spec, store=store, resume=True)
        assert repaired.skipped == spec.num_cells - 2
        assert len(repaired.results) == spec.num_cells
        assert not repaired.failures
        assert store.load_failures() == {}

    def test_rollup_and_csv_tolerate_missing_cells(
        self, fault_plan, tmp_path
    ):
        fault_plan(f"ledger={tmp_path}; error@cell:*|LS|*")
        outcome = run_campaign(_spec(), keep_going=True)
        table = render_rollup(outcome.results)
        assert "LS" not in table  # quarantined group absent, table renders
        csv_text = results_to_csv(outcome.results)
        assert len(csv_text.strip().splitlines()) == 1 + len(outcome.results)

    def test_render_failures_table(self):
        failure = CellFailure(
            key="k",
            workload="MxM",
            machine="paper",
            scheduler="LS",
            seed=3,
            scale=1.0,
            kind="timeout",
            error="cell exceeded budget",
            error_type="CellTimeoutError",
            attempts=2,
            elapsed=4.0,
            injected=True,
        )
        table = render_failures([failure])
        assert "timeout*" in table
        assert "MxM" in table
        with pytest.raises(CampaignError):
            render_failures([])


class TestEngineFacadeDefaults:
    def test_constructor_knobs_flow_into_run_many(self, fault_plan, tmp_path):
        fault_plan(f"ledger={tmp_path}; error@cell:*|LS|*")
        failures: list[CellFailure] = []
        engine = Engine(max_retries=1, keep_going=True)
        results = engine.run_many(_runs(), on_failure=failures.append)
        assert len(results) == 1
        assert failures and failures[0].attempts == 2


class TestTimeoutsFreeTheirLane:
    def test_threads_timeout_frees_the_slot_at_once(self, fault_plan, tmp_path):
        """An overdue thread is abandoned, so healthy cells never wait
        out a hang that already failed."""
        fault_plan(f"ledger={tmp_path}; hang@cell:*|LS|*,seconds=30")
        failures: list[CellFailure] = []
        started = time.monotonic()
        results = Engine(
            jobs=2, policy="threads", cell_timeout=0.5, keep_going=True
        ).run_many(_runs(workloads=("MxM", "Shape")), on_failure=failures.append)
        assert time.monotonic() - started < 10
        assert [r.scheduler for r in results] == ["RS", "RS"]
        assert [f.kind for f in failures] == ["timeout", "timeout"]

    def test_timed_out_cell_does_not_hold_the_cli_open(self, tmp_path):
        """A serial campaign whose cell hangs for a minute quarantines it
        and exits without waiting for the abandoned thread."""
        plan = "; ".join(
            [
                f"ledger={tmp_path / 'ledger'}",
                "hang@cell:Shape|*|LS|seed=1*,seconds=60",
                "error@cell:MxM|*|LS|seed=1*",
            ]
        )
        src = Path(__file__).resolve().parents[1] / "src"
        env = dict(os.environ, PYTHONPATH=str(src), REPRO_FAULT_PLAN=plan)
        store = tmp_path / "store.jsonl"
        started = time.monotonic()
        proc = subprocess.run(
            [
                sys.executable, "-m", "repro", "campaign",
                "--workloads", "MxM,Shape", "--schedulers", "RS,LS",
                "--seeds", "0,1", "--scale", "0.25", "--jobs", "1",
                "--max-retries", "1", "--cell-timeout", "1", "--keep-going",
                "--quiet", "--store", str(store),
            ],
            env=env,
            cwd=tmp_path,
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert time.monotonic() - started < 30
        assert proc.returncode == 3, proc.stderr
        failures = ResultStore(store).load_failures()
        assert sorted(
            (f.workload, f.scheduler, f.seed, f.kind) for f in failures.values()
        ) == [("MxM", "LS", 1, "error"), ("Shape", "LS", 1, "timeout")]


class TestRunHonoursTheEngine:
    def test_run_retries_a_transient_error(self, fault_plan, tmp_path):
        fault_plan(f"ledger={tmp_path}; error@cell:*|LS|*,times=1")
        (run,) = _runs(schedulers=("LS",))
        assert Engine(max_retries=1).run(run).key == run.cell_key()

    def test_run_times_out(self, fault_plan, tmp_path):
        fault_plan(f"ledger={tmp_path}; hang@cell:*|LS|*,seconds=4")
        started = time.monotonic()
        with pytest.raises(CellTimeoutError):
            Engine(cell_timeout=0.5).run(_runs(schedulers=("LS",)))
        assert time.monotonic() - started < 3

    def test_run_raises_a_cell_that_fails_for_good(self, fault_plan, tmp_path):
        fault_plan(f"ledger={tmp_path}; error@cell:*|LS|*")
        with pytest.raises(InjectedFaultError):
            Engine(max_retries=1, keep_going=True).run(_runs(schedulers=("LS",)))
