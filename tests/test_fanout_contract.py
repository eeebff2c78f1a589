"""One fan-out contract for every execution policy.

The engine runs cells inline (serial), on threads, or on a worker pool
(chunked units, or single-cell units under a timeout or lease).  Under
the same fault plan every policy must return the same results in
declaration order and quarantine the same cells the same way; they
differ only where an exception has to cross a process boundary.
"""

from __future__ import annotations

import pytest

from repro.api import Engine, register_scheduler
from repro.api.registries import SCHEDULERS
from repro.campaign.executor import clear_cell_memo
from repro.campaign.spec import CampaignSpec, MachineVariant, SchedulerSpec
from repro.errors import CampaignError
from repro.sched.base import Scheduler
from repro.util.faults import configure_fault_plan

#: Engine knobs per policy; every run retries once and keeps going.
POLICIES = {
    "serial": {},
    "threads": {"jobs": 2, "policy": "threads"},
    "processes": {"jobs": 2, "policy": "processes"},
    "processes-leased": {
        "jobs": 2,
        "policy": "processes",
        "cell_timeout": 30,
        "lease_seconds": 30,
    },
}

#: One transient error (absorbed by the retry) and one persistent error.
FAULTS = "error@cell:MxM|*|RS|seed=0*,times=1; error@cell:Shape|*|LS|seed=1*"


def _grid(schedulers=("RS", "LS"), workloads=("MxM", "Shape"), seeds=(0, 1)):
    return CampaignSpec(
        name="fanout-contract",
        workloads=tuple(workloads),
        machines=(MachineVariant(),),
        schedulers=tuple(SchedulerSpec(name) for name in schedulers),
        seeds=tuple(seeds),
        scale=0.25,
    ).expand()


def _comparable(results):
    return [
        {k: v for k, v in r.to_dict().items() if k not in ("seconds", "downgraded")}
        for r in results
    ]


def _records(failures):
    return [
        (f.key, f.kind, f.attempts, f.error_type, f.injected) for f in failures
    ]


def _run(policy, runs, plan=None, **knobs):
    """``run_many`` under ``policy``; returns (results, failures)."""
    failures = []
    configure_fault_plan(plan)
    try:
        with Engine(**POLICIES[policy], **knobs) as engine:
            results = engine.run_many(runs, on_failure=failures.append)
    finally:
        configure_fault_plan(None)
    return results, failures


@pytest.fixture(scope="module")
def faulted(tmp_path_factory):
    """Every policy's outcome over the grid under the shared fault plan.

    Each policy simulates every cell itself: the cell memo is cleared
    before each run, and pool workers are private, so they fork with it
    empty.
    """
    outcomes = {}
    for policy in POLICIES:
        ledger = tmp_path_factory.mktemp(f"ledger-{policy}")
        clear_cell_memo()
        outcomes[policy] = _run(
            policy,
            _grid(),
            plan=f"ledger={ledger}; {FAULTS}",
            max_retries=1,
            keep_going=True,
            private_pool=True,
        )
    return outcomes


class TestPoliciesAgreeUnderFaults:
    def test_serial_quarantines_exactly_the_persistent_fault(self, faulted):
        runs = _grid()
        results, failures = faulted["serial"]
        clear_cell_memo()
        clean, _ = _run("serial", runs)
        broken = runs[7]  # Shape|LS|seed=1 in declaration order
        assert broken.workload == "Shape" and broken.scheduler.name == "LS"
        assert _comparable(results) == _comparable(
            r for r in clean if r.key != broken.cell_key()
        )
        assert _records(failures) == [
            (broken.cell_key(), "error", 2, "InjectedFaultError", True)
        ]

    @pytest.mark.parametrize("policy", [p for p in POLICIES if p != "serial"])
    def test_policy_matches_serial(self, faulted, policy):
        serial_results, serial_failures = faulted["serial"]
        results, failures = faulted[policy]
        assert [r.key for r in results] == [r.key for r in serial_results]
        assert _comparable(results) == _comparable(serial_results)
        assert _records(failures) == _records(serial_failures)


class _TwoArgError(Exception):
    """Pickles (its args hold one message) but cannot unpickle."""

    def __init__(self, code: int, detail: str) -> None:
        super().__init__(f"{code}: {detail}")


class _BrokenPrepare(Scheduler):
    name = "test-broken-prepare"
    seed_sensitive = False

    def prepare(self, epg, machine, layout):
        raise _TwoArgError(7, "prepare failed")


@pytest.fixture
def broken_scheduler():
    register_scheduler(_BrokenPrepare.name)(_BrokenPrepare)
    try:
        yield _BrokenPrepare.name
    finally:
        SCHEDULERS.unregister(_BrokenPrepare.name)


#: What each policy reports for an exception that cannot unpickle: the
#: in-process policies see the original, a worker pool a CampaignError.
UNPICKLABLE = {
    "serial": _TwoArgError,
    "threads": _TwoArgError,
    "processes": CampaignError,
    "processes-leased": CampaignError,
}


class TestUnpicklableCellError:
    @pytest.mark.parametrize("policy", list(POLICIES))
    def test_quarantine_names_the_reported_type(self, broken_scheduler, policy):
        runs = _grid(schedulers=("RS", broken_scheduler), workloads=("MxM",),
                     seeds=(0,))
        results, failures = _run(policy, runs, keep_going=True)
        assert [r.scheduler for r in results] == ["RS"]
        assert _records(failures) == [
            (runs[1].cell_key(), "error", 1, UNPICKLABLE[policy].__name__, False)
        ]

    @pytest.mark.parametrize("policy", list(POLICIES))
    def test_abort_raises_the_reported_type(self, broken_scheduler, policy):
        runs = _grid(schedulers=("RS", broken_scheduler), workloads=("MxM",),
                     seeds=(0,))
        with pytest.raises(UNPICKLABLE[policy]) as info:
            _run(policy, runs)
        assert type(info.value) is UNPICKLABLE[policy]
