"""The engine switch: one setting picks the fast engines or the oracle.

``REPRO_FAST_CACHE`` / :func:`repro.cache.memo.set_fast_cache` sets it
for the process, :func:`~repro.cache.memo.scalar_fallback` turns it off
for the calling thread, and the simulator's ``_Cores`` reads it once per
run and picks every backend from it.  That the backends agree bit for
bit is the business of ``test_fast_engine``, ``test_quantum_batch`` and
``test_native_kernel``; this module pins who reads the switch, when,
and for whom.
"""

from __future__ import annotations

import dataclasses
import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

import repro.sim.simulator as simulator_module
from repro.api.registries import SCHEDULERS
from repro.cache import native
from repro.cache.geometry import CacheGeometry
from repro.cache.memo import (
    TraceMemo,
    execute_trace,
    fast_cache_enabled,
    scalar_fallback,
    set_fast_cache,
    trace_fingerprint,
)
from repro.cache.sa_cache import SetAssociativeCache
from repro.campaign import executor
from repro.campaign.spec import CampaignSpec, MachineVariant, SchedulerSpec
from repro.sim import qplan
from repro.sim.simulator import MPSoCSimulator, _Cores
from repro.util.invalidation import registered_worker_state, worker_state_epoch

SRC = Path(__file__).resolve().parents[1] / "src"


@pytest.fixture
def switch_on():
    """Force the switch on for one test; restore the setting after."""
    previous = set_fast_cache(True)
    yield
    set_fast_cache(previous)


def _one_cell():
    return CampaignSpec(
        name="switch",
        workloads=("MxM",),
        machines=(MachineVariant(),),
        schedulers=(SchedulerSpec("LS"),),
        seeds=(0,),
        scale=0.25,
    ).expand()[0]


class TestSetting:
    def test_set_fast_cache_returns_previous_setting(self, switch_on):
        assert set_fast_cache(False) is True
        assert not fast_cache_enabled()
        assert set_fast_cache(True) is False
        assert fast_cache_enabled()

    def test_only_a_change_bumps_the_epoch(self, switch_on):
        """Forked pool workers hold the switch, so flipping it must
        retire them; re-setting the value they already hold must not."""
        before = worker_state_epoch()
        set_fast_cache(True)
        assert worker_state_epoch() == before
        set_fast_cache(False)
        assert worker_state_epoch() != before

    @pytest.mark.parametrize(
        "value,expected", [("0", False), ("1", True), (None, True)]
    )
    def test_environment_sets_the_default(self, value, expected):
        env = {k: v for k, v in os.environ.items() if k != "REPRO_FAST_CACHE"}
        if value is not None:
            env["REPRO_FAST_CACHE"] = value
        env["PYTHONPATH"] = str(SRC)
        proc = subprocess.run(
            [
                sys.executable,
                "-c",
                "from repro.cache.memo import fast_cache_enabled\n"
                "print(fast_cache_enabled())",
            ],
            capture_output=True,
            text=True,
            env=env,
            timeout=60,
            check=True,
        )
        assert proc.stdout.strip() == str(expected)

    def test_set_quantum_batch_is_the_switch(self):
        """The name the benchmark's scalar oracle imports is the engine
        switch itself, not a batching flag of its own."""
        assert qplan.set_quantum_batch is set_fast_cache

    def test_switch_and_override_are_declared_worker_state(self):
        table = registered_worker_state()
        assert "repro.cache.memo:_fast_cache_enabled" in table
        assert "repro.cache.memo:_scalar_override" in table


class TestScalarFallback:
    def test_leaves_the_epoch_alone(self, switch_on):
        """A one-cell downgrade must not retire a healthy worker pool."""
        before = worker_state_epoch()
        with scalar_fallback():
            assert not fast_cache_enabled()
        assert worker_state_epoch() == before

    def test_nested_scopes_restore_in_order(self, switch_on):
        with scalar_fallback():
            with scalar_fallback():
                assert not fast_cache_enabled()
            assert not fast_cache_enabled()
        assert fast_cache_enabled()

    def test_restores_on_error(self, switch_on):
        with pytest.raises(RuntimeError, match="oracle failed too"):
            with scalar_fallback():
                raise RuntimeError("oracle failed too")
        assert fast_cache_enabled()


class TestRunBackends:
    """``_Cores`` owns the backend choice of one run."""

    def test_switch_off_runs_no_kernel(self, small_machine):
        previous = set_fast_cache(False)
        try:
            cores = _Cores(small_machine)
        finally:
            set_fast_cache(previous)
        assert not cores.fast
        assert cores.states is None

    def test_switch_on_runs_the_kernel_where_it_loads(
        self, switch_on, small_machine
    ):
        cores = _Cores(small_machine)
        assert cores.fast
        assert (cores.states is not None) == (native.kernel() is not None)

    def test_classified_misses_keep_the_run_off_the_kernel(
        self, switch_on, small_machine
    ):
        cores = _Cores(dataclasses.replace(small_machine, classify_misses=True))
        assert cores.fast
        assert cores.states is None
        assert cores.classifiers is not None

    def test_fallback_scope_is_the_calling_threads(self, switch_on, small_machine):
        """A run started inside a downgrade is on the oracle; a run a
        sibling thread starts meanwhile keeps the fast engines."""
        sibling: list[_Cores] = []
        with scalar_fallback():
            downgraded = _Cores(small_machine)
            thread = threading.Thread(
                target=lambda: sibling.append(_Cores(small_machine))
            )
            thread.start()
            thread.join(30)
            assert not thread.is_alive()
        assert not downgraded.fast and downgraded.states is None
        assert sibling[0].fast

    def test_one_run_never_mixes_engines(
        self, monkeypatch, switch_on, small_machine, small_epg
    ):
        """The switch is read once per run: turning it off mid-run
        leaves every later segment on the engine the run started with."""
        monkeypatch.setattr(native, "kernel", lambda: None)
        seen: list[bool] = []
        memoized = simulator_module.execute_trace

        def flip_then_execute(*args, **kwargs):
            seen.append(fast_cache_enabled())
            set_fast_cache(False)
            return memoized(*args, **kwargs)

        monkeypatch.setattr(simulator_module, "execute_trace", flip_then_execute)
        scheduler = SCHEDULERS.get("LS-static")
        mixed = MPSoCSimulator(small_machine).run(small_epg, scheduler(0))
        assert len(seen) == len(mixed.processes) > 1
        assert seen == [True] + [False] * (len(seen) - 1)
        # the switch is off now, so the next run never reaches the memo
        scalar = MPSoCSimulator(small_machine).run(small_epg, scheduler(0))
        assert len(seen) == len(mixed.processes)
        assert scalar.makespan_cycles == mixed.makespan_cycles
        assert scalar.total_cache == mixed.total_cache

    def test_fallback_keeps_quanta_off_compiled_plans(
        self, monkeypatch, switch_on, small_machine, small_epg
    ):
        """Where every core would batch its quanta, a downgraded RRS run
        walks the scalar cache instead, to the same numbers."""
        monkeypatch.setattr(native, "kernel", lambda: None)
        monkeypatch.setattr(simulator_module, "MIN_BATCH_WINDOW", 0)
        calls: list[int] = []
        compiled = simulator_module.run_plan_quantum

        def counted(*args, **kwargs):
            calls.append(1)
            return compiled(*args, **kwargs)

        monkeypatch.setattr(simulator_module, "run_plan_quantum", counted)
        scheduler = SCHEDULERS.get("RRS")
        batched = MPSoCSimulator(small_machine).run(small_epg, scheduler(0))
        assert calls
        calls.clear()
        with scalar_fallback():
            scalar = MPSoCSimulator(small_machine).run(small_epg, scheduler(0))
        assert not calls
        assert scalar.makespan_cycles == batched.makespan_cycles
        assert scalar.total_cache == batched.total_cache


class TestExecuteTrace:
    def test_fingerprint_is_required(self):
        cache = SetAssociativeCache(CacheGeometry(256, 2, 32))
        lines = np.arange(64, dtype=np.int64)
        with pytest.raises(TypeError):
            execute_trace(cache, lines, None)

    def test_reads_no_switch(self):
        """The caller picks the engine: a direct call runs through the
        memo even with the switch off, and matches the scalar walk."""
        geometry = CacheGeometry(512, 2, 32)
        lines = np.arange(4000, dtype=np.int64) % 48
        memo = TraceMemo()
        previous = set_fast_cache(False)
        try:
            cache = SetAssociativeCache(geometry)
            hits, misses = execute_trace(
                cache, lines, None, trace_fingerprint(lines, None), memo
            )
        finally:
            set_fast_cache(previous)
        assert len(memo) == 1
        reference = SetAssociativeCache(geometry)
        assert (hits, misses) == reference.run_trace(lines, None)
        assert cache.export_state() == reference.export_state()


class TestDowngrade:
    """The executor's downgrade checks the switch and nothing else."""

    @staticmethod
    def _flaky(monkeypatch, seen):
        run_cell = executor._execute_cell

        def flaky(run):
            seen.append(fast_cache_enabled())
            if len(seen) == 1:
                raise RuntimeError("compiled plan broke")
            return run_cell(run)

        monkeypatch.setattr(executor, "_execute_cell", flaky)

    def test_retry_runs_on_the_oracle(self, monkeypatch, switch_on):
        seen: list[bool] = []
        self._flaky(monkeypatch, seen)
        result = executor.execute_run(_one_cell())
        assert seen == [True, False]
        assert result.downgraded == "RuntimeError: compiled plan broke"
        assert fast_cache_enabled()

    def test_switch_off_makes_the_error_organic(self, monkeypatch):
        seen: list[bool] = []
        self._flaky(monkeypatch, seen)
        previous = set_fast_cache(False)
        try:
            with pytest.raises(RuntimeError, match="compiled plan broke"):
                executor.execute_run(_one_cell())
        finally:
            set_fast_cache(previous)
        assert seen == [False]


def test_pool_workers_receive_the_switch_alone():
    """A fresh pool worker is aligned with one boolean: the switch."""
    from repro.api.engine import _pool_init_args

    for enabled in (False, True):
        previous = set_fast_cache(enabled)
        try:
            args = _pool_init_args()
        finally:
            set_fast_cache(previous)
        assert [arg for arg in args if isinstance(arg, bool)] == [enabled]
