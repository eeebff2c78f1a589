"""The compiled LRU kernel against the scalar oracle, and its build.

:mod:`repro.cache.native` must be bit-identical to
:class:`~repro.cache.sa_cache.SetAssociativeCache`: after every kernel
call the returned counters equal the oracle's statistics delta, and the
full end tag state with its dirty set (exported as a
:class:`~repro.cache.fast_engine.CacheState`) equals the oracle's.  The
build tests cover the per-user cache, the silent no-compiler fallback,
the warn-once failed build, and that importing never builds.
"""

from __future__ import annotations

import copy
import os
import pickle
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from repro.cache import native
from repro.cache.geometry import CacheGeometry
from repro.cache.native import KernelState, KernelTrace
from repro.cache.sa_cache import SetAssociativeCache
from repro.errors import ValidationError
from repro.procgraph.graph import ExtendedProcessGraph
from repro.sched.round_robin import RoundRobinScheduler
from repro.sim.simulator import MPSoCSimulator

from conftest import make_two_phase_task

ASSOCS = (1, 2, 4, 8)

SRC = Path(__file__).resolve().parents[1] / "src"


@pytest.fixture
def library():
    loaded = native.kernel()
    if loaded is None:
        pytest.skip("no C compiler: the compiled kernel is unavailable")
    return loaded


@pytest.fixture
def fresh_loader(monkeypatch, tmp_path):
    """An unloaded kernel whose build cache is an empty temp dir."""
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cache"))
    monkeypatch.setattr(native, "_loaded", False)
    monkeypatch.setattr(native, "_library", None)
    return tmp_path / "cache" / "repro"


def _geometry(num_sets: int, assoc: int) -> CacheGeometry:
    return CacheGeometry(num_sets * assoc * 32, assoc, 32)


def _counters(cache: SetAssociativeCache) -> tuple[int, ...]:
    stats = cache.stats
    return (
        stats.hits,
        stats.misses,
        stats.write_hits,
        stats.write_misses,
        stats.dirty_evictions,
    )


def _delta(after: tuple[int, ...], before: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(a - b for a, b in zip(after, before))


def _random_arrays(rng, num_sets: int, assoc: int):
    n = int(rng.integers(0, 400))
    span = num_sets * assoc * int(rng.integers(1, 4))
    lines = rng.integers(0, span, size=n).astype(np.int64)
    writes = rng.random(n) < rng.random()
    base = rng.integers(1, 6, size=n).astype(np.int64)
    return lines, writes, base


class TestWholeTraces:
    """Warm-chained whole traces: 4 associativities x 16 seeds x 8 traces
    = 512 seeded traces, each run on the state the previous one left."""

    @pytest.mark.parametrize("assoc", ASSOCS)
    @pytest.mark.parametrize("seed", range(16))
    def test_warm_chained_traces_match_oracle(self, library, assoc, seed):
        rng = np.random.default_rng(7000 + 100 * assoc + seed)
        num_sets = int(rng.choice([1, 4, 16, 64]))
        geometry = _geometry(num_sets, assoc)
        state = KernelState(library, geometry)
        oracle = SetAssociativeCache(geometry)
        for _ in range(8):
            lines, writes, base = _random_arrays(rng, num_sets, assoc)
            before = _counters(oracle)
            counters = state.run_trace(KernelTrace(lines, writes, base))
            hits, misses = oracle.run_trace(lines, writes)
            assert counters[:2] == (hits, misses)
            assert counters == _delta(_counters(oracle), before)
            assert state.export_state() == oracle.export_state()


class TestBudgetedQuanta:
    """Interleaved budgeted quanta of several traces on one core."""

    @pytest.mark.parametrize("assoc", ASSOCS)
    @pytest.mark.parametrize("seed", range(8))
    def test_interleaved_quanta_match_oracle(self, library, assoc, seed):
        rng = np.random.default_rng(9000 + 100 * assoc + seed)
        num_sets = int(rng.choice([1, 8, 32]))
        geometry = _geometry(num_sets, assoc)
        miss_extra = int(rng.integers(5, 80))
        traces = [
            KernelTrace(*_random_arrays(rng, num_sets, assoc))
            for _ in range(int(rng.integers(2, 5)))
        ]
        rows = [
            list(
                zip(
                    (t.lines & (num_sets - 1)).tolist(),
                    t.lines.tolist(),
                    t.writes.tolist(),
                    t.base.tolist(),
                )
            )
            for t in traces
        ]
        cursors = [0] * len(traces)
        state = KernelState(library, geometry)
        oracle = SetAssociativeCache(geometry)
        while any(c < t.num_accesses for c, t in zip(cursors, traces)):
            k = int(rng.integers(0, len(traces)))
            if cursors[k] >= traces[k].num_accesses:
                continue
            budget = int(rng.integers(1, 1500))
            before = _counters(oracle)
            next_index, used, counters = state.run_budget(
                traces[k], cursors[k], miss_extra, budget
            )
            want = oracle.run_budget_rows(rows[k], cursors[k], miss_extra, budget)
            assert (next_index, used, counters[0], counters[1]) == want
            assert counters == _delta(_counters(oracle), before)
            assert state.export_state() == oracle.export_state()
            cursors[k] = next_index

    def test_finished_and_empty_traces_run_nothing(self, library):
        geometry = _geometry(16, 2)
        state = KernelState(library, geometry)
        trace = KernelTrace(
            np.arange(8, dtype=np.int64),
            np.zeros(8, dtype=bool),
            np.ones(8, dtype=np.int64),
        )
        assert state.run_budget(trace, 8, 75, 100) == (8, 0, (0, 0, 0, 0, 0))
        empty = KernelTrace(
            np.empty(0, dtype=np.int64),
            np.empty(0, dtype=bool),
            np.empty(0, dtype=np.int64),
        )
        assert state.run_budget(empty, 0, 75, 100) == (0, 0, (0, 0, 0, 0, 0))
        assert state.run_trace(empty) == (0, 0, 0, 0, 0)

    def test_bad_inputs_rejected(self, library):
        state = KernelState(library, _geometry(16, 2))
        lines = np.arange(4, dtype=np.int64)
        writes = np.zeros(4, dtype=bool)
        base = np.ones(4, dtype=np.int64)
        with pytest.raises(ValidationError):
            KernelTrace(lines, writes[:3], base)
        with pytest.raises(ValidationError):
            KernelTrace(lines, writes, base[:3])
        trace = KernelTrace(lines, writes, base)
        for start in (-1, 5):
            with pytest.raises(ValidationError):
                state.run_budget(trace, start, 75, 100)


class TestKernelTrace:
    def test_copies_take_their_own_addresses(self):
        trace = KernelTrace(
            np.arange(6, dtype=np.int64) * 3,
            np.arange(6) % 2 == 0,
            np.full(6, 2, dtype=np.int64),
        )
        for other in (pickle.loads(pickle.dumps(trace)), copy.deepcopy(trace)):
            assert other.addresses[0] != trace.addresses[0]
            assert other.addresses[0] == other.lines.ctypes.data
            assert np.array_equal(other.lines, trace.lines)
            assert np.array_equal(other.writes, trace.writes)
            assert np.array_equal(other.base, trace.base)

    def test_inputs_are_converted_to_the_kernel_layout(self):
        trace = KernelTrace([5, 6, 7], [1, 0, 1], [2, 2, 2])
        assert trace.lines.dtype == np.int64
        assert trace.writes.dtype == np.bool_
        assert trace.base.dtype == np.int64
        assert trace.lines.flags.c_contiguous


class TestBuild:
    def test_session_builds_into_its_own_cache(self, library):
        path = native.library_path()
        assert path.exists()
        assert path.is_relative_to(Path(os.environ["XDG_CACHE_HOME"]))

    def test_cached_library_loads_without_compiling(self, library, monkeypatch):
        monkeypatch.setattr(native, "_loaded", False)
        monkeypatch.setattr(native, "_library", None)

        def no_build(*args, **kwargs):
            raise AssertionError("the cached library was compiled again")

        monkeypatch.setattr(native, "_build", no_build)
        assert native.kernel() is not None

    def test_cold_build_leaves_only_the_library(self, library, fresh_loader):
        assert native.kernel() is not None
        assert sorted(p.name for p in fresh_loader.iterdir()) == [
            native.library_path().name
        ]

    def test_no_compiler_falls_back_silently(self, fresh_loader, monkeypatch):
        monkeypatch.setattr(native, "COMPILERS", ("repro-no-such-compiler",))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert native.kernel() is None

    def test_failing_compiler_warns_once_and_falls_back(
        self, fresh_loader, monkeypatch, tmp_path, small_machine
    ):
        broken = tmp_path / "broken-cc"
        broken.write_text("#!/bin/sh\necho 'broken compiler' >&2\nexit 1\n")
        broken.chmod(0o755)
        monkeypatch.setattr(native, "COMPILERS", (str(broken),))
        with pytest.warns(RuntimeWarning, match="broken compiler"):
            assert native.kernel() is None
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert native.kernel() is None
        # no torn or temporary library is left behind
        assert list(fresh_loader.iterdir()) == []
        # and a run still completes, on the Python engines
        epg = ExtendedProcessGraph.from_tasks([make_two_phase_task("T")])
        result = MPSoCSimulator(small_machine).run(epg, RoundRobinScheduler())
        assert result.makespan_cycles > 0

    def test_concurrent_cold_builds_all_load(self, library, tmp_path):
        """Six builders (more than a CI runner's cores) race on one empty
        cache: each loads a whole library and exactly one survives."""
        env = dict(os.environ)
        env["XDG_CACHE_HOME"] = str(tmp_path)
        env["PYTHONPATH"] = str(SRC)
        code = (
            "import numpy as np\n"
            "from repro.cache import native\n"
            "from repro.cache.geometry import CacheGeometry\n"
            "from repro.cache.sa_cache import SetAssociativeCache\n"
            "geometry = CacheGeometry(256, 2, 32)\n"
            "lines = np.arange(64, dtype=np.int64) % 10\n"
            "writes = lines % 3 == 0\n"
            "oracle = SetAssociativeCache(geometry)\n"
            "oracle.run_trace(lines, writes)\n"
            "state = native.KernelState(native.kernel(), geometry)\n"
            "counters = state.run_trace(native.KernelTrace(lines, writes, lines))\n"
            "s = oracle.stats\n"
            "assert counters == (s.hits, s.misses, s.write_hits, s.write_misses,"
            " s.dirty_evictions), counters\n"
        )
        builders = [
            subprocess.Popen([sys.executable, "-c", code], env=env)
            for _ in range(6)
        ]
        assert [proc.wait(timeout=120) for proc in builders] == [0] * len(builders)
        assert [p.name for p in (tmp_path / "repro").iterdir()] == [
            native.library_path().name
        ]

    def test_import_never_builds(self, tmp_path):
        env = dict(os.environ)
        env["XDG_CACHE_HOME"] = str(tmp_path)
        env["PYTHONPATH"] = str(SRC)
        code = (
            "import repro, repro.api, repro.sim.simulator, repro.sim.qplan\n"
            "from repro.cache import native\n"
            "assert not native._loaded\n"
        )
        subprocess.run([sys.executable, "-c", code], env=env, check=True)
        assert list(tmp_path.iterdir()) == []
