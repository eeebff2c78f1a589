"""Shared fixtures for the test suite.

The fixtures build deliberately small artefacts (tiny arrays, few
processes, a 2-core machine with a 1 KB cache) so the full suite stays
fast while still exercising every code path the full-size experiments
use.

Process-level environment isolation lives here too: the autouse
fixtures below snapshot and restore the ``REPRO_*`` variables around
every test (shedding any ambient fault plan at entry), and assert per
module that no test leaked a change past its own teardown.  Individual
suites therefore never need their own ad-hoc ``delenv`` fixtures — a
test that wants one of these variables set just uses ``monkeypatch`` or
the supported ``configure_*`` entry point as usual.
"""

from __future__ import annotations

import os

import pytest

from repro.procgraph.graph import ExtendedProcessGraph
from repro.procgraph.process import Process
from repro.procgraph.task import Task
from repro.programs.accesses import AffineAccess
from repro.programs.arrays import ArraySpec
from repro.programs.fragments import ProgramFragment
from repro.programs.loops import LoopNest
from repro.programs.partition import block_partition
from repro.presburger.terms import var
from repro.sim.config import MachineConfig

#: The process-level knobs the runtime reads from the environment.
#: ``REPRO_FAST_CACHE`` is sampled once at import, so restoring it
#: here protects subprocess spawns, not the in-process setting; CI's
#: matrix export (set before pytest starts) is unaffected.
ISOLATED_ENV_VARS = (
    "REPRO_MEMO_DIR",
    "REPRO_FAST_CACHE",
    "REPRO_FAULT_PLAN",
)


def _env_snapshot() -> dict[str, str | None]:
    return {name: os.environ.get(name) for name in ISOLATED_ENV_VARS}


def _env_restore(snapshot: dict[str, str | None]) -> None:
    for name, value in snapshot.items():
        if value is None:
            os.environ.pop(name, None)
        else:
            os.environ[name] = value


@pytest.fixture(scope="session", autouse=True)
def _kernel_build_cache(tmp_path_factory):
    """Build the compiled LRU kernel into a session temp dir.

    ``repro.cache.native`` caches its library under ``XDG_CACHE_HOME``;
    pointing that at a fresh directory keeps the suite out of the
    developer's home cache and makes every session prove that a cold
    build works.  Subprocesses the tests start inherit it.
    """
    previous = os.environ.get("XDG_CACHE_HOME")
    os.environ["XDG_CACHE_HOME"] = str(tmp_path_factory.mktemp("xdg-cache"))
    yield
    if previous is None:
        os.environ.pop("XDG_CACHE_HOME", None)
    else:
        os.environ["XDG_CACHE_HOME"] = previous


@pytest.fixture(params=["kernel", "no-kernel"])
def fast_engine(request, monkeypatch):
    """Run a test once per fast engine the drivers can pick.

    ``kernel``: the compiled LRU kernel (skipped where no C compiler
    can build it).  ``no-kernel``: the loader forced to report no
    kernel, so the Python vectorized/memo engine runs whole traces and
    every shared-queue core batches its quanta through compiled plans.
    """
    import repro.sim.simulator as simulator_module
    from repro.cache import native

    if request.param == "kernel":
        if native.kernel() is None:
            pytest.skip("no C compiler: the compiled kernel is unavailable")
    else:
        monkeypatch.setattr(native, "kernel", lambda: None)
        monkeypatch.setattr(simulator_module, "MIN_BATCH_WINDOW", 0)
    return request.param


@pytest.fixture(autouse=True)
def _isolated_repro_env():
    """Snapshot/restore the REPRO_* variables around every test.

    An ambient fault plan is removed at entry — tests must opt into
    fault injection explicitly — and whatever the test did to any of
    the isolated variables is undone at exit.
    """
    snapshot = _env_snapshot()
    os.environ.pop("REPRO_FAULT_PLAN", None)
    yield
    _env_restore(snapshot)


@pytest.fixture(scope="module", autouse=True)
def _assert_no_env_leak():
    """Fail a module whose tests leak REPRO_* changes past teardown.

    The function-scoped fixture above restores after each test; this
    catches leaks from module/session-scoped fixtures and from code
    that mutates ``os.environ`` outside the per-test window.
    """
    snapshot = _env_snapshot()
    yield
    leaked = sorted(
        name
        for name in ISOLATED_ENV_VARS
        if os.environ.get(name) != snapshot[name]
    )
    assert not leaked, f"test module leaked environment variables: {leaked}"


def make_copy_fragment(
    name: str,
    src: ArraySpec,
    dst: ArraySpec,
    rows: int,
    cols: int,
    compute: int = 1,
) -> ProgramFragment:
    """A simple ``dst[x][y] = src[x][y]`` loop nest."""
    x, y = var("x"), var("y")
    return ProgramFragment(
        name,
        LoopNest([("x", 0, rows), ("y", 0, cols)]),
        [
            AffineAccess(src, [x, y]),
            AffineAccess(dst, [x, y], is_write=True),
        ],
        compute_cycles_per_iteration=compute,
    )


def make_two_phase_task(
    name: str = "T",
    rows: int = 8,
    cols: int = 16,
    pieces: int = 4,
) -> Task:
    """A two-phase copy pipeline: A -> B then B -> C, block-partitioned."""
    a = ArraySpec(f"{name}.A", (rows, cols))
    b = ArraySpec(f"{name}.B", (rows, cols))
    c = ArraySpec(f"{name}.C", (rows, cols))
    phase0 = make_copy_fragment("copy_ab", a, b, rows, cols)
    phase1 = make_copy_fragment("copy_bc", b, c, rows, cols)
    processes = []
    edges = []
    ph0_pids = []
    for k, piece in enumerate(block_partition(phase0, pieces)):
        pid = f"{name}.ph0.p{k}"
        ph0_pids.append(pid)
        processes.append(Process(pid, name, [piece]))
    for k, piece in enumerate(block_partition(phase1, pieces)):
        pid = f"{name}.ph1.p{k}"
        processes.append(Process(pid, name, [piece]))
        edges.append((ph0_pids[k], pid))
    return Task(name, processes, edges)


@pytest.fixture
def small_machine() -> MachineConfig:
    """A 2-core machine with a 1 KB 2-way cache and short quantum."""
    return MachineConfig(
        num_cores=2,
        cache_size_bytes=1024,
        cache_associativity=2,
        cache_line_size=32,
        quantum_cycles=500,
        context_switch_cycles=10,
    )


@pytest.fixture
def four_core_machine() -> MachineConfig:
    """A 4-core machine with a 2 KB 2-way cache."""
    return MachineConfig(
        num_cores=4,
        cache_size_bytes=2048,
        cache_associativity=2,
        cache_line_size=32,
        quantum_cycles=1000,
        context_switch_cycles=10,
    )


@pytest.fixture
def two_phase_task() -> Task:
    """A small two-phase pipeline task."""
    return make_two_phase_task()


@pytest.fixture
def small_epg(two_phase_task) -> ExtendedProcessGraph:
    """An EPG holding the small pipeline task."""
    return ExtendedProcessGraph.from_tasks([two_phase_task])


@pytest.fixture
def two_task_epg() -> ExtendedProcessGraph:
    """An EPG with two data-disjoint tasks."""
    return ExtendedProcessGraph.from_tasks(
        [make_two_phase_task("T1"), make_two_phase_task("T2")]
    )
