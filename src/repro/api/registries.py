"""The five concrete registries: schedulers, workloads, machines, arrivals, contention.

This module is the single place the paper's closed factory tables
(previously ``campaign/spec.py`` and ``workloads/suite.py``) now live,
opened up for extension:

- :data:`SCHEDULERS` — ``name -> factory(seed, **params) -> Scheduler``;
- :data:`WORKLOADS` — ``name -> WorkloadFactory`` building an EPG (or a
  single :class:`~repro.procgraph.task.Task`) from ``(count, scale,
  seed)``, covering plain applications and ``name:N`` families;
- :data:`MACHINES` — ``name -> override tuple`` applied to the Table-2
  machine;
- :data:`ARRIVALS` — ``name -> ArrivalFactory`` generating open-system
  arrival schedules (``batch``, ``poisson``, ``bursty``, ``trace``);
- :data:`CONTENTION` — ``name -> ContentionFactory`` building off-chip
  contention models (``none``, ``bus``, ``noc``) a machine selects via
  :attr:`~repro.sim.config.MachineConfig.contention`.

Third-party code extends any axis with the ``register_*`` decorators and
then addresses its entries by string exactly like the builtins — in
:class:`~repro.api.scenario.Scenario`, in campaign spec files, and on
the CLI — without editing ``repro`` internals::

    from repro.api import register_scheduler
    from repro.sched.base import Scheduler

    @register_scheduler("GREEDY", description="my greedy policy")
    class GreedyScheduler(Scheduler):
        name = "GREEDY"
        ...

Builtins register at import time in paper order; ``python -m repro list
{schedulers,workloads,machines}`` shows the live tables.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass
from typing import Callable

from repro.api.registry import Registry, _first_doc_line as _doc_line
from repro.errors import RegistryError
from repro.util.invalidation import register_worker_state
from repro.sched.base import Scheduler
from repro.sched.fifo import FifoScheduler
from repro.sched.locality import LocalityScheduler, StaticLocalityScheduler
from repro.sched.locality_mapping import LocalityMappingScheduler
from repro.sched.random_sched import RandomScheduler
from repro.sched.online import (
    GreedyEtfScheduler,
    LocalityAdmissionScheduler,
    WorkStealingScheduler,
)
from repro.sched.round_robin import RoundRobinScheduler
from repro.sim.arrivals import (
    batch_arrivals,
    bursty_arrivals,
    poisson_arrivals,
    trace_arrivals,
)
from repro.sim.contention import bus_contention, no_contention, noc_contention
from repro.util.units import KIB
from repro.workloads.suite import (
    SUITE,
    build_arrival_stream,
    build_random_mix,
    build_task,
    build_workload_mix,
)

#: Scheduler factories: ``factory(seed, **params) -> Scheduler``.
SCHEDULERS: Registry[Callable[..., Scheduler]] = Registry("scheduler")

#: Workload builders addressed by ``"name"`` or ``"name:N"`` references.
WORKLOADS: Registry["WorkloadFactory"] = Registry("workload")

#: Machine presets: name -> sorted ``(field, value)`` override pairs
#: against the Table-2 default machine.
MACHINES: Registry[tuple[tuple[str, object], ...]] = Registry("machine preset")

#: Arrival-process generators for open-system runs.
ARRIVALS: Registry["ArrivalFactory"] = Registry("arrival")

#: Off-chip contention models addressed by machines' ``contention`` field.
CONTENTION: Registry["ContentionFactory"] = Registry("contention model")

# All five registries are fork-inherited worker state; the Registry
# class itself bumps the epoch on every register/unregister, so a pool
# snapshotted before a plugin registration is retired, not reused.
register_worker_state(__name__, "SCHEDULERS", note="epoch-bumped by Registry")
register_worker_state(__name__, "WORKLOADS", note="epoch-bumped by Registry")
register_worker_state(__name__, "MACHINES", note="epoch-bumped by Registry")
register_worker_state(__name__, "ARRIVALS", note="epoch-bumped by Registry")
register_worker_state(__name__, "CONTENTION", note="epoch-bumped by Registry")


# -- schedulers -------------------------------------------------------------------


def register_scheduler(
    name: str,
    factory: object | None = None,
    *,
    description: str = "",
    origin: str = "plugin",
    overwrite: bool = False,
) -> object:
    """Register a scheduler under ``name``; usable as a decorator.

    Accepts either a :class:`~repro.sched.base.Scheduler` subclass or a
    ``factory(seed, **params)`` callable.  A class is wrapped so the
    campaign cell seed reaches its constructor exactly when it declares
    a ``seed`` parameter (the builtin RS does; the deterministic
    strategies do not).
    """

    def _register(obj: object) -> object:
        # This decorator is the sanctioned module-scope registration entry
        # point; the nested call is its implementation.
        SCHEDULERS.register(  # repro-check: ignore[nested-registration]
            name,
            _as_scheduler_factory(obj),
            description=description or _doc_line(obj),
            origin=origin,
            overwrite=overwrite,
        )
        return obj

    if factory is None:
        return _register
    return _register(factory)


def _as_scheduler_factory(obj: object) -> Callable[..., Scheduler]:
    """Normalize a class or callable into ``factory(seed, **params)``."""
    if isinstance(obj, type) and issubclass(obj, Scheduler):
        takes_seed = "seed" in inspect.signature(obj.__init__).parameters

        def factory(seed: int, **params: object) -> Scheduler:
            return obj(seed=seed, **params) if takes_seed else obj(**params)

        factory.__doc__ = obj.__doc__
        return factory
    if callable(obj):
        return obj
    raise RegistryError(
        f"a scheduler registration needs a Scheduler subclass or a "
        f"factory callable, got {obj!r}"
    )


register_scheduler(
    "RS", RandomScheduler, origin="builtin",
    description="random dispatch (the paper's RS baseline)",
)
register_scheduler(
    "RRS", RoundRobinScheduler, origin="builtin",
    description="preemptive round-robin over one shared queue (RRS)",
)
register_scheduler(
    "LS", LocalityScheduler, origin="builtin",
    description="locality-aware dispatch-time scheduling (LS)",
)
register_scheduler(
    "LS-static", StaticLocalityScheduler, origin="builtin",
    description="LS as the literal ahead-of-time Figure-3 plan",
)
register_scheduler(
    "LSM", LocalityMappingScheduler, origin="builtin",
    description="LS plus the Figure-4/5 conflict-repair re-layout (LSM)",
)
register_scheduler(
    "FCFS", FifoScheduler, origin="builtin",
    description="first-come-first-served reference policy",
)
register_scheduler(
    "ETF", GreedyEtfScheduler, origin="builtin",
    description="greedy earliest-finish-time: shortest estimated ready process first",
)
register_scheduler(
    "WS", WorkStealingScheduler, origin="builtin",
    description="per-app home queues with deterministic work stealing",
)
register_scheduler(
    "LA", LocalityAdmissionScheduler, origin="builtin",
    description="LS under its online-zoo name: the same plan and dispatch",
)


# -- workloads --------------------------------------------------------------------


@dataclass(frozen=True)
class WorkloadFactory:
    """One workload-registry entry.

    ``build(count, scale, seed)`` returns an
    :class:`~repro.procgraph.graph.ExtendedProcessGraph` or a single
    :class:`~repro.procgraph.task.Task` (which the facade wraps).
    ``parameterized`` entries are addressed as ``"name:N"`` with
    ``1 <= N <= max_count``; ``seed_sensitive`` tells the campaign
    executor whether the cell seed changes the built workload (it puts
    the seed in the cell memo key, so err on the side of ``True``).
    """

    name: str
    build: Callable[..., object]
    description: str = ""
    parameterized: bool = False
    max_count: int | None = None
    seed_sensitive: bool = False

    def ref_syntax(self) -> str:
        """How this entry is addressed ("MxM", "mix:N")."""
        return f"{self.name}:N" if self.parameterized else self.name


def register_workload(
    name: str,
    builder: Callable[..., object] | None = None,
    *,
    description: str = "",
    parameterized: bool = False,
    max_count: int | None = None,
    seed_sensitive: bool = True,
    origin: str = "plugin",
    overwrite: bool = False,
) -> object:
    """Register a workload builder under ``name``; usable as a decorator.

    The builder may declare any subset of ``(count, scale, seed)``
    keyword parameters — only the ones it names are passed — and may
    return either a ready EPG or a single Task.  Plugins default to
    ``seed_sensitive=True`` so the executor's cell memo keys every seed
    apart and never reuses a simulation the builder's seed should have
    changed; declare ``seed_sensitive=False`` for deterministic builders
    to share one cell across seeds.
    """

    def _register(fn: Callable[..., object]) -> Callable[..., object]:
        parameters = inspect.signature(fn).parameters
        accepts_all = any(
            p.kind is inspect.Parameter.VAR_KEYWORD for p in parameters.values()
        )
        if parameterized and not ("count" in parameters or accepts_all):
            # otherwise every 'name:N' reference would silently build
            # the same workload regardless of N
            raise RegistryError(
                f"parameterized workload {name!r} needs a builder that "
                f"accepts a 'count' parameter (or **kwargs)"
            )

        def build(
            count: int | None = None, scale: float = 1.0, seed: int = 0
        ) -> object:
            kwargs: dict[str, object] = {}
            if parameterized:
                kwargs["count"] = count
            if "scale" in parameters or accepts_all:
                kwargs["scale"] = scale
            if "seed" in parameters or accepts_all:
                kwargs["seed"] = seed
            return fn(**kwargs)

        # Decorator implementation — the sanctioned registration entry point.
        WORKLOADS.register(  # repro-check: ignore[nested-registration]
            name,
            WorkloadFactory(
                name=name,
                build=build,
                description=description or _doc_line(fn),
                parameterized=parameterized,
                max_count=max_count,
                seed_sensitive=seed_sensitive,
            ),
            description=description or _doc_line(fn),
            origin=origin,
            overwrite=overwrite,
        )
        return fn

    if builder is None:
        return _register
    return _register(builder)


for _spec in SUITE:
    WORKLOADS.register(
        _spec.name,
        WorkloadFactory(
            name=_spec.name,
            build=(
                lambda count=None, scale=1.0, seed=0, _name=_spec.name:
                build_task(_name, scale=scale)
            ),
            description=_spec.description,
        ),
        description=_spec.description,
        origin="builtin",
    )
WORKLOADS.register(
    "mix",
    WorkloadFactory(
        name="mix",
        build=(
            lambda count=None, scale=1.0, seed=0:
            build_workload_mix(count, scale=scale)
        ),
        description="cumulative Figure-7 mix of the first N applications",
        parameterized=True,
        max_count=len(SUITE),
    ),
    description="cumulative Figure-7 mix of the first N applications",
    origin="builtin",
)
WORKLOADS.register(
    "random-mix",
    WorkloadFactory(
        name="random-mix",
        build=(
            lambda count=None, scale=1.0, seed=0:
            build_random_mix(count, scale=scale, seed=seed)
        ),
        description="N distinct applications, sampled and ordered by the cell seed",
        parameterized=True,
        max_count=len(SUITE),
        seed_sensitive=True,
    ),
    description="N distinct applications, sampled and ordered by the cell seed",
    origin="builtin",
)
WORKLOADS.register(
    "stream",
    WorkloadFactory(
        name="stream",
        build=(
            lambda count=None, scale=1.0, seed=0:
            build_arrival_stream(count, scale=scale, seed=seed)
        ),
        description=(
            "N application instances sampled with replacement (seeded) — "
            "the open-system arrival workload"
        ),
        parameterized=True,
        max_count=64,
        seed_sensitive=True,
    ),
    description=(
        "N application instances sampled with replacement (seeded) — "
        "the open-system arrival workload"
    ),
    origin="builtin",
)


# -- machine presets --------------------------------------------------------------


def register_machine(
    name: str,
    *,
    description: str = "",
    origin: str = "plugin",
    overwrite: bool = False,
    **overrides: object,
) -> None:
    """Register a named machine preset as Table-2 field overrides.

    The override fields are validated against
    :class:`~repro.sim.config.MachineConfig` the first time the preset
    is resolved (spec construction), keeping this module import-light.
    """
    # register_machine() is itself the sanctioned registration entry point.
    MACHINES.register(  # repro-check: ignore[nested-registration]
        name,
        tuple(sorted(overrides.items())),
        description=description
        or ", ".join(f"{field}={value}" for field, value in sorted(overrides.items()))
        or "the Table-2 machine, unmodified",
        origin=origin,
        overwrite=overwrite,
    )


register_machine("paper", origin="builtin",
                 description="the paper's Table-2 MPSoC, unmodified")
register_machine("cache-4k", cache_size_bytes=4 * KIB, origin="builtin")
register_machine("cache-16k", cache_size_bytes=16 * KIB, origin="builtin")
register_machine("cache-32k", cache_size_bytes=32 * KIB, origin="builtin")
register_machine("assoc-1", cache_associativity=1, origin="builtin")
register_machine("assoc-4", cache_associativity=4, origin="builtin")
register_machine("cores-4", num_cores=4, origin="builtin")
register_machine("cores-16", num_cores=16, origin="builtin")
register_machine("mem-50", memory_latency_cycles=50, origin="builtin")
register_machine("mem-150", memory_latency_cycles=150, origin="builtin")
register_machine("quantum-2k", quantum_cycles=2_000, origin="builtin")
register_machine("quantum-32k", quantum_cycles=32_000, origin="builtin")
register_machine(
    "big-little",
    core_speeds=(1.0, 1.0, 1.0, 1.0, 0.5, 0.5, 0.5, 0.5),
    origin="builtin",
    description="4 big cores at 1.0x + 4 LITTLE cores at 0.5x speed",
)
register_machine(
    "big-little-cache",
    core_speeds=(1.0, 1.0, 1.0, 1.0, 0.5, 0.5, 0.5, 0.5),
    core_cache_sizes=(8 * KIB,) * 4 + (4 * KIB,) * 4,
    origin="builtin",
    description="big.LITTLE with halved 4KB caches on the LITTLE cluster",
)
register_machine(
    "turbo-quad",
    num_cores=4,
    core_speeds=(2.0, 1.0, 1.0, 1.0),
    origin="builtin",
    description="4 cores, one at 2.0x turbo speed",
)


# -- arrival processes -------------------------------------------------------------


@dataclass(frozen=True)
class ArrivalFactory:
    """One arrival-process registry entry.

    ``build(apps, rng, machine, **params)`` returns an
    :class:`~repro.sim.arrivals.ArrivalSchedule`; ``seed_sensitive``
    tells the campaign executor whether the cell seed changes the
    generated schedule (deterministic generators like ``batch`` and
    ``trace`` share one memoized cell across seeds).
    """

    name: str
    build: Callable[..., object]
    description: str = ""
    seed_sensitive: bool = True


def register_arrival(
    name: str,
    generator: Callable[..., object] | None = None,
    *,
    description: str = "",
    seed_sensitive: bool = True,
    origin: str = "plugin",
    overwrite: bool = False,
) -> object:
    """Register an arrival-process generator; usable as a decorator.

    The generator signature is ``generator(apps, rng, machine, **params)
    -> ArrivalSchedule``: ``apps`` is the workload's application names in
    declaration order, ``rng`` a per-run
    :class:`~repro.util.rng.DeterministicRng` stream (never module-level
    state — the determinism tests enforce this), ``machine`` the cell's
    :class:`~repro.sim.config.MachineConfig`.  Plugins default to
    ``seed_sensitive=True`` so the executor's cell memo keys every seed
    apart and never reuses a schedule the seed should have changed.
    """

    def _register(fn: Callable[..., object]) -> Callable[..., object]:
        # Decorator implementation — the sanctioned registration entry point.
        ARRIVALS.register(  # repro-check: ignore[nested-registration]
            name,
            ArrivalFactory(
                name=name,
                build=fn,
                description=description or _doc_line(fn),
                seed_sensitive=seed_sensitive,
            ),
            description=description or _doc_line(fn),
            origin=origin,
            overwrite=overwrite,
        )
        return fn

    if generator is None:
        return _register
    return _register(generator)


register_arrival(
    "batch", batch_arrivals, origin="builtin", seed_sensitive=False,
    description="every app at one instant (t=0: the closed-system degenerate)",
)
register_arrival(
    "poisson", poisson_arrivals, origin="builtin",
    description="Poisson process: exponential gaps at `rate` apps/second",
)
register_arrival(
    "bursty", bursty_arrivals, origin="builtin",
    description="Poisson bursts of `burst` apps at long-run `rate` apps/second",
)
register_arrival(
    "trace", trace_arrivals, origin="builtin", seed_sensitive=False,
    description="replay arrival times (ms) from `path` or inline `times_ms`",
)


# -- contention models --------------------------------------------------------------


@dataclass(frozen=True)
class ContentionFactory:
    """One contention-model registry entry.

    ``build(machine, **params)`` returns a
    :class:`~repro.sim.contention.ContentionModel` for one
    :class:`~repro.sim.config.MachineConfig`; ``params`` are the
    machine's :attr:`~repro.sim.config.MachineConfig.contention_params`
    pairs.  Builders must be deterministic pure functions — campaign
    cells build and charge models in separate worker processes, so any
    hidden state would break the batched-vs-scalar and determinism
    oracles (``tests/test_contention_properties.py``).
    """

    name: str
    build: Callable[..., object]
    description: str = ""


def register_contention(
    name: str,
    builder: Callable[..., object] | None = None,
    *,
    description: str = "",
    origin: str = "plugin",
    overwrite: bool = False,
) -> object:
    """Register a contention-model builder; usable as a decorator.

    The builder signature is ``builder(machine, **params) ->
    ContentionModel``: ``machine`` is the cell's
    :class:`~repro.sim.config.MachineConfig` (builders typically read
    ``num_cores`` and ``quantum_cycles``), ``params`` the machine's
    declared parameter pairs.  The returned model's ``delay_cycles(core,
    transfers, wall_cycles)`` is charged once per executed segment; see
    ``docs/API.md`` and ``examples/custom_contention.py`` for a recipe.
    """

    def _register(fn: Callable[..., object]) -> Callable[..., object]:
        # Decorator implementation — the sanctioned registration entry point.
        CONTENTION.register(  # repro-check: ignore[nested-registration]
            name,
            ContentionFactory(
                name=name,
                build=fn,
                description=description or _doc_line(fn),
            ),
            description=description or _doc_line(fn),
            origin=origin,
            overwrite=overwrite,
        )
        return fn

    if builder is None:
        return _register
    return _register(builder)


register_contention(
    "none", no_contention, origin="builtin",
    description="un-queued off-chip transfers (the paper's flat miss latency)",
)
register_contention(
    "bus", bus_contention, origin="builtin",
    description=(
        "shared-bus TDMA fair share: `lines_per_quantum` line transfers "
        "per quantum across all cores"
    ),
)
register_contention(
    "noc", noc_contention, origin="builtin",
    description=(
        "spiral-mapped mesh NoC: `hop_cycles` per Manhattan hop from the "
        "core's cluster (`cluster_size` cores each) to the hub"
    ),
)


# -- discovery helpers (the ``repro list`` surface) -------------------------------


def list_schedulers() -> list[tuple[str, str, str]]:
    """``(name, origin, description)`` rows, registration order."""
    return [(e.name, e.origin, e.description) for e in SCHEDULERS.entries()]


def list_workloads() -> list[tuple[str, str, str]]:
    """``(ref syntax, origin, description)`` rows, registration order."""
    return [
        (e.value.ref_syntax(), e.origin, e.description)
        for e in WORKLOADS.entries()
    ]


def list_machines() -> list[tuple[str, str, str]]:
    """``(name, origin, description)`` rows, registration order."""
    return [(e.name, e.origin, e.description) for e in MACHINES.entries()]


def list_arrivals() -> list[tuple[str, str, str]]:
    """``(name, origin, description)`` rows, registration order."""
    return [(e.name, e.origin, e.description) for e in ARRIVALS.entries()]


def list_contentions() -> list[tuple[str, str, str]]:
    """``(name, origin, description)`` rows, registration order."""
    return [(e.name, e.origin, e.description) for e in CONTENTION.entries()]
