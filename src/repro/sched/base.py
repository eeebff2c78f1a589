"""Scheduler interface and plan representation.

A scheduler consumes the EPG (and, for the locality-aware strategies, the
sharing matrix) and produces a :class:`SchedulerPlan` — either a *static*
per-core queue assignment (LS/LSM), a *dynamic* dispatch policy evaluated
whenever a core goes idle (RS and the dynamic-locality extension), or the
*shared-queue* preemptive mode (RRS).  The plan also carries the data
layout the simulation must use, which is how LSM's re-layout reaches the
trace generator.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from repro.sim.config import MachineConfig

import abc
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, Protocol, Sequence

from repro.memory.layout import DataLayout
from repro.procgraph.graph import ExtendedProcessGraph, ProcessGraph
from repro.util.validation import check_positive


class PlanMode(Enum):
    """How the simulator should drive the plan."""

    STATIC = "static"  # fixed per-core queues, non-preemptive
    DYNAMIC = "dynamic"  # picker invoked when a core idles, non-preemptive
    SHARED_QUEUE = "shared_queue"  # one FIFO ready queue, preemptive quantum


class DispatchPicker(Protocol):
    """Dynamic dispatch callback: choose the next pid for an idle core.

    Called with the core id, the ready (unstarted, dependence-satisfied)
    pids in deterministic order, the pid that last ran on this core
    (None if the core is untouched), and the pids currently running on
    the other cores.  Must return one of ``ready``.
    """

    def __call__(
        self,
        core_id: int,
        ready: Sequence[str],
        last_pid: str | None,
        running: Sequence[str],
    ) -> str: ...


@dataclass
class SchedulerPlan:
    """Everything the simulator needs to execute one scheduling strategy."""

    scheduler_name: str
    mode: PlanMode
    layout: object  # DataLayout or RemappedLayout (duck-typed via .addrs)
    core_queues: list[list[str]] | None = None  # STATIC mode
    picker: DispatchPicker | None = None  # DYNAMIC mode
    quantum_cycles: int | None = None  # SHARED_QUEUE mode
    metadata: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        from repro.errors import SchedulingError

        if self.mode is PlanMode.STATIC and self.core_queues is None:
            raise SchedulingError("a STATIC plan needs core_queues")
        if self.mode is PlanMode.DYNAMIC and self.picker is None:
            raise SchedulingError("a DYNAMIC plan needs a picker")
        if self.mode is PlanMode.SHARED_QUEUE:
            if self.quantum_cycles is None:
                raise SchedulingError("a SHARED_QUEUE plan needs quantum_cycles")
            check_positive("quantum_cycles", self.quantum_cycles)


class Scheduler(abc.ABC):
    """Base class for the four strategies (and extensions)."""

    #: Short name used in reports ("RS", "RRS", "LS", "LSM", ...).
    name: str = "?"

    #: Whether the produced plan depends on the run seed.  Deterministic
    #: strategies may set this to False, which lets the campaign executor
    #: reuse one cell's simulation for its seed replicas.  The default is
    #: True — the safe direction: a scheduler that consumes randomness
    #: but forgets to override it merely loses the memoization, instead
    #: of silently reporting cloned results across seeds.
    seed_sensitive: bool = True

    @abc.abstractmethod
    def prepare(
        self,
        epg: ProcessGraph,
        machine: MachineConfig,
        layout: DataLayout,
    ) -> SchedulerPlan:
        """Produce the execution plan for one EPG on one machine."""

    def __repr__(self) -> str:
        return f"{type(self).__name__}(name={self.name!r})"


def default_layout(epg: ProcessGraph, machine: MachineConfig) -> DataLayout:
    """The base layout every scheduler starts from.

    Arrays are collected in first-seen process order (deterministic for a
    given EPG).  Arrays of at least one cache page are aligned to the
    cache page — exactly what a page-granular allocator (malloc/mmap on a
    4 KB-page system) does to large arrays, and the source of the
    systematic equal-index set conflicts Figure 4(a) depicts.  Smaller
    arrays are packed line-aligned with a one-line stagger afterwards.
    """
    geometry = machine.geometry()
    big: list = []
    small: list = []
    seen: set[str] = set()
    for process in epg:
        for name, spec in sorted(process.arrays.items()):
            if name in seen:
                continue
            seen.add(name)
            if spec.size_bytes >= geometry.cache_page:
                big.append(spec)
            else:
                small.append(spec)
    if big:
        layout = DataLayout.allocate(
            big, alignment=geometry.cache_page, stagger=0
        )
        start = layout.end_address
    else:
        layout = None
        start = 0
    if small:
        small_layout = DataLayout.allocate(
            small,
            alignment=machine.cache_line_size,
            start_address=start,
            stagger=1,
        )
        if layout is None:
            return small_layout
        bases = {name: layout.base(name) for name in layout.array_names}
        bases.update(
            {name: small_layout.base(name) for name in small_layout.array_names}
        )
        specs = {name: layout.spec(name) for name in layout.array_names}
        specs.update(
            {name: small_layout.spec(name) for name in small_layout.array_names}
        )
        return DataLayout(specs, bases)
    if layout is None:
        from repro.errors import ValidationError

        raise ValidationError("EPG declares no arrays")
    return layout
