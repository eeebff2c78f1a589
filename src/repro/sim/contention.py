"""Off-chip contention models — queueing for the shared bus and NoC.

The paper charges every miss a flat 100-cycle round trip (Table 2's
2-cycle cache access + 75-cycle off-chip latency in our decomposition)
no matter how many cores miss at once.  On the real MPSoC that round
trip crosses a shared bus to one SDRAM controller, so concurrent misses
queue.  This module makes that queueing a pluggable cost axis, mirroring
the arrival-process registry: models register under a string name
(:data:`repro.api.registries.CONTENTION`), machines select one via
:attr:`~repro.sim.config.MachineConfig.contention`, and the simulator
charges the model once per executed segment (a whole process under the
static and dynamic policies, a quantum under RRS).

Charging is deliberately *post-segment and stateless*: a model sees only
a segment's aggregate off-chip transfer count (misses plus dirty
write-backs), the core that ran it, and the segment's undelayed wall
duration, and returns a non-negative stall appended to that duration.
Because the stall is a pure function of per-segment aggregates the
scalar and quantum-batched drivers charge bit-identical delays, results
stay independent of worker/pool scheduling, and hit/miss/write-back
counts are conserved by construction — the invariants
``tests/test_contention_properties.py`` enforces.

Builtin models:

- ``none`` — the null model; the simulator skips charging entirely, so
  results are byte-identical to a machine with no contention field.
- ``bus`` — TDMA fair share of a shared bus: the bus moves
  ``lines_per_quantum`` line transfers per machine quantum, split evenly
  across the ``num_cores`` potential contenders.  A segment needing more
  than its share stalls for the difference.
- ``noc`` — a 2D mesh NoC with the memory controller at the hub
  cluster: every transfer pays ``hop_cycles`` per Manhattan hop from the
  core's cluster, with clusters laid out along the outward square spiral
  (the spiral task-mapping heuristic's placement).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Protocol

from repro.errors import ValidationError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (config -> here)
    from repro.sim.config import MachineConfig


class ContentionModel(Protocol):
    """One off-chip contention cost model (structural interface).

    Implementations must be deterministic pure functions of their
    constructor parameters and the ``delay_cycles`` arguments: campaign
    cells build and charge models in separate worker processes, and the
    batched and scalar executors must charge bit-identical stalls.
    """

    def delay_cycles(self, core: int, transfers: int, wall_cycles: int) -> int:
        """Extra stall cycles for a segment.

        ``transfers`` counts the segment's off-chip line transfers
        (misses plus dirty write-backs), ``wall_cycles`` its undelayed
        wall duration on ``core``.  Must return a non-negative int.
        """
        ...


@dataclass(frozen=True)
class NoContention:
    """The paper's original cost model: off-chip transfers never queue."""

    def delay_cycles(self, core: int, transfers: int, wall_cycles: int) -> int:
        """Always zero — the flat Table-2 miss latency already paid."""
        return 0


@dataclass(frozen=True)
class BusContention:
    """TDMA fair share of one shared bus to the SDRAM controller.

    The bus moves :attr:`lines_per_quantum` cache-line transfers per
    machine quantum; under time-division arbitration each of the
    :attr:`num_cores` potential contenders owns ``1/num_cores`` of that.
    A segment that moves ``t`` lines therefore needs
    ``ceil(t * quantum_cycles * num_cores / lines_per_quantum)`` cycles
    of bus schedule; whatever exceeds the segment's own wall duration is
    time the core stalls waiting for its slots.

    The fair share makes the model stateless — the charge does not
    depend on what other cores did, so it is monotone in the budget
    (more bandwidth never slows anything) and exactly zero once the
    per-core share covers the segment's demand rate (a large enough
    budget reproduces the ``none`` model bit for bit).
    """

    num_cores: int
    quantum_cycles: int
    lines_per_quantum: int

    def __post_init__(self) -> None:
        for name in ("num_cores", "quantum_cycles", "lines_per_quantum"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, int) or value < 1:
                raise ValidationError(
                    f"bus contention needs a positive integer {name}, got {value!r}"
                )

    def delay_cycles(self, core: int, transfers: int, wall_cycles: int) -> int:
        """Stall: bus-schedule cycles needed beyond the segment's own wall."""
        if transfers <= 0:
            return 0
        need = -(
            -transfers * self.quantum_cycles * self.num_cores
            // self.lines_per_quantum
        )
        return max(0, need - max(wall_cycles, 0))


@dataclass(frozen=True)
class NocContention:
    """Hop latency on a 2D mesh NoC with the memory controller at the hub.

    Cores are grouped into clusters of :attr:`cluster_size` consecutive
    ids; cluster ``k`` sits at the ``k``-th cell of the outward square
    spiral from the hub (cluster 0, which hosts the controller and pays
    nothing).  Every off-chip transfer pays :attr:`hop_cycles` per
    Manhattan hop each way — ``hop_cycles = 0`` reproduces ``none``.
    """

    hop_cycles: int
    cluster_size: int

    def __post_init__(self) -> None:
        if (
            isinstance(self.hop_cycles, bool)
            or not isinstance(self.hop_cycles, int)
            or self.hop_cycles < 0
        ):
            raise ValidationError(
                f"noc contention needs a non-negative integer hop_cycles, "
                f"got {self.hop_cycles!r}"
            )
        if (
            isinstance(self.cluster_size, bool)
            or not isinstance(self.cluster_size, int)
            or self.cluster_size < 1
        ):
            raise ValidationError(
                f"noc contention needs a positive integer cluster_size, "
                f"got {self.cluster_size!r}"
            )

    def delay_cycles(self, core: int, transfers: int, wall_cycles: int) -> int:
        """Per-transfer hop latency to the hub cluster and back."""
        if transfers <= 0 or self.hop_cycles == 0:
            return 0
        hops = spiral_distance(core // self.cluster_size)
        return transfers * self.hop_cycles * hops


# -- spiral cluster placement -------------------------------------------------------


def spiral_coordinate(index: int) -> tuple[int, int]:
    """Grid cell of ``index`` on the outward square spiral from the origin.

    Cell 0 is the origin; the spiral steps east, then counter-clockwise
    (up, left, down, right) in growing rings — the placement order the
    spiral task-mapping heuristic assigns clusters by, keeping
    low-indexed clusters closest to the hub.
    """
    if index < 0:
        raise ValidationError(f"spiral index must be non-negative, got {index}")
    if index == 0:
        return (0, 0)
    ring = (math.isqrt(index) + 1) // 2
    side, pos = divmod(index - (2 * ring - 1) ** 2, 2 * ring)
    if side == 0:  # right edge, northbound
        return (ring, -ring + 1 + pos)
    if side == 1:  # top edge, westbound
        return (ring - 1 - pos, ring)
    if side == 2:  # left edge, southbound
        return (-ring, ring - 1 - pos)
    return (-ring + 1 + pos, -ring)  # bottom edge, eastbound


def spiral_distance(index: int) -> int:
    """Manhattan hops from spiral cell ``index`` to the hub (cell 0)."""
    x, y = spiral_coordinate(index)
    return abs(x) + abs(y)


# -- builtin builders (registered in repro.api.registries) --------------------------


def no_contention(machine: "MachineConfig") -> ContentionModel:
    """un-queued off-chip transfers (the paper's flat miss latency)"""
    return NoContention()


def bus_contention(
    machine: "MachineConfig", lines_per_quantum: int = 64
) -> ContentionModel:
    """shared-bus TDMA: `lines_per_quantum` line transfers per quantum"""
    return BusContention(
        num_cores=machine.num_cores,
        quantum_cycles=machine.quantum_cycles,
        lines_per_quantum=_as_int("lines_per_quantum", lines_per_quantum),
    )


def noc_contention(
    machine: "MachineConfig", hop_cycles: int = 4, cluster_size: int = 1
) -> ContentionModel:
    """spiral-mapped mesh NoC: `hop_cycles` per hop to the hub cluster"""
    return NocContention(
        hop_cycles=_as_int("hop_cycles", hop_cycles),
        cluster_size=_as_int("cluster_size", cluster_size),
    )


def _as_int(name: str, value: object) -> int:
    """Coerce a JSON-roundtripped parameter to int; reject non-integers."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValidationError(
            f"contention parameter {name} must be an integer, got {value!r}"
        )
    if isinstance(value, float) and not value.is_integer():
        raise ValidationError(
            f"contention parameter {name} must be an integer, got {value!r}"
        )
    return int(value)


# -- spec plumbing ------------------------------------------------------------------


def normalize_contention_params(params: object) -> tuple[tuple[str, object], ...]:
    """Canonical sorted ``(name, value)`` pairs from a dict or pair sequence.

    Spec files and JSON round trips hand parameters over as dicts or
    lists of two-element lists; the frozen
    :class:`~repro.sim.config.MachineConfig` stores them as one sorted
    tuple so equal parameterizations hash equally.
    """
    if isinstance(params, dict):
        items = list(params.items())
    elif isinstance(params, (list, tuple)):
        items = []
        for entry in params:
            if not isinstance(entry, (list, tuple)) or len(entry) != 2:
                raise ValidationError(
                    f"contention_params entries are (name, value) pairs, "
                    f"got {entry!r}"
                )
            items.append((entry[0], entry[1]))
    else:
        raise ValidationError(
            f"contention_params must be a dict or a sequence of (name, value) "
            f"pairs, got {params!r}"
        )
    pairs = tuple(sorted((str(name), value) for name, value in items))
    names = [name for name, _ in pairs]
    if len(set(names)) != len(names):
        raise ValidationError(
            f"contention_params repeats a parameter: {names}"
        )
    return pairs


def build_contention(machine: "MachineConfig") -> ContentionModel:
    """Build (and thereby validate) a machine's contention model.

    Resolves :attr:`~repro.sim.config.MachineConfig.contention` through
    the registry (unknown names raise the registry's did-you-mean
    error) and calls the factory with the machine and its parameter
    pairs; unknown parameters surface as :class:`ValidationError`.
    """
    # Imported lazily: the registries module imports this one for the
    # builtin builders, and MachineConfig validation calls back in here.
    from repro.api.registries import CONTENTION

    factory = CONTENTION.get(machine.contention)
    try:
        model = factory.build(machine, **dict(machine.contention_params))
    except TypeError as exc:
        raise ValidationError(
            f"contention model {machine.contention!r} rejected parameters "
            f"{dict(machine.contention_params)!r}: {exc}"
        ) from None
    return model


def contention_model_for(machine: "MachineConfig") -> ContentionModel | None:
    """The machine's contention model, or None for the null fast path.

    Returning None for ``none`` (rather than a :class:`NoContention`
    instance) lets the simulator skip the charging branch entirely, so a
    machine without a contention axis executes the identical arithmetic
    it always has.
    """
    if machine.contention == "none" and not machine.contention_params:
        return None
    model = build_contention(machine)
    return None if isinstance(model, NoContention) else model
