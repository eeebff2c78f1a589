"""A small deterministic discrete-event queue.

Events are ordered by (time, insertion sequence): simultaneous events pop
in the order they were pushed, so every simulation is exactly reproducible.
The simulator's one event loop (:mod:`repro.sim.simulator`) runs every
plan mode — static, dynamic and shared-queue — as a dispatch policy over
this queue.
"""

from __future__ import annotations

import heapq
from typing import Any

from repro.errors import EventOrderingError, ValidationError


class EventQueue:
    """A time-ordered queue with deterministic tie-breaking."""

    def __init__(self) -> None:
        self._heap: list[tuple[int, int, Any]] = []
        self._seq = 0
        self._now = 0

    @property
    def now(self) -> int:
        """The time of the most recently popped event (0 initially)."""
        return self._now

    def push(self, time: int, payload: Any) -> None:
        """Schedule a payload; time must not precede the current time."""
        if time < self._now:
            raise EventOrderingError(self._now, time)
        heapq.heappush(self._heap, (time, self._seq, payload))
        self._seq += 1

    def pop(self) -> tuple[int, Any]:
        """Pop the earliest event, advancing the clock."""
        if not self._heap:
            raise ValidationError("pop from an empty event queue")
        time, _, payload = heapq.heappop(self._heap)
        self._now = time
        return time, payload

    def __len__(self) -> int:
        return len(self._heap)

    def __bool__(self) -> bool:
        return bool(self._heap)
