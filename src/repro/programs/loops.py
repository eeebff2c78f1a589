"""Perfect loop nests.

A :class:`LoopNest` records the ordered loop variables and their half-open
bounds; its iteration space is the box the paper writes as
``IS1 = {[i1,i2]: 0 <= i1 < 8 && 0 <= i2 < 3000}``.
"""

from __future__ import annotations

import math
from typing import Iterator, Sequence

from repro.errors import ValidationError
from repro.presburger.builders import iteration_space
from repro.presburger.sets import BasicSet


class LoopNest:
    """An ordered perfect loop nest with constant half-open bounds."""

    __slots__ = ("_bounds", "_space")

    def __init__(self, bounds: Sequence[tuple[str, int, int]]) -> None:
        bounds = [(str(name), int(low), int(high)) for name, low, high in bounds]
        if not bounds:
            raise ValidationError("a loop nest needs at least one loop")
        names = [name for name, _, _ in bounds]
        if len(set(names)) != len(names):
            raise ValidationError(f"duplicate loop variables in {names}")
        for name, low, high in bounds:
            if high < low:
                raise ValidationError(
                    f"loop {name!r} has empty bounds [{low}, {high})"
                )
        self._bounds = tuple(bounds)
        self._space: BasicSet | None = None

    @property
    def bounds(self) -> tuple[tuple[str, int, int], ...]:
        """``(var, low, high)`` triples, outermost first."""
        return self._bounds

    @property
    def variables(self) -> tuple[str, ...]:
        """Loop variables, outermost first."""
        return tuple(name for name, _, _ in self._bounds)

    @property
    def depth(self) -> int:
        """Nesting depth."""
        return len(self._bounds)

    @property
    def trip_count(self) -> int:
        """Total number of iterations."""
        return math.prod(high - low for _, low, high in self._bounds)

    def bounds_of(self, name: str) -> tuple[int, int]:
        """The half-open bounds of one loop variable."""
        for var_name, low, high in self._bounds:
            if var_name == name:
                return (low, high)
        raise ValidationError(f"no loop variable {name!r} in nest {self.variables}")

    def space(self) -> BasicSet:
        """The iteration space as a symbolic set (built once; sets are immutable)."""
        if self._space is None:
            self._space = iteration_space(self._bounds)
        return self._space

    def __iter__(self) -> Iterator[tuple[str, int, int]]:
        return iter(self._bounds)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LoopNest):
            return NotImplemented
        return self._bounds == other._bounds

    def __hash__(self) -> int:
        return hash(self._bounds)

    def __repr__(self) -> str:
        loops = "; ".join(f"{n} in [{lo},{hi})" for n, lo, hi in self._bounds)
        return f"LoopNest({loops})"
