"""The schedulable unit: a process.

A :class:`Process` owns one or more fragment pieces (its share of one or
more parallelised loop nests), and exposes the merged per-array data
footprint the sharing analysis needs (the paper's ``DS`` set for the
process) plus the work metrics the simulator charges.
"""

from __future__ import annotations

from typing import Sequence

from repro.errors import ValidationError
from repro.presburger.points import PointSet
from repro.programs.arrays import ArraySpec
from repro.programs.fragments import FragmentPiece
from repro.util.memo import BoundedDict
from repro.util.validation import check_type


class Process:
    """One schedulable process belonging to a task."""

    __slots__ = (
        "_pid",
        "_task_name",
        "_pieces",
        "_data_cache",
        "_trace_cache",
        "_arrays_cache",
    )

    def __init__(
        self, pid: str, task_name: str, pieces: Sequence[FragmentPiece]
    ) -> None:
        check_type("pid", pid, str)
        check_type("task_name", task_name, str)
        if not pid:
            raise ValidationError("process id must be non-empty")
        pieces = tuple(pieces)
        if not pieces:
            raise ValidationError(f"process {pid!r} needs at least one fragment piece")
        for piece in pieces:
            if not isinstance(piece, FragmentPiece):
                raise ValidationError(f"expected FragmentPiece, got {piece!r}")
        self._pid = pid
        self._task_name = task_name
        self._pieces = pieces
        self._data_cache: dict[str, PointSet] | None = None
        self._trace_cache = BoundedDict(8)
        self._arrays_cache: dict[str, ArraySpec] | None = None

    @property
    def pid(self) -> str:
        """Unique process id (unique within an EPG)."""
        return self._pid

    @property
    def task_name(self) -> str:
        """The owning task's name."""
        return self._task_name

    @property
    def pieces(self) -> tuple[FragmentPiece, ...]:
        """The fragment pieces executed, in order."""
        return self._pieces

    @property
    def arrays(self) -> dict[str, ArraySpec]:
        """All arrays this process touches, by name (computed once)."""
        if self._arrays_cache is None:
            merged: dict[str, ArraySpec] = {}
            for piece in self._pieces:
                for name, spec in piece.arrays.items():
                    existing = merged.get(name)
                    if existing is not None and existing != spec:
                        raise ValidationError(
                            f"process {self._pid!r} sees conflicting "
                            f"declarations for array {name!r}"
                        )
                    merged[name] = spec
            self._arrays_cache = merged
        return dict(self._arrays_cache)

    @property
    def trip_count(self) -> int:
        """Total iterations across all pieces."""
        return sum(piece.trip_count for piece in self._pieces)

    @property
    def compute_cycles(self) -> int:
        """Total non-memory compute cycles across all pieces."""
        return sum(
            piece.trip_count * piece.compute_cycles_per_iteration
            for piece in self._pieces
        )

    def data_sets(self) -> dict[str, PointSet]:
        """Merged per-array flat-element footprint — the process's ``DS`` (cached)."""
        if self._data_cache is None:
            groups: dict[str, list[PointSet]] = {}
            for piece in self._pieces:
                for name, points in piece.data_sets().items():
                    groups.setdefault(name, []).append(points)
            self._data_cache = {
                name: PointSet.union_all(sets) for name, sets in groups.items()
            }
        return dict(self._data_cache)

    def trace_cache_get(self, key):
        """Fetch a memoized memory trace (see :func:`repro.sim.trace.build_trace`)."""
        return self._trace_cache.get(key)

    def trace_cache_put(self, key, trace) -> None:
        """Memoize a built memory trace, bounded to a handful of layouts."""
        self._trace_cache.put(key, trace)

    def footprint_bytes(self) -> int:
        """Total distinct bytes touched across all arrays."""
        arrays = self.arrays
        return sum(
            len(points) * arrays[name].element_size
            for name, points in self.data_sets().items()
        )

    def shared_bytes_with(self, other: "Process") -> int:
        """``|SS(self, other)|`` in bytes: overlap of the two data sets.

        This is the paper's sharing-set cardinality, summed over the arrays
        both processes touch and weighted by element size.
        """
        if not isinstance(other, Process):
            raise ValidationError(f"expected a Process, got {type(other).__name__}")
        mine = self.data_sets()
        theirs = other.data_sets()
        arrays = self.arrays
        total = 0
        for name in mine.keys() & theirs.keys():
            total += mine[name].intersection_size(theirs[name]) * arrays[name].element_size
        return total

    def __repr__(self) -> str:
        return f"Process({self._pid}, task={self._task_name}, pieces={len(self._pieces)})"
