"""Program fragments and per-process pieces.

A :class:`ProgramFragment` is one parallelisable loop nest with its array
accesses — the unit the paper calls "Prog1"/"Prog2".  Parallelisation
restricts the fragment's iteration space per process, producing
:class:`FragmentPiece` objects; a piece knows its exact iteration points,
its per-array data footprint (the paper's ``DS`` sets), and the ordered
access stream the simulator turns into a memory trace.  A piece grounds
its sub-space once (:meth:`BasicSet.ground`) and evaluates every access's
flat offset expression over that grounding, so neither its trip count
nor its access stream builds the iteration points.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.errors import UnknownArrayError, ValidationError
from repro.presburger.points import PointSet
from repro.presburger.sets import BasicSet, Grounding
from repro.programs.accesses import AffineAccess
from repro.programs.arrays import ArraySpec
from repro.programs.loops import LoopNest
from repro.util.validation import check_positive, check_type


class ProgramFragment:
    """A named loop nest plus its affine accesses and compute cost."""

    __slots__ = ("_name", "_nest", "_accesses", "_compute_cycles", "_arrays")

    def __init__(
        self,
        name: str,
        nest: LoopNest,
        accesses: Sequence[AffineAccess],
        compute_cycles_per_iteration: int = 1,
    ) -> None:
        check_type("name", name, str)
        if not isinstance(nest, LoopNest):
            raise ValidationError(f"nest must be a LoopNest, got {nest!r}")
        accesses = tuple(accesses)
        if not accesses:
            raise ValidationError(f"fragment {name!r} needs at least one access")
        check_positive("compute_cycles_per_iteration", compute_cycles_per_iteration)
        nest_vars = set(nest.variables)
        arrays: dict[str, ArraySpec] = {}
        for access in accesses:
            if not isinstance(access, AffineAccess):
                raise ValidationError(f"expected AffineAccess, got {access!r}")
            loose = set(access.loop_variables) - nest_vars
            if loose:
                raise ValidationError(
                    f"access {access!r} uses variables {sorted(loose)} "
                    f"not bound by the nest {nest.variables}"
                )
            existing = arrays.get(access.array.name)
            if existing is not None and existing != access.array:
                raise ValidationError(
                    f"conflicting declarations for array {access.array.name!r}"
                )
            arrays[access.array.name] = access.array
        self._name = name
        self._nest = nest
        self._accesses = accesses
        self._compute_cycles = int(compute_cycles_per_iteration)
        self._arrays = arrays

    @property
    def name(self) -> str:
        """Fragment name (used in process ids and reports)."""
        return self._name

    @property
    def nest(self) -> LoopNest:
        """The loop nest."""
        return self._nest

    @property
    def accesses(self) -> tuple[AffineAccess, ...]:
        """Accesses in program order."""
        return self._accesses

    @property
    def compute_cycles_per_iteration(self) -> int:
        """Non-memory compute cost charged per iteration."""
        return self._compute_cycles

    @property
    def arrays(self) -> dict[str, ArraySpec]:
        """All arrays the fragment touches, by name."""
        return dict(self._arrays)

    def whole(self) -> "FragmentPiece":
        """The piece covering the entire iteration space."""
        return FragmentPiece(self, self._nest.space(), label="all")

    def restrict(self, subset: BasicSet, label: str = "piece") -> "FragmentPiece":
        """Restrict to a sub-iteration-space (space must match the nest)."""
        if subset.space != self._nest.variables:
            raise ValidationError(
                f"subset space {subset.space} does not match "
                f"nest variables {self._nest.variables}"
            )
        return FragmentPiece(self, subset, label=label)

    def __repr__(self) -> str:
        return (
            f"ProgramFragment({self._name}, {self._nest!r}, "
            f"{len(self._accesses)} accesses)"
        )


class FragmentPiece:
    """A fragment restricted to one process's share of the iterations."""

    __slots__ = (
        "_fragment",
        "_subset",
        "_label",
        "_grounding",
        "_points_cache",
        "_data_cache",
        "_columns_cache",
    )

    def __init__(self, fragment: ProgramFragment, subset: BasicSet, label: str) -> None:
        self._fragment = fragment
        self._subset = subset
        self._label = label
        self._grounding: Grounding | None = None
        self._points_cache: PointSet | None = None
        self._data_cache: dict[str, PointSet] | None = None
        self._columns_cache: list[tuple[ArraySpec, np.ndarray, bool]] | None = None

    @property
    def fragment(self) -> ProgramFragment:
        """The parent fragment."""
        return self._fragment

    @property
    def subset(self) -> BasicSet:
        """This piece's iteration sub-space."""
        return self._subset

    @property
    def label(self) -> str:
        """Human-readable piece label (e.g. ``"p3"``)."""
        return self._label

    @property
    def compute_cycles_per_iteration(self) -> int:
        """Per-iteration compute cost inherited from the fragment."""
        return self._fragment.compute_cycles_per_iteration

    @property
    def arrays(self) -> dict[str, ArraySpec]:
        """Arrays touched by the parent fragment."""
        return self._fragment.arrays

    def _ground(self) -> Grounding:
        """The sub-space's grounding, computed once."""
        if self._grounding is None:
            self._grounding = self._subset.ground()
        return self._grounding

    def iteration_points(self) -> PointSet:
        """Exact iteration points, lexicographically ordered (cached)."""
        if self._points_cache is None:
            self._points_cache = self._ground().points()
        return self._points_cache

    @property
    def trip_count(self) -> int:
        """Number of iterations in the piece."""
        return self._ground().size

    def data_sets(self) -> dict[str, PointSet]:
        """Per-array flat-element footprints — the paper's ``DS`` sets (cached).

        An array's footprint is the union of its accesses' offset columns
        (:meth:`access_columns`), which are exactly the images of the
        access maps over the iteration points.
        """
        if self._data_cache is None:
            offsets: dict[str, list[np.ndarray]] = {}
            for array, column, _ in self.access_columns():
                offsets.setdefault(array.name, []).append(column)
            self._data_cache = {
                name: PointSet.from_flat(np.concatenate(columns))
                for name, columns in offsets.items()
            }
        return dict(self._data_cache)

    def data_set(self, array_name: str) -> PointSet:
        """The flat-element footprint on one array."""
        footprints = self.data_sets()
        if array_name not in footprints:
            raise UnknownArrayError(array_name)
        return footprints[array_name]

    def footprint_bytes(self) -> dict[str, int]:
        """Touched bytes per array (distinct elements × element size)."""
        return {
            name: len(points) * self._fragment.arrays[name].element_size
            for name, points in self.data_sets().items()
        }

    def access_columns(self) -> list[tuple[ArraySpec, np.ndarray, bool]]:
        """The ordered access stream, one column per textual access.

        Returns ``(array, flat_offsets, is_write)`` triples where
        ``flat_offsets[n]`` is the element touched by this access in the
        n-th iteration (iterations in lexicographic order).  The simulator
        interleaves the columns row-by-row to recover program order.
        Each column is the access's flat offset expression evaluated over
        the piece's grounding.  Cached: trace builders call this once per
        layout, and the offset columns are layout-independent.
        """
        if self._columns_cache is not None:
            return list(self._columns_cache)
        grounding = self._ground()
        result = []
        for access in self._fragment.accesses:
            offsets = grounding.values(access.flat_expr())
            offsets.setflags(write=False)
            result.append((access.array, offsets, access.is_write))
        self._columns_cache = result
        return list(result)

    def __repr__(self) -> str:
        return f"FragmentPiece({self._fragment.name}/{self._label})"
