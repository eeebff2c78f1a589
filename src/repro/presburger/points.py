"""Exact enumerated integer point sets.

A :class:`PointSet` is the grounded form of a symbolic set: the distinct
integer points of one dimension as an (N, dim) int64 array in canonical
(lexicographic) order.  Every sharing-matrix number in :mod:`repro.sharing`
bottoms out in the set algebra here, and none of it sorts rows as a void
dtype.  A 1-D set (every ``DS`` set and footprint) is its sorted distinct
column, so its algebra is ``searchsorted`` probes and 1-D ``np.unique``.
An n-D set sorts with ``np.lexsort`` and dedupes by an adjacent-row scan.
:meth:`BasicSet.enumerate` lays its points out row-major over ascending
ranges, which is canonical by construction, and they enter through
:meth:`PointSet._from_canonical`, which neither sorts nor checks
(docs/PERFORMANCE.md says why).

Coordinates must be integers: float and bool input is rejected, not
truncated.  Membership follows :class:`range`: a candidate with a
non-integral coordinate is not a member.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Sequence

import numpy as np

from repro.errors import DimensionMismatchError, ValidationError


_INT64_MAX = np.iinfo(np.int64).max


def _int_array(values: np.ndarray | Iterable) -> np.ndarray:
    """``values`` as int64; anything but integers within int64 is a ValidationError."""
    try:
        array = np.asarray(values if isinstance(values, np.ndarray) else list(values))
    except (TypeError, ValueError) as exc:  # ragged rows
        raise ValidationError(f"points must be rows of integers: {exc}") from None
    kind = array.dtype.kind
    if array.size and (kind not in "iu" or (kind == "u" and array.max() > _INT64_MAX)):
        raise ValidationError(f"points must be integers within int64, got {array.dtype}")
    return array.astype(np.int64, copy=False)


def _canonicalize(rows: np.ndarray) -> np.ndarray:
    """Sort an (N, d) int64 array lexicographically and drop duplicate rows.

    Always a fresh array: the caller freezes it, and the input stays the
    caller's.  Sorted 1-D input only needs the boundary scan.
    """
    if rows.shape[1] == 1:
        column = rows[:, 0]
        if np.any(column[1:] < column[:-1]):
            return np.unique(column).reshape(-1, 1)
    elif rows.shape[1] > 1:
        rows = rows[np.lexsort(rows.T[::-1])]
    fresh = np.ones(len(rows), dtype=bool)
    np.any(rows[1:] != rows[:-1], axis=1, out=fresh[1:])
    return rows[fresh]


def _member_mask(rows: np.ndarray, other: np.ndarray) -> np.ndarray:
    """Which rows of canonical ``rows`` also occur in canonical ``other``."""
    if rows.shape[1] == 1:
        probes, column = rows[:, 0], other[:, 0]
        found = np.searchsorted(column, probes)
        np.minimum(found, len(column) - 1, out=found)
        return column[found] == probes
    # Neither operand repeats a row, so equal neighbours in the stable sort
    # of the concatenation are the common points, the copy from ``rows``
    # first.
    both = np.concatenate([rows, other])
    order = np.lexsort(both.T[::-1])
    ordered = both[order]
    mask = np.zeros(len(rows), dtype=bool)
    mask[order[:-1][np.all(ordered[1:] == ordered[:-1], axis=1)]] = True
    return mask


class PointSet:
    """An immutable, canonical set of integer points of fixed dimension."""

    __slots__ = ("_points", "_dim")

    def __init__(self, points: np.ndarray | Iterable[Sequence[int]], dim: int | None = None) -> None:
        array = _int_array(points)
        if array.size == 0:
            if dim is None:
                raise ValidationError("an empty PointSet needs an explicit dim")
            array = np.empty((0, dim), dtype=np.int64)
        if array.ndim == 1:
            array = array.reshape(-1, 1)
        if array.ndim != 2:
            raise ValidationError(f"points must be a 2-D array, got ndim={array.ndim}")
        if dim is not None and array.shape[1] != dim:
            raise DimensionMismatchError(dim, array.shape[1], "PointSet")
        self._points = _canonicalize(array)
        self._points.setflags(write=False)
        self._dim = self._points.shape[1]

    @classmethod
    def _from_canonical(cls, rows: np.ndarray) -> "PointSet":
        """Adopt and freeze an (N, dim) int64 array that is already canonical."""
        result = object.__new__(cls)
        rows.setflags(write=False)
        result._points = rows
        result._dim = rows.shape[1]
        return result

    @classmethod
    def empty(cls, dim: int) -> "PointSet":
        """The empty set of the given dimension."""
        return cls._from_canonical(np.empty((0, dim), dtype=np.int64))

    @classmethod
    def from_flat(cls, values: np.ndarray | Iterable[int]) -> "PointSet":
        """Build a 1-D point set from a flat iterable of ints."""
        return cls(values, dim=1)

    # -- inspection ---------------------------------------------------------

    @property
    def dim(self) -> int:
        """Dimensionality of each point."""
        return self._dim

    @property
    def points(self) -> np.ndarray:
        """The canonical (N, dim) read-only array of points."""
        return self._points

    def flat(self) -> np.ndarray:
        """The values of a 1-D point set as a flat (sorted, distinct) array."""
        if self._dim != 1:
            raise DimensionMismatchError(1, self._dim, "flat() needs a 1-D set")
        return self._points[:, 0]

    def is_empty(self) -> bool:
        """True when the set has no points."""
        return self._points.shape[0] == 0

    def __len__(self) -> int:
        return self._points.shape[0]

    def __iter__(self) -> Iterator[tuple[int, ...]]:
        for row in self._points.tolist():
            yield tuple(row)

    def __contains__(self, point: Sequence[int]) -> bool:
        coords = np.asarray(point, dtype=object).reshape(-1).tolist()
        if len(coords) != self._dim:
            raise DimensionMismatchError(self._dim, len(coords), "membership")
        try:
            candidate = np.array(coords, dtype=np.int64)
        except (TypeError, ValueError, OverflowError):
            return False
        if candidate.tolist() != coords:  # the cast changed a coordinate
            return False
        return bool(np.any(np.all(self._points == candidate, axis=1)))

    # -- algebra ------------------------------------------------------------

    def _check_compatible(self, other: "PointSet") -> None:
        if not isinstance(other, PointSet):
            raise ValidationError(f"expected a PointSet, got {type(other).__name__}")
        if other._dim != self._dim:
            raise DimensionMismatchError(self._dim, other._dim, "set algebra")

    def intersect(self, other: "PointSet") -> "PointSet":
        """Exact set intersection."""
        self._check_compatible(other)
        if self.is_empty() or other.is_empty():
            return PointSet.empty(self._dim)
        small, large = sorted((self._points, other._points), key=len)
        return PointSet._from_canonical(small[_member_mask(small, large)])

    def union(self, other: "PointSet") -> "PointSet":
        """Exact set union."""
        return PointSet.union_all([self, other])

    @classmethod
    def union_all(cls, sets: Sequence["PointSet"]) -> "PointSet":
        """Union of many sets in one concatenate-and-dedupe pass.

        Folding :meth:`union` pairwise would re-sort the accumulated points
        once per operand.
        """
        sets = list(sets)
        if not sets:
            raise ValidationError("union_all needs at least one set")
        for other in sets[1:]:
            sets[0]._check_compatible(other)
        non_empty = [s for s in sets if not s.is_empty()]
        if len(non_empty) <= 1:
            return non_empty[0] if non_empty else sets[0]
        return cls._from_canonical(
            _canonicalize(np.concatenate([s._points for s in non_empty]))
        )

    def difference(self, other: "PointSet") -> "PointSet":
        """Points in ``self`` but not in ``other``."""
        self._check_compatible(other)
        if self.is_empty() or other.is_empty():
            return self
        return PointSet._from_canonical(
            self._points[~_member_mask(self._points, other._points)]
        )

    def intersection_size(self, other: "PointSet") -> int:
        """``len(self ∩ other)`` without materialising the intermediate set."""
        self._check_compatible(other)
        if self.is_empty() or other.is_empty():
            return 0
        small, large = sorted((self._points, other._points), key=len)
        return int(np.count_nonzero(_member_mask(small, large)))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PointSet):
            return NotImplemented
        return self._dim == other._dim and np.array_equal(self._points, other._points)

    def __hash__(self) -> int:
        return hash((self._dim, self._points.tobytes()))

    def __repr__(self) -> str:
        return f"PointSet(dim={self._dim}, n={len(self)})"
