"""Symbolic integer sets: conjunctions (:class:`BasicSet`) and unions
(:class:`IntegerSet`) of affine constraints over a named variable tuple.

A basic set is the direct transcription of the paper's notation, e.g. the
iteration set of process ``k`` of Prog1::

    IS1_k = BasicSet(
        ("i1", "i2"),
        [Constraint.eq(var("i1"), k),
         Constraint.ge(var("i2"), 0),
         Constraint.lt(var("i2"), 3000)],
    )

Sets are grounded with :meth:`BasicSet.enumerate`, which infers variable
bounds by interval propagation over the constraints, enumerates the bounding
box with numpy, and filters with the full constraint system — exact for
every bounded set.
"""

from __future__ import annotations

import itertools
import math
from typing import Iterable, Mapping, Sequence

import numpy as np

from repro.errors import (
    DimensionMismatchError,
    PresburgerError,
    UnboundedSetError,
    ValidationError,
)
from repro.presburger.constraints import Constraint, ConstraintKind
from repro.presburger.points import PointSet

#: Safety cap on the number of bounding-box candidates a single
#: :meth:`BasicSet.enumerate` call may materialise.
DEFAULT_MAX_POINTS = 20_000_000

_PROPAGATION_ROUNDS = 16


def _interval_bound_products(
    coeffs: Mapping[str, int],
    intervals: Mapping[str, tuple[float, float]],
    skip: str,
) -> tuple[float, float]:
    """Range of ``sum(coeff_u * u)`` over the intervals, excluding ``skip``."""
    low = 0.0
    high = 0.0
    for name, coeff in coeffs.items():
        if name == skip:
            continue
        lo, hi = intervals[name]
        candidates = (coeff * lo, coeff * hi)
        low += min(candidates)
        high += max(candidates)
    return low, high


class BasicSet:
    """A conjunction of affine constraints over an ordered variable tuple."""

    __slots__ = ("_space", "_constraints")

    def __init__(self, space: Sequence[str], constraints: Iterable[Constraint] = ()) -> None:
        space = tuple(space)
        if not space:
            raise ValidationError("a BasicSet needs at least one variable")
        if len(set(space)) != len(space):
            raise ValidationError(f"duplicate variable names in space {space}")
        constraints = tuple(constraints)
        for constraint in constraints:
            if not isinstance(constraint, Constraint):
                raise ValidationError(f"expected a Constraint, got {constraint!r}")
            unknown = set(constraint.variables) - set(space)
            if unknown:
                raise ValidationError(
                    f"constraint {constraint!r} uses variables {sorted(unknown)} "
                    f"outside the space {space}"
                )
        self._space = space
        self._constraints = constraints

    @property
    def space(self) -> tuple[str, ...]:
        """The ordered variable tuple."""
        return self._space

    @property
    def dim(self) -> int:
        """Number of variables."""
        return len(self._space)

    @property
    def constraints(self) -> tuple[Constraint, ...]:
        """The constraint conjunction."""
        return self._constraints

    # -- algebra -------------------------------------------------------------

    def with_constraints(self, *extra: Constraint) -> "BasicSet":
        """A new set with additional constraints conjoined."""
        return BasicSet(self._space, self._constraints + tuple(extra))

    def intersect(self, other: "BasicSet") -> "BasicSet":
        """Conjoin two sets over the same space."""
        if not isinstance(other, BasicSet):
            raise ValidationError(f"expected a BasicSet, got {type(other).__name__}")
        if other._space != self._space:
            raise PresburgerError(
                f"cannot intersect sets over different spaces: "
                f"{self._space} vs {other._space}"
            )
        return BasicSet(self._space, self._constraints + other._constraints)

    def contains(self, point: Sequence[int]) -> bool:
        """Membership test for a single point."""
        if len(point) != self.dim:
            raise DimensionMismatchError(self.dim, len(point), "contains")
        assignment = dict(zip(self._space, (int(x) for x in point)))
        return all(constraint.holds(assignment) for constraint in self._constraints)

    # -- bound inference -------------------------------------------------------

    def infer_bounds(self) -> dict[str, tuple[int, int]]:
        """Infer an inclusive integer interval for every variable.

        Runs interval propagation over the inequality/equality constraints:
        each constraint ``sum(a_u * u) + c >= 0`` tightens the interval of
        every variable it mentions, given the current intervals of the
        others.  Raises :class:`UnboundedSetError` if any variable remains
        unbounded after propagation (the set may also simply be empty, in
        which case an empty interval is returned for some variable).
        """
        intervals: dict[str, tuple[float, float]] = {
            name: (-math.inf, math.inf) for name in self._space
        }
        # Constant constraints decide satisfiability outright (e.g. the
        # canonical empty set's "-1 >= 0").
        for constraint in self._constraints:
            if constraint.expr.is_constant() and not constraint.holds({}):
                return {name: (0, -1) for name in self._space}
        relational = [
            c
            for c in self._constraints
            if c.kind is not ConstraintKind.MOD and not c.expr.is_constant()
        ]
        for _ in range(_PROPAGATION_ROUNDS):
            changed = False
            for constraint in relational:
                directions = (
                    (constraint.expr, True),
                    (-constraint.expr, True),
                ) if constraint.kind is ConstraintKind.EQ else ((constraint.expr, False),)
                for expr, _ in directions:
                    coeffs = expr.coeffs
                    for name, coeff in coeffs.items():
                        rest_low, rest_high = _interval_bound_products(
                            coeffs, intervals, skip=name
                        )
                        # a*v + c + rest >= 0 must hold for the point's own
                        # rest value, so the sound (loosest) bound takes
                        # rest at its maximum: a*v >= -(c + rest_high).
                        lo, hi = intervals[name]
                        bound = -(expr.constant + rest_high) / coeff
                        if not math.isfinite(bound):
                            continue  # other variables still unbounded
                        if coeff > 0:
                            new_lo = max(lo, math.ceil(bound))
                            if new_lo > lo:
                                intervals[name] = (new_lo, hi)
                                changed = True
                        else:
                            new_hi = min(hi, math.floor(bound))
                            if new_hi < hi:
                                intervals[name] = (lo, new_hi)
                                changed = True
            if not changed:
                break
        result: dict[str, tuple[int, int]] = {}
        for name, (lo, hi) in intervals.items():
            if math.isinf(lo) or math.isinf(hi):
                raise UnboundedSetError(
                    f"variable {name!r} is unbounded in {self!r}; "
                    f"enumeration requires a bounded set"
                )
            result[name] = (int(lo), int(hi))
        return result

    # -- grounding -------------------------------------------------------------

    def enumerate(self, max_points: int = DEFAULT_MAX_POINTS) -> PointSet:
        """Ground the set into an exact :class:`PointSet`.

        Enumerates the inferred bounding box (guarded by ``max_points``)
        and filters with every constraint, vectorised over numpy columns.
        The row-major grid is already canonical, so it is adopted as is.
        """
        bounds = self.infer_bounds()
        widths = []
        for name in self._space:
            lo, hi = bounds[name]
            if hi < lo:
                return PointSet.empty(self.dim)
            widths.append(hi - lo + 1)
        volume = math.prod(widths)
        if volume > max_points:
            raise PresburgerError(
                f"bounding box of {self!r} has {volume} candidate points, "
                f"over the limit of {max_points}"
            )
        axes = [
            np.arange(bounds[name][0], bounds[name][1] + 1, dtype=np.int64)
            for name in self._space
        ]
        if self.dim == 1:
            grid = axes[0].reshape(-1, 1)
        else:
            mesh = np.meshgrid(*axes, indexing="ij")
            grid = np.stack([m.ravel() for m in mesh], axis=1)
        columns = {name: grid[:, i] for i, name in enumerate(self._space)}
        keep = np.ones(grid.shape[0], dtype=bool)
        for constraint in self._constraints:
            keep &= constraint.holds_vectorized(columns)
            if not keep.any():
                return PointSet.empty(self.dim)
        return PointSet._from_canonical(grid[keep])

    def is_empty(self, max_points: int = DEFAULT_MAX_POINTS) -> bool:
        """True when the set has no integer points."""
        try:
            bounds = self.infer_bounds()
        except UnboundedSetError:
            return False  # unbounded sets are trivially non-empty here
        if any(hi < lo for lo, hi in bounds.values()):
            return True
        return self.enumerate(max_points=max_points).is_empty()

    def count(self, max_points: int = DEFAULT_MAX_POINTS) -> int:
        """Exact cardinality (``|S|``)."""
        return len(self.enumerate(max_points=max_points))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BasicSet):
            return NotImplemented
        return self._space == other._space and set(self._constraints) == set(
            other._constraints
        )

    def __hash__(self) -> int:
        return hash((self._space, frozenset(self._constraints)))

    def __repr__(self) -> str:
        vars_part = ", ".join(self._space)
        cons_part = " && ".join(repr(c) for c in self._constraints) or "true"
        return f"{{[{vars_part}]: {cons_part}}}"


class IntegerSet:
    """A finite union of :class:`BasicSet` pieces over one space."""

    __slots__ = ("_space", "_pieces")

    def __init__(self, pieces: Iterable[BasicSet]) -> None:
        pieces = tuple(pieces)
        if not pieces:
            raise ValidationError(
                "an IntegerSet needs at least one BasicSet; "
                "use IntegerSet.empty(space) for the empty set"
            )
        space = pieces[0].space
        for piece in pieces:
            if piece.space != space:
                raise PresburgerError(
                    f"union pieces live in different spaces: {space} vs {piece.space}"
                )
        self._space = space
        self._pieces = pieces

    @classmethod
    def empty(cls, space: Sequence[str]) -> "IntegerSet":
        """The empty union: one piece with an unsatisfiable constraint."""
        from repro.presburger.terms import const

        false = Constraint.ge(const(-1))
        return cls([BasicSet(space, [false])])

    @classmethod
    def from_basic(cls, basic: BasicSet) -> "IntegerSet":
        """Wrap a single basic set."""
        return cls([basic])

    @property
    def space(self) -> tuple[str, ...]:
        """The ordered variable tuple."""
        return self._space

    @property
    def pieces(self) -> tuple[BasicSet, ...]:
        """The union's basic-set pieces."""
        return self._pieces

    def union(self, other: "IntegerSet | BasicSet") -> "IntegerSet":
        """Set union (pieces are concatenated; duplicates are harmless)."""
        other_pieces = (other,) if isinstance(other, BasicSet) else other._pieces
        return IntegerSet(self._pieces + tuple(other_pieces))

    def intersect(self, other: "IntegerSet | BasicSet") -> "IntegerSet":
        """Distribute intersection over the union pieces."""
        other_pieces = (other,) if isinstance(other, BasicSet) else other._pieces
        return IntegerSet(
            [a.intersect(b) for a, b in itertools.product(self._pieces, other_pieces)]
        )

    def contains(self, point: Sequence[int]) -> bool:
        """Membership: in any piece."""
        return any(piece.contains(point) for piece in self._pieces)

    def enumerate(self, max_points: int = DEFAULT_MAX_POINTS) -> PointSet:
        """Ground into an exact :class:`PointSet` (duplicates collapse)."""
        return PointSet.union_all(
            [piece.enumerate(max_points=max_points) for piece in self._pieces]
        )

    def count(self, max_points: int = DEFAULT_MAX_POINTS) -> int:
        """Exact cardinality of the union."""
        return len(self.enumerate(max_points=max_points))

    def is_empty(self, max_points: int = DEFAULT_MAX_POINTS) -> bool:
        """True when no piece has any point."""
        return all(piece.is_empty(max_points=max_points) for piece in self._pieces)

    def __repr__(self) -> str:
        return " ∪ ".join(repr(piece) for piece in self._pieces)
