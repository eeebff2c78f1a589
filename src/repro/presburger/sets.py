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

A bounded set is grounded once, by :meth:`BasicSet.ground`, into a
:class:`Grounding`: an exact integer range per variable and, only when
some constraint is not implied by those ranges, a row-major mask over
the box they span.  Bounds come from integer interval propagation: a
single-variable equality or inequality sets its variable's range
exactly, so loop bounds and block partitions ground to mask-free boxes,
and only multi-variable and modular constraints build the mask.  Affine
expressions are evaluated over a grounding by NumPy broadcasting, so
enumeration, counting and access images share one mechanism, and only
enumeration materialises the points.
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
from repro.presburger.terms import LinearExpr, const, var

#: Safety cap on the number of bounding-box candidates a single
#: :meth:`BasicSet.ground` call may cover.
DEFAULT_MAX_POINTS = 20_000_000

_PROPAGATION_ROUNDS = 16

_INT64_MIN, _INT64_MAX = -(2**63), 2**63 - 1

#: ``(low, high)`` per variable; ``None`` is an infinite end.
_Interval = tuple[int | None, int | None]


def _tighten(
    box: dict[str, _Interval], name: str, coeff: int, constant: int
) -> bool:
    """Apply ``coeff * name + constant >= 0`` to ``name``'s range.

    Floor division keeps the bound exact for integers of any size.
    Returns True when the range shrank.
    """
    low, high = box[name]
    if coeff > 0:
        bound = -(constant // coeff)  # ceil(-constant / coeff)
        if low is None or bound > low:
            box[name] = (bound, high)
            return True
    else:
        bound = constant // -coeff  # floor(-constant / coeff)
        if high is None or bound < high:
            box[name] = (low, bound)
            return True
    return False


def _wrap(value: int) -> int:
    """``value`` reduced into int64 modulo ``2**64``.

    int64 array arithmetic wraps modulo ``2**64``, so an affine value that
    fits in int64 comes out exact even when a coefficient, the constant
    or a partial sum does not.
    """
    return (value - _INT64_MIN) % 2**64 + _INT64_MIN


def _implied(constraint: Constraint, bounds: Mapping[str, tuple[int, int]]) -> bool:
    """True when every point of the finite box satisfies ``constraint``.

    Raises :class:`PresburgerError` for a constraint the mask would have
    to test whose value over the box leaves int64.
    """
    low = high = constraint.expr.constant  # the exact extremes over the box
    for name, coeff in constraint.expr:
        a, b = coeff * bounds[name][0], coeff * bounds[name][1]
        low += min(a, b)
        high += max(a, b)
    if constraint.kind is ConstraintKind.GE:
        implied = low >= 0
    else:
        implied = low == high and bool(constraint.satisfied_by(low))
    if not implied and (low < _INT64_MIN or high > _INT64_MAX):
        raise PresburgerError(
            f"constraint {constraint!r} leaves int64 over the box {dict(bounds)}"
        )
    return implied


class Grounding:
    """The integer points of a bounded :class:`BasicSet`, held as a box.

    ``axes[k]`` is the ascending int64 range of variable ``space[k]``.
    ``mask`` is ``None`` when every point of the box they span is in the
    set; otherwise it is a read-only bool array over the box, flattened
    in row-major order, that keeps the set's points.  ``size`` is the
    number of points.  Immutable: build one with :meth:`BasicSet.ground`
    and evaluate as many expressions over it as needed.
    """

    __slots__ = ("space", "axes", "mask", "size", "_shape", "_index", "_views")

    def __init__(
        self,
        space: Sequence[str],
        bounds: Sequence[tuple[int, int]],
        constraints: Sequence[Constraint] = (),
    ) -> None:
        self.space = tuple(space)
        self.axes = tuple(
            np.arange(low, high + 1, dtype=np.int64) for low, high in bounds
        )
        for axis in self.axes:
            axis.setflags(write=False)
        self._shape = tuple(len(axis) for axis in self.axes)
        self._index = {name: k for k, name in enumerate(self.space)}
        # Axis k shaped to broadcast along dimension k of the box.
        self._views = tuple(
            axis.reshape([-1 if j == k else 1 for j in range(len(self.axes))])
            for k, axis in enumerate(self.axes)
        )
        mask = None
        for constraint in constraints:
            keep = constraint.satisfied_by(self._broadcast(constraint.expr))
            mask = keep if mask is None else mask & keep
        if mask is not None:
            mask = np.broadcast_to(mask, self._shape).ravel()
            mask.setflags(write=False)
        self.mask = mask
        self.size = (
            math.prod(self._shape) if mask is None else int(np.count_nonzero(mask))
        )

    def _broadcast(self, expr: LinearExpr) -> np.ndarray:
        """``expr`` over the box, in a shape that broadcasts to it."""
        total = None
        for name, coeff in expr:
            k = self._index.get(name)
            if k is None:
                raise ValidationError(
                    f"variable {name!r} is outside the space {self.space}"
                )
            term = self._views[k] * _wrap(coeff)
            total = term if total is None else total + term
        constant = _wrap(expr.constant)
        if total is None:
            return np.asarray(constant, dtype=np.int64)
        return total + constant if constant else total

    def values(self, expr: LinearExpr) -> np.ndarray:
        """``expr`` at every point, in lexicographic order (a fresh int64 array).

        Exact wherever the value fits in int64.
        """
        flat = np.broadcast_to(self._broadcast(expr), self._shape).ravel()
        return flat if self.mask is None else flat[self.mask]

    def points(self) -> PointSet:
        """The points as a :class:`PointSet`.

        Row-major order over ascending axes is lexicographic and
        duplicate-free, so the stacked columns are adopted as they are.
        """
        return PointSet._from_canonical(
            np.stack([self.values(var(name)) for name in self.space], axis=1)
        )

    def __repr__(self) -> str:
        return f"Grounding({self.space}, shape={self._shape}, size={self.size})"


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

    def _box(self) -> tuple[dict[str, tuple[int, int]], list[Constraint]] | None:
        """Exact variable ranges and the constraints they do not imply.

        ``None`` when the constraints prove the set empty.  Interval
        propagation runs in Python integers: a single-variable equality or
        inequality sets its variable's range exactly on the first pass,
        and multi-variable ones tighten each variable they mention given
        the others' current ranges.
        """
        box: dict[str, _Interval] = {name: (None, None) for name in self._space}
        coupled: list[LinearExpr] = []  # multi-variable ``expr >= 0`` forms
        for constraint in self._constraints:
            is_eq = constraint.kind is ConstraintKind.EQ
            single = constraint.single_variable_bound()
            if constraint.expr.is_constant():
                if not constraint.holds({}):
                    return None
            elif single is not None:
                name, coeff, constant = single
                _tighten(box, name, coeff, constant)
                if is_eq:
                    _tighten(box, name, -coeff, -constant)
            elif constraint.kind is not ConstraintKind.MOD:
                coupled.append(constraint.expr)
                if is_eq:
                    coupled.append(-constraint.expr)
        for _ in range(_PROPAGATION_ROUNDS):
            changed = False
            for expr in coupled:
                for name, coeff in expr:
                    # a*v + c + rest >= 0 must hold for the point's own
                    # rest value, so the sound bound takes rest at its
                    # maximum: a*v >= -(c + rest_high).
                    rest_high = expr.constant
                    for other, other_coeff in expr:
                        if other == name:
                            continue
                        lo, hi = box[other]
                        end = hi if other_coeff > 0 else lo
                        if end is None:
                            break  # the others are still unbounded
                        rest_high += other_coeff * end
                    else:
                        changed |= _tighten(box, name, coeff, rest_high)
            if not changed:
                break
        if any(
            lo is not None and hi is not None and lo > hi for lo, hi in box.values()
        ):
            return None
        bounds: dict[str, tuple[int, int]] = {}
        for name, (lo, hi) in box.items():
            if lo is None or hi is None:
                raise UnboundedSetError(
                    f"variable {name!r} is unbounded in {self!r}; "
                    f"grounding requires a bounded set"
                )
            bounds[name] = (lo, hi)
        residual = [
            c
            for c in self._constraints
            if not c.expr.is_constant() and not _implied(c, bounds)
        ]
        return bounds, residual

    def infer_bounds(self) -> dict[str, tuple[int, int]]:
        """An inclusive integer interval for every variable.

        The intervals always enclose the set.  When every constraint is a
        single-variable equality or inequality they are its exact extent.
        A set the bounds prove empty gets ``(0, -1)`` for every variable.
        Raises :class:`UnboundedSetError` if a variable of a set not proved
        empty stays unbounded.
        """
        box = self._box()
        if box is None:
            return {name: (0, -1) for name in self._space}
        return box[0]

    # -- grounding -------------------------------------------------------------

    def ground(self, max_points: int = DEFAULT_MAX_POINTS) -> Grounding:
        """The set as a :class:`Grounding`: exact ranges and, if needed, a mask.

        Raises :class:`PresburgerError` when the box spans more than
        ``max_points`` candidates, and :class:`UnboundedSetError` for an
        unbounded set.
        """
        box = self._box()
        if box is None:
            return Grounding(self._space, [(0, -1)] * self.dim)
        bounds, residual = box
        volume = math.prod(hi - lo + 1 for lo, hi in bounds.values())
        if volume > max_points:
            raise PresburgerError(
                f"bounding box of {self!r} has {volume} candidate points, "
                f"over the limit of {max_points}"
            )
        return Grounding(self._space, [bounds[name] for name in self._space], residual)

    def enumerate(self, max_points: int = DEFAULT_MAX_POINTS) -> PointSet:
        """Ground the set into an exact :class:`PointSet`.

        One column per variable is evaluated over the grounding, in
        row-major order over ascending ranges, so the points are
        lexicographic as built and are adopted without a sort.
        """
        return self.ground(max_points).points()

    def is_empty(self, max_points: int = DEFAULT_MAX_POINTS) -> bool:
        """True when the set has no integer points."""
        try:
            return self.ground(max_points).size == 0
        except UnboundedSetError:
            return False  # unbounded sets are trivially non-empty here

    def count(self, max_points: int = DEFAULT_MAX_POINTS) -> int:
        """Exact cardinality (``|S|``)."""
        return self.ground(max_points).size

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
