"""Constraints over affine expressions: ``e = 0``, ``e >= 0``, ``e ≡ 0 (mod m)``.

These three forms are sufficient for the paper's sets: loop bounds become
inequalities, subscript equalities become equalities, and strided/blocked
partitions become modular constraints.
"""

from __future__ import annotations

from enum import Enum
from typing import Any, Mapping

import numpy as np

from repro.errors import ValidationError
from repro.presburger.terms import LinearExpr, _coerce


class ConstraintKind(Enum):
    """The three constraint shapes supported by the library."""

    EQ = "eq"  # expr == 0
    GE = "ge"  # expr >= 0
    MOD = "mod"  # expr ≡ 0 (mod modulus)


class Constraint:
    """A single affine constraint.

    Use the classmethod builders, which read like the maths::

        Constraint.ge(var("i"))              # i >= 0
        Constraint.lt(var("i"), 3000)        # i < 3000
        Constraint.eq(var("i1"), k)          # i1 == k
        Constraint.mod(var("i"), 4, 1)       # i ≡ 1 (mod 4)
    """

    __slots__ = ("expr", "kind", "modulus")

    def __init__(
        self, expr: LinearExpr, kind: ConstraintKind, modulus: int | None = None
    ) -> None:
        if not isinstance(expr, LinearExpr):
            raise ValidationError(f"expr must be a LinearExpr, got {expr!r}")
        if kind is ConstraintKind.MOD:
            if not isinstance(modulus, int) or modulus <= 0:
                raise ValidationError(f"modulus must be a positive int, got {modulus!r}")
        elif modulus is not None:
            raise ValidationError("modulus is only meaningful for MOD constraints")
        self.expr = expr
        self.kind = kind
        self.modulus = modulus

    # -- builders ----------------------------------------------------------

    @classmethod
    def eq(cls, lhs: LinearExpr | int, rhs: LinearExpr | int = 0) -> "Constraint":
        """``lhs == rhs``"""
        return cls(_coerce(lhs) - _coerce(rhs), ConstraintKind.EQ)

    @classmethod
    def ge(cls, lhs: LinearExpr | int, rhs: LinearExpr | int = 0) -> "Constraint":
        """``lhs >= rhs``"""
        return cls(_coerce(lhs) - _coerce(rhs), ConstraintKind.GE)

    @classmethod
    def le(cls, lhs: LinearExpr | int, rhs: LinearExpr | int = 0) -> "Constraint":
        """``lhs <= rhs``"""
        return cls(_coerce(rhs) - _coerce(lhs), ConstraintKind.GE)

    @classmethod
    def lt(cls, lhs: LinearExpr | int, rhs: LinearExpr | int) -> "Constraint":
        """``lhs < rhs`` (strict, integer: ``lhs <= rhs - 1``)."""
        return cls(_coerce(rhs) - _coerce(lhs) - 1, ConstraintKind.GE)

    @classmethod
    def gt(cls, lhs: LinearExpr | int, rhs: LinearExpr | int) -> "Constraint":
        """``lhs > rhs`` (strict)."""
        return cls(_coerce(lhs) - _coerce(rhs) - 1, ConstraintKind.GE)

    @classmethod
    def mod(cls, expr: LinearExpr | int, modulus: int, residue: int = 0) -> "Constraint":
        """``expr ≡ residue (mod modulus)``."""
        if not isinstance(modulus, int) or modulus <= 0:
            raise ValidationError(f"modulus must be a positive int, got {modulus!r}")
        return cls(_coerce(expr) - residue, ConstraintKind.MOD, modulus)

    # -- evaluation --------------------------------------------------------

    def satisfied_by(self, value: Any) -> Any:
        """Whether ``expr`` taking ``value`` satisfies the constraint.

        ``value`` is an int or an int array; an array gives one bool per
        element.
        """
        if self.kind is ConstraintKind.EQ:
            return value == 0
        if self.kind is ConstraintKind.GE:
            return value >= 0
        return value % self.modulus == 0

    def holds(self, assignment: Mapping[str, int]) -> bool:
        """Check the constraint under a full variable assignment."""
        return bool(self.satisfied_by(self.expr.evaluate(assignment)))

    def holds_vectorized(
        self, columns: Mapping[str, np.ndarray]
    ) -> np.ndarray:
        """Evaluate over column vectors of candidate points (one bool per row).

        ``columns`` maps each variable name to an equal-length int array;
        variables absent from the expression are ignored.
        """
        value = np.full(
            _column_length(columns), self.expr.constant, dtype=np.int64
        )
        for name, coeff in self.expr:
            if name not in columns:
                raise ValidationError(f"no column for variable {name!r}")
            value = value + np.asarray(columns[name], dtype=np.int64) * coeff
        return self.satisfied_by(value)

    # -- structure ---------------------------------------------------------

    @property
    def variables(self) -> tuple[str, ...]:
        """Variables mentioned by the constraint."""
        return self.expr.variables

    def single_variable_bound(self) -> tuple[str, int, int] | None:
        """If the constraint is ``a*v + c >= 0`` or ``a*v + c == 0`` over a
        single variable, return ``(v, a, c)``; otherwise ``None``.

        Used by the bound-inference pass in :class:`repro.presburger.sets.BasicSet`.
        """
        if self.kind is ConstraintKind.MOD:
            return None
        names = self.expr.variables
        if len(names) != 1:
            return None
        name = names[0]
        return name, self.expr.coefficient(name), self.expr.constant

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Constraint):
            return NotImplemented
        return (
            self.expr == other.expr
            and self.kind == other.kind
            and self.modulus == other.modulus
        )

    def __hash__(self) -> int:
        return hash((self.expr, self.kind, self.modulus))

    def __repr__(self) -> str:
        if self.kind is ConstraintKind.EQ:
            return f"{self.expr!r} == 0"
        if self.kind is ConstraintKind.GE:
            return f"{self.expr!r} >= 0"
        return f"{self.expr!r} ≡ 0 (mod {self.modulus})"


def _column_length(columns: Mapping[str, np.ndarray]) -> int:
    for column in columns.values():
        return len(column)
    return 0
