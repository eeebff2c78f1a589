"""Affine array references.

An :class:`AffineAccess` is one textual array reference inside a loop nest,
e.g. ``A[i1*1000 + i2][5]`` from the paper's Prog1: an array, one affine
subscript expression per array dimension, and a read/write flag.
"""

from __future__ import annotations

from typing import Sequence

from repro.errors import ValidationError
from repro.presburger.maps import AffineMap
from repro.presburger.terms import LinearExpr, _coerce
from repro.programs.arrays import ArraySpec


class AffineAccess:
    """A single affine reference to an array within a loop nest."""

    __slots__ = ("_array", "_subscripts", "_is_write", "_flat")

    def __init__(
        self,
        array: ArraySpec,
        subscripts: Sequence[LinearExpr | int],
        is_write: bool = False,
    ) -> None:
        if not isinstance(array, ArraySpec):
            raise ValidationError(f"array must be an ArraySpec, got {array!r}")
        subscripts = tuple(_coerce(s) for s in subscripts)
        if len(subscripts) != array.rank:
            raise ValidationError(
                f"array {array.name!r} has rank {array.rank}, "
                f"got {len(subscripts)} subscripts"
            )
        self._array = array
        self._subscripts = subscripts
        self._is_write = bool(is_write)
        self._flat: LinearExpr | None = None

    @property
    def array(self) -> ArraySpec:
        """The referenced array."""
        return self._array

    @property
    def subscripts(self) -> tuple[LinearExpr, ...]:
        """One affine subscript per array dimension."""
        return self._subscripts

    @property
    def is_write(self) -> bool:
        """True for a store, False for a load."""
        return self._is_write

    @property
    def loop_variables(self) -> tuple[str, ...]:
        """All loop variables mentioned by any subscript (sorted)."""
        names: set[str] = set()
        for subscript in self._subscripts:
            names.update(subscript.variables)
        return tuple(sorted(names))

    def flat_expr(self) -> LinearExpr:
        """The row-major flattened element-offset expression (built once)."""
        if self._flat is None:
            self._flat = self._array.linearize_exprs(self._subscripts)
        return self._flat

    def access_map(self, loop_vars: Sequence[str]) -> AffineMap:
        """The affine map from iteration points to flat element offsets.

        ``loop_vars`` must cover every variable the subscripts mention
        (extra loop variables are allowed and simply unused).
        """
        missing = set(self.loop_variables) - set(loop_vars)
        if missing:
            raise ValidationError(
                f"access {self!r} uses loop variables {sorted(missing)} "
                f"not present in {tuple(loop_vars)}"
            )
        return AffineMap(tuple(loop_vars), [self.flat_expr()])

    def subscript_map(self, loop_vars: Sequence[str]) -> AffineMap:
        """The affine map from iteration points to subscript tuples.

        This is the un-flattened form used when reasoning about the data
        space in array coordinates (the paper's ``[d1, d2]`` sets).
        """
        missing = set(self.loop_variables) - set(loop_vars)
        if missing:
            raise ValidationError(
                f"access {self!r} uses loop variables {sorted(missing)} "
                f"not present in {tuple(loop_vars)}"
            )
        return AffineMap(tuple(loop_vars), list(self._subscripts))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, AffineAccess):
            return NotImplemented
        return (
            self._array == other._array
            and self._subscripts == other._subscripts
            and self._is_write == other._is_write
        )

    def __hash__(self) -> int:
        return hash((self._array, self._subscripts, self._is_write))

    def __repr__(self) -> str:
        subs = "][".join(repr(s) for s in self._subscripts)
        mode = "write" if self._is_write else "read"
        return f"{self._array.name}[{subs}] ({mode})"
