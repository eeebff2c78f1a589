"""Affine maps between integer spaces.

An :class:`AffineMap` models an array access function: it maps iteration
points to data points (array subscripts, or flattened element offsets).
The paper's running example ``DS1,k = {[d1,d2]: d1 = i1*1000+i2 && d2 = 5}``
is the image of the iteration set under the map
``AffineMap(("i1","i2"), [var("i1")*1000 + var("i2"), const(5)])``.
"""

from __future__ import annotations

from typing import Mapping, Sequence

import numpy as np

from repro.errors import DimensionMismatchError, ValidationError
from repro.presburger.points import PointSet
from repro.presburger.sets import BasicSet, IntegerSet, DEFAULT_MAX_POINTS
from repro.presburger.terms import LinearExpr, var


class AffineMap:
    """An affine map ``Z^n -> Z^m`` given by one expression per output dim."""

    __slots__ = ("_domain", "_outputs")

    def __init__(self, domain: Sequence[str], outputs: Sequence[LinearExpr]) -> None:
        domain = tuple(domain)
        if not domain:
            raise ValidationError("an AffineMap needs at least one input variable")
        if len(set(domain)) != len(domain):
            raise ValidationError(f"duplicate input names in domain {domain}")
        outputs = tuple(outputs)
        if not outputs:
            raise ValidationError("an AffineMap needs at least one output expression")
        for expr in outputs:
            if not isinstance(expr, LinearExpr):
                raise ValidationError(f"outputs must be LinearExpr, got {expr!r}")
            unknown = set(expr.variables) - set(domain)
            if unknown:
                raise ValidationError(
                    f"output {expr!r} uses variables {sorted(unknown)} "
                    f"outside the domain {domain}"
                )
        self._domain = domain
        self._outputs = outputs

    @property
    def domain(self) -> tuple[str, ...]:
        """Input variable names."""
        return self._domain

    @property
    def outputs(self) -> tuple[LinearExpr, ...]:
        """Output expressions, one per output dimension."""
        return self._outputs

    @property
    def input_dim(self) -> int:
        """Number of input dimensions."""
        return len(self._domain)

    @property
    def output_dim(self) -> int:
        """Number of output dimensions."""
        return len(self._outputs)

    # -- application ---------------------------------------------------------

    def apply(self, point: Sequence[int]) -> tuple[int, ...]:
        """Apply to one point."""
        if len(point) != self.input_dim:
            raise DimensionMismatchError(self.input_dim, len(point), "apply")
        assignment = dict(zip(self._domain, (int(x) for x in point)))
        return tuple(expr.evaluate(assignment) for expr in self._outputs)

    def apply_columns(self, columns: Mapping[str, np.ndarray]) -> np.ndarray:
        """Vectorised application; returns an (N, output_dim) array."""
        length = None
        for name in self._domain:
            if name in columns:
                length = len(columns[name])
                break
        if length is None:
            raise ValidationError("no input columns supplied")
        result = np.empty((length, self.output_dim), dtype=np.int64)
        for j, expr in enumerate(self._outputs):
            col = np.full(length, expr.constant, dtype=np.int64)
            for name, coeff in expr:
                if name not in columns:
                    raise ValidationError(f"no column for input {name!r}")
                col = col + np.asarray(columns[name], dtype=np.int64) * coeff
            result[:, j] = col
        return result

    def image(
        self,
        domain_set: PointSet | BasicSet | IntegerSet,
        max_points: int = DEFAULT_MAX_POINTS,
    ) -> PointSet:
        """The exact image of a set under the map (symbolic sets are grounded).

        A :class:`BasicSet` is not enumerated: each output expression is
        evaluated over its grounding, binding the map's inputs to the
        set's variables by position.
        """
        if isinstance(domain_set, BasicSet):
            if domain_set.dim != self.input_dim:
                raise DimensionMismatchError(self.input_dim, domain_set.dim, "image")
            outputs = self._outputs
            if domain_set.space != self._domain:
                renames = {d: var(s) for d, s in zip(self._domain, domain_set.space)}
                outputs = tuple(expr.substitute(renames) for expr in outputs)
            grounding = domain_set.ground(max_points)
            return PointSet(
                np.stack([grounding.values(expr) for expr in outputs], axis=1),
                dim=self.output_dim,
            )
        if isinstance(domain_set, IntegerSet):
            domain_set = domain_set.enumerate(max_points=max_points)
        if not isinstance(domain_set, PointSet):
            raise ValidationError(
                f"expected PointSet/BasicSet/IntegerSet, got {type(domain_set).__name__}"
            )
        if domain_set.dim != self.input_dim:
            raise DimensionMismatchError(self.input_dim, domain_set.dim, "image")
        if domain_set.is_empty():
            return PointSet.empty(self.output_dim)
        columns = {
            name: domain_set.points[:, i] for i, name in enumerate(self._domain)
        }
        return PointSet(self.apply_columns(columns), dim=self.output_dim)

    def compose(self, inner: "AffineMap") -> "AffineMap":
        """``self ∘ inner``: first apply ``inner``, then ``self``.

        ``inner.output_dim`` must equal ``self.input_dim``; the composed map
        has ``inner``'s domain.
        """
        if inner.output_dim != self.input_dim:
            raise DimensionMismatchError(
                self.input_dim, inner.output_dim, "compose"
            )
        bindings = dict(zip(self._domain, inner._outputs))
        outputs = [expr.substitute(bindings) for expr in self._outputs]
        return AffineMap(inner._domain, outputs)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, AffineMap):
            return NotImplemented
        return self._domain == other._domain and self._outputs == other._outputs

    def __hash__(self) -> int:
        return hash((self._domain, self._outputs))

    def __repr__(self) -> str:
        ins = ", ".join(self._domain)
        outs = ", ".join(repr(e) for e in self._outputs)
        return f"{{[{ins}] -> [{outs}]}}"
