"""Base data layout: array-to-address assignment.

A :class:`DataLayout` is the concrete ``addr(.)`` function of Section 3:
it maps ``(array, flat element offset)`` to a main-memory byte address.
The default allocator packs arrays sequentially in declaration order,
aligned to the cache line size — the "original memory layout" of
Figure 4(a) that the remap transform improves on.
"""

from __future__ import annotations

from typing import Iterable, Mapping, Sequence

import numpy as np

from repro.errors import (
    AddressRangeError,
    OverlappingAllocationError,
    UnknownArrayError,
    ValidationError,
)
from repro.programs.arrays import ArraySpec
from repro.util.validation import check_positive


def _align_up(value: int, alignment: int) -> int:
    return (value + alignment - 1) // alignment * alignment


class DataLayout:
    """Maps every declared array to a non-overlapping address range."""

    def __init__(
        self, arrays: Mapping[str, ArraySpec], bases: Mapping[str, int]
    ) -> None:
        if set(arrays) != set(bases):
            raise ValidationError("arrays and bases must cover the same names")
        ranges = []
        for name, spec in arrays.items():
            base = bases[name]
            if base < 0:
                raise ValidationError(f"array {name!r} has negative base {base}")
            ranges.append((base, base + spec.size_bytes, name))
        ranges.sort()
        for (start_a, end_a, name_a), (start_b, _, name_b) in zip(ranges, ranges[1:]):
            if start_b < end_a:
                raise OverlappingAllocationError(
                    f"arrays {name_a!r} and {name_b!r} overlap "
                    f"([{start_a}, {end_a}) vs base {start_b})"
                )
        self._arrays = dict(arrays)
        self._bases = {name: int(bases[name]) for name in arrays}

    @classmethod
    def allocate(
        cls,
        arrays: Sequence[ArraySpec] | Iterable[ArraySpec],
        alignment: int = 32,
        start_address: int = 0,
        stagger: int = 1,
    ) -> "DataLayout":
        """Pack arrays sequentially in the given order, aligned.

        ``stagger`` inserts that many extra alignment units between
        consecutive arrays.  Without it, arrays whose sizes are multiples
        of the cache page would all start at the same set index — the
        pathological same-set alignment real allocators avoid.  The
        stagger models that mundane skew; ``stagger=0`` recreates the
        pathological packing (useful for conflict-miss experiments).
        """
        check_positive("alignment", alignment)
        if start_address < 0:
            raise ValidationError(f"negative start address {start_address}")
        if stagger < 0:
            raise ValidationError(f"stagger must be non-negative, got {stagger}")
        specs: dict[str, ArraySpec] = {}
        bases: dict[str, int] = {}
        cursor = _align_up(start_address, alignment)
        for spec in arrays:
            if not isinstance(spec, ArraySpec):
                raise ValidationError(f"expected ArraySpec, got {spec!r}")
            if spec.name in specs:
                if specs[spec.name] != spec:
                    raise ValidationError(
                        f"conflicting declarations for array {spec.name!r}"
                    )
                continue  # same array declared by several fragments
            specs[spec.name] = spec
            bases[spec.name] = cursor
            cursor = _align_up(
                cursor + spec.size_bytes + stagger * alignment, alignment
            )
        if not specs:
            raise ValidationError("cannot allocate a layout with zero arrays")
        return cls(specs, bases)

    # -- inspection ------------------------------------------------------------

    @property
    def array_names(self) -> tuple[str, ...]:
        """All array names, sorted by base address."""
        return tuple(sorted(self._bases, key=self._bases.__getitem__))

    def spec(self, name: str) -> ArraySpec:
        """The declaration of one array."""
        if name not in self._arrays:
            raise UnknownArrayError(name)
        return self._arrays[name]

    def base(self, name: str) -> int:
        """The base byte address of one array."""
        if name not in self._bases:
            raise UnknownArrayError(name)
        return self._bases[name]

    @property
    def end_address(self) -> int:
        """One past the highest allocated byte."""
        return max(
            self._bases[name] + self._arrays[name].size_bytes
            for name in self._arrays
        )

    def footprint_bytes(self) -> int:
        """Total allocated bytes across all arrays (excluding gaps)."""
        return sum(spec.size_bytes for spec in self._arrays.values())

    def fingerprint(self) -> tuple:
        """Hashable content identity: two equal fingerprints map every
        element of every array to the same address.

        Used to key the per-process trace memo, so schedulers that share
        a layout (by content, not object identity) share built traces.
        Computed once; the layout is immutable after construction.
        """
        cached = getattr(self, "_fingerprint", None)
        if cached is None:
            cached = (
                "base",
                tuple(
                    (name, self._bases[name], spec.element_size, spec.num_elements)
                    for name, spec in sorted(self._arrays.items())
                ),
            )
            self._fingerprint = cached
        return cached

    def fingerprint_for(self, names) -> tuple:
        """Content identity restricted to the given arrays.

        A process's trace depends only on the addresses of the arrays it
        touches, so keying its trace memo on this sub-fingerprint lets it
        reuse a trace built under any layout that places those arrays
        alike.  Growing a Figure-7 mix keeps the page-aligned arrays'
        bases, but ``default_layout`` packs the sub-page arrays after all
        page-aligned ones, so each added task moves them and the traces of
        the processes that touch them are rebuilt.
        """
        return (
            "base",
            tuple(
                (
                    name,
                    self.base(name),
                    self._arrays[name].element_size,
                    self._arrays[name].num_elements,
                )
                for name in sorted(names)
            ),
        )

    # -- the addr(.) function ----------------------------------------------------

    def addr(self, name: str, flat_index: int) -> int:
        """Byte address of one element (given as a flat row-major offset)."""
        spec = self.spec(name)
        if not 0 <= flat_index < spec.num_elements:
            raise AddressRangeError(
                f"flat index {flat_index} out of range "
                f"[0, {spec.num_elements}) for array {name!r}"
            )
        return self._bases[name] + flat_index * spec.element_size

    def addrs(self, name: str, flat_indices: np.ndarray) -> np.ndarray:
        """Vectorised :meth:`addr` over an array of flat element offsets."""
        spec = self.spec(name)
        indices = np.asarray(flat_indices, dtype=np.int64)
        if indices.size and (
            indices.min() < 0 or indices.max() >= spec.num_elements
        ):
            raise AddressRangeError(
                f"flat indices out of range [0, {spec.num_elements}) "
                f"for array {name!r}"
            )
        return self._bases[name] + indices * spec.element_size

    def owner_of(self, addr: int) -> str | None:
        """The array owning a byte address, or None for a gap."""
        for name, base in self._bases.items():
            if base <= addr < base + self._arrays[name].size_bytes:
                return name
        return None

    def __repr__(self) -> str:
        return f"DataLayout({len(self._arrays)} arrays, end={self.end_address})"
