"""The Figure-4 data re-mapping transform.

The paper re-layouts an array by splitting it into chunks of half a *cache
page* (``C = cache size / associativity``) and interleaving the chunks with
a hole, so the array occupies only one half of each page::

    addr'(e) = 2·addr(e) − addr(e) mod (C/2) + b,   b ∈ {0, C/2}

Applied to the array-relative byte offset with a page-aligned base, the
algebra works out as follows.  Write ``offset = q·(C/2) + r`` with
``0 ≤ r < C/2``; then ``offset' = q·C + r + b``, so a ``b = 0`` array only
ever occupies ``[0, C/2)`` within each page and a ``b = C/2`` array only
``[C/2, C)``.  Since the cache set of an address is determined by
``addr mod C``, two arrays with different ``b`` can **never** conflict —
the property Figure 4(b) illustrates.  The price is a doubled address
footprint per remapped array (the interleaving holes), which is the
explicit space-for-conflicts trade the paper makes.

:class:`RemappedLayout` reallocates each remapped array into a fresh,
cache-page-aligned region of twice its size at the top of the base
layout's address space, leaving untouched arrays exactly where the base
layout put them.
"""

from __future__ import annotations

from typing import Mapping

import numpy as np

from repro.cache.geometry import CacheGeometry
from repro.errors import ValidationError
from repro.memory.layout import DataLayout, _align_up
from repro.programs.arrays import ArraySpec


#: Remapped regions start at this address when the base layout ends
#: below it (8 MiB — comfortably above the suite's footprints while
#: keeping line tags small enough for the engine's radix-sort path).
REMAP_REGION_FLOOR = 8 * 1024 * 1024


def half_page_remap_offsets(
    offsets: np.ndarray, cache_page: int, b: int
) -> np.ndarray:
    """Apply ``off' = 2·off − off mod (C/2) + b`` element-wise.

    ``offsets`` are array-relative byte offsets; ``b`` must be 0 or C/2.
    """
    half = cache_page // 2
    if b not in (0, half):
        raise ValidationError(f"b must be 0 or {half} (C/2), got {b}")
    offsets = np.asarray(offsets, dtype=np.int64)
    return 2 * offsets - offsets % half + b


class RemappedLayout:
    """A base layout with selected arrays re-laid-out per Figure 4."""

    def __init__(
        self,
        base_layout: DataLayout,
        geometry: CacheGeometry,
        b_offsets: Mapping[str, int],
    ) -> None:
        if not isinstance(base_layout, DataLayout):
            raise ValidationError(f"expected DataLayout, got {base_layout!r}")
        if not isinstance(geometry, CacheGeometry):
            raise ValidationError(f"expected CacheGeometry, got {geometry!r}")
        page = geometry.cache_page
        half = page // 2
        for name, b in b_offsets.items():
            base_layout.spec(name)  # raises UnknownArrayError for strays
            if b not in (0, half):
                raise ValidationError(
                    f"b offset for {name!r} must be 0 or {half} (C/2), got {b}"
                )
        self._base = base_layout
        self._geometry = geometry
        self._b_offsets = dict(b_offsets)
        # Fresh page-aligned regions (2x size) above the base layout.
        # Regions start at a fixed floor when the base layout fits below
        # it: a page-aligned uniform placement leaves every line's cache
        # set (addr mod cache page) — and therefore all hit/miss
        # behaviour — untouched, while making remapped traces
        # byte-identical across workload mixes that share a process but
        # differ in total footprint, which is what lets the trace memo
        # (repro.cache.memo) reuse their analyses.  Oversized layouts
        # simply fall back to packing right above the base layout.
        self._region_bases: dict[str, int] = {}
        cursor = _align_up(
            max(base_layout.end_address, REMAP_REGION_FLOOR), page
        )
        for name in sorted(self._b_offsets):
            spec = base_layout.spec(name)
            self._region_bases[name] = cursor
            cursor = _align_up(cursor + 2 * spec.size_bytes, page)
        self._end_address = cursor if self._region_bases else base_layout.end_address

    @property
    def base_layout(self) -> DataLayout:
        """The original layout the remap was applied on top of."""
        return self._base

    @property
    def geometry(self) -> CacheGeometry:
        """The cache geometry that defines the cache page size."""
        return self._geometry

    @property
    def remapped_arrays(self) -> dict[str, int]:
        """The remapped array names and their ``b`` offsets."""
        return dict(self._b_offsets)

    @property
    def array_names(self) -> tuple[str, ...]:
        """All array names (same namespace as the base layout)."""
        return self._base.array_names

    @property
    def end_address(self) -> int:
        """One past the highest address either layout region uses."""
        return self._end_address

    def spec(self, name: str) -> ArraySpec:
        """The declaration of one array."""
        return self._base.spec(name)

    def fingerprint(self) -> tuple:
        """Hashable content identity (see :meth:`DataLayout.fingerprint`).

        The base fingerprint plus the cache page and the per-array
        ``(b, region base)`` choices fully determine ``addr'(.)``.
        """
        cached = getattr(self, "_fingerprint", None)
        if cached is None:
            cached = (
                "remap",
                self._base.fingerprint(),
                self._geometry.cache_page,
                tuple(
                    (name, self._b_offsets[name], self._region_bases[name])
                    for name in sorted(self._b_offsets)
                ),
            )
            self._fingerprint = cached
        return cached

    def fingerprint_for(self, names) -> tuple:
        """Content identity restricted to the given arrays
        (see :meth:`DataLayout.fingerprint_for`).

        When none of the named arrays is remapped, their addresses are
        exactly the base layout's, so the base sub-fingerprint is
        returned verbatim — a process untouched by the re-layout then
        shares its memoized trace with the base-layout schedulers.
        """
        remapped = tuple(
            (name, self._b_offsets[name], self._region_bases[name])
            for name in sorted(names)
            if name in self._b_offsets
        )
        if not remapped:
            return self._base.fingerprint_for(names)
        return (
            "remap",
            self._base.fingerprint_for(names),
            self._geometry.cache_page,
            remapped,
        )

    # -- the addr'(.) function ---------------------------------------------------

    def addr(self, name: str, flat_index: int) -> int:
        """Byte address of one element under the (possibly remapped) layout."""
        if name not in self._b_offsets:
            return self._base.addr(name, flat_index)
        return int(self.addrs(name, np.asarray([flat_index]))[0])

    def addrs(self, name: str, flat_indices: np.ndarray) -> np.ndarray:
        """Vectorised address computation (the simulator's entry point)."""
        if name not in self._b_offsets:
            return self._base.addrs(name, flat_indices)
        spec = self._base.spec(name)
        indices = np.asarray(flat_indices, dtype=np.int64)
        if indices.size and (
            indices.min() < 0 or indices.max() >= spec.num_elements
        ):
            from repro.errors import AddressRangeError

            raise AddressRangeError(
                f"flat indices out of range [0, {spec.num_elements}) "
                f"for array {name!r}"
            )
        offsets = indices * spec.element_size
        remapped = half_page_remap_offsets(
            offsets, self._geometry.cache_page, self._b_offsets[name]
        )
        return self._region_bases[name] + remapped

    def __repr__(self) -> str:
        return (
            f"RemappedLayout({len(self._b_offsets)} remapped of "
            f"{len(self._base.array_names)} arrays)"
        )
