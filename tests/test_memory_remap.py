"""The Figure-4 remap: transform algebra and the non-conflict guarantee."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.cache.geometry import CacheGeometry
from repro.errors import UnknownArrayError, ValidationError
from repro.memory.layout import DataLayout
from repro.memory.remap import RemappedLayout, half_page_remap_offsets
from repro.programs.arrays import ArraySpec

GEOMETRY = CacheGeometry(1024, 2, 32)  # cache page 512, half page 256


class TestHalfPageOffsets:
    def test_paper_formula(self):
        # addr' = 2*addr - addr mod (C/2) + b
        offsets = np.array([0, 100, 255, 256, 300])
        page = 512
        out = half_page_remap_offsets(offsets, page, 0)
        expected = [2 * o - o % 256 + 0 for o in offsets]
        assert out.tolist() == expected

    def test_b_upper_half(self):
        out = half_page_remap_offsets(np.array([0]), 512, 256)
        assert out.tolist() == [256]

    def test_invalid_b_rejected(self):
        with pytest.raises(ValidationError):
            half_page_remap_offsets(np.array([0]), 512, 100)

    @given(st.lists(st.integers(0, 10_000), min_size=1, max_size=100))
    def test_b0_lands_in_lower_half_of_every_page(self, offsets):
        out = half_page_remap_offsets(np.array(offsets), 512, 0)
        assert np.all(out % 512 < 256)

    @given(st.lists(st.integers(0, 10_000), min_size=1, max_size=100))
    def test_b_half_lands_in_upper_half_of_every_page(self, offsets):
        out = half_page_remap_offsets(np.array(offsets), 512, 256)
        assert np.all(out % 512 >= 256)

    @given(st.lists(st.integers(0, 10_000), min_size=2, max_size=100, unique=True))
    def test_transform_is_injective(self, offsets):
        out = half_page_remap_offsets(np.array(sorted(offsets)), 512, 0)
        assert len(np.unique(out)) == len(offsets)


class TestRemappedLayout:
    def make(self, b_offsets) -> RemappedLayout:
        a = ArraySpec("A", (256,))  # 1 KB
        b = ArraySpec("B", (256,))
        base = DataLayout.allocate([a, b], alignment=GEOMETRY.cache_page, stagger=0)
        return RemappedLayout(base, GEOMETRY, b_offsets)

    def test_unmapped_arrays_keep_base_addresses(self):
        layout = self.make({"A": 0})
        base = layout.base_layout
        idx = np.arange(256)
        assert layout.addrs("B", idx).tolist() == base.addrs("B", idx).tolist()

    def test_remapped_region_beyond_base(self):
        layout = self.make({"A": 0})
        assert layout.addrs("A", np.array([0]))[0] >= layout.base_layout.end_address

    def test_remapped_region_page_aligned(self):
        layout = self.make({"A": 0})
        addr0 = int(layout.addrs("A", np.array([0]))[0])
        assert addr0 % GEOMETRY.cache_page == 0

    def test_non_conflict_guarantee(self):
        """Arrays with different b can never share a cache set — the core
        Figure-4 property."""
        layout = self.make({"A": 0, "B": GEOMETRY.cache_page // 2})
        idx = np.arange(256)
        sets_a = set(GEOMETRY.sets_of(layout.addrs("A", idx)).tolist())
        sets_b = set(GEOMETRY.sets_of(layout.addrs("B", idx)).tolist())
        assert not (sets_a & sets_b)

    def test_same_b_arrays_share_half_the_sets(self):
        layout = self.make({"A": 0, "B": 0})
        idx = np.arange(256)
        sets_a = set(GEOMETRY.sets_of(layout.addrs("A", idx)).tolist())
        assert sets_a <= set(range(GEOMETRY.num_sets // 2))

    def test_scalar_addr_matches_vectorised(self):
        layout = self.make({"A": 0})
        for i in (0, 17, 255):
            assert layout.addr("A", i) == int(layout.addrs("A", np.array([i]))[0])

    def test_invalid_b_rejected(self):
        with pytest.raises(ValidationError):
            self.make({"A": 13})

    def test_unknown_array_rejected(self):
        with pytest.raises(UnknownArrayError):
            self.make({"Z": 0})

    def test_out_of_range_index_rejected(self):
        from repro.errors import AddressRangeError

        layout = self.make({"A": 0})
        with pytest.raises(AddressRangeError):
            layout.addrs("A", np.array([256]))

    def test_remapped_regions_do_not_overlap(self):
        layout = self.make({"A": 0, "B": GEOMETRY.cache_page // 2})
        idx = np.arange(256)
        addrs_a = set(layout.addrs("A", idx).tolist())
        addrs_b = set(layout.addrs("B", idx).tolist())
        assert not (addrs_a & addrs_b)

    def test_end_address_covers_regions(self):
        layout = self.make({"A": 0, "B": 0})
        idx = np.arange(256)
        top = max(layout.addrs("A", idx).max(), layout.addrs("B", idx).max())
        assert layout.end_address > top
