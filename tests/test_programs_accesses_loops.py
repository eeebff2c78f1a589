"""AffineAccess and LoopNest."""

from __future__ import annotations

import pytest

from repro.errors import ValidationError
from repro.presburger.terms import var
from repro.programs.accesses import AffineAccess
from repro.programs.arrays import ArraySpec
from repro.programs.loops import LoopNest


@pytest.fixture
def matrix() -> ArraySpec:
    return ArraySpec("A", (8, 8))


class TestAffineAccess:
    def test_int_subscripts_coerced(self, matrix):
        access = AffineAccess(matrix, [var("i"), 5])
        assert access.subscripts[1].is_constant()

    def test_arity_checked(self, matrix):
        with pytest.raises(ValidationError):
            AffineAccess(matrix, [var("i")])

    def test_loop_variables_sorted_unique(self, matrix):
        access = AffineAccess(matrix, [var("j") + var("i"), var("i")])
        assert access.loop_variables == ("i", "j")

    def test_flat_expr_row_major(self, matrix):
        access = AffineAccess(matrix, [var("i"), var("j")])
        assert access.flat_expr().evaluate({"i": 2, "j": 3}) == 19

    def test_access_map_image(self, matrix):
        from repro.presburger.builders import box

        access = AffineAccess(matrix, [var("i"), var("j")])
        amap = access.access_map(("i", "j"))
        image = amap.image(box({"i": (0, 2), "j": (0, 2)}))
        assert image.flat().tolist() == [0, 1, 8, 9]

    def test_access_map_requires_covering_vars(self, matrix):
        access = AffineAccess(matrix, [var("i"), var("j")])
        with pytest.raises(ValidationError):
            access.access_map(("i",))

    def test_write_flag(self, matrix):
        assert AffineAccess(matrix, [0, 0], is_write=True).is_write
        assert not AffineAccess(matrix, [0, 0]).is_write

    def test_equality(self, matrix):
        a = AffineAccess(matrix, [var("i"), 0])
        b = AffineAccess(matrix, [var("i"), 0])
        assert a == b and hash(a) == hash(b)
        assert a != AffineAccess(matrix, [var("i"), 0], is_write=True)

    def test_repr_mentions_mode(self, matrix):
        assert "(write)" in repr(AffineAccess(matrix, [0, 0], is_write=True))


class TestLoopNest:
    def test_trip_count(self):
        nest = LoopNest([("i", 0, 4), ("j", 1, 4)])
        assert nest.trip_count == 12

    def test_variables_outermost_first(self):
        nest = LoopNest([("i", 0, 2), ("j", 0, 2)])
        assert nest.variables == ("i", "j")
        assert nest.depth == 2

    def test_space_matches_trip_count(self):
        nest = LoopNest([("i", 0, 3), ("j", 0, 5)])
        assert nest.space().count() == nest.trip_count

    def test_bounds_of(self):
        nest = LoopNest([("i", 2, 9)])
        assert nest.bounds_of("i") == (2, 9)
        with pytest.raises(ValidationError):
            nest.bounds_of("k")

    def test_duplicate_variables_rejected(self):
        with pytest.raises(ValidationError):
            LoopNest([("i", 0, 2), ("i", 0, 2)])

    def test_empty_bounds_rejected(self):
        with pytest.raises(ValidationError):
            LoopNest([("i", 5, 4)])

    def test_zero_trip_loop_allowed(self):
        # A [5, 5) loop is empty but structurally valid.
        assert LoopNest([("i", 5, 5)]).trip_count == 0

    def test_iteration_and_equality(self):
        nest = LoopNest([("i", 0, 2)])
        assert list(nest) == [("i", 0, 2)]
        assert nest == LoopNest([("i", 0, 2)])
