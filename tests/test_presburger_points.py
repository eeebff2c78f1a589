"""PointSet: canonicalisation and exact set algebra."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import DimensionMismatchError, ValidationError
from repro.presburger.points import PointSet


class TestConstruction:
    def test_duplicates_collapse(self):
        ps = PointSet([[1, 2], [1, 2], [0, 0]])
        assert len(ps) == 2

    def test_canonical_order_is_lexicographic(self):
        ps = PointSet([[2, 0], [1, 5], [1, 2]])
        assert [tuple(p) for p in ps] == [(1, 2), (1, 5), (2, 0)]

    def test_from_flat_one_dimensional(self):
        ps = PointSet.from_flat([3, 1, 2, 1])
        assert ps.dim == 1
        assert ps.flat().tolist() == [1, 2, 3]

    def test_empty_needs_dim(self):
        with pytest.raises(ValidationError):
            PointSet([])
        assert PointSet.empty(3).dim == 3

    def test_one_dim_vector_is_reshaped(self):
        ps = PointSet(np.array([5, 2, 5]))
        assert ps.dim == 1
        assert len(ps) == 2

    def test_dim_mismatch_rejected(self):
        with pytest.raises(DimensionMismatchError):
            PointSet([[1, 2]], dim=3)

    def test_points_are_read_only(self):
        ps = PointSet([[1, 2]])
        with pytest.raises(ValueError):
            ps.points[0, 0] = 9

    def test_input_array_is_not_frozen_or_aliased(self):
        rows = np.array([[0, 1], [2, 3]])
        ps = PointSet(rows)
        rows[0, 0] = 9
        assert (0, 1) in ps


class TestValidation:
    """Coordinates are integers: nothing is truncated or cast silently."""

    @pytest.mark.parametrize(
        "points",
        [
            [[1.5, 2], [1.2, 2]],
            [[1.0, 2.0]],
            [[True, False]],
            np.array([[1, 2]], dtype=np.float32),
            np.array([[1, 2]], dtype=object),
            [["a", "b"]],
            [[2**63, 0]],  # past int64: uint64 or object dtype
            np.array([[2**63, 0]], dtype=np.uint64),
            [[-(2**63) - 1, 0]],
        ],
    )
    def test_non_integer_points_rejected(self, points):
        with pytest.raises(ValidationError):
            PointSet(points)

    @pytest.mark.parametrize("values", [[0.9, 1.1], [True], np.array([2.0])])
    def test_from_flat_rejects_non_integers(self, values):
        with pytest.raises(ValidationError):
            PointSet.from_flat(values)

    def test_ragged_input_rejected(self):
        with pytest.raises(ValidationError):
            PointSet([[1, 2], [3]])

    def test_validation_error_is_still_a_value_error(self):
        with pytest.raises(ValueError):
            PointSet([[0.5]])

    def test_empty_input_of_any_dtype_needs_only_a_dim(self):
        assert PointSet([], dim=2) == PointSet.empty(2)
        assert PointSet(np.empty((0, 3)), dim=3).is_empty()
        assert PointSet.from_flat([]) == PointSet.empty(1)

    def test_integer_dtypes_within_int64_accepted(self):
        ps = PointSet(np.array([[3, 1], [1, 2]], dtype=np.int8))
        assert ps.points.dtype == np.int64
        assert list(ps) == [(1, 2), (3, 1)]
        flat = PointSet.from_flat(np.arange(3, dtype=np.uint32)).flat()
        assert flat.tolist() == [0, 1, 2]
        assert PointSet(np.array([[1, 2]], dtype=np.uint64)) == PointSet([[1, 2]])
        high = 2**63 - 1
        flat = PointSet.from_flat(np.array([high, 0], dtype=np.uint64)).flat()
        assert flat.tolist() == [0, high]

    def test_int64_extremes_kept_exactly(self):
        low, high = -(2**63), 2**63 - 1
        ps = PointSet([[high, low], [low, high]])
        assert list(ps) == [(low, high), (high, low)]


class TestMembership:
    def test_contains(self):
        ps = PointSet([[1, 2], [3, 4]])
        assert (1, 2) in ps
        assert (2, 1) not in ps

    def test_contains_checks_dim(self):
        with pytest.raises(DimensionMismatchError):
            (1,) in PointSet([[1, 2]])

    def test_non_integral_candidate_is_not_a_member(self):
        ps = PointSet([[1, 2]])
        assert (1.5, 2) not in ps
        assert (1, 2.25) not in ps
        assert (float("nan"), 2) not in ps
        assert (float("inf"), 2) not in ps
        assert ("1", 2) not in ps

    def test_integral_candidates_match_like_range(self):
        # As with ``1.0 in range(3)``: an integral value is its integer.
        ps = PointSet([[1, 2]])
        assert (1.0, 2) in ps
        assert (np.int32(1), np.uint8(2)) in ps
        assert True in PointSet.from_flat([1])

    def test_candidate_past_int64_is_not_a_member(self):
        assert (2**64,) not in PointSet.from_flat([0])

    def test_flat_requires_one_dim(self):
        with pytest.raises(DimensionMismatchError):
            PointSet([[1, 2]]).flat()


class TestAlgebra:
    def test_intersection_2d(self):
        a = PointSet([[0, 0], [1, 1], [2, 2]])
        b = PointSet([[1, 1], [2, 2], [3, 3]])
        assert a.intersect(b) == PointSet([[1, 1], [2, 2]])

    def test_intersection_1d_fast_path(self):
        a = PointSet.from_flat(range(10))
        b = PointSet.from_flat(range(5, 15))
        assert a.intersect(b).flat().tolist() == list(range(5, 10))

    def test_intersection_size_matches_intersect(self):
        a = PointSet([[0, 1], [2, 3], [4, 5]])
        b = PointSet([[2, 3], [9, 9]])
        assert a.intersection_size(b) == len(a.intersect(b)) == 1

    def test_union(self):
        a = PointSet.from_flat([1, 2])
        b = PointSet.from_flat([2, 3])
        assert a.union(b).flat().tolist() == [1, 2, 3]

    def test_difference(self):
        a = PointSet.from_flat([1, 2, 3])
        b = PointSet.from_flat([2])
        assert a.difference(b).flat().tolist() == [1, 3]

    def test_empty_identities(self):
        a = PointSet.from_flat([1, 2])
        empty = PointSet.empty(1)
        assert a.union(empty) == a
        assert a.intersect(empty).is_empty()
        assert a.difference(empty) == a
        assert empty.difference(a).is_empty()

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(DimensionMismatchError):
            PointSet.from_flat([1]).intersect(PointSet([[1, 2]]))

    def test_non_pointset_rejected(self):
        with pytest.raises(ValidationError):
            PointSet.from_flat([1]).union([1])  # type: ignore[arg-type]


class TestEqualityAndHash:
    def test_order_insensitive_equality(self):
        assert PointSet([[2, 2], [1, 1]]) == PointSet([[1, 1], [2, 2]])

    def test_hashable(self):
        assert hash(PointSet([[1, 2]])) == hash(PointSet([[1, 2]]))

    def test_repr_shows_size(self):
        assert "n=2" in repr(PointSet([[1], [2]]))
