"""Argument-validation helpers."""

from __future__ import annotations

import pytest

from repro.errors import ValidationError
from repro.util.validation import (
    check_in_range,
    check_positive,
    check_power_of_two,
    check_type,
)


class TestCheckType:
    def test_accepts_matching_type(self):
        check_type("x", 5, int)
        check_type("x", "s", str)

    def test_rejects_wrong_type(self):
        with pytest.raises(ValidationError, match="x must be int"):
            check_type("x", "5", int)

    def test_rejects_bool_where_int_expected(self):
        with pytest.raises(ValidationError, match="bool"):
            check_type("flag", True, int)

    def test_tuple_of_types(self):
        check_type("x", 5, (int, float))
        check_type("x", 5.0, (int, float))
        with pytest.raises(ValidationError):
            check_type("x", "s", (int, float))

    def test_rejects_bool_where_int_is_one_of_several_types(self):
        with pytest.raises(ValidationError, match="bool"):
            check_type("flag", True, (int, float))

    def test_accepts_bool_where_bool_is_expected(self):
        check_type("flag", True, bool)
        check_type("flag", False, (int, bool))


class TestCheckPositive:
    def test_accepts_positive(self):
        check_positive("n", 1)
        check_positive("n", 0.5)

    @pytest.mark.parametrize("value", [0, -1, -0.5])
    def test_rejects_nonpositive(self, value):
        with pytest.raises(ValidationError):
            check_positive("n", value)

    @pytest.mark.parametrize("value", [True, False])
    def test_rejects_bool(self, value):
        with pytest.raises(ValidationError, match="bool"):
            check_positive("n", value)


class TestCheckInRange:
    def test_bounds_inclusive(self):
        check_in_range("n", 1, 1, 3)
        check_in_range("n", 3, 1, 3)

    def test_rejects_outside(self):
        with pytest.raises(ValidationError):
            check_in_range("n", 4, 1, 3)

    def test_rejects_bool(self):
        with pytest.raises(ValidationError, match="bool"):
            check_in_range("n", True, 0, 3)


class TestCheckPowerOfTwo:
    @pytest.mark.parametrize("value", [1, 2, 4, 1024, 2**20])
    def test_accepts_powers(self, value):
        check_power_of_two("n", value)

    @pytest.mark.parametrize("value", [0, -2, 3, 6, 1000])
    def test_rejects_non_powers(self, value):
        with pytest.raises(ValidationError):
            check_power_of_two("n", value)

    def test_rejects_non_int(self):
        with pytest.raises(ValidationError):
            check_power_of_two("n", 2.0)  # type: ignore[arg-type]
