"""Unit tests for value types, NULL semantics and coercion."""

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import TypeMismatchError
from repro.relational.types import (
    NULL,
    AttributeType,
    coerce_value,
    infer_type,
    is_null,
    sort_key,
    value_repr,
)


class TestNull:
    def test_null_is_singleton(self):
        assert NULL is type(NULL)()

    def test_is_null_accepts_none_and_marker(self):
        assert is_null(None)
        assert is_null(NULL)
        assert not is_null(0)
        assert not is_null("")
        assert not is_null(False)

    def test_null_is_falsy(self):
        assert not NULL

    def test_null_equality_and_hash(self):
        assert NULL == NULL
        assert hash(NULL) == hash(NULL)
        assert NULL != 0


class TestCoercion:
    def test_string_from_number(self):
        assert coerce_value(44, AttributeType.STRING) == "44"
        assert coerce_value(3.0, AttributeType.STRING) == "3"
        assert coerce_value(3.5, AttributeType.STRING) == "3.5"

    def test_string_passthrough(self):
        assert coerce_value("mh", AttributeType.STRING) == "mh"

    def test_integer_from_string(self):
        assert coerce_value(" 908 ", AttributeType.INTEGER) == 908

    def test_integer_from_float_whole(self):
        assert coerce_value(4.0, AttributeType.INTEGER) == 4

    def test_integer_from_float_fractional_fails(self):
        with pytest.raises(TypeMismatchError):
            coerce_value(4.5, AttributeType.INTEGER)

    def test_integer_from_bad_string_fails(self):
        with pytest.raises(TypeMismatchError):
            coerce_value("abc", AttributeType.INTEGER)

    def test_float_from_string(self):
        assert coerce_value("2.5", AttributeType.FLOAT) == 2.5

    def test_float_nan_becomes_null(self):
        assert is_null(coerce_value(float("nan"), AttributeType.FLOAT))

    def test_boolean_parsing(self):
        assert coerce_value("true", AttributeType.BOOLEAN) is True
        assert coerce_value("No", AttributeType.BOOLEAN) is False
        assert coerce_value(1, AttributeType.BOOLEAN) is True

    def test_boolean_bad_string_fails(self):
        with pytest.raises(TypeMismatchError):
            coerce_value("maybe", AttributeType.BOOLEAN)

    def test_null_passthrough_all_types(self):
        for attr_type in AttributeType:
            assert is_null(coerce_value(None, attr_type))
            assert is_null(coerce_value(NULL, attr_type))

    def test_empty_string_is_null_for_non_string(self):
        assert is_null(coerce_value("", AttributeType.INTEGER))
        assert coerce_value("", AttributeType.STRING) == ""


class TestInference:
    def test_integer_column(self):
        assert infer_type(["1", "2", "3"]) is AttributeType.INTEGER

    def test_float_column(self):
        assert infer_type(["1.5", "2"]) is AttributeType.FLOAT

    def test_string_column(self):
        assert infer_type(["a", "1"]) is AttributeType.STRING

    def test_boolean_column(self):
        assert infer_type(["true", "false"]) is AttributeType.BOOLEAN

    def test_leading_zero_numbers_stay_text(self):
        assert infer_type(["01", "44"]) is AttributeType.STRING
        assert infer_type(["-007", "3"]) is AttributeType.STRING
        assert infer_type(["+05.5"]) is AttributeType.STRING
        # a lone zero, a zero before the point and a bare 0/1 flag still parse
        assert infer_type(["0", "10"]) is AttributeType.INTEGER
        assert infer_type(["0.5", "-0.25"]) is AttributeType.FLOAT

    def test_all_null_defaults_to_string(self):
        assert infer_type([None, "", NULL]) is AttributeType.STRING


class TestSortKeyAndRepr:
    def test_nulls_sort_first(self):
        values = ["b", NULL, "a", 3]
        ordered = sorted(values, key=sort_key)
        assert is_null(ordered[0])

    def test_value_repr(self):
        assert value_repr(NULL) == "NULL"
        assert value_repr("x") == "'x'"
        assert value_repr(True) == "true"
        assert value_repr(3) == "3"

    @given(st.lists(st.one_of(st.integers(-1000, 1000), st.text(max_size=5),
                              st.booleans(), st.none()), max_size=30))
    def test_sort_key_total_order(self, values):
        # sorting never raises and is stable w.r.t. repeated sorting
        once = sorted(values, key=sort_key)
        twice = sorted(once, key=sort_key)
        assert once == twice


class TestRoundTripProperty:
    @given(st.integers(-10**9, 10**9))
    def test_integer_roundtrip_through_string(self, value):
        text = coerce_value(value, AttributeType.STRING)
        assert coerce_value(text, AttributeType.INTEGER) == value

    @given(st.text(alphabet=st.characters(blacklist_categories=("Cs",)), max_size=20))
    def test_string_coercion_is_identity(self, value):
        assert coerce_value(value, AttributeType.STRING) == value
