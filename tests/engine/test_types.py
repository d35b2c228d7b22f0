"""Unit tests for the logical type system."""

import pickle

import numpy as np
import pytest

from repro.engine.errors import TypeMismatchError
from repro.engine.table import Field, Schema
from repro.engine.types import (
    ALL_TYPES,
    BOOL,
    FLOAT64,
    INT64,
    STRING,
    TIMESTAMP,
    common_numeric_type,
    format_timestamp,
    infer_type,
    parse_timestamp,
    type_by_name,
)


class TestParseTimestamp:
    def test_date_only(self):
        assert parse_timestamp("1970-01-01") == 0

    def test_epoch_midnight(self):
        assert parse_timestamp("1970-01-02T00:00:00") == 86400000

    def test_fractional_seconds(self):
        assert parse_timestamp("1970-01-01T00:00:00.250") == 250

    def test_space_separator(self):
        assert parse_timestamp("1970-01-01 00:00:01") == 1000

    def test_known_instant(self):
        # 2010-01-01T00:00:00Z
        assert parse_timestamp("2010-01-01T00:00:00.000") == 1262304000000

    def test_invalid_raises(self):
        with pytest.raises(TypeMismatchError):
            parse_timestamp("not a time")

    def test_invalid_month_raises(self):
        with pytest.raises(TypeMismatchError):
            parse_timestamp("2010-13-01T00:00:00")


class TestFormatTimestamp:
    def test_roundtrip(self):
        millis = parse_timestamp("2010-04-20T23:00:00.125")
        assert parse_timestamp(format_timestamp(millis)) == millis

    def test_zero(self):
        assert format_timestamp(0) == "1970-01-01T00:00:00.000"


class TestCoercion:
    def test_int_accepts_bool(self):
        assert INT64.coerce_value(True) == 1

    def test_int_accepts_integral_float(self):
        assert INT64.coerce_value(3.0) == 3

    def test_int_rejects_fractional_float(self):
        with pytest.raises(TypeMismatchError):
            INT64.coerce_value(3.5)

    def test_float_accepts_int(self):
        assert FLOAT64.coerce_value(3) == 3.0

    def test_string_rejects_int(self):
        with pytest.raises(TypeMismatchError):
            STRING.coerce_value(42)

    def test_timestamp_accepts_iso_string(self):
        assert TIMESTAMP.coerce_value("1970-01-01T00:00:01") == 1000

    def test_timestamp_accepts_int(self):
        assert TIMESTAMP.coerce_value(12345) == 12345

    def test_none_passes_through(self):
        assert INT64.coerce_value(None) is None

    def test_bool_rejects_int(self):
        with pytest.raises(TypeMismatchError):
            BOOL.coerce_value(1)


class TestInference:
    def test_bool_before_int(self):
        assert infer_type(True) is BOOL

    def test_int(self):
        assert infer_type(7) is INT64

    def test_float(self):
        assert infer_type(7.5) is FLOAT64

    def test_string(self):
        assert infer_type("x") is STRING

    def test_numpy_scalars(self):
        assert infer_type(np.int64(3)) is INT64
        assert infer_type(np.float64(3.5)) is FLOAT64

    def test_unknown_raises(self):
        with pytest.raises(TypeMismatchError):
            infer_type(object())


class TestCommonNumericType:
    def test_int_int(self):
        assert common_numeric_type(INT64, INT64) is INT64

    def test_int_float(self):
        assert common_numeric_type(INT64, FLOAT64) is FLOAT64

    def test_timestamp_minus_timestamp_is_int(self):
        assert common_numeric_type(TIMESTAMP, TIMESTAMP) is INT64

    def test_timestamp_plus_int_is_timestamp(self):
        assert common_numeric_type(TIMESTAMP, INT64) is TIMESTAMP

    def test_string_rejected(self):
        with pytest.raises(TypeMismatchError):
            common_numeric_type(STRING, INT64)


class TestTypeByName:
    def test_lookup_case_insensitive(self):
        assert type_by_name("int64") is INT64
        assert type_by_name("TIMESTAMP") is TIMESTAMP

    def test_unknown_raises(self):
        with pytest.raises(TypeMismatchError):
            type_by_name("DECIMAL")


class TestPickleIdentity:
    """Types survive a pickle round-trip as the same singleton members."""

    @pytest.mark.parametrize("dtype", ALL_TYPES, ids=lambda t: t.name)
    def test_member_round_trips_to_itself(self, dtype):
        assert pickle.loads(pickle.dumps(dtype)) is dtype

    def test_schema_round_trip_keeps_member_identity(self):
        schema = Schema([Field(t.name.lower(), t) for t in ALL_TYPES])
        restored = pickle.loads(pickle.dumps(schema))
        assert restored == schema
        assert all(
            mine.dtype is theirs.dtype
            for mine, theirs in zip(restored.fields, schema.fields)
        )

    def test_timestamp_is_not_an_alias_of_int64(self):
        assert TIMESTAMP is not INT64
        assert TIMESTAMP.numpy_dtype == INT64.numpy_dtype
        assert len(ALL_TYPES) == 5
