"""Logical data types for the repro columnar engine.

The engine supports a deliberately small set of types that covers the
seismology warehouse schema of the paper: 64-bit integers, 64-bit floats,
strings, booleans, and millisecond-precision timestamps.  A
:class:`DataType` couples a logical name with the NumPy dtype used for its
columnar representation and with coercion helpers used by the SQL binder.

Timestamps are stored as ``int64`` milliseconds since the Unix epoch; the
SQL layer accepts ISO-8601 literals (``'2010-01-12T22:15:00.000'``) and
coerces them through :func:`parse_timestamp`.
"""

from __future__ import annotations

import datetime as _dt
import enum
from typing import Any

import numpy as np

from .errors import TypeMismatchError

__all__ = [
    "DataType",
    "INT64",
    "FLOAT64",
    "STRING",
    "BOOL",
    "TIMESTAMP",
    "ALL_TYPES",
    "type_by_name",
    "parse_timestamp",
    "format_timestamp",
    "infer_type",
    "common_numeric_type",
]


@enum.unique
class DataType(enum.Enum):
    """A logical column type.

    Members are singletons, so the engine compares types by identity
    (``dtype is STRING``) and a pickle or ``copy.deepcopy`` round-trip
    resolves to the same member.  Each value leads with the member's
    label: ``INT64`` and ``TIMESTAMP`` share a dtype and numericness, and
    equal values would make one an alias of the other (``@enum.unique``
    turns any such alias into an import error).

    Attributes:
        name: Logical name used in schemas and SQL (``INT64``, ``STRING``...).
        numpy_dtype: The dtype backing the columnar representation.
        is_numeric: Whether arithmetic is defined on the type.
    """

    INT64 = ("INT64", np.dtype(np.int64), True)
    FLOAT64 = ("FLOAT64", np.dtype(np.float64), True)
    STRING = ("STRING", np.dtype(object), False)
    BOOL = ("BOOL", np.dtype(np.bool_), False)
    TIMESTAMP = ("TIMESTAMP", np.dtype(np.int64), True)

    def __init__(self, label: str, numpy_dtype: np.dtype, is_numeric: bool):
        self.numpy_dtype = numpy_dtype
        self.is_numeric = is_numeric

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return self.name

    __str__ = __repr__

    def coerce_value(self, value: Any) -> Any:
        """Coerce a single Python value to this type.

        Raises:
            TypeMismatchError: If the value cannot represent this type.
        """
        if value is None:
            return None
        if self is TIMESTAMP:
            if isinstance(value, str):
                return parse_timestamp(value)
            if isinstance(value, (int, np.integer)):
                return int(value)
            raise TypeMismatchError(f"cannot coerce {value!r} to TIMESTAMP")
        if self is INT64:
            if isinstance(value, (bool, np.bool_)):
                return int(value)
            if isinstance(value, (int, np.integer)):
                return int(value)
            if isinstance(value, (float, np.floating)) and float(value).is_integer():
                return int(value)
            raise TypeMismatchError(f"cannot coerce {value!r} to INT64")
        if self is FLOAT64:
            if isinstance(value, (int, float, np.integer, np.floating)):
                return float(value)
            raise TypeMismatchError(f"cannot coerce {value!r} to FLOAT64")
        if self is STRING:
            if isinstance(value, str):
                return value
            raise TypeMismatchError(f"cannot coerce {value!r} to STRING")
        if self is BOOL:
            if isinstance(value, (bool, np.bool_)):
                return bool(value)
            raise TypeMismatchError(f"cannot coerce {value!r} to BOOL")
        raise TypeMismatchError(f"unknown type {self.name}")  # pragma: no cover

    def empty_array(self, capacity: int = 0) -> np.ndarray:
        """Return an empty NumPy array suitable for this type."""
        return np.empty(capacity, dtype=self.numpy_dtype)


INT64 = DataType.INT64
FLOAT64 = DataType.FLOAT64
STRING = DataType.STRING
BOOL = DataType.BOOL
TIMESTAMP = DataType.TIMESTAMP

ALL_TYPES = tuple(DataType)

_EPOCH = _dt.datetime(1970, 1, 1, tzinfo=_dt.timezone.utc)


def type_by_name(name: str) -> DataType:
    """Look up a :class:`DataType` by its logical name (case-insensitive)."""
    try:
        return DataType[name.upper()]
    except KeyError:
        raise TypeMismatchError(f"unknown type name {name!r}") from None


def parse_timestamp(text: str) -> int:
    """Parse an ISO-8601 timestamp string to epoch milliseconds.

    Accepts ``YYYY-MM-DD``, ``YYYY-MM-DDTHH:MM:SS`` and fractional-second
    variants, with either ``T`` or a space as the date/time separator.

    Raises:
        TypeMismatchError: If the text is not a recognizable timestamp.
    """
    normalized = text.strip().replace(" ", "T")
    try:
        if "T" not in normalized:
            moment = _dt.datetime.strptime(normalized, "%Y-%m-%d")
        else:
            date_part, time_part = normalized.split("T", 1)
            if "." in time_part:
                moment = _dt.datetime.strptime(normalized, "%Y-%m-%dT%H:%M:%S.%f")
            else:
                moment = _dt.datetime.strptime(normalized, "%Y-%m-%dT%H:%M:%S")
    except ValueError as exc:
        raise TypeMismatchError(f"invalid timestamp literal {text!r}") from exc
    moment = moment.replace(tzinfo=_dt.timezone.utc)
    return int((moment - _EPOCH).total_seconds() * 1000)


def format_timestamp(millis: int) -> str:
    """Format epoch milliseconds as an ISO-8601 string with milliseconds."""
    moment = _EPOCH + _dt.timedelta(milliseconds=int(millis))
    return moment.strftime("%Y-%m-%dT%H:%M:%S.") + f"{moment.microsecond // 1000:03d}"


def infer_type(value: Any) -> DataType:
    """Infer the logical type of a single Python literal."""
    if isinstance(value, (bool, np.bool_)):
        return BOOL
    if isinstance(value, (int, np.integer)):
        return INT64
    if isinstance(value, (float, np.floating)):
        return FLOAT64
    if isinstance(value, str):
        return STRING
    raise TypeMismatchError(f"cannot infer type of {value!r}")


def common_numeric_type(left: DataType, right: DataType) -> DataType:
    """Return the result type of arithmetic between two numeric types.

    Timestamp arithmetic yields INT64 (millisecond differences); any float
    operand promotes the result to FLOAT64.

    Raises:
        TypeMismatchError: If either side is non-numeric.
    """
    if not left.is_numeric or not right.is_numeric:
        raise TypeMismatchError(
            f"arithmetic requires numeric types, got {left.name} and {right.name}"
        )
    if FLOAT64 in (left, right):
        return FLOAT64
    if left is TIMESTAMP and right is TIMESTAMP:
        return INT64
    if TIMESTAMP in (left, right):
        return TIMESTAMP
    return INT64
