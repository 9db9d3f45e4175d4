"""Value types and NULL semantics for the relational engine.

The engine supports four scalar attribute types (strings, integers,
floats and booleans) plus SQL-style NULLs.  NULL is represented by the
singleton :data:`NULL` rather than ``None`` so that accidental use of
``None`` by callers is caught early by :func:`coerce_value`.

Comparisons involving NULL follow three-valued logic and are implemented
in :mod:`repro.relational.expressions`; this module only provides the
value-level primitives (coercion, equality, ordering keys, display).
"""

from __future__ import annotations

import enum
import math
import re
from typing import Any

from repro.errors import TypeMismatchError


class _NullType:
    """Singleton marker for SQL NULL values."""

    _instance: "_NullType | None" = None

    def __new__(cls) -> "_NullType":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return "NULL"

    def __bool__(self) -> bool:
        return False

    def __hash__(self) -> int:
        return hash("__repro_null__")

    def __eq__(self, other: object) -> bool:
        return isinstance(other, _NullType)

    def __lt__(self, other: object) -> bool:
        # NULLs sort first; needed only for deterministic ordering of rows.
        return not isinstance(other, _NullType)

    def __gt__(self, other: object) -> bool:
        return False


NULL = _NullType()
"""The SQL NULL marker used throughout the engine."""


def is_null(value: Any) -> bool:
    """Return ``True`` when *value* is the engine's NULL marker (or ``None``)."""
    return value is None or isinstance(value, _NullType)


class AttributeType(enum.Enum):
    """Declared type of a relation attribute."""

    STRING = "string"
    INTEGER = "integer"
    FLOAT = "float"
    BOOLEAN = "boolean"

    def python_types(self) -> tuple[type, ...]:
        """Python types accepted (after coercion) for this attribute type."""
        if self is AttributeType.STRING:
            return (str,)
        if self is AttributeType.INTEGER:
            return (int,)
        if self is AttributeType.FLOAT:
            return (float, int)
        return (bool,)


_TRUE_STRINGS = {"true", "t", "yes", "y", "1"}
_FALSE_STRINGS = {"false", "f", "no", "n", "0"}


def coerce_value(value: Any, attr_type: AttributeType) -> Any:
    """Coerce *value* to the Python representation of *attr_type*.

    ``None``, the :data:`NULL` marker and the empty string all coerce to
    NULL.  Strings are parsed for numeric and boolean attributes; numbers
    are stringified for string attributes.  Raises
    :class:`~repro.errors.TypeMismatchError` when the value cannot be
    represented in the declared type.
    """
    if is_null(value):
        return NULL
    if isinstance(value, str) and value == "" and attr_type is not AttributeType.STRING:
        return NULL

    if attr_type is AttributeType.STRING:
        if isinstance(value, str):
            return value
        if isinstance(value, bool):
            return "true" if value else "false"
        if isinstance(value, (int, float)):
            return _number_to_string(value)
        raise TypeMismatchError(f"cannot represent {value!r} as STRING")

    if attr_type is AttributeType.INTEGER:
        if isinstance(value, bool):
            return int(value)
        if isinstance(value, int):
            return value
        if isinstance(value, float):
            if not value.is_integer():
                raise TypeMismatchError(f"cannot represent {value!r} as INTEGER")
            return int(value)
        if isinstance(value, str):
            try:
                return int(value.strip())
            except ValueError as exc:
                raise TypeMismatchError(f"cannot parse {value!r} as INTEGER") from exc
        raise TypeMismatchError(f"cannot represent {value!r} as INTEGER")

    if attr_type is AttributeType.FLOAT:
        if isinstance(value, bool):
            return float(value)
        if isinstance(value, (int, float)):
            result = float(value)
            if math.isnan(result):
                return NULL
            return result
        if isinstance(value, str):
            try:
                result = float(value.strip())
            except ValueError as exc:
                raise TypeMismatchError(f"cannot parse {value!r} as FLOAT") from exc
            if math.isnan(result):
                return NULL
            return result
        raise TypeMismatchError(f"cannot represent {value!r} as FLOAT")

    # BOOLEAN
    if isinstance(value, bool):
        return value
    if isinstance(value, (int, float)) and value in (0, 1):
        return bool(value)
    if isinstance(value, str):
        lowered = value.strip().lower()
        if lowered in _TRUE_STRINGS:
            return True
        if lowered in _FALSE_STRINGS:
            return False
    raise TypeMismatchError(f"cannot parse {value!r} as BOOLEAN")


def _number_to_string(value: int | float) -> str:
    """Render a number the way CSV import/export expects it."""
    if isinstance(value, int):
        return str(value)
    if value.is_integer():
        return str(int(value))
    return repr(value)


def value_repr(value: Any) -> str:
    """Human-readable rendering of a value (used in reports and errors)."""
    if is_null(value):
        return "NULL"
    if isinstance(value, str):
        return f"'{value}'"
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)


#: a number written with a leading zero before another digit (``01``, ``-007``).
_LEADING_ZERO = re.compile(r"\s*[+-]?0\d")


def infer_type(values: list[Any]) -> AttributeType:
    """Infer the narrowest :class:`AttributeType` that fits all *values*.

    Used by CSV import when no schema is supplied.  NULLs and empty
    strings are ignored during inference; an all-NULL column defaults to
    STRING.  A text with a leading zero before another digit (``01``,
    ``-007``) fits neither INTEGER nor FLOAT: parsing would drop the zero,
    so a code like a country code would not survive a load/write round
    trip.
    """
    non_null = [v for v in values if not is_null(v) and v != ""]
    if not non_null:
        return AttributeType.STRING
    numeric = not any(isinstance(v, str) and _LEADING_ZERO.match(v) for v in non_null)

    def fits(attr_type: AttributeType) -> bool:
        for value in non_null:
            try:
                coerce_value(value, attr_type)
            except TypeMismatchError:
                return False
        return True

    for candidate in (AttributeType.INTEGER, AttributeType.FLOAT, AttributeType.BOOLEAN):
        if (numeric or candidate is AttributeType.BOOLEAN) and fits(candidate):
            return candidate
    return AttributeType.STRING


def sort_key(value: Any) -> tuple[int, Any]:
    """Total-order key over heterogeneous values (NULLs first)."""
    if is_null(value):
        return (0, "")
    if isinstance(value, bool):
        return (1, int(value))
    if isinstance(value, (int, float)):
        return (2, float(value))
    return (3, str(value))


def constants_equal(left: Any, right: Any) -> bool:
    """Compare a data value with a pattern constant, tolerating int/str mismatches.

    This is the ``≍`` equality of CFD pattern matching (historically
    defined next to :class:`~repro.constraints.tableau.PatternTuple`, now
    a value-level primitive shared with the dictionary-code predicate
    compilers in :mod:`repro.relational.predicates`).
    """
    if left == right:
        return True
    return str(left) == str(right)


def typed_match(constant: Any, attr_type: AttributeType) -> Any:
    """The value of *attr_type* that ``≍``-matches *constant*, or NULL if none does.

    ``v ≍ c`` holds when ``v == c`` or ``str(v) == str(c)``.  Within one
    non-STRING type at most one value qualifies — *constant* coerced (for
    a numeric or boolean constant, ``==`` is numeric equality) or the
    parse of ``str(constant)`` when it prints back unchanged — so SQL
    ``col = <that value>`` selects exactly the pattern's matches (a
    ``'908'`` constant on an INTEGER column selects ``908``, a ``'0908'``
    one selects nothing).
    """
    for candidate in (constant, str(constant)):
        try:
            value = coerce_value(candidate, attr_type)
        except TypeMismatchError:
            continue
        if not is_null(value) and constants_equal(value, constant):
            return value
    return NULL
