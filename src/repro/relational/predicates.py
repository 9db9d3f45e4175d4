"""Value-predicate → dictionary-code-set compilation over columns.

Every hot path that tests column values against constants — CFD/CIND
pattern matching in :mod:`repro.detection`, the SQL WHERE push-down in
:mod:`repro.relational.sql` — compiles the constant once into the set of
dictionary codes it selects, turning per-tuple value tests into integer
set membership.  This module is the shared home of those compilers (SQL
used to import them from ``repro.detection.columnar``, an inverted
dependency):

* :func:`constant_code_set` — the live code set matching one constant
  under the ``≍`` equality of CFD patterns (int/str tolerant, NULL never
  matches).  Backed by :meth:`~repro.relational.columns.Column.matcher`,
  so the set is maintained in place as the dictionary grows — safe to
  hold inside long-lived compiled detection plans.
* :func:`equality_code_set` — SQL ``=`` / ``IN`` (and their negations)
  over string literals: exact string equality degenerates to plain
  ``code_of`` lookups; the negated forms take the complement over the
  current dictionary.  NULL is excluded either way (``NULL != 'x'`` is
  UNKNOWN).  The returned set is a per-query snapshot, nothing is
  retained on the column.
* :func:`range_code_set` — SQL ``<`` / ``<=`` / ``>`` / ``>=`` (and the
  parser's desugared ``BETWEEN``): bisects the column's lazily rebuilt
  dictionary-order view (:meth:`~repro.relational.columns.Column.order`)
  under the same :func:`~repro.relational.types.sort_key` total order
  the row-at-a-time comparisons use.  Also a per-query snapshot.
* :func:`null_code_set` — SQL ``IS [NOT] NULL``: ``{NULL_CODE}``, or
  every non-NULL code of the current dictionary.
* :func:`comparison_code_set` — any other ``=`` / ``<>`` against a
  literal (numeric columns, mixed types): one pass over the dictionary
  with the row path's own :func:`~repro.relational.expressions.compare_values`,
  so each distinct value is compared once instead of once per tuple.
"""

from __future__ import annotations

from typing import Any, Hashable, Iterable

from repro.relational.columns import NULL_CODE, Column
from repro.relational.expressions import compare_values
from repro.relational.types import constants_equal, is_null

__all__ = ["constant_code_set", "equality_code_set", "range_code_set",
           "null_code_set", "comparison_code_set", "RANGE_OPERATORS"]

#: the comparison operators :func:`range_code_set` compiles.
RANGE_OPERATORS = ("<", "<=", ">", ">=")


def _matcher_key(constant: Any) -> Hashable:
    # 1 and 1.0 hash alike but match different string forms, so the type
    # name participates in the cache key.
    return ("constant", type(constant).__name__, constant)


def constant_code_set(column: Column, constant: Any) -> set[int]:
    """The live set of codes of *column* matching *constant* (``≍`` semantics).

    NULL never matches a constant, so :data:`~repro.relational.columns.NULL_CODE`
    is never included.  The set is maintained by the column as its
    dictionary grows.
    """
    matcher = column.matcher(
        _matcher_key(constant), lambda value, c=constant: constants_equal(value, c))
    return matcher.codes


def equality_code_set(column: Column, constants: Iterable[str],
                      negated: bool = False) -> set[int]:
    """The codes of *column* selected by ``col [NOT] IN (constants)``.

    String equality is exact, so the positive form is plain ``code_of``
    lookups (an unseen literal selects nothing); the negated form is the
    complement over the current dictionary.  NULL is excluded from both.
    """
    codes = {column.code_of(constant) for constant in constants}
    codes.discard(None)
    if negated:
        codes = set(range(1, len(column.values))) - codes
    return codes


def range_code_set(column: Column, operator: str, bound: Any) -> set[int]:
    """The codes of *column* satisfying ``value <operator> bound``.

    *operator* is one of :data:`RANGE_OPERATORS`.  A NULL *bound* selects
    nothing (every comparison against NULL is UNKNOWN); NULL cells are
    never selected.  The comparison is the engine's ``sort_key`` total
    order — exactly what the row-at-a-time evaluation of ``<`` etc. uses,
    so push-down changes execution, never results.
    """
    if is_null(bound):
        return set()
    return column.order().codes_in_range(operator, bound)


def null_code_set(column: Column, negated: bool = False) -> set[int]:
    """The codes of *column* selected by ``col IS [NOT] NULL``.

    ``IS NULL`` is the NULL code alone; ``IS NOT NULL`` is every other code
    of the current dictionary (a per-query snapshot).
    """
    if negated:
        return set(range(1, len(column.values)))
    return {NULL_CODE}


def comparison_code_set(column: Column, operator: str, literal: Any) -> set[int]:
    """The codes of *column* whose value satisfies ``value <operator> literal``.

    Evaluates :func:`~repro.relational.expressions.compare_values` once per
    distinct value, so the selected set is by construction what the
    row-at-a-time path keeps; NULL cells (UNKNOWN) are never selected.
    """
    values = column.values
    return {code for code in range(1, len(values))
            if compare_values(operator, values[code], literal) is True}
