"""Code-native (vectorized) plans for single-table SELECT statements.

The classic executor materialises an ``_ExecRow`` binding dict per
surviving row and evaluates WHERE / GROUP BY / aggregates value-at-a-time.
This module compiles the plans that do not need any of that: a
single-table scan → filter → group → aggregate pipeline that runs on the
relation's dictionary code arrays end to end.

* **Filter** — every WHERE conjunct must compile to a ``(position,
  allowed code set)`` pair (:func:`compile_filter`): string equality /
  ``IN`` / their negations via :func:`~repro.relational.predicates.equality_code_set`,
  ``<`` ``<=`` ``>`` ``>=`` (and the parser's desugared ``BETWEEN``)
  via :func:`~repro.relational.predicates.range_code_set` on the column's
  dictionary-order view, ``IS [NOT] NULL``, any other ``=`` / ``<>``
  against a literal (one pass over the dictionary), and an ``OR`` whose
  operands all test the same column (the union of their sets).
  Surviving tuples are selected by integer set membership — no row
  objects, no binding dicts.
* **Group** — GROUP BY columns become schema positions; groups are keyed
  by code tuples straight off the code arrays (codes are assigned by
  value equality, so code keys and value keys partition identically, in
  the same first-occurrence order).
* **Aggregate** — COUNT / COUNT(DISTINCT) run as code counts,
  MIN / MAX compare dense dictionary-order ranks
  (:meth:`~repro.relational.columns.Column.order`), SUM / AVG fold the
  dictionary-decoded values in tuple order (decoding is one list index
  per value — the dictionary holds each distinct value decoded once).
* **Decode boundaries** — values materialise only in the output rows:
  per selected cell for plain scans, per group for representatives and
  aggregate results.

:func:`compile_plan` returns ``None`` whenever the statement needs more
than this pipeline — joins, multiple tables, residual (expression-valued)
WHERE conjuncts such as an ``OR`` across two columns, non-column GROUP BY
keys, aggregates over expressions — and the executor falls back to the
retained row path, which produces byte-identical results (the randomized
SQL parity suite pins this down).

The compiled plan is deliberately split from its execution: the scan
itself is the picklable ``sql_scan`` worker handler
(:mod:`repro.engine.worker`), run either in-process on the full tid list
or fanned across chunks by :class:`~repro.engine.sql.ChunkedSQLEngine`
with an :class:`~repro.engine.sql.AggregateMerger` stitching per-chunk
partial aggregates.  The helpers here (:func:`query_payload`,
:func:`finalize_aggregate`, :func:`empty_aggregate_state`) are the
parent-side halves of that contract.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any

from repro.errors import ReproError, SchemaError, SQLExecutionError
from repro.relational.columns import NO_PARTNER, NULL_CODE
from repro.relational.expressions import (
    And,
    Arithmetic,
    ColumnRef,
    Comparison,
    Expression,
    InList,
    IsNull,
    Literal,
    Or,
)
from repro.relational.predicates import (
    RANGE_OPERATORS,
    comparison_code_set,
    equality_code_set,
    null_code_set,
    range_code_set,
)
from repro.relational.sql.ast import (
    AggregateCall,
    SelectStatement,
    TableRef,
)
from repro.relational.sql.parser import AggregateExpr
from repro.relational.types import NULL, AttributeType

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.relational.database import Database
    from repro.relational.relation import Relation

#: aggregate functions the code-native pipeline computes on codes.
AGGREGATE_FUNCTIONS = ("count", "sum", "avg", "min", "max")

#: operator with its operands swapped (``1 < v`` is ``v > 1``).
_FLIPPED = {"<": ">", "<=": ">=", ">": "<", ">=": "<=", "=": "=", "!=": "!=", "<>": "<>"}

_MISSING = object()


# -- shared statement helpers -------------------------------------------------
#
# Item expansion and aggregate collection are identical for the code and
# row paths (the row executor delegates here), so the two cannot drift.


def flatten_conjuncts(expression: Expression | None) -> list[Expression]:
    """The top-level AND conjuncts of *expression* (``[]`` for ``None``)."""
    if expression is None:
        return []
    if isinstance(expression, And):
        result: list[Expression] = []
        for operand in expression.operands:
            result.extend(flatten_conjuncts(operand))
        return result
    return [expression]


def star_columns(database: "Database", statement: SelectStatement,
                 qualifier: str | None) -> list[tuple[str, Expression]]:
    """Expand ``*`` / ``alias.*`` into named column references."""
    columns: list[tuple[str, Expression]] = []
    seen: set[str] = set()
    tables = list(statement.tables) + [join.table for join in statement.joins]
    for table in tables:
        if qualifier is not None and table.binding_name.lower() != qualifier.lower():
            continue
        relation = database.relation(table.relation_name)
        for name in relation.schema.attribute_names:
            output = name if name.lower() not in seen else f"{table.binding_name}_{name}"
            seen.add(name.lower())
            columns.append((output, ColumnRef(name, qualifier=table.binding_name)))
    if not columns:
        raise SQLExecutionError(f"'*' expansion found no columns (qualifier {qualifier!r})")
    return columns


def expanded_items(database: "Database",
                   statement: SelectStatement) -> list[tuple[str, Expression | AggregateCall]]:
    """The select list with '*' and 'alias.*' expanded to concrete columns."""
    expanded: list[tuple[str, Expression | AggregateCall]] = []
    for index, item in enumerate(statement.items):
        if item.is_star:
            expanded.extend(star_columns(database, statement, item.star_qualifier))
        else:
            expanded.append((item.output_name(index), item.expression))
    return expanded


def collect_aggregates(expression: Expression | None) -> list[AggregateCall]:
    """Every aggregate call embedded in *expression*, in walk order."""
    if expression is None:
        return []
    found: list[AggregateCall] = []

    def walk(node: Expression) -> None:
        if isinstance(node, AggregateExpr):
            found.append(node.call)
            return
        for attribute in ("operands", "operand", "left", "right", "arguments", "values"):
            child = getattr(node, attribute, None)
            if isinstance(child, Expression):
                walk(child)
            elif isinstance(child, tuple):
                for element in child:
                    if isinstance(element, Expression):
                        walk(element)

    walk(expression)
    return found


def sum_values(function: str, values: Any) -> Any:
    """``sum(values)`` for SUM/AVG, raising a typed error on non-numbers.

    Shared by the row and code paths, so ``SUM`` over a string column
    fails the same way on both.
    """
    try:
        return sum(values)
    except TypeError as exc:
        raise SQLExecutionError(
            f"{function.upper()} needs numeric values: {exc}") from exc


def rewrite_aggregates(expression: Expression,
                       aggregate_values: dict[AggregateCall, Any]) -> Expression:
    """Replace embedded aggregate calls with their computed values."""
    from repro.relational.expressions import (
        Comparison as Cmp, FunctionCall, IsNull, Like, Not, Or,
    )

    if isinstance(expression, AggregateExpr):
        return Literal(aggregate_values[expression.call])
    if isinstance(expression, And):
        return And(tuple(rewrite_aggregates(op, aggregate_values)
                         for op in expression.operands))
    if isinstance(expression, Or):
        return Or(tuple(rewrite_aggregates(op, aggregate_values)
                        for op in expression.operands))
    if isinstance(expression, Not):
        return Not(rewrite_aggregates(expression.operand, aggregate_values))
    if isinstance(expression, Cmp):
        return Cmp(expression.operator,
                   rewrite_aggregates(expression.left, aggregate_values),
                   rewrite_aggregates(expression.right, aggregate_values))
    if isinstance(expression, Arithmetic):
        return Arithmetic(expression.operator,
                          rewrite_aggregates(expression.left, aggregate_values),
                          rewrite_aggregates(expression.right, aggregate_values))
    if isinstance(expression, IsNull):
        return IsNull(rewrite_aggregates(expression.operand, aggregate_values),
                      negated=expression.negated)
    if isinstance(expression, Like):
        return Like(rewrite_aggregates(expression.operand, aggregate_values),
                    expression.pattern, negated=expression.negated)
    if isinstance(expression, InList):
        return InList(rewrite_aggregates(expression.operand, aggregate_values),
                      tuple(rewrite_aggregates(v, aggregate_values)
                            for v in expression.values),
                      negated=expression.negated)
    if isinstance(expression, FunctionCall):
        return FunctionCall(expression.name,
                            tuple(rewrite_aggregates(a, aggregate_values)
                                  for a in expression.arguments))
    return expression


# -- WHERE conjunct compilation ----------------------------------------------


def _resolved_position(ref: ColumnRef, table: TableRef, single_table: bool,
                       relation: "Relation") -> int | None:
    """*ref*'s schema position when it names a column of *table*, else ``None``."""
    if ref.qualifier is not None:
        if ref.qualifier.lower() != table.binding_name.lower():
            return None
    elif not single_table:
        return None  # ambiguous without a qualifier; leave to evaluation
    try:
        return relation.schema.position(ref.name)
    except SchemaError:
        return None  # unknown column: the residual path raises the error


def _literal_value(expression: Expression) -> Any:
    """The constant value of *expression*, or :data:`_MISSING`.

    Folds the parser's unary-minus shape (``Arithmetic('-', 0, number)``)
    so ``WHERE v > -1`` compiles like ``WHERE v > 1`` does.
    """
    if isinstance(expression, Literal):
        return expression.value
    if (isinstance(expression, Arithmetic) and expression.operator == "-"
            and isinstance(expression.left, Literal) and expression.left.value == 0
            and isinstance(expression.right, Literal)
            and isinstance(expression.right.value, (int, float))
            and not isinstance(expression.right.value, bool)):
        return -expression.right.value
    return _MISSING


def _as_string_constants(conjunct: Expression, table: TableRef, single_table: bool,
                         relation: "Relation") -> tuple[int, list[str], bool] | None:
    """``(position, string literals, negated)`` of an equality push-down."""
    if isinstance(conjunct, Comparison) and conjunct.operator in ("=", "!=", "<>"):
        for ref, literal in ((conjunct.left, conjunct.right),
                             (conjunct.right, conjunct.left)):
            if isinstance(ref, ColumnRef) and isinstance(literal, Literal):
                break
        else:
            return None
        if not isinstance(literal.value, str):
            return None
        position = _resolved_position(ref, table, single_table, relation)
        if position is None:
            return None
        if relation.schema.attributes[position].type is not AttributeType.STRING:
            return None  # '=' must keep SQL numeric semantics (1 == 1.0)
        return position, [literal.value], conjunct.operator != "="
    if isinstance(conjunct, InList):
        ref = conjunct.operand
        if not isinstance(ref, ColumnRef):
            return None
        if not all(isinstance(value, Literal) and isinstance(value.value, str)
                   for value in conjunct.values):
            return None  # non-string or non-literal members: residual evaluation
        position = _resolved_position(ref, table, single_table, relation)
        if position is None:
            return None
        if relation.schema.attributes[position].type is not AttributeType.STRING:
            return None
        return position, [value.value for value in conjunct.values], conjunct.negated
    return None


def _as_comparison(conjunct: Expression, table: TableRef, single_table: bool,
                   relation: "Relation") -> tuple[int, str, Any] | None:
    """``(position, operator, literal)`` of a column-vs-literal comparison.

    Any column type qualifies: ranges are evaluated in the ``sort_key``
    total order the column's dictionary-order view bisects, ``=`` / ``<>``
    by the row path's own comparison over the dictionary.
    """
    if not isinstance(conjunct, Comparison) or conjunct.operator not in _FLIPPED:
        return None
    for ref, literal, operator in ((conjunct.left, conjunct.right, conjunct.operator),
                                   (conjunct.right, conjunct.left,
                                    _FLIPPED[conjunct.operator])):
        if isinstance(ref, ColumnRef):
            bound = _literal_value(literal)
            if bound is _MISSING:
                return None
            position = _resolved_position(ref, table, single_table, relation)
            if position is None:
                return None
            return position, operator, bound
    return None


def compile_filter(relation: "Relation", table: TableRef, conjunct: Expression,
                   single_table: bool) -> tuple[int, set[int]] | None:
    """Compile one WHERE conjunct to a ``(position, allowed codes)`` filter.

    Compiles ``=`` / ``<>`` / ``IN`` / ranges against literals,
    ``IS [NOT] NULL``, and an ``OR`` whose operands all compile on the
    same column (the union of their code sets: a row passes an OR exactly
    when it passes one operand).  Returns ``None`` when the conjunct must
    stay on the residual (expression-valued) path.  Results — rows *and*
    their order — are identical either way; only execution changes.
    """
    store = relation.columns
    equality = _as_string_constants(conjunct, table, single_table, relation)
    if equality is not None:
        position, constants, negated = equality
        return position, equality_code_set(store.column_at(position), constants, negated)
    comparison = _as_comparison(conjunct, table, single_table, relation)
    if comparison is not None:
        position, operator, bound = comparison
        column = store.column_at(position)
        if operator in RANGE_OPERATORS:
            return position, range_code_set(column, operator, bound)
        return position, comparison_code_set(column, operator, bound)
    if isinstance(conjunct, IsNull) and isinstance(conjunct.operand, ColumnRef):
        position = _resolved_position(conjunct.operand, table, single_table, relation)
        if position is None:
            return None
        return position, null_code_set(store.column_at(position), conjunct.negated)
    if isinstance(conjunct, Or):
        union: set[int] = set()
        positions: set[int] = set()
        for operand in conjunct.operands:
            compiled = compile_filter(relation, table, operand, single_table)
            if compiled is None:
                return None
            positions.add(compiled[0])
            union |= compiled[1]
        if len(positions) != 1:
            return None  # an OR across columns is no single-column code set
        return positions.pop(), union
    return None


# -- plan compilation ---------------------------------------------------------


class CodePlan:
    """A compiled code-native plan for one single-table SELECT."""

    __slots__ = ("relation", "table", "filters", "grouped", "group_positions",
                 "agg_calls", "agg_specs", "items", "names", "having",
                 "order_ranks", "limit")

    def __init__(self, relation: "Relation", table: TableRef) -> None:
        self.relation = relation
        self.table = table
        #: ``(schema position, allowed codes)`` per WHERE conjunct.
        self.filters: list[tuple[int, set[int]]] = []
        #: whether the grouped (aggregate) pipeline runs.
        self.grouped = False
        #: GROUP BY schema positions (empty = one global group).
        self.group_positions: tuple[int, ...] = ()
        #: unique aggregate calls (lookup key for HAVING/item rewriting).
        self.agg_calls: list[AggregateCall] = []
        #: worker specs aligned with ``agg_calls`` (see ``sql_scan``).
        self.agg_specs: list[tuple] = []
        #: output layout: ("col", position) | ("agg", index) | ("expr", Expression).
        self.items: list[tuple[str, Any]] = []
        self.names: list[str] = []
        self.having: Expression | None = None
        #: plain-scan ORDER BY as (position, descending) rank sorts, or None.
        self.order_ranks: list[tuple[int, bool]] | None = None
        #: LIMIT of a plain ordered scan — enables top-k rank selection.
        self.limit: int | None = None


def _register_aggregate(plan: CodePlan, registry: dict[AggregateCall, int],
                        call: AggregateCall, table: TableRef,
                        relation: "Relation") -> int | None:
    index = registry.get(call)
    if index is not None:
        return index
    spec = _aggregate_spec(call, table, relation)
    if spec is None:
        return None
    index = len(plan.agg_calls)
    registry[call] = index
    plan.agg_calls.append(call)
    plan.agg_specs.append(spec)
    return index


def _aggregate_spec(call: AggregateCall, table: TableRef,
                    relation: "Relation") -> tuple | None:
    if call.function not in AGGREGATE_FUNCTIONS:
        return None
    if call.argument is None:
        # COUNT(*) — and, like the row path, any aggregate over '*'.
        return ("count_star",)
    if not isinstance(call.argument, ColumnRef):
        return None  # aggregates over expressions: row path
    position = _resolved_position(call.argument, table, True, relation)
    if position is None:
        return None
    if call.function == "count":
        return ("count_distinct", position) if call.distinct else ("count", position)
    if call.function in ("sum", "avg"):
        return (call.function, position, call.distinct)
    return (call.function, position)  # min | max


def _note(reasons: list[str] | None, message: str) -> None:
    """Record a fallback reason for EXPLAIN, then signal fallback (None)."""
    if reasons is not None:
        reasons.append(message)
    return None


def compile_plan(database: "Database", statement: SelectStatement,
                 reasons: list[str] | None = None) -> CodePlan | None:
    """Compile *statement* to a :class:`CodePlan`, or ``None`` to fall back.

    When *reasons* is a list, every fallback appends a human-readable
    explanation of why the code-native plan could not be used — the raw
    material of ``EXPLAIN``.  Passing ``None`` (the default) keeps the hot
    path allocation-free.
    """
    if statement.joins or len(statement.tables) != 1:
        return _note(reasons, "query reads more than one table")
    table = statement.tables[0]
    try:
        relation = database.relation(table.relation_name)
    except ReproError:
        # unknown relation: the row path raises the canonical error
        return _note(reasons, f"unknown relation {table.relation_name!r}")

    plan = CodePlan(relation, table)
    for conjunct in flatten_conjuncts(statement.where):
        compiled = compile_filter(relation, table, conjunct, single_table=True)
        if compiled is None:
            columns = sorted({ref.name.lower() for ref in _column_refs(conjunct)})
            detail = (f" (OR across columns {', '.join(columns)})"
                      if isinstance(conjunct, Or) and len(columns) > 1 else "")
            return _note(reasons,
                         f"WHERE conjunct {conjunct} is not a code-set test{detail}")
        plan.filters.append(compiled)

    try:
        items = expanded_items(database, statement)
    except SQLExecutionError:
        # e.g. a bad 'alias.*': the row path raises identically
        return _note(reasons, "select items do not expand cleanly")
    plan.names = [name for name, _ in items]

    if statement.has_aggregates():
        plan.grouped = True
        positions: list[int] = []
        for expression in statement.group_by:
            if not isinstance(expression, ColumnRef):
                return _note(reasons, "GROUP BY on an expression")
            position = _resolved_position(expression, table, True, relation)
            if position is None:
                return _note(reasons,
                             f"GROUP BY column {expression} does not resolve")
            positions.append(position)
        plan.group_positions = tuple(positions)

        registry: dict[AggregateCall, int] = {}
        for _, expression in items:
            if isinstance(expression, AggregateCall):
                index = _register_aggregate(plan, registry, expression, table, relation)
                if index is None:
                    return _note(reasons,
                                 f"aggregate {expression} has no code-level spec")
                plan.items.append(("agg", index))
            else:
                for call in collect_aggregates(expression):
                    if _register_aggregate(plan, registry, call, table, relation) is None:
                        return _note(reasons,
                                     f"aggregate {call} has no code-level spec")
                plan.items.append(("expr", expression))
        plan.having = statement.having
        for call in collect_aggregates(statement.having):
            if _register_aggregate(plan, registry, call, table, relation) is None:
                return _note(reasons,
                             f"HAVING aggregate {call} has no code-level spec")
        return plan

    for _, expression in items:
        position = _resolved_position(expression, table, True, relation) \
            if isinstance(expression, ColumnRef) else None
        if position is None:
            return _note(reasons, f"select item {expression} is computed")
        plan.items.append(("col", position))
    plan.order_ranks = _order_ranks(plan, statement)
    plan.limit = statement.limit
    return plan


def _order_ranks(plan: CodePlan, statement: SelectStatement) -> list[tuple[int, bool]] | None:
    """ORDER BY as rank sorts over source columns, when every key allows it.

    Mirrors the row path's name resolution: an ORDER BY key rides the
    dictionary-order index only when it is an unqualified column reference
    naming an output column (last occurrence wins, like the row path's
    name map).  DISTINCT forces the shared value-level path — dedup runs
    before ordering there.
    """
    if not statement.order_by or statement.distinct:
        return None
    name_positions = {name.lower(): index for index, name in enumerate(plan.names)}
    ranks: list[tuple[int, bool]] = []
    for order_item in statement.order_by:
        expression = order_item.expression
        if not isinstance(expression, ColumnRef) or expression.qualifier is not None:
            return None
        output_index = name_positions.get(expression.name.lower())
        if output_index is None:
            return None
        _, position = plan.items[output_index]
        ranks.append((position, order_item.descending))
    return ranks


# -- join plan compilation ----------------------------------------------------
#
# Two-table INNER JOINs compile to integer hash joins on bridged codes:
# build a code-keyed bucket table on one side, translate the other side's
# codes through a :class:`~repro.relational.columns.DictionaryBridge`, and
# probe.  The joined result stays paired tid arrays end to end — WHERE
# push-down, GROUP BY and aggregates all run on the two relations' code
# arrays, and values decode only into the output rows.


class JoinPlan:
    """A compiled code-native plan for one two-table INNER JOIN SELECT.

    ``side`` is 0 for the first (left) table in FROM order and 1 for the
    second; every resolved column is a ``(side, position)`` pair.  The
    row path's name-resolution rules are baked in at compile time: an
    unqualified reference binds to the left table first and is never
    shadowed by the right one.
    """

    __slots__ = ("relations", "tables", "key_pairs", "filters", "grouped",
                 "group_keys", "agg_calls", "agg_specs", "items", "names",
                 "having", "order_ranks")

    def __init__(self, relations: tuple, tables: tuple) -> None:
        self.relations = relations  # (left Relation, right Relation)
        self.tables = tables        # (left TableRef, right TableRef)
        #: equi-join keys as ``(left position, right position)`` pairs.
        self.key_pairs: list[tuple[int, int]] = []
        #: per-side WHERE push-down: ``(position, allowed codes)`` lists.
        self.filters: tuple[list, list] = ([], [])
        self.grouped = False
        #: GROUP BY keys as ``(side, position)`` pairs (empty = one group).
        self.group_keys: tuple[tuple[int, int], ...] = ()
        self.agg_calls: list[AggregateCall] = []
        #: worker specs aligned with ``agg_calls`` (kinds carry the side).
        self.agg_specs: list[tuple] = []
        #: output layout: ("col", side, position) | ("agg", i) | ("expr", e).
        self.items: list[tuple] = []
        self.names: list[str] = []
        self.having: Expression | None = None
        #: plain-scan ORDER BY as (side, position, descending), or None.
        self.order_ranks: list[tuple[int, int, bool]] | None = None


def _join_position(ref: ColumnRef, sides: tuple) -> tuple[int, int] | None:
    """``(side, schema position)`` of *ref* under the row path's binding rules.

    A qualified reference resolves only against the matching binding name;
    an unqualified one binds to the left table first (the row path sets
    the left table's unqualified names first and never lets the right
    table shadow them).  Unknown columns resolve to ``None`` — the caller
    falls back and the row path raises (or NULL-evaluates) identically.
    """
    if ref.qualifier is not None:
        qualifier = ref.qualifier.lower()
        for side, (table, relation) in enumerate(sides):
            if qualifier == table.binding_name.lower():
                try:
                    return side, relation.schema.position(ref.name)
                except SchemaError:
                    return None
        return None
    for side, (_, relation) in enumerate(sides):
        try:
            return side, relation.schema.position(ref.name)
        except SchemaError:
            continue
    return None


def _column_refs(expression: Expression) -> list[ColumnRef]:
    """Every column reference embedded in *expression*, in walk order."""
    found: list[ColumnRef] = []

    def walk(node: Expression) -> None:
        if isinstance(node, ColumnRef):
            found.append(node)
            return
        for attribute in ("operands", "operand", "left", "right", "arguments", "values"):
            child = getattr(node, attribute, None)
            if isinstance(child, Expression):
                walk(child)
            elif isinstance(child, tuple):
                for element in child:
                    if isinstance(element, Expression):
                        walk(element)

    walk(expression)
    return found


def _as_join_key(conjunct: Expression, sides: tuple) -> tuple[int, int] | None:
    """``(left position, right position)`` of a hash-joinable equality.

    Mirrors the row planner's ``_as_equi_pair``: only a ``=`` between two
    *qualified* column references, one per side, becomes a join key.
    """
    if not isinstance(conjunct, Comparison) or conjunct.operator != "=":
        return None
    left, right = conjunct.left, conjunct.right
    if not isinstance(left, ColumnRef) or not isinstance(right, ColumnRef):
        return None
    if left.qualifier is None or right.qualifier is None:
        return None
    a = _join_position(left, sides)
    b = _join_position(right, sides)
    if a is None or b is None or a[0] == b[0]:
        return None
    if a[0] != 0:
        a, b = b, a
    return a[1], b[1]


def _compile_join_filter(conjunct: Expression,
                         sides: tuple) -> tuple[int, int, set[int]] | None:
    """Compile a single-side conjunct to ``(side, position, allowed codes)``.

    The owning side is fixed by name resolution *before* compilation (an
    unqualified name present in both tables belongs to the left one), so
    a conjunct that fails to compile on its owner never silently filters
    the other side.
    """
    refs = _column_refs(conjunct)
    if not refs:
        return None
    owner_sides: set[int] = set()
    for ref in refs:
        resolved = _join_position(ref, sides)
        if resolved is None:
            return None
        owner_sides.add(resolved[0])
    if len(owner_sides) != 1:
        return None
    side = owner_sides.pop()
    table, relation = sides[side]
    compiled = compile_filter(relation, table, conjunct, single_table=True)
    if compiled is None:
        return None
    position, codes = compiled
    return side, position, codes


def _join_aggregate_spec(call: AggregateCall, sides: tuple) -> tuple | None:
    if call.function not in AGGREGATE_FUNCTIONS:
        return None
    if call.argument is None:
        return ("count_star",)
    if not isinstance(call.argument, ColumnRef):
        return None
    resolved = _join_position(call.argument, sides)
    if resolved is None:
        return None
    side, position = resolved
    if call.function == "count":
        return ("count_distinct", side, position) if call.distinct \
            else ("count", side, position)
    if call.function in ("sum", "avg"):
        return (call.function, side, position, call.distinct)
    return (call.function, side, position)  # min | max


def _register_join_aggregate(plan: JoinPlan, registry: dict[AggregateCall, int],
                             call: AggregateCall, sides: tuple) -> int | None:
    index = registry.get(call)
    if index is not None:
        return index
    spec = _join_aggregate_spec(call, sides)
    if spec is None:
        return None
    index = len(plan.agg_calls)
    registry[call] = index
    plan.agg_calls.append(call)
    plan.agg_specs.append(spec)
    return index


def compile_join_plan(database: "Database", statement: SelectStatement,
                      reasons: list[str] | None = None) -> JoinPlan | None:
    """Compile a two-table INNER JOIN to a :class:`JoinPlan`, or ``None``.

    Requirements mirror what the hash join can express exactly: exactly
    two tables (``FROM a, b`` or an explicit inner ``JOIN ... ON``) with
    distinct binding names, at least one both-qualified equi conjunct, and
    every remaining conjunct compiling to a single-side code-set filter.
    Anything else — cross products, residual predicates, expression-valued
    items or group keys — falls back to the row path, which produces
    byte-identical results.  When *reasons* is a list, every fallback
    appends an explanation for ``EXPLAIN``.
    """
    tables = list(statement.tables) + [join.table for join in statement.joins]
    if len(tables) != 2:
        return _note(reasons, "query does not read exactly two tables")
    if any(join.kind != "inner" for join in statement.joins):
        return _note(reasons, "only INNER joins compile to hash joins")
    if tables[0].binding_name.lower() == tables[1].binding_name.lower():
        # ambiguous bindings: leave to the row path
        return _note(reasons, "the two tables share one binding name")
    try:
        relations = tuple(database.relation(table.relation_name) for table in tables)
    except ReproError:
        # unknown relation: the row path raises the canonical error
        return _note(reasons, "unknown relation in FROM")
    sides = tuple(zip(tables, relations))
    plan = JoinPlan(relations, tuple(tables))

    conjuncts = flatten_conjuncts(statement.where)
    for join in statement.joins:
        conjuncts.extend(flatten_conjuncts(join.condition))
    for conjunct in conjuncts:
        key = _as_join_key(conjunct, sides)
        if key is not None:
            plan.key_pairs.append(key)
            continue
        compiled = _compile_join_filter(conjunct, sides)
        if compiled is None:
            return _note(reasons,
                         f"conjunct {conjunct} is neither an equi key "
                         "nor a single-side code-set test")
        side, position, codes = compiled
        plan.filters[side].append((position, codes))
    if not plan.key_pairs:
        # the row path nested-loops this
        return _note(reasons, "no equi-join key between the two tables")

    try:
        items = expanded_items(database, statement)
    except SQLExecutionError:
        # e.g. a bad 'alias.*': the row path raises identically
        return _note(reasons, "select items do not expand cleanly")
    plan.names = [name for name, _ in items]

    if statement.has_aggregates():
        plan.grouped = True
        keys: list[tuple[int, int]] = []
        for expression in statement.group_by:
            if not isinstance(expression, ColumnRef):
                return _note(reasons, "GROUP BY on an expression")
            resolved = _join_position(expression, sides)
            if resolved is None:
                return _note(reasons,
                             f"GROUP BY column {expression} does not resolve")
            keys.append(resolved)
        plan.group_keys = tuple(keys)

        registry: dict[AggregateCall, int] = {}
        for _, expression in items:
            if isinstance(expression, AggregateCall):
                index = _register_join_aggregate(plan, registry, expression, sides)
                if index is None:
                    return _note(reasons,
                                 f"aggregate {expression} has no code-level spec")
                plan.items.append(("agg", index))
            else:
                for call in collect_aggregates(expression):
                    if _register_join_aggregate(plan, registry, call, sides) is None:
                        return _note(reasons,
                                     f"aggregate {call} has no code-level spec")
                plan.items.append(("expr", expression))
        plan.having = statement.having
        for call in collect_aggregates(statement.having):
            if _register_join_aggregate(plan, registry, call, sides) is None:
                return _note(reasons,
                             f"HAVING aggregate {call} has no code-level spec")
        return plan

    for _, expression in items:
        resolved = _join_position(expression, sides) \
            if isinstance(expression, ColumnRef) else None
        if resolved is None:
            return _note(reasons, f"select item {expression} is computed")
        plan.items.append(("col",) + resolved)
    plan.order_ranks = _join_order_ranks(plan, statement)
    return plan


def _join_order_ranks(plan: JoinPlan,
                      statement: SelectStatement) -> list[tuple[int, int, bool]] | None:
    """ORDER BY as rank sorts over joined pairs (see :func:`_order_ranks`)."""
    if not statement.order_by or statement.distinct:
        return None
    name_positions = {name.lower(): index for index, name in enumerate(plan.names)}
    ranks: list[tuple[int, int, bool]] = []
    for order_item in statement.order_by:
        expression = order_item.expression
        if not isinstance(expression, ColumnRef) or expression.qualifier is not None:
            return None
        output_index = name_positions.get(expression.name.lower())
        if output_index is None:
            return None
        _, side, position = plan.items[output_index]
        ranks.append((side, position, order_item.descending))
    return ranks


# -- execution-side helpers ---------------------------------------------------


def query_payload(plan: CodePlan) -> dict[str, Any]:
    """The picklable per-query half of the ``sql_scan`` worker contract.

    The broadcast state carries the relation's code arrays (shipped once
    per relation version); everything query-specific — filters, group
    positions, aggregate specs with the dictionary-order ranks MIN/MAX
    compare — rides in each task payload.
    """
    store = plan.relation.columns
    aggs: list[tuple] = []
    for spec in plan.agg_specs:
        if spec[0] in ("min", "max"):
            ranks = store.column_at(spec[1]).order().ranks
            aggs.append((spec[0], spec[1], ranks))
        else:
            aggs.append(spec)
    return {
        "filters": plan.filters,
        "group": plan.group_positions if plan.grouped else None,
        "aggs": aggs,
    }


def empty_aggregate_state(spec: tuple) -> Any:
    """The partial-aggregate state of a group no tuple reached."""
    from repro.engine.worker import initial_aggregate_state

    return initial_aggregate_state(spec[0])


def finalize_aggregate(spec: tuple, state: Any, relation: "Relation") -> Any:
    """Turn one merged partial-aggregate state into the SQL result value."""
    kind = spec[0]
    if kind in ("count_star", "count"):
        return state
    if kind == "count_distinct":
        return len(state)
    column = relation.columns.column_at(spec[1])
    if kind in ("sum", "avg"):
        codes = state
        if spec[2]:  # DISTINCT: first-occurrence dedup, like the row path
            seen: set[int] = set()
            codes = [code for code in codes if not (code in seen or seen.add(code))]
        if not codes:
            return NULL
        values = column.values
        total = sum_values(kind, (values[code] for code in codes))
        return total if kind == "sum" else total / len(codes)
    if state is None:  # min | max over an empty / all-NULL group
        return NULL
    return column.values[state[1]]


def build_join_buckets(plan: JoinPlan, build_side: int) -> dict[Any, list[int]]:
    """The build side's code-keyed hash buckets, in scan order.

    Push-down filters of the build side apply here — before the buckets
    exist, so filtered-out tuples are never probed.  NULL join keys never
    match (SQL semantics, mirrored from the row planner's hash join), so
    tuples carrying one are skipped.  Keys are a bare code for one join
    pair and a code tuple otherwise; each bucket's tids are ascending
    (scan order), which is what keeps the probe output left-major.
    """
    from repro.engine.worker import filter_tids

    relation = plan.relations[build_side]
    arrays = relation.columns.code_arrays(range(relation.schema.arity))
    key_arrays = [arrays[pair[build_side]] for pair in plan.key_pairs]
    single = len(key_arrays) == 1
    buckets: dict[Any, list[int]] = {}
    for tid in filter_tids(arrays, plan.filters[build_side], relation.tids()):
        if single:
            key: Any = key_arrays[0][tid]
            if key == NULL_CODE:
                continue
        else:
            key_codes = [codes[tid] for codes in key_arrays]
            if NULL_CODE in key_codes:
                continue
            key = tuple(key_codes)
        bucket = buckets.get(key)
        if bucket is None:
            buckets[key] = [tid]
        else:
            bucket.append(tid)
    return buckets


def join_query_payload(plan: JoinPlan, probe_side: int,
                       buckets: dict[Any, list[int]]) -> dict[str, Any]:
    """The picklable per-query half of the ``join_probe`` worker contract.

    The broadcast state carries both relations' code arrays (shipped once
    per version pair); everything query-specific — probe-side filters, the
    probe→build bridge translations, the build-side buckets, group keys
    and aggregate specs — rides in each task payload.  The translations
    are the live arrays of value-mode
    :class:`~repro.relational.columns.DictionaryBridge`\\ s, revalidated
    here on every query, so a dictionary grown on *either* side since the
    last join is re-bridged before any probe runs.
    """
    build_side = 1 - probe_side
    probe_store = plan.relations[probe_side].columns
    build_store = plan.relations[build_side].columns
    keys = []
    for pair in plan.key_pairs:
        probe_column = probe_store.column_at(pair[probe_side])
        build_column = build_store.column_at(pair[build_side])
        keys.append((pair[probe_side],
                     probe_column.bridge_to(build_column).translation))
    aggs: list[tuple] = []
    for spec in plan.agg_specs:
        if spec[0] in ("min", "max"):
            ranks = plan.relations[spec[1]].columns.column_at(spec[2]).order().ranks
            aggs.append((spec[0], spec[1], spec[2], ranks))
        else:
            aggs.append(spec)
    return {
        "probe_side": probe_side,
        "filters": plan.filters[probe_side],
        "keys": keys,
        "buckets": buckets,
        "group": plan.group_keys if plan.grouped else None,
        "aggs": aggs,
    }


def finalize_join_aggregate(spec: tuple, state: Any, relations: tuple) -> Any:
    """Finalize one merged join-aggregate state (specs carry the side)."""
    if spec[0] == "count_star":
        return state
    return finalize_aggregate((spec[0], spec[2]) + tuple(spec[3:]), state,
                              relations[spec[1]])


# -- multiway (3+ table) join plan compilation --------------------------------
#
# Statements joining three or more tables compile to a worst-case-optimal
# (generic/leapfrog) join instead of a cascade of binary hash joins: the
# equi-join graph is resolved into *join variables* (connected components
# of equated columns), every member column is translated into the
# variable's representative dictionary via (possibly composed) bridges,
# and evaluation binds one variable at a time — sorted-intersecting the
# codes present in each participating table, then descending per
# candidate.  The variable order is chosen greedily by estimated
# selectivity (smallest distinct count first) and tightened by functional
# dependencies: a variable functionally determined by already-bound
# attributes binds (nearly) for free, so it is pulled forward, following
# "Computing Join Queries with Functional Dependencies" (Abo Khamis, Ngo
# & Suciu).


class MultiJoinPlan:
    """A compiled code-native plan for an N-table (3+) INNER JOIN SELECT.

    Every resolved column is a ``(side, position)`` pair with ``side`` the
    table's FROM-order index; the row path's name-resolution rules are
    baked in at compile time exactly as in :class:`JoinPlan`.  ``var_order``
    is the chosen variable order: per level the member columns (ascending
    ``(side, position)``, the first member owning the representative
    dictionary), whether the variable is FD-implied by earlier levels, and
    the selectivity estimate that drove the greedy choice.
    """

    __slots__ = ("relations", "tables", "var_order", "filters", "grouped",
                 "group_keys", "agg_calls", "agg_specs", "items", "names",
                 "having", "order_ranks")

    def __init__(self, relations: tuple, tables: tuple) -> None:
        self.relations = relations
        self.tables = tables
        #: ordered join variables: (members, fd_implied, distinct estimate).
        self.var_order: list[tuple[tuple[tuple[int, int], ...], bool, int]] = []
        #: per-side WHERE push-down: ``(position, allowed codes)`` lists.
        self.filters: tuple[list, ...] = ()
        self.grouped = False
        self.group_keys: tuple[tuple[int, int], ...] = ()
        self.agg_calls: list[AggregateCall] = []
        self.agg_specs: list[tuple] = []
        #: output layout: ("col", side, position) | ("agg", i) | ("expr", e).
        self.items: list[tuple] = []
        self.names: list[str] = []
        self.having: Expression | None = None
        #: plain ORDER BY as (side, position, descending) rank sorts, or None.
        self.order_ranks: list[tuple[int, int, bool]] | None = None


def _as_multi_equi(conjunct: Expression,
                   sides: tuple) -> tuple[tuple[int, int], tuple[int, int]] | None:
    """The two ``(side, position)`` ends of a cross-table equi conjunct.

    Same shape rule as :func:`_as_join_key` (a ``=`` between two qualified
    column references on distinct tables), generalised to N sides.
    """
    if not isinstance(conjunct, Comparison) or conjunct.operator != "=":
        return None
    left, right = conjunct.left, conjunct.right
    if not isinstance(left, ColumnRef) or not isinstance(right, ColumnRef):
        return None
    if left.qualifier is None or right.qualifier is None:
        return None
    a = _join_position(left, sides)
    b = _join_position(right, sides)
    if a is None or b is None or a[0] == b[0]:
        return None
    return a, b


def _join_variables(edges: list[tuple[tuple[int, int], tuple[int, int]]]
                    ) -> list[tuple[tuple[int, int], ...]]:
    """Connected components of equated columns, each a sorted member tuple.

    Transitivity is deliberate: ``a.x = b.y AND b.y = c.z`` makes one
    variable over three columns — and ``a.x = b.y AND b.y = a.w`` folds
    two columns of one table into the same variable, which the evaluation
    honours by requiring every member of a table to agree on the code.
    """
    parent: dict[tuple[int, int], tuple[int, int]] = {}

    def find(node: tuple[int, int]) -> tuple[int, int]:
        root = node
        while parent.setdefault(root, root) != root:
            root = parent[root]
        while parent[node] != root:
            parent[node], node = root, parent[node]
        return root

    for a, b in edges:
        parent[find(a)] = find(b)
    components: dict[tuple[int, int], list[tuple[int, int]]] = {}
    for node in parent:
        components.setdefault(find(node), []).append(node)
    return sorted(tuple(sorted(members)) for members in components.values())


def _ordered_variables(variables: list[tuple[tuple[int, int], ...]],
                       relations: tuple, fds: list | None
                       ) -> list[tuple[tuple[tuple[int, int], ...], bool, int]]:
    """Greedy variable order: FD-implied first, then smallest distinct count.

    The estimate of a variable is the smallest live distinct count among
    its member columns (the intersection can only be smaller).  A variable
    with a member inside the Armstrong closure of the attributes its table
    has already bound is functionally determined — at most one candidate
    survives per partial assignment — so it orders ahead of everything
    that still branches.  Ties keep the discovery order, which is
    deterministic (variables arrive sorted by member positions).
    """
    from repro.constraints.fd import closure

    side_fds: list[list] = [[] for _ in relations]
    for fd in fds or ():
        name = fd.relation_name.lower()
        for side, relation in enumerate(relations):
            if relation.name.lower() == name:
                side_fds[side].append(fd)

    def attribute(side: int, position: int) -> str:
        return relations[side].schema.attributes[position].name.lower()

    estimates = [min(relations[side].columns.column_at(position).distinct_count()
                     for side, position in members)
                 for members in variables]
    bound: list[set[str]] = [set() for _ in relations]
    remaining = list(range(len(variables)))
    ordered: list[tuple[tuple[tuple[int, int], ...], bool, int]] = []
    while remaining:
        best_key: tuple | None = None
        best_index = -1
        best_implied = False
        for index in remaining:
            implied = any(
                bound[side] and side_fds[side]
                and attribute(side, position) in closure(bound[side],
                                                         side_fds[side])
                for side, position in variables[index])
            key = (0 if implied else 1, estimates[index], index)
            if best_key is None or key < best_key:
                best_key, best_index, best_implied = key, index, implied
        ordered.append((variables[best_index], best_implied,
                        estimates[best_index]))
        remaining.remove(best_index)
        for side, position in variables[best_index]:
            bound[side].add(attribute(side, position))
    return ordered


def compile_multi_join_plan(database: "Database", statement: SelectStatement,
                            reasons: list[str] | None = None,
                            fds: list | None = None) -> MultiJoinPlan | None:
    """Compile a 3+-table INNER JOIN to a :class:`MultiJoinPlan`, or ``None``.

    Requirements generalise :func:`compile_join_plan`: three or more
    tables with pairwise-distinct binding names, inner joins only, every
    conjunct either a both-qualified cross-table equi key or a single-side
    code-set filter, and the equi-join graph connecting *all* tables (a
    disconnected graph means a cross product, which stays on the row
    path).  When *reasons* is a list, every fallback appends an
    explanation for ``EXPLAIN``.
    """
    tables = list(statement.tables) + [join.table for join in statement.joins]
    if len(tables) < 3:
        return _note(reasons, "query reads fewer than three tables")
    if any(join.kind != "inner" for join in statement.joins):
        return _note(reasons, "only INNER joins compile to multiway joins")
    bindings = [table.binding_name.lower() for table in tables]
    if len(set(bindings)) != len(bindings):
        return _note(reasons, "tables share a binding name")
    try:
        relations = tuple(database.relation(table.relation_name) for table in tables)
    except ReproError:
        # unknown relation: the row path raises the canonical error
        return _note(reasons, "unknown relation in FROM")
    sides = tuple(zip(tables, relations))
    plan = MultiJoinPlan(relations, tuple(tables))
    plan.filters = tuple([] for _ in tables)

    conjuncts = flatten_conjuncts(statement.where)
    for join in statement.joins:
        conjuncts.extend(flatten_conjuncts(join.condition))
    edges: list[tuple[tuple[int, int], tuple[int, int]]] = []
    for conjunct in conjuncts:
        edge = _as_multi_equi(conjunct, sides)
        if edge is not None:
            edges.append(edge)
            continue
        compiled = _compile_join_filter(conjunct, sides)
        if compiled is None:
            return _note(reasons,
                         f"conjunct {conjunct} is neither an equi key "
                         "nor a single-side code-set test")
        side, position, codes = compiled
        plan.filters[side].append((position, codes))
    if not edges:
        return _note(reasons, "no equi-join key between the tables")

    variables = _join_variables(edges)
    linked: dict[int, int] = {}

    def find_table(table_index: int) -> int:
        root = table_index
        while linked.setdefault(root, root) != root:
            root = linked[root]
        return root

    for members in variables:
        first = find_table(members[0][0])
        for side, _ in members[1:]:
            linked[find_table(side)] = first
    if len({find_table(side) for side in range(len(tables))}) != 1:
        return _note(reasons,
                     "equi keys do not connect all tables (cross product)")
    plan.var_order = _ordered_variables(variables, relations, fds)

    try:
        items = expanded_items(database, statement)
    except SQLExecutionError:
        # e.g. a bad 'alias.*': the row path raises identically
        return _note(reasons, "select items do not expand cleanly")
    plan.names = [name for name, _ in items]

    if statement.has_aggregates():
        plan.grouped = True
        keys: list[tuple[int, int]] = []
        for expression in statement.group_by:
            if not isinstance(expression, ColumnRef):
                return _note(reasons, "GROUP BY on an expression")
            resolved = _join_position(expression, sides)
            if resolved is None:
                return _note(reasons,
                             f"GROUP BY column {expression} does not resolve")
            keys.append(resolved)
        plan.group_keys = tuple(keys)

        registry: dict[AggregateCall, int] = {}
        for _, expression in items:
            if isinstance(expression, AggregateCall):
                index = _register_multi_aggregate(plan, registry, expression, sides)
                if index is None:
                    return _note(reasons,
                                 f"aggregate {expression} has no code-level spec")
                plan.items.append(("agg", index))
            else:
                for call in collect_aggregates(expression):
                    if _register_multi_aggregate(plan, registry, call, sides) is None:
                        return _note(reasons,
                                     f"aggregate {call} has no code-level spec")
                plan.items.append(("expr", expression))
        plan.having = statement.having
        for call in collect_aggregates(statement.having):
            if _register_multi_aggregate(plan, registry, call, sides) is None:
                return _note(reasons,
                             f"HAVING aggregate {call} has no code-level spec")
        return plan

    for _, expression in items:
        resolved = _join_position(expression, sides) \
            if isinstance(expression, ColumnRef) else None
        if resolved is None:
            return _note(reasons, f"select item {expression} is computed")
        plan.items.append(("col",) + resolved)
    plan.order_ranks = _join_order_ranks(plan, statement)
    return plan


def _register_multi_aggregate(plan: MultiJoinPlan,
                              registry: dict[AggregateCall, int],
                              call: AggregateCall, sides: tuple) -> int | None:
    index = registry.get(call)
    if index is not None:
        return index
    spec = _join_aggregate_spec(call, sides)  # side-tagged, N-side safe
    if spec is None:
        return None
    index = len(plan.agg_calls)
    registry[call] = index
    plan.agg_calls.append(call)
    plan.agg_specs.append(spec)
    return index


def multiway_base_tids(plan: MultiJoinPlan) -> list[list[int]]:
    """Per-table live tids surviving that table's push-down filters."""
    from repro.engine.worker import filter_tids

    return [filter_tids(relation.columns.code_arrays(range(relation.schema.arity)),
                        plan.filters[side], relation.tids())
            for side, relation in enumerate(plan.relations)]


def multiway_trie(arrays: list[list[int]], tids: list[int],
                  path: list[list[tuple[int, Any]]],
                  fold: tuple | None = None) -> tuple:
    """Index one table's *tids* as a trie over the join variables in *path*.

    ``path`` holds, per variable the table joins on (chosen variable
    order), its member ``(position, translation)`` pairs.  A tid is
    indexed only when, at every level, all its members agree on a
    shared-space code ``>= 1``: NULL (0) never equals anything and
    :data:`~repro.relational.columns.NO_PARTNER` (-1) marks values the
    variable's representative dictionary lacks, so both drop out here,
    exactly as NULL keys drop out of hash-join buckets.  Inner nodes are
    ``(ascending codes, code -> child)``.  A leaf holds its ascending tids
    or, given *fold* ``(group-key code arrays, fold steps, spec count)``,
    those tids folded into :func:`~repro.engine.worker.fold_part` parts by
    group-key codes, in first-occurrence order.

    Built once per query from one pass over *tids*; the workers only walk
    it, so no table is regrouped per join binding.
    """
    def shared(members: list[tuple[int, Any]]) -> list[int]:
        columns = []
        for position, translation in members:
            codes = arrays[position]
            columns.append([codes[tid] for tid in tids] if translation is None
                           else [translation[codes[tid]] for tid in tids])
        if len(columns) == 1:
            return columns[0]
        return [code if all(other == code for other in others) else NO_PARTNER
                for code, *others in zip(*columns)]

    root: dict[int, Any] = {}
    for tid, codes in zip(tids, zip(*[shared(members) for members in path])):
        if min(codes) < 1:
            continue
        node = root
        for code in codes[:-1]:
            child = node.get(code)
            if child is None:
                child = node[code] = {}
            node = child
        leaf = node.get(codes[-1])
        if leaf is None:
            node[codes[-1]] = [tid]
        else:
            leaf.append(tid)

    def freeze(node: dict[int, Any], depth: int) -> tuple:
        if depth > 1:
            children = {code: freeze(child, depth - 1)
                        for code, child in node.items()}
        elif fold is not None:
            children = {code: fold_parts(leaf, *fold)
                        for code, leaf in node.items()}
        else:
            children = node
        return sorted(children), children

    return freeze(root, len(path))


def multiway_query_payload(plan: MultiJoinPlan, aggs: list[tuple] | None = None
                           ) -> tuple[dict[str, Any], list[int]]:
    """The picklable multiway query and the first-level candidates.

    ``levels`` lists, per join variable in the chosen order, the tables
    joining on it (ascending); ``tries`` holds one :func:`multiway_trie`
    per table over the variables it joins on — tid leaves for
    ``multiway_probe``, or, given the factorised *aggs*, leaves pre-folded
    by group-key codes for ``factorised_fold`` (``leaves`` counts them).

    Each member column's codes are translated into the variable's
    representative dictionary: the representative is the first member;
    later members bridge to the *previous* member's column and compose
    onward (:meth:`~repro.relational.columns.DictionaryBridge.compose`),
    so every hop is revalidated against its dictionaries'
    generation+size stamps on every query.  Chaining through intermediate
    dictionaries is join-safe: a value an intermediate member never saw
    has no live tuple there, so the intersection would drop it regardless.

    The tries are built here, parent side, once per query; the candidate
    list the engine chunks is the intersection of the first variable's
    trie roots.
    """
    from repro.engine.worker import fold_steps, gallop_intersect

    stores = [relation.columns for relation in plan.relations]
    arrays = [store.code_arrays(range(relation.schema.arity))
              for store, relation in zip(stores, plan.relations)]
    paths: list[list[list[tuple[int, Any]]]] = [[] for _ in arrays]
    levels: list[list[int]] = []
    for members, _, _ in plan.var_order:
        chain = None  # translation of the previous member into the rep space
        previous_column = None
        per_side: dict[int, list[tuple[int, Any]]] = {}
        for side, position in members:
            column = stores[side].column_at(position)
            if previous_column is None:
                translation = None
            else:
                hop = column.bridge_to(previous_column)
                chain = hop if chain is None else hop.compose(chain)
                translation = chain.translation
            per_side.setdefault(side, []).append((position, translation))
            previous_column = column
        for side, member_list in per_side.items():
            paths[side].append(member_list)
        levels.append(sorted(per_side))

    base = multiway_base_tids(plan)
    folds: list[tuple | None] = [None] * len(arrays)
    if aggs is not None:
        folds = [([arrays[side][position]
                   for key_side, position in plan.group_keys if key_side == side],
                  fold_steps(aggs, side, arrays[side]), len(aggs))
                 for side in range(len(arrays))]
    tries = [multiway_trie(arrays[side], base[side], paths[side], folds[side])
             for side in range(len(arrays))]
    query: dict[str, Any] = {"levels": levels, "tries": tries}
    if aggs is not None:
        query["leaves"] = sum(_leaf_count(trie, len(path))
                              for trie, path in zip(tries, paths))
    return query, gallop_intersect([tries[side][0] for side in levels[0]])


def _leaf_count(node: tuple, depth: int) -> int:
    """The number of leaves under one trie node *depth* levels deep."""
    if depth == 1:
        return len(node[0])
    return sum(_leaf_count(child, depth - 1) for child in node[1].values())


def fold_parts(tids: list[int], key_arrays: list[list[int]],
               steps: list[tuple], width: int) -> list[list]:
    """Ascending *tids* split by group-key codes (first-occurrence order),
    each split folded once into a :func:`~repro.engine.worker.fold_part`."""
    from repro.engine.worker import fold_part

    if not key_arrays:
        return [fold_part((), tids, steps, width)]
    splits: dict[tuple, list[int]] = {}
    for tid in tids:
        key = tuple([codes[tid] for codes in key_arrays])
        members = splits.get(key)
        if members is None:
            splits[key] = [tid]
        else:
            members.append(tid)
    return [fold_part(key, members, steps, width)
            for key, members in splits.items()]


def multiway_fold_payload(plan: MultiJoinPlan) -> dict[str, Any]:
    """The picklable ``multiway_fold`` query: group keys + side-tagged specs."""
    aggs: list[tuple] = []
    for spec in plan.agg_specs:
        if spec[0] in ("min", "max"):
            ranks = plan.relations[spec[1]].columns.column_at(spec[2]).order().ranks
            aggs.append((spec[0], spec[1], spec[2], ranks))
        else:
            aggs.append(spec)
    return {"group": plan.group_keys, "aggs": aggs}


# -- factorised (semiring) aggregate plans ------------------------------------
#
# A grouped join does not need the tuple product: COUNT / SUM / MIN / MAX
# are semiring folds, so per-table partial aggregates per join-variable
# binding combine by multiplication instead of enumeration (the FAQ
# decomposition over the FDB-style factorised representation the
# tid-group lists already are).  Each side folds once per join key: for
# the two-table hash join, build-side partials fold into the buckets
# before any probe runs and probe tids fold once per class of equal join
# key and probe-side group codes; for the multiway join, every trie leaf
# folds once per query and the worker only combines the folded parts.
# Results are byte-identical to the enumerated path:
#
# * COUNT(*) multiplies block sizes; COUNT(col) scales the per-block
#   non-NULL count by the co-block multiplicity (an exact integer).
# * COUNT(DISTINCT col) and DISTINCT SUM/AVG keep code *sets* —
#   multiplicity-free, so the product never matters.
# * MIN / MAX compare dense dictionary-order ranks; repetition cannot
#   change the best rank, and distinct codes have distinct ranks, so the
#   winning code is order-independent.
# * SUM / AVG fold as an exact (total, count) pair — but only over
#   INTEGER / BOOLEAN columns, where addition is associative bit for bit.
#   FLOAT arguments stay on the enumerated path (recorded as a why-not
#   reason): the factorised product cannot replay the row path's fold
#   order, and float addition is not associative.
# * The group representative (HAVING / expression items evaluate against
#   it) is the enumerated path's first tuple: for the hash join the
#   (class first tid, block first tid) pair of the first class in probe
#   order to meet the group, for the multiway
#   join the per-side minima merged by lexicographic min, with groups
#   re-sorted by representative to restore the ascending first-occurrence
#   order of the sorted enumeration.

#: module switch used by parity tests to force the enumerated reference.
FACTORISE = True

#: column types whose SUM/AVG folds are exact (order-free) integers.
_EXACT_FOLD_TYPES = (AttributeType.INTEGER, AttributeType.BOOLEAN)


class FactorisedPlan:
    """A grouped join plan evaluated by semiring folds, not enumeration."""

    __slots__ = ("plan", "kind")

    def __init__(self, plan: "JoinPlan | MultiJoinPlan", kind: str) -> None:
        self.plan = plan  #: the compiled enumerated plan (shape + specs).
        self.kind = kind  #: ``"join"`` (two tables) or ``"multiway"``.


def factorise_plan(plan: "JoinPlan | MultiJoinPlan",
                   reasons: list[str] | None = None) -> FactorisedPlan | None:
    """Wrap *plan* as a :class:`FactorisedPlan`, or ``None`` to enumerate.

    A plan factorises when it is grouped (plain scans must enumerate
    their output tuples) and every aggregate is semiring-foldable —
    which leaves exactly one gate: SUM / AVG over a non-integer column,
    whose float fold order only the enumerated path can preserve.  When
    *reasons* is a list, every fallback appends an explanation for
    ``EXPLAIN``'s ``why_not_factorised`` block.
    """
    if not FACTORISE:
        return _note(reasons, "factorised aggregates are disabled")
    if not plan.grouped:
        return _note(reasons,
                     "statement has no aggregates (plain scans enumerate tuples)")
    for call, spec in zip(plan.agg_calls, plan.agg_specs):
        if spec[0] in ("sum", "avg"):
            attribute = plan.relations[spec[1]].schema.attributes[spec[2]]
            if attribute.type not in _EXACT_FOLD_TYPES:
                return _note(
                    reasons,
                    f"aggregate {call} folds {attribute.type.value} values, "
                    "whose fold order the factorised product cannot preserve")
    kind = "join" if isinstance(plan, JoinPlan) else "multiway"
    return FactorisedPlan(plan, kind)


def factorised_aggregates(plan: "JoinPlan | MultiJoinPlan") -> list[tuple]:
    """The side-tagged semiring specs of the ``factorised_fold`` worker.

    * ``("count_star",)``
    * ``("count" | "count_distinct", side, position)``
    * ``("min" | "max", side, position, ranks)`` — dense dictionary ranks;
    * ``("sum" | "avg", side, position, distinct, values)`` — the decoded
      value list rides along for the exact ``[total, count]`` fold
      (``None`` when DISTINCT: the code set decodes at finalize).
    """
    aggs: list[tuple] = []
    for spec in plan.agg_specs:
        kind = spec[0]
        if kind in ("min", "max"):
            ranks = plan.relations[spec[1]].columns.column_at(spec[2]).order().ranks
            aggs.append((kind, spec[1], spec[2], ranks))
        elif kind in ("sum", "avg"):
            values = None if spec[3] else \
                plan.relations[spec[1]].columns.column_at(spec[2]).values
            aggs.append((kind, spec[1], spec[2], spec[3], values))
        else:  # count_star | count | count_distinct ride unchanged
            aggs.append(spec)
    return aggs


def build_factorised_buckets(plan: "JoinPlan",
                             aggs: list[tuple]) -> dict[Any, list[list]]:
    """Build-side hash buckets of pre-folded blocks.

    Same keying as :func:`build_join_buckets` (side 1 builds, push-down
    filters apply first, NULL join keys never match, bare code for one
    key pair), but each bucket holds *blocks* instead of raw tids: one
    :func:`~repro.engine.worker.fold_part` part per distinct build-side
    group-key projection, in first-occurrence (scan) order, with the
    build-side specs folded once.  A probe class then combines a whole
    block in O(specs), never O(size).
    """
    from repro.engine.worker import fold_steps

    relation = plan.relations[1]
    arrays = relation.columns.code_arrays(range(relation.schema.arity))
    part_arrays = [arrays[position]
                   for side, position in plan.group_keys if side == 1]
    steps = fold_steps(aggs, 1, arrays)
    return {key: fold_parts(tids, part_arrays, steps, len(aggs))
            for key, tids in build_join_buckets(plan, 1).items()}


def factorised_join_payload(plan: "JoinPlan", aggs: list[tuple],
                            buckets: dict[Any, list[list]]) -> dict[str, Any]:
    """The picklable ``factorised_fold`` query of a two-table hash join.

    Factorised probes always walk the left side (group first-occurrence
    order is left-major, like enumerated grouped probes); bridges are
    revalidated per query exactly as in :func:`join_query_payload`.
    """
    probe_store = plan.relations[0].columns
    build_store = plan.relations[1].columns
    keys = []
    for pair in plan.key_pairs:
        probe_column = probe_store.column_at(pair[0])
        build_column = build_store.column_at(pair[1])
        keys.append((pair[0], probe_column.bridge_to(build_column).translation))
    return {
        "kind": "join",
        "probe_side": 0,
        "filters": plan.filters[0],
        "keys": keys,
        "buckets": buckets,
        "group": plan.group_keys,
        "aggs": aggs,
    }


def factorised_multi_payload(plan: "MultiJoinPlan"
                             ) -> tuple[dict[str, Any], list[int]]:
    """The picklable ``factorised_fold`` query of a multiway join.

    Same levels and candidates as :func:`multiway_query_payload`'s probe
    query, but every trie leaf is pre-folded by its table's group-key
    codes, so the worker walks the tries and only combines parts.
    """
    aggs = factorised_aggregates(plan)
    query, candidates = multiway_query_payload(plan, aggs)
    query.update(kind="multi", group=plan.group_keys, aggs=aggs)
    return query, candidates


def empty_factorised_state(spec: tuple) -> Any:
    """The factorised partial state of a group no tuple reached."""
    from repro.engine.worker import initial_factorised_state

    return initial_factorised_state(spec)


def finalize_factorised(spec: tuple, state: Any, relations: tuple) -> Any:
    """Turn one merged factorised partial into the SQL result value.

    Mirrors :func:`finalize_join_aggregate` value for value: counts are
    ints, DISTINCT states are code sets (decoded here; integer sums are
    order-free, so set order never shows), SUM/AVG finalize the exact
    ``[total, count]`` pair (``count == 0`` — an empty or all-NULL group —
    is NULL, and ``total / count`` divides the same two ints the
    enumerated fold produces), MIN/MAX decode the best rank's code.
    """
    kind = spec[0]
    if kind in ("count_star", "count"):
        return state
    if kind == "count_distinct":
        return len(state)
    if kind in ("sum", "avg"):
        if spec[3]:  # DISTINCT: the code set decodes to exact integers
            if not state:
                return NULL
            values = relations[spec[1]].columns.column_at(spec[2]).values
            total = sum_values(kind, (values[code] for code in state))
            return total if kind == "sum" else total / len(state)
        total, count = state
        if not count:
            return NULL
        return total if kind == "sum" else total / count
    if state is None:  # min | max over an empty / all-NULL group
        return NULL
    return relations[spec[1]].columns.column_at(spec[2]).values[state[1]]
