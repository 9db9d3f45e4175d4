"""Executor for the SQL subset.

Execution takes one of two paths, selected per SELECT:

**Code-native path** (the default for single-table statements).  The
statement is compiled by :func:`repro.relational.sql.columnar.compile_plan`
into a scan → filter → group → aggregate pipeline over the relation's
dictionary code arrays: WHERE conjuncts become ``(position, allowed code
set)`` filters (string equality / ``IN`` and their negations, plus ``<``
``<=`` ``>`` ``>=`` and the desugared ``BETWEEN`` via the column's
dictionary-order view), GROUP BY keys are code tuples straight off the
arrays, and COUNT / COUNT(DISTINCT) / MIN / MAX / SUM / AVG are computed
on codes.  No ``_ExecRow`` binding dict is ever built — values decode
only into the output rows.  The scan runs in-process, or fans out across
:mod:`repro.engine` chunks (the ``sql_scan`` worker, stitched by
:class:`~repro.engine.sql.AggregateMerger`) when the executor was built
with a pool.

**Row path** (joins, multiple tables, residual predicates, computed
select items — and everything when ``use_columns=False``).  The FROM
clause is turned into a left-deep sequence of hash equi-joins where
possible and nested-loop filters otherwise (:class:`_FromPlanner`);
push-downable WHERE conjuncts still select tids by code membership before
any binding dict is built (unless ``use_columns=False``); the remaining
conjuncts, GROUP BY, aggregates and HAVING are evaluated row-at-a-time.

Both paths produce identical results — rows, order, names and inferred
types — which the randomized SQL parity suite pins down.  DISTINCT /
ORDER BY / LIMIT and result-relation construction are shared; the
code-native plain scan orders by dictionary ranks instead when every
ORDER BY key allows it.  The result of execution is an ordinary
:class:`~repro.relational.relation.Relation`, so query results compose
with the rest of the engine.
"""

from __future__ import annotations

import heapq
from collections import defaultdict
from typing import Any, Callable, Iterable

from repro import obs
from repro.errors import SQLExecutionError
from repro.relational.database import Database
from repro.relational.expressions import (
    ColumnRef,
    Comparison,
    EvaluationContext,
    Expression,
    truth,
)
from repro.relational.relation import Relation, Tuple
from repro.relational.schema import Attribute, RelationSchema
from repro.relational.sql.ast import (
    AggregateCall,
    SelectStatement,
    Statement,
    TableRef,
    UnionStatement,
)
from repro.relational.sql.columnar import (
    CodePlan,
    FactorisedPlan,
    JoinPlan,
    MultiJoinPlan,
    build_factorised_buckets,
    build_join_buckets,
    collect_aggregates,
    compile_filter,
    compile_join_plan,
    compile_multi_join_plan,
    compile_plan,
    empty_aggregate_state,
    empty_factorised_state,
    expanded_items,
    factorise_plan,
    factorised_aggregates,
    factorised_join_payload,
    factorised_multi_payload,
    finalize_aggregate,
    finalize_factorised,
    finalize_join_aggregate,
    flatten_conjuncts,
    join_query_payload,
    multiway_fold_payload,
    multiway_query_payload,
    query_payload,
    rewrite_aggregates,
    sum_values,
)
from repro.relational.types import NULL, AttributeType, is_null, sort_key

#: test hook: called with every _ExecRow built (None disables).  The SQL
#: parity suite points this at a counter to assert the code-native path
#: allocates zero binding rows.
_exec_row_hook: Callable[["_ExecRow"], None] | None = None


class _ExecRow:
    """One intermediate row: bindings for evaluation plus source tuples."""

    __slots__ = ("bindings", "sources")

    def __init__(self, bindings: dict[str, Any], sources: list[tuple[str, Tuple]]) -> None:
        self.bindings = bindings
        self.sources = sources
        if _exec_row_hook is not None:
            _exec_row_hook(self)

    def context(self) -> EvaluationContext:
        return EvaluationContext(self.bindings)

    def merged(self, other: "_ExecRow") -> "_ExecRow":
        bindings = dict(self.bindings)
        for key, value in other.bindings.items():
            # do not let a later table silently shadow an earlier unqualified name
            if "." in key or key not in bindings:
                bindings[key] = value
        return _ExecRow(bindings, self.sources + other.sources)


def _rows_for_table(database: Database, table: TableRef,
                    code_filters: list[tuple[list[int], set[int]]] | None = None) -> list[_ExecRow]:
    relation = database.relation(table.relation_name)
    binding = table.binding_name.lower()
    rows = []
    if code_filters:
        # columnar fast path: select tids by integer code membership first,
        # materialise bindings only for the survivors (same scan order).
        source = (relation.tuple(tid) for tid in relation.tids()
                  if all(codes[tid] in allowed for codes, allowed in code_filters))
    else:
        source = iter(relation)
    for row in source:
        bindings: dict[str, Any] = {}
        for name in relation.schema.attribute_names:
            value = row[name]
            bindings[name.lower()] = value
            bindings[f"{binding}.{name.lower()}"] = value
        rows.append(_ExecRow(bindings, [(table.binding_name, row)]))
    return rows


def _column_binding(ref: ColumnRef) -> str:
    return f"{ref.qualifier.lower()}.{ref.name.lower()}" if ref.qualifier else ref.name.lower()


class _FromPlanner:
    """Builds the joined row stream for a SELECT statement."""

    def __init__(self, database: Database, statement: SelectStatement,
                 use_columns: bool = True,
                 record: list[dict[str, Any]] | None = None) -> None:
        self._database = database
        self._statement = statement
        self._use_columns = use_columns
        #: EXPLAIN sink: per-pushed-conjunct pruning entries land here.
        self._record = record

    def execute(self) -> tuple[list[_ExecRow], list[Expression]]:
        """Return (joined rows, conjuncts not yet applied)."""
        tables = list(self._statement.tables)
        conjuncts = flatten_conjuncts(self._statement.where)
        for join in self._statement.joins:
            tables.append(join.table)
            conjuncts.extend(flatten_conjuncts(join.condition))

        if not tables:
            raise SQLExecutionError("SELECT requires at least one relation in FROM")

        single_table = len(tables) == 1
        remaining = list(conjuncts)
        bound_aliases = {tables[0].binding_name.lower()}
        filters, remaining = self._split_code_filters(tables[0], remaining, single_table)
        current = _rows_for_table(self._database, tables[0], filters)

        for table in tables[1:]:
            alias = table.binding_name.lower()
            filters, remaining = self._split_code_filters(table, remaining, single_table)
            table_rows = _rows_for_table(self._database, table, filters)
            equi, remaining = self._split_equi_conjuncts(remaining, bound_aliases, alias)
            if equi:
                current = self._hash_join(current, table_rows, equi)
            else:
                current = [left.merged(right) for left in current for right in table_rows]
            bound_aliases.add(alias)
        return current, remaining

    def _split_code_filters(self, table: TableRef, conjuncts: list[Expression],
                            single_table: bool) -> tuple[list[tuple[list[int], set[int]]],
                                                         list[Expression]]:
        """Compile push-downable conjuncts on *table* to code-set filters.

        Conjuncts that :func:`~repro.relational.sql.columnar.compile_filter`
        turns into dictionary-code sets (comparisons and ``IN`` against
        literals, ``IS [NOT] NULL``, same-column ``OR``) filter the scan;
        everything else stays a residual conjunct, so results — rows
        *and* their order — are identical to the row-at-a-time path.
        With ``use_columns=False`` nothing is pushed down at all: the
        retained reference path evaluates every conjunct on binding rows.
        """
        if not self._use_columns:
            return [], list(conjuncts)
        relation = self._database.relation(table.relation_name)
        filters: list[tuple[list[int], set[int]]] = []
        pushed: list[tuple[Expression, int, set[int]]] = []
        rest: list[Expression] = []
        for conjunct in conjuncts:
            compiled = compile_filter(relation, table, conjunct, single_table)
            if compiled is None:
                rest.append(conjunct)
                continue
            position, codes = compiled
            filters.append((relation.columns.column_at(position).codes, codes))
            pushed.append((conjunct, position, codes))
        if self._record is not None and pushed:
            tids = list(relation.tids())
            for conjunct, position, allowed in pushed:
                codes = relation.columns.column_at(position).codes
                survivors = [tid for tid in tids if codes[tid] in allowed]
                self._record.append({
                    "table": table.binding_name,
                    "attribute": relation.schema.attribute_names[position],
                    "conjunct": str(conjunct),
                    "code_set_size": len(allowed),
                    "rows_in": len(tids),
                    "rows_pruned": len(tids) - len(survivors),
                })
                tids = survivors
        return filters, rest

    def _split_equi_conjuncts(self, conjuncts: list[Expression], bound: set[str],
                              new_alias: str) -> tuple[list[tuple[str, str]], list[Expression]]:
        """Extract ``bound_col = new_col`` equalities usable for a hash join."""
        usable: list[tuple[str, str]] = []
        rest: list[Expression] = []
        for conjunct in conjuncts:
            pair = self._as_equi_pair(conjunct, bound, new_alias)
            if pair is not None:
                usable.append(pair)
            else:
                rest.append(conjunct)
        return usable, rest

    def _as_equi_pair(self, conjunct: Expression, bound: set[str],
                      new_alias: str) -> tuple[str, str] | None:
        if not isinstance(conjunct, Comparison) or conjunct.operator != "=":
            return None
        left, right = conjunct.left, conjunct.right
        if not isinstance(left, ColumnRef) or not isinstance(right, ColumnRef):
            return None
        if left.qualifier is None or right.qualifier is None:
            return None
        left_alias = left.qualifier.lower()
        right_alias = right.qualifier.lower()
        if left_alias in bound and right_alias == new_alias:
            return _column_binding(left), _column_binding(right)
        if right_alias in bound and left_alias == new_alias:
            return _column_binding(right), _column_binding(left)
        return None

    @staticmethod
    def _hash_join(left_rows: list[_ExecRow], right_rows: list[_ExecRow],
                   equi: list[tuple[str, str]]) -> list[_ExecRow]:
        left_keys = [pair[0] for pair in equi]
        right_keys = [pair[1] for pair in equi]
        buckets: dict[tuple[Any, ...], list[_ExecRow]] = defaultdict(list)
        for row in right_rows:
            key = tuple(row.bindings.get(k, NULL) for k in right_keys)
            if any(is_null(v) for v in key):
                continue
            buckets[key].append(row)
        joined: list[_ExecRow] = []
        for row in left_rows:
            key = tuple(row.bindings.get(k, NULL) for k in left_keys)
            if any(is_null(v) for v in key):
                continue
            for right in buckets.get(key, ()):
                joined.append(row.merged(right))
        return joined


def _infer_output_type(values: Iterable[Any]) -> AttributeType:
    for value in values:
        if is_null(value):
            continue
        if isinstance(value, bool):
            return AttributeType.BOOLEAN
        if isinstance(value, int):
            return AttributeType.INTEGER
        if isinstance(value, float):
            return AttributeType.FLOAT
        return AttributeType.STRING
    return AttributeType.STRING


class SQLExecutor:
    """Executes parsed statements against a :class:`Database`.

    ``use_columns=False`` retains the historical row-at-a-time reference
    path for everything (no code-native plans, no code-set push-down).
    *pool* is an :class:`~repro.engine.executor.ExecutorPool`: when given,
    code-native scans fan out across it chunk by chunk (results are
    identical — the engine is an execution detail).  *fds* are
    :class:`~repro.constraints.fd.FunctionalDependency` hints the multiway
    planner uses to tighten its variable order (they never change
    results).
    """

    def __init__(self, database: Database, use_columns: bool = True,
                 pool: Any = None, fds: Any = None) -> None:
        self._database = database
        self._use_columns = use_columns
        self._pool = pool
        self._fds = list(fds) if fds else []
        #: per-relation chunked engines (broadcast state survives queries).
        self._engines: dict[str, Any] = {}
        #: per-relation-pair chunked join engines, keyed by binding pair.
        self._join_engines: dict[tuple[str, str], Any] = {}
        #: per-relation-tuple chunked multiway engines, keyed by name tuple.
        self._multi_engines: dict[tuple[str, ...], Any] = {}
        #: the path the last SELECT took: "code", "join", "multiway",
        #: "factorised" or "row".
        self.last_plan: str | None = None
        #: EXPLAIN info for the last statement run with ``explain=True``.
        self.last_explain: dict[str, Any] | None = None
        #: in-flight EXPLAIN sink (None when not explaining).
        self._explain: dict[str, Any] | None = None

    # -- public ------------------------------------------------------------

    def execute(self, statement: Statement, result_name: str = "result",
                explain: bool = False) -> Relation:
        if isinstance(statement, UnionStatement):
            return self._execute_union(statement, result_name, explain)
        return self._execute_select(statement, result_name, explain)

    # -- UNION ---------------------------------------------------------------

    def _execute_union(self, statement: UnionStatement, result_name: str,
                       explain: bool = False) -> Relation:
        infos: list[dict[str, Any] | None] = []
        parts = []
        for select in statement.selects:
            parts.append(self._execute_select(select, result_name, explain))
            if explain:
                infos.append(self.last_explain)
        if explain:
            self.last_explain = {"plan": "union", "selects": infos}
        first = parts[0]
        schema = first.schema.renamed_relation(result_name)
        result = Relation(schema)
        seen: set[tuple[Any, ...]] = set()
        for part in parts:
            if part.schema.arity != schema.arity:
                raise SQLExecutionError("UNION requires selects of equal arity")
            for row in part:
                key = row.values
                if statement.all or key not in seen:
                    seen.add(key)
                    result.insert(list(key))
        return result

    # -- SELECT ----------------------------------------------------------------

    def _execute_select(self, statement: SelectStatement, result_name: str,
                        explain: bool = False) -> Relation:
        pre_ordered = False
        ran_code = False
        self.last_plan = "row"
        info: dict[str, Any] | None = None
        if explain:
            info = {"plan": "row", "why_not_code": [], "why_not_join": [],
                    "why_not_multiway": [], "why_not_factorised": [],
                    "filters": [], "join": None, "multiway": None,
                    "factorised": None}
            if not self._use_columns:
                info["why_not_code"].append("use_columns=False")
                info["why_not_join"].append("use_columns=False")
                info["why_not_multiway"].append("use_columns=False")
                info["why_not_factorised"].append("use_columns=False")
        self._explain = info
        if self._use_columns:
            plan = compile_plan(self._database, statement,
                                info["why_not_code"] if info is not None else None)
            if plan is not None:
                self.last_plan = "code"
                if obs.enabled:
                    obs.inc("sql.plan.code")
                if info is not None:
                    info["plan"] = "code"
                    info["why_not_join"].append("code-native single-table plan chosen")
                    info["filters"] = self._explain_filters(
                        plan.relation, plan.table.binding_name, plan.filters)
                output_rows, names, pre_ordered = self._execute_code_plan(plan)
                ran_code = True
            else:
                join_plan = compile_join_plan(
                    self._database, statement,
                    info["why_not_join"] if info is not None else None)
                if join_plan is not None:
                    factorised = factorise_plan(
                        join_plan,
                        info["why_not_factorised"] if info is not None else None)
                    if factorised is not None:
                        self.last_plan = "factorised"
                        if obs.enabled:
                            obs.inc("sql.plan.factorised")
                        if info is not None:
                            info["plan"] = "factorised"
                        output_rows, names, pre_ordered = \
                            self._execute_factorised_join(join_plan)
                    else:
                        self.last_plan = "join"
                        if obs.enabled:
                            obs.inc("sql.plan.join")
                        if info is not None:
                            info["plan"] = "join"
                        output_rows, names, pre_ordered = \
                            self._execute_join_plan(join_plan)
                    ran_code = True
                else:
                    multi_plan = compile_multi_join_plan(
                        self._database, statement,
                        info["why_not_multiway"] if info is not None else None,
                        self._fds)
                    if multi_plan is not None:
                        factorised = factorise_plan(
                            multi_plan,
                            info["why_not_factorised"] if info is not None else None)
                        if factorised is not None:
                            self.last_plan = "factorised"
                            if obs.enabled:
                                obs.inc("sql.plan.factorised")
                            if info is not None:
                                info["plan"] = "factorised"
                            output_rows, names, pre_ordered = \
                                self._execute_factorised_multi(multi_plan)
                        else:
                            self.last_plan = "multiway"
                            if obs.enabled:
                                obs.inc("sql.plan.multiway")
                            if info is not None:
                                info["plan"] = "multiway"
                            output_rows, names, pre_ordered = \
                                self._execute_multi_join_plan(multi_plan)
                        ran_code = True
        if obs.enabled and not ran_code:
            obs.inc("sql.plan.row")

        if not ran_code:
            rows, residual = _FromPlanner(
                self._database, statement, use_columns=self._use_columns,
                record=info["filters"] if info is not None else None).execute()

            for conjunct in residual:
                rows = [row for row in rows if truth(conjunct.evaluate(row.context()))]

            if statement.has_aggregates():
                output_rows, names = self._grouped_output(statement, rows)
            else:
                output_rows, names = self._plain_output(statement, rows)

        if statement.distinct:
            deduped = []
            seen: set[tuple[Any, ...]] = set()
            for row in output_rows:
                key = tuple(row)
                if key not in seen:
                    seen.add(key)
                    deduped.append(row)
            output_rows = deduped

        if statement.order_by and not pre_ordered:
            output_rows = self._order(statement, output_rows, names)

        if statement.limit is not None:
            output_rows = output_rows[: statement.limit]

        columns = list(zip(*output_rows)) if output_rows else [[] for _ in names]
        attributes = [
            Attribute(name, _infer_output_type(column))
            for name, column in zip(names, columns)
        ]
        unique_attributes = _deduplicate_names(attributes)
        schema = RelationSchema(result_name, unique_attributes)
        result = Relation(schema)
        for row in output_rows:
            result.insert(list(row))
        if info is not None:
            self.last_explain = info
            self._explain = None
        return result

    def _explain_filters(self, relation: Relation, table_name: str,
                         filters: list[tuple[int, set[int]]],
                         ) -> list[dict[str, Any]]:
        """Per-filter pruning stats for EXPLAIN: code-set size, rows pruned.

        Filters apply conjunctively, so survivors of one feed the next —
        ``rows_in`` of filter *k* is the survivor count of filter *k - 1*.
        """
        entries: list[dict[str, Any]] = []
        tids = list(relation.tids())
        store = relation.columns
        for position, allowed in filters:
            codes = store.column_at(position).codes
            survivors = [tid for tid in tids if codes[tid] in allowed]
            entries.append({
                "table": table_name,
                "attribute": relation.schema.attribute_names[position],
                "code_set_size": len(allowed),
                "rows_in": len(tids),
                "rows_pruned": len(tids) - len(survivors),
            })
            tids = survivors
        return entries

    # -- code-native execution ----------------------------------------------

    def _execute_code_plan(self, plan: CodePlan) -> tuple[list[list[Any]], list[str], bool]:
        """Run a compiled code-native plan; returns (rows, names, pre-ordered)."""
        relation = plan.relation
        query = query_payload(plan)
        if self._pool is None:
            from repro.engine import worker
            from repro.engine.sql import SQL_SPEC, broadcast_state

            [(seconds, result)] = worker.run_local_timed(
                broadcast_state(relation),
                [("sql_scan", (SQL_SPEC, query, relation.tids()))])
            if obs.enabled:
                obs.observe("engine.task.sql_scan.seconds", seconds)
        else:
            engine = self._chunked_engine(relation)
            result = engine.scan_grouped(query) if plan.grouped else engine.scan(query)

        if plan.grouped:
            return self._code_grouped_output(plan, result), list(plan.names), False
        tids, pre_ordered = self._code_order(plan, result)
        store = relation.columns
        columns = [store.column_at(position) for _, position in plan.items]
        output_rows = [[column.values[column.codes[tid]] for column in columns]
                       for tid in tids]
        return output_rows, list(plan.names), pre_ordered

    def _chunked_engine(self, relation: Relation) -> Any:
        """The per-relation chunked scan engine (broadcast state cached)."""
        from repro.engine.sql import ChunkedSQLEngine

        key = relation.name.lower()
        engine = self._engines.get(key)
        if engine is None or engine.relation is not relation:
            engine = ChunkedSQLEngine(relation, self._pool)
            self._engines[key] = engine
        return engine

    def _code_order(self, plan: CodePlan, tids: list[int]) -> tuple[list[int], bool]:
        """Order surviving tids by dictionary ranks when the plan allows it.

        Replicates :meth:`_order` move for move — ascending sort on the
        dense rank tuple, full reverse when every key is descending, and
        per-key stable re-sorts (last key first) for mixed directions —
        so the decoded rows land in exactly the value-sorted order.
        """
        order = plan.order_ranks
        if not order:
            return tids, False
        store = plan.relation.columns
        keys = [(store.column_at(position).order().ranks,
                 store.column_at(position).codes, descending)
                for position, descending in order]
        flags = [descending for _, _, descending in keys]
        limit = plan.limit
        if limit is not None and 0 <= limit < len(tids):
            return self._code_top_k(tids, keys, flags, limit), True
        if any(flags) and not all(flags):
            # mixed directions: sort stably, last key first
            ordered = list(tids)
            for ranks, codes, descending in reversed(keys):
                ordered = sorted(
                    ordered,
                    key=lambda tid, r=ranks, c=codes: r[c[tid]],
                    reverse=descending)
            return ordered, True
        ordered = sorted(tids, key=lambda tid: tuple(ranks[codes[tid]]
                                                     for ranks, codes, _ in keys))
        if all(flags):
            ordered = list(reversed(ordered))
        return ordered, True

    def _code_top_k(self, tids: list[int], keys: list[tuple],
                    flags: list[bool], limit: int) -> list[int]:
        """``LIMIT k`` pushed into an ordered scan: partial top-k selection.

        ``heapq.nsmallest(k, ..., key)`` is documented equivalent to
        ``sorted(..., key)[:k]`` — a stable selection — so each direction
        shape maps to a rank-tuple key that replays :meth:`_code_order`'s
        full sort (then truncation) exactly:

        * all ascending — the plain rank tuple (ties keep scan order,
          like the stable full sort);
        * all descending — negated ranks with a negated-tid tiebreak
          (the full path reverses an ascending sort, which also reverses
          tie order);
        * mixed — per-key sign flips (a cascade of stable single-key
          sorts, last key first, equals one lexicographic sort on the
          signed ranks, ties in scan order).

        Ranks are dense integers, so every negation is exact.
        """
        if all(flags):
            def key(tid: int) -> tuple:
                return tuple(-ranks[codes[tid]]
                             for ranks, codes, _ in keys) + (-tid,)
        elif any(flags):
            def key(tid: int) -> tuple:
                return tuple(-ranks[codes[tid]] if descending
                             else ranks[codes[tid]]
                             for ranks, codes, descending in keys)
        else:
            def key(tid: int) -> tuple:
                return tuple(ranks[codes[tid]] for ranks, codes, _ in keys)
        selected = heapq.nsmallest(limit, tids, key=key)
        info = self._explain
        if info is not None:
            info["order"] = {"top_k": limit, "rows_in": len(tids)}
        return selected

    def _code_grouped_output(self, plan: CodePlan,
                             merged: dict[Any, list]) -> list[list[Any]]:
        """Assemble grouped output rows from merged partial-aggregate states."""
        relation = plan.relation
        if not merged and not plan.group_positions:
            # aggregates without GROUP BY over no rows still emit one row
            merged = {(): None}
        output: list[list[Any]] = []
        for entry in merged.values():
            if entry is None:
                representative = None
                states = [empty_aggregate_state(spec) for spec in plan.agg_specs]
            else:
                representative = entry[0]
                states = entry[1:]
            finalized = [finalize_aggregate(spec, state, relation)
                         for spec, state in zip(plan.agg_specs, states)]
            aggregate_values = dict(zip(plan.agg_calls, finalized))
            context: list[EvaluationContext] = []

            def group_context() -> EvaluationContext:
                if not context:
                    context.append(self._representative_context(plan, representative))
                return context[0]

            if plan.having is not None:
                having_value = rewrite_aggregates(
                    plan.having, aggregate_values).evaluate(group_context())
                if not truth(having_value):
                    continue
            values = []
            for kind, ref in plan.items:
                if kind == "agg":
                    values.append(finalized[ref])
                else:
                    values.append(rewrite_aggregates(
                        ref, aggregate_values).evaluate(group_context()))
            output.append(values)
        return output

    def _representative_context(self, plan: CodePlan,
                                tid: int | None) -> EvaluationContext:
        """The binding context of a group's first row (decoded once per group)."""
        if tid is None:
            return EvaluationContext({})
        relation = plan.relation
        store = relation.columns
        binding = plan.table.binding_name.lower()
        bindings: dict[str, Any] = {}
        for position, name in enumerate(relation.schema.attribute_names):
            column = store.column_at(position)
            value = column.values[column.codes[tid]]
            bindings[name.lower()] = value
            bindings[f"{binding}.{name.lower()}"] = value
        return EvaluationContext(bindings)

    # -- code-native join execution ------------------------------------------

    def _execute_join_plan(self, plan: JoinPlan) -> tuple[list[list[Any]], list[str], bool]:
        """Run a compiled hash-join plan; returns (rows, names, pre-ordered)."""
        left, right = plan.relations
        # Grouped probes must walk the pairs left-major (SUM/AVG fold order
        # and group first-occurrence order); plain scans build on the
        # smaller side and restore left-major order from the match lists.
        probe_side = 0 if plan.grouped or len(right) <= len(left) else 1
        buckets = build_join_buckets(plan, 1 - probe_side)
        query = join_query_payload(plan, probe_side, buckets)
        probe = plan.relations[probe_side]

        info = self._explain
        if info is not None:
            bindings = (plan.tables[0].binding_name, plan.tables[1].binding_name)
            for side in (0, 1):
                info["filters"].extend(self._explain_filters(
                    plan.relations[side], bindings[side], plan.filters[side]))
            info["join"] = {
                "build_side": bindings[1 - probe_side],
                "probe_side": bindings[probe_side],
                "build_rows": len(plan.relations[1 - probe_side]),
                "probe_rows": len(probe),
                "buckets": len(buckets),
                "key_pairs": len(plan.key_pairs),
            }
        if obs.enabled:
            obs.observe("sql.join.buckets", len(buckets))

        if self._pool is None:
            from repro.engine import worker
            from repro.engine.join import JOIN_SPEC, join_state

            [(seconds, result)] = worker.run_local_timed(
                join_state(left, right),
                [("join_probe", (JOIN_SPEC, query, probe.tids()))])
            if obs.enabled:
                obs.observe("engine.task.join_probe.seconds", seconds)
        else:
            engine = self._join_engine(left, right)
            if plan.grouped:
                result = engine.probe_grouped(query)
            elif probe_side == 0:
                result = engine.probe_pairs(query)
            else:
                result = engine.probe_matches(query)

        if plan.grouped:
            return self._join_grouped_output(plan, result), list(plan.names), False
        if probe_side == 1:
            # matches are keyed by left (build) tid; left scan order is
            # ascending tids and each right-tid list is already ascending,
            # so sorted re-emission restores the exact left-major order
            pairs = [(left_tid, right_tid)
                     for left_tid in sorted(result)
                     for right_tid in result[left_tid]]
        else:
            pairs = result
        pairs, pre_ordered = self._join_order(plan, pairs)
        stores = (left.columns, right.columns)
        columns = [(side, stores[side].column_at(position))
                   for _, side, position in plan.items]
        output_rows = [[column.values[column.codes[pair[side]]]
                        for side, column in columns]
                       for pair in pairs]
        return output_rows, list(plan.names), pre_ordered

    def _join_engine(self, left: Relation, right: Relation) -> Any:
        """The per-pair chunked join engine (broadcast state cached)."""
        from repro.engine.join import ChunkedJoinEngine

        key = (left.name.lower(), right.name.lower())
        engine = self._join_engines.get(key)
        if engine is None or engine.relations[0] is not left \
                or engine.relations[1] is not right:
            engine = ChunkedJoinEngine(left, right, self._pool)
            self._join_engines[key] = engine
        return engine

    # -- factorised (semiring) aggregate execution ---------------------------

    def _execute_factorised_join(self, plan: JoinPlan
                                 ) -> tuple[list[list[Any]], list[str], bool]:
        """Run a grouped hash join by semiring folds, not enumeration.

        Build-side partials fold into the buckets before any probe runs
        (:func:`build_factorised_buckets`); probe tids fold once per
        class of equal join key and probe-side group codes, and each
        class combines each block of its bucket once.  Results are
        byte-identical to :meth:`_execute_join_plan`'s grouped branch.
        """
        left, right = plan.relations
        aggs = factorised_aggregates(plan)
        buckets = build_factorised_buckets(plan, aggs)
        query = factorised_join_payload(plan, aggs, buckets)

        info = self._explain
        if info is not None:
            bindings = (plan.tables[0].binding_name, plan.tables[1].binding_name)
            for side in (0, 1):
                info["filters"].extend(self._explain_filters(
                    plan.relations[side], bindings[side], plan.filters[side]))
            info["join"] = {
                "build_side": bindings[1],
                "probe_side": bindings[0],
                "build_rows": len(right),
                "probe_rows": len(left),
                "buckets": len(buckets),
                "key_pairs": len(plan.key_pairs),
            }
        if obs.enabled:
            obs.observe("sql.join.buckets", len(buckets))

        if self._pool is None:
            from repro.engine import worker
            from repro.engine.join import JOIN_SPEC, join_state

            [(seconds, (merged, combines, tuples, classes))] = worker.run_local_timed(
                join_state(left, right),
                [("factorised_fold", (JOIN_SPEC, query, left.tids()))])
            if obs.enabled:
                obs.observe("engine.task.factorised_fold.seconds", seconds)
        else:
            engine = self._join_engine(left, right)
            merged, combines, tuples, classes = engine.probe_factorised(query)

        self._note_factorised("join", merged, combines, tuples, classes)
        return (self._join_grouped_output(plan, merged, factorised=True),
                list(plan.names), False)

    def _execute_factorised_multi(self, plan: MultiJoinPlan
                                  ) -> tuple[list[list[Any]], list[str], bool]:
        """Run a grouped multiway join by semiring folds, not enumeration.

        One fan-out instead of probe + fold: every table's trie leaves are
        folded once, parent side, and workers walk the tries combining
        parts without expanding any cartesian product.  Group
        representatives are min-merged, and the
        merged groups are re-sorted by representative — the sorted
        enumeration's first-occurrence order — so results are
        byte-identical to :meth:`_execute_multi_join_plan`'s grouped
        branch.
        """
        relations = plan.relations
        query, candidates = factorised_multi_payload(plan)
        info = self._explain
        if info is not None:
            for side, table in enumerate(plan.tables):
                info["filters"].extend(self._explain_filters(
                    relations[side], table.binding_name, plan.filters[side]))

        if self._pool is None:
            from repro.engine import worker
            from repro.engine.multijoin import MULTI_SPEC, multi_join_state

            [(seconds, (merged, combines, tuples, counts))] = \
                worker.run_local_timed(
                    multi_join_state(relations),
                    [("factorised_fold", (MULTI_SPEC, query, candidates))])
            if obs.enabled:
                obs.observe("engine.task.factorised_fold.seconds", seconds)
            merged = dict(sorted(merged.items(), key=lambda item: item[1][0]))
        else:
            engine = self._multi_engine(relations)
            merged, combines, tuples, counts = \
                engine.probe_factorised(query, candidates)
            merged = dict(sorted(merged.items(), key=lambda item: item[1][0]))

        if obs.enabled:
            for count in counts:
                obs.observe("sql.multiway.candidates", count)
        if info is not None:
            info["multiway"] = {
                "tables": [table.binding_name for table in plan.tables],
                "order": [{
                    "members": [
                        f"{plan.tables[side].binding_name}."
                        f"{relations[side].schema.attribute_names[position]}"
                        for side, position in members],
                    "fd_implied": fd_implied,
                    "estimate": estimate,
                    "candidates": counts[level],
                } for level, (members, fd_implied, estimate)
                    in enumerate(plan.var_order)],
                "tuples": tuples,
            }
        self._note_factorised("multiway", merged, combines, tuples,
                              query["leaves"])
        return (self._join_grouped_output(plan, merged, factorised=True),
                list(plan.names), False)

    def _note_factorised(self, kind: str, merged: dict[Any, list],
                         combines: int, tuples: int, folded: int) -> None:
        """Record a factorised run's shape into obs and EXPLAIN.

        *folded* counts the units folded once each: probe classes of a
        two-table join, trie leaves of a multiway one.
        """
        if obs.enabled:
            obs.observe("sql.factorised.partials", combines)
        info = self._explain
        if info is not None:
            info["factorised"] = {
                "kind": kind,
                "combines": combines,
                "classes" if kind == "join" else "leaves": folded,
                "tuples": tuples,
                "groups": len(merged),
            }

    # -- code-native multiway (3+ table) join execution ----------------------

    def _execute_multi_join_plan(self, plan: MultiJoinPlan
                                 ) -> tuple[list[list[Any]], list[str], bool]:
        """Run a compiled multiway plan; returns (rows, names, pre-ordered).

        Two phases.  The probe enumerates the join — first variable
        intersected parent-side, candidates chunked across
        ``multiway_probe`` workers, per-chunk sorted runs merged into the
        global ascending tid-tuple order the row path emits.  Grouped
        statements then fold aggregates over contiguous slices of that
        sorted enumeration (``multiway_fold``), so chunk-order merging
        preserves group first-occurrence order and float fold order
        exactly.
        """
        relations = plan.relations
        query, candidates = multiway_query_payload(plan)
        info = self._explain
        if info is not None:
            for side, table in enumerate(plan.tables):
                info["filters"].extend(self._explain_filters(
                    relations[side], table.binding_name, plan.filters[side]))

        engine = None
        if self._pool is None:
            from repro.engine import worker
            from repro.engine.multijoin import MULTI_SPEC, multi_join_state

            state = multi_join_state(relations)
            [(seconds, (combos, counts))] = worker.run_local_timed(
                state, [("multiway_probe", (MULTI_SPEC, query, candidates))])
            if obs.enabled:
                obs.observe("engine.task.multiway_probe.seconds", seconds)
        else:
            engine = self._multi_engine(relations)
            combos, counts = engine.probe(query, candidates)

        if obs.enabled:
            for count in counts:
                obs.observe("sql.multiway.candidates", count)
        if info is not None:
            info["multiway"] = {
                "tables": [table.binding_name for table in plan.tables],
                "order": [{
                    "members": [
                        f"{plan.tables[side].binding_name}."
                        f"{relations[side].schema.attribute_names[position]}"
                        for side, position in members],
                    "fd_implied": fd_implied,
                    "estimate": estimate,
                    "candidates": counts[level],
                } for level, (members, fd_implied, estimate)
                    in enumerate(plan.var_order)],
                "tuples": len(combos),
            }

        if plan.grouped:
            fold_query = multiway_fold_payload(plan)
            if engine is None:
                from repro.engine import worker
                from repro.engine.multijoin import MULTI_SPEC

                [(seconds, result)] = worker.run_local_timed(
                    state, [("multiway_fold", (MULTI_SPEC, fold_query, combos))])
                if obs.enabled:
                    obs.observe("engine.task.multiway_fold.seconds", seconds)
            else:
                result = engine.fold(fold_query, combos)
            return self._join_grouped_output(plan, result), list(plan.names), False

        combos, pre_ordered = self._join_order(plan, combos)
        stores = [relation.columns for relation in relations]
        columns = [(side, stores[side].column_at(position))
                   for _, side, position in plan.items]
        output_rows = [[column.values[column.codes[combo[side]]]
                        for side, column in columns]
                       for combo in combos]
        return output_rows, list(plan.names), pre_ordered

    def _multi_engine(self, relations: tuple) -> Any:
        """The per-relation-tuple multiway engine (broadcast state cached)."""
        from repro.engine.multijoin import ChunkedMultiJoinEngine

        key = tuple(relation.name.lower() for relation in relations)
        engine = self._multi_engines.get(key)
        if engine is None or any(cached is not relation for cached, relation
                                 in zip(engine.relations, relations)):
            engine = ChunkedMultiJoinEngine(relations, self._pool)
            self._multi_engines[key] = engine
        return engine

    def _join_order(self, plan: JoinPlan | MultiJoinPlan,
                    pairs: list[tuple[int, ...]]) -> tuple[list[tuple[int, ...]], bool]:
        """Order joined tid tuples by dictionary ranks when the plan allows it.

        The tuple-level twin of :meth:`_code_order` — same ascending rank
        tuples, full reverse when every key is descending, stable per-key
        re-sorts for mixed directions.  Works on pairs and on N-tuples
        alike (every ``order_ranks`` entry carries its side).
        """
        order = plan.order_ranks
        if not order:
            return pairs, False
        stores = tuple(relation.columns for relation in plan.relations)
        keys = [(stores[side].column_at(position).order().ranks,
                 stores[side].column_at(position).codes, side, descending)
                for side, position, descending in order]
        flags = [descending for _, _, _, descending in keys]
        if any(flags) and not all(flags):
            # mixed directions: sort stably, last key first
            ordered = list(pairs)
            for ranks, codes, side, descending in reversed(keys):
                ordered = sorted(
                    ordered,
                    key=lambda pair, r=ranks, c=codes, s=side: r[c[pair[s]]],
                    reverse=descending)
            return ordered, True
        ordered = sorted(pairs, key=lambda pair: tuple(ranks[codes[pair[side]]]
                                                       for ranks, codes, side, _ in keys))
        if all(flags):
            ordered = list(reversed(ordered))
        return ordered, True

    def _join_grouped_output(self, plan: JoinPlan | MultiJoinPlan,
                             merged: dict[Any, list],
                             factorised: bool = False) -> list[list[Any]]:
        """Assemble grouped join output from merged partial-aggregate states.

        ``factorised=True`` selects the semiring finalizers — the states
        are :func:`empty_factorised_state`-shaped then — but the group
        walk, HAVING, representatives and item evaluation are shared, so
        the two paths cannot drift.
        """
        relations = plan.relations
        if not merged and not plan.group_keys:
            # aggregates without GROUP BY over no joined rows still emit one
            merged = {(): None}
        empty_state = empty_factorised_state if factorised else empty_aggregate_state
        finalize = finalize_factorised if factorised else finalize_join_aggregate
        output: list[list[Any]] = []
        for entry in merged.values():
            if entry is None:
                representative = None
                states = [empty_state(spec) for spec in plan.agg_specs]
            else:
                representative = entry[0]
                states = entry[1:]
            finalized = [finalize(spec, state, relations)
                         for spec, state in zip(plan.agg_specs, states)]
            aggregate_values = dict(zip(plan.agg_calls, finalized))
            context: list[EvaluationContext] = []

            def group_context() -> EvaluationContext:
                if not context:
                    context.append(self._join_representative_context(plan, representative))
                return context[0]

            if plan.having is not None:
                having_value = rewrite_aggregates(
                    plan.having, aggregate_values).evaluate(group_context())
                if not truth(having_value):
                    continue
            values = []
            for kind, ref in plan.items:
                if kind == "agg":
                    values.append(finalized[ref])
                else:
                    values.append(rewrite_aggregates(
                        ref, aggregate_values).evaluate(group_context()))
            output.append(values)
        return output

    def _join_representative_context(self, plan: JoinPlan | MultiJoinPlan,
                                     pair: tuple[int, ...] | None) -> EvaluationContext:
        """The binding context of a group's first joined tuple.

        Bindings mirror :meth:`_ExecRow.merged`: earlier tables' unqualified
        names are set first and later tables never shadow them; qualified
        names always bind to their own table.
        """
        if pair is None:
            return EvaluationContext({})
        bindings: dict[str, Any] = {}
        for side in range(len(plan.relations)):
            relation = plan.relations[side]
            store = relation.columns
            binding = plan.tables[side].binding_name.lower()
            tid = pair[side]
            for position, name in enumerate(relation.schema.attribute_names):
                column = store.column_at(position)
                value = column.values[column.codes[tid]]
                key = name.lower()
                if side == 0 or key not in bindings:
                    bindings[key] = value
                bindings[f"{binding}.{key}"] = value
        return EvaluationContext(bindings)

    # -- projection without aggregation ----------------------------------------

    def _expanded_items(self, statement: SelectStatement,
                        ) -> list[tuple[str, Expression | AggregateCall]]:
        """Expand '*' and 'alias.*' into concrete column references."""
        return expanded_items(self._database, statement)

    def _plain_output(self, statement: SelectStatement,
                      rows: list[_ExecRow]) -> tuple[list[list[Any]], list[str]]:
        items = self._expanded_items(statement)
        names = [name for name, _ in items]
        output: list[list[Any]] = []
        for row in rows:
            context = row.context()
            values = []
            for _, expression in items:
                if isinstance(expression, AggregateCall):
                    raise SQLExecutionError("aggregate without GROUP BY mixed with plain columns")
                values.append(expression.evaluate(context))
            output.append(values)
        return output, names

    # -- grouped output -----------------------------------------------------------

    def _grouped_output(self, statement: SelectStatement,
                        rows: list[_ExecRow]) -> tuple[list[list[Any]], list[str]]:
        group_exprs = statement.group_by
        groups: dict[tuple[Any, ...], list[_ExecRow]] = defaultdict(list)
        if group_exprs:
            for row in rows:
                context = row.context()
                key = tuple(expr.evaluate(context) for expr in group_exprs)
                groups[key].append(row)
        else:
            groups[()] = list(rows)

        items = self._expanded_items(statement)
        names = [name for name, _ in items]

        having_aggregates = self._collect_aggregates(statement.having)
        item_aggregates: list[AggregateCall] = []
        for _, expr in items:
            if isinstance(expr, AggregateCall):
                item_aggregates.append(expr)
            else:
                # aggregates embedded in a computed item (COUNT(*) + 1, ...)
                item_aggregates.extend(self._collect_aggregates(expr))
        all_aggregates = list({**{a: None for a in item_aggregates},
                               **{a: None for a in having_aggregates}}.keys())

        output: list[list[Any]] = []
        for key, group_rows in groups.items():
            if not group_rows and group_exprs:
                continue
            aggregate_values = {
                aggregate: self._compute_aggregate(aggregate, group_rows)
                for aggregate in all_aggregates
            }
            representative = group_rows[0] if group_rows else None

            if statement.having is not None:
                having_value = self._evaluate_with_aggregates(
                    statement.having, representative, aggregate_values)
                if not truth(having_value):
                    continue

            values = []
            for _, expression in items:
                if isinstance(expression, AggregateCall):
                    values.append(aggregate_values[expression])
                else:
                    values.append(self._evaluate_with_aggregates(
                        expression, representative, aggregate_values))
            output.append(values)
        return output, names

    def _collect_aggregates(self, expression: Expression | None) -> list[AggregateCall]:
        return collect_aggregates(expression)

    def _compute_aggregate(self, aggregate: AggregateCall, rows: list[_ExecRow]) -> Any:
        if aggregate.argument is None:
            return len(rows)
        values = []
        for row in rows:
            value = aggregate.argument.evaluate(row.context())
            if not is_null(value):
                values.append(value)
        if aggregate.distinct:
            unique: list[Any] = []
            seen: set[Any] = set()
            for value in values:
                if value not in seen:
                    seen.add(value)
                    unique.append(value)
            values = unique
        function = aggregate.function
        if function == "count":
            return len(values)
        if not values:
            return NULL
        if function == "sum":
            return sum_values(function, values)
        if function == "avg":
            return sum_values(function, values) / len(values)
        if function == "min":
            return min(values, key=sort_key)
        if function == "max":
            return max(values, key=sort_key)
        raise SQLExecutionError(f"unsupported aggregate {function!r}")

    def _evaluate_with_aggregates(self, expression: Expression, representative: _ExecRow | None,
                                  aggregate_values: dict[AggregateCall, Any]) -> Any:
        rewritten = rewrite_aggregates(expression, aggregate_values)
        context = representative.context() if representative is not None else EvaluationContext({})
        return rewritten.evaluate(context)

    # -- ordering -------------------------------------------------------------

    def _order(self, statement: SelectStatement, output_rows: list[list[Any]],
               names: list[str]) -> list[list[Any]]:
        name_positions = {name.lower(): index for index, name in enumerate(names)}

        def key_function(row: list[Any]) -> tuple:
            keys = []
            for order_item in statement.order_by:
                value = self._order_value(order_item.expression, row, name_positions)
                keys.append(sort_key(value))
            return tuple(keys)

        ordered = sorted(output_rows, key=key_function)
        if any(item.descending for item in statement.order_by):
            if all(item.descending for item in statement.order_by):
                ordered = list(reversed(ordered))
            else:
                # mixed directions: sort stably, last key first
                ordered = output_rows
                for order_item in reversed(statement.order_by):
                    ordered = sorted(
                        ordered,
                        key=lambda row: sort_key(
                            self._order_value(order_item.expression, row, name_positions)),
                        reverse=order_item.descending,
                    )
        return ordered

    def _order_value(self, expression: Expression, row: list[Any],
                     name_positions: dict[str, int]) -> Any:
        if isinstance(expression, ColumnRef) and expression.qualifier is None:
            position = name_positions.get(expression.name.lower())
            if position is not None:
                return row[position]
        context = EvaluationContext({name: row[pos] for name, pos in name_positions.items()})
        try:
            return expression.evaluate(context)
        except Exception as exc:  # noqa: BLE001 - surface as SQL error
            raise SQLExecutionError(f"cannot evaluate ORDER BY expression {expression}") from exc


def _deduplicate_names(attributes: list[Attribute]) -> list[Attribute]:
    """Ensure output attribute names are unique (suffix _2, _3, ...)."""
    seen: dict[str, int] = {}
    result: list[Attribute] = []
    for attribute in attributes:
        key = attribute.name.lower()
        if key not in seen:
            seen[key] = 1
            result.append(attribute)
        else:
            seen[key] += 1
            result.append(Attribute(f"{attribute.name}_{seen[key]}", attribute.type))
    return result
