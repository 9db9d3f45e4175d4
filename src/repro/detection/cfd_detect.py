"""CFD violation detection.

Given a relation ``R`` and a CFD ``φ = (X → Y, Tp)``, two kinds of
violations exist:

* **single-tuple** violations: a tuple matches a pattern's constants on
  ``X`` but not on ``Y`` (only possible when the pattern has constants on
  the RHS);
* **group** violations: a set of tuples match a pattern on ``X``, agree on
  ``X`` (no NULL there) but hold two different non-NULL values on some
  wildcard attribute of ``Y``.

NULLs follow SQL, the semantics of the queries Semandaq generates: a NULL
never matches a pattern constant, never joins an ``X`` group, and never
disagrees with anything on ``Y`` (``COUNT(DISTINCT A)`` skips it).  Every
detector here — direct, batch, incremental, chunked and SQL-generated —
reports the same violations under that definition.

:class:`CFDDetector` finds both by hashing tuples on ``X``.  By default it
runs *columnar*: patterns are compiled to code-level tests against the
relation's dictionary-encoded column store
(:mod:`repro.detection.columnar`) and grouping happens over integer code
tuples — the hot path never materialises a :class:`Tuple`.
``use_columns=False`` selects the original row-at-a-time implementation,
which produces identical reports (the parity tests assert this) and serves
as the benchmark baseline.

The columnar path can additionally run on the chunked execution engine
(:mod:`repro.engine`): ``engine="serial"`` splits the scan into chunks
with boundary merging, ``engine="parallel"`` fans the chunks out to a
process pool (``workers=`` sets the size).  Reports stay byte-identical
to the sequential columnar path; ``REPRO_ENGINE`` supplies a
process-wide default so whole test runs can be forced through the engine.

:class:`SQLCFDDetector` instead *generates SQL* — the approach of Fan et
al.'s Semandaq system — and runs it as code-native plans on the library's
SQL engine, matching result rows back to tuple ids on codes.  All paths
return the same :class:`~repro.constraints.violations.ViolationReport`.
"""

from __future__ import annotations

import math
import sys
from collections import defaultdict
from typing import Any, Callable, Sequence

from repro import obs
from repro.constraints.cfd import CFD
from repro.constraints.tableau import PatternTuple
from repro.constraints.violations import CFDViolation, ViolationReport
from repro.detection.columnar import CompiledPattern, compile_tableau
from repro.engine.detect import ChunkedCFDEngine
from repro.engine.executor import resolve_pool
from repro.engine.worker import is_null_code, rhs_bucket_pairs, rhs_disagree
from repro.relational.database import Database
from repro.relational.index import HashIndex
from repro.relational.relation import Relation
from repro.relational.sql.engine import SQLEngine
from repro.relational.sql.tokenizer import sql_literal
from repro.relational.types import AttributeType, is_null, typed_match


class CFDDetector:
    """Direct (index-based) CFD violation detection on one relation.

    A group violates when its tuples matching the pattern hold two
    different non-NULL values on some wildcard RHS attribute — SQL's
    ``COUNT(DISTINCT A) > 1``, the test :class:`SQLCFDDetector` generates:
    a NULL RHS value disagrees with nothing.  The group violation lists
    every matching tuple of the group (NULL RHS ones included); under
    ``enumerate_pairs`` only tuples whose RHS values disagree pair up.
    """

    def __init__(self, relation: Relation, cfds: Sequence[CFD],
                 enumerate_pairs: bool = False, use_columns: bool = True,
                 engine: str | None = None, workers: int | None = None,
                 task_timeout: float | None = None,
                 task_retries: int | None = None) -> None:
        for cfd in cfds:
            cfd.validate_against(relation)
        self._relation = relation
        self._cfds = list(cfds)
        self._enumerate_pairs = enumerate_pairs
        self._use_columns = use_columns
        self._indexes: dict[tuple[str, ...], HashIndex] = {}
        # the chunked engine only exists for the columnar representation
        self._pool = (resolve_pool(engine, workers, task_timeout=task_timeout,
                                   task_retries=task_retries)
                      if use_columns else None)
        self._chunked: "ChunkedCFDEngine | None" = None

    # -- public ----------------------------------------------------------------

    def detect(self) -> ViolationReport:
        """Detect all violations of all configured CFDs."""
        with obs.span("detect.cfd", relation=self._relation.name):
            report = ViolationReport(self._relation.name,
                                     tuples_checked=len(self._relation))
            if self._pool is not None:
                for violations in self._engine().detect():
                    report.extend(violations)
            else:
                for cfd in self._cfds:
                    report.extend(self.detect_one(cfd))
            if obs.enabled:
                obs.inc("detect.cfd.violations", len(report.violations))
            return report

    def detect_one(self, cfd: CFD) -> list[CFDViolation]:
        """Violations of a single CFD."""
        if self._pool is not None:
            for position, registered in enumerate(self._cfds):
                if registered is cfd or registered == cfd:
                    return self._engine().detect([position])[0]
            ephemeral = ChunkedCFDEngine(
                self._relation, [(cfd, compile_tableau(cfd, self._relation))],
                self._pool, kind="cfd", enumerate_pairs=self._enumerate_pairs)
            return ephemeral.detect()[0]
        violations: list[CFDViolation] = []
        if self._use_columns:
            for compiled in compile_tableau(cfd, self._relation):
                violations.extend(self._single_tuple_violations_columnar(cfd, compiled))
                violations.extend(self._group_violations_columnar(cfd, compiled))
        else:
            for pattern in cfd.tableau:
                violations.extend(self._single_tuple_violations(cfd, pattern))
                violations.extend(self._group_violations(cfd, pattern))
        return violations

    def _engine(self) -> "ChunkedCFDEngine":
        if self._chunked is None:
            items = [(cfd, compile_tableau(cfd, self._relation)) for cfd in self._cfds]
            self._chunked = ChunkedCFDEngine(self._relation, items, self._pool,
                                             kind="cfd",
                                             enumerate_pairs=self._enumerate_pairs)
        return self._chunked

    # -- columnar path ------------------------------------------------------------

    def _single_tuple_violations_columnar(self, cfd: CFD,
                                          compiled: CompiledPattern) -> list[CFDViolation]:
        if not compiled.rhs_tests:
            return []
        return [CFDViolation(cfd, compiled.pattern, (tid,)) for tid in self._relation.tids()
                if compiled.lhs_matches(tid) and not compiled.rhs_constants_match(tid)]

    def _group_violations_columnar(self, cfd: CFD,
                                   compiled: CompiledPattern) -> list[CFDViolation]:
        if not compiled.variable_rhs:
            return []
        return self._group_violations_by(cfd, compiled.pattern, is_null_code,
                                         compiled.lhs_matches, compiled.rhs_key)

    # -- row path --------------------------------------------------------------------

    def _single_tuple_violations(self, cfd: CFD, pattern: PatternTuple) -> list[CFDViolation]:
        constant_rhs = [a for a in cfd.rhs if pattern.is_constant_on(a)]
        if not constant_rhs:
            return []
        return [CFDViolation(cfd, pattern, (row.tid,)) for row in self._relation
                if pattern.matches(row, cfd.lhs) and not pattern.matches(row, constant_rhs)]

    def _group_violations(self, cfd: CFD, pattern: PatternTuple) -> list[CFDViolation]:
        variable_rhs = [a for a in cfd.rhs if not pattern.is_constant_on(a)]
        if not variable_rhs:
            return []
        tuple_of = self._relation.tuple
        return self._group_violations_by(
            cfd, pattern, is_null, lambda tid: pattern.matches(tuple_of(tid), cfd.lhs),
            lambda tid: tuple_of(tid).project(variable_rhs))

    # -- shared --------------------------------------------------------------------

    def _group_violations_by(self, cfd: CFD, pattern: PatternTuple,
                             null: Callable[[Any], bool],
                             lhs_matches: Callable[[int], bool],
                             rhs_key: Callable[[int], Any]) -> list[CFDViolation]:
        """Scan the LHS index: each non-NULL group whose matching tuples disagree."""
        violations: list[CFDViolation] = []
        for key, tids in self._index_for(cfd.lhs).bucket_items():
            if len(tids) < 2 or any(map(null, key)):
                continue
            by_rhs: dict[Any, list[int]] = defaultdict(list)
            for tid in tids:
                if lhs_matches(tid):
                    by_rhs[rhs_key(tid)].append(tid)
            if rhs_disagree(by_rhs, null):
                violations.extend(self._group_violation(cfd, pattern, by_rhs, null))
        return violations

    def _group_violation(self, cfd: CFD, pattern: PatternTuple,
                         by_rhs: dict[Any, list[int]],
                         null: Callable[[Any], bool]) -> list[CFDViolation]:
        """One LHS group's violations: the whole group, or each disagreeing pair."""
        if not self._enumerate_pairs:
            members = sorted(tid for tids in by_rhs.values() for tid in tids)
            return [CFDViolation(cfd, pattern, tuple(members))]
        return [CFDViolation(cfd, pattern, (tid_a, tid_b))
                for bucket, other in rhs_bucket_pairs(by_rhs, null)
                for tid_a in bucket for tid_b in other]

    def _index_for(self, attributes: tuple[str, ...]) -> HashIndex:
        return _cached_index(self._indexes, attributes, self._relation, attributes,
                             self._use_columns)


def _cached_index(cache: dict, key: Any, relation: Relation, attributes: Sequence[str],
                  use_columns: bool = True) -> HashIndex:
    """The cached index under *key*, rebuilt when missing, stale or for another relation."""
    index = cache.get(key)
    if index is None or index.relation is not relation or index.is_stale():
        index = cache[key] = HashIndex(relation, list(attributes), use_columns=use_columns)
    elif obs.enabled:
        obs.inc("cache.index.reuse")
    return index


def detect_cfd_violations(relation: Relation, cfds: Sequence[CFD],
                          enumerate_pairs: bool = False,
                          use_columns: bool = True,
                          engine: str | None = None,
                          workers: int | None = None) -> ViolationReport:
    """Convenience wrapper around :class:`CFDDetector`."""
    return CFDDetector(relation, cfds, enumerate_pairs=enumerate_pairs,
                       use_columns=use_columns, engine=engine,
                       workers=workers).detect()


class SQLCFDDetector:
    """SQL-generation based CFD detection (the Semandaq approach).

    Per CFD and pattern, ``Q_single`` selects the tuples matching the LHS
    constants whose RHS disagrees with the RHS constants, and ``Q_group``
    keeps the LHS groups with more than one distinct RHS value.  Both run
    as code-native plans (constant tests, ``IS NOT NULL`` guards and
    ``(A <> c OR A IS NULL)`` are dictionary-code sets); a constant on a
    non-STRING column is written as the typed literal it ``≍``-matches.
    Match-back maps each result row's LHS key to its :class:`HashIndex`
    bucket and re-tests the tids with the shared :class:`CompiledPattern`.
    The SQL engine and indexes are kept across :meth:`detect` calls.  NULLs
    follow SQL: a group whose only disagreement is a NULL RHS is no
    violation (``COUNT(DISTINCT ...)`` skips NULLs), the definition every
    detector shares.
    """

    def __init__(self, database: Database, cfds: Sequence[CFD]) -> None:
        self._database = database
        self._engine = SQLEngine(database)
        self._cfds = list(cfds)
        #: (relation name, LHS) → index, reused across detect() calls.
        self._indexes: dict[tuple[str, tuple[str, ...]], HashIndex] = {}

    # -- SQL generation -----------------------------------------------------------

    def _tests(self, cfd: CFD, attribute: str, constant: Any) -> tuple[str, str] | None:
        """SQL ``(t[A] ≍ c, t[A] is not NULL and not ≍ c)``; ``None`` if no value can match."""
        column = f"t.{attribute}"
        attr_type = self._database.relation(cfd.relation_name).schema.attribute(attribute).type
        value = str(constant) if attr_type is AttributeType.STRING \
            else typed_match(constant, attr_type)
        if is_null(value):
            return None
        if isinstance(value, float) and math.isinf(value):  # no infinity literal
            test = f"{column} {'>' if value > 0 else '<'} " \
                   f"{sql_literal(math.copysign(sys.float_info.max, value))}"
            return test, f"NOT {test}"
        return f"{column} = {sql_literal(value)}", f"{column} <> {sql_literal(value)}"

    def _lhs_conditions(self, cfd: CFD, pattern: PatternTuple) -> list[str] | None:
        """The LHS constant tests; ``None`` when no tuple can match them."""
        tests = [self._tests(cfd, attribute, pattern.constant(attribute))
                 for attribute in cfd.lhs if pattern.is_constant_on(attribute)]
        return None if None in tests else [match for match, _ in tests]

    def single_tuple_sql(self, cfd: CFD, pattern: PatternTuple) -> str | None:
        """The single-tuple violation query, or ``None`` when not applicable."""
        constant_rhs = [a for a in cfd.rhs if pattern.is_constant_on(a)]
        conditions = self._lhs_conditions(cfd, pattern) if constant_rhs else None
        if conditions is None:
            return None
        rhs_tests = [(a, self._tests(cfd, a, pattern.constant(a))) for a in constant_rhs]
        if all(tests is not None for _, tests in rhs_tests):  # else every LHS match disagrees
            conditions.append("(" + " OR ".join(f"({tests[1]} OR t.{a} IS NULL)"
                                                for a, tests in rhs_tests) + ")")
        where = f" WHERE {' AND '.join(conditions)}" if conditions else ""
        return f"SELECT t.* FROM {cfd.relation_name} t{where}"

    def group_sql(self, cfd: CFD, pattern: PatternTuple) -> str | None:
        """The group (pair) violation query, or ``None`` when not applicable."""
        variable_rhs = [a for a in cfd.rhs if not pattern.is_constant_on(a)]
        conditions = self._lhs_conditions(cfd, pattern) if variable_rhs else None
        if conditions is None:
            return None
        null_guards = [f"t.{attribute} IS NOT NULL" for attribute in cfd.lhs]
        where = " AND ".join(conditions + null_guards)
        group_cols = ", ".join(f"t.{attribute}" for attribute in cfd.lhs)
        select_cols = ", ".join(f"t.{a} AS {a}" for a in cfd.lhs)
        having = " OR ".join(f"COUNT(DISTINCT t.{a}) > 1" for a in variable_rhs)
        where_clause = f" WHERE {where}" if where else ""
        return (f"SELECT {select_cols}, COUNT(*) AS cnt FROM {cfd.relation_name} t"
                f"{where_clause} GROUP BY {group_cols} HAVING {having}")

    def generated_queries(self) -> list[str]:
        """All generated SQL texts (useful for inspection and tests)."""
        queries = []
        for cfd in self._cfds:
            for pattern in cfd.tableau:
                for sql in (self.single_tuple_sql(cfd, pattern), self.group_sql(cfd, pattern)):
                    if sql is not None:
                        queries.append(sql)
        return queries

    # -- execution -------------------------------------------------------------------

    def detect(self) -> ViolationReport:
        """Run the generated queries and assemble a violation report."""
        relation_names = {cfd.relation_name for cfd in self._cfds}
        report_name = next(iter(relation_names)) if len(relation_names) == 1 else "multiple"
        total = sum(len(self._database.relation(name)) for name in relation_names)
        report = ViolationReport(report_name, tuples_checked=total)
        with obs.span("detect.sql", relation=report_name):
            for cfd in self._cfds:
                relation = self._database.relation(cfd.relation_name)
                index = _cached_index(self._indexes, (relation.name.lower(), cfd.lhs),
                                      relation, cfd.lhs)
                for compiled in compile_tableau(cfd, relation):
                    pattern = compiled.pattern
                    single_sql = self.single_tuple_sql(cfd, pattern)
                    if single_sql is not None:
                        report.extend(CFDViolation(cfd, pattern, (tid,)) for tid in
                                      self._match_back_single(index, compiled, cfd,
                                                              self._query(single_sql)))
                    group_sql = self.group_sql(cfd, pattern)
                    if group_sql is not None:
                        report.extend(self._match_back_groups(index, compiled, cfd,
                                                              self._query(group_sql)))
            if obs.enabled:
                obs.inc("detect.cfd.violations", len(report.violations))
        return report

    def _query(self, sql: str) -> Relation:
        result = self._engine.query(sql)
        if obs.enabled:
            obs.inc(f"detect.sql.plan.{self._engine.last_plan}")
        return result

    @staticmethod
    def _match_back_single(index: HashIndex, compiled: CompiledPattern, cfd: CFD,
                           result: Relation) -> list[int]:
        """Tids of the single-tuple query's rows, in tid order."""
        positions = result.schema.positions(cfd.lhs)
        keys = {tuple(values[p] for p in positions) for _, values in result.rows_items()}
        return sorted(tid for key in keys for tid in index.lookup_view(key)
                      if compiled.lhs_matches(tid) and not compiled.rhs_constants_match(tid))

    @staticmethod
    def _match_back_groups(index: HashIndex, compiled: CompiledPattern, cfd: CFD,
                           result: Relation) -> list[CFDViolation]:
        """One violation per result group whose matching tuples disagree."""
        width = len(cfd.lhs)
        violations = []
        for _, values in result.rows_items():
            matching = compiled.group_matching(sorted(index.lookup_view(values[:width])))
            if matching is not None and compiled.rhs_disagrees(matching):
                violations.append(CFDViolation(cfd, compiled.pattern, tuple(matching)))
        return violations

