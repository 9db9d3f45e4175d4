"""CIND violation detection across two relations.

A CIND ``(R1[X; Xp] ⊆ R2[Y; Yp])`` is violated by an ``R1`` tuple that
matches the condition pattern ``Xp`` but has no ``R2`` partner that agrees
on the correspondence attributes *and* carries the consequence pattern
``Yp``.  Detection is a hash anti-join: index the qualifying ``R2`` tuples
on ``Y`` once, then scan the qualifying ``R1`` tuples.

The default implementation is columnar: pattern constants are pre-encoded
to dictionary-code sets on each side, the scans read integer code arrays,
and the cross-relation correspondence keys are *bridged codes* — string-mode
:class:`~repro.relational.columns.DictionaryBridge` translations map both
sides into one canonical code space, so the anti-join compares small
integer tuples and never materialises a string per tuple.
``use_columns=False`` restores the row-at-a-time scan; both produce
identical reports.  ``engine=``/``workers=`` route the columnar anti-join
through the chunked execution engine (:mod:`repro.engine`): both sides
are scanned chunk-by-chunk (optionally in a process pool) and the
qualifying RHS keys are merged before the anti-join — still the same
report, byte for byte.

For reference (and for the SQL-generation tests) the detector can also
emit the SQL the Semandaq system would issue; since the library's SQL
dialect has no ``NOT EXISTS``, that text is produced for documentation and
the execution path always uses the anti-join.
"""

from __future__ import annotations

from typing import Sequence

from repro import obs
from repro.constraints.cind import CIND
from repro.constraints.tableau import PatternTuple
from repro.constraints.violations import CINDViolation, ViolationReport
from repro.detection.columnar import NULL_CODE, constant_code_set
from repro.engine.detect import ChunkedCINDEngine
from repro.engine.executor import resolve_pool
from repro.relational.database import Database
from repro.relational.relation import Relation
from repro.relational.sql.tokenizer import sql_literal
from repro.relational.types import is_null


class CINDDetector:
    """Detects violations of a set of CINDs on a database."""

    def __init__(self, database: Database, cinds: Sequence[CIND],
                 use_columns: bool = True,
                 engine: str | None = None, workers: int | None = None,
                 task_timeout: float | None = None,
                 task_retries: int | None = None) -> None:
        for cind in cinds:
            cind.validate_against(database)
        self._database = database
        self._cinds = list(cinds)
        self._use_columns = use_columns
        # the chunked engine only exists for the columnar representation
        self._pool = (resolve_pool(engine, workers, task_timeout=task_timeout,
                                   task_retries=task_retries)
                      if use_columns else None)
        self._chunked: "ChunkedCINDEngine | None" = None

    def detect(self) -> ViolationReport:
        """Detect all violations of all configured CINDs."""
        with obs.span("detect.cind"):
            names = {cind.lhs_relation for cind in self._cinds}
            report_name = next(iter(names)) if len(names) == 1 else "multiple"
            total = sum(len(self._database.relation(name)) for name in names)
            report = ViolationReport(report_name, tuples_checked=total)
            if self._pool is not None:
                for violations in self._engine().detect():
                    report.extend(violations)
            else:
                for cind in self._cinds:
                    report.extend(self.detect_one(cind))
            if obs.enabled:
                obs.inc("detect.cind.violations", len(report.violations))
            return report

    def detect_one(self, cind: CIND) -> list[CINDViolation]:
        """Violations of a single CIND."""
        if self._pool is not None:
            for position, registered in enumerate(self._cinds):
                if registered is cind or registered == cind:
                    return self._engine().detect([position])[0]
            return ChunkedCINDEngine(self._database, [cind], self._pool).detect()[0]
        left = self._database.relation(cind.lhs_relation)
        right = self._database.relation(cind.rhs_relation)
        if self._use_columns:
            return self._detect_one_columnar(cind, left, right)
        return self._detect_one_rows(cind, left, right)

    def _engine(self) -> "ChunkedCINDEngine":
        if self._chunked is None:
            self._chunked = ChunkedCINDEngine(self._database, self._cinds, self._pool)
        return self._chunked

    @staticmethod
    def _compile_pattern(relation: Relation,
                         pattern: PatternTuple) -> list[tuple[list[int], set[int]]]:
        """Code-level tests for a pattern's constants against one relation."""
        store = relation.columns
        tests = []
        for attribute, constant in pattern.constants().items():
            column = store.column(attribute)
            tests.append((column.codes, constant_code_set(column, constant)))
        return tests

    def _detect_one_columnar(self, cind: CIND, left: Relation,
                             right: Relation) -> list[CINDViolation]:
        """Bridged-code anti-join: no string tuple is ever materialised.

        CIND correspondence compares keys by string equality — an
        equivalence relation per attribute — so comparisons run entirely
        on *canonical* codes: each RHS code maps through a string-mode
        self-bridge to the first RHS code sharing its string, and each
        LHS code maps through a string-mode cross-bridge to that same
        canonical RHS code (or :data:`~repro.relational.columns.NO_PARTNER`
        when the RHS dictionary lacks the string — which already proves
        the violation).  An LHS key matches some RHS key iff the
        canonical code tuples are equal, so the code-level anti-join is
        exact.
        """
        rhs_tests = self._compile_pattern(right, cind.rhs_pattern)
        rhs_columns = [right.columns.column(a) for a in cind.rhs_attributes]
        rhs_arrays = [column.codes for column in rhs_columns]
        rhs_canons = [column.bridge_to(column, mode="string").translation
                      for column in rhs_columns]

        right_keys: set[tuple[int, ...]] = set()
        for tid in right.tids():
            if any(codes[tid] not in allowed for codes, allowed in rhs_tests):
                continue
            key_codes = [codes[tid] for codes in rhs_arrays]
            if NULL_CODE in key_codes:
                continue
            right_keys.add(tuple(canon[code]
                                 for canon, code in zip(rhs_canons, key_codes)))

        lhs_tests = self._compile_pattern(left, cind.lhs_pattern)
        lhs_columns = [left.columns.column(a) for a in cind.lhs_attributes]
        lhs_arrays = [column.codes for column in lhs_columns]
        bridges = [lhs_column.bridge_to(rhs_column, mode="string").translation
                   for lhs_column, rhs_column in zip(lhs_columns, rhs_columns)]

        violations: list[CINDViolation] = []
        for tid in left.tids():
            if any(codes[tid] not in allowed for codes, allowed in lhs_tests):
                continue
            key_codes = [codes[tid] for codes in lhs_arrays]
            if NULL_CODE in key_codes:
                violations.append(CINDViolation(cind, tid))
                continue
            key = tuple(bridge[code] for bridge, code in zip(bridges, key_codes))
            if key not in right_keys:  # NO_PARTNER components always miss
                violations.append(CINDViolation(cind, tid))
        return violations

    def _detect_one_rows(self, cind: CIND, left: Relation,
                         right: Relation) -> list[CINDViolation]:
        """Row-at-a-time anti-join (the pre-columnar baseline)."""
        right_keys: set[tuple[str, ...]] = set()
        for row in right:
            if not cind.rhs_satisfied_by(row):
                continue
            key = row.project(list(cind.rhs_attributes))
            if any(is_null(v) for v in key):
                continue
            right_keys.add(tuple(str(v) for v in key))

        violations: list[CINDViolation] = []
        for row in left:
            if not cind.applies_to(row):
                continue
            key = row.project(list(cind.lhs_attributes))
            if any(is_null(v) for v in key):
                violations.append(CINDViolation(cind, row.tid))
                continue
            if tuple(str(v) for v in key) not in right_keys:
                violations.append(CINDViolation(cind, row.tid))
        return violations

    # -- SQL text (reference output, matching the Semandaq demo) --------------------

    def reference_sql(self, cind: CIND) -> str:
        """The NOT EXISTS query Semandaq would issue for *cind* (reference only)."""
        lhs_conditions = [
            f"l.{attribute} = {sql_literal(str(value))}"
            for attribute, value in cind.lhs_pattern.constants().items()
        ]
        rhs_conditions = [
            f"r.{attribute} = {sql_literal(str(value))}"
            for attribute, value in cind.rhs_pattern.constants().items()
        ]
        correspondence = [
            f"r.{right} = l.{left}"
            for left, right in zip(cind.lhs_attributes, cind.rhs_attributes)
        ]
        where = " AND ".join(lhs_conditions) if lhs_conditions else "1 = 1"
        inner = " AND ".join(correspondence + rhs_conditions)
        return (f"SELECT l.* FROM {cind.lhs_relation} l WHERE {where} "
                f"AND NOT EXISTS (SELECT 1 FROM {cind.rhs_relation} r WHERE {inner})")


def detect_cind_violations(database: Database, cinds: Sequence[CIND]) -> ViolationReport:
    """Convenience wrapper around :class:`CINDDetector`."""
    return CINDDetector(database, cinds).detect()
