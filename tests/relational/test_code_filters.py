"""WHERE conjuncts that compile to dictionary-code sets, checked against the row path.

``IS [NOT] NULL``, ``=`` / ``<>`` on non-STRING columns and an ``OR``
whose operands all test one column run on the code-native plan; each
query here must return exactly the rows (in the same order) of the
row-at-a-time reference executor.  An ``OR`` across two columns must
still fall back, with the reason recorded for EXPLAIN.
"""

import pytest

from repro.relational.database import Database
from repro.relational.relation import Relation
from repro.relational.schema import Attribute, RelationSchema
from repro.relational.sql.engine import SQLEngine
from repro.relational.types import NULL, AttributeType

SCHEMA = RelationSchema("customer", [
    Attribute("cc"), Attribute("city"),
    Attribute("ac", AttributeType.INTEGER), Attribute("rate", AttributeType.FLOAT),
    Attribute("vip", AttributeType.BOOLEAN),
])

ROWS = [
    ["44", "edi", 131, 1.5, True],
    ["44", NULL, 131, NULL, False],
    ["01", "mh", 908, 2.0, NULL],
    ["01", "nyc", NULL, -3.0, True],
    [NULL, "mh", 908, 1.5, False],
    ["01", NULL, 212, 2.0, True],
    ["86", "sh", 2 ** 53, 2.5, False],
]


@pytest.fixture
def database():
    db = Database()
    db.add(Relation.from_rows(SCHEMA, ROWS))
    return db


def run(database, sql, use_columns=True):
    engine = SQLEngine(database, use_columns=use_columns)
    rows = [tuple(row.values) for row in engine.query(sql)]
    return rows, engine.last_plan


@pytest.mark.parametrize("where", [
    "city IS NULL",
    "city IS NOT NULL",
    "(city <> 'mh' OR city IS NULL)",
    "(city = 'mh' OR city = 'edi' OR city IS NULL)",
    "cc = '01' AND (city <> 'mh' OR city IS NULL)",
    "ac = 908",
    "ac <> 908",
    "(ac = 131 OR ac IS NULL)",
    "rate = 1.5",
    "rate = -3",
    "rate <> 2",
    "vip = 1",
    "ac = '908'",
    "city = 5",
    "cc IS NOT NULL AND ac IS NOT NULL",
])
def test_compiled_filter_matches_row_path(database, where):
    sql = f"SELECT * FROM customer WHERE {where}"
    code_rows, plan = run(database, sql)
    row_rows, _ = run(database, sql, use_columns=False)
    assert plan == "code"
    assert code_rows == row_rows


@pytest.mark.parametrize("use_columns", [True, False])
def test_integer_equality_is_exact_beyond_float_precision(database, use_columns):
    sql = "SELECT ac FROM customer WHERE ac = {}"
    assert run(database, sql.format(2 ** 53 + 1), use_columns)[0] == []
    assert run(database, sql.format(2 ** 53), use_columns)[0] == [(2 ** 53,)]


def test_grouped_detection_shape_runs_on_codes(database):
    sql = ("SELECT t.cc AS cc, t.ac AS ac, COUNT(*) AS cnt FROM customer t "
           "WHERE t.cc IS NOT NULL AND t.ac IS NOT NULL GROUP BY t.cc, t.ac "
           "HAVING COUNT(DISTINCT t.city) > 1")
    code_rows, plan = run(database, sql)
    assert plan == "code"
    assert code_rows == run(database, sql, use_columns=False)[0]


def test_is_null_sees_values_written_after_load(database):
    relation = database.relation("customer")
    relation.update(0, "city", NULL)
    relation.insert(["86", NULL, 10, 0.5, False])
    sql = "SELECT cc FROM customer WHERE city IS NULL"
    assert run(database, sql) == (run(database, sql, use_columns=False)[0], "code")


def test_cross_column_or_falls_back_with_reason(database):
    sql = "SELECT * FROM customer WHERE cc = '01' OR city = 'mh'"
    engine = SQLEngine(database)
    rows = [tuple(row.values) for row in engine.query(sql, explain=True)]
    assert engine.last_plan == "row"
    assert rows == run(database, sql, use_columns=False)[0]
    reasons = engine.last_explain["why_not_code"]
    assert any("OR across columns cc, city" in reason for reason in reasons)
    assert "plan: row" in engine.explain(sql)
