"""Randomized parity: factorised (semiring) aggregates == enumerated plans.

Grouped statements whose aggregates all fold through a semiring
(COUNT / COUNT DISTINCT / MIN / MAX, and SUM / AVG over exact integer or
boolean values) skip tuple enumeration entirely: the join engines fold
per-table partial aggregates per join-variable binding and combine them
by semiring multiplication (``factorise_plan`` in
``repro.relational.sql.columnar``).  These tests generate random
databases and random *factorisable* grouped queries over two-table hash
joins and chain / star / triangle multiway shapes — NULL join keys,
``NO_PARTNER`` bridge entries, WHERE push-down, HAVING, ORDER BY,
LIMIT — and assert the factorised results are byte-identical to the
enumerated plans (forced via ``columnar.FACTORISE = False``) and to the
row-at-a-time reference, across the serial chunked pool, every chunk
size, and real process pools, with interleaved mutations between
queries.
"""

import random

import pytest

from repro.relational.database import Database
from repro.relational.relation import Relation
from repro.relational.schema import Attribute, RelationSchema
from repro.relational.sql import columnar
from repro.relational.sql.engine import SQLEngine
from repro.relational.types import NULL, AttributeType

ORDERS = RelationSchema("orders", [
    Attribute("city", AttributeType.STRING),
    Attribute("zip", AttributeType.STRING),
    Attribute("country", AttributeType.STRING),
    Attribute("amount", AttributeType.INTEGER),
    Attribute("score", AttributeType.FLOAT),
])
ZIPS = RelationSchema("zips", [
    Attribute("zip", AttributeType.STRING),
    Attribute("region", AttributeType.STRING),
    Attribute("pop", AttributeType.INTEGER),
])
REGIONS = RelationSchema("regions", [
    Attribute("region", AttributeType.STRING),
    Attribute("country", AttributeType.STRING),
    Attribute("gdp", AttributeType.FLOAT),
])
CITIES_SCHEMA = RelationSchema("cities", [
    Attribute("city", AttributeType.STRING),
    Attribute("mayor", AttributeType.STRING),
    Attribute("size", AttributeType.INTEGER),
])

CITY_POOL = ["edi", "ldn", "nyc", "mh", "sfo", "cdg"]
# deliberate partial overlaps: every bridge chain contains NO_PARTNER
# entries and every shared code space misses some values on some side
ZIP_POOL = ["EH8", "07974", "10012", "94107", "100080", "WC1"]
REGION_POOL = ["uk", "us", "cn", "fr"]
COUNTRY_POOL = ["UK", "US", "CN", "FR"]
MAYOR_POOL = ["ada", "bob", "cyd"]


def _orders_row(rng, null_rate=0.1):
    return [
        NULL if rng.random() < null_rate else rng.choice(CITY_POOL[:5]),
        NULL if rng.random() < null_rate else rng.choice(ZIP_POOL[:4]),
        NULL if rng.random() < null_rate else rng.choice(COUNTRY_POOL[:3]),
        NULL if rng.random() < null_rate else rng.randrange(100),
        NULL if rng.random() < null_rate else round(rng.random() * 10, 3),
    ]


def _zips_row(rng, null_rate=0.1):
    return [
        NULL if rng.random() < null_rate else rng.choice(ZIP_POOL[2:]),
        NULL if rng.random() < null_rate else rng.choice(REGION_POOL[:3]),
        NULL if rng.random() < null_rate else rng.randrange(1000),
    ]


def _regions_row(rng, null_rate=0.1):
    return [
        NULL if rng.random() < null_rate else rng.choice(REGION_POOL[1:]),
        NULL if rng.random() < null_rate else rng.choice(COUNTRY_POOL[1:]),
        NULL if rng.random() < null_rate else round(rng.random() * 5, 3),
    ]


def _cities_row(rng, null_rate=0.1):
    return [
        NULL if rng.random() < null_rate else rng.choice(CITY_POOL[2:]),
        NULL if rng.random() < null_rate else rng.choice(MAYOR_POOL),
        NULL if rng.random() < null_rate else rng.randrange(500),
    ]


_MAKERS = {"orders": _orders_row, "zips": _zips_row,
           "regions": _regions_row, "cities": _cities_row}
_SCHEMAS = {"orders": ORDERS, "zips": ZIPS,
            "regions": REGIONS, "cities": CITIES_SCHEMA}


def random_database(seed: int, orders=45, zips=25, regions=15, cities=20) -> Database:
    rng = random.Random(seed)
    database = Database()
    for name, size in (("orders", orders), ("zips", zips),
                       ("regions", regions), ("cities", cities)):
        relation = Relation(_SCHEMAS[name])
        for _ in range(size):
            relation.insert(_MAKERS[name](rng))
        database.add(relation)
    return database


def mutate(database: Database, rng: random.Random, steps: int = 8) -> None:
    """Insert / delete / update random tuples on every relation."""
    for _ in range(steps):
        name = rng.choice(list(_MAKERS))
        maker = _MAKERS[name]
        relation = database.relation(name)
        action = rng.random()
        tids = relation.tids()
        if action < 0.5 or not tids:
            relation.insert(maker(rng))
        elif action < 0.75:
            relation.delete(rng.choice(tids))
        else:
            position = rng.randrange(len(relation.schema.attributes))
            attribute = relation.schema.attributes[position].name
            value = maker(rng, null_rate=0.2)[position]
            relation.update(rng.choice(tids), attribute, value)


def random_where(rng, aliases) -> str:
    choices = {
        "o": [lambda: f"o.amount {rng.choice(['<', '<=', '>', '>='])} "
                      f"{rng.randrange(100)}",
              lambda: f"o.city = '{rng.choice(CITY_POOL)}'",
              lambda: "o.city {} ({})".format(
                  rng.choice(["IN", "NOT IN"]),
                  ", ".join(f"'{c}'" for c in rng.sample(CITY_POOL, 2)))],
        "z": [lambda: f"z.pop {rng.choice(['<', '<=', '>', '>='])} "
                      f"{rng.randrange(1000)}",
              lambda: f"z.region != '{rng.choice(REGION_POOL)}'"],
        "r": [lambda: f"r.gdp {rng.choice(['<', '>'])} {rng.random() * 5:.2f}",
              lambda: f"r.country = '{rng.choice(COUNTRY_POOL)}'"],
        "c": [lambda: f"c.size {rng.choice(['<', '>'])} {rng.randrange(500)}",
              lambda: f"c.mayor != '{rng.choice(MAYOR_POOL)}'"],
    }
    pool = [make for alias in aliases for make in choices[alias]]
    return " AND ".join(rng.choice(pool)() for _ in range(rng.randrange(1, 3)))


#: join shape -> (FROM tables, equi conjuncts, participating aliases);
#: "pair" exercises the two-table hash-join plan, the rest the multiway one
SHAPES = {
    "pair": ("orders o, zips z", ["o.zip = z.zip"], "oz"),
    "chain": ("orders o, zips z, regions r",
              ["o.zip = z.zip", "z.region = r.region"], "ozr"),
    "star": ("orders o, zips z, cities c",
             ["o.zip = z.zip", "o.city = c.city"], "ozc"),
    "triangle": ("orders o, zips z, regions r",
                 ["o.zip = z.zip", "z.region = r.region",
                  "r.country = o.country"], "ozr"),
}

#: group-key columns per alias, all with distinct output names
GROUP_KEYS = {
    "o": ["o.city", "o.zip", "o.amount"],
    "z": ["z.region", "z.pop"],
    "r": ["r.country"],
    "c": ["c.mayor", "c.size"],
}

#: every aggregate here folds exactly through the semiring: COUNT /
#: COUNT DISTINCT / MIN / MAX over anything, SUM / AVG over integers
#: only (float folds stay on the enumerated plans)
FOLDABLE_AGGREGATES = [
    "COUNT(*) AS n", "COUNT(o.amount) AS cnt", "COUNT(z.pop) AS zcnt",
    "COUNT(DISTINCT o.city) AS d", "MIN(o.amount) AS lo",
    "MAX(o.amount) AS olhi", "MAX(z.pop) AS hi", "MIN(o.city) AS first_city",
    "SUM(z.pop) AS s", "SUM(o.amount) AS os", "SUM(DISTINCT o.amount) AS ds",
    "AVG(o.amount) AS oa", "AVG(z.pop) AS za",
]


def random_factorised_query(rng, shape=None) -> str:
    """A grouped query whose aggregates all fold through the semiring."""
    tables, conjuncts, aliases = SHAPES[shape or rng.choice(list(SHAPES))]
    where = list(conjuncts)
    if rng.random() < 0.7:
        where.append(random_where(rng, aliases))
    keys = rng.sample([key for alias in aliases for key in GROUP_KEYS[alias]],
                      rng.randrange(1, 3))
    names = [ref.split(".")[1] for ref in keys]
    aggregates = rng.sample(FOLDABLE_AGGREGATES, rng.randrange(1, 5))
    having = " HAVING COUNT(*) > 1" if rng.random() < 0.3 else ""
    order = f" ORDER BY {names[0]}" if rng.random() < 0.5 else ""
    limit = f" LIMIT {rng.randrange(1, 8)}" if rng.random() < 0.3 else ""
    return (f"SELECT {', '.join(keys + aggregates)} FROM {tables} "
            f"WHERE {' AND '.join(where)} "
            f"GROUP BY {', '.join(names)}{having}{order}{limit}")


def fingerprint(result: Relation):
    return ([a.name for a in result.schema.attributes],
            [a.type for a in result.schema.attributes],
            [t.values for t in result])


def enumerated_fingerprint(engine: SQLEngine, sql: str):
    """Run *sql* with factorisation disabled (the enumerated reference)."""
    saved = columnar.FACTORISE
    columnar.FACTORISE = False
    try:
        return fingerprint(engine.query(sql))
    finally:
        columnar.FACTORISE = saved


class TestRandomizedFactorisedParity:
    @pytest.mark.parametrize("seed", range(6))
    def test_factorised_matches_enumerated_and_row(self, seed):
        rng = random.Random(9000 + seed)
        database = random_database(seed)
        row = SQLEngine(database, use_columns=False)
        code = SQLEngine(database)
        serial = SQLEngine(database, engine="serial")
        factorised = 0
        for _ in range(16):
            sql = random_factorised_query(rng)
            expected = fingerprint(row.query(sql))
            assert enumerated_fingerprint(code, sql) == expected, sql
            assert code.last_plan in ("join", "multiway"), sql
            assert fingerprint(code.query(sql)) == expected, sql
            assert fingerprint(serial.query(sql)) == expected, sql
            factorised += code.last_plan == "factorised"
            mutate(database, rng)
        # every generated query is grouped with foldable aggregates: the
        # only escape hatch is a compile failure to the row path
        assert factorised > 12

    @pytest.mark.parametrize("shape", sorted(SHAPES))
    def test_every_shape_factorises(self, shape):
        rng = random.Random(hash(shape) % 10_000)
        database = random_database(7)
        row = SQLEngine(database, use_columns=False)
        code = SQLEngine(database)
        for _ in range(6):
            sql = random_factorised_query(rng, shape)
            expected = fingerprint(row.query(sql))
            assert fingerprint(code.query(sql)) == expected, sql
            assert code.last_plan == "factorised", sql
            mutate(database, rng)

    def test_null_and_no_partner_keys_fold_identically(self):
        # every orders.zip is NULL or missing from zips: the factorised
        # fold must agree with the enumerated plan on the empty join and
        # on the half-empty one after a repair
        database = Database()
        database.add(Relation.from_rows(ORDERS, [
            ("edi", NULL, "UK", 5, 1.0), ("nyc", "XXXX", "US", 7, 2.0),
            ("sfo", "YYYY", "US", NULL, 3.0)]))
        database.add(Relation.from_rows(ZIPS, [
            ("10012", "us", 100), ("94107", "us", NULL)]))
        row = SQLEngine(database, use_columns=False)
        code = SQLEngine(database)
        sql = ("SELECT z.region, COUNT(*) AS n, SUM(o.amount) AS s, "
               "MIN(o.city) AS lo FROM orders o JOIN zips z "
               "ON o.zip = z.zip GROUP BY region")
        expected = fingerprint(row.query(sql))
        assert fingerprint(code.query(sql)) == expected
        assert code.last_plan == "factorised"
        assert enumerated_fingerprint(code, sql) == expected
        database.relation("orders").update(1, "zip", "10012")
        database.relation("orders").update(2, "zip", "94107")
        expected = fingerprint(row.query(sql))
        assert fingerprint(code.query(sql)) == expected
        assert enumerated_fingerprint(code, sql) == expected

    def test_zero_exec_rows_on_the_factorised_path(self):
        from repro.relational.sql import executor as executor_module

        database = random_database(11)
        code = SQLEngine(database)
        row = SQLEngine(database, use_columns=False)
        sql = ("SELECT o.city, COUNT(*) AS n, SUM(z.pop) AS s, "
               "AVG(o.amount) AS a, COUNT(DISTINCT z.region) AS d "
               "FROM orders o, zips z, regions r "
               "WHERE o.zip = z.zip AND z.region = r.region "
               "AND o.amount BETWEEN 5 AND 90 AND z.region IN ('uk', 'us') "
               "GROUP BY o.city HAVING COUNT(*) > 0 ORDER BY city")
        built = []
        executor_module._exec_row_hook = built.append
        try:
            result = code.query(sql)
        finally:
            executor_module._exec_row_hook = None
        assert code.last_plan == "factorised"
        assert not built  # zero _ExecRow allocations end to end
        assert fingerprint(result) == fingerprint(row.query(sql))

    def test_parallel_factorised_across_real_processes(self, monkeypatch):
        monkeypatch.setenv("REPRO_PARALLEL_THRESHOLD", "0")
        rng = random.Random(777)
        database = random_database(777, orders=40, zips=20, regions=12, cities=15)
        row = SQLEngine(database, use_columns=False)
        parallel = SQLEngine(database, engine="parallel", workers=2)
        for _ in range(8):
            sql = random_factorised_query(rng)
            expected = fingerprint(row.query(sql))
            assert fingerprint(parallel.query(sql)) == expected, sql
            mutate(database, rng)

    @pytest.mark.parametrize("chunks", [1, 2, 7, 1000])
    def test_factorised_chunk_boundaries_are_invisible(self, chunks):
        from repro.engine.executor import SerialPool
        from repro.relational.sql.executor import SQLExecutor
        from repro.relational.sql.parser import parse_sql

        database = random_database(66)
        row = SQLEngine(database, use_columns=False)
        executor = SQLExecutor(database, pool=SerialPool(num_chunks=chunks))
        rng = random.Random(66)
        for _ in range(10):
            sql = random_factorised_query(rng)
            expected = fingerprint(row.query(sql))
            assert fingerprint(executor.execute(parse_sql(sql))) == expected, sql


class TestFactorisedPlanGate:
    def test_float_aggregates_stay_enumerated_with_reason(self):
        database = random_database(3)
        code = SQLEngine(database)
        sql = ("SELECT o.city, AVG(o.score) AS a FROM orders o "
               "JOIN zips z ON o.zip = z.zip GROUP BY city")
        code.query(sql, explain=True)
        assert code.last_plan == "join"
        reasons = code.last_explain["why_not_factorised"]
        assert any("fold order" in reason for reason in reasons)

    def test_ungrouped_statements_stay_enumerated_with_reason(self):
        database = random_database(3)
        code = SQLEngine(database)
        sql = ("SELECT o.city, z.region FROM orders o "
               "JOIN zips z ON o.zip = z.zip")
        code.query(sql, explain=True)
        assert code.last_plan == "join"
        reasons = code.last_explain["why_not_factorised"]
        assert any("no aggregates" in reason for reason in reasons)

    def test_explain_reports_folds_vs_enumerated_tuples(self):
        database = random_database(5)
        code = SQLEngine(database)
        sql = ("SELECT o.city, COUNT(*) AS n, SUM(z.pop) AS s "
               "FROM orders o, zips z, regions r "
               "WHERE o.zip = z.zip AND z.region = r.region GROUP BY city")
        report = code.explain(sql)
        assert code.last_plan == "factorised"
        assert "plan: factorised" in report
        assert "factorised aggregates:" in report
        assert "semiring combine(s)" in report
        assert "trie leaf/leaves folded once each" in report
        block = code.last_explain["factorised"]
        assert block["kind"] == "multiway"
        assert block["combines"] >= block["groups"] >= 1
        assert block["leaves"] >= 1
        assert block["tuples"] >= block["groups"]


def assert_parity(database: Database, sql: str) -> None:
    """Factorised == enumerated == row, in process and at every chunk size."""
    from repro.engine.executor import SerialPool
    from repro.relational.sql.executor import SQLExecutor
    from repro.relational.sql.parser import parse_sql

    expected = fingerprint(SQLEngine(database, use_columns=False).query(sql))
    code = SQLEngine(database)
    assert enumerated_fingerprint(code, sql) == expected, sql
    assert fingerprint(code.query(sql)) == expected, sql
    assert code.last_plan == "factorised", sql
    for chunks in (1, 2, 7, 1000):
        executor = SQLExecutor(database, pool=SerialPool(num_chunks=chunks))
        assert fingerprint(executor.execute(parse_sql(sql))) == expected, (chunks, sql)


class TestFactorisedShapes:
    """Group keys on either side and NULL-heavy keys and arguments."""

    PAIR = "FROM orders o JOIN zips z ON o.zip = z.zip"
    CHAIN = ("FROM orders o, zips z, regions r "
             "WHERE o.zip = z.zip AND z.region = r.region")

    @pytest.mark.parametrize("seed", range(3))
    def test_probe_side_group_keys(self, seed):
        database = random_database(seed, orders=80, zips=30)
        assert_parity(database, "SELECT o.city, o.amount, COUNT(*) AS n, "
                                "SUM(z.pop) AS s, MIN(z.region) AS lo "
                                f"{self.PAIR} GROUP BY city, amount")
        assert_parity(database, "SELECT o.city, COUNT(*) AS n, MAX(z.pop) AS hi, "
                                f"AVG(o.amount) AS a {self.CHAIN} GROUP BY city")

    @pytest.mark.parametrize("seed", range(3))
    def test_mixed_side_group_keys(self, seed):
        database = random_database(seed, orders=80, zips=30)
        assert_parity(database, "SELECT z.region, o.city, COUNT(*) AS n, "
                                "COUNT(DISTINCT o.amount) AS d, SUM(o.amount) AS s "
                                f"{self.PAIR} GROUP BY region, city")
        assert_parity(database, "SELECT r.country, o.city, z.pop, COUNT(*) AS n, "
                                "SUM(o.amount) AS s, MAX(r.country) AS c "
                                f"{self.CHAIN} GROUP BY country, city, pop")

    def test_null_and_no_partner_keys_on_every_join(self):
        # half the orders carry a NULL zip or one zips lacks, half the
        # zips a NULL region or one regions lacks: classes and trie
        # leaves must drop exactly the tuples the enumerated join drops
        rng = random.Random(5)
        database = random_database(5, orders=60, zips=30, regions=12)
        orders = database.relation("orders")
        zips = database.relation("zips")
        for tid in orders.tids()[::2]:
            orders.update(tid, "zip", rng.choice([NULL, "XXXX", "WC1"]))
        for tid in zips.tids()[::2]:
            zips.update(tid, "region", rng.choice([NULL, "atlantis"]))
        assert_parity(database, "SELECT z.region, COUNT(*) AS n, SUM(o.amount) AS s "
                                f"{self.PAIR} GROUP BY region")
        assert_parity(database, "SELECT r.country, COUNT(*) AS n, MIN(o.city) AS c "
                                f"{self.CHAIN} GROUP BY country")

    def test_count_of_null_probe_values(self):
        database = random_database(8, orders=60, zips=25)
        orders = database.relation("orders")
        for tid in orders.tids()[::3]:
            orders.update(tid, "amount", NULL)
        for shape in (self.PAIR, self.CHAIN):
            assert_parity(database, "SELECT o.city, COUNT(o.amount) AS c, "
                                    "COUNT(*) AS n, SUM(o.amount) AS s, "
                                    f"AVG(o.amount) AS a {shape} GROUP BY city")


class TestFactorisedWorkBounds:
    """The folds do work per join key, never per tuple or per candidate.

    No timing: the bounds are counted, so a return to per-candidate
    regrouping (or to one combine per probe tuple) fails here.
    """

    @staticmethod
    def _database(zips: int, orders: int = 400) -> Database:
        # every order meets every zips row of its zip, and every zip
        # meets every regions row of its region: many candidates per level
        database = Database()
        pool = [f"z{i}" for i in range(zips)]
        regions = [f"r{i}" for i in range(max(2, zips // 3))]
        rng = random.Random(zips)
        database.add(Relation.from_rows(ORDERS, [
            (rng.choice(CITY_POOL), rng.choice(pool), rng.choice(COUNTRY_POOL),
             rng.randrange(50), 1.0) for _ in range(orders)]))
        database.add(Relation.from_rows(ZIPS, [
            (rng.choice(pool), rng.choice(regions), rng.randrange(9))
            for _ in range(3 * zips)]))
        database.add(Relation.from_rows(REGIONS, [
            (region, rng.choice(COUNTRY_POOL), 1.0) for region in regions * 2]))
        return database

    CHAIN = ("SELECT r.country, COUNT(*) AS n, SUM(o.amount) AS s, "
             "MAX(z.pop) AS hi FROM orders o, zips z, regions r "
             "WHERE o.zip = z.zip AND z.region = r.region GROUP BY country")

    @pytest.mark.parametrize("zips", [3, 12, 40])
    @pytest.mark.parametrize("factorise", [True, False])
    def test_multiway_indexes_each_table_once_per_query(self, monkeypatch,
                                                        zips, factorise):
        from repro.engine.executor import SerialPool
        from repro.relational.sql.executor import SQLExecutor
        from repro.relational.sql.parser import parse_sql

        built = []
        trie = columnar.multiway_trie
        monkeypatch.setattr(columnar, "multiway_trie",
                            lambda *args: built.append(args[1]) or trie(*args))
        monkeypatch.setattr(columnar, "FACTORISE", factorise)
        database = self._database(zips)
        for pool in (None, SerialPool(num_chunks=7)):
            built.clear()
            executor = SQLExecutor(database, pool=pool)
            executor.execute(parse_sql(self.CHAIN), explain=True)
            levels = executor.last_explain["multiway"]["order"]
            assert levels[0]["candidates"] > 1
            # one trie per table and query, whatever the candidate count
            # and chunking
            assert len(built) == 3

    def test_multiway_workers_never_read_the_tables(self, monkeypatch):
        # the tries carry every tid (probe) and every pre-folded partial
        # (factorised fold): a worker that regrouped tables per candidate
        # would have to read the broadcast code arrays
        from repro.engine import multijoin

        class Unreadable:
            def __getitem__(self, index):
                raise AssertionError("worker read a broadcast code array")

        monkeypatch.setattr(multijoin, "multi_join_state",
                            lambda relations: {multijoin.MULTI_SPEC:
                                               {"tables": Unreadable()}})
        database = self._database(12)
        row = SQLEngine(database, use_columns=False)
        code = SQLEngine(database, engine="sequential")
        plain = ("SELECT o.city, r.country FROM orders o, zips z, regions r "
                 "WHERE o.zip = z.zip AND z.region = r.region")
        for sql, plan in ((self.CHAIN, "factorised"), (plain, "multiway")):
            assert fingerprint(code.query(sql)) == fingerprint(row.query(sql))
            assert code.last_plan == plan

    @pytest.mark.parametrize("probe_key", ["", "o.city, "])
    def test_two_table_fold_combines_classes_times_blocks(self, probe_key):
        database = self._database(8, orders=300)
        sql = (f"SELECT {probe_key}z.pop, COUNT(*) AS n, SUM(o.amount) AS s "
               "FROM orders o JOIN zips z ON o.zip = z.zip "
               f"GROUP BY {probe_key}pop")
        # expected from the rows: probe classes are (zip, probe group
        # codes) among orders with a partner, blocks the distinct pops of
        # a zip's zips rows; one combine per class and block
        orders = database.relation("orders")
        zips = database.relation("zips")
        blocks: dict = {}
        for row in zips.tuples():
            blocks.setdefault(row["zip"], set()).add(row["pop"])
        classes = {(row["zip"], row["city"] if probe_key else None)
                   for row in orders.tuples() if row["zip"] in blocks}
        code = SQLEngine(database, engine="sequential")
        code.query(sql, explain=True)
        assert code.last_plan == "factorised"
        block = code.last_explain["factorised"]
        assert block["classes"] == len(classes)
        assert block["combines"] == sum(len(blocks[zip_]) for zip_, _ in classes)
        assert block["combines"] < block["tuples"]
        # chunks fold their own classes: at most one class per chunk
        # and key, never one per probe tuple
        from repro.engine.executor import SerialPool
        from repro.relational.sql.executor import SQLExecutor
        from repro.relational.sql.parser import parse_sql

        executor = SQLExecutor(database, pool=SerialPool(num_chunks=7))
        executor.execute(parse_sql(sql), explain=True)
        chunked = executor.last_explain["factorised"]
        assert len(classes) <= chunked["classes"] <= 7 * len(classes)
        assert chunked["combines"] <= chunked["classes"] * max(map(len, blocks.values()))
        assert chunked["tuples"] == block["tuples"]
