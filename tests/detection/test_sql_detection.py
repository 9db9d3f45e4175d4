"""SQL-generated CFD detection: typed constants, code-native plans, reuse, metrics."""

import pytest

from repro.datagen.customer import CustomerGenerator
from repro.datagen.noise import inject_noise
from repro.detection.cfd_detect import CFDDetector, SQLCFDDetector
from repro.relational.database import Database
from repro.relational.relation import Relation
from repro.relational.schema import Attribute, RelationSchema
from repro.relational.sql.engine import SQLEngine
from repro.relational.types import NULL, AttributeType
from repro.semandaq.session import SemandaqSession

TYPED_SCHEMA = RelationSchema("customer", [
    Attribute("cc"), Attribute("ac", AttributeType.INTEGER), Attribute("city"),
    Attribute("rate", AttributeType.FLOAT), Attribute("vip", AttributeType.BOOLEAN),
])

TYPED_ROWS = [
    ["01", 908, "nyc", 1.5, True],
    ["01", 908, "mh", 1.5, True],
    ["01", 908, "mh", 2.0, False],
    ["01", 212, "nyc", 1.5, NULL],
    ["44", 908, "edi", NULL, True],
    ["01", NULL, "nyc", 2.0, True],
]


def typed_session():
    database = Database()
    database.add(Relation.from_rows(TYPED_SCHEMA, TYPED_ROWS))
    return SemandaqSession(database)


class TestTypedConstants:
    def test_integer_constant_single_tuple_violation(self):
        session = typed_session()
        cfds = session.register_cfds(["customer([cc='01', ac='908'] -> [city='mh'])"])
        direct = CFDDetector(session.database.relation("customer"), cfds).detect()
        assert [v.tids for v in direct.violations] == [(0,)]
        assert session.detect().violations == direct.violations

    @pytest.mark.parametrize("text", [
        "customer([cc='01', ac='908'] -> [city])",
        "customer([ac='908', rate='1.5'] -> [city])",
        "customer([vip='True', cc] -> [city])",
        "customer([cc='01', rate] -> [city='nyc'])",
        "customer([cc] -> [ac='212', city])",
        "customer([cc] -> [rate='2.0'])",
        "customer([cc] -> [vip='False'])",
    ])
    def test_typed_patterns_match_direct_detection(self, text):
        session = typed_session()
        cfds = session.register_cfds([text])
        direct = CFDDetector(session.database.relation("customer"), cfds).detect()
        assert direct.violations
        assert session.detect().violations == direct.violations

    @pytest.mark.parametrize("text", [
        "customer([cc='01', ac='0908'] -> [city='mh'])",
        "customer([rate='1'] -> [city])",
        "customer([vip='true'] -> [city])",
    ])
    def test_unmatchable_lhs_constant_generates_no_query(self, text):
        session = typed_session()
        cfds = session.register_cfds([text])
        assert SQLCFDDetector(session.database, cfds).generated_queries() == []
        assert session.detect().is_clean()
        assert CFDDetector(session.database.relation("customer"), cfds).detect().is_clean()

    def test_unmatchable_rhs_constant_flags_every_lhs_match(self):
        session = typed_session()
        cfds = session.register_cfds(["customer([cc='01'] -> [ac='0212'])"])
        direct = CFDDetector(session.database.relation("customer"), cfds).detect()
        assert [v.tids for v in direct.violations] == [(0,), (1,), (2,), (3,), (5,)]
        assert session.detect().violations == direct.violations

    def test_float_constants_without_plain_decimal_form(self):
        schema = RelationSchema("r", [Attribute("k"), Attribute("x", AttributeType.FLOAT),
                                      Attribute("y")])
        relation = Relation.from_rows(schema, [
            ["a", float("inf"), "p"], ["a", float("inf"), "q"], ["a", float("-inf"), "q"],
            ["a", 1e20, "p"], ["a", 1e-7, "q"], ["b", NULL, "p"]])
        session = SemandaqSession(relation)
        cfds = session.register_cfds([
            "r([x='inf'] -> [y])", "r([k] -> [x='-inf'])",
            "r([x='1e+20'] -> [y='q'])", "r([x='1e-07', k] -> [y='p'])"])
        direct = CFDDetector(relation, cfds).detect()
        assert len(direct.violations) == 8
        assert session.detect().violations == direct.violations

    def test_string_columns_keep_their_sql(self):
        database = Database()
        database.add(CustomerGenerator(seed=3).generate(20))
        detector = SQLCFDDetector(database, CustomerGenerator.canonical_cfds())
        assert detector.generated_queries()[-2:] == [
            "SELECT t.cc AS cc, t.ac AS ac, COUNT(*) AS cnt FROM customer t "
            "WHERE t.cc = '01' AND t.cc IS NOT NULL AND t.ac IS NOT NULL "
            "GROUP BY t.cc, t.ac HAVING COUNT(DISTINCT t.city) > 1",
            "SELECT t.* FROM customer t WHERE t.cc = '01' AND t.ac = '908' "
            "AND ((t.city <> 'mh' OR t.city IS NULL))",
        ]


def noisy_customers(count=300):
    clean = CustomerGenerator(seed=5).generate(count)
    return inject_noise(clean, 0.05, attributes=["street", "city", "zip"], seed=9).dirty


class TestCodeNativePlans:
    def test_every_canonical_query_explains_as_code(self):
        database = Database()
        database.add(noisy_customers())
        detector = SQLCFDDetector(database, CustomerGenerator.canonical_cfds())
        engine = SQLEngine(database)
        queries = detector.generated_queries()
        assert len(queries) == 5
        for sql in queries:
            assert engine.explain(sql).splitlines()[0].startswith("plan: code"), sql

    def test_reports_match_direct_detection_on_noisy_data(self):
        relation = noisy_customers()
        database = Database()
        database.add(relation)
        cfds = CustomerGenerator.canonical_cfds()
        via_sql = SQLCFDDetector(database, cfds).detect()
        direct = CFDDetector(relation, cfds).detect()
        assert via_sql.violations
        assert via_sql.violations == direct.violations


class TestSessionReuse:
    def test_detector_is_kept_until_constraints_change(self):
        session = SemandaqSession(noisy_customers(120))
        session.register_cfds(CustomerGenerator.canonical_cfds()[:2])
        session.detect()
        kept = session._sql_detector
        session.detect()
        assert session._sql_detector is kept
        session.register_cfds(CustomerGenerator.canonical_cfds()[2:])
        assert session._sql_detector is None
        session.detect()
        assert session._sql_detector is not kept

    def test_reused_detector_sees_writes(self):
        session = SemandaqSession(noisy_customers(120))
        cfds = session.register_cfds(CustomerGenerator.canonical_cfds())
        relation = session.database.relation("customer")
        session.detect()
        relation.update(relation.tids()[0], "city", "nowhere")
        relation.delete(relation.tids()[1])
        relation.insert(list(relation.tuple(relation.tids()[2]).values))
        fresh = SQLCFDDetector(session.database, cfds).detect()
        assert session.detect().violations == fresh.violations
