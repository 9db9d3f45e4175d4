"""Tests for direct and SQL-based CFD violation detection."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.constraints.cfd import CFD
from repro.constraints.parse import parse_cfd
from repro.detection.cfd_detect import CFDDetector, SQLCFDDetector, detect_cfd_violations
from repro.relational.database import Database
from repro.relational.relation import Relation
from repro.relational.schema import Attribute, RelationSchema
from repro.relational.types import NULL


CUSTOMER_SCHEMA = RelationSchema("customer", [
    Attribute("cc"), Attribute("ac"), Attribute("phn"),
    Attribute("city"), Attribute("zip"), Attribute("street"),
])

ROWS = [
    {"cc": "44", "ac": "131", "phn": "1111", "city": "edi", "zip": "EH8", "street": "mayfield"},
    {"cc": "44", "ac": "131", "phn": "2222", "city": "edi", "zip": "EH8", "street": "mayfield"},
    {"cc": "44", "ac": "131", "phn": "3333", "city": "ldn", "zip": "EH8", "street": "crichton"},
    {"cc": "01", "ac": "908", "phn": "4444", "city": "mh", "zip": "07974", "street": "mtn ave"},
    {"cc": "01", "ac": "908", "phn": "4444", "city": "nyc", "zip": "07974", "street": "mtn ave"},
    {"cc": "01", "ac": "212", "phn": "5555", "city": "nyc", "zip": "10012", "street": "bway"},
]


@pytest.fixture
def customer():
    return Relation.from_dicts(CUSTOMER_SCHEMA, ROWS)


@pytest.fixture
def database(customer):
    db = Database()
    db.add(customer)
    return db


UK_CFD = parse_cfd("customer([cc='44', zip] -> [street])")
US_CFD = parse_cfd("customer([cc='01', ac='908', phn] -> [street, city='mh', zip])")


class TestDirectDetection:
    def test_uk_rule_group_violation(self, customer):
        report = detect_cfd_violations(customer, [UK_CFD])
        assert len(report) == 1
        violation = report.violations[0]
        assert violation.is_pair and set(violation.tids) == {0, 1, 2}

    def test_us_rule_single_tuple_violation(self, customer):
        report = detect_cfd_violations(customer, [US_CFD])
        singles = report.single_tuple_violations()
        # tuple 4 has city nyc but the pattern demands mh -> single-tuple violation
        assert {v.tids[0] for v in singles} == {4}
        # tuples 3 and 4 agree on the variable RHS attributes (street, zip), so
        # no additional group violation is reported (the constant attribute
        # city is covered by the single-tuple check, as in Fan et al.'s Q1/Q2).
        assert report.pair_violations() == []
        assert report.violating_tids() == {4}

    def test_clean_relation(self, customer):
        cfd = parse_cfd("customer([cc='86', zip] -> [street])")
        assert detect_cfd_violations(customer, [cfd]).is_clean()

    def test_wildcard_fd_detection(self, customer):
        cfd = CFD.single("customer", ["zip"], ["city"])
        report = detect_cfd_violations(customer, [cfd])
        keys = {tuple(sorted(v.tids)) for v in report}
        assert keys == {(0, 1, 2), (3, 4)}

    def test_null_lhs_groups_are_skipped(self, customer):
        customer.insert_dict({"cc": "44", "zip": NULL, "street": "x"})
        customer.insert_dict({"cc": "44", "zip": NULL, "street": "y"})
        report = detect_cfd_violations(customer, [UK_CFD])
        assert all(NULL not in
                   [customer.tuple(t)["zip"] for t in v.tids] for v in report)

    @pytest.mark.parametrize("use_columns", [True, False])
    def test_null_rhs_disagrees_with_nothing(self, customer, use_columns):
        # SQL's COUNT(DISTINCT street) skips the NULL: no violation yet
        tid = customer.insert_dict({"cc": "44", "zip": "G1", "street": "high st"})
        null_tid = customer.insert_dict({"cc": "44", "zip": "G1", "street": NULL})
        report = detect_cfd_violations(customer, [UK_CFD], use_columns=use_columns)
        assert not any(tid in v.tids for v in report)
        # a second non-NULL street makes the whole group violate, NULL
        # member included, but only the two disagreeing streets pair up
        other = customer.insert_dict({"cc": "44", "zip": "G1", "street": "low st"})
        report = detect_cfd_violations(customer, [UK_CFD], use_columns=use_columns)
        assert (tid, null_tid, other) in {v.tids for v in report}
        pairs = detect_cfd_violations(customer, [UK_CFD], enumerate_pairs=True,
                                      use_columns=use_columns)
        assert (tid, other) in {v.tids for v in pairs}
        assert not any(null_tid in v.tids for v in pairs)

    def test_enumerate_pairs_mode(self, customer):
        report = detect_cfd_violations(customer, [UK_CFD], enumerate_pairs=True)
        # group {0,1} vs {2}: pairs (0,2) and (1,2)
        assert {v.tids for v in report} == {(0, 2), (1, 2)}

    def test_multiple_cfds_accumulate(self, customer):
        report = detect_cfd_violations(customer, [UK_CFD, US_CFD])
        assert len(report) == 2
        assert report.violating_tids() == {0, 1, 2, 4}

    def test_report_summary_and_cells(self, customer):
        report = detect_cfd_violations(customer, [US_CFD])
        assert "single-tuple" in report.summary()
        cells = report.dirty_cells()
        assert (4, "city") in cells

    def test_unknown_attribute_rejected(self, customer):
        bad = CFD.single("customer", ["country"], ["city"])
        with pytest.raises(Exception):
            CFDDetector(customer, [bad])

    def test_detector_reuses_index_across_patterns(self, customer):
        merged = UK_CFD.merge_with(parse_cfd("customer([cc='01', zip] -> [street])"))
        report = CFDDetector(customer, [merged]).detect()
        assert len(report) == 1


class TestSQLDetection:
    def test_generated_queries_shape(self, database):
        detector = SQLCFDDetector(database, [US_CFD])
        queries = detector.generated_queries()
        assert len(queries) == 2
        assert any("GROUP BY" in q for q in queries)
        assert any("<>" in q for q in queries)

    def test_single_query_only_for_constant_rhs(self, database):
        detector = SQLCFDDetector(database, [UK_CFD])
        queries = detector.generated_queries()
        assert len(queries) == 1 and "GROUP BY" in queries[0]

    def test_sql_matches_direct_detection(self, database, customer):
        for cfds in ([UK_CFD], [US_CFD], [UK_CFD, US_CFD]):
            direct = CFDDetector(customer, cfds).detect()
            via_sql = SQLCFDDetector(database, cfds).detect()
            assert direct.violating_tids() == via_sql.violating_tids()
            assert len(direct.single_tuple_violations()) == len(via_sql.single_tuple_violations())

    def test_sql_detection_on_clean_data(self, database):
        cfd = parse_cfd("customer([cc='86', zip] -> [street])")
        assert SQLCFDDetector(database, [cfd]).detect().is_clean()


class TestDetectionProperties:
    """Randomized equivalence between the direct and SQL detection paths."""

    values = st.sampled_from(["a", "b", "c"])
    rows = st.lists(st.tuples(values, values, values), min_size=0, max_size=40)

    @given(rows)
    @settings(max_examples=30, deadline=None)
    def test_direct_and_sql_agree(self, data):
        schema = RelationSchema("r", [Attribute("x"), Attribute("y"), Attribute("z")])
        relation = Relation.from_rows(schema, data)
        db = Database()
        db.add(relation)
        cfds = [
            CFD.single("r", ["x"], ["y"]),
            CFD.single("r", ["x"], ["z"], {"x": "a", "z": "c"}),
        ]
        direct = CFDDetector(relation, cfds).detect()
        via_sql = SQLCFDDetector(db, cfds).detect()
        assert direct.violating_tids() == via_sql.violating_tids()

    @given(rows)
    @settings(max_examples=30, deadline=None)
    def test_violation_free_iff_fd_holds(self, data):
        schema = RelationSchema("r", [Attribute("x"), Attribute("y"), Attribute("z")])
        relation = Relation.from_rows(schema, data)
        cfd = CFD.single("r", ["x"], ["y"])
        report = detect_cfd_violations(relation, [cfd])
        groups = {}
        for x, y, _ in data:
            groups.setdefault(x, set()).add(y)
        clean = all(len(ys) == 1 for ys in groups.values())
        assert report.is_clean() == clean
