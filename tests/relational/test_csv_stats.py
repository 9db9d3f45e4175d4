"""Tests for CSV import/export and relation statistics."""

import pytest

from repro.errors import SchemaError
from repro.relational.csvio import read_csv, relation_from_csv, relation_to_csv
from repro.relational.relation import Relation
from repro.relational.schema import Attribute, RelationSchema
from repro.relational.stats import collect_stats
from repro.relational.types import NULL, AttributeType, is_null

CSV_TEXT = """cc,ac,phn,city,zip
44,131,5551234,edi,EH8
44,131,5555678,edi,EH8
01,908,5559999,mh,07974
01,908,,mh,07974
"""


class TestCSV:
    def test_infers_schema_from_header(self):
        relation = relation_from_csv(CSV_TEXT, "customer")
        assert relation.schema.attribute_names == ("cc", "ac", "phn", "city", "zip")
        assert len(relation) == 4

    def test_missing_field_becomes_null(self):
        relation = relation_from_csv(CSV_TEXT, "customer")
        phones = relation.column("phn")
        assert sum(1 for value in phones if is_null(value)) == 1

    def test_explicit_schema_forces_types(self):
        schema = RelationSchema("customer", [
            Attribute("cc", AttributeType.STRING),
            Attribute("ac", AttributeType.STRING),
            Attribute("phn", AttributeType.STRING),
            Attribute("city", AttributeType.STRING),
            Attribute("zip", AttributeType.STRING),
        ])
        relation = relation_from_csv(CSV_TEXT, "customer", schema=schema)
        assert relation.tuples()[0]["cc"] == "44"

    def test_schema_arity_mismatch_raises(self):
        schema = RelationSchema("customer", [Attribute("only_one")])
        with pytest.raises(SchemaError):
            relation_from_csv(CSV_TEXT, "customer", schema=schema)

    def test_empty_csv_raises(self):
        with pytest.raises(SchemaError):
            relation_from_csv("", "empty")

    def test_roundtrip_through_files(self, tmp_path):
        relation = relation_from_csv(CSV_TEXT, "customer")
        path = tmp_path / "customer.csv"
        relation_to_csv(relation, path)
        back = read_csv(path, "customer")
        assert len(back) == len(relation)
        assert back.schema.attribute_names == relation.schema.attribute_names

    def test_leading_zeros_survive_load_and_write(self, tmp_path):
        # cc holds 01 and zip holds 07974: both stay text, so the file
        # written back is the file read, byte for byte
        path = tmp_path / "customer.csv"
        path.write_text(CSV_TEXT, encoding="utf-8")
        relation = read_csv(path, "customer")
        types = {a.name: a.type for a in relation.schema.attributes}
        assert types["cc"] is AttributeType.STRING
        assert types["zip"] is AttributeType.STRING
        assert types["ac"] is AttributeType.INTEGER
        assert relation.tuples()[2]["cc"] == "01"
        out = tmp_path / "out.csv"
        relation_to_csv(relation, out)
        assert out.read_text(encoding="utf-8") == CSV_TEXT

    def test_nulls_written_as_empty_fields(self):
        schema = RelationSchema("r", [Attribute("a"), Attribute("b")])
        relation = Relation.from_dicts(schema, [{"a": "x", "b": NULL}])
        text = relation_to_csv(relation)
        assert text.splitlines()[1] == "x,"


class TestStats:
    def test_collect_stats(self):
        relation = relation_from_csv(CSV_TEXT, "customer")
        stats = collect_stats(relation)
        assert stats.tuple_count == 4
        city = stats.column("city")
        assert city.distinct == 2
        assert city.most_common in ("edi", "mh")
        assert city.most_common_count == 2

    def test_null_fraction(self):
        relation = relation_from_csv(CSV_TEXT, "customer")
        stats = collect_stats(relation)
        assert stats.column("phn").null_fraction == pytest.approx(0.25)
        assert stats.column("cc").null_fraction == 0.0

    def test_empty_relation_stats(self):
        schema = RelationSchema("r", [Attribute("a")])
        stats = collect_stats(Relation(schema))
        assert stats.tuple_count == 0
        assert stats.column("a").distinct_fraction == 0.0
