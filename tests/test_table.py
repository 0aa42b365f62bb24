"""Unit tests for repro.storage.table and catalog."""

import pytest

from repro.errors import CatalogError, SchemaError
from repro.storage import Catalog, Column, ColumnType, Schema, Table
from repro.storage.catalog import TableStats
from repro.storage.table import make_table


class TestTable:
    def test_basic_construction(self):
        table = Table(Schema(["a", "b"]), [(1, 2), (3, 4)], name="t")
        assert len(table) == 2
        assert list(table) == [(1, 2), (3, 4)]

    def test_arity_mismatch_rejected(self):
        with pytest.raises(SchemaError):
            Table(Schema(["a", "b"]), [(1,)])

    def test_append_and_extend(self):
        table = Table(Schema(["a"]))
        table.append((1,))
        table.extend([(2,), (3,)])
        assert len(table) == 3

    def test_append_arity_checked(self):
        table = Table(Schema(["a"]))
        with pytest.raises(SchemaError):
            table.append((1, 2))

    def test_bag_equals_ignores_order(self):
        left = Table(Schema(["a"]), [(1,), (2,), (2,)])
        right = Table(Schema(["a"]), [(2,), (1,), (2,)])
        assert left.bag_equals(right)

    def test_bag_equals_respects_multiplicity(self):
        left = Table(Schema(["a"]), [(1,), (1,)])
        right = Table(Schema(["a"]), [(1,)])
        assert not left.bag_equals(right)

    def test_column_values(self):
        table = Table(Schema(["a", "b"]), [(1, "x"), (2, "y")])
        assert table.column_values("b") == ["x", "y"]

    def test_distinct_count_ignores_nulls(self):
        table = Table(Schema(["a"]), [(1,), (1,), (None,), (2,)])
        assert table.distinct_count("a") == 2

    def test_min_max(self):
        table = Table(Schema(["a"]), [(3,), (None,), (1,)])
        assert table.min_max("a") == (1, 3)

    def test_min_max_all_null(self):
        table = Table(Schema(["a"]), [(None,), (None,)])
        assert table.min_max("a") == (None, None)

    def test_pretty_contains_header_and_null(self):
        table = Table(Schema(["col"]), [(None,), (5,)])
        text = table.pretty()
        assert "col" in text
        assert "NULL" in text

    def test_pretty_truncates(self):
        table = Table(Schema(["a"]), [(i,) for i in range(50)])
        assert "more rows" in table.pretty(limit=3)

    def test_csv_roundtrip(self, tmp_path):
        schema = Schema([Column("a", ColumnType.INT), Column("s", ColumnType.STRING)])
        table = Table(schema, [(1, "x"), (None, ""), (3, None)], name="t")
        path = str(tmp_path / "t.csv")
        table.to_csv(path)
        loaded = Table.from_csv(path, schema, name="t")
        # Empty strings and NULLs both round-trip to NULL in CSV.
        assert loaded.rows == [(1, "x"), (None, None), (3, None)]

    def test_csv_roundtrip_infers_the_schema(self, tmp_path):
        table = Table(Schema(["a", "f", "s"]), [(1, 0.5, "x"), (None, 2, None)], name="t")
        path = str(tmp_path / "t.csv")
        table.to_csv(path)
        loaded = Table.from_csv(path, name="t")
        assert [col.type for col in loaded.schema] == [
            ColumnType.INT, ColumnType.FLOAT, ColumnType.STRING,
        ]
        assert loaded.rows == [(1, 0.5, "x"), (None, 2.0, None)]

    def test_csv_without_header_and_schema_is_an_error(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(SchemaError):
            Table.from_csv(str(path))

    def test_csv_header_mismatch(self, tmp_path):
        schema = Schema(["a"])
        table = Table(schema, [(1,)])
        path = str(tmp_path / "t.csv")
        table.to_csv(path)
        with pytest.raises(SchemaError):
            Table.from_csv(path, Schema(["zz"]))

    def test_make_table(self):
        table = make_table("t", [("a", ColumnType.INT)], [(1,)])
        assert table.name == "t"
        assert table.schema.column_type("a") is ColumnType.INT


class TestCatalog:
    def test_register_and_lookup(self):
        catalog = Catalog()
        catalog.register(Table(Schema(["a"]), [(1,)], name="t"))
        assert "t" in catalog
        assert len(catalog.table("t")) == 1

    def test_case_insensitive(self):
        catalog = Catalog()
        catalog.register(Table(Schema(["a"]), [], name="MyTable"))
        assert "mytable" in catalog
        assert catalog.table("MYTABLE") is catalog.table("mytable")

    def test_duplicate_rejected(self):
        catalog = Catalog()
        catalog.register(Table(Schema(["a"]), [], name="t"))
        with pytest.raises(CatalogError):
            catalog.register(Table(Schema(["b"]), [], name="t"))

    def test_replace(self):
        catalog = Catalog()
        catalog.register(Table(Schema(["a"]), [(1,)], name="t"))
        catalog.replace(Table(Schema(["a"]), [(1,), (2,)], name="t"))
        assert len(catalog.table("t")) == 2

    def test_unknown_table(self):
        with pytest.raises(CatalogError, match="unknown table"):
            Catalog().table("nope")

    def test_nameless_rejected(self):
        with pytest.raises(CatalogError):
            Catalog().register(Table(Schema(["a"]), []))

    def test_drop(self):
        catalog = Catalog()
        catalog.register(Table(Schema(["a"]), [], name="t"))
        catalog.drop("t")
        assert "t" not in catalog

    def test_stats_computed_on_register(self):
        catalog = Catalog()
        catalog.register(Table(Schema(["a"]), [(1,), (1,), (None,)], name="t"))
        stats = catalog.stats("t")
        assert stats.row_count == 3
        assert stats.columns["a"].distinct == 1
        assert stats.columns["a"].null_count == 1
        assert stats.columns["a"].min_value == 1

    def test_analyze_refreshes(self):
        catalog = Catalog()
        table = Table(Schema(["a"]), [(1,)], name="t")
        catalog.register(table)
        table.append((2,))
        assert catalog.stats("t").row_count == 1
        catalog.analyze("t")
        assert catalog.stats("t").row_count == 2

    def test_table_names_sorted(self):
        catalog = Catalog()
        catalog.register(Table(Schema(["a"]), [], name="zz"))
        catalog.register(Table(Schema(["a"]), [], name="aa"))
        assert catalog.table_names() == ["aa", "zz"]

    def test_stats_compute_classmethod(self):
        stats = TableStats.compute(Table(Schema(["a"]), [(5,), (7,)]))
        assert stats.columns["a"].max_value == 7
