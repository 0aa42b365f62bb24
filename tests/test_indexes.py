"""Secondary indexes: DDL, structures, maintenance, planning, execution.

Covers the access-path subsystem end to end — the storage structures
(hash buckets, key-sorted positions) with their 3VL NULL handling,
CREATE/DROP INDEX through the SQL front end, DML maintenance (the
incremental INSERT path and the rebuild path), the optimizer's
access-path selection, both engines' index operators, and the plan-cache
epoch that makes index DDL invalidate cached plans.
"""

import threading
from collections import Counter

import pytest

from repro import Database, EvalOptions
from repro.errors import CatalogError, ParseError
from repro.optimizer import execute_sql
from repro.optimizer.access import choose_access_paths
from repro.sql import ast
from repro.sql.parser import parse_any
from repro.storage import Catalog, HashIndex, Schema, SortedIndex, Table
from repro.storage.index import probe_bounds

from .conftest import make_rst_catalog

NESTED_SQL = """SELECT DISTINCT * FROM r
    WHERE A1 = (SELECT COUNT(DISTINCT *) FROM s WHERE A2 = B2)
       OR A4 > 1500"""


def make_db(**kwargs) -> Database:
    db = Database()
    catalog = make_rst_catalog(**kwargs)
    for name in catalog.table_names():
        db.register(catalog.table(name))
    db.analyze()
    return db


# ---------------------------------------------------------------------------
# DDL front end
# ---------------------------------------------------------------------------


class TestIndexDdl:
    def test_parse_create_index_defaults_to_hash(self):
        stmt = parse_any("CREATE INDEX idx ON s (B2)")
        # The lexer case-folds identifiers; the catalog resolves the
        # column case-insensitively against the schema.
        assert stmt == ast.CreateIndexStmt("idx", "s", "b2", "hash")

    def test_parse_create_index_using(self):
        stmt = parse_any("CREATE INDEX idx ON r (A4) USING sorted")
        assert stmt == ast.CreateIndexStmt("idx", "r", "a4", "sorted")

    def test_parse_drop_index(self):
        assert parse_any("DROP INDEX idx") == ast.DropIndexStmt("idx")

    def test_parse_errors(self):
        with pytest.raises(ParseError):
            parse_any("CREATE INDEX idx ON s")  # missing column list
        with pytest.raises(ParseError):
            parse_any("CREATE idx")

    def test_execute_create_and_drop(self):
        db = make_db()
        result = db.execute("CREATE INDEX idx_b2 ON s (B2)")
        assert result.rows == [(0,)]
        [info] = db.indexes()
        assert (info["name"], info["table"], info["column"], info["kind"]) == (
            "idx_b2", "s", "B2", "hash"
        )
        db.execute("DROP INDEX idx_b2")
        assert db.indexes() == []

    def test_create_rejects_duplicates_and_unknown_columns(self):
        db = make_db()
        db.execute("CREATE INDEX idx ON s (B2)")
        with pytest.raises(CatalogError):
            db.execute("CREATE INDEX idx ON s (B3)")  # duplicate name
        with pytest.raises(CatalogError) as excinfo:
            db.execute("CREATE INDEX other ON s (nope)")
        assert "B1" in str(excinfo.value)  # error lists real columns
        with pytest.raises(CatalogError):
            db.execute("CREATE INDEX k ON s (B2) USING btree")  # unknown kind

    def test_drop_unknown_index(self):
        db = make_db()
        with pytest.raises(CatalogError):
            db.execute("DROP INDEX ghost")

    def test_column_name_is_case_insensitive(self):
        db = make_db()
        db.execute("CREATE INDEX idx ON s (b2)")
        assert db.indexes()[0]["column"] == "B2"


# ---------------------------------------------------------------------------
# Storage structures
# ---------------------------------------------------------------------------


def one_column_table(values, name="u"):
    catalog = Catalog()
    table = Table(Schema(["K"]), [(v,) for v in values], name=name)
    catalog.register(table, analyze=False)  # mixed-type values allowed
    return catalog, table


class TestHashIndex:
    def test_buckets_exclude_nulls(self):
        catalog, table = one_column_table([1, None, 2, 1, None])
        index = catalog.create_index("idx", "u", "K", "hash")
        assert isinstance(index, HashIndex)
        assert index.eq_positions(1) == (0, 3)
        assert index.eq_positions(2) == (2,)
        assert index.eq_positions(None) == ()  # NULL never matches
        assert index.eq_positions(99) == ()

    def test_unhashable_probe_matches_nothing(self):
        catalog, _ = one_column_table([1, 2])
        index = catalog.create_index("idx", "u", "K", "hash")
        assert index.eq_positions([1]) == ()

    def test_incremental_extend_on_append(self):
        catalog, table = one_column_table([1, 2])
        index = catalog.create_index("idx", "u", "K", "hash")
        base_version = table.version
        table.extend([(1,), (None,)])
        catalog.note_appends("u", 2, base_version)
        assert index.version == table.version
        assert index.eq_positions(1) == (0, 2)


class TestSortedIndex:
    def test_probe_bounds_inclusiveness(self):
        catalog, _ = one_column_table(list(range(10)))
        index = catalog.create_index("idx", "u", "K", "sorted")
        assert isinstance(index, SortedIndex)
        assert probe_bounds(index, ((">", 3), ("<=", 6))).positions == (4, 5, 6)
        assert probe_bounds(index, ((">=", 3), ("<", 6))).positions == (3, 4, 5)
        assert probe_bounds(index, (("=", 4),)).positions == (4,)

    def test_range_probe_examines_only_its_matches(self):
        values = [(7 * i) % 1024 for i in range(1024)]  # unclustered
        catalog, _ = one_column_table(values)
        index = catalog.create_index("idx", "u", "K", "sorted")
        lookup = probe_bounds(index, ((">=", 0), ("<", 5)))
        # exactly the scan's answer, in physical (not key) order
        assert lookup.positions == tuple(p for p, v in enumerate(values) if 0 <= v < 5)
        assert [values[p] for p in lookup.positions] == [0, 3, 1, 4, 2]
        assert lookup.rows_examined == len(lookup.positions) == 5
        assert lookup.rows_skipped == 1024 - 5

    def test_null_keys_are_never_indexed(self):
        values = [None] * 300 + [1, None, 2, None, 3]
        catalog, table = one_column_table(values)
        index = catalog.create_index("idx", "u", "K", "sorted")
        assert index.info()["entries"] == 3
        for bounds in (((">=", 1),), (("<", 99),), ((">", 0), ("<=", 3))):
            lookup = probe_bounds(index, bounds)
            assert lookup.positions == (300, 302, 304)
            assert lookup.rows_examined == 3
            assert lookup.rows_skipped == len(table.rows) - 3

    def test_null_probe_value_returns_empty(self):
        catalog, table = one_column_table(list(range(20)))
        index = catalog.create_index("idx", "u", "K", "sorted")
        lookup = probe_bounds(index, ((">=", None),))
        assert lookup.positions == ()
        assert lookup.rows_skipped == len(table.rows)

    def test_extend_rebuilds_only_the_tail(self):
        """An INSERT's tail is merged into the sorted entries, no rebuild."""
        catalog, table = one_column_table(list(range(0, 40, 2)))
        index = catalog.create_index("idx", "u", "K", "sorted")
        start, base_version = len(table.rows), table.version
        table.extend([(7,), (None,), (4,), (100,)])
        catalog.note_appends("u", start, base_version)
        assert index.version == table.version
        assert probe_bounds(index, ((">=", 4), ("<=", 8))).positions == (
            2, 3, 4, start, start + 2
        )
        assert index.eq_positions(4) == (2, start + 2)  # ties in physical order
        assert probe_bounds(index, ((">", 38),)).positions == (start + 3,)

    def test_extend_with_an_unorderable_key_degrades_to_equality_only(self):
        catalog, table = one_column_table([3, 1, 2])
        index = catalog.create_index("idx", "u", "K", "sorted")
        base_version = table.version
        table.append(("b",))
        catalog.note_appends("u", 3, base_version)
        assert index.eq_positions("b") == (3,)
        assert index.eq_positions(1) == (1,)
        with pytest.raises(TypeError):
            probe_bounds(index, ((">=", 1),))

    def test_mixed_type_column_matches_full_scan_semantics(self):
        catalog, _ = one_column_table([1, "b", 2])
        index = catalog.create_index("idx", "u", "K", "sorted")
        # Equality uses only ``==`` (total), like a full scan would.
        assert index.eq_positions("b") == (1,)
        assert index.eq_positions(3) == ()
        # A mixed-type *range* raises, exactly like a full scan.
        with pytest.raises(TypeError):
            index.range_positions("a", True, None, True)
        # ...and so does a bound the (orderable) keys cannot be compared to,
        # while equality on it simply matches nothing.
        catalog, _ = one_column_table([1, 2, 3], name="v")
        ints = catalog.create_index("idx_v", "v", "K", "sorted")
        assert ints.eq_positions("b") == ()
        with pytest.raises(TypeError):
            probe_bounds(ints, ((">=", "a"),))


# ---------------------------------------------------------------------------
# Maintenance: DML, replace, drop
# ---------------------------------------------------------------------------


class TestMaintenance:
    def test_insert_uses_incremental_path(self):
        db = make_db()
        db.execute("CREATE INDEX idx_b2 ON s (B2)")
        index = db.catalog.index("idx_b2")
        baseline = len(db.execute("SELECT * FROM s WHERE B2 = 5").rows)
        db.execute("INSERT INTO s VALUES (999, 5, 0, 0)")
        assert index.version == db.table("s").version  # maintained eagerly
        after = db.execute("SELECT * FROM s WHERE B2 = 5")
        assert len(after.rows) == baseline + 1

    def test_insert_leaves_an_already_stale_index_stale(self):
        """The INSERT fast path may only extend an index that was current
        just before the statement: one that an out-of-protocol append had
        already left behind is missing more than the statement's tail."""
        db = Database()
        db.create_table("t", ["a", "b"], [(1, 10), (2, 20)])
        db.execute("CREATE INDEX t_a ON t (a)")
        index = db.catalog.index("t_a")
        db.table("t").append((3, 30))  # out of protocol: nobody tells the index
        db.execute("INSERT INTO t VALUES (4, 40)")
        assert index.version != db.table("t").version  # not stamped current
        assert execute_sql("SELECT b FROM t WHERE a = 3", db.catalog).rows == [(30,)]
        assert execute_sql("SELECT b FROM t WHERE a = 4", db.catalog).rows == [(40,)]
        assert index.eq_positions(3) == (2,)  # the probe rebuilt it
        assert index.eq_positions(4) == (3,)

    def test_delete_and_update_rebuild(self):
        db = make_db()
        db.execute("CREATE INDEX idx_b2 ON s (B2)")
        db.execute("CREATE INDEX idx_b4 ON r (A4) USING sorted")
        db.execute("DELETE FROM s WHERE B2 = 1")
        assert db.execute("SELECT COUNT(*) FROM s WHERE B2 = 1").rows == [(0,)]
        db.execute("UPDATE r SET A4 = 9999 WHERE A4 > 2000")
        high = db.execute("SELECT COUNT(*) FROM r WHERE A4 > 2000").rows[0][0]
        nines = db.execute("SELECT COUNT(*) FROM r WHERE A4 = 9999").rows[0][0]
        assert high == nines  # every survivor of > 2000 is now 9999

    def test_replace_and_drop_table_purge_indexes(self):
        db = make_db()
        db.execute("CREATE INDEX idx_b2 ON s (B2)")
        stamp = db.catalog.stamp("s")
        # Replacement has drop-and-create semantics: the index described
        # the old table object, so it goes with it.
        db.catalog.replace(Table(Schema(["B1", "B2"]), [(1, 2)], name="s"))
        assert db.indexes() == []
        assert db.catalog.stamp("s") != stamp

    def test_dml_then_query_race(self):
        """Stale batch/plan caches must not serve index-backed plans."""
        db = make_db()
        db.execute("CREATE INDEX idx_b2 ON s (B2)")
        sql = "SELECT COUNT(*) FROM s WHERE B2 = 3"
        for options in (None, EvalOptions(vectorized=True)):
            db.execute(sql, options=options)  # warm plans + batch caches
        before = db.execute(sql).rows[0][0]
        db.execute("INSERT INTO s VALUES (77, 3, 0, 0)")
        for options in (None, EvalOptions(vectorized=True)):
            assert db.execute(sql, options=options).rows == [(before + 1,)]
        db.execute("DELETE FROM s WHERE B2 = 3")
        for options in (None, EvalOptions(vectorized=True)):
            assert db.execute(sql, options=options).rows == [(0,)]

    def test_threaded_queries_during_dml(self):
        db = make_db(n_s=200)
        db.execute("CREATE INDEX idx_b2 ON s (B2)")
        sql = "SELECT COUNT(*) FROM s WHERE B2 = 2"
        errors: list[BaseException] = []

        def reader():
            try:
                for _ in range(20):
                    count = db.execute(sql).rows[0][0]
                    assert count >= 0
            except BaseException as error:  # noqa: BLE001 - collected
                errors.append(error)

        threads = [threading.Thread(target=reader) for _ in range(4)]
        for thread in threads:
            thread.start()
        for i in range(10):
            db.execute(f"INSERT INTO s VALUES ({1000 + i}, 2, 0, 0)")
        for thread in threads:
            thread.join()
        assert not errors


# ---------------------------------------------------------------------------
# Planning
# ---------------------------------------------------------------------------


class TestPlanning:
    def test_access_pass_is_identity_without_indexes(self):
        db = make_db()
        planned = db.plan(NESTED_SQL, "canonical")
        assert choose_access_paths(planned.logical, db.catalog) is planned.logical

    def test_correlated_subquery_gets_index_scan(self):
        db = make_db()
        db.execute("CREATE INDEX idx_b2 ON s (B2)")
        assert "IndexScan(s" in db.explain(NESTED_SQL, "canonical")

    def test_range_predicate_gets_sorted_index_scan(self):
        db = make_db()
        db.execute("CREATE INDEX idx_a4 ON r (A4) USING sorted")
        plan = db.explain("SELECT * FROM r WHERE A4 > 1500 AND A4 <= 2500 AND A1 = 0")
        assert "IndexScan(r" in plan
        assert "A4 > 1500" in plan and "A4 <= 2500" in plan  # merged range
        assert "residual" in plan  # A1 = 0 stays as a residual filter

    def test_hash_index_does_not_serve_ranges(self):
        db = make_db()
        db.execute("CREATE INDEX idx_a4 ON r (A4)")  # hash on A4
        assert "IndexScan" not in db.explain("SELECT * FROM r WHERE A4 > 1500")

    def test_equality_prefers_hash_over_sorted(self):
        db = make_db()
        db.execute("CREATE INDEX idx_sorted ON s (B2) USING sorted")
        db.execute("CREATE INDEX idx_hash ON s (B2)")
        assert "idx_hash:hash" in db.explain("SELECT * FROM s WHERE B2 = 3")

    def test_selective_left_side_gets_index_nl_join(self):
        db = Database()
        db.create_table(
            "l", ["L1", "L2"], [(i, i % 5) for i in range(4)]
        )
        db.create_table(
            "b", ["R1", "R2"], [(i % 97, i) for i in range(3000)]
        )
        db.analyze()
        db.execute("CREATE INDEX idx_r1 ON b (R1)")
        plan = db.explain("SELECT * FROM l, b WHERE L2 = R1")
        assert "IndexNLJoin" in plan
        rows = db.execute("SELECT * FROM l, b WHERE L2 = R1")
        expected = [
            left + right
            for left in db.table("l").rows
            for right in db.table("b").rows
            if left[1] == right[0]
        ]
        assert sorted(rows.rows) == sorted(expected)

    def test_large_left_side_keeps_hash_join(self):
        db = Database()
        db.create_table("l", ["L1", "L2"], [(i, i % 5) for i in range(2000)])
        db.create_table("b", ["R1", "R2"], [(i % 5, i) for i in range(2000)])
        db.analyze()
        db.execute("CREATE INDEX idx_r1 ON b (R1)")
        assert "IndexNLJoin" not in db.explain("SELECT * FROM l, b WHERE L2 = R1")

    def test_projection_pushdown_narrows_index_scan(self):
        db = make_db()
        db.execute("CREATE INDEX idx_b2 ON s (B2)")
        plan = db.explain("SELECT B4 FROM s WHERE B2 = 3")
        assert "cols 2/4" in plan  # key + projected column only
        assert sorted(db.execute("SELECT B4 FROM s WHERE B2 = 3").rows) == sorted(
            (row[3],) for row in db.table("s").rows if row[1] == 3
        )

    def test_count_star_blocks_projection_narrowing(self):
        db = make_db()
        db.execute("CREATE INDEX idx_b2 ON s (B2)")
        plan = db.explain("SELECT COUNT(DISTINCT *) FROM s WHERE B2 = 3")
        assert "IndexScan(s" in plan
        assert "cols" not in plan  # COUNT(DISTINCT *) consumes whole tuples
        expected = len({row for row in db.table("s").rows if row[1] == 3})
        assert db.execute("SELECT COUNT(DISTINCT *) FROM s WHERE B2 = 3").rows == [
            (expected,)
        ]


# ---------------------------------------------------------------------------
# Execution
# ---------------------------------------------------------------------------


class TestExecution:
    @pytest.mark.parametrize("vectorized", [False, True])
    def test_index_scan_matches_full_scan(self, vectorized):
        db = make_db(null_rate=0.15)
        plain = make_db(null_rate=0.15)
        db.execute("CREATE INDEX idx_b2 ON s (B2)")
        db.execute("CREATE INDEX idx_a4 ON r (A4) USING sorted")
        options = EvalOptions(vectorized=vectorized)
        for sql in (
            "SELECT * FROM s WHERE B2 = 3",
            "SELECT * FROM r WHERE A4 > 1500",
            "SELECT * FROM r WHERE A4 > 500 AND A4 < 2500 AND A2 = 1",
            NESTED_SQL,
        ):
            indexed = db.execute(sql, options=options)
            baseline = plain.execute(sql, options=options)
            assert Counter(indexed.rows) == Counter(baseline.rows), sql

    def test_access_counters_accumulate(self):
        db = make_db()
        db.execute("CREATE INDEX idx_b2 ON s (B2)")
        db.execute("SELECT * FROM s WHERE B2 = 3")
        info = db.access_info()
        assert info["index_scans"] == 1
        assert info["rows_skipped"] > 0
        assert [index["name"] for index in info["indexes"]] == ["idx_b2"]

    def test_null_probe_parameter(self):
        db = make_db()
        db.execute("CREATE INDEX idx_b2 ON s (B2)")
        result = db.execute("SELECT * FROM s WHERE B2 = :key", params={"key": None})
        assert result.rows == []

    def test_index_ddl_invalidates_cached_plans(self):
        db = make_db()
        sql = "SELECT * FROM s WHERE B2 = 3"
        baseline = db.execute(sql)
        assert db.access_info()["index_scans"] == 0
        db.execute("CREATE INDEX idx_b2 ON s (B2)")
        indexed = db.execute(sql)  # same SQL, new stamp on s, new plan
        assert db.access_info()["index_scans"] == 1
        assert sorted(indexed.rows) == sorted(baseline.rows)
        db.execute("DROP INDEX idx_b2")
        assert sorted(db.execute(sql).rows) == sorted(baseline.rows)
        assert db.access_info()["index_scans"] == 1  # back to full scans

    def test_metrics_report_access_paths(self):
        from repro.service.server import QueryService

        db = make_db()
        db.execute("CREATE INDEX idx_b2 ON s (B2)")
        db.execute("SELECT * FROM s WHERE B2 = 3")
        service = QueryService(db)
        status, body = service.handle("GET", "/metrics", {})
        assert status == 200
        access = body["access_paths"]
        assert access["index_scans"] == 1
        assert access["indexes"][0]["name"] == "idx_b2"
