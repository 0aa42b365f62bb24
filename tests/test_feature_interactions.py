"""Cross-feature interaction tests: DML × views × CTEs × unnesting."""

import pytest

from repro import Database
from repro.errors import CatalogError


@pytest.fixture
def db():
    database = Database()
    database.create_table("r", ["A1", "A2", "A4"], [(1, 1, 2000), (2, 2, 100), (0, 9, 50)])
    database.create_table("s", ["B1", "B2"], [(9, 1), (8, 2), (7, 2)])
    return database


NESTED = """SELECT * FROM r
            WHERE A1 = (SELECT COUNT(*) FROM s WHERE A2 = B2) OR A4 > 1500"""


class TestDmlAndQueries:
    def test_results_change_after_insert(self, db):
        before = len(db.execute(NESTED, "unnested"))
        db.execute("INSERT INTO s VALUES (6, 2)")
        after = db.execute(NESTED, "unnested")
        # A1=2, A2=2 now counts 3 rows → no longer matches.
        assert len(after) == before - 1

    def test_results_change_after_delete(self, db):
        db.execute("DELETE FROM s WHERE B2 = 2")
        result = db.execute(NESTED, "unnested")
        assert (2, 2, 100) not in result.rows  # count dropped to 0 ≠ 2

    def test_results_change_after_update(self, db):
        db.execute("UPDATE r SET A1 = 2 WHERE A1 = 1")
        result = db.execute(NESTED, "canonical")
        assert db.execute(NESTED, "unnested").bag_equals(result)

    def test_statistics_refresh_drives_auto(self, db):
        # Over one r row the cost model rightly keeps the canonical plan:
        # one evaluation of the inner plan is measurably faster than the
        # unnested plan's start-up, on both engines (EXPERIMENTS.md,
        # "Operator start-up").  After bulk growth the refreshed
        # statistics flip it.
        db.execute("DELETE FROM r WHERE A1 <> 1")
        assert db.plan(NESTED, "auto").chosen_alternative == "canonical"
        for _ in range(7):
            db.execute("INSERT INTO s SELECT B1, B2 FROM s")
            db.execute("INSERT INTO r SELECT A1, A2, A4 FROM r")
        assert db.catalog.stats("s").row_count == 3 * 2**7
        assert db.plan(NESTED, "auto").chosen_alternative == "unnested"

    def test_insert_into_view_rejected(self, db):
        db.create_view("v", "SELECT B1 FROM s")
        with pytest.raises(CatalogError):
            db.execute("INSERT INTO v VALUES (1)")

    def test_delete_with_correlated_subquery(self, db):
        # Delete r-rows that have no partner in s.
        db.execute(
            "DELETE FROM r WHERE NOT EXISTS (SELECT * FROM s WHERE A2 = B2)"
        )
        assert sorted(db.table("r").rows) == [(1, 1, 2000), (2, 2, 100)]


class TestViewsCtesUnnesting:
    def test_view_of_nested_query(self, db):
        db.create_view("qualified", NESTED)
        result = db.execute("SELECT COUNT(*) FROM qualified")
        assert result.rows == [(len(db.execute(NESTED)),)]

    def test_cte_with_set_operation_and_nesting(self, db):
        sql = """WITH keys AS (SELECT B2 AS k FROM s UNION SELECT A2 AS k FROM r)
                 SELECT * FROM r
                 WHERE A1 = (SELECT COUNT(*) FROM keys WHERE A2 = k) OR A4 > 1500"""
        reference = db.execute(sql, "canonical")
        assert db.execute(sql, "unnested").bag_equals(reference)
        assert len(reference) >= 1

    def test_union_of_nested_queries(self, db):
        sql = f"""{NESTED} UNION ALL {NESTED}"""
        reference = db.execute(sql, "canonical")
        unnested = db.execute(sql, "unnested")
        assert unnested.bag_equals(reference)
        assert len(reference) == 2 * len(db.execute(NESTED))

    def test_explain_analyze_over_view(self, db):
        db.create_view("v", NESTED)
        report = db.explain_analyze("SELECT * FROM v", "unnested")
        assert "rows=" in report
