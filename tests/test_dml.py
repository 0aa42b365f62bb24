"""INSERT / DELETE / UPDATE statements."""

import pytest

from repro import Database
from repro.errors import TranslationError


@pytest.fixture
def db():
    database = Database()
    database.create_table(
        "t", ["a", "b", "c"],
        [(1, 10, "x"), (2, 20, "y"), (3, None, "z")],
    )
    database.create_table("src", ["p", "q"], [(7, 70), (8, 80)])
    return database


class TestInsert:
    def test_values(self, db):
        result = db.execute("INSERT INTO t VALUES (4, 40, 'w')")
        assert result.rows == [(1,)]
        assert (4, 40, "w") in db.table("t").rows

    def test_multiple_rows(self, db):
        db.execute("INSERT INTO t VALUES (4, 40, 'w'), (5, 50, 'v')")
        assert len(db.table("t")) == 5

    def test_column_list_fills_nulls(self, db):
        db.execute("INSERT INTO t (c, a) VALUES ('k', 9)")
        assert (9, None, "k") in db.table("t").rows

    def test_constant_arithmetic(self, db):
        db.execute("INSERT INTO t VALUES (2 + 2, -5, NULL)")
        assert (4, -5, None) in db.table("t").rows

    def test_insert_select(self, db):
        result = db.execute("INSERT INTO t SELECT p, q, 'from_src' FROM src")
        assert result.rows == [(2,)]
        assert (7, 70, "from_src") in db.table("t").rows

    def test_insert_select_with_columns(self, db):
        db.execute("INSERT INTO t (b, a) SELECT q, p FROM src WHERE p = 7")
        assert (7, 70, None) in db.table("t").rows

    def test_stats_refreshed(self, db):
        before = db.catalog.stats("t").row_count
        db.execute("INSERT INTO t VALUES (4, 40, 'w')")
        assert db.catalog.stats("t").row_count == before + 1

    def test_non_constant_rejected(self, db):
        with pytest.raises(TranslationError, match="constant"):
            db.execute("INSERT INTO t VALUES (a, 1, 'x')")

    def test_arity_mismatch(self, db):
        with pytest.raises(TranslationError):
            db.execute("INSERT INTO t VALUES (1, 2)")

    def test_unknown_column(self, db):
        with pytest.raises(TranslationError, match="no column"):
            db.execute("INSERT INTO t (zz) VALUES (1)")


class TestDelete:
    def test_delete_where(self, db):
        result = db.execute("DELETE FROM t WHERE a >= 2")
        assert result.rows == [(2,)]
        assert db.table("t").rows == [(1, 10, "x")]

    def test_unknown_predicate_keeps_row(self, db):
        # b IS NULL for row 3: `b > 5` is UNKNOWN there → must survive.
        db.execute("DELETE FROM t WHERE b > 5")
        assert db.table("t").rows == [(3, None, "z")]

    def test_delete_all(self, db):
        result = db.execute("DELETE FROM t")
        assert result.rows == [(3,)]
        assert len(db.table("t")) == 0

    def test_delete_with_subquery(self, db):
        db.execute("DELETE FROM t WHERE a IN (SELECT p - 5 FROM src)")
        # p - 5 ∈ {2, 3} → rows 2 and 3 deleted.
        assert db.table("t").rows == [(1, 10, "x")]

    def test_order_preserved(self, db):
        db.execute("DELETE FROM t WHERE a = 2")
        assert db.table("t").rows == [(1, 10, "x"), (3, None, "z")]


class TestUpdate:
    def test_update_where(self, db):
        result = db.execute("UPDATE t SET b = 99 WHERE a = 1")
        assert result.rows == [(1,)]
        assert db.table("t").rows[0] == (1, 99, "x")

    def test_update_expression_over_old_value(self, db):
        db.execute("UPDATE t SET b = b + 1 WHERE b IS NOT NULL")
        assert db.table("t").rows[0] == (1, 11, "x")
        assert db.table("t").rows[1] == (2, 21, "y")
        assert db.table("t").rows[2] == (3, None, "z")

    def test_simultaneous_assignment_semantics(self, db):
        # SET a = b, b = a must read both from the old row.
        db.execute("UPDATE t SET a = b, b = a WHERE a = 1")
        assert db.table("t").rows[0] == (10, 1, "x")

    def test_update_all_rows(self, db):
        result = db.execute("UPDATE t SET c = 'same'")
        assert result.rows == [(3,)]
        assert all(row[2] == "same" for row in db.table("t").rows)

    def test_update_with_subquery_value(self, db):
        db.execute("UPDATE t SET b = (SELECT MAX(q) FROM src) WHERE a = 3")
        assert db.table("t").rows[2] == (3, 80, "z")

    def test_row_order_preserved(self, db):
        db.execute("UPDATE t SET c = 'mid' WHERE a = 2")
        assert [row[0] for row in db.table("t").rows] == [1, 2, 3]

    def test_duplicate_assignment_rejected(self, db):
        with pytest.raises(TranslationError, match="duplicate column"):
            db.execute("UPDATE t SET a = 1, a = 2")

    def test_unknown_where_not_updated(self, db):
        db.execute("UPDATE t SET c = 'hit' WHERE b > 5")
        assert db.table("t").rows[2] == (3, None, "z")  # UNKNOWN → untouched


COMMENT_LED = [
    pytest.param("-- c\nINSERT INTO t VALUES (4, 40, 'w')", 4, id="insert"),
    pytest.param("/* c */ DELETE FROM t WHERE a = 1", 2, id="delete"),
    pytest.param("  -- one\n  /* two */ UPDATE t SET b = 0 WHERE a = 1", 3, id="update"),
]


class TestLeadingComments:
    """Statements are classified by their first significant token, so a
    comment in front of DML neither hides it from ``execute`` nor from
    the server's write gate."""

    @pytest.mark.parametrize("sql, rows_after", COMMENT_LED)
    def test_executes_as_dml(self, db, sql, rows_after):
        assert db.execute(sql).rows == [(1,)]
        assert len(db.table("t")) == rows_after

    @pytest.mark.parametrize("sql, _rows", COMMENT_LED)
    def test_fenced_primary_refuses_it_as_a_write(self, db, sql, _rows):
        from repro.service.server import QueryService, ServerConfig

        service = QueryService(db, ServerConfig(fenced=True))
        status, body = service.handle("POST", "/query", {"sql": sql})
        assert (status, body["error"]["code"]) == (409, "NOT_PRIMARY")
        assert len(db.table("t")) == 3

    @pytest.mark.parametrize("sql, _rows", COMMENT_LED)
    def test_replica_refuses_it_as_a_write(self, db, sql, _rows, tmp_path):
        from repro.replication.replica import ReplicaConfig, ReplicationFollower
        from repro.service.server import QueryService

        follower = ReplicationFollower(ReplicaConfig("http://127.0.0.1:1", str(tmp_path)))
        service = QueryService(db, None, follower=follower)
        status, body = service.handle("POST", "/query", {"sql": sql})
        assert (status, body["error"]["code"]) == (403, "READ_ONLY_REPLICA")
        assert len(db.table("t")) == 3
