"""INSERT / DELETE / UPDATE statements."""

import pytest

from repro import Database, EvalOptions, ResourceLimits
from repro.errors import BudgetExceeded, QueryCancelled, ResourceExhausted, TranslationError
from repro.storage.catalog import TableStats

from .conftest import make_rst_catalog


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

    def test_insert_select_appends_in_value_order_over_mixed_type_columns(self, db):
        """Not in the order the plan delivered (which differs by plan), and
        a column holding numbers, strings and NULLs is still ordered."""
        db.create_table("m", ["a", "b"], [("x", 1), (2.5, "y"), (None, None), (1, 2.5)])
        db.execute("INSERT INTO m SELECT a, b FROM m")
        assert db.table("m").rows[4:] == [(None, None), (1, 2.5), (2.5, "y"), ("x", 1)]

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


# ---------------------------------------------------------------------------
# The embedded read goes through the planner: order, access paths, own state
# ---------------------------------------------------------------------------

Q1_WHERE = "A1 = (SELECT COUNT(DISTINCT *) FROM s WHERE A2 = B2) OR A4 > 1500"
Q3_WHERE = (
    "A1 = (SELECT COUNT(DISTINCT *) FROM s WHERE A2 = B2)"
    " OR A3 = (SELECT COUNT(DISTINCT *) FROM t WHERE A4 = C2)"
)
PAPER_SHAPED = [
    pytest.param(f"DELETE FROM r WHERE {Q1_WHERE}", id="q1-delete"),
    pytest.param(f"UPDATE r SET A3 = A3 + 1, A2 = A1 WHERE {Q1_WHERE}", id="q1-update"),
    pytest.param(f"DELETE FROM r WHERE {Q3_WHERE}", id="q3-delete"),
    pytest.param(f"UPDATE r SET A4 = A4 + A1 WHERE {Q3_WHERE}", id="q3-update"),
    # Appends in an order of its own, not in the order its plan delivers.
    pytest.param(f"INSERT INTO r SELECT * FROM r WHERE {Q1_WHERE}", id="q1-insert"),
]
PLANNED = [("auto", False), ("unnested", False), ("auto", True), ("unnested", True)]


def rst_db(data_dir=None, **sizes) -> Database:
    """RST with a hash and a sorted index on ``r``; ``C2`` shares ``A4``'s
    domain so that Q3's second subquery counts something."""
    database = Database(data_dir=data_dir)
    catalog = make_rst_catalog(**sizes)
    for name in catalog.table_names():
        rows = catalog.table(name).rows
        if name == "t":
            rows = [(c1, r[3], c3, c4) for (c1, _, c3, c4), r in zip(rows, catalog.table("r").rows)]
        database.create_table(name, catalog.table(name).schema.names, rows)
    database.create_index("r_a2", "r", "A2", "hash")
    database.create_index("r_a4", "r", "A4", "sorted")
    return database


def disjunct_hits(database: Database, where: str) -> tuple[set, set]:
    """Positions of ``r`` each of the two disjuncts is TRUE for, computed
    in Python from the (NULL-free) rows."""
    r, s, t = (database.table(name).rows for name in "rst")

    def count(rows, column, key):
        return len({row for row in rows if row[column] == key})

    first = {i for i, row in enumerate(r) if row[0] == count(s, 1, row[1])}
    if where is Q1_WHERE:
        return first, {i for i, row in enumerate(r) if row[3] > 1500}
    return first, {i for i, row in enumerate(r) if row[2] == count(t, 1, row[3])}


def state_of(database: Database, name: str) -> dict:
    """Everything a statement moves — or, when it fails, must not."""
    table = database.table(name)
    return {
        "rows": list(table.rows),
        "version": table.version,
        "stats": TableStats.compute(table) == database.catalog.stats(name),
        "row_count": database.catalog.stats(name).row_count,
        "batch": table.batch_cache,
        "indexes": [index.version for index in database.catalog.indexes_on(name)],
        "mvcc": database.mvcc_info(),
        "commit_lsn": database.commit_lsn,
        "wal_lsn": database.wal_lsn,
        "in_progress": dict(database._snapshots._in_progress),
    }


class TestPlannedScan:
    @pytest.mark.parametrize("sql", PAPER_SHAPED)
    @pytest.mark.parametrize("strategy, vectorized", PLANNED)
    def test_unnested_streams_agree_with_the_canonical_row_run(self, sql, strategy, vectorized):
        """Eqv. 2 / 3 return σ⁺'s rows first and the join side's after, not
        by ascending ν — the splice, the statistics, the carried batch and
        both index kinds must not notice."""
        pytest.importorskip("numpy")
        from repro.engine.vector_ops import table_batch
        from repro.storage.index import make_index
        from repro.storage.mvcc import resolve_index

        sizes = dict(n_r=150, n_s=60, n_t=150)
        reference, database = rst_db(**sizes), rst_db(**sizes)
        first, second = disjunct_hits(database, Q1_WHERE if Q1_WHERE in sql else Q3_WHERE)
        # Both streams contribute, and interleave: whichever disjunct the
        # rewriter bypasses on, the other one's rows start before it ends.
        assert first - second and second - first
        assert min(first - second) < max(second) and min(second - first) < max(first)

        expected = reference.execute(sql, "canonical", EvalOptions()).rows
        table = database.table("r")
        table_batch(table)  # a warm batch for the statement to carry forward
        affected = database.execute(sql, strategy, EvalOptions(vectorized=vectorized)).rows

        assert affected == expected == [(len(first | second),)]
        assert table.rows == reference.table("r").rows  # survivors / appends, in order
        assert database.catalog.stats("r") == TableStats.compute(table)
        assert database.catalog.stats("r") == reference.catalog.stats("r")
        version, batch = table.batch_cache  # carried, not re-pivoted
        assert version == table.version and batch.to_rows() == table.rows
        for index in database.catalog.indexes_on("r"):
            rebuilt = make_index(index.name, table, "r", index.column, index.kind)
            shared = resolve_index(index, table)
            for key in {row[index.position] for row in table.rows} | {None, -1}:
                assert shared.eq_positions(key) == rebuilt.eq_positions(key), (index.name, key)
        probe = "SELECT * FROM r WHERE A2 = 3 AND A4 > 1000"
        assert database.execute(probe).rows == reference.execute(probe, "canonical").rows

    @pytest.mark.parametrize("vectorized", [False, True])
    def test_no_sargable_conjunct_is_pushed_below_the_numbering(self, vectorized):
        """An IndexScan under ν would number the *matching* rows 1..k, and
        the statement would overwrite the first k rows of the table."""
        pytest.importorskip("numpy")
        plain, indexed = rst_db(), rst_db()
        indexed.create_index("s_b2", "s", "B2", "hash")
        options = EvalOptions(vectorized=vectorized)
        for sql in ("UPDATE s SET B3 = 100 WHERE B2 = 4", "DELETE FROM s WHERE B2 = 2 AND B4 > 5"):
            assert indexed.execute(sql, options=options).rows == plain.execute(sql).rows
            assert indexed.table("s").rows == plain.table("s").rows
        assert any(row[2] == 100 for row in indexed.table("s").rows)
        assert indexed.access_info()["index_scans"] == 0

    @pytest.mark.parametrize("strategy, vectorized", [("canonical", False), *PLANNED])
    def test_a_subquery_over_the_target_reads_the_pre_statement_state(self, strategy, vectorized):
        pytest.importorskip("numpy")
        database = rst_db()
        rows = list(database.table("r").rows)
        sizes = {}
        for row in rows:
            sizes[row[1]] = sizes.get(row[1], 0) + 1
        survivors = [row for row in rows if row[0] != sizes[row[1]]]
        assert 0 < len(survivors) < len(rows)
        database.execute(
            "DELETE FROM r WHERE A1 = (SELECT COUNT(*) FROM r r2 WHERE r2.A2 = r.A2)",
            strategy,
            EvalOptions(vectorized=vectorized),
        )
        # Had the count seen rows vanish as the statement went, groups
        # would shrink under it and other rows would match.
        assert database.table("r").rows == survivors

    def test_delete_and_update_without_where_touch_every_row_once(self):
        database = rst_db()
        count = len(database.table("s"))
        assert database.execute("UPDATE s SET B1 = B1 + 1", "unnested").rows == [(count,)]
        assert database.execute("DELETE FROM s", "unnested").rows == [(count,)]
        assert database.table("s").rows == []


# ---------------------------------------------------------------------------
# The embedded read is governed; a stopped one leaves nothing behind
# ---------------------------------------------------------------------------


def _cancelled():
    import threading

    event = threading.Event()
    event.set()
    return event


STOPPED = [
    pytest.param(lambda: EvalOptions(budget_seconds=0.0), BudgetExceeded, id="budget"),
    pytest.param(lambda: EvalOptions(cancel_event=_cancelled()), QueryCancelled, id="cancel"),
    pytest.param(
        lambda: EvalOptions(resources=ResourceLimits(max_rows=50)), ResourceExhausted, id="max-rows"
    ),
]


class TestStoppedScan:
    @pytest.mark.parametrize("make_options, error", STOPPED)
    @pytest.mark.parametrize("sql", PAPER_SHAPED[:2])
    @pytest.mark.parametrize("strategy, vectorized", [("canonical", False), ("auto", True)])
    def test_nothing_moves_and_the_next_write_succeeds(
        self, tmp_path, sql, strategy, vectorized, make_options, error
    ):
        pytest.importorskip("numpy")
        from dataclasses import replace

        from repro.engine.vector_ops import table_batch

        database = rst_db(str(tmp_path), n_r=2000, n_s=300)
        table_batch(database.table("r"))
        before = state_of(database, "r")
        assert before["stats"] and not before["in_progress"]
        with pytest.raises(error):
            database.execute(sql, strategy, replace(make_options(), vectorized=vectorized))
        assert state_of(database, "r") == before  # SnapshotManager.abort ran, too
        assert database._commit_lock.acquire(blocking=False)
        database._commit_lock.release()
        assert database.execute("DELETE FROM r WHERE A4 > 1500").rows[0][0] > 0
        assert database.wal_lsn == before["wal_lsn"] + 1
        assert database.commit_lsn == before["commit_lsn"] + 1
        database.close()

    def test_a_faulted_scan_heals_and_is_counted_like_a_read(self, monkeypatch):
        from repro.faults import ENV_SITES

        sql = PAPER_SHAPED[0].values[0]
        reference, database = rst_db(), rst_db()
        monkeypatch.delenv(ENV_SITES, raising=False)  # the chaos job arms it fleet-wide
        expected = reference.execute(sql, "canonical").rows
        monkeypatch.setenv(ENV_SITES, "engine.row.PBypass")
        assert database.execute(sql, "unnested").rows == expected
        assert database.table("r").rows == reference.table("r").rows
        info = database.resilience_info()
        assert (info["degradations"], info["fallback_successes"]) == (1, 1)
        assert info["last_degradation"]["alternative"] == "unnested"
        assert info["durability_exemptions"] == 0
        assert database.cache_info().quarantined == 0  # nothing of a write's is cached
