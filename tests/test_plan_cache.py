"""The normalized plan cache: keys, LRU bounds, freshness, parity."""

import pytest

from repro import Database
from repro.bench.queries import Q1, Q2, Q3, Q4
from repro.engine import EvalOptions
from repro.optimizer import execute_sql
from repro.service.plancache import PlanCache
from repro.storage import Catalog, Schema, Table
from tests.conftest import assert_bag_equal, make_rst_catalog


@pytest.fixture
def db():
    database = Database()
    database.create_table(
        "r", ["A1", "A2", "A3", "A4"],
        [(i, i % 5, i % 3, i * 100) for i in range(30)],
    )
    database.create_table(
        "s", ["B1", "B2", "B3", "B4"],
        [(i, i % 5, i % 3, i * 90) for i in range(25)],
    )
    return database


def replanned(db, sql: str) -> bool:
    """Run ``sql``; whether the plan cache missed."""
    before = db.cache_info().misses
    db.execute(sql)
    return db.cache_info().misses > before


class TestKeying:
    def test_repeated_query_hits(self, db):
        sql = "SELECT A1 FROM r WHERE A4 > 100"
        db.execute(sql)
        db.execute(sql)
        info = db.cache_info()
        assert info.hits >= 1 and info.misses >= 1

    def test_whitespace_and_case_share_an_entry(self, db):
        db.execute("SELECT A1 FROM r WHERE A4 > 100")
        before = db.cache_info().misses
        db.execute("select   a1\nFROM R  where A4 > 100")
        assert db.cache_info().misses == before  # normalized to the same key

    def test_different_literals_are_different_entries(self, db):
        db.execute("SELECT A1 FROM r WHERE A4 > 100")
        before = db.cache_info().misses
        db.execute("SELECT A1 FROM r WHERE A4 > 200")
        assert db.cache_info().misses == before + 1

    def test_parameterized_template_shares_one_entry_across_bindings(self, db):
        sql = "SELECT A1 FROM r WHERE A4 > ?"
        db.execute(sql, params=[100])
        before = db.cache_info().misses
        db.execute(sql, params=[200])
        db.execute(sql, params=[None])
        assert db.cache_info().misses == before

    def test_strategy_is_part_of_the_key(self, db):
        sql = "SELECT A1 FROM r WHERE A4 > 100"
        db.execute(sql, strategy="canonical")
        before = db.cache_info().misses
        db.execute(sql, strategy="unnested")
        assert db.cache_info().misses == before + 1

    def test_both_engines_share_one_entry(self, db):
        sql = "SELECT A1 FROM r WHERE A4 > 100"
        db.execute(sql, options=EvalOptions(vectorized=False))
        before = db.cache_info().misses
        db.execute(sql, options=EvalOptions(vectorized=True))
        assert db.cache_info().misses == before
        assert db.cache_info().size == 1

    def test_custom_unnest_options_bypass_the_cache(self, db):
        from repro.rewrite import UnnestOptions

        sql = "SELECT A1 FROM r WHERE A4 > 100"
        before = db.cache_info().misses
        db.execute(sql, unnest_options=UnnestOptions())
        assert db.cache_info().misses == before


class TestBounds:
    def test_lru_eviction(self):
        db = Database(plan_cache_capacity=4)
        db.create_table("r", ["A1"], [(i,) for i in range(5)])
        for threshold in range(6):
            db.execute(f"SELECT A1 FROM r WHERE A1 > {threshold}")
        info = db.cache_info()
        assert info.size <= 4
        assert info.evictions >= 2

    def test_least_recently_used_is_the_victim(self):
        catalog = Catalog()
        catalog.register(Table(Schema(["A1"]), [(1,)], name="r"))
        cache = PlanCache(catalog, capacity=2)
        cache.get_or_plan("SELECT A1 FROM r WHERE A1 > 0")
        cache.get_or_plan("SELECT A1 FROM r WHERE A1 > 1")
        cache.get_or_plan("SELECT A1 FROM r WHERE A1 > 0")  # touch
        cache.get_or_plan("SELECT A1 FROM r WHERE A1 > 2")  # evicts >1
        cache.get_or_plan("SELECT A1 FROM r WHERE A1 > 0")
        info = cache.info()
        assert info.hits == 2 and info.evictions == 1

    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            PlanCache(Catalog(), capacity=0)


class TestInvalidation:
    def test_single_row_dml_keeps_the_entry_warm(self, db):
        sql = "SELECT COUNT(*) FROM r"
        db.execute(sql)
        db.execute("INSERT INTO r VALUES (99, 0, 0, 0)")
        before = db.cache_info().invalidations
        result = db.execute(sql)
        assert result.rows[0][0] == 31
        assert db.cache_info().invalidations == before

    def test_bulk_append_crossing_threshold_replans(self, db):
        sql = "SELECT COUNT(*) FROM r WHERE A4 > 0"
        db.execute(sql)
        # 30 rows cached at plan time; +60 rows is far past the
        # max(16, 0.25 * 30) drift threshold, so the next lookup re-costs.
        for i in range(60):
            db.execute(f"INSERT INTO r VALUES ({100 + i}, 0, 0, 5000)")
        before = db.cache_info().invalidations
        result = db.execute(sql)
        assert result.rows[0][0] >= 60
        assert db.cache_info().invalidations == before + 1

    def test_replan_after_bulk_load_sees_fresh_statistics(self, db):
        # The replanned entry must be costed against the post-load
        # statistics: DML routes through catalog.analyze, so the new
        # plan's estimate reflects the bigger table.
        sql = "SELECT A1 FROM r WHERE A4 > 1000"
        small = db.plan(sql)
        for i in range(200):
            db.execute(f"INSERT INTO r VALUES ({100 + i}, 0, 0, 5000)")
        big = db.plan(sql)
        assert big is not small
        assert big.estimated_cost > small.estimated_cost

    def test_analyze_invalidates_dependents_only(self, db):
        db.execute("SELECT A1 FROM r WHERE A4 > 0")
        db.execute("SELECT B1 FROM s WHERE B4 > 0")
        db.analyze("r")
        assert replanned(db, "SELECT A1 FROM r WHERE A4 > 0")
        assert not replanned(db, "SELECT B1 FROM s WHERE B4 > 0")

    def test_analyze_all_clears_everything(self, db):
        db.execute("SELECT A1 FROM r WHERE A4 > 0")
        db.execute("SELECT B1 FROM s WHERE B4 > 0")
        db.analyze()
        assert replanned(db, "SELECT A1 FROM r WHERE A4 > 0")
        assert replanned(db, "SELECT B1 FROM s WHERE B4 > 0")
        assert db.cache_info().size == 2

    def test_table_replacement_is_detected(self, db):
        sql = "SELECT COUNT(*) FROM r"
        assert db.execute(sql).rows[0][0] == 30
        db.catalog.replace(
            Table(Schema(["A1", "A2", "A3", "A4"]), [(1, 1, 1, 1)], name="r")
        )
        assert db.execute(sql).rows[0][0] == 1

    def test_subquery_dependencies_are_tracked(self, db):
        sql = """SELECT DISTINCT * FROM r
                 WHERE A1 = (SELECT COUNT(*) FROM s WHERE A2 = B2)"""
        db.execute(sql)
        db.analyze("s")
        assert replanned(db, sql)

    def test_view_ddl_changes_the_cache_key(self, db):
        db.create_view("wide", "SELECT A1 FROM r WHERE A4 > 1000")
        assert db.execute("SELECT A1 FROM wide").rows
        before = db.cache_info().misses
        db.drop_view("wide")
        db.create_view("wide", "SELECT A1 FROM r WHERE A4 > 100000")
        assert not db.execute("SELECT A1 FROM wide").rows  # fresh plan, not stale
        assert db.cache_info().misses == before + 1


class TestCachedParity:
    """The paper suite through the cache, twice, on both engines."""

    @pytest.mark.parametrize("name,sql", [("Q1", Q1), ("Q2", Q2), ("Q3", Q3), ("Q4", Q4)])
    @pytest.mark.parametrize("strategy", ["canonical", "unnested", "auto"])
    def test_cached_results_match_uncached(self, name, sql, strategy):
        catalog = make_rst_catalog()
        db = Database()
        for table_name in catalog.table_names():
            db.register(catalog.table(table_name))
        uncached = execute_sql(sql, catalog, strategy)
        cold = db.execute(sql, strategy=strategy)
        warm = db.execute(sql, strategy=strategy)
        assert_bag_equal(cold, uncached, f"{name}/{strategy} cold")
        assert_bag_equal(warm, uncached, f"{name}/{strategy} warm")
        assert db.cache_info().hits >= 1

    @pytest.mark.parametrize("name,sql", [("Q1", Q1), ("Q2", Q2), ("Q3", Q3), ("Q4", Q4)])
    def test_cached_vectorized_matches_row(self, name, sql):
        db = Database()
        catalog = make_rst_catalog()
        for table_name in catalog.table_names():
            db.register(catalog.table(table_name))
        vec_options, row_options = EvalOptions(vectorized=True), EvalOptions(vectorized=False)
        row_cold = db.execute(sql, options=row_options)
        vec_cold = db.execute(sql, options=vec_options)
        row_warm = db.execute(sql, options=row_options)
        vec_warm = db.execute(sql, options=vec_options)
        assert_bag_equal(vec_cold, row_cold, f"{name} cold")
        assert_bag_equal(vec_warm, row_warm, f"{name} warm")
        assert_bag_equal(row_warm, row_cold, f"{name} row warm-vs-cold")


T_SQL = "SELECT a FROM t WHERE b > 10"
U_SQL = "SELECT c FROM u WHERE d > 10"
T_ROWS = [(i, i * 2) for i in range(30)]


def two_table_db() -> Database:
    """``t`` and ``u``, an index on each and a view, so every kind of
    change has something to act on."""
    db = Database()
    db.create_table("t", ["a", "b"], T_ROWS)
    db.create_table("u", ["c", "d"], [(i, i * 3) for i in range(30)])
    db.create_index("t_b", "t", "b", "sorted")
    db.create_index("u_d", "u", "d", "sorted")
    db.create_view("old", "SELECT a FROM t")
    return db


FRESHNESS = {
    "create table w": (lambda db: db.create_table("w", ["x"], [(1,)]), set()),
    "insert one row into t": (lambda db: db.execute("INSERT INTO t VALUES (99, 99)"), set()),
    "drop and re-create t": (
        lambda db: (db.drop_table("t"), db.create_table("t", ["a", "b"], T_ROWS)),
        {"t"},
    ),
    "replace t": (
        lambda db: db.catalog.replace(Table(Schema(["a", "b"]), T_ROWS, name="t")),
        {"t"},
    ),
    "create index on t": (lambda db: db.execute("CREATE INDEX t_a ON t (a)"), {"t"}),
    "drop index on t": (lambda db: db.execute("DROP INDEX t_b"), {"t"}),
    "create index on u": (lambda db: db.execute("CREATE INDEX u_c ON u (c)"), {"u"}),
    "drop index on u": (lambda db: db.execute("DROP INDEX u_d"), {"u"}),
    "analyze t": (lambda db: db.analyze("t"), {"t"}),
    "bulk insert into t": (
        lambda db: db.execute("INSERT INTO t SELECT a + 1000, b FROM t"),
        {"t"},
    ),
    "create view": (lambda db: db.create_view("new", "SELECT c FROM u"), {"t", "u"}),
    "drop view": (lambda db: db.drop_view("old"), {"t", "u"}),
    "analyze": (lambda db: db.analyze(), {"t", "u"}),
}


class TestFreshnessMatrix:
    """Which change re-plans which cached statement: one rule, the
    catalog stamps the entry copied plus the row-count drift."""

    @pytest.mark.parametrize("change", FRESHNESS)
    def test_change_replans_exactly_its_readers(self, change):
        apply, expected = FRESHNESS[change]
        db = two_table_db()
        db.execute(T_SQL)
        db.execute(U_SQL)
        apply(db)
        replans = {name for name, sql in (("t", T_SQL), ("u", U_SQL)) if replanned(db, sql)}
        assert replans == expected
        assert db.cache_info().size == 2  # one entry per (statement, strategy)

    def test_analyze_racing_a_miss_leaves_the_entry_stale(self, monkeypatch):
        import repro.service.plancache as plancache

        db = two_table_db()
        real = plancache.plan_query

        def analyze_midway(*args, **kwargs):
            db.analyze("t")  # lands after the miss copied the stamps
            return real(*args, **kwargs)

        monkeypatch.setattr(plancache, "plan_query", analyze_midway)
        db.execute(T_SQL)
        monkeypatch.setattr(plancache, "plan_query", real)
        assert replanned(db, T_SQL)
        assert not replanned(db, T_SQL)

    def test_prepared_then_batch_engine_plans_once(self):
        db = two_table_db()
        statement = db.prepare("SELECT a FROM t WHERE b > ?")
        assert db.cache_info().misses == 1
        statement.execute([10], options=EvalOptions(vectorized=True))
        statement.execute([10], options=EvalOptions(vectorized=False))
        info = db.cache_info()
        assert (info.misses, info.size) == (1, 1)
