"""A flat write plans once per statement shape.

An UPDATE or DELETE whose WHERE and SET embed no query block has no plan
choice a literal could move, so :mod:`repro.dml` lifts its literals into
positional parameters: the ν + σ read is planned on the first statement of
a shape, cached in the database's plan cache under the lifted statement,
and bound to each statement's literals on every run.  This file pins the
cache (hits, what keeps its literals), every literal kind against SQLite
on both engines, invalidation by DDL, healing and WAL replay.
"""

from __future__ import annotations

from collections import Counter

import pytest

from repro import Database, DurabilityConfig, EvalOptions, FaultConfig, FaultInjector
from repro import dml as dml_module
from repro.algebra.explain import explain
from repro.dml import execute_dml
from repro.sql.parser import parse_any

from .sqlite_oracle import SCHEMAS, instance, load

ENGINES = [EvalOptions(vectorized=False), EvalOptions(vectorized=True)]
ENGINE_IDS = ["row", "vectorized"]


def database() -> Database:
    return load(instance())[1]


def recorded_plans(monkeypatch) -> list:
    """Every plan ``repro.dml`` makes for a write's read, in order."""
    plans = []
    real = dml_module.plan_translation

    def recording(*args, **kwargs):
        plans.append(real(*args, **kwargs))
        return plans[-1]

    monkeypatch.setattr(dml_module, "plan_translation", recording)
    return plans


# ---------------------------------------------------------------------------
# The cache
# ---------------------------------------------------------------------------


def test_repeated_write_shapes_plan_once_and_hit_the_cache(monkeypatch):
    db = database()
    plans = recorded_plans(monkeypatch)
    for value in range(5):
        db.execute(f"UPDATE s SET B3 = {value} WHERE B2 = {value + 1}")
        db.execute(f"DELETE FROM r WHERE A4 > {2900 - value} OR A1 = -{value}")
    info = db.cache_info()
    assert (info.misses, info.hits, info.size) == (2, 8, 2)
    assert len(plans) == 2
    assert [plan.param_spec.positional for plan in plans] == [2, 2]
    assert all(plan.sql == "" and "?1" in explain(plan.logical) for plan in plans)
    # Another strategy is another key; the cached shapes stay.
    db.execute("DELETE FROM r WHERE A4 > 5 OR A1 = -1", "canonical")
    assert (db.cache_info().misses, len(plans)) == (3, 3)


def test_a_write_with_a_nested_block_keeps_its_literals(monkeypatch):
    db = database()
    plans = recorded_plans(monkeypatch)
    sql = "DELETE FROM r WHERE A1 = (SELECT COUNT(*) FROM s WHERE A2 = B2) OR A4 > {}"
    for bound in (2500, 2400):
        db.execute(sql.format(bound))
    assert len(plans) == 2  # planned per statement, never cached
    assert "2500" in explain(plans[0].logical) and "2400" in explain(plans[1].logical)
    assert not any(plan.param_spec for plan in plans)
    assert db.cache_info().size == 0


def test_execute_dml_runs_a_lifted_write_without_a_runner():
    connection, db = load(instance())
    sql = "UPDATE r SET A3 = A3 + 10 WHERE A1 IN (1, 2) OR A4 < 300"
    result = execute_dml(parse_any(sql), db.catalog, {})
    assert result.rows_affected == connection.execute(sql).rowcount > 0
    theirs = Counter(connection.execute("SELECT * FROM r").fetchall())
    assert Counter(db.table("r").rows) == theirs


# ---------------------------------------------------------------------------
# Every literal kind, against SQLite, on both engines
# ---------------------------------------------------------------------------

#: Each shape runs twice with other literals, so the second run is a hit.
LITERAL_WRITES = [
    "UPDATE s SET B3 = 7 WHERE B2 = NULL",
    "UPDATE s SET B3 = 8 WHERE B2 = 1",
    "DELETE FROM t WHERE C2 = NULL",
    "UPDATE r SET A4 = -5 WHERE A1 = -1 OR A3 < 1.5",
    "UPDATE r SET A4 = -7 WHERE A1 = -2 OR A3 < 0.5",
    "DELETE FROM r WHERE A4 < -6 OR A4 > 2900.25",
    "DELETE FROM r WHERE A4 < -4.5 OR A4 > 2800.5",
    "UPDATE t SET C3 = 'tag' WHERE C1 = 1",
    "DELETE FROM t WHERE C3 = 'tag'",
    "DELETE FROM t WHERE C3 = 'gone'",
    "DELETE FROM r WHERE A1 IN (1, 2)",
    "DELETE FROM r WHERE A1 IN (3, NULL)",
    "UPDATE r SET A3 = A3 + 10 WHERE A2 IN (0, 4)",
    "UPDATE r SET A3 = A3 + 10",
    "UPDATE s SET B4 = B4 + 0.5",
    "DELETE FROM s WHERE 1 = 0",
    "DELETE FROM s WHERE 2 = 0",
    "UPDATE s SET B1 = 1 WHERE 1 = 0",
    "DELETE FROM s WHERE 1 = 1",
]


@pytest.mark.parametrize("options", ENGINES, ids=ENGINE_IDS)
def test_literal_kinds_agree_with_sqlite_after_every_write(options):
    connection, db = load(instance())
    for number, sql in enumerate(LITERAL_WRITES):
        expected = connection.execute(sql).rowcount
        assert db.execute(sql, options=options).rows == [(expected,)], (number, sql)
        for name in SCHEMAS:
            theirs = Counter(connection.execute(f"SELECT * FROM {name}").fetchall())
            assert Counter(db.table(name).rows) == theirs, (number, sql, name)
    assert db.cache_info().hits == 7  # the second write of each repeated shape


# ---------------------------------------------------------------------------
# Invalidation
# ---------------------------------------------------------------------------


def test_create_index_between_two_writes_of_a_shape_replans():
    connection, db = load(instance())
    for sql in ("UPDATE s SET B3 = 1 WHERE B2 = 2", "CREATE INDEX s_b2 ON s (B2)"):
        db.execute(sql)
        connection.execute(sql)
    before = db.cache_info()
    sql = "UPDATE s SET B3 = 2 WHERE B2 = 3"
    assert db.execute(sql).rows == [(connection.execute(sql).rowcount,)]
    after = db.cache_info()
    assert (after.misses, after.invalidations) == (before.misses + 1, before.invalidations + 1)
    theirs = Counter(connection.execute("SELECT * FROM s").fetchall())
    assert Counter(db.table("s").rows) == theirs


@pytest.mark.parametrize("options", ENGINES, ids=ENGINE_IDS)
def test_a_table_recreated_under_another_arity_replans_its_writes(options):
    db = Database()
    db.create_table("t", ["C1", "C2", "C3"], [(1, 2, 3), (3, 4, 5), (3, 5, 6)])
    assert db.execute("UPDATE t SET C2 = 0 WHERE C1 = 1", options=options).rows == [(1,)]
    assert db.execute("DELETE FROM t WHERE C1 = 1", options=options).rows == [(1,)]
    db.drop_table("t")
    db.create_table("t", ["C1", "C2"], [(1, 2), (3, 4), (3, 5)])
    assert db.execute("UPDATE t SET C2 = 9 WHERE C1 = 3", options=options).rows == [(2,)]
    assert db.execute("DELETE FROM t WHERE C1 = 1", options=options).rows == [(1,)]
    assert db.table("t").rows == [(3, 9), (3, 9)]
    assert db.cache_info().hits == 0


# ---------------------------------------------------------------------------
# Healing and replay
# ---------------------------------------------------------------------------


def test_a_fault_in_a_cached_write_plan_quarantines_its_key_and_heals():
    db, reference = database(), database()
    for target in (db, reference):
        target.execute("DELETE FROM s WHERE B2 = 1")  # the shape is cached
    injector = FaultInjector(FaultConfig(sites=("engine.vector",)))
    sql = "DELETE FROM s WHERE B2 = 2"
    healed = db.execute(sql, options=EvalOptions(vectorized=True, faults=injector))
    assert healed.rows == reference.execute(sql).rows != [(0,)]
    assert db.table("s").rows == reference.table("s").rows
    info = db.cache_info()
    assert (info.quarantined, info.quarantined_keys) == (1, 1)
    assert db.resilience_info()["degradations"] == 1
    # Quarantined: the shape is planned per statement until the catalog changes.
    db.execute("DELETE FROM s WHERE B2 = 3")
    assert db.cache_info().hits == info.hits
    db.analyze()
    db.execute("DELETE FROM s WHERE B2 = 4")
    db.execute("DELETE FROM s WHERE B2 = 0")
    assert db.cache_info().hits == info.hits + 1


def test_a_wal_of_repeated_shapes_recovers_to_the_live_state(tmp_path):
    directory = str(tmp_path / "data")

    def open_db() -> Database:
        return Database.open(directory, durability=DurabilityConfig(directory, sync="none"))

    db = open_db()
    for name, rows in instance().items():
        db.create_table(name, SCHEMAS[name], rows)
    for value in range(12):
        db.execute(f"UPDATE r SET A3 = {value} WHERE A1 = {value % 7} OR A4 < {value * 100}")
        db.execute(f"DELETE FROM s WHERE B4 > {2990 - value * 10}")
        db.execute(f"INSERT INTO s VALUES ({value}, 1, 2, {3000 + value})")
    live = {name: db.table(name).rows for name in SCHEMAS}
    db.close()
    recovered = open_db()
    try:
        assert {name: recovered.table(name).rows for name in SCHEMAS} == live
        assert recovered.durability_info()["recovery"]["records_replayed"] == 3 + 36
        assert recovered.cache_info().hits == 2 * 11  # each write shape planned once
    finally:
        recovered.close()
