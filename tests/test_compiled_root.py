"""A planned query's physical root is compiled once per engine and kept.

Scans carry table and index names and resolve them through each
execution's catalog, so one root serves every execution of its plan:
after writes, at any pinned snapshot, from several threads at once.  A
schema change re-plans (the plan cache's stamps), and a plan held across
one still fails with the same ``PlanningError`` when run.
"""

import sys
import threading
from collections import Counter

import pytest

from repro import Database
from repro.engine import EvalOptions
from repro.errors import PlanningError
from repro.optimizer import planner
from tests.conftest import make_rst_catalog

ENGINES = {"row": EvalOptions(vectorized=False), "vectorized": EvalOptions(vectorized=True)}

#: Q1's shape with a parameter: an unnested plan under ``auto``.
SQL = (
    "SELECT DISTINCT * FROM r "
    "WHERE A1 = (SELECT COUNT(*) FROM s WHERE A2 = B2) OR A4 > ?"
)


@pytest.fixture
def db():
    database = Database()
    source = make_rst_catalog(n_r=60, n_s=50, seed=11)
    for name in source.table_names():
        database.register(source.table(name))
    return database


@pytest.fixture
def compiles(monkeypatch):
    """Every ``compile_plan`` call the planner makes, as its engine."""
    calls = []
    compile_plan = planner.compile_plan

    def counting(plan, vectorized):
        calls.append("vectorized" if vectorized else "row")
        return compile_plan(plan, vectorized)

    monkeypatch.setattr(planner, "compile_plan", counting)
    return calls


def test_a_prepared_statement_compiles_once_per_engine(db, compiles):
    statement = db.prepare(SQL)
    answers = {
        engine: [Counter(statement.execute([1500], options).rows) for _ in range(5)]
        for engine, options in ENGINES.items()
    }
    assert sorted(compiles) == ["row", "vectorized"]
    assert all(bag == answers["row"][0] for bags in answers.values() for bag in bags)


@pytest.mark.parametrize("engine", sorted(ENGINES))
def test_an_insert_keeps_the_root_and_the_next_run_sees_the_row(db, compiles, engine):
    statement = db.prepare("SELECT COUNT(*) FROM r WHERE A4 > ?")
    before = statement.execute([-1], ENGINES[engine]).rows[0][0]
    root = db.plan("SELECT COUNT(*) FROM r WHERE A4 > ?").roots[engine == "vectorized"]
    db.execute("INSERT INTO r VALUES (1, 2, 3, 4)")
    after = statement.execute([-1], ENGINES[engine]).rows[0][0]
    assert after == before + 1
    assert db.plan("SELECT COUNT(*) FROM r WHERE A4 > ?").roots[engine == "vectorized"] is root
    assert compiles == [engine]


@pytest.mark.parametrize("engine", sorted(ENGINES))
def test_a_table_recreated_with_another_arity_replans_and_recompiles(db, compiles, engine):
    sql = "SELECT B1, B2 FROM s WHERE B1 >= 0"
    assert len(db.execute(sql, options=ENGINES[engine])) == len(db.table("s"))
    db.drop_table("s")
    db.create_table("s", ["B1", "B2", "B3"], [(1, 2, 3), (4, 5, 6)])
    assert sorted(db.execute(sql, options=ENGINES[engine]).rows) == [(1, 2), (4, 5)]
    assert compiles == [engine, engine]


@pytest.mark.parametrize("engine", sorted(ENGINES))
def test_a_plan_held_across_ddl_still_checks_arity_when_run(db, engine):
    held = db.plan("SELECT B1, B2 FROM s WHERE B1 >= 0")
    held.execute(db.catalog, ENGINES[engine])  # compiles and keeps the root
    db.drop_table("s")
    db.create_table("s", ["B1", "B2", "B3"], [(1, 2, 3)])
    with pytest.raises(PlanningError, match="catalog arity 3 != plan arity 4"):
        held.execute(db.catalog, ENGINES[engine])


@pytest.mark.parametrize("engine", sorted(ENGINES))
def test_a_plan_held_across_ddl_still_checks_index_ownership_when_run(db, engine):
    db.create_index("ix", "s", "B2")
    held = db.plan("SELECT B1 FROM s WHERE B2 = 3")
    assert "IndexScan" in db.explain("SELECT B1 FROM s WHERE B2 = 3")
    held.execute(db.catalog, ENGINES[engine])
    db.drop_index("ix")
    db.create_index("ix", "t", "C2")  # the name now belongs to another table
    with pytest.raises(PlanningError, match="no longer belongs to table 's'"):
        held.execute(db.catalog, ENGINES[engine])


@pytest.mark.parametrize("engine", sorted(ENGINES))
def test_pinned_sessions_share_one_root_concurrently(db, engine):
    """Readers pinned at two LSNs run one prepared statement on one
    compiled root from more threads than cores, switching often; each
    gets its own snapshot's bag (a scan caching its batch on the shared
    root would hand one snapshot's rows to the other)."""
    options = ENGINES[engine]
    statement = db.prepare(SQL)
    old = db.pin_snapshot()
    for value in range(6):
        db.execute(f"INSERT INTO r VALUES ({value}, {value}, 0, 2000)")
        db.execute(f"INSERT INTO s VALUES (0, {value}, 0, 0)")
    new = db.pin_snapshot()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        expected = {
            pin.lsn: Counter(statement.execute([1500], options, at_lsn=pin.lsn).rows)
            for pin in (old, new)
        }
        assert expected[old.lsn] != expected[new.lsn]
        failures = []

        def reader(lsn):
            try:
                for _ in range(15):
                    got = Counter(statement.execute([1500], options, at_lsn=lsn).rows)
                    if got != expected[lsn]:
                        failures.append(lsn)
            except Exception as error:  # surfaced below, not swallowed
                failures.append(error)

        threads = [
            threading.Thread(target=reader, args=(pin.lsn,)) for pin in (old, new, old, new)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
        assert not any(thread.is_alive() for thread in threads)
        assert failures == []
        assert len(db.plan(SQL).roots) == 1
    finally:
        sys.setswitchinterval(interval)
        db.release_snapshot(old)
        db.release_snapshot(new)
