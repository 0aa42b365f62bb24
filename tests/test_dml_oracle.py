"""An oracle outside the codebase, for writes: DML against stdlib ``sqlite3``.

A DML statement's embedded read goes through the planner, so Eqv. 1–5
decide which rows a statement destroys.  Both of our engines share one
front end and one rewriter; SQLite shares neither.  One small
NULL-bearing, duplicate-bearing R/S/T instance is loaded into an
in-memory SQLite and into :class:`repro.Database`, a fixed pool of
``INSERT … SELECT`` / ``UPDATE`` / ``DELETE`` statements whose predicates
have the paper's shapes (Q1 disjunctive linking, Q2 disjunctive
correlation, Q3 tree, Q4 linear; ``=`` / ``<`` / ``IN`` / ``NOT IN`` over
NULLs; SET values from correlated subqueries; subqueries over the table
being modified) runs on both, and after **every** statement the three
tables are compared as bags and ``rows_affected`` against SQLite's
``rowcount`` — under {row, vectorized} × {auto, canonical, unnested}.

The instance, the loader and the dialect shim (SQLite has no
``COUNT(DISTINCT *)``) are shared with the read oracle:
``tests/sqlite_oracle.py``.

The second half needs no second system: predicates drawn from
``datagen/queries.py``'s generator (the whole problem class, quantified
forms included) used as ``DELETE`` / ``UPDATE`` predicates must leave a
(row, canonical) and a (vectorized, auto) database bag-equal with equal
``TableStats``.
"""

from __future__ import annotations

from collections import Counter

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro import Database, EvalOptions
from repro.datagen.queries import QueryGenConfig, QueryGenerator
from repro.storage.catalog import TableStats

from .conftest import make_rst_catalog
from .sqlite_oracle import SCHEMAS, instance, load, to_sqlite

def count_distinct_star(fr: str) -> str:
    return f"(SELECT COUNT(DISTINCT *) FROM {fr})"


S_BY_A2 = count_distinct_star("s WHERE A2 = B2")

#: Run in this order on one instance; every statement changes rows (see
#: ``test_the_pool_is_not_vacuous``), so each one also prepares the next.
POOL = [
    # Q1 — disjunctive linking
    f"DELETE FROM r WHERE A1 = {S_BY_A2} OR A4 > 2500",
    f"UPDATE r SET A3 = A3 + 10 WHERE A1 = {S_BY_A2} OR A4 > 1500",
    "UPDATE r SET A4 = A4 + 1 WHERE A1 < (SELECT COUNT(*) FROM s WHERE A2 = B2) OR A3 IS NULL",
    "INSERT INTO t SELECT A1, A2, A3, A4 FROM r"
    " WHERE A1 = (SELECT MAX(B1) FROM s WHERE A2 = B2) OR A4 < 300",
    # Q2 — disjunctive correlation
    "DELETE FROM s WHERE B1 = (SELECT COUNT(*) FROM t WHERE B2 = C2 OR C4 > 2500)",
    "UPDATE r SET A2 = A1 WHERE A1 > (SELECT COUNT(*) FROM s WHERE A2 = B2 OR B4 > 2700)",
    "INSERT INTO s SELECT * FROM r"
    " WHERE A3 <= (SELECT MIN(B3) FROM s WHERE A2 = B2 OR B4 < 400)",
    "UPDATE s SET B3 = (SELECT COUNT(*) FROM t WHERE B2 = C2 OR C3 = 1) WHERE B4 > 1000",
    # Q3 — tree
    f"DELETE FROM r WHERE A1 = {S_BY_A2}"
    f" OR A3 = {count_distinct_star('t WHERE A4 = C4')}",
    "UPDATE r SET A4 = A4 + 100 WHERE A1 = (SELECT COUNT(*) FROM s WHERE A4 = B4)"
    " OR A3 = (SELECT COUNT(*) FROM t WHERE A2 = C2) OR A4 > 2800",
    "INSERT INTO t SELECT * FROM r WHERE A1 > (SELECT COUNT(*) FROM s WHERE A2 = B2)"
    " OR A3 = (SELECT MIN(C3) FROM t WHERE A2 = C2)",
    # Q4 — linear
    "DELETE FROM r WHERE A1 = "
    + count_distinct_star(
        "s WHERE A4 = B4 OR B3 = " + count_distinct_star("t WHERE B4 = C4")
    ),
    "UPDATE r SET A1 = A1 + 1 WHERE A1 = (SELECT COUNT(*) FROM s WHERE A2 = B2"
    " OR B3 = (SELECT COUNT(*) FROM t WHERE B4 = C4 OR C3 = 0))",
    "INSERT INTO r SELECT * FROM s WHERE B1 < (SELECT COUNT(*) FROM t WHERE B2 = C2"
    " OR C3 = (SELECT COUNT(*) FROM r WHERE C1 = A1))",
    # IN / NOT IN over NULLs
    "DELETE FROM r WHERE A1 IN (SELECT B3 FROM s WHERE A2 = B2 AND B4 > 1500) OR A4 > 2700",
    "DELETE FROM s WHERE B1 NOT IN (SELECT C1 FROM t WHERE B2 = C2 OR C4 > 2000)",
    "UPDATE r SET A3 = 99 WHERE A2 NOT IN (SELECT B2 FROM s)"
    " OR A1 = (SELECT COUNT(*) FROM s WHERE A4 = B4)",
    "UPDATE t SET C4 = 0 WHERE C1 IN (SELECT A1 FROM r WHERE A2 = C2) OR C2 IS NULL",
    "INSERT INTO s SELECT * FROM t"
    " WHERE C1 NOT IN (SELECT A1 FROM r WHERE A2 = C2 OR A4 > 2900)",
    # SET values from correlated subqueries
    f"UPDATE r SET A3 = {S_BY_A2}, A4 = (SELECT MAX(B4) FROM s WHERE A1 = B1 OR B3 = 1)"
    " WHERE A4 > 1000 OR A1 = (SELECT MIN(B1) FROM s WHERE A2 = B2)",
    "UPDATE s SET B1 = (SELECT SUM(C1) FROM t WHERE B2 = C2)",
    # Subqueries over the table being modified read the pre-statement state
    "DELETE FROM r WHERE A1 = (SELECT COUNT(*) FROM r r2 WHERE r2.A2 = r.A2) OR A4 < 100",
    "UPDATE t SET C3 = (SELECT COUNT(*) FROM t t2 WHERE t2.C2 = t.C2 OR t2.C4 > 2500)"
    " WHERE C1 < (SELECT COUNT(*) FROM t t2 WHERE t2.C2 = t.C2)",
    f"INSERT INTO r SELECT * FROM r WHERE A1 = {S_BY_A2} OR A4 > 2000",
    "DELETE FROM t WHERE EXISTS (SELECT B1 FROM s WHERE B2 = C2 AND B1 < C1) OR C4 > 2500",
]


def test_the_shim_rewrites_nested_count_distinct_star():
    assert to_sqlite(POOL[11]) == (
        "DELETE FROM r WHERE A1 = (SELECT COUNT(*) FROM (SELECT DISTINCT * FROM s"
        " WHERE A4 = B4 OR B3 = (SELECT COUNT(*) FROM (SELECT DISTINCT * FROM t"
        " WHERE B4 = C4))))"
    )


def test_the_pool_is_not_vacuous():
    """NULLs and duplicates are present and every statement changes rows."""
    connection, _ = load(instance())
    rows = [row for name in SCHEMAS for row in connection.execute(f"SELECT * FROM {name}")]
    assert any(None in row for row in rows) and len(set(rows)) < len(rows)
    changed = [connection.execute(to_sqlite(sql)).rowcount for sql in POOL]
    assert len(POOL) >= 24 and all(count > 0 for count in changed), changed


@pytest.mark.parametrize("strategy", ["auto", "canonical", "unnested"])
@pytest.mark.parametrize("vectorized", [False, True], ids=["row", "vectorized"])
def test_sqlite_agrees_after_every_statement(strategy, vectorized):
    connection, database = load(instance())
    options = EvalOptions(vectorized=vectorized)
    for number, sql in enumerate(POOL):
        expected = connection.execute(to_sqlite(sql)).rowcount
        affected = database.execute(sql, strategy, options).rows
        assert affected == [(expected,)], (number, sql)
        for name in SCHEMAS:
            theirs = Counter(connection.execute(f"SELECT * FROM {name}").fetchall())
            assert Counter(database.table(name).rows) == theirs, (number, sql, name)
            assert database.catalog.stats(name) == TableStats.compute(database.table(name))


# ---------------------------------------------------------------------------
# Generated predicates: (row, canonical) ≡ (vectorized, auto)
# ---------------------------------------------------------------------------

WRITES = [
    "DELETE FROM r",
    "UPDATE r SET A3 = A1, A1 = A3",
    "UPDATE r SET A4 = (SELECT COUNT(*) FROM s WHERE A2 = B2 OR B4 > 1500)",
]
script = st.lists(
    st.tuples(st.sampled_from(WRITES), st.integers(0, 10**6)), min_size=1, max_size=3
)


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(script=script, data_seed=st.integers(0, 30), null_rate=st.sampled_from([0.0, 0.2]))
def test_generated_predicates_leave_both_configurations_bag_equal(script, data_seed, null_rate):
    databases = []
    for strategy, options in (("canonical", EvalOptions(vectorized=False)), ("auto", EvalOptions(vectorized=True))):
        catalog = make_rst_catalog(n_r=24, n_s=18, n_t=12, seed=data_seed, null_rate=null_rate)
        database = Database()
        for name in catalog.table_names():
            database.create_table(name, catalog.table(name).schema.names, catalog.table(name).rows)
        databases.append((database, strategy, options))
    for write, seed in script:
        where = QueryGenerator(QueryGenConfig(seed=seed)).query().split(" WHERE ", 1)[1]
        sql = f"{write} WHERE {where}"
        (reference, *run), (candidate, *other) = databases
        assert reference.execute(sql, *run).rows == candidate.execute(sql, *other).rows, sql
        assert reference.table("r").rows == candidate.table("r").rows, sql
        assert candidate.catalog.stats("r") == reference.catalog.stats("r"), sql
        assert candidate.catalog.stats("r") == TableStats.compute(candidate.table("r")), sql
