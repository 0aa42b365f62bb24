"""DML keeps what hangs off a table current by the statement's delta.

Every ``INSERT``/``UPDATE``/``DELETE`` moves the catalog's statistics and
a warm column batch by the rows it changed instead of recomputing them
from the table; a secondary index is built per table version by the probe
that needs it (``index_for``).  The property checked here is that nobody
can tell: after every statement of a random interleaving, each kept
structure equals the one rebuilt from the rows — ``TableStats.compute``,
``Batch.from_rows``, ``make_index`` — and a snapshot pinned before the
statement still reads the old rows through both engines.
"""

from __future__ import annotations

import os
import sys
import threading

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro import Database, EvalOptions
from repro.engine.vector_ops import table_batch
from repro.storage.batch import Batch
from repro.optimizer.planner import plan_query
from repro.storage.catalog import TableStats, _ColumnCounts
from repro.storage.index import index_for, make_index

# NULL-heavy, duplicate-heavy: six values for up to twenty rows.
value = st.sampled_from([None, None, 0, 1, 2, 7])
rows = st.lists(st.tuples(value, value, value), min_size=0, max_size=20)

literal = st.sampled_from(["NULL", "0", "1", "2", "7", "9"])
# What only column c ever receives: a float and a string force its batch
# layout wider, an int beyond 64 bits does not fit int64 at all.
wide = st.sampled_from(["2.5", "'x'", str(2**70), "NULL", "3"])
predicate = st.sampled_from(
    [
        "a = 1",
        "a = 7",
        "b > 0",
        "a IS NULL",
        "a = NULL",  # UNKNOWN for every row: touches nothing
        "a = b OR b = 2",
        "b = (SELECT MAX(b) FROM t)",  # the current maximum
        "a = (SELECT MIN(a) FROM t)",  # the current minimum
        "a IN (SELECT x FROM u)",
    ]
)

insert_values = st.lists(st.tuples(literal, literal, wide), min_size=1, max_size=3).map(
    lambda new: "INSERT INTO t VALUES " + ", ".join("({}, {}, {})".format(*row) for row in new)
)
insert_select = st.sampled_from(
    [
        "INSERT INTO t SELECT x, y, z FROM u",
        "INSERT INTO t SELECT x, y, z FROM u WHERE x > 1",
        "INSERT INTO t (b, a) SELECT a, b FROM t WHERE a = 1",
    ]
)
assignments = st.sampled_from(
    [
        "a = b, b = a",  # both sides read the old row
        "c = NULL",
        "a = NULL, b = 7",
        "a = a + 1",
        "b = 2.5",  # int -> float
        "c = 'x'",  # int -> string
        f"c = {2**70}",
        "b = (SELECT COUNT(*) FROM u)",
    ]
)
where = st.one_of(st.just(""), predicate.map(" WHERE ".__add__))
statement = st.one_of(
    insert_values,
    insert_select,
    where.map("DELETE FROM t".__add__),
    st.tuples(assignments, where).map(lambda pair: f"UPDATE t SET {pair[0]}{pair[1]}"),
)

ENGINES = (EvalOptions(vectorized=False), EvalOptions(vectorized=True))
SCAN = "SELECT a, b, c FROM t"


def assert_stats_current(db, table):
    kept, rebuilt = db.catalog.stats("t"), TableStats.compute(table)
    assert kept.row_count == rebuilt.row_count == len(table.rows)
    assert list(kept.columns) == list(rebuilt.columns)
    for name, column in kept.columns.items():
        fresh = rebuilt.columns[name]
        assert column.distinct == fresh.distinct, name
        assert column.null_count == fresh.null_count, name
        assert column.min_value == fresh.min_value, name
        assert column.max_value == fresh.max_value, name
        if fresh.histogram is None:
            assert column.histogram is None, name
        else:
            assert column.histogram.edges == fresh.histogram.edges, name
            assert column.histogram.counts == fresh.histogram.counts, name
    assert kept == rebuilt


def assert_batch_current(table):
    kept, rebuilt = table_batch(table), Batch.from_rows(table.schema, table.rows)
    assert len(kept) == len(table.rows)
    assert kept.to_rows() == table.rows
    for position in range(len(table.schema)):
        mask, fresh = kept.valid[position], rebuilt.valid[position]
        assert (mask is None) == (fresh is None), position
        assert mask is None or np.array_equal(mask, fresh), position


def assert_indexes_current(db, table):
    for index in db.catalog.indexes_on("t"):
        rebuilt = make_index(index.name, table, "t", index.column, index.kind)
        shared = index_for(index, table)
        assert shared.version == table.version
        for key in {row[index.position] for row in table.rows} | {None, 5}:
            assert shared.eq_positions(key) == rebuilt.eq_positions(key), (index.name, key)


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    initial=rows,
    source=rows,
    script=st.lists(st.tuples(statement, st.booleans(), st.booleans()), min_size=1, max_size=8),
)
def test_every_statement_leaves_derived_state_equal_to_a_rebuild(initial, source, script):
    db = Database()
    table = db.create_table("t", ["a", "b", "c"], initial)
    db.create_table("u", ["x", "y", "z"], source)
    db.execute("CREATE INDEX t_a ON t (a)")
    db.execute("CREATE INDEX t_b ON t (b) USING sorted")
    db.execute("CREATE INDEX t_c ON t (c)")
    for sql, warm, probe in script:
        if warm:
            table_batch(table)  # the writer finds a batch to carry forward
        before = list(table.rows)
        pin = db.pin_snapshot()
        try:
            # The vectorized read makes the pinned snapshot share the live
            # table's column arrays, which the writer must then not touch.
            for options in ENGINES:
                assert db.execute(SCAN, options=options, at_lsn=pin.lsn).rows == before
            version = table.version
            affected = db.execute(sql).rows[0][0]
            assert affected == 0 or table.version > version
            for options in ENGINES:
                assert db.execute(SCAN, options=options, at_lsn=pin.lsn).rows == before
        finally:
            db.release_snapshot(pin)
        assert_stats_current(db, table)
        assert_batch_current(table)
        if probe:  # otherwise the next statement finds the indexes as this one left them
            assert_indexes_current(db, table)
        for options in ENGINES:
            assert db.execute(SCAN, options=options).rows == table.rows


def test_a_carried_batch_is_published_at_the_new_version_over_new_arrays():
    db = Database()
    table = db.create_table("t", ["a", "b"], [(1, 10), (2, None), (3, 30)])
    old = table_batch(table)
    for sql in (
        "INSERT INTO t VALUES (4, 40), (NULL, 50)",
        "UPDATE t SET b = a WHERE a >= 3",
        "DELETE FROM t WHERE a = 1",
    ):
        db.execute(sql)
        version, batch = table.batch_cache  # warm without any scan in between
        assert version == table.version
        assert batch.to_rows() == table.rows
    assert [column.dtype.kind for column in batch.data] == ["i", "i"]
    assert old.to_rows() == [(1, 10), (2, None), (3, 30)]  # what a pinned reader holds


@pytest.mark.parametrize(
    "sql",
    [
        "INSERT INTO t VALUES (2.5)",  # a float entering an int64 column
        "UPDATE t SET a = 'x' WHERE a = 1",  # a string
        f"INSERT INTO t VALUES ({2**70})",  # an int beyond 64 bits
    ],
)
def test_a_value_outside_the_layout_drops_the_batch_for_one_full_pivot(sql):
    db = Database()
    table = db.create_table("t", ["a"], [(1,), (2,)])
    table_batch(table)
    db.execute(sql)
    assert table.batch_cache is None
    assert table_batch(table).to_rows() == table.rows


@pytest.fixture
def derivations(monkeypatch):
    """The multisets ``_ColumnCounts.summary`` was called on, in order."""
    calls = []
    real = _ColumnCounts.summary

    def counted(self, buckets):
        calls.append(self)
        return real(self, buckets)

    monkeypatch.setattr(_ColumnCounts, "summary", counted)
    return calls


def test_statistics_cost_nothing_until_the_planner_reads_them(derivations):
    db = Database()
    db.create_table("t", ["a", "b"], [(1, 10), (2, 20), (None, 30)])
    stats = db.catalog.stats("t")
    a, b = stats._counts["a"], stats._counts["b"]
    before = stats.column("a")
    assert stats.column("b").max_value == 30 and derivations == [a, b]
    db.execute("INSERT INTO t VALUES (9, 40)")
    assert db.catalog.stats("t") is stats  # moved in place by the delta
    assert stats.row_count == 4 and derivations == [a, b]  # nothing derived yet
    after = stats.column("a")
    assert derivations == [a, b, a]  # a was asked for: a, and not b, is derived
    assert stats.column("a") is after and stats.columns["a"] is after
    assert derivations == [a, b, a]  # once per column and table version
    assert after.max_value == 9 and after.distinct == 3
    assert before.max_value == 2  # what an earlier reader holds is not touched
    assert stats.columns.get("nope") is None and "nope" not in stats.columns
    with pytest.raises(KeyError):
        stats.column("nope")
    assert dict(stats.columns) == {"a": after, "b": stats.column("b")}


def test_a_point_write_derives_the_columns_its_predicate_names(derivations):
    from repro.datagen import RstConfig, generate_rst

    db = Database()
    for table in generate_rst(1, 1, 1, RstConfig(rows_per_sf=300)).values():
        db.register(table)
    stats = db.catalog.stats("s")
    db.execute("INSERT INTO s VALUES (1, 2, 3, 4)")  # a delta: nothing is cached
    del derivations[:]
    db.execute("UPDATE s SET B3 = B3 + 1 WHERE B2 = 7")
    assert derivations == [stats._counts["B2"]]
    assert TableStats.compute(db.catalog.table("s")) == stats


@pytest.mark.parametrize("switch_interval", [None, 1e-6])
def test_statistics_readers_never_see_a_multiset_mid_delta(switch_interval):
    """Two readers derive and plan while a writer applies deltas: the race
    a lock-free derivation loses (``dictionary changed size during
    iteration``, or figures of no committed version)."""
    rounds = int(os.environ.get("REPRO_STATS_RACE_ROUNDS", "300"))
    db = Database()
    base = [(i % 1500, i) for i in range(2000)]  # a derivation worth interrupting
    table = db.create_table("t", ["a", "b"], base)
    stats = db.catalog.stats("t")
    extra = [(5000 + i, -i) for i in range(40)]
    # Every committed version: the base rows, with or without ``extra``.
    committed = [
        _ColumnCounts(row[0] for row in rows).summary(20) for rows in (base, base + extra)
    ]
    seen, errors, done = [], [], threading.Event()

    def reader():
        try:
            while not done.is_set():
                seen.append(stats.column("a"))
                plan_query("SELECT b FROM t WHERE a = 3", db.catalog)
        except Exception as error:  # reported below, from the main thread
            errors.append(error)

    previous = sys.getswitchinterval()
    if switch_interval is not None:
        sys.setswitchinterval(switch_interval)
    try:
        readers = [threading.Thread(target=reader) for _ in range(2)]
        for thread in readers:
            thread.start()
        for _ in range(rounds):
            stats.apply_delta(extra, [])
            stats.apply_delta([], extra)
        done.set()
        for thread in readers:
            thread.join(timeout=30)
    finally:
        sys.setswitchinterval(previous)
    assert not any(thread.is_alive() for thread in readers)
    assert errors == []
    assert seen and all(column in committed for column in seen)
    assert TableStats.compute(table) == stats
