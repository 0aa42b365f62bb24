"""Differential parity: every paper query, indexes on vs. off.

The access-path subsystem must be *transparent*: for any query, any
strategy, and either engine, an indexed database returns exactly the
same bag of rows as an index-free one — including when index key
columns contain NULLs (neither index kind holds a NULL key, and a NULL probe
value matches nothing).

Covers Q1–Q4 over the RST schema (the §3 running examples, as run by
EXPERIMENTS.md) plus Query 2d on generated TPC-H data.
"""

from collections import Counter

import pytest

from repro import Database, EvalOptions
from repro.bench.queries import QUERY_2D, RST_QUERIES
from repro.datagen import TpchConfig, generate_tpch

from .conftest import make_rst_catalog

#: Every index-eligible column of the RST schema: hash on the equality
#: correlation keys, sorted on the big-domain range columns.
RST_INDEXES = (
    ("idx_a1", "r", "A1", "hash"),
    ("idx_b2", "s", "B2", "hash"),
    ("idx_c2", "t", "C2", "hash"),
    ("idx_a4", "r", "A4", "sorted"),
    ("idx_b4", "s", "B4", "sorted"),
    ("idx_c4", "t", "C4", "sorted"),
)

STRATEGIES = ("canonical", "unnested", "auto")
ENGINES = ("row", "vectorized")


def _rst_db(indexed: bool, null_rate: float) -> Database:
    db = Database()
    catalog = make_rst_catalog(seed=777, null_rate=null_rate)
    for name in catalog.table_names():
        db.register(catalog.table(name))
    db.analyze()
    if indexed:
        for name, table, column, kind in RST_INDEXES:
            db.create_index(name, table, column, kind)
    return db


@pytest.fixture(scope="module", params=[0.0, 0.2], ids=["dense", "nulls"])
def rst_pair(request):
    """(indexed, plain) databases over identical row sets."""
    null_rate = request.param
    return _rst_db(True, null_rate), _rst_db(False, null_rate)


@pytest.mark.parametrize("query_name", sorted(RST_QUERIES))
@pytest.mark.parametrize("strategy", STRATEGIES)
@pytest.mark.parametrize("engine", ENGINES)
def test_rst_query_parity(rst_pair, query_name, strategy, engine):
    indexed, plain = rst_pair
    sql = RST_QUERIES[query_name]
    options = EvalOptions(vectorized=engine == "vectorized")
    with_indexes = indexed.execute(sql, strategy, options=options)
    without = plain.execute(sql, strategy, options=options)
    assert Counter(with_indexes.rows) == Counter(without.rows), (
        f"{query_name} diverged (strategy={strategy}, engine={engine})"
    )


@pytest.fixture(scope="module")
def tpch_pair():
    config = TpchConfig(scale_factor=0.003, include_order_pipeline=False)
    databases = []
    for indexed in (True, False):
        db = Database()
        for table in generate_tpch(config).values():
            db.register(table)
        db.analyze()
        if indexed:
            db.create_index("idx_ps_part", "partsupp", "ps_partkey", "hash")
            db.create_index("idx_s_nation", "supplier", "s_nationkey", "hash")
            db.create_index("idx_ps_avail", "partsupp", "ps_availqty", "sorted")
        databases.append(db)
    return tuple(databases)


@pytest.mark.parametrize("strategy", STRATEGIES)
@pytest.mark.parametrize("engine", ENGINES)
def test_query_2d_parity(tpch_pair, strategy, engine):
    indexed, plain = tpch_pair
    options = EvalOptions(vectorized=engine == "vectorized")
    with_indexes = indexed.execute(QUERY_2D, strategy, options=options)
    without = plain.execute(QUERY_2D, strategy, options=options)
    assert Counter(with_indexes.rows) == Counter(without.rows)


def test_null_key_probe_rows_never_leak():
    """A NULL-keyed row must not appear in any indexed equality result."""
    db = Database()
    db.create_table(
        "s", ["B1", "B2"], [(1, 2), (2, None), (3, 2), (4, None)]
    )
    db.analyze()
    db.create_index("idx_b2", "s", "B2", "hash")
    for engine in ENGINES:
        options = EvalOptions(vectorized=engine == "vectorized")
        matched = db.execute("SELECT B1 FROM s WHERE B2 = 2", options=options)
        assert sorted(matched.rows) == [(1,), (3,)]


@pytest.mark.parametrize(
    "predicate",
    ["K < 3", "K <= 3", "K > 3", "K >= 3", "K > 1 AND K <= 4", "K >= 2 AND K < 2", "K = 3"],
)
@pytest.mark.parametrize("engine", ENGINES)
def test_sorted_index_bounds_match_the_scan_row_for_row(predicate, engine):
    """Duplicate-heavy, NULL-bearing key: every bound shape returns the
    no-index scan's rows in the scan's (physical) order."""
    rows = [(i, None if i % 5 == 0 else (i * 7) % 6) for i in range(120)]
    sql = f"SELECT ID, K FROM d WHERE {predicate}"
    options = EvalOptions(vectorized=engine == "vectorized")
    results = []
    for indexed in (True, False):
        db = Database()
        db.create_table("d", ["ID", "K"], rows)
        db.analyze()
        if indexed:
            db.create_index("idx_k", "d", "K", "sorted")
        results.append(db.execute(sql, options=options).rows)
        assert db.access_info()["index_scans"] == int(indexed)
    assert results[0] == results[1]
