"""Access-path benchmarks: what do secondary indexes buy?

The headline measurement pins the strategy to ``canonical`` on the
paper's Q1 template — the hot path is then the correlated ``A2 = B2``
equality probe into ``s``, executed once per outer row — and compares
the seed full-scan plan against the same plan with a hash index on the
correlation key (plus a sorted index on the cheap ``A4 > 1500``
disjunct's column):

* the access counters of one instrumented run, asserted against what
  the data says they must be — one probe per outer row, every matching
  ``s`` row read, every other row skipped;
* a ``timing``-marked assertion that the indexed plan is at least 5x
  faster than the seed scan (excluded from CI smoke, like every other
  timing test in this suite).
"""

from __future__ import annotations

import time
from collections import Counter

import pytest

from repro import Database, EvalOptions
from tests.conftest import assert_bag_equal

#: Q1-shaped: selective equality correlation plus a cheap range disjunct.
Q1 = """
SELECT DISTINCT *
FROM   r
WHERE  A1 = (SELECT COUNT(DISTINCT *) FROM s WHERE A2 = B2)
   OR  A4 > 1500
"""

REPEATS = 3
ROUNDS = 3  # best-of-N per configuration to shed scheduler/GC noise

INDEXES = (
    ("idx_b2", "s", "B2", "hash"),
    ("idx_a4", "r", "A4", "sorted"),
)


def _make_db(catalog, indexed: bool) -> Database:
    db = Database()
    for name in catalog.table_names():
        db.register(catalog.table(name))
    db.analyze()
    if indexed:
        for name, table, column, kind in INDEXES:
            db.create_index(name, table, column, kind)
    return db


@pytest.fixture(scope="module")
def db_pair(rst_catalogs):
    # sf2 on the inner relation: the full scan's cost grows with |s|
    # while a selective hash probe's does not, which is exactly the
    # asymmetry the index is supposed to buy.
    catalog = rst_catalogs(1, 2)
    return _make_db(catalog, indexed=True), _make_db(catalog, indexed=False)


def _best_seconds(db: Database, sql: str) -> float:
    # Strategy pinned to canonical for BOTH configurations: the indexed
    # and seed plans then differ only in access paths, so the ratio
    # isolates the index effect from the unnesting rewrites.
    planned = db.plan(sql, strategy="canonical")
    options = EvalOptions()

    def one_round() -> float:
        start = time.perf_counter()
        for _ in range(REPEATS):
            planned.execute(db.catalog, options)
        return time.perf_counter() - start

    return min(one_round() for _ in range(ROUNDS)) / REPEATS


def test_indexed_results_match_seed_scan(db_pair):
    indexed, plain = db_pair
    for strategy in ("canonical", "auto"):
        with_indexes = indexed.execute(Q1, strategy)
        without = plain.execute(Q1, strategy)
        assert_bag_equal(with_indexes, without, f"{strategy} diverged")


def test_access_counters_account_for_every_probe(db_pair):
    """Canonical Q1 probes ``idx_b2`` once per ``r`` row and reads exactly
    the ``s`` rows whose ``B2`` matches; the rest of ``s`` is skipped."""
    indexed, _ = db_pair
    plan = indexed.explain(Q1, strategy="canonical")
    assert "IndexScan" in plan  # the probe really is index-backed

    counting_db = _make_db(indexed.catalog, indexed=True)
    counting_db.execute(Q1, strategy="canonical")
    access = counting_db.access_info()

    r_rows, s_rows = (counting_db.table(name).rows for name in ("r", "s"))
    b2_counts = Counter(row[1] for row in s_rows)
    matching_pairs = sum(b2_counts[row[1]] for row in r_rows)
    assert access["index_scans"] == len(r_rows) > 0
    assert access["index_nl_probes"] == 0
    assert access["rows_read"] == matching_pairs
    assert access["rows_skipped"] == len(r_rows) * len(s_rows) - matching_pairs


@pytest.mark.timing
def test_indexed_probe_at_least_five_times_faster(db_pair):
    """Acceptance bar: the hash-indexed correlation probe beats the seed
    full-scan plan by >= 5x at benchmark scale."""
    indexed, plain = db_pair
    indexed_seconds = _best_seconds(indexed, Q1)
    seed_seconds = _best_seconds(plain, Q1)
    speedup = seed_seconds / max(indexed_seconds, 1e-9)
    assert speedup >= 5.0, (
        f"indexed {indexed_seconds:.6f}s vs seed scan {seed_seconds:.6f}s "
        f"= {speedup:.1f}x (acceptance bar 5x)"
    )
