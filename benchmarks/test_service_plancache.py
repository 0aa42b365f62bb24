"""Service-layer benchmarks: plan-cache speedup and server latency.

Two measurements:

* the plan cache on a repeated parameterized paper query — cache **off**
  re-derives the plan every time (parse → translate → unnest → cost),
  cache **on** pays one derivation and then only binds + executes; the
  timing test asserts the ≥5x win the service layer exists for;
* a short burst against the HTTP server, asserting the counters that
  do not depend on the clock: one plan derivation and then only hits,
  every query answered, none failed (a plain functional test, safe at
  smoke scale; served latency is ``python3 -m benchmarks.e2e``'s job).
"""

from __future__ import annotations

import time

import pytest

from repro import Database
from repro.optimizer import execute_sql
from repro.service import QueryServer, ServerConfig
from repro.service.client import ServiceClient
from tests.conftest import assert_bag_equal

#: Parameterized variant of the paper's Q1: same template, shifting
#: threshold — exactly the workload a plan cache is built for.
Q1_TEMPLATE = """
SELECT DISTINCT *
FROM   r
WHERE  A1 = (SELECT COUNT(DISTINCT *) FROM s WHERE A2 = B2)
   OR  A4 > ?
"""

#: Parameterized Q4 (§3.6, linear nesting): the deepest paper template,
#: so plan derivation (two rewrite levels + cost-based choice) dwarfs
#: point-lookup execution — the regime the cache targets.
Q4_TEMPLATE = """
SELECT DISTINCT *
FROM   r
WHERE  A1 = (SELECT COUNT(DISTINCT *)
             FROM   s
             WHERE  A2 = B2
                OR  B3 = (SELECT COUNT(DISTINCT *) FROM t WHERE B4 = C2))
   OR  A4 > ?
"""

REPEATS = 30
ROUNDS = 3  # best-of-N per side to shed scheduler/GC noise

#: The timing comparison runs at OLTP point-lookup scale on purpose:
#: planning cost depends on query complexity, execution cost on data
#: size, and prepared statements pay off exactly where the former
#: dominates.  Fixed size keeps the test REPRO_BENCH_ROWS-agnostic.
POINT_LOOKUP_ROWS = 8


@pytest.fixture(scope="module")
def service_db(rst_catalogs):
    catalog = rst_catalogs(1, 1)
    db = Database()
    for name in catalog.table_names():
        db.register(catalog.table(name))
    return db


@pytest.fixture(scope="module")
def point_db():
    from repro.datagen import RstConfig, rst_catalog

    catalog = rst_catalog(1, 1, 1, RstConfig(rows_per_sf=POINT_LOOKUP_ROWS))
    db = Database()
    for name in catalog.table_names():
        db.register(catalog.table(name))
    return db


@pytest.mark.timing
def test_plan_cache_speedup_on_repeated_parameterized_query(point_db):
    db = point_db
    statement = db.prepare(Q4_TEMPLATE)
    execute_sql(Q4_TEMPLATE, db.catalog, "auto", params=[1500])  # warm both paths

    def round_uncached() -> float:
        start = time.perf_counter()
        for index in range(REPEATS):
            execute_sql(Q4_TEMPLATE, db.catalog, "auto", params=[1500 + index])
        return time.perf_counter() - start

    def round_cached() -> float:
        start = time.perf_counter()
        for index in range(REPEATS):
            statement.execute([1500 + index])
        return time.perf_counter() - start

    uncached_seconds = min(round_uncached() for _ in range(ROUNDS))
    cached_seconds = min(round_cached() for _ in range(ROUNDS))

    speedup = uncached_seconds / max(cached_seconds, 1e-9)
    assert speedup >= 5.0, (
        f"plan cache speedup {speedup:.1f}x < 5x "
        f"(uncached {uncached_seconds:.4f}s, cached {cached_seconds:.4f}s "
        f"for {REPEATS} executions)"
    )


def test_cached_and_uncached_agree(point_db):
    db = point_db
    for template in (Q1_TEMPLATE, Q4_TEMPLATE):
        uncached = execute_sql(template, db.catalog, "auto", params=[2000])
        statement = db.prepare(template)
        assert_bag_equal(statement.execute([2000]), uncached)
        assert_bag_equal(db.execute(template, params=[2000]), uncached)


def test_server_burst_derives_one_plan_and_fails_no_query(service_db):
    """Run a burst through the HTTP server and check its tallies.

    The five distinct thresholds share one template, so the plan cache
    derives once and hits ever after; wall-clock leaves get only sanity
    bounds so the smoke run stays timing-agnostic.
    """
    server = QueryServer(
        service_db, ServerConfig(port=0, max_in_flight=4, default_timeout=30.0)
    ).start()
    try:
        client = ServiceClient(server.url)
        for index in range(REPEATS):
            result = client.query(Q1_TEMPLATE, params=[1500 + index % 5], timeout=30)
            assert result.columns  # well-formed response every time
        metrics = client.metrics()
    finally:
        server.stop()

    tallies = metrics["server"]
    latency = tallies["latency"]
    cache = metrics["plan_cache"]
    assert latency["count"] == REPEATS
    assert latency["p50"] <= latency["p95"]
    assert (cache["misses"], cache["hits"]) == (1, REPEATS - 1)
    assert (cache["size"], cache["evictions"], cache["invalidations"]) == (1, 0, 0)
    assert cache["quarantined"] == 0
    assert tallies["queries_ok"] == REPEATS
    for tally in ("queries_failed", "queries_timeout", "queries_cancelled",
                  "rejected_overload", "in_flight"):
        assert tallies[tally] == 0, tally
