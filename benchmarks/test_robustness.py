"""Robustness benchmarks: what does the resource governor cost?

The governor piggybacks on the engines' existing cooperative tick
points, so its overhead should be one ``is not None`` check when
disarmed and a counter compare when armed.  On the paper's Q1/Q4
templates:

* a seeded chaos run whose degradation counters must add up — every
  injected fault degrades exactly one execution, and every degradation
  lands on the canonical answer;
* a ``timing``-marked assertion that the armed governor stays within
  10% of the ungoverned run at smoke scale (excluded from CI smoke,
  like every other timing test in this suite).
"""

from __future__ import annotations

import time

import pytest

from repro import Database, EvalOptions, FaultConfig, FaultInjector, ResourceLimits
from tests.conftest import assert_bag_equal

Q1 = """
SELECT DISTINCT *
FROM   r
WHERE  A1 = (SELECT COUNT(DISTINCT *) FROM s WHERE A2 = B2)
   OR  A4 > 1500
"""

Q4 = """
SELECT DISTINCT *
FROM   r
WHERE  A1 = (SELECT COUNT(DISTINCT *)
             FROM   s
             WHERE  A2 = B2
                OR  B3 = (SELECT COUNT(DISTINCT *) FROM t WHERE B4 = C2))
   OR  A4 > 1500
"""

QUERIES = {"Q1": Q1, "Q4": Q4}

REPEATS = 5
ROUNDS = 3  # best-of-N per configuration to shed scheduler/GC noise

#: Armed but never tripping: the budgets are orders of magnitude above
#: what the smoke-scale queries use, so the measurement isolates the
#: bookkeeping cost, not an early abort.
GENEROUS = ResourceLimits(
    max_rows=10**9, max_memory_bytes=1 << 40, max_subquery_depth=64
)


@pytest.fixture(scope="module")
def governor_db(rst_catalogs):
    catalog = rst_catalogs(1, 1)
    db = Database()
    for name in catalog.table_names():
        db.register(catalog.table(name))
    return db


def _best_seconds(db: Database, sql: str, options: EvalOptions) -> float:
    planned = db.plan(sql, strategy="canonical")

    def one_round() -> float:
        start = time.perf_counter()
        for _ in range(REPEATS):
            planned.execute(db.catalog, options)
        return time.perf_counter() - start

    return min(one_round() for _ in range(ROUNDS)) / REPEATS


def test_governed_results_match_ungoverned(governor_db):
    for sql in QUERIES.values():
        plain = governor_db.execute(sql, strategy="canonical")
        governed = governor_db.execute(
            sql, strategy="canonical", options=EvalOptions(resources=GENEROUS)
        )
        assert_bag_equal(governed, plain, "governor changed the answer")


def test_every_injected_fault_degrades_once_and_heals(governor_db):
    """A seeded chaos pass: every fallback must land on the right answer."""
    chaos_db = Database()
    for name in governor_db.catalog.table_names():
        chaos_db.register(governor_db.catalog.table(name))
    for name, sql in QUERIES.items():
        baseline = chaos_db.execute(sql, strategy="canonical")
        injector = FaultInjector(
            FaultConfig(sites=("engine.row.PBypass",), seed=1234)
        )
        healed = chaos_db.execute(
            sql, strategy="unnested", options=EvalOptions(faults=injector)
        )
        assert_bag_equal(healed, baseline, f"{name} chaos fallback diverged")
        assert injector.fired == 1, f"{name}: one fault, on the first bypass"
    resilience = chaos_db.resilience_info()
    assert resilience["degradations"] == len(QUERIES)  # one per fault
    assert resilience["fallback_successes"] == len(QUERIES)


@pytest.mark.timing
@pytest.mark.parametrize("name", sorted(QUERIES))
def test_armed_governor_overhead_below_ten_percent(governor_db, name):
    """The armed governor must cost < 10% wall time at smoke scale."""
    db = governor_db
    sql = QUERIES[name]
    db.plan(sql, strategy="canonical")
    off = _best_seconds(db, sql, EvalOptions())
    armed = _best_seconds(db, sql, EvalOptions(resources=GENEROUS))
    ratio = armed / max(off, 1e-9)
    assert ratio < 1.10, (
        f"{name}: governed {armed:.6f}s vs ungoverned {off:.6f}s "
        f"= {ratio:.3f}x (budget 1.10x)"
    )
