"""Self-healing execution: fallback, quarantine, and degradation metrics."""

import pytest

from repro import Database, EvalOptions, FaultConfig, FaultInjector, ResourceLimits
from repro.errors import BudgetExceeded, InjectedFault, ResourceExhausted

from .conftest import assert_bag_equal, make_rst_catalog

NESTED_SQL = """SELECT DISTINCT * FROM r
    WHERE A1 = (SELECT COUNT(DISTINCT *) FROM s WHERE A2 = B2)
       OR A4 > 1500"""


@pytest.fixture(autouse=True)
def _quiet_environment(monkeypatch):
    """Strip ambient chaos/governor env (the CI chaos-smoke job arms it
    globally): this file asserts exact degradation and quarantine counts
    driven by *explicit* injectors, so ambient faults would skew them."""
    for name in (
        "REPRO_FAULT_SITES",
        "REPRO_FAULT_SEED",
        "REPRO_FAULT_PROB",
        "REPRO_FAULT_COUNT",
        "REPRO_GOVERNOR_MAX_ROWS",
        "REPRO_GOVERNOR_MAX_MEMORY",
        "REPRO_GOVERNOR_MAX_DEPTH",
    ):
        monkeypatch.delenv(name, raising=False)


def make_db() -> Database:
    db = Database()
    catalog = make_rst_catalog()
    for name in catalog.table_names():
        db.register(catalog.table(name))
    return db


def bypass_chaos(seed: int = 0) -> FaultInjector:
    return FaultInjector(FaultConfig(sites=("engine.row.PBypass",), seed=seed))


class TestFallback:
    def test_unnested_fault_returns_canonical_answer(self):
        db = make_db()
        baseline = db.execute(NESTED_SQL, strategy="canonical")
        healed = db.execute(
            NESTED_SQL, strategy="unnested", options=EvalOptions(faults=bypass_chaos())
        )
        assert_bag_equal(healed, baseline, "fallback result diverged")
        info = db.resilience_info()
        assert info["degradations"] == 1
        assert info["fallback_successes"] == 1
        assert info["last_degradation"]["error_code"] == "FAULT_INJECTED"
        assert info["last_degradation"]["alternative"] == "unnested"

    def test_vectorized_fault_falls_back_to_row(self):
        db = make_db()
        baseline = db.execute(NESTED_SQL, strategy="canonical")
        injector = FaultInjector(FaultConfig(sites=("engine.vector",)))
        healed = db.execute(
            NESTED_SQL,
            strategy="canonical",
            options=EvalOptions(vectorized=True, faults=injector),
        )
        assert_bag_equal(healed, baseline, "vectorized fallback diverged")
        assert db.resilience_info()["last_degradation"]["engine"] == "vectorized"

    def test_canonical_row_plan_has_no_fallback(self):
        db = make_db()
        injector = FaultInjector(FaultConfig(sites=("storage.scan",)))
        with pytest.raises(InjectedFault):
            db.execute(
                "SELECT A1 FROM r",
                strategy="canonical",
                options=EvalOptions(faults=injector),
            )
        assert db.resilience_info()["degradations"] == 0

    def test_non_retryable_errors_are_not_healed(self):
        db = make_db()
        with pytest.raises(ResourceExhausted):
            db.execute(
                NESTED_SQL,
                strategy="unnested",
                options=EvalOptions(resources=ResourceLimits(max_rows=10)),
            )
        with pytest.raises(BudgetExceeded):
            db.execute(
                "SELECT COUNT(*) FROM r, s, r r2, s s2",
                strategy="canonical",
                options=EvalOptions(budget_seconds=0.0),
            )
        assert db.resilience_info()["degradations"] == 0

    def test_params_survive_the_fallback(self):
        db = make_db()
        sql = """SELECT DISTINCT * FROM r
            WHERE A1 = (SELECT COUNT(DISTINCT *) FROM s WHERE A2 = B2)
               OR A4 > ?"""
        baseline = db.execute(sql, strategy="canonical", params=[1500])
        healed = db.execute(
            sql,
            strategy="unnested",
            options=EvalOptions(faults=bypass_chaos()),
            params=[1500],
        )
        assert_bag_equal(healed, baseline, "parameterized fallback diverged")


class TestQuarantine:
    def test_failed_plan_is_quarantined(self):
        db = make_db()
        db.execute(NESTED_SQL, strategy="unnested")  # warm the cache
        before = db.cache_info()
        assert before.quarantined == 0
        db.execute(
            NESTED_SQL, strategy="unnested", options=EvalOptions(faults=bypass_chaos())
        )
        after = db.cache_info()
        assert after.quarantined == 1
        assert after.quarantined_keys == 1
        assert after.as_dict()["quarantined"] == 1

    def test_quarantined_key_stops_serving_hits(self):
        db = make_db()
        db.execute(
            NESTED_SQL, strategy="unnested", options=EvalOptions(faults=bypass_chaos())
        )
        hits_before = db.cache_info().hits
        db.execute(NESTED_SQL, strategy="unnested")
        db.execute(NESTED_SQL, strategy="unnested")
        # Both executions re-planned: no hit was served for the key.
        assert db.cache_info().hits == hits_before

    def test_analyze_readmits_quarantined_keys(self):
        db = make_db()
        db.execute(
            NESTED_SQL, strategy="unnested", options=EvalOptions(faults=bypass_chaos())
        )
        assert db.cache_info().quarantined_keys == 1
        db.analyze()
        assert db.cache_info().quarantined_keys == 0
        db.execute(NESTED_SQL, strategy="unnested")
        db.execute(NESTED_SQL, strategy="unnested")
        assert db.cache_info().hits >= 1  # cache serves the key again

    def test_other_keys_keep_their_cache_entries(self):
        db = make_db()
        other = "SELECT A1 FROM r"
        db.execute(other)
        db.execute(
            NESTED_SQL, strategy="unnested", options=EvalOptions(faults=bypass_chaos())
        )
        hits_before = db.cache_info().hits
        db.execute(other)
        assert db.cache_info().hits == hits_before + 1


class TestPlannerHealing:
    def test_planner_fallback_flag_defaults_false(self):
        db = make_db()
        planned = db.plan(NESTED_SQL, strategy="unnested")
        assert planned.planner_fallback is False
        assert planned.chosen_alternative == "unnested"


class TestBatchFormsOfEqv5Heal:
    """A fault at one of the batch forms of Eqv. 5's operators — ⋈±
    (``engine.vector.VBypassJoin``) and the join without an equality key
    (``engine.vector.VNLJoin``) — heals onto the canonical row plan, whose
    bag SQLite agrees with."""

    CASES = [
        ("engine.vector.VBypassJoin", "Q4"),
        ("engine.vector.VBypassJoin", "SELECT * FROM r WHERE A1 < (SELECT MAX(B1) FROM s"
         " WHERE B4 < 500 OR A2 < B2) AND A2 > 3"),
        ("engine.vector.VNLJoin", "SELECT DISTINCT * FROM r WHERE A2 > 3"
         " OR A1 >= (SELECT COUNT(B1) FROM s WHERE A2 < B2)"),
    ]

    @pytest.mark.parametrize("site, sql", CASES, ids=["Q4", "theta-bypass", "theta-join"])
    def test_injected_fault_heals_onto_the_canonical_row_plan(self, site, sql):
        from collections import Counter

        from repro.bench.queries import RST_QUERIES

        from .sqlite_oracle import instance, load, to_sqlite

        pytest.importorskip("numpy")
        sql = RST_QUERIES.get(sql, sql)
        connection, db = load(instance())
        expected = Counter(connection.execute(to_sqlite(sql)).fetchall())
        injector = FaultInjector(FaultConfig(sites=(site,)))
        healed = db.execute(sql, "auto", EvalOptions(vectorized=True, faults=injector))
        assert injector.fired_sites() == (site,)  # the site is on the plan and fired
        assert Counter(healed.rows) == expected
        info = db.resilience_info()
        assert info["degradations"] == 1 and info["fallback_successes"] == 1
        assert info["last_degradation"]["engine"] == "vectorized"
        assert info["last_degradation"]["alternative"] == "unnested"
