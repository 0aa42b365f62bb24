"""Deterministic fault injection: config, injector, and chaos parity.

The differential tests are the point of the harness: with seeded faults
armed against the unnested / vectorized plans, every query must still
return the canonical row-engine answer — the self-healing layer absorbs
the chaos.
"""

import pytest

from repro import Database, EvalOptions, FaultConfig, FaultInjector
from repro.errors import InjectedFault
from repro.faults import (
    ENV_COUNT,
    ENV_PROB,
    ENV_SEED,
    ENV_SITES,
    injector_from_env,
)

from .conftest import assert_bag_equal, make_rst_catalog

ROW = EvalOptions(vectorized=False)

PAPER_SQL = [
    # Eqv. 2/3 territory: disjunctive linking over a scalar COUNT.
    """SELECT DISTINCT * FROM r
       WHERE A1 = (SELECT COUNT(DISTINCT *) FROM s WHERE A2 = B2)
          OR A4 > 1500""",
    # Disjunctive correlation inside the nested block (Eqv. 4/5).
    """SELECT DISTINCT * FROM r
       WHERE A1 = (SELECT COUNT(DISTINCT *) FROM s WHERE A2 = B2 OR A3 = B3)""",
    # Plain conjunctive scalar subquery (Eqv. 1 baseline).
    """SELECT DISTINCT * FROM r
       WHERE A1 = (SELECT COUNT(DISTINCT *) FROM s WHERE A2 = B2)""",
]


def make_db() -> Database:
    db = Database()
    catalog = make_rst_catalog()
    for name in catalog.table_names():
        db.register(catalog.table(name))
    return db


class TestFaultConfig:
    def test_disabled_without_sites(self):
        assert FaultConfig.from_env({}) is None
        assert FaultConfig.from_env({ENV_SEED: "7"}) is None
        assert injector_from_env({}) is None

    def test_env_round_trip(self):
        config = FaultConfig.from_env(
            {
                ENV_SITES: "engine.row.PBypass, storage.scan",
                ENV_SEED: "42",
                ENV_PROB: "0.5",
                ENV_COUNT: "3",
            }
        )
        assert config.sites == ("engine.row.PBypass", "storage.scan")
        assert config.seed == 42
        assert config.probability == 0.5
        assert config.max_faults == 3

    def test_negative_count_means_unlimited(self):
        config = FaultConfig.from_env({ENV_SITES: "x", ENV_COUNT: "-1"})
        assert config.max_faults is None


class TestFaultInjector:
    def test_prefix_matching(self):
        injector = FaultInjector(FaultConfig(sites=("engine.row.PBypass",)))
        assert injector.matches("engine.row.PBypassFilter")
        assert injector.matches("engine.row.PBypass")
        assert not injector.matches("engine.row.PScan")
        assert not injector.matches("engine.vector.VBypassFilter")

    def test_wildcard_matches_everything(self):
        injector = FaultInjector(FaultConfig(sites=("*",)))
        assert injector.matches("anything.at.all")

    def test_max_faults_caps_firing(self):
        injector = FaultInjector(FaultConfig(sites=("site",), max_faults=2))
        for _ in range(2):
            with pytest.raises(InjectedFault):
                injector.maybe_fail("site")
        injector.maybe_fail("site")  # budget spent: no raise
        assert injector.fired == 2
        assert injector.fired_sites() == ("site", "site")

    def test_injected_fault_is_retryable_and_coded(self):
        injector = FaultInjector(FaultConfig(sites=("site",)))
        with pytest.raises(InjectedFault) as excinfo:
            injector.maybe_fail("site")
        assert excinfo.value.code == "FAULT_INJECTED"
        assert excinfo.value.retryable
        assert excinfo.value.site == "site"

    def test_same_seed_same_decisions(self):
        def firing_pattern(seed: int) -> list[bool]:
            injector = FaultInjector(
                FaultConfig(
                    sites=("site",), seed=seed, probability=0.5, max_faults=None
                )
            )
            pattern = []
            for _ in range(20):
                try:
                    injector.maybe_fail("site")
                    pattern.append(False)
                except InjectedFault:
                    pattern.append(True)
            return pattern

        assert firing_pattern(7) == firing_pattern(7)
        assert any(firing_pattern(7))
        assert not all(firing_pattern(7))

    def test_probability_zero_never_fires(self):
        injector = FaultInjector(
            FaultConfig(sites=("site",), probability=0.0, max_faults=None)
        )
        for _ in range(50):
            injector.maybe_fail("site")
        assert injector.fired == 0


class TestChaosParity:
    """Seeded faults + self-healing == the canonical answer, always."""

    @pytest.mark.parametrize("sql", PAPER_SQL)
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_unnested_plan_heals_to_canonical_answer(self, sql, seed):
        db = make_db()
        baseline = db.execute(sql, strategy="canonical", options=ROW)
        injector = FaultInjector(
            FaultConfig(sites=("engine.row.PBypass",), seed=seed)
        )
        healed = db.execute(
            sql, strategy="unnested", options=EvalOptions(vectorized=False, faults=injector)
        )
        assert_bag_equal(healed, baseline, "faulted unnested != canonical")

    @pytest.mark.parametrize("sql", PAPER_SQL)
    def test_vectorized_plan_heals_to_canonical_answer(self, sql):
        db = make_db()
        baseline = db.execute(sql, strategy="canonical", options=ROW)
        injector = FaultInjector(FaultConfig(sites=("engine.vector",), seed=5))
        healed = db.execute(
            sql,
            strategy="canonical",
            options=EvalOptions(vectorized=True, faults=injector),
        )
        assert injector.fired > 0, "chaos config never fired"
        assert_bag_equal(healed, baseline, "faulted vectorized != canonical")

    def test_storage_scan_fault_on_canonical_row_plan_propagates(self):
        # The simplest plan has no fallback: the fault must surface.
        db = make_db()
        injector = FaultInjector(FaultConfig(sites=("storage.scan",)))
        with pytest.raises(InjectedFault):
            db.execute(
                "SELECT A1 FROM r",
                strategy="canonical",
                options=EvalOptions(vectorized=False, faults=injector),
            )

    def test_env_driven_injection(self, monkeypatch):
        db = make_db()
        sql = PAPER_SQL[0]
        baseline = db.execute(sql, strategy="canonical", options=ROW)
        monkeypatch.setenv(ENV_SITES, "engine.row.PBypass")
        monkeypatch.setenv(ENV_SEED, "1234")
        healed = db.execute(sql, strategy="unnested", options=ROW)
        assert_bag_equal(healed, baseline, "env-armed chaos broke parity")
        assert db.resilience_info()["degradations"] >= 1

    def test_explicit_options_disable_env_injection(self, monkeypatch):
        db = make_db()
        monkeypatch.setenv(ENV_SITES, "*")
        # Explicit (fault-free) injector wins over the environment.
        quiet = FaultInjector(FaultConfig(sites=("nothing.matches",)))
        result = db.execute(
            "SELECT A1 FROM r", options=EvalOptions(faults=quiet)
        )
        assert len(result.rows) == 30
