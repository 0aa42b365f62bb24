"""An oracle outside the codebase, for reads: queries against stdlib ``sqlite3``.

The paper's claim is an equivalence — canonical and unnested plans return
the same bag under SQL's 3VL, duplicates included (§3.7) — and both of our
engines share one front end and one rewriter, so engine-vs-engine parity
cannot see a shared translation bug.  SQLite shares neither.  On the
NULL- and duplicate-bearing R/S/T instance of ``tests/sqlite_oracle.py``,
every text below runs under {auto, canonical, unnested, unnested with
Eqv. 2 / Eqv. 3 / Eqv. 5 forced through ``UnnestOptions``} × {row,
vectorized} and is compared with SQLite's answer as a bag:

* the ``adhoc_cold`` benchmark pool — 256 distinct texts of
  ``QueryGenConfig(seed=2007, p_linear=0.0)``: disjunctive linking and
  correlation, tree queries, ``<`` / ``>`` correlations, ``[NOT] EXISTS``,
  ``[NOT] IN``, ``θ ANY`` / ``θ ALL``;
* 96 linear texts (``seed=11, p_linear=1.0``): Eqv. 5's ν + ⋈± + binary Γ;
* Q1–Q4.

``REPRO_READ_ORACLE_TEXTS`` sets the budget of the generated sweep at the
end (texts per cell of p_linear ∈ {0, 0.5, 1} × NULL rate ∈ {0, 0.2}, over
several generator seeds and instances); the nightly workflow runs it large.
"""

from __future__ import annotations

import os
from collections import Counter

import pytest

from repro import EvalOptions, UnnestOptions
from repro.bench.queries import RST_QUERIES
from repro.datagen.queries import QueryGenConfig

from .conftest import generated_texts, make_rst_catalog
from .sqlite_oracle import instance, load, to_sqlite

ENGINES = {"row": EvalOptions(vectorized=False), "vectorized": EvalOptions(vectorized=True)}
FORCED = {
    "eqv2": UnnestOptions(disjunct_order="simple_first"),
    "eqv3": UnnestOptions(disjunct_order="subquery_first"),
    "eqv5": UnnestOptions(enable_eqv4=False),
}
#: (strategy, forced equivalence): the three strategies, then the
#: unnested plan with each equivalence forced.
CONFIGS = [(name, None) for name in ("auto", "canonical", "unnested")] + [
    ("unnested", name) for name in FORCED
]


POOLS = {
    "adhoc_cold": generated_texts(QueryGenConfig(seed=2007, p_linear=0.0), 256),
    "linear": generated_texts(QueryGenConfig(seed=11, p_linear=1.0), 96),
    "paper": list(RST_QUERIES.values()),
}


def disagreements(tables, texts, configs=CONFIGS) -> list[tuple]:
    """Every (text, strategy, forced, engine) whose bag differs from SQLite's.

    A request that healed onto another plan would hide the one under
    test, so a degradation counts as a disagreement too."""
    connection, database = load(tables)
    found = []
    for sql in texts:
        theirs = Counter(connection.execute(to_sqlite(sql)).fetchall())
        for strategy, forced in configs:
            for engine, options in ENGINES.items():
                result = database.execute(
                    sql, strategy, options, unnest_options=FORCED.get(forced)
                )
                if Counter(result.rows) != theirs:
                    found.append((sql, strategy, forced, engine))
    assert database.resilience_info()["degradations"] == 0
    return found


@pytest.mark.parametrize("config", CONFIGS, ids=lambda c: "-".join(filter(None, c)))
@pytest.mark.parametrize("pool", sorted(POOLS))
def test_sqlite_agrees_on_every_text(pool, config):
    assert disagreements(instance(), POOLS[pool], [config]) == []


def test_the_instance_and_the_pools_are_not_vacuous():
    """NULLs and duplicates are present, the pools carry every form the
    shim spells, and the answers are not all empty."""
    connection, _ = load(instance())
    rows = connection.execute("SELECT * FROM r").fetchall()
    assert any(None in row for row in rows) and len(set(rows)) < len(rows)
    pool = POOLS["adhoc_cold"]
    assert len(pool) == 256 and len(POOLS["linear"]) == 96
    for form in (" ANY (", " ALL (", "NOT EXISTS", "NOT IN", "COUNT(DISTINCT *)", "A2 < B2"):
        assert any(form in sql for sql in pool), form
    assert all("SELECT COUNT(*) FROM t" in sql for sql in POOLS["linear"])
    sizes = [len(connection.execute(to_sqlite(sql)).fetchall()) for sql in pool]
    assert sum(1 for size in sizes if size) > len(pool) // 2


@pytest.mark.parametrize("quantifier", ["ANY", "ALL"])
@pytest.mark.parametrize("op", ["<", "<=", ">", ">="])
def test_the_quantified_shim_is_exact_3vl(op, quantifier):
    """``x θ ANY/ALL (S)`` through the shim equals the 3VL definition —
    the OR / AND of ``x θ b`` over ``S`` — for every x and every S drawn
    from {1, 2, NULL}, the empty S included."""
    import itertools
    import operator
    import sqlite3

    compare = {"<": operator.lt, "<=": operator.le, ">": operator.gt, ">=": operator.ge}[op]

    def expected(x, members):
        truths = [None if x is None or b is None else compare(x, b) for b in members]
        if quantifier == "ALL":
            return 0 if False in truths else (None if None in truths else 1)
        return 1 if True in truths else (None if None in truths else 0)

    connection = sqlite3.connect(":memory:")
    connection.execute("CREATE TABLE r (A1)")
    connection.execute("CREATE TABLE s (B1, B2)")
    sql = to_sqlite(f"SELECT A1 {op} {quantifier} (SELECT B1 FROM s WHERE B2 = 1) FROM r")
    assert f" {quantifier} " not in sql
    for x in (0, 1, 2, 3, None):
        for size in range(3):
            for members in itertools.product((1, 2, None), repeat=size):
                connection.execute("DELETE FROM r")
                connection.execute("DELETE FROM s")
                connection.execute("INSERT INTO r VALUES (?)", (x,))
                connection.executemany("INSERT INTO s VALUES (?, 1)", [(b,) for b in members])
                connection.execute("INSERT INTO s VALUES (0, 2)")  # outside S
                ((got,),) = connection.execute(sql).fetchall()
                assert got == expected(x, members), (x, members)


BUDGET = int(os.environ.get("REPRO_READ_ORACLE_TEXTS", "8"))


@pytest.mark.parametrize("null_rate", [0.0, 0.2])
@pytest.mark.parametrize("p_linear", [0.0, 0.5, 1.0])
def test_generated_texts_over_generated_instances(p_linear, null_rate):
    """``BUDGET`` generated texts per cell, over several generator seeds
    and instances (8 in tier-1; the nightly workflow raises it)."""
    seeds = 4
    found = []
    for seed in range(seeds):
        catalog = make_rst_catalog(n_r=24, n_s=18, n_t=12, seed=seed, null_rate=null_rate)
        tables = {name: list(catalog.table(name).rows) for name in ("r", "s", "t")}
        config = QueryGenConfig(seed=1000 + seed, p_linear=p_linear)
        found += disagreements(tables, generated_texts(config, -(-BUDGET // seeds)))
    assert found == []
