"""Differential parity: vectorized engine ≡ row engine on the paper suite.

Every query of the unnesting corpus (the paper's running examples plus
the ad-hoc variants exercised by ``tests/test_unnest_paper_queries.py``)
is executed on both engines, over both the canonical and the unnested
plan, and the results must be bag-equal.  Three datasets stress the
interesting regimes: the standard seeded catalog, a NULL-heavy catalog
(3VL truth-pair kernels), and a catalog with an empty inner relation
(the count-bug ``f(∅)`` defaults).
"""

import pytest

from repro.bench.queries import Q1, Q2, Q3, Q4, QUERY_2D
from repro.engine import EvalOptions
from repro.optimizer import execute_sql
from tests.conftest import assert_bag_equal, make_rst_catalog

np = pytest.importorskip("numpy")

AGG_LINKING = [
    "COUNT(*)", "COUNT(B1)", "COUNT(DISTINCT B1)", "SUM(B1)",
    "SUM(DISTINCT B1)", "AVG(B1)", "MIN(B1)", "MAX(B1)", "MIN(DISTINCT B1)",
]
AGG_CORRELATION = [
    "COUNT(*)", "COUNT(DISTINCT B1)", "SUM(B1)", "AVG(B1)", "MIN(B1)", "MAX(B1)",
]

CORPUS: dict[str, str] = {
    "Q1": Q1,
    "Q2": Q2,
    "Q3": Q3,
    "Q4": Q4,
    "three_disjuncts_tree": """
        SELECT DISTINCT * FROM r
        WHERE A1 = (SELECT COUNT(*) FROM s WHERE A2 = B2)
           OR A3 = (SELECT COUNT(*) FROM t WHERE A4 = C2)
           OR A4 > 2500""",
    "three_level_linear": """
        SELECT DISTINCT * FROM r
        WHERE A1 = (SELECT COUNT(*) FROM s
                    WHERE A2 = B2
                       OR B3 = (SELECT COUNT(*) FROM t
                                WHERE B4 = C2 OR C4 > 2000))""",
    "combined_linking_correlation": """
        SELECT DISTINCT * FROM r
        WHERE A1 = (SELECT COUNT(*) FROM s WHERE A2 = B2 OR B4 > 1500)
           OR A4 > 2000""",
    "combined_with_min": """
        SELECT DISTINCT * FROM r
        WHERE A1 = (SELECT MIN(B1) FROM s WHERE A2 = B2 OR B4 > 2500)
           OR A4 > 2500""",
    "non_decomposable_count_distinct": """
        SELECT DISTINCT * FROM r
        WHERE A1 = (SELECT COUNT(DISTINCT B1) FROM s
                    WHERE A2 = B2 OR B4 > 1500)""",
    # Flat shapes (no subquery): the serial VFilter, VHashGroupBy with
    # every decomposable aggregate, and VHashJoin under a filter.
    "flat_arithmetic_filter": """
        SELECT A2, A4 FROM r
        WHERE A4 * 3 + A2 * 2 - A4 / 4 > 500 AND A4 < 900""",
    "flat_group_by_decomposable": """
        SELECT A2, COUNT(*), SUM(A4), MIN(A4), MAX(A4), AVG(A4)
        FROM r GROUP BY A2""",
    "flat_equi_join_filter": """
        SELECT r.A2, s.B1 FROM r, s WHERE r.A2 = s.B2 AND r.A4 < 1500""",
}
for agg in AGG_LINKING:
    CORPUS[f"linking_{agg}"] = f"""
        SELECT DISTINCT * FROM r
        WHERE A2 = (SELECT {agg} FROM s WHERE A2 = B2) OR A4 > 1500"""
for agg in AGG_CORRELATION:
    CORPUS[f"correlation_{agg}"] = f"""
        SELECT DISTINCT * FROM r
        WHERE A2 = (SELECT {agg} FROM s WHERE A2 = B2 OR B4 > 2000)"""
for op in ["=", "<>", "<", "<=", ">", ">="]:
    CORPUS[f"linking_op_{op}"] = f"""
        SELECT DISTINCT * FROM r
        WHERE A1 {op} (SELECT COUNT(*) FROM s WHERE A2 = B2) OR A4 > 2500"""
for op in ["<", "<=", ">", ">=", "<>"]:
    CORPUS[f"correlation_op_{op}"] = f"""
        SELECT DISTINCT * FROM r
        WHERE A1 = (SELECT COUNT(*) FROM s WHERE A2 {op} B2)"""


@pytest.fixture(scope="module")
def plain():
    return make_rst_catalog(n_r=40, n_s=35, n_t=30, seed=7)


@pytest.fixture(scope="module")
def null_heavy():
    return make_rst_catalog(n_r=40, n_s=35, n_t=30, seed=99, null_rate=0.25)


@pytest.fixture(scope="module")
def empty_inner():
    # s and t empty: every subquery aggregates over ∅ (the count bug).
    return make_rst_catalog(n_r=25, n_s=0, n_t=0, seed=11)


def both_engines(sql: str, catalog, strategy: str) -> None:
    row = execute_sql(sql, catalog, strategy, options=EvalOptions())
    vec = execute_sql(sql, catalog, strategy, options=EvalOptions(vectorized=True))
    assert_bag_equal(row, vec, f"engines diverge ({strategy}) for {sql!r}")


@pytest.mark.parametrize("strategy", ["canonical", "unnested"])
@pytest.mark.parametrize("name", sorted(CORPUS))
def test_parity_plain(plain, name, strategy):
    both_engines(CORPUS[name], plain, strategy)


@pytest.mark.parametrize("strategy", ["canonical", "unnested"])
@pytest.mark.parametrize("name", sorted(CORPUS))
def test_parity_null_heavy(null_heavy, name, strategy):
    both_engines(CORPUS[name], null_heavy, strategy)


@pytest.mark.parametrize("name", ["Q1", "Q2", "Q4", "combined_linking_correlation"])
@pytest.mark.parametrize("strategy", ["canonical", "unnested"])
def test_parity_count_bug_empty_inner(empty_inner, name, strategy):
    both_engines(CORPUS[name], empty_inner, strategy)


@pytest.mark.parametrize("strategy", ["auto", "s1", "s2", "s3"])
def test_parity_other_strategies(plain, strategy):
    for name in ("Q1", "Q2", "Q3", "Q4"):
        both_engines(CORPUS[name], plain, strategy)


def test_parity_tpch_2d():
    from repro.datagen import TpchConfig, generate_tpch
    from repro.storage import Catalog

    catalog = Catalog()
    for table in generate_tpch(TpchConfig(scale_factor=0.002)).values():
        catalog.register(table)
    for strategy in ("canonical", "unnested"):
        both_engines(QUERY_2D, catalog, strategy)
