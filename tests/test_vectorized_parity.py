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


# ---------------------------------------------------------------------------
# DISTINCT as a kernel: aggregates, SELECT DISTINCT, UNION
# ---------------------------------------------------------------------------
#
# DISTINCT is where bag and set semantics meet inside one plan, and where
# NULLs are equal to each other (duplicate elimination) although ``=``
# never says so.  The kernels work on factorised codes with a reserved
# NULL code; these properties hold them to the row engine and to
# ``evaluate_spec`` on tables that are NULL-heavy, duplicate-heavy and
# mixed-layout — small value pools make every example all three.

from hypothesis import HealthCheck, example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from repro import Database  # noqa: E402
from repro.algebra.aggregates import STAR, AggSpec, evaluate_spec  # noqa: E402
from repro.storage.table import Table  # noqa: E402

#: column -> value pool.  ``k1``/``m`` mix ints, floats and strings (object
#: layout, unorderable), ``f`` mixes ints and floats (float64 layout),
#: ``g`` holds an int beyond 64 bits (object layout of numbers).
POOLS = {
    "k1": [None, None, 0, 1, "x"],
    "k2": [None, 0, 1],
    "v": [None, None, 0, 1, 2, 3],
    "f": [None, 0, 1, 1.0, 0.5, 2.5],
    "m": [None, None, 0, 1, 1.0, "a", "1"],
    "g": [None, 1, 2, 2**70],
}
COLUMNS = list(POOLS)
table_rows = st.lists(st.tuples(*(st.sampled_from(pool) for pool in POOLS.values())), max_size=12)


def _plus(a, b):
    return None if a is None or b is None else a + b


#: SQL argument -> the value evaluate_spec sees for one row (a dict).
ARGUMENTS = {
    "v": lambda r: r["v"],
    "f": lambda r: r["f"],
    "v + f": lambda r: _plus(r["v"], r["f"]),
    "v * 2": lambda r: _plus(r["v"], r["v"]),
}
AGGREGATES = [
    (func, arg, distinct)
    for distinct in (False, True)
    for func, args in (
        ("COUNT", [*ARGUMENTS, "g", "m", "*"]),
        ("SUM", [*ARGUMENTS, "g"]),
        ("AVG", [*ARGUMENTS]),
        ("MIN", [*ARGUMENTS, "g"]),
        ("MAX", [*ARGUMENTS, "g"]),
    )
    for arg in args
]


def _reference(rows, keys):
    """The answer from first principles: Python grouping, then
    ``evaluate_spec`` over each group's argument values."""
    groups: dict = {}
    for row in rows:
        record = dict(zip(COLUMNS, row))
        groups.setdefault(tuple(record[k] for k in keys), []).append((row, record))
    if not keys and not groups:
        groups[()] = []  # a scalar aggregate answers over the empty table too
    out = []
    for key, members in groups.items():
        values = []
        for func, arg, distinct in AGGREGATES:
            spec = AggSpec(func.lower(), STAR if arg == "*" else None, distinct)
            extract = ARGUMENTS.get(arg, lambda r, arg=arg: r[arg])
            values.append(
                evaluate_spec(
                    spec, [row if arg == "*" else extract(record) for row, record in members]
                )
            )
        out.append(key + tuple(values))
    return out


@settings(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(rows=table_rows)
@example(rows=[])
@example(rows=[(None, None, None, None, None, None)])
@example(rows=[(0, 0, None, None, None, None)] * 3 + [(0, 1, 1, 1.0, 1.0, 1)])  # an all-NULL group
@example(rows=[(1, 0, 0, 0, 0, 1), (1, 0, None, None, None, None)] * 2)  # NULL beside 0
def test_distinct_aggregates_agree_with_the_row_engine_and_evaluate_spec(rows):
    database = Database()
    database.create_table("t", COLUMNS, rows)
    select = ", ".join(
        f"{func}({'DISTINCT ' if distinct else ''}{arg})" for func, arg, distinct in AGGREGATES
    )
    for keys in ((), ("k2",), ("k1", "k2")):
        key_list = ", ".join(keys)
        sql = f"SELECT {key_list + ', ' if keys else ''}{select} FROM t"
        if keys:
            sql += f" GROUP BY {key_list}"
        row = execute_sql(sql, database.catalog, "canonical", options=EvalOptions())
        vec = execute_sql(sql, database.catalog, "canonical", options=EvalOptions(vectorized=True))
        assert_bag_equal(row, vec, f"engines diverge for GROUP BY {keys} over {rows}")
        reference = Table(row.schema, _reference(rows, keys))
        assert_bag_equal(row, reference, f"row engine vs evaluate_spec, GROUP BY {keys}")


@settings(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(left=table_rows, right=table_rows)
@example(left=[(None, 0, 0, 0, 0, 1), (None, 0, None, 0, 0, 1)] * 2, right=[])  # NULL vs 0
@example(left=[(0, 0, 0, 1, 1, 1), (0, 0, 0, 1.0, 1.0, 1)], right=[(0, 0, 0, 1.0, 1, 1)])  # 1 vs 1.0
def test_duplicate_elimination_keeps_first_occurrences_in_row_engine_order(left, right):
    database = Database()
    database.create_table("t", COLUMNS, left)
    database.create_table("u", COLUMNS, right)
    for sql in (
        "SELECT DISTINCT * FROM t",
        "SELECT DISTINCT m, v FROM t",
        "SELECT DISTINCT f FROM t",
        "SELECT k1, m, f FROM t UNION SELECT k1, m, f FROM u",
        "SELECT v FROM t UNION SELECT k2 FROM u",
    ):
        row = execute_sql(sql, database.catalog, "canonical", options=EvalOptions())
        vec = execute_sql(sql, database.catalog, "canonical", options=EvalOptions(vectorized=True))
        assert row.rows == vec.rows, f"{sql} over {left} / {right}"


# ---------------------------------------------------------------------------
# The adhoc_cold pool: no kernel raises, nothing is healed
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def adhoc_pool():
    """The texts and data of the benchmark's ``adhoc_cold`` workload."""
    from repro.datagen import RstConfig, rst_catalog
    from repro.datagen.queries import QueryGenConfig, QueryGenerator

    generator = QueryGenerator(QueryGenConfig(seed=2007, p_linear=0.0))
    texts: dict = {}
    while len(texts) < 256:
        texts.setdefault(generator.query())
    return list(texts), rst_catalog(1, 1, 1, RstConfig(rows_per_sf=100))


def test_adhoc_pool_runs_vectorized_without_healing(adhoc_pool):
    """``plan_query(...).execute`` has no self-healing: a kernel that
    raises on one of these plans (an empty upstream batch, an object
    layout) fails here instead of becoming a slower correct answer."""
    from repro.optimizer import plan_query

    texts, catalog = adhoc_pool
    for sql in texts:
        expected = plan_query(sql, catalog, "canonical").execute(catalog)
        for strategy in ("auto", "unnested"):
            got = plan_query(sql, catalog, strategy).execute(catalog, EvalOptions(vectorized=True))
            assert_bag_equal(expected, got, f"({strategy}, vectorized) for {sql!r}")


def test_adhoc_pool_is_never_degraded_by_the_database(adhoc_pool):
    texts, catalog = adhoc_pool
    database = Database()
    for name in catalog.table_names():
        database.register(catalog.table(name))
    for sql in texts:
        database.execute(sql, options=EvalOptions(vectorized=True))
    assert database.resilience_info()["degradations"] == 0


# ---------------------------------------------------------------------------
# Unary minus and literal predicates: every operand layout, both engines
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "values",
    [
        [-(2**63), 2**63 - 1, None],
        [-(2**63) + 1, -7, None],
        [1.5, -2.0, None],
        [2**70, -1, None],
        [None, None],
    ],
    ids=["int64_min", "int64", "float", "object", "all_null"],
)
def test_unary_minus_agrees_with_python_numbers(values):
    """-(-2**63) is 2**63 as a Python int; an int64 kernel wraps it back."""
    database = Database()
    database.create_table("t", ["A", "B"], [(v, i) for i, v in enumerate(values)])
    negated = [(None if v is None else -v, i) for i, v in enumerate(values)]
    for sql, expected in (
        ("SELECT -A, B FROM t", negated),
        ("SELECT -A, B FROM t WHERE -A > 0", [(v, i) for v, i in negated if v is not None and v > 0]),
    ):
        for options in (EvalOptions(), EvalOptions(vectorized=True)):
            got = database.execute(sql, options=options).rows
            assert sorted(got, key=repr) == sorted(expected, key=repr), (sql, options)
    assert database.resilience_info()["degradations"] == 0


@pytest.mark.parametrize(
    "sql",
    [
        "SELECT A FROM t WHERE A > 0 OR NULL = 1",
        "SELECT A FROM t WHERE A > 0 AND NULL = 1",
        "SELECT A, CASE WHEN A > 0 THEN 1 WHEN 1 = 1 THEN 2 ELSE 3 END FROM t",
    ],
    ids=["or_unknown", "and_unknown", "case_true_branch"],
)
def test_literal_predicates_that_folding_keeps(sql):
    """Folding keeps an UNKNOWN beside a column predicate and a TRUE
    branch behind a first one: the batch engine evaluates those literals."""
    database = Database()
    database.create_table("t", ["A"], [(-1,), (0,), (2,), (None,)])
    row = database.execute(sql)
    assert_bag_equal(row, database.execute(sql, options=EvalOptions(vectorized=True)), sql)
    assert database.resilience_info()["degradations"] == 0
