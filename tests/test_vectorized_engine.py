"""Unit tests for the vectorized backend: Batch, kernels, operators.

The differential suite (``test_vectorized_parity.py``) proves
end-to-end equivalence; these tests pin the load-bearing mechanics —
column layouts, zero-copy selection-vector splits, 3VL truth pairs,
fallback routing — at the component level.
"""

import numpy as np
import pytest

from repro import Database
from repro.algebra import expr as E
from repro.engine import EvalOptions
from repro.engine import vector_ops as V
from repro.engine.compile import compile_plan
from repro.engine.context import ExecContext
from repro.engine.vector_kernels import compile_predicate
from repro.optimizer import execute_sql, plan_query
from repro.storage.batch import Batch, build_column
from repro.storage.catalog import Catalog
from repro.storage.schema import Schema
from tests.conftest import assert_bag_equal, make_rst_catalog


# ---------------------------------------------------------------------------
# Batch layout
# ---------------------------------------------------------------------------


class TestBuildColumn:
    def test_int_layout(self):
        data, valid = build_column([1, 2, 3])
        assert data.dtype == np.int64 and valid is None

    def test_float_layout(self):
        data, valid = build_column([0.5, None, 2.5])
        assert data.dtype == np.float64 and valid.tolist() == [True, False, True]

    def test_ints_beside_floats_use_object_layout(self):
        # float64 would hand 1 back as 1.0, where the row engine keeps 1.
        data, valid = build_column([1, 2.5])
        assert data.dtype == object and valid is None and type(data[0]) is int

    def test_deltas_keep_int_and_float_apart(self):
        assert build_column([3], np.dtype(np.float64)) is None
        assert build_column([0.5], np.dtype(np.int64)) is None
        assert build_column([None], np.dtype(np.float64))[0].dtype == np.float64
        assert build_column([1, 0.5], np.dtype(object))[0].dtype == object

    def test_nulls_only_in_mask(self):
        data, valid = build_column([1, None, 3])
        assert data.dtype == np.int64
        assert valid.tolist() == [True, False, True]
        assert data[1] == 0  # zero fill, never interpreted

    def test_bools_use_object_layout(self):
        # int64 cannot distinguish True from 1, and the engine compares
        # booleans with ``is True``.
        data, _ = build_column([True, False])
        assert data.dtype == object and data[0] is True

    def test_strings_use_object_layout(self):
        data, valid = build_column(["a", None])
        assert data.dtype == object and valid.tolist() == [True, False]

    def test_huge_ints_fall_back_to_object(self):
        data, _ = build_column([2**70, 1])
        assert data.dtype == object and data[0] == 2**70


class TestBatch:
    def test_roundtrip(self):
        schema = Schema(["x", "y"])
        rows = [(1, "a"), (None, "b"), (3, None)]
        assert Batch.from_rows(schema, rows).to_rows() == rows

    def test_split_is_zero_copy_and_complementary(self):
        schema = Schema(["x"])
        batch = Batch.from_rows(schema, [(i,) for i in range(6)])
        mask = np.array([True, False, True, False, False, True])
        positive, negative = batch.split(mask)
        # Both streams alias the same base arrays: no rows were copied.
        assert positive.data[0] is batch.data[0]
        assert negative.data[0] is batch.data[0]
        assert positive.to_rows() == [(0,), (2,), (5,)]
        assert negative.to_rows() == [(1,), (3,), (4,)]

    def test_take_composes_selections(self):
        schema = Schema(["x"])
        batch = Batch.from_rows(schema, [(i,) for i in range(10)])
        view = batch.filter(np.arange(10) % 2 == 0)  # 0 2 4 6 8
        assert view.take(np.array([1, 3])).to_rows() == [(2,), (6,)]

    def test_concat_promotes_mixed_dtypes(self):
        schema = Schema(["x"])
        ints = Batch.from_rows(schema, [(1,)])
        strs = Batch.from_rows(schema, [("a",)])
        merged = Batch.concat(schema, [ints, strs])
        assert merged.to_rows() == [(1,), ("a",)]

    def test_project_shares_selection(self):
        schema = Schema(["x", "y"])
        batch = Batch.from_rows(schema, [(1, 10), (2, 20), (3, 30)])
        view = batch.filter(np.array([True, False, True]))
        projected = view.project([1], Schema(["y"]))
        assert projected.to_rows() == [(10,), (30,)]


# ---------------------------------------------------------------------------
# 3VL predicate kernels (truth pairs)
# ---------------------------------------------------------------------------


def run_predicate(expr, schema, rows):
    kernel = compile_predicate(expr, schema)
    batch = Batch.from_rows(schema, rows)
    ctx = ExecContext(Catalog(), EvalOptions(vectorized=True))
    is_true, is_false = kernel(ctx, {})(batch)
    return [
        True if t else (False if f else None)
        for t, f in zip(is_true.tolist(), is_false.tolist())
    ]


class TestKernels3VL:
    SCHEMA = Schema(["x", "y"])

    def test_comparison_null_is_unknown(self):
        expr = E.Comparison("<", E.ColumnRef("x"), E.ColumnRef("y"))
        got = run_predicate(expr, self.SCHEMA, [(1, 2), (2, 1), (None, 1), (1, None)])
        assert got == [True, False, None, None]

    def test_kleene_or_salvages_unknown(self):
        # UNKNOWN OR TRUE = TRUE; UNKNOWN OR FALSE = UNKNOWN.
        expr = E.Or(
            (
                E.Comparison("=", E.ColumnRef("x"), E.Literal(1)),
                E.Comparison("=", E.ColumnRef("y"), E.Literal(9)),
            )
        )
        got = run_predicate(expr, self.SCHEMA, [(None, 9), (None, 0), (1, None)])
        assert got == [True, None, True]

    def test_kleene_and(self):
        # UNKNOWN AND FALSE = FALSE; UNKNOWN AND TRUE = UNKNOWN.
        expr = E.And(
            (
                E.Comparison("=", E.ColumnRef("x"), E.Literal(1)),
                E.Comparison("=", E.ColumnRef("y"), E.Literal(9)),
            )
        )
        got = run_predicate(expr, self.SCHEMA, [(None, 0), (None, 9), (1, 9)])
        assert got == [False, None, True]

    def test_not_unknown_is_unknown(self):
        expr = E.Not(E.Comparison("=", E.ColumnRef("x"), E.Literal(1)))
        got = run_predicate(expr, self.SCHEMA, [(1, 0), (2, 0), (None, 0)])
        assert got == [False, True, None]

    def test_in_list_with_null_candidate(self):
        # 3 IN (1, 2, NULL) = UNKNOWN, 1 IN (1, 2, NULL) = TRUE.
        expr = E.InList(
            E.ColumnRef("x"), (E.Literal(1), E.Literal(2), E.Literal(None))
        )
        got = run_predicate(expr, self.SCHEMA, [(1, 0), (3, 0), (None, 0)])
        assert got == [True, None, None]

    def test_is_null(self):
        expr = E.IsNull(E.ColumnRef("x"))
        got = run_predicate(expr, self.SCHEMA, [(None, 0), (1, 0)])
        assert got == [True, False]

    def test_correlated_column_binds_from_env(self):
        expr = E.Comparison("=", E.ColumnRef("x"), E.ColumnRef("outer_k"))
        kernel = compile_predicate(expr, self.SCHEMA)
        batch = Batch.from_rows(self.SCHEMA, [(1, 0), (2, 0)])
        ctx = ExecContext(Catalog(), EvalOptions(vectorized=True))
        is_true, _ = kernel(ctx, {"outer_k": 2})(batch)
        assert is_true.tolist() == [False, True]


# ---------------------------------------------------------------------------
# Eqv. 4's χ g := fO(g1, g2): the partial-combine kernel
# ---------------------------------------------------------------------------

#: layout of the two partial columns -> rows of (g1, g2)
PARTIALS = {
    "int64": [(3, 5), (None, 2), (7, None), (None, None), (4, 4)],
    "float64": [(0.5, 2), (None, 2.5), (7.0, None), (None, None)],
    "int64 beside float64": [(3, 0.5), (None, 2.5), (7, None), (None, None)],
    "object (strings)": [("b", "a"), (None, "c"), ("d", None), (None, None)],
    "object (int beyond 64 bits)": [(2**70, 1), (None, 2), (3, None), (None, None)],
    "empty upstream batch": [],
    "no NULL at all": [(1, 2), (4, 3)],
}


@pytest.mark.parametrize("layout", sorted(PARTIALS))
@pytest.mark.parametrize("name", ["count", "count_star", "sum", "min", "max"])
def test_agg_combine_kernel_follows_aggregate_combine(name, layout):
    from repro.engine.evaluate import compile_expr
    from repro.engine.vector_kernels import compile_value
    from repro.storage.batch import column_to_pylist

    rows = PARTIALS[layout]
    if name.startswith("count"):  # a count partial is never NULL
        rows = [row for row in rows if None not in row]
    if name != "min" and name != "max" and "strings" in layout:
        pytest.skip("only MIN/MAX aggregate strings")
    schema = Schema(["g1", "g2"])
    node = E.AggCombine(name, (E.ColumnRef("g1"), E.ColumnRef("g2")))
    ctx = ExecContext(Catalog(), EvalOptions(vectorized=True))
    by_row = compile_expr(node, schema, None)(ctx, {})
    data, valid = compile_value(node, schema)(ctx, {})(Batch.from_rows(schema, rows))
    assert column_to_pylist(data, valid) == [by_row(row) for row in rows]


def test_avg_partials_fold_in_a_batch_and_row_correlated_subqueries_have_no_kernel():
    """Eqv. 4's ``avgO`` combines (sum, count) pairs with the row engine's
    fold inside a batch operator; a subquery correlated with the input
    rows still sends its χ to the row interpreter."""
    from repro.engine.evaluate import compile_expr
    from repro.engine.vector_kernels import compile_value
    from repro.storage.batch import column_to_pylist

    schema = Schema(["g1", "g2"])
    combine = E.AggCombine("avg", (E.ColumnRef("g1"), E.ColumnRef("g2")))
    rows = [((4, 2), (2, 1)), ((0, 0), (6, 3)), ((0, 0), (0, 0)), ((5, 1), (0, 0))]
    batch = Batch.from_rows(schema, rows)
    data, valid = compile_value(combine, schema)(ExecContext(Catalog()), {})(batch)
    by_row = compile_expr(combine, schema, None)(ExecContext(Catalog()), {})
    assert column_to_pylist(data, valid) == [by_row(row) for row in rows] == [2.0, 2.0, None, 5.0]
    catalog = make_rst_catalog(seed=3)
    correlated = "SELECT A1, (SELECT COUNT(*) FROM s WHERE A2 = B2) FROM r"
    closed = "SELECT A1, (SELECT COUNT(*) FROM s WHERE B4 > 1500) FROM r"
    for sql, expected in ((correlated, "PMap"), (closed, "VMap")):
        planned = plan_query(sql, catalog, "canonical")
        physical = compile_plan(planned.logical, vectorized=True)
        assert expected in _operator_names(physical), sql


@pytest.mark.parametrize("n_r", [30, 0])
def test_broadcast_scalar_subquery_is_evaluated_once_or_never(n_r):
    """χ over a subquery that does not depend on the row: one evaluation
    when rows reach it, none when the batch is empty — the row engine's
    count with its cache hits taken out."""
    catalog = make_rst_catalog(n_r=n_r, seed=3)
    sql = "SELECT A1, (SELECT COUNT(*) FROM s WHERE B4 > 1500) FROM r"
    planned = plan_query(sql, catalog, "canonical")
    row, row_ctx = planned.execute(catalog, EvalOptions(vectorized=False), with_context=True)
    vec, vec_ctx = planned.execute(catalog, EvalOptions(vectorized=True), with_context=True)
    assert_bag_equal(row, vec)
    assert row_ctx.stats.subquery_evals == vec_ctx.stats.subquery_evals == min(n_r, 1)
    assert row_ctx.stats.subquery_cache_hits == max(n_r - 1, 0)
    assert vec_ctx.stats.subquery_cache_hits == 0


# ---------------------------------------------------------------------------
# Compiler: vectorized lowering and fallback routing
# ---------------------------------------------------------------------------


class TestCompilerRouting:
    def test_simple_plan_is_fully_vectorized(self):
        catalog = make_rst_catalog(seed=3)
        planned = plan_query("SELECT A1, A2 FROM r WHERE A4 > 1500", catalog, "canonical")
        physical = compile_plan(planned.logical, vectorized=True)
        assert isinstance(physical, V.VecOperator)

    def test_subquery_predicate_falls_back_to_row_filter(self):
        catalog = make_rst_catalog(seed=3)
        planned = plan_query(
            "SELECT * FROM r WHERE A1 = (SELECT COUNT(*) FROM s WHERE A2 = B2)",
            catalog,
            "canonical",
        )
        physical = compile_plan(planned.logical, vectorized=True)
        names = _operator_names(physical)
        # The correlated filter stays in the row interpreter, but its
        # scan child is still vectorized.
        assert "PFilter" in names and "VScan" in names

    def test_unnested_plan_uses_vectorized_bypass(self):
        catalog = make_rst_catalog(seed=3)
        from repro.bench.queries import Q1

        planned = plan_query(Q1, catalog, "unnested")
        physical = compile_plan(planned.logical, vectorized=True)
        names = _operator_names(physical)
        assert "VBypassFilter" in names
        assert "VGroupJoin" in names  # the ⟕ onto Γ(s), one operator

    def test_explain_analyze_with_vectorized_engine(self):
        catalog = make_rst_catalog(seed=3)
        from repro.engine.executor import explain_analyze
        from repro.optimizer import plan_query as pq

        planned = pq("SELECT A2, COUNT(*) AS n FROM r GROUP BY A2", catalog, "canonical")
        report, table = explain_analyze(
            planned.logical, catalog, EvalOptions(vectorized=True)
        )
        assert "VHashGroupBy" in report and len(table) > 0

    def test_one_physical_class_per_operator(self):
        """Every compiled node is a base ``vector_ops`` / ``operators``
        class: no module supplies a second implementation of an operator
        that some option or estimate swaps in."""
        from repro.bench.queries import Q1, Q2, Q3, Q4, QUERY_2D
        from repro.datagen import TpchConfig, tpch_catalog

        rst = make_rst_catalog(seed=3)
        tpch = tpch_catalog(TpchConfig(scale_factor=0.002))
        cases = [(sql, rst) for sql in (Q1, Q2, Q3, Q4)] + [(QUERY_2D, tpch)]
        for sql, catalog in cases:
            for strategy in ("canonical", "unnested"):
                planned = plan_query(sql, catalog, strategy)
                physical = compile_plan(planned.logical, vectorized=True)
                modules = {type(node).__module__ for node in _walk(physical)}
                assert modules <= {"repro.engine.vector_ops", "repro.engine.operators"}

    def test_fig7_unnested_plans_stay_on_the_batch_engine(self):
        """Q1-Q4 under ``auto`` (Eqv. 1-5) have a batch form for every
        operator — the scalar ``g2`` of Eqv. 4, Eqv. 5's ⋈± and binary Γ
        included; what still runs on the row interpreter is the
        row-correlated filter of every canonical plan."""
        from collections import Counter

        from repro.bench.queries import Q1, Q2, Q3, Q4

        catalog = make_rst_catalog(seed=3)
        for sql in (Q1, Q2, Q3, Q4):
            root, nodes = _compile_all(sql, catalog, "auto")
            assert {type(node).__module__ for node in nodes} == {"repro.engine.vector_ops"}
            assert "VFromRows" not in _operator_names(root)
        _, nodes = _compile_all(Q2, catalog, "auto")
        assert "VMap" in {type(node).__name__ for node in nodes}

        _, nodes = _compile_all(Q4, catalog, "auto")
        assert {"VBypassJoin", "VStreamTap", "VGroupJoin"} <= {type(n).__name__ for n in nodes}

        canonical = {
            Q1: "PFilter VDistinct VFilter VProject*2 VScalarAgg VScan*2",
            Q2: "PFilter VDistinct VFilter VProject*2 VScalarAgg VScan*2",
            Q3: "PFilter VDistinct VFilter*2 VProject*3 VScalarAgg*2 VScan*3",
            Q4: "PFilter*2 VDistinct VFilter VProject*3 VScalarAgg*2 VScan*3",
        }
        for sql, expected in canonical.items():
            _, nodes = _compile_all(sql, catalog, "canonical")
            counts = Counter(type(node).__name__ for node in nodes)
            shape = " ".join(
                name if count == 1 else f"{name}*{count}" for name, count in sorted(counts.items())
            )
            assert shape == expected

    @pytest.mark.parametrize("indexed", [False, True])
    def test_adhoc_pool_keeps_row_operators_only_on_canonical_plans(self, indexed):
        """The ``adhoc_cold`` benchmark's 256 texts on its data, without and
        with a hash index on ``s(B2)``: a text ``auto`` unnests compiles to
        batch operators only (θ-correlations, ``[NOT] EXISTS`` / ``[NOT] IN``
        / ``ANY`` / ``ALL`` and equi-joins onto the indexed table included);
        what stays on the row interpreter is the correlated subquery filter
        of the texts it sends to the canonical plan."""
        from collections import Counter

        from repro.datagen import RstConfig, rst_catalog
        from repro.datagen.queries import QueryGenConfig
        from tests.conftest import generated_texts

        catalog = rst_catalog(1, 1, 1, RstConfig(rows_per_sf=100))
        if indexed:
            catalog.create_index("s_b2", "s", "B2")
        chosen = Counter()
        for sql in generated_texts(QueryGenConfig(seed=2007, p_linear=0.0), 256):
            alternative = plan_query(sql, catalog, "auto").chosen_alternative
            _, nodes = _compile_all(sql, catalog, "auto")
            on_rows = {type(n).__name__ for n in nodes if n.FAULT_DOMAIN == "engine.row."}
            chosen[alternative] += 1
            if alternative == "canonical":
                assert on_rows <= {"PFilter", "PMap"}, sql
            else:
                assert on_rows == set(), sql
        assert chosen["unnested"] > 200


def _compile_all(sql, catalog, strategy):
    """``(root, every physical node)`` — subquery plans included, which
    live in expression closures where ``children()`` does not reach."""
    from repro.engine.vector_compile import VectorCompiler

    planned = plan_query(sql, catalog, strategy)
    compiler = VectorCompiler()
    compiler.analyse(planned.logical)
    return compiler.compile(planned.logical), list(compiler.memo.values())


def _walk(physical):
    stack, seen = [physical], set()
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        yield node
        stack.extend(node.children())


def _operator_names(physical) -> set:
    return {type(node).__name__ for node in _walk(physical)}


# ---------------------------------------------------------------------------
# Operator-level differential checks (targeted SQL)
# ---------------------------------------------------------------------------


TARGETED = {
    "group_by_all_aggregates": """
        SELECT B2, COUNT(*), COUNT(B1), SUM(B1), MIN(B4), MAX(B4),
               AVG(B1), COUNT(DISTINCT B1)
        FROM s GROUP BY B2""",
    "group_by_null_keys_form_one_group": "SELECT B2, COUNT(*) FROM s GROUP BY B2",
    "scalar_aggregate": "SELECT COUNT(*), SUM(B4), MIN(B1) FROM s",
    "hash_join_with_residual": """
        SELECT A1, B1 FROM r, s WHERE A2 = B2 AND A4 > B4""",
    "cross_join": "SELECT A1, C1 FROM r, t WHERE A4 > 2900 AND C4 > 2900",
    "union": """
        SELECT A1 FROM r WHERE A4 > 2000
        UNION SELECT B1 FROM s WHERE B4 > 2000""",
    "union_all": """
        SELECT A1 FROM r WHERE A4 > 2000
        UNION ALL SELECT B1 FROM s WHERE B4 > 2000""",
    "order_by_with_nulls": "SELECT B1, B4 FROM s ORDER BY B1, B4 DESC",
    "in_list": "SELECT A1 FROM r WHERE A2 IN (0, 2, 4)",
    "case_expression": """
        SELECT A1, CASE WHEN A4 > 2000 THEN 1 WHEN A4 > 1000 THEN 2 ELSE 3 END
        FROM r""",
    "arithmetic": "SELECT A1 + A2 * 2, A4 - A3 FROM r",
    "distinct_limit": "SELECT DISTINCT A2 FROM r ORDER BY A2 LIMIT 3",
}


@pytest.mark.parametrize("name", sorted(TARGETED))
@pytest.mark.parametrize("nulls", [0.0, 0.3], ids=["dense", "nullheavy"])
def test_targeted_operator_parity(name, nulls):
    catalog = make_rst_catalog(n_r=30, n_s=28, n_t=20, seed=42, null_rate=nulls)
    sql = TARGETED[name]
    row = execute_sql(sql, catalog, "auto", options=EvalOptions(vectorized=False))
    vec = execute_sql(sql, catalog, "auto", options=EvalOptions(vectorized=True))
    if "ORDER BY" in sql:
        assert row.rows == vec.rows, f"ordered results diverge for {name}"
    else:
        assert_bag_equal(row, vec, f"for {name}")


def test_division_by_zero_raises_in_both_engines():
    from repro.errors import ReproError

    catalog = make_rst_catalog(seed=5)
    sql = "SELECT A1 / (A2 - A2) FROM r"
    for options in (EvalOptions(vectorized=False), EvalOptions(vectorized=True)):
        with pytest.raises((ZeroDivisionError, ReproError)):
            execute_sql(sql, catalog, "auto", options=options)


def test_factorize_survives_a_key_space_beyond_int64():
    """Five keys of 8 192 distinct values each: the mixed-radix code of a
    row passes 2**63, where int64 arithmetic wraps without raising.
    Rows 0 and 1 differ by the base-8193 digits of 2**64, so a
    factorisation that does not renumber gives them one code: GROUP BY
    loses a group, the five-key equi-join gains pairs and DISTINCT drops
    a row."""
    from repro.storage.table import make_table
    from repro.storage.schema import ColumnType

    n = 8192
    columns = []
    for target in (4094, 4, 8188, 2, 4096):
        values = list(range(n))
        values[1], values[target] = target, 1
        columns.append(values)
    rows = list(zip(*columns))
    assert rows[0] == (0, 0, 0, 0, 0) and rows[1] == (4094, 4, 8188, 2, 4096)
    keys = [f"K{i}" for i in range(1, 6)]
    database = Database()
    database.register(make_table("w", [(k, ColumnType.INT) for k in keys], rows))

    key_list = ", ".join(keys)
    join_on = " AND ".join(f"a.{k} = b.{k}" for k in keys)
    for sql in (
        f"SELECT {key_list}, COUNT(*) FROM w GROUP BY {key_list}",
        f"SELECT a.K1, b.K5 FROM w a, w b WHERE {join_on}",
        "SELECT DISTINCT * FROM w",
    ):
        row = database.execute(sql)
        vec = database.execute(sql, options=EvalOptions(vectorized=True))
        assert len(vec) == n, sql
        assert_bag_equal(row, vec, sql)
    assert database.resilience_info()["degradations"] == 0


class TestInt64Exactness:
    """Python ints do not wrap and do not round; neither may a kernel.
    Every statement runs on both engines and must neither differ nor heal."""

    @staticmethod
    def both_engines(database, sql, strategy="auto"):
        row = database.execute(sql, strategy)
        vec = database.execute(sql, strategy, options=EvalOptions(vectorized=True))
        assert_bag_equal(row, vec, sql)
        assert database.resilience_info()["degradations"] == 0
        return vec.rows

    @pytest.mark.parametrize(
        "values, total",
        [([2**53, 1, 1], 2**53 + 2), ([2**62] * 3, 3 * 2**62), ([-(2**63), -1], -(2**63) - 1)],
        ids=["past_2**53", "past_2**63", "below_int64_min"],
    )
    def test_grouped_sum_of_ints_is_exact(self, values, total):
        database = Database()
        database.create_table("t", ["k", "v"], [(1, v) for v in values] + [(2, 7), (2, None)])
        rows = self.both_engines(database, "SELECT k, SUM(v) FROM t GROUP BY k")
        assert sorted(rows) == [(1, total), (2, 7)]
        rows = self.both_engines(database, "SELECT k, SUM(DISTINCT v) FROM t GROUP BY k")
        assert sorted(rows) == [(1, sum(set(values))), (2, 7)]

    def test_arithmetic_does_not_wrap(self):
        database = Database()
        database.create_table("t", ["k", "v"], [(1, 2**62), (2, 3), (3, None), (4, -(2**62))])
        assert sorted(self.both_engines(database, "SELECT k, v * 4 FROM t"), key=repr) == sorted(
            [(1, 2**64), (2, 12), (3, None), (4, -(2**64))], key=repr
        )
        assert sorted(self.both_engines(database, "SELECT k FROM t WHERE v + v > 0")) == [(1,), (2,)]
        assert sorted(self.both_engines(database, "SELECT k FROM t WHERE 0 - v - v - v > 0")) == [(4,)]
        # In range, on the int64 kernel.
        assert sorted(self.both_engines(database, "SELECT v + 1 FROM t WHERE k < 3")) == [
            (4,),
            (2**62 + 1,),
        ]

    def test_combined_partial_sums_do_not_wrap(self):
        """Eqv. 4's sumO(g1, g2): each partial fits int64, their sum does not."""
        database = Database()
        database.create_table("r", ["A1", "A2"], [(1, 1), (2, 2), (3, 3)])
        big = 2**62 - 1
        database.create_table("s", ["B2", "B4"], [(1, 5), (2, 7), (7, big), (8, big), (9, 3)])
        sql = "SELECT A2 FROM r WHERE A1 < (SELECT SUM(B4) FROM s WHERE A2 = B2 OR B4 > 1500)"
        plan = database.explain_analyze(sql, "unnested", EvalOptions(vectorized=True))
        assert "VMap" in plan and "0 of" in plan.splitlines()[-1]
        assert sorted(self.both_engines(database, sql, "unnested")) == [(1,), (2,), (3,)]
