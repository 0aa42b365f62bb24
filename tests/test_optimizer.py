"""Tests for the optimizer: join ordering, cardinality, cost, planner."""

import pytest

from repro.algebra import expr as E
from repro.algebra import ops as L
from repro.algebra.explain import count_operators
from repro.engine import execute_plan
from repro import dml as dml_module
from repro.datagen.queries import INNER_SIMPLE, OUTER_SIMPLE, THIRD_SIMPLE
from repro.dml import execute_dml
from repro.optimizer import plan_query
from repro.optimizer import planner as planner_module
from repro.optimizer.access import choose_access_paths
from repro.optimizer.planner import plan_translation
from repro.optimizer.rank_estimator import CatalogEstimator
from repro.optimizer.simplify import simplify_plan
from repro.rewrite import UnnestOptions, unnest
from repro.optimizer.cardinality import CardinalityModel
from repro.optimizer import cost as cost_module
from repro.optimizer.cost import CostModel
from repro.optimizer.joins import optimize_joins
from repro.bench.queries import Q1, QUERY_2D, RST_QUERIES
from repro.datagen import RstConfig, TpchConfig, rst_catalog, tpch_catalog
from repro.datagen.queries import QueryGenConfig
from repro.errors import PlanningError
from repro.sql import parse, translate
from repro.sql.parser import parse_any
from tests.conftest import assert_bag_equal, generated_texts, make_rst_catalog


@pytest.fixture(scope="module")
def rst():
    return make_rst_catalog(seed=5)


@pytest.fixture(scope="module")
def tpch():
    return tpch_catalog(TpchConfig(scale_factor=0.002, include_order_pipeline=False))


class TestJoinOptimizer:
    def test_cross_products_become_joins(self, tpch):
        plan = translate(parse(QUERY_2D), tpch).plan
        optimized = optimize_joins(plan, tpch)
        counts = count_operators(optimized)
        assert counts.get("CrossProduct") is None
        assert counts.get("Join", 0) >= 7  # 4 outer + 3 inner joins

    def test_results_preserved(self):
        # Executing the *unoptimised* canonical translation materialises
        # the full cross product, so this check needs a micro instance
        # (20 parts × 5 suppliers × 80 partsupp × 25 × 5 ≈ 10^6 pairs).
        tiny = tpch_catalog(TpchConfig(scale_factor=1e-9, include_order_pipeline=False))
        plan = translate(parse(QUERY_2D), tiny).plan
        optimized = optimize_joins(plan, tiny)
        assert_bag_equal(execute_plan(plan, tiny), execute_plan(optimized, tiny))

    def test_results_preserved_rst(self, rst):
        sql = """SELECT * FROM r, s, t
                 WHERE A2 = B2 AND B3 = C3 AND A4 > 1000 AND C1 = 2"""
        plan = translate(parse(sql), rst).plan
        optimized = optimize_joins(plan, rst)
        assert_bag_equal(execute_plan(plan, rst), execute_plan(optimized, rst))
        assert count_operators(optimized).get("CrossProduct") is None

    def test_single_table_filters_pushed(self, rst):
        sql = "SELECT * FROM r, s WHERE A2 = B2 AND A4 > 1000"
        optimized = optimize_joins(translate(parse(sql), rst).plan, rst)
        # The pushed filter sits below the join, the join has the equi-key.
        joins = [n for n in optimized.iter_dag() if isinstance(n, L.Join)]
        assert len(joins) == 1
        selects = [n for n in optimized.iter_dag() if isinstance(n, L.Select)]
        assert any(not s.predicate.contains_subquery() for s in selects)

    def test_subquery_conjunct_stays_on_top(self, rst):
        sql = """SELECT * FROM r, s WHERE A2 = B2
                 AND A1 = (SELECT COUNT(*) FROM t WHERE A3 = C3)"""
        optimized = optimize_joins(translate(parse(sql), rst).plan, rst)
        top = optimized
        while not isinstance(top, L.Select):
            top = top.child
        assert top.predicate.contains_subquery()

    def test_disconnected_tables_cross_product(self, rst):
        sql = "SELECT * FROM r, s WHERE A4 > 1000 AND B4 > 1000"
        optimized = optimize_joins(translate(parse(sql), rst).plan, rst)
        assert count_operators(optimized).get("CrossProduct") == 1

    def test_inner_blocks_optimized_too(self, tpch):
        plan = translate(parse(QUERY_2D), tpch).plan
        optimized = optimize_joins(plan, tpch)
        subplans = []
        for node in optimized.iter_dag():
            subplans.extend(node.subquery_plans())
        assert subplans
        assert all(
            count_operators(sub).get("CrossProduct") is None for sub in subplans
        )


class TestCardinality:
    def test_scan_uses_stats(self, rst):
        model = CardinalityModel(rst)
        plan = L.Scan("r", rst.table("r").schema.qualify("q1"))
        assert model.cardinality(plan) == len(rst.table("r"))

    def test_equality_selectivity_from_distinct(self, rst):
        model = CardinalityModel(rst)
        scan = L.Scan("r", rst.table("r").schema)
        plan = L.Select(scan, E.Comparison("=", E.col("A1"), E.lit(3)))
        estimate = model.cardinality(plan)
        distinct = rst.stats("r").columns["A1"].distinct
        assert abs(estimate - len(rst.table("r")) / distinct) < 1e-6

    def test_range_interpolation(self, rst):
        model = CardinalityModel(rst)
        scan = L.Scan("r", rst.table("r").schema)
        low = model.cardinality(L.Select(scan, E.Comparison(">", E.col("A4"), E.lit(2900))))
        high = model.cardinality(L.Select(scan, E.Comparison(">", E.col("A4"), E.lit(100))))
        assert low < high

    def test_join_cardinality(self, rst):
        model = CardinalityModel(rst)
        plan = L.Join(
            L.Scan("r", rst.table("r").schema),
            L.Scan("s", rst.table("s").schema),
            E.eq("A2", "B2"),
        )
        estimate = model.cardinality(plan)
        assert 0 < estimate < len(rst.table("r")) * len(rst.table("s"))

    def test_scalar_aggregate_is_one(self, rst):
        model = CardinalityModel(rst)
        from repro.algebra.aggregates import STAR, AggSpec

        plan = L.ScalarAggregate(
            L.Scan("s", rst.table("s").schema), [("g", AggSpec("count", STAR))]
        )
        assert model.cardinality(plan) == 1.0


class TestCostModel:
    def test_unnested_cheaper_for_q1(self, rst):
        from repro.rewrite import unnest

        plan = optimize_joins(translate(parse(Q1), rst).plan, rst)
        rewritten = unnest(plan)
        canonical_cost = CostModel(rst).cost(plan)
        unnested_cost = CostModel(rst).cost(rewritten)
        assert unnested_cost < canonical_cost

    def test_correlated_subquery_charged_per_row(self, rst):
        sql_corr = "SELECT * FROM r WHERE A1 = (SELECT COUNT(*) FROM s WHERE A2 = B2)"
        sql_uncorr = "SELECT * FROM r WHERE A1 = (SELECT COUNT(*) FROM s)"
        corr_cost = CostModel(rst).cost(translate(parse(sql_corr), rst).plan)
        uncorr_cost = CostModel(rst).cost(translate(parse(sql_uncorr), rst).plan)
        assert corr_cost > uncorr_cost * 3

    def test_operator_start_up_paid_per_evaluation(self, rst, monkeypatch):
        # The outer operators start once; the correlated inner plan's
        # operators start once per r row.
        sql = "SELECT * FROM r WHERE A1 = (SELECT COUNT(*) FROM s WHERE A2 = B2)"
        plan = translate(parse(sql), rst).plan
        (inner,) = [sub for node in plan.iter_dag() for sub in node.subquery_plans()]

        def cost_at(c_op):
            monkeypatch.setattr(cost_module, "C_OP", c_op)
            return CostModel(rst).cost(plan)

        evaluations = len(list(plan.iter_dag())) + len(list(inner.iter_dag())) * len(rst.table("r"))
        assert cost_at(1.0) - cost_at(0.0) == pytest.approx(evaluations)

    def test_shared_nodes_charged_once(self, rst):
        scan = L.Scan("r", rst.table("r").schema)
        bypass = L.BypassSelect(scan, E.Comparison(">", E.col("A4"), E.lit(1500)))
        union = L.UnionAll(bypass.positive, bypass.negative)
        single = CostModel(rst).cost(bypass.positive)
        both = CostModel(rst).cost(union)
        assert both < 2 * single  # the shared bypass is not paid twice


class TestPlanner:
    def test_auto_picks_unnested_for_q1(self, rst):
        planned = plan_query(Q1, rst, "auto")
        assert planned.chosen_alternative == "unnested"

    def test_auto_keeps_canonical_for_flat_query(self, rst):
        planned = plan_query("SELECT * FROM r WHERE A4 > 1500", rst, "auto")
        assert planned.chosen_alternative == "canonical"

    # estimated_cost (rst seed 5, TPC-H SF 0.002): (canonical, unnested); auto
    # picks unnested.  Each is its value before operator start-up was priced
    # plus C_OP × the plan's operator evaluations: Q1's canonical plan starts
    # its four outer operators once and its four inner ones for each of r's
    # 30 rows (124), its unnested plan 12 operators once.
    ESTIMATED_COSTS = {
        "Q1": (10919.780718336486, 1137.6147448015122),
        "Q2": (10990.186046511626, 1388.1930232558138),
        "Q3": (21269.333333333332, 1649.0),
        "Q4": (269801.8333333333, 3452.5),
        "2d": (14381.65303417078, 12587.085113442125),
    }

    @pytest.mark.parametrize("name", list(ESTIMATED_COSTS))
    def test_estimated_costs_unchanged(self, rst, tpch, name):
        sql, catalog = (QUERY_2D, tpch) if name == "2d" else (RST_QUERIES[name], rst)
        canonical, unnested = (pytest.approx(cost, rel=1e-12) for cost in self.ESTIMATED_COSTS[name])
        assert plan_query(sql, catalog, "canonical").estimated_cost == canonical
        assert plan_query(sql, catalog, "unnested").estimated_cost == unnested
        auto = plan_query(sql, catalog, "auto")
        assert auto.chosen_alternative == "unnested"
        assert auto.estimated_cost == unnested

    @pytest.mark.parametrize("indexed", [False, True])
    def test_auto_unnests_theta_correlated_pool_texts(self, indexed):
        # Canonical runs their inner plan once per r row: 3.4x slower than
        # unnested on the batch engine (EXPERIMENTS.md, "Operator start-up").
        catalog = rst_catalog(1, 1, 1, RstConfig(rows_per_sf=100))
        if indexed:
            catalog.create_index("s_b2", "s", "B2")
        pool = generated_texts(QueryGenConfig(seed=2007, p_linear=0.0), 256)
        texts = [sql for sql in pool if "A2 < B2" in sql or "A2 > B2" in sql]
        assert len(texts) == 93
        kept = [sql for sql in texts if plan_query(sql, catalog, "auto").chosen_alternative != "unnested"]
        assert kept == []

    def test_auto_reports_the_cost_of_the_plan_it_kept(self, rst):
        for sql in (Q1, "SELECT * FROM r WHERE A4 > 1500"):
            planned = plan_query(sql, rst, "auto")
            assert planned.estimated_cost == CostModel(rst).cost(planned.logical)

    FLAT = (
        [f"SELECT * FROM r WHERE {p}" for p in OUTER_SIMPLE]
        + [
            f"SELECT DISTINCT * FROM s WHERE {p} OR NOT ({q})"
            for p in INNER_SIMPLE
            for q in INNER_SIMPLE
        ]
        + [
            f"SELECT A1, C1 FROM r, t WHERE A2 = C2 AND ({p} OR {q})"
            for p in OUTER_SIMPLE
            for q in THIRD_SIMPLE
        ]
        + ["SELECT COUNT(*), A3 FROM r GROUP BY A3", "SELECT A1 FROM r UNION SELECT B1 FROM s"]
    )
    # mixed_rw's five write shapes (benchmarks/e2e/workloads.py).
    WRITES = [
        "INSERT INTO r VALUES (1, 9000, 2, 3)",
        "INSERT INTO s VALUES (1, 9100, 2, 3)",
        "UPDATE s SET B3 = 4 WHERE B2 = 3",
        "DELETE FROM r WHERE A2 = 2",
        "DELETE FROM s WHERE B2 = 3",
    ]

    @staticmethod
    def _both_alternatives(translation, catalog):
        """``auto`` as it ran for every statement before flat ones were
        planned once: rewrite, second access-path pass, two costings."""
        canonical = optimize_joins(simplify_plan(translation.plan), catalog)
        kept = choose_access_paths(canonical, catalog)
        options = UnnestOptions(estimator=CatalogEstimator(catalog))
        rewritten = choose_access_paths(unnest(canonical, options), catalog)
        cost, rewritten_cost = CostModel(catalog).cost(kept), CostModel(catalog).cost(rewritten)
        if rewritten_cost < cost:
            return repr(rewritten), rewritten_cost, "unnested"
        return repr(kept), cost, "canonical"

    def test_a_flat_statement_is_planned_once_to_the_same_plan(self, monkeypatch):
        catalog = make_rst_catalog(seed=5)
        catalog.create_index("r_a2", "r", "A2")  # an access path to choose
        unnest_calls = []  # by the planner; the reference below calls the real one
        monkeypatch.setattr(
            planner_module, "unnest", lambda *args: unnest_calls.append(args) or unnest(*args)
        )
        planned = []  # (PlannedQuery, what both alternatives come to), before the write lands

        def recording(translation, catalog, strategy="auto", **planning):
            # ``planning``: a lifted write's ``param_spec`` (repro.dml._lifted).
            query = plan_translation(translation, catalog, strategy, **planning)
            assert unnest_calls == []
            planned.append((query, self._both_alternatives(translation, catalog)))
            return query

        monkeypatch.setattr(dml_module, "plan_translation", recording)
        for sql in self.WRITES:
            execute_dml(parse_any(sql), catalog)
        assert len(planned) == 3  # the UPDATE's and the DELETEs' embedded reads
        for sql in self.FLAT:
            recording(translate(parse(sql), catalog), catalog)
        for query, reference in planned:
            assert query.classification.nested_block_count == 0
            assert not query.planner_fallback
            assert (
                repr(query.logical), query.estimated_cost, query.chosen_alternative
            ) == reference
        # A nested statement still has two alternatives.
        assert plan_query(Q1, catalog, "auto").chosen_alternative == "unnested"
        assert len(unnest_calls) == 1

    def test_unknown_strategy(self, rst):
        with pytest.raises(PlanningError, match="unknown strategy"):
            plan_query(Q1, rst, "warp-speed")

    def test_all_strategies_agree(self, rst):
        results = {}
        for strategy in ("canonical", "unnested", "auto", "s1", "s2", "s3"):
            planned = plan_query(Q1, rst, strategy)
            results[strategy] = planned.execute(rst)
        baseline = results["canonical"]
        for strategy, table in results.items():
            assert_bag_equal(baseline, table, strategy)

    def test_output_names_presented(self, rst):
        planned = plan_query("SELECT A1 AS x, A2 FROM r", rst, "canonical")
        table = planned.execute(rst)
        assert table.schema.names == ("x", "A2")

    def test_s2_memoises(self, rst):
        planned = plan_query(Q1, rst, "s2")
        _, ctx = planned.execute(rst, with_context=True)
        assert ctx.stats.subquery_cache_hits > 0

    def test_s1_does_not_memoise(self, rst):
        planned = plan_query(Q1, rst, "s1")
        _, ctx = planned.execute(rst, with_context=True)
        assert ctx.stats.subquery_cache_hits == 0

    def test_s3_evaluates_fewer_subqueries_than_s1(self, rst):
        _, ctx1 = plan_query(Q1, rst, "s1").execute(rst, with_context=True)
        _, ctx3 = plan_query(Q1, rst, "s3").execute(rst, with_context=True)
        assert ctx3.stats.subquery_evals < ctx1.stats.subquery_evals

    def test_classification_attached(self, rst):
        planned = plan_query(Q1, rst, "canonical")
        assert planned.classification.disjunctive_linking
