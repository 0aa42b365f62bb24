"""Tests for the commercial-baseline emulations (S1/S2/S3)."""

import pytest

from repro.algebra import expr as E
from repro.algebra import ops as L
from repro.baselines import reorder_disjuncts_cheap_first
from repro.bench.queries import Q1, Q2
from repro.engine import execute_plan
from repro.optimizer import plan_query
from repro.sql import parse, translate
from tests.conftest import assert_bag_equal, make_rst_catalog


@pytest.fixture(scope="module")
def rst():
    return make_rst_catalog(n_r=60, n_s=60, seed=11)


class TestDisjunctReordering:
    def test_cheap_disjunct_moved_first(self, rst):
        plan = translate(parse(Q1), rst).plan
        reordered = reorder_disjuncts_cheap_first(plan)
        select = reordered
        while not isinstance(select, L.Select):
            select = select.child
        first = E.disjuncts(select.predicate)[0]
        assert not first.contains_subquery()

    def test_results_unchanged(self, rst):
        plan = translate(parse(Q1), rst).plan
        reordered = reorder_disjuncts_cheap_first(plan)
        assert_bag_equal(execute_plan(plan, rst), execute_plan(reordered, rst))

    def test_inner_disjunctions_reordered_by_rank(self, rst):
        plan = translate(parse(Q2), rst).plan
        reordered = reorder_disjuncts_cheap_first(plan)
        subs = []
        for node in reordered.iter_dag():
            subs.extend(node.subquery_plans())
        (sub,) = subs
        select = sub
        while not isinstance(select, L.Select):
            select = select.child
        disjuncts = E.disjuncts(select.predicate)
        from repro.rewrite.rank import rank_of

        ranks = [rank_of(d) for d in disjuncts]
        assert ranks == sorted(ranks)
        # Results are unchanged either way.
        assert_bag_equal(execute_plan(plan, rst), execute_plan(reordered, rst))

    @pytest.mark.parametrize(
        "sql",
        ["SELECT A1 FROM r WHERE A2 = {block}", "SELECT A1, {block} FROM r"],
        ids=["where_nested", "select_clause"],
    )
    def test_s3_orders_a_nested_block_cheap_first_wherever_it_is_nested(self, rst, sql):
        sql = sql.format(
            block="(SELECT COUNT(*) FROM s WHERE B2 = "
            "(SELECT COUNT(*) FROM t WHERE t.C1 = s.B1) OR B3 > 5)"
        )
        planned = plan_query(sql, rst, "s3")
        (inner_or,) = [
            part
            for node in planned.logical.iter_dag(nested=True)
            for expression in node.exprs()
            for part in expression.walk()
            if isinstance(part, E.Or)
        ]
        assert [item.contains_subquery() for item in inner_or.items] == [False, True]
        assert_bag_equal(planned.execute(rst), plan_query(sql, rst, "canonical").execute(rst))

    def test_untouched_plan_shared(self, rst):
        plan = translate(parse("SELECT * FROM r WHERE A4 > 1500"), rst).plan
        assert reorder_disjuncts_cheap_first(plan) is plan


class TestBaselineBehaviour:
    def test_s3_skips_subqueries_for_cheap_hits(self, rst):
        """Rows passing the cheap disjunct never evaluate the subquery."""
        _, ctx_s1 = plan_query(Q1, rst, "s1").execute(rst, with_context=True)
        _, ctx_s3 = plan_query(Q1, rst, "s3").execute(rst, with_context=True)
        rows = len(rst.table("r"))
        assert ctx_s1.stats.subquery_evals == rows
        assert ctx_s3.stats.subquery_evals < rows

    def test_s2_eval_count_bounded_by_distinct_correlation_values(self, rst):
        _, ctx = plan_query(Q1, rst, "s2").execute(rst, with_context=True)
        distinct_a2 = rst.table("r").distinct_count("A2")
        assert ctx.stats.subquery_evals <= distinct_a2 + 1

    def test_all_baselines_agree_on_q2(self, rst):
        reference = plan_query(Q2, rst, "canonical").execute(rst)
        for strategy in ("s1", "s2", "s3"):
            assert_bag_equal(
                reference, plan_query(Q2, rst, strategy).execute(rst), strategy
            )
