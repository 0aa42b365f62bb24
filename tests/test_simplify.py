"""Constant folding / boolean simplification — correctness and exactness."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.algebra import expr as E
from repro.algebra import ops as L
from repro.engine import execute_plan
from repro.optimizer.simplify import simplify_expr, simplify_plan
from repro.storage import Catalog, Schema, Table
from tests.conftest import assert_bag_equal, make_rst_catalog


def lit(v):
    return E.Literal(v)


class TestFolding:
    def test_comparison_folds(self):
        assert simplify_expr(E.Comparison("<", lit(1), lit(2))) == E.TRUE
        assert simplify_expr(E.Comparison("=", lit(1), lit(2))) == E.FALSE

    def test_comparison_with_null_is_unknown(self):
        assert simplify_expr(E.Comparison("<", lit(None), lit(2))) == E.NULL

    def test_arithmetic_folds(self):
        assert simplify_expr(E.Arithmetic("+", lit(2), lit(3))) == lit(5)
        assert simplify_expr(E.Arithmetic("+", lit(None), lit(3))) == E.NULL

    def test_division_by_zero_left_alone(self):
        expression = E.Arithmetic("/", lit(1), lit(0))
        assert simplify_expr(expression) is expression

    def test_negate_folds(self):
        assert simplify_expr(E.Negate(lit(5))) == lit(-5)

    def test_not_folds(self):
        assert simplify_expr(E.Not(E.TRUE)) == E.FALSE
        assert simplify_expr(E.Not(lit(None))) == E.NULL
        assert simplify_expr(E.Not(E.Not(E.col("a")))) == E.col("a")

    def test_and_identities(self):
        a = E.eq("a", "b")
        assert simplify_expr(E.And((a, E.TRUE))) == a
        assert simplify_expr(E.And((a, E.FALSE))) == E.FALSE
        assert simplify_expr(E.And((E.TRUE, E.TRUE))) == E.TRUE
        # x AND UNKNOWN must keep the UNKNOWN (it dominates TRUE).
        folded = simplify_expr(E.And((a, lit(None))))
        assert isinstance(folded, E.And) and E.NULL in folded.items

    def test_or_identities(self):
        a = E.eq("a", "b")
        assert simplify_expr(E.Or((a, E.FALSE))) == a
        assert simplify_expr(E.Or((a, E.TRUE))) == E.TRUE
        assert simplify_expr(E.Or((E.FALSE, E.FALSE))) == E.FALSE

    def test_nested_folding(self):
        inner = E.Comparison("=", E.Arithmetic("+", lit(1), lit(1)), lit(2))
        assert simplify_expr(E.And((inner, E.eq("a", "b")))) == E.eq("a", "b")

    def test_is_null_folds(self):
        assert simplify_expr(E.IsNull(lit(None))) == E.TRUE
        assert simplify_expr(E.IsNull(lit(5), negated=True)) == E.TRUE

    def test_like_folds(self):
        assert simplify_expr(E.Like(lit("EUROPE BRASS"), "%BRASS")) == E.TRUE
        assert simplify_expr(E.Like(lit(None), "%")) == E.NULL

    def test_case_constant_true_branch(self):
        case = E.Case(((E.TRUE, lit("hit")),), lit("miss"))
        assert simplify_expr(case) == lit("hit")

    def test_case_constant_false_branch_removed(self):
        case = E.Case(((E.FALSE, lit("a")), (E.col("c"), lit("b"))), lit("d"))
        folded = simplify_expr(case)
        assert isinstance(folded, E.Case)
        assert len(folded.branches) == 1

    def test_column_refs_untouched(self):
        expression = E.eq("a", "b")
        assert simplify_expr(expression) is expression


class TestPlanSimplification:
    @pytest.fixture
    def catalog(self):
        cat = Catalog()
        cat.register(Table(Schema(["a"]), [(1,), (2,)], name="t"))
        return cat

    def scan(self, catalog):
        return L.Scan("t", Schema(["a"]))

    def test_true_select_removed(self, catalog):
        plan = L.Select(self.scan(catalog), E.TRUE)
        assert isinstance(simplify_plan(plan), L.Scan)

    def test_false_select_becomes_empty(self, catalog):
        plan = L.Select(self.scan(catalog), E.Comparison("=", lit(1), lit(2)))
        simplified = simplify_plan(plan)
        assert isinstance(simplified, L.Limit)
        assert execute_plan(simplified, catalog).rows == []

    def test_trivial_join_becomes_cross_product(self, catalog):
        plan = L.Join(self.scan(catalog), L.Rename(self.scan(catalog), {"a": "b"}), E.TRUE)
        assert isinstance(simplify_plan(plan), L.CrossProduct)

    @pytest.mark.parametrize(
        "operator", [L.Select, L.Join, L.SemiJoin, L.AntiJoin, L.LeftOuterJoin, L.BypassJoin]
    )
    def test_constant_conjunct_folds_in_every_predicate_subscript(self, catalog, operator):
        p = E.eq("a", "b")
        predicate = E.And((E.Comparison("=", lit(1), lit(1)), p))
        right = L.Rename(self.scan(catalog), {"a": "b"})
        if operator is L.Select:
            plan = L.Select(L.CrossProduct(self.scan(catalog), right), predicate)
        else:
            plan = operator(self.scan(catalog), right, predicate)
        simplified = simplify_plan(plan)
        assert type(simplified) is operator
        assert simplified.predicate == p

    def test_subquery_plans_simplified(self, catalog):
        from repro.algebra.aggregates import STAR, AggSpec

        inner = L.Select(self.scan(catalog), E.Comparison("=", lit(1), lit(1)))
        sub = L.ScalarAggregate(inner, [("g", AggSpec("count", STAR))])
        plan = L.Select(
            self.scan(catalog), E.Comparison(">", E.ScalarSubquery(sub), lit(0))
        )
        simplified = simplify_plan(plan)
        (new_sub,) = list(simplified.subquery_plans())
        assert isinstance(new_sub.child, L.Scan)  # inner TRUE select gone

    def test_full_pipeline_results_unchanged(self):
        rst = make_rst_catalog(seed=44)
        from repro.optimizer import plan_query

        sql = """SELECT * FROM r
                 WHERE (1 = 1 AND A1 = (SELECT COUNT(*) FROM s WHERE A2 = B2))
                    OR (A4 > 1500 AND 2 > 1)"""
        reference = plan_query(sql, rst, "canonical").execute(rst)
        for strategy in ("unnested", "auto"):
            assert plan_query(sql, rst, strategy).execute(rst).bag_equals(reference)


# -- exactness property (3VL) ----------------------------------------------------

from tests.test_normalize import boolean_exprs, _evaluate  # reuse harness


@settings(max_examples=150, deadline=None)
@given(
    expression=boolean_exprs(),
    x=st.one_of(st.none(), st.integers(0, 3)),
    y=st.one_of(st.none(), st.integers(0, 3)),
    s=st.one_of(st.none(), st.sampled_from(["a", "ab", "b"])),
)
def test_simplify_preserves_3vl_semantics(expression, x, y, s):
    original = _evaluate(expression, x, y, s)
    simplified = _evaluate(simplify_expr(expression), x, y, s)
    assert original == simplified or (original is None and simplified is None)
