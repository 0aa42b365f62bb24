"""Unit tests for repro.algebra.expr (construction & analysis)."""

import pytest

from repro.algebra import expr as E
from repro.algebra import ops as L
from repro.algebra.aggregates import STAR, AggSpec
from repro.storage.schema import Schema


def scan(names):
    return L.Scan("t", Schema(names))


def _one_of_each():
    """One instance of every concrete expression class."""
    a, b, plan = E.col("a"), E.col("b"), scan(["c"])
    return [
        E.lit(1), a, E.Parameter("x"), E.Comparison("<", a, b), E.And((a, b)), E.Or((a, b, a)),
        E.Not(a), E.Arithmetic("*", a, b), E.Negate(a), E.Like(a, "%x", True), E.IsNull(a, True),
        E.InList(a, (E.lit(1), E.lit(2)), True), E.Case(((a, E.lit(1)), (b, E.lit(2))), E.lit(0)),
        E.FunctionCall("mod", (a, b)), E.ScalarSubquery(plan), E.Exists(plan, True),
        E.InSubquery(a, plan, True), E.QuantifiedComparison(a, ">=", "all", plan),
        E.AggCombine("sum", (a, b)),
    ]


def _concrete_expressions(base=E.Expr):
    for cls in base.__subclasses__():
        if cls is not E.SubqueryExpr:
            yield cls
        yield from _concrete_expressions(cls)


class TestConstruction:
    def test_comparison_validates_op(self):
        with pytest.raises(ValueError):
            E.Comparison("~", E.col("a"), E.lit(1))

    def test_arithmetic_validates_op(self):
        with pytest.raises(ValueError):
            E.Arithmetic("%", E.col("a"), E.lit(1))

    def test_function_call_validates_name(self):
        with pytest.raises(ValueError):
            E.FunctionCall("nope", (E.lit(1),))

    def test_quantified_validates(self):
        plan = scan(["a"])
        with pytest.raises(ValueError):
            E.QuantifiedComparison(E.col("x"), "=", "most", plan)

    def test_eq_helper_accepts_strings(self):
        comparison = E.eq("a", "b")
        assert comparison == E.Comparison("=", E.ColumnRef("a"), E.ColumnRef("b"))

    def test_mirrored(self):
        comparison = E.Comparison("<", E.col("a"), E.col("b"))
        assert comparison.mirrored() == E.Comparison(">", E.col("b"), E.col("a"))

    def test_mirrored_eq(self):
        assert E.eq("a", "b").mirrored() == E.eq("b", "a")


class TestConjunctionDisjunction:
    def test_conjunction_flattens(self):
        result = E.conjunction([E.And((E.col("a"), E.col("b"))), E.col("c")])
        assert isinstance(result, E.And)
        assert len(result.items) == 3

    def test_conjunction_drops_true(self):
        assert E.conjunction([E.TRUE, E.col("a")]) == E.col("a")

    def test_conjunction_empty_is_true(self):
        assert E.conjunction([]) == E.TRUE

    def test_disjunction_flattens(self):
        result = E.disjunction([E.Or((E.col("a"), E.col("b"))), E.col("c")])
        assert len(result.items) == 3

    def test_disjunction_empty_is_false(self):
        assert E.disjunction([]) == E.FALSE

    def test_conjuncts_nested(self):
        expr = E.And((E.And((E.col("a"), E.col("b"))), E.col("c")))
        assert len(E.conjuncts(expr)) == 3

    def test_disjuncts_single(self):
        assert E.disjuncts(E.col("a")) == [E.col("a")]


class TestAnalysis:
    def test_free_attrs_simple(self):
        expr = E.Comparison("=", E.col("a"), E.Arithmetic("+", E.col("b"), E.lit(1)))
        assert expr.free_attrs() == {"a", "b"}

    def test_free_attrs_subquery_includes_plan_free(self):
        inner = L.Select(scan(["b"]), E.eq("outer_a", "b"))
        sub = E.ScalarSubquery(L.ScalarAggregate(inner, [("g", AggSpec("count", STAR))]))
        expr = E.Comparison("=", E.col("x"), sub)
        assert expr.free_attrs() == {"x", "outer_a"}

    def test_contains_subquery(self):
        plan = scan(["a"])
        assert E.Exists(plan).contains_subquery()
        assert not E.eq("a", "b").contains_subquery()

    def test_walk_visits_all(self):
        expr = E.And((E.eq("a", "b"), E.Not(E.col("c"))))
        names = [type(n).__name__ for n in expr.walk()]
        assert names == ["And", "Comparison", "ColumnRef", "ColumnRef", "Not", "ColumnRef"]

    def test_transform_with_identity_returns_self(self):
        expr = E.And((E.eq("a", "b"), E.Not(E.Like(E.col("a"), "%x%"))))
        assert expr.transform(lambda node: node) is expr

    def test_transform_is_bottom_up_and_shares_untouched_subtrees(self):
        untouched = E.eq("c", "d")
        expr = E.And((E.Not(E.eq("a", "b")), untouched))
        seen = []

        def rename_a(node):
            seen.append(type(node).__name__)
            return E.col("z") if node == E.col("a") else node

        renamed = expr.transform(rename_a)
        assert renamed == E.And((E.Not(E.eq("z", "b")), untouched))
        assert renamed.items[1] is untouched
        assert seen.index("Comparison") < seen.index("Not") < seen.index("And")

    def test_map_subplans_swaps_every_nested_plan(self):
        inner = L.ScalarAggregate(scan(["b"]), [("g", AggSpec("count", STAR))])
        operand = E.Arithmetic("+", E.col("a"), E.ScalarSubquery(inner))
        in_sub = E.InSubquery(operand, scan(["c"]), True)
        expr = E.Or((in_sub, E.eq("a", "b")))
        assert expr.map_subplans(lambda plan: plan) is expr

        limited = expr.map_subplans(lambda plan: L.Limit(plan, 1))
        swapped = limited.items[0]
        assert isinstance(swapped, E.InSubquery) and swapped.negated
        assert isinstance(swapped.plan, L.Limit) and swapped.plan.child is in_sub.plan
        assert swapped.operand.right.plan.child is inner
        assert limited.items[1] is expr.items[1]

    def test_replace_children_roundtrip(self):
        expr = E.Case(((E.col("c"), E.lit(1)),), E.lit(0))
        rebuilt = expr.replace_children(list(expr.children()))
        assert rebuilt == expr

    def test_every_expression_rebuilds_over_new_children(self):
        """Each child becomes a column named after its rendering, so the
        rebuilt node renders exactly as the original did."""
        samples = _one_of_each()
        assert {type(expr) for expr in samples} == set(_concrete_expressions())
        for expr in samples:
            fresh = [E.ColumnRef(child.sql()) for child in expr.children()]
            rebuilt = expr.replace_children(fresh)
            assert type(rebuilt) is type(expr)
            assert rebuilt.children() == tuple(fresh)
            assert rebuilt.sql() == expr.sql()

    def test_replace_children_rejects_the_wrong_number_of_children(self):
        with pytest.raises(ValueError):
            E.eq("a", "b").replace_children([E.col("a")])

    def test_in_list_children(self):
        expr = E.InList(E.col("a"), (E.lit(1), E.lit(2)))
        assert len(expr.children()) == 3


class TestSqlRendering:
    def test_literal_null(self):
        assert E.lit(None).sql() == "NULL"

    def test_literal_string_escaped(self):
        assert E.lit("o'brien").sql() == "'o''brien'"

    def test_comparison(self):
        assert E.eq("a", "b").sql() == "a = b"

    def test_boolean_nesting(self):
        expr = E.Or((E.eq("a", "b"), E.And((E.col("c"), E.col("d")))))
        assert expr.sql() == "(a = b OR (c AND d))"

    def test_like(self):
        assert E.Like(E.col("a"), "%x", True).sql() == "a NOT LIKE '%x'"

    def test_agg_combine(self):
        expr = E.AggCombine("count", (E.col("g1"), E.col("g2")))
        assert expr.sql() == "countO(g1, g2)"

    def test_case(self):
        expr = E.Case(((E.col("c"), E.lit(1)),), E.lit(0))
        assert "WHEN" in expr.sql() and "ELSE" in expr.sql()
