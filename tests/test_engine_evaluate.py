"""Expression-compiler internals: environments, binding, correlation."""

import pytest

from repro.algebra import expr as E
from repro.algebra import ops as L
from repro.algebra.aggregates import STAR, AggSpec
from repro.engine import EvalOptions, execute_plan
from repro.engine.compile import compile_plan
from repro.engine.context import ExecContext
from repro.errors import ExecutionError
from repro.storage import Catalog, Schema, Table

ROW = EvalOptions(vectorized=False)


@pytest.fixture
def catalog():
    cat = Catalog()
    cat.register(Table(Schema(["x", "y"]), [(1, 10), (2, 20)], name="r"))
    cat.register(Table(Schema(["v"]), [(1,), (1,), (2,)], name="s"))
    cat.register(Table(Schema(["w"]), [(5,), (6,)], name="t"))
    return cat


def scan(catalog, name):
    return L.Scan(name, catalog.table(name).schema)


class TestEnvironmentBinding:
    def test_free_attr_resolved_from_env(self, catalog):
        plan = L.Select(scan(catalog, "s"), E.eq("outer_val", "v"))
        physical = compile_plan(plan, vectorized=False)
        rows = physical.execute(ExecContext(catalog), {"outer_val": 1})
        assert rows == [(1,), (1,)]

    def test_unbound_attr_raises(self, catalog):
        plan = L.Select(scan(catalog, "s"), E.eq("nowhere", "v"))
        physical = compile_plan(plan, vectorized=False)
        with pytest.raises(ExecutionError, match="unbound attribute"):
            physical.execute(ExecContext(catalog), {})

    def test_env_rebinding_per_execution(self, catalog):
        plan = L.Select(scan(catalog, "s"), E.eq("outer_val", "v"))
        physical = compile_plan(plan, vectorized=False)
        assert len(physical.execute(ExecContext(catalog), {"outer_val": 1})) == 2
        assert len(physical.execute(ExecContext(catalog), {"outer_val": 2})) == 1
        assert len(physical.execute(ExecContext(catalog), {"outer_val": 9})) == 0

    def test_two_level_correlation_chain(self, catalog):
        """x flows two blocks down through chained environments."""
        innermost = L.ScalarAggregate(
            L.Select(scan(catalog, "t"), E.Comparison(">", E.col("w"), E.col("x"))),
            [("c2", AggSpec("count", STAR))],
        )
        middle = L.ScalarAggregate(
            L.Select(
                scan(catalog, "s"),
                E.conjunction([
                    E.eq("x", "v"),
                    E.Comparison(">=", E.ScalarSubquery(innermost), E.lit(0)),
                ]),
            ),
            [("c1", AggSpec("count", STAR))],
        )
        outer = L.Map(scan(catalog, "r"), "n", E.ScalarSubquery(middle))
        result = execute_plan(outer, catalog, ROW)
        assert sorted(result.rows) == [(1, 10, 2), (2, 20, 1)]


class TestMixedExpressionShapes:
    def _value(self, catalog, expression):
        plan = L.Project(L.Map(scan(catalog, "r"), "out", expression), ["out"])
        return execute_plan(plan, catalog, ROW).rows

    def test_nested_arithmetic(self, catalog):
        expression = E.Arithmetic(
            "*", E.Arithmetic("+", E.col("x"), E.lit(1)), E.col("y")
        )
        assert self._value(catalog, expression) == [(20,), (60,)]

    def test_case_over_subquery(self, catalog):
        sub = L.ScalarAggregate(
            L.Select(scan(catalog, "s"), E.eq("x", "v")),
            [("c", AggSpec("count", STAR))],
        )
        expression = E.Case(
            ((E.Comparison(">", E.ScalarSubquery(sub), E.lit(1)), E.lit("many")),),
            E.lit("few"),
        )
        assert self._value(catalog, expression) == [("many",), ("few",)]

    def test_function_over_column(self, catalog):
        expression = E.FunctionCall("mod", (E.col("y"), E.lit(3)))
        assert self._value(catalog, expression) == [(1,), (2,)]

    def test_comparison_chain_in_boolean(self, catalog):
        expression = E.conjunction([
            E.Comparison("<", E.col("x"), E.col("y")),
            E.Comparison("<>", E.col("x"), E.lit(2)),
        ])
        assert self._value(catalog, expression) == [(True,), (False,)]


class TestAggregateArguments:
    def test_agg_over_expression(self, catalog):
        plan = L.ScalarAggregate(
            scan(catalog, "r"),
            [("s", AggSpec("sum", E.Arithmetic("+", E.col("x"), E.col("y"))))],
        )
        assert execute_plan(plan, catalog, ROW).rows == [(33,)]

    def test_agg_arg_referencing_outer(self, catalog):
        """sum(v + x): the argument mixes inner and outer attributes."""
        sub = L.ScalarAggregate(
            scan(catalog, "s"),
            [("s", AggSpec("sum", E.Arithmetic("+", E.col("v"), E.col("x"))))],
        )
        plan = L.Map(scan(catalog, "r"), "total", E.ScalarSubquery(sub))
        rows = execute_plan(plan, catalog, ROW).rows
        # x=1: (1+1)+(1+1)+(2+1)=7;  x=2: (1+2)+(1+2)+(2+2)=10
        assert sorted(rows) == [(1, 10, 7), (2, 20, 10)]

    def test_distinct_agg_over_expression(self, catalog):
        plan = L.ScalarAggregate(
            scan(catalog, "s"),
            [("n", AggSpec("count", E.col("v"), distinct=True))],
        )
        assert execute_plan(plan, catalog, ROW).rows == [(2,)]
