"""Executor-level behaviour: DAG memoisation, subquery caching, stats."""

import pytest

from repro.algebra import expr as E
from repro.algebra import ops as L
from repro.algebra.aggregates import STAR, AggSpec
from repro.engine import EvalOptions, execute_plan
from repro.engine.compile import compile_plan
from repro.engine.context import ExecContext
from repro.storage import Catalog, Schema, Table


@pytest.fixture
def catalog():
    cat = Catalog()
    cat.register(Table(Schema(["A1", "A2"]), [(1, 1), (2, 1), (0, 9)], name="r"))
    cat.register(Table(Schema(["B1", "B2"]), [(5, 1), (6, 1), (7, 2)], name="s"))
    return cat


def scan(catalog, name):
    return L.Scan(name, catalog.table(name).schema)


class TestDagMemoisation:
    def test_shared_subtree_evaluated_once(self, catalog):
        shared = L.Select(scan(catalog, "r"), E.Comparison(">", E.col("A1"), E.lit(0)))
        plan = L.UnionAll(shared, shared)
        table, ctx = execute_plan(
            plan, catalog, EvalOptions(vectorized=False, collect_stats=True), with_context=True
        )
        assert len(table) == 4
        # The filter produced rows once (2), not twice (4).
        assert ctx.stats.rows_produced["PFilter"] == 2

    def test_unshared_subtree_not_memoised(self, catalog):
        left = L.Select(scan(catalog, "r"), E.Comparison(">", E.col("A1"), E.lit(0)))
        right = L.Select(scan(catalog, "r"), E.Comparison(">", E.col("A1"), E.lit(0)))
        plan = L.UnionAll(left, right)
        _, ctx = execute_plan(
            plan, catalog, EvalOptions(vectorized=False, collect_stats=True), with_context=True
        )
        assert ctx.stats.rows_produced["PFilter"] == 4

    def test_sharing_across_subquery_boundary(self, catalog):
        """Eqv. 4's pattern: a bypass stream consumed both by the main DAG
        and by a plan embedded in a map expression."""
        bypass = L.BypassSelect(scan(catalog, "s"), E.Comparison("=", E.col("B2"), E.lit(1)))
        scalar = L.ScalarAggregate(bypass.positive, [("g2", AggSpec("count", STAR))])
        mapped = L.Map(bypass.negative, "total", E.ScalarSubquery(scalar))
        _, ctx = execute_plan(
            mapped, catalog, EvalOptions(vectorized=False, collect_stats=True), with_context=True
        )
        # The bypass partition was computed exactly once.
        assert ctx.stats.rows_produced["PBypassFilter"] == 3


class TestSubqueryCaching:
    def _correlated_plan(self, catalog):
        sub = L.ScalarAggregate(
            L.Select(scan(catalog, "s"), E.eq("A2", "B2")),
            [("g", AggSpec("count", STAR))],
        )
        return L.Select(
            scan(catalog, "r"),
            E.Comparison("<=", E.ScalarSubquery(sub), E.col("A1")),
        )

    def test_no_memo_by_default(self, catalog):
        _, ctx = execute_plan(
            self._correlated_plan(catalog), catalog, EvalOptions(vectorized=False), with_context=True
        )
        assert ctx.stats.subquery_evals == 3
        assert ctx.stats.subquery_cache_hits == 0

    def test_memo_hits_on_repeated_correlation_values(self, catalog):
        _, ctx = execute_plan(
            self._correlated_plan(catalog),
            catalog,
            EvalOptions(vectorized=False, subquery_memo=True),
            with_context=True,
        )
        # A2 values: 1, 1, 9 → two evaluations, one hit.
        assert ctx.stats.subquery_evals == 2
        assert ctx.stats.subquery_cache_hits == 1

    def test_uncorrelated_subquery_always_cached(self, catalog):
        sub = L.ScalarAggregate(scan(catalog, "s"), [("g", AggSpec("count", STAR))])
        plan = L.Select(
            scan(catalog, "r"),
            E.Comparison("<", E.col("A1"), E.ScalarSubquery(sub)),
        )
        _, ctx = execute_plan(plan, catalog, EvalOptions(vectorized=False), with_context=True)
        assert ctx.stats.subquery_evals == 1
        assert ctx.stats.subquery_cache_hits == 2

    def test_results_identical_with_and_without_memo(self, catalog):
        plan = self._correlated_plan(catalog)
        cold = execute_plan(plan, catalog, EvalOptions(vectorized=False, subquery_memo=False))
        warm = execute_plan(plan, catalog, EvalOptions(vectorized=False, subquery_memo=True))
        assert cold.bag_equals(warm)


class TestCompile:
    def test_compile_is_pure(self, catalog):
        plan = L.Select(scan(catalog, "r"), E.eq("A1", "A2"))
        physical = compile_plan(plan, vectorized=False)
        first = physical.execute(ExecContext(catalog), {})
        second = physical.execute(ExecContext(catalog), {})
        assert first == second

    def test_hash_join_chosen_for_equality(self, catalog):
        from repro.engine.operators import PHashJoin

        plan = L.Join(scan(catalog, "r"), scan(catalog, "s"), E.eq("A2", "B2"))
        assert isinstance(compile_plan(plan, vectorized=False), PHashJoin)

    def test_nl_join_chosen_for_theta(self, catalog):
        from repro.engine.operators import PNLJoin

        plan = L.Join(
            scan(catalog, "r"), scan(catalog, "s"),
            E.Comparison("<", E.col("A2"), E.col("B2")),
        )
        assert isinstance(compile_plan(plan, vectorized=False), PNLJoin)

    def test_negative_stream_filter_fused_into_bypass_join(self, catalog):
        from repro.engine.operators import PStreamTap

        bypass = L.BypassJoin(scan(catalog, "r"), scan(catalog, "s"), E.eq("A2", "B2"))
        filtered = L.Select(bypass.negative, E.Comparison(">", E.col("B1"), E.lit(5)))
        plan = L.UnionAll(bypass.positive, filtered)
        physical = compile_plan(plan, vectorized=False)
        # The Select disappeared: its right child is the tap directly.
        assert isinstance(physical.right, PStreamTap)
        assert physical.right.source.negative_filter is not None

    def test_fused_filter_matches_unfused_semantics(self, catalog):
        bypass = L.BypassJoin(scan(catalog, "r"), scan(catalog, "s"), E.eq("A2", "B2"))
        filtered = L.Select(bypass.negative, E.Comparison(">", E.col("B1"), E.lit(5)))
        plan = L.UnionAll(bypass.positive, filtered)
        fused = execute_plan(plan, catalog)

        # Reference: manual cross product partition in Python.
        r = catalog.table("r").rows
        s = catalog.table("s").rows
        expected = [x + y for x in r for y in s if x[1] == y[1]]
        expected += [x + y for x in r for y in s if x[1] != y[1] and y[0] > 5]
        assert sorted(fused.rows) == sorted(expected)

    def test_scan_arity_mismatch_rejected(self, catalog):
        from repro.errors import PlanningError

        bad = L.Scan("r", Schema(["only_one"]))
        with pytest.raises(PlanningError, match="catalog arity 2 != plan arity 1"):
            execute_plan(bad, catalog)  # checked where the scan resolves "r"

    def test_bypass_without_tap_rejected_at_runtime(self, catalog):
        from repro.errors import ExecutionError

        bypass = L.BypassSelect(scan(catalog, "r"), E.TRUE)
        physical = compile_plan(bypass, vectorized=False)
        with pytest.raises(ExecutionError):
            physical.execute(ExecContext(catalog), {})
