"""Behavioural tests for the physical operators, driven via logical plans."""

import pytest

from repro.algebra import expr as E
from repro.algebra import ops as L
from repro.algebra.aggregates import STAR, AggSpec
from repro.engine import EvalOptions, execute_plan
from repro.storage import Catalog, Schema, Table


@pytest.fixture
def catalog():
    cat = Catalog()
    cat.register(Table(Schema(["A1", "A2"]), [(1, 10), (2, 20), (2, 30), (None, 40)], name="r"))
    cat.register(Table(Schema(["B1", "B2"]), [(1, "x"), (2, "y"), (None, "z")], name="s"))
    cat.register(Table(Schema(["C1"]), [], name="empty"))
    return cat


def scan(catalog, name):
    return L.Scan(name, catalog.table(name).schema)


def run(plan, catalog, **kw):
    return execute_plan(plan, catalog, EvalOptions(vectorized=False, **kw))


class TestFilterProject:
    def test_filter_keeps_true_only(self, catalog):
        plan = L.Select(scan(catalog, "r"), E.Comparison(">", E.col("A1"), E.lit(1)))
        # The NULL row evaluates UNKNOWN and is dropped.
        assert run(plan, catalog).rows == [(2, 20), (2, 30)]

    def test_project_reorders_columns(self, catalog):
        plan = L.Project(scan(catalog, "r"), ["A2", "A1"])
        assert run(plan, catalog).rows[0] == (10, 1)

    def test_map_appends_value(self, catalog):
        plan = L.Map(scan(catalog, "s"), "n", E.Arithmetic("+", E.col("B1"), E.lit(1)))
        assert run(plan, catalog).rows[0] == (1, "x", 2)

    def test_distinct_stable(self, catalog):
        base = L.Project(scan(catalog, "r"), ["A1"])
        plan = L.Distinct(base)
        assert run(plan, catalog).rows == [(1,), (2,), (None,)]

    def test_rename_passthrough(self, catalog):
        plan = L.Rename(scan(catalog, "r"), {"A1": "X"})
        table = run(plan, catalog)
        assert table.schema.names == ("X", "A2")
        assert len(table) == 4

    def test_numbering_sequential(self, catalog):
        plan = L.Numbering(scan(catalog, "s"), "t")
        assert [row[-1] for row in run(plan, catalog).rows] == [1, 2, 3]

    def test_limit(self, catalog):
        plan = L.Limit(scan(catalog, "r"), 2)
        assert len(run(plan, catalog)) == 2


class TestSort:
    def test_multi_key(self, catalog):
        plan = L.Sort(scan(catalog, "r"), [("A1", True), ("A2", False)])
        rows = run(plan, catalog).rows
        assert rows == [(1, 10), (2, 30), (2, 20), (None, 40)]

    def test_nulls_last_ascending_first_descending(self, catalog):
        # PostgreSQL convention: NULLs sort last ASC, first DESC.
        ascending = L.Sort(scan(catalog, "r"), [("A1", True)])
        assert run(ascending, catalog).rows[-1][0] is None
        descending = L.Sort(scan(catalog, "r"), [("A1", False)])
        assert run(descending, catalog).rows[0][0] is None


class TestJoins:
    def test_hash_join(self, catalog):
        plan = L.Join(scan(catalog, "r"), scan(catalog, "s"), E.eq("A1", "B1"))
        rows = sorted(run(plan, catalog).rows)
        assert rows == [(1, 10, 1, "x"), (2, 20, 2, "y"), (2, 30, 2, "y")]

    def test_null_keys_never_match(self, catalog):
        plan = L.Join(scan(catalog, "r"), scan(catalog, "s"), E.eq("A1", "B1"))
        assert all(row[0] is not None for row in run(plan, catalog).rows)

    def test_nl_join_theta(self, catalog):
        plan = L.Join(
            scan(catalog, "r"), scan(catalog, "s"),
            E.Comparison("<", E.col("A1"), E.col("B1")),
        )
        assert sorted(run(plan, catalog).rows) == [(1, 10, 2, "y")]

    def test_cross_product(self, catalog):
        plan = L.CrossProduct(scan(catalog, "r"), scan(catalog, "s"))
        assert len(run(plan, catalog)) == 12

    def test_left_outer_join_defaults(self, catalog):
        grouped = L.GroupBy(scan(catalog, "s"), ["B1"], [("g", AggSpec("count", STAR))])
        plan = L.LeftOuterJoin(
            scan(catalog, "r"), grouped, E.eq("A1", "B1"), defaults={"g": 0}
        )
        rows = {row[:2]: row[2:] for row in run(plan, catalog).rows}
        assert rows[(1, 10)] == (1, 1)
        assert rows[(None, 40)] == (None, 0)  # key NULL, default applied

    def test_left_outer_join_cardinality_preserved(self, catalog):
        grouped = L.GroupBy(scan(catalog, "s"), ["B1"], [("g", AggSpec("count", STAR))])
        plan = L.LeftOuterJoin(scan(catalog, "r"), grouped, E.eq("A1", "B1"), defaults={"g": 0})
        assert len(run(plan, catalog)) == len(catalog.table("r"))

    def test_semi_join(self, catalog):
        plan = L.SemiJoin(scan(catalog, "r"), scan(catalog, "s"), E.eq("A1", "B1"))
        assert sorted(run(plan, catalog).rows) == [(1, 10), (2, 20), (2, 30)]

    def test_anti_join(self, catalog):
        plan = L.AntiJoin(scan(catalog, "r"), scan(catalog, "s"), E.eq("A1", "B1"))
        assert run(plan, catalog).rows == [(None, 40)]

    def test_join_with_residual(self, catalog):
        pred = E.conjunction([
            E.eq("A1", "B1"),
            E.Comparison(">", E.col("A2"), E.lit(15)),
        ])
        plan = L.Join(scan(catalog, "r"), scan(catalog, "s"), pred)
        assert sorted(run(plan, catalog).rows) == [(2, 20, 2, "y"), (2, 30, 2, "y")]

    def test_join_empty_side(self, catalog):
        plan = L.Join(scan(catalog, "r"), scan(catalog, "empty"), E.TRUE)
        assert len(run(plan, catalog)) == 0


class TestBypass:
    def test_bypass_select_partition(self, catalog):
        bypass = L.BypassSelect(scan(catalog, "r"), E.Comparison(">", E.col("A1"), E.lit(1)))
        positive = run(bypass.positive, catalog)
        negative = run(bypass.negative, catalog)
        assert sorted(positive.rows) == [(2, 20), (2, 30)]
        # UNKNOWN goes to the negative stream.
        assert sorted(negative.rows, key=str) == [(1, 10), (None, 40)]

    def test_bypass_streams_cover_input(self, catalog):
        bypass = L.BypassSelect(scan(catalog, "r"), E.Comparison("=", E.col("A1"), E.lit(2)))
        both = L.UnionAll(bypass.positive, bypass.negative)
        assert run(both, catalog).bag_equals(catalog.table("r"))

    def test_bypass_join_partition(self, catalog):
        bypass = L.BypassJoin(scan(catalog, "r"), scan(catalog, "s"), E.eq("A1", "B1"))
        positive = run(bypass.positive, catalog)
        negative = run(bypass.negative, catalog)
        assert len(positive) == 3
        assert len(negative) == 12 - 3  # complement of the cross product

    def test_bypass_evaluated_once(self, catalog):
        bypass = L.BypassSelect(scan(catalog, "r"), E.Comparison(">", E.col("A1"), E.lit(1)))
        both = L.UnionAll(bypass.positive, bypass.negative)
        table, ctx = execute_plan(
            both, catalog, EvalOptions(vectorized=False, collect_stats=True), with_context=True
        )
        assert ctx.stats.rows_produced.get("PBypassFilter") == 4  # once, not twice


class TestGrouping:
    def test_group_by_counts(self, catalog):
        plan = L.GroupBy(scan(catalog, "r"), ["A1"], [("g", AggSpec("count", STAR))])
        assert sorted(run(plan, catalog).rows, key=str) == sorted(
            [(1, 1), (2, 2), (None, 1)], key=str
        )

    def test_group_by_multiple_aggregates(self, catalog):
        plan = L.GroupBy(
            scan(catalog, "r"), ["A1"],
            [("n", AggSpec("count", STAR)), ("s", AggSpec("sum", E.col("A2"))),
             ("m", AggSpec("max", E.col("A2")))],
        )
        rows = {row[0]: row[1:] for row in run(plan, catalog).rows}
        assert rows[2] == (2, 50, 30)

    def test_scalar_aggregate_empty_input(self, catalog):
        plan = L.ScalarAggregate(
            scan(catalog, "empty"),
            [("n", AggSpec("count", STAR)), ("s", AggSpec("sum", E.col("C1")))],
        )
        assert run(plan, catalog).rows == [(0, None)]

    def test_binary_group_by_hash(self, catalog):
        numbered = L.Numbering(scan(catalog, "r"), "t")
        renamed = L.Rename(L.Numbering(scan(catalog, "r"), "t0"), {"t0": "t2"})
        plan = L.BinaryGroupBy(numbered, renamed, "g", "t", "t2", AggSpec("count", STAR))
        rows = run(plan, catalog).rows
        assert len(rows) == 4
        assert all(row[-1] == 1 for row in rows)

    def test_binary_group_by_empty_group_gets_f_empty(self, catalog):
        left = L.Numbering(scan(catalog, "r"), "t")
        right = L.Rename(L.Numbering(scan(catalog, "empty"), "t0"), {"t0": "t2"})
        plan = L.BinaryGroupBy(left, right, "g", "t", "t2", AggSpec("count", STAR))
        assert all(row[-1] == 0 for row in run(plan, catalog).rows)

    def test_binary_group_by_theta(self, catalog):
        # g = count of s-rows with B1 > A1 (non-equality binary grouping).
        plan = L.BinaryGroupBy(
            scan(catalog, "r"), scan(catalog, "s"), "g", "A1", "B1",
            AggSpec("count", STAR), op="<",
        )
        rows = {row[:2]: row[2] for row in run(plan, catalog).rows}
        assert rows[(1, 10)] == 1  # only B1=2 is greater
        assert rows[(2, 20)] == 0
        assert rows[(None, 40)] == 0  # NULL never compares

    def test_binary_group_star_names_projection(self, catalog):
        # Count DISTINCT s-tuples only (ignore the r-part of the pair).
        joined = L.Join(scan(catalog, "r"), scan(catalog, "s"), E.TRUE)
        numbered = L.Numbering(scan(catalog, "r"), "t")
        pairs = L.Join(numbered, scan(catalog, "s"), E.TRUE)
        renamed = L.Rename(pairs, {"t": "t2"})
        plan = L.BinaryGroupBy(
            numbered, renamed, "g", "t", "t2",
            AggSpec("count", STAR, distinct=True), star_names=["B1", "B2"],
        )
        rows = run(plan, catalog).rows
        assert all(row[-1] == 3 for row in rows)  # 3 distinct s-rows each


class TestSetOperations:
    def test_union_all_keeps_duplicates(self, catalog):
        base = L.Project(scan(catalog, "r"), ["A1"])
        plan = L.UnionAll(base, base)
        assert len(run(plan, catalog)) == 8

    def test_union_dedups(self, catalog):
        base = L.Project(scan(catalog, "r"), ["A1"])
        plan = L.Union(base, base)
        assert len(run(plan, catalog)) == 3

    def test_intersect(self, catalog):
        left = L.Project(scan(catalog, "r"), ["A1"])
        right = L.Project(scan(catalog, "s"), ["B1"])
        plan = L.Intersect(left, right)
        assert sorted(run(plan, catalog).rows, key=str) == sorted(
            [(1,), (2,), (None,)], key=str
        )

    def test_difference(self, catalog):
        left = L.Project(scan(catalog, "s"), ["B2"])
        right = L.Project(scan(catalog, "s"), ["B2"])
        assert run(L.Difference(left, right), catalog).rows == []


class TestBudget:
    def test_budget_exceeded_raises(self, catalog):
        from repro.errors import BudgetExceeded

        big = Table(Schema(["x"]), [(i,) for i in range(3000)], name="big")
        cat = Catalog()
        cat.register(big)
        # A 9-million-pair nested loop with a zero budget must abort.
        plan = L.Join(
            L.Scan("big", big.schema),
            L.Rename(L.Scan("big", big.schema), {"x": "y"}),
            E.Comparison("<", E.col("x"), E.col("y")),
        )
        with pytest.raises(BudgetExceeded):
            run(plan, cat, budget_seconds=0.0)
