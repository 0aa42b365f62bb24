"""Engine micro-benchmarks: the operators the unnested plans rely on.

Not a paper figure — these pin the constant factors behind the cost
model: hash join vs. nested loops, unary grouping, binary grouping, and
the bypass selection overhead vs. a pair of complementary selections.
"""

import random

import pytest

from benchmarks.bench_util import ROW
from repro.algebra import expr as E
from repro.algebra import ops as L
from repro.algebra.aggregates import STAR, AggSpec
from repro.engine import execute_plan
from repro.storage import Catalog, Schema, Table

N = 4000


@pytest.fixture(scope="module")
def catalog():
    rng = random.Random(17)
    cat = Catalog()
    cat.register(
        Table(
            Schema(["A1", "A2"]),
            [(rng.randrange(500), rng.randrange(3000)) for _ in range(N)],
            name="r",
        )
    )
    cat.register(
        Table(
            Schema(["B1", "B2"]),
            [(rng.randrange(500), rng.randrange(3000)) for _ in range(N)],
            name="s",
        )
    )
    return cat


def scan(catalog, name):
    return L.Scan(name, catalog.table(name).schema)


def run_bench(benchmark, plan, catalog, rounds=3):
    benchmark.pedantic(
        lambda: execute_plan(plan, catalog, ROW), rounds=rounds, iterations=1, warmup_rounds=0
    )


class TestJoins:
    def test_hash_join(self, benchmark, catalog):
        benchmark.group = "micro-join"
        plan = L.Join(scan(catalog, "r"), scan(catalog, "s"), E.eq("A1", "B1"))
        run_bench(benchmark, plan, catalog)

    def test_nested_loop_join(self, benchmark, catalog):
        benchmark.group = "micro-join"
        plan = L.Join(
            scan(catalog, "r"), scan(catalog, "s"),
            # Same semantics, but the comparison defeats key extraction.
            E.Comparison("=", E.Arithmetic("+", E.col("A1"), E.lit(0)), E.col("B1")),
        )
        run_bench(benchmark, plan, catalog, rounds=1)


class TestGrouping:
    def test_unary_grouping(self, benchmark, catalog):
        benchmark.group = "micro-grouping"
        plan = L.GroupBy(scan(catalog, "s"), ["B1"], [("g", AggSpec("count", STAR))])
        run_bench(benchmark, plan, catalog)

    def test_binary_grouping_hash(self, benchmark, catalog):
        benchmark.group = "micro-grouping"
        plan = L.BinaryGroupBy(
            scan(catalog, "r"), scan(catalog, "s"), "g", "A1", "B1",
            AggSpec("count", STAR),
        )
        run_bench(benchmark, plan, catalog)

    def test_grouped_outer_join_pipeline(self, benchmark, catalog):
        """The Eqv. 1 backbone: Γ then ⟕ with defaults."""
        benchmark.group = "micro-grouping"
        grouped = L.GroupBy(scan(catalog, "s"), ["B1"], [("g", AggSpec("count", STAR))])
        plan = L.LeftOuterJoin(
            scan(catalog, "r"), grouped, E.eq("A1", "B1"), defaults={"g": 0}
        )
        run_bench(benchmark, plan, catalog)


class TestBypassOverhead:
    PRED = E.Comparison(">", E.col("A2"), E.lit(1500))

    def test_bypass_selection(self, benchmark, catalog):
        benchmark.group = "micro-bypass"
        bypass = L.BypassSelect(scan(catalog, "r"), self.PRED)
        plan = L.UnionAll(bypass.positive, bypass.negative)
        run_bench(benchmark, plan, catalog)

    def test_two_complementary_selections(self, benchmark, catalog):
        """What a system without bypass operators would do: scan twice."""
        benchmark.group = "micro-bypass"
        base = scan(catalog, "r")
        plan = L.UnionAll(
            L.Select(base, self.PRED),
            L.Select(base, E.Not(self.PRED)),
        )
        run_bench(benchmark, plan, catalog)

    @pytest.mark.timing
    def test_bypass_no_slower_than_double_scan(self, catalog):
        import time

        bypass = L.BypassSelect(scan(catalog, "r"), self.PRED)
        bypass_plan = L.UnionAll(bypass.positive, bypass.negative)
        base = scan(catalog, "r")
        double_plan = L.UnionAll(
            L.Select(base, self.PRED), L.Select(base, E.Not(self.PRED))
        )
        start = time.perf_counter()
        for _ in range(5):
            first = execute_plan(bypass_plan, catalog, ROW)
        bypass_time = time.perf_counter() - start
        start = time.perf_counter()
        for _ in range(5):
            second = execute_plan(double_plan, catalog, ROW)
        double_time = time.perf_counter() - start
        assert first.bag_equals(second)
        assert bypass_time < double_time * 1.3
