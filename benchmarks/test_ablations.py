"""Ablation benchmarks for the design choices DESIGN.md calls out.

1. **Eqv. 2 vs. Eqv. 3** — disjunct order in the bypass chain (rank
   decision, §3.1 Remark): cheap-simple-predicate-first vs.
   subquery-first on Q1.
2. **Eqv. 4 vs. Eqv. 5** — decomposable-aggregate specialisation vs. the
   general ν/⋈±/Γ route on Q2.  Eqv. 4 is hash-only; Eqv. 5 pays a
   bypass join, so Eqv. 4 should win where it applies (which is exactly
   why the paper keeps both).
3. **Subquery memoisation** — the S2 trick on top of canonical, RST vs.
   TPC-H correlation-value distinctness.
4. **Join optimisation** — canonical with vs. without the block-local
   join trees (what the cross-product translation would cost).
5. **Quantified count-reduction** — EXISTS unnesting on vs. off.
"""

import pytest

from benchmarks.bench_util import ROW, timed
from repro.bench.queries import Q1, Q2
from repro.engine import EvalOptions
from repro.optimizer import plan_query
from repro.rewrite import UnnestOptions


EXISTS_QUERY = """
SELECT * FROM r
WHERE EXISTS (SELECT * FROM s WHERE A2 = B2 AND B4 > 1000) OR A4 > 2500
"""


def bench_unnest_options(benchmark, sql, catalog, options, rounds=3):
    planned = plan_query(sql, catalog, "unnested", options)
    benchmark.pedantic(
        lambda: planned.execute(catalog, ROW), rounds=rounds, iterations=1, warmup_rounds=0
    )


class TestEqv2VsEqv3:
    @pytest.mark.parametrize("order", ["simple_first", "subquery_first"])
    def test_bench(self, benchmark, rst_catalogs, order):
        benchmark.group = "ablation-eqv2-vs-eqv3"
        catalog = rst_catalogs(10, 10)
        bench_unnest_options(
            benchmark, Q1, catalog, UnnestOptions(disjunct_order=order)
        )

    def test_both_orders_agree(self, rst_catalogs):
        catalog = rst_catalogs(5, 5)
        first = plan_query(Q1, catalog, "unnested", UnnestOptions(disjunct_order="simple_first"))
        second = plan_query(Q1, catalog, "unnested", UnnestOptions(disjunct_order="subquery_first"))
        assert first.execute(catalog, ROW).bag_equals(second.execute(catalog, ROW))

    def test_rank_picks_simple_first_for_q1(self, rst_catalogs):
        """With a cheap simple predicate, rank order == Eqv. 2."""
        catalog = rst_catalogs(5, 5)
        ranked = plan_query(Q1, catalog, "unnested", UnnestOptions(disjunct_order="rank"))
        forced = plan_query(Q1, catalog, "unnested", UnnestOptions(disjunct_order="simple_first"))
        from repro.algebra.explain import plan_signature

        assert plan_signature(ranked.logical) == plan_signature(forced.logical)


class TestEqv4VsEqv5:
    @pytest.mark.parametrize("variant", ["eqv4", "eqv5"])
    def test_bench(self, benchmark, rst_catalogs, variant):
        benchmark.group = "ablation-eqv4-vs-eqv5"
        catalog = rst_catalogs(5, 5)
        options = UnnestOptions(enable_eqv4=(variant == "eqv4"))
        bench_unnest_options(benchmark, Q2, catalog, options)

    @pytest.mark.timing
    def test_eqv4_faster_where_applicable(self, rst_catalogs):
        catalog = rst_catalogs(10, 10)
        eqv4 = plan_query(Q2, catalog, "unnested", UnnestOptions(enable_eqv4=True))
        eqv5 = plan_query(Q2, catalog, "unnested", UnnestOptions(enable_eqv4=False))
        import time

        start = time.perf_counter()
        first = eqv4.execute(catalog, ROW)
        eqv4_time = time.perf_counter() - start
        start = time.perf_counter()
        second = eqv5.execute(catalog, ROW)
        eqv5_time = time.perf_counter() - start
        assert first.bag_equals(second)
        assert eqv4_time < eqv5_time  # hash-only beats the bypass join


class TestMemoisation:
    @pytest.mark.parametrize("memo", [False, True], ids=["cold", "memo"])
    def test_bench(self, benchmark, rst_catalogs, memo):
        benchmark.group = "ablation-subquery-memo"
        catalog = rst_catalogs(5, 5)
        planned = plan_query(Q1, catalog, "canonical")
        options = EvalOptions(vectorized=False, subquery_memo=memo)
        benchmark.pedantic(
            lambda: planned.execute(catalog, options),
            rounds=1, iterations=1, warmup_rounds=0,
        )

    def test_memo_hits_on_rst(self, rst_catalogs):
        catalog = rst_catalogs(5, 5)
        planned = plan_query(Q1, catalog, "s2")
        _, ctx = planned.execute(catalog, ROW, with_context=True)
        assert ctx.stats.subquery_cache_hits > 0
        # One eval per distinct correlation value: only at full bench
        # scale does the duplicate rate make hits dominate evals.
        from benchmarks.conftest import BENCH_ROWS_PER_SF

        if BENCH_ROWS_PER_SF >= 250:
            assert ctx.stats.subquery_cache_hits > ctx.stats.subquery_evals


class TestBypassVsTagging:
    """Paper §6.1: bypass plans can be rewritten for engines without
    bypass support by tagging tuples.  Measure what that encoding costs."""

    @pytest.mark.parametrize("encoding", ["bypass", "tagged"])
    def test_bench(self, benchmark, rst_catalogs, encoding):
        from repro.engine import execute_plan
        from repro.rewrite import remove_bypass, unnest
        from repro.sql import parse, translate

        benchmark.group = "ablation-bypass-vs-tagging"
        catalog = rst_catalogs(10, 10)
        plan = unnest(translate(parse(Q1), catalog).plan)
        if encoding == "tagged":
            plan = remove_bypass(plan)
        benchmark.pedantic(
            lambda: execute_plan(plan, catalog, ROW), rounds=3, iterations=1, warmup_rounds=0
        )

    @pytest.mark.timing
    def test_tagging_still_beats_canonical(self, rst_catalogs):
        import time

        from repro.engine import execute_plan
        from repro.rewrite import remove_bypass, unnest
        from repro.sql import parse, translate

        catalog = rst_catalogs(10, 10)
        tagged = remove_bypass(unnest(translate(parse(Q1), catalog).plan))
        start = time.perf_counter()
        tagged_result = execute_plan(tagged, catalog, ROW)
        tagged_time = time.perf_counter() - start
        canonical_time, canonical_result = timed(Q1, catalog, "canonical")
        assert tagged_result.bag_equals(canonical_result)
        assert tagged_time < canonical_time


class TestQuantifiedReduction:
    @pytest.mark.parametrize("enabled", [True, False], ids=["unnested", "nested"])
    def test_bench(self, benchmark, rst_catalogs, enabled):
        benchmark.group = "ablation-quantified"
        catalog = rst_catalogs(5, 5)
        options = UnnestOptions(enable_quantified=enabled)
        rounds = 3 if enabled else 1
        bench_unnest_options(benchmark, EXISTS_QUERY, catalog, options, rounds=rounds)

    @pytest.mark.timing
    def test_reduction_wins(self, rst_catalogs):
        import time

        catalog = rst_catalogs(10, 10)
        on = plan_query(EXISTS_QUERY, catalog, "unnested", UnnestOptions(enable_quantified=True))
        off = plan_query(EXISTS_QUERY, catalog, "unnested", UnnestOptions(enable_quantified=False))
        start = time.perf_counter()
        first = on.execute(catalog, ROW)
        on_time = time.perf_counter() - start
        start = time.perf_counter()
        second = off.execute(catalog, ROW)
        off_time = time.perf_counter() - start
        assert first.bag_equals(second)
        assert on_time < off_time
