"""Bypass-operator elimination (paper §6.1 — the tagging encoding)."""

import pytest

from repro.algebra import expr as E
from repro.algebra import ops as L
from repro.algebra.aggregates import STAR, AggSpec
from repro.algebra.check import validate_plan
from repro.algebra.explain import count_operators
from repro.bench.queries import Q1, Q2, Q3, Q4
from repro.engine import EvalOptions, execute_plan
from repro.rewrite import UnnestOptions, contains_bypass, remove_bypass, unnest
from repro.sql import parse, translate
from repro.storage import Catalog, Schema, Table
from tests.conftest import assert_bag_equal, make_rst_catalog


@pytest.fixture(scope="module")
def rst():
    return make_rst_catalog(n_r=30, n_s=25, n_t=20, seed=3)


def unnested_plan(sql, catalog, **kw):
    return unnest(translate(parse(sql), catalog).plan, UnnestOptions(**kw))


class TestRemoveBypass:
    @pytest.mark.parametrize("sql", [Q1, Q2, Q3, Q4], ids=["Q1", "Q2", "Q3", "Q4"])
    def test_semantics_preserved(self, rst, sql):
        bypassed = unnested_plan(sql, rst)
        tagged = remove_bypass(bypassed)
        assert not contains_bypass(tagged)
        assert_bag_equal(
            execute_plan(bypassed, rst), execute_plan(tagged, rst), sql
        )

    def test_eqv5_bypass_join_removed(self, rst):
        plan = unnested_plan(Q2, rst, enable_eqv4=False)
        assert contains_bypass(plan)
        tagged = remove_bypass(plan)
        assert not contains_bypass(tagged)
        assert_bag_equal(execute_plan(plan, rst), execute_plan(tagged, rst))

    def test_tag_columns_projected_away(self, rst):
        bypassed = unnested_plan(Q1, rst)
        tagged = remove_bypass(bypassed)
        assert tagged.schema == bypassed.schema

    def test_tagged_source_shared(self, rst):
        """Both streams must read one tagged map node (still a DAG)."""
        tagged = remove_bypass(unnested_plan(Q1, rst))
        maps = [
            node
            for node in tagged.iter_dag()
            if isinstance(node, L.Map) and ".tag" in node.name
        ]
        assert len(maps) == 1
        _, ctx = execute_plan(
            tagged, rst, EvalOptions(collect_stats=True), with_context=True
        )
        assert ctx.stats.rows_produced["PMap"] == len(rst.table("r"))

    def test_unknown_goes_to_negative_stream(self):
        """CASE-tagging folds UNKNOWN into FALSE, exactly like σ±."""
        catalog = Catalog()
        catalog.register(Table(Schema(["A1"]), [(1,), (None,), (3,)], name="r"))
        scan = L.Scan("r", Schema(["A1"]))
        bypass = L.BypassSelect(scan, E.Comparison(">", E.col("A1"), E.lit(2)))
        for stream, expected in ((bypass.positive, [(3,)]), (bypass.negative, [(1,), (None,)])):
            tagged = remove_bypass(stream)
            result = execute_plan(tagged, catalog)
            assert sorted(result.rows, key=str) == sorted(expected, key=str)

    def test_plain_plan_untouched(self, rst):
        plan = translate(parse("SELECT * FROM r WHERE A4 > 1500"), rst).plan
        assert remove_bypass(plan) is plan

    def test_contains_bypass_detects_nested(self, rst):
        plan = unnested_plan(Q2, rst)  # Eqv. 4: bypass shared via subplan
        assert contains_bypass(plan)
        assert not contains_bypass(remove_bypass(plan))

    @pytest.mark.parametrize("join", [L.Join, L.SemiJoin, L.AntiJoin, L.LeftOuterJoin])
    def test_bypass_nested_in_a_join_family_predicate_is_removed(self, rst, join):
        r = L.Scan("r", Schema(["A1", "A2", "A3", "A4"]))
        s = L.Scan("s", Schema(["B1", "B2", "B3", "B4"]))
        t = L.Scan("t", Schema(["C1", "C2", "C3", "C4"]))
        bypass = L.BypassSelect(t, E.Comparison(">", E.col("C4"), E.lit(1500)))
        streams = L.UnionAll(bypass.positive, L.Select(bypass.negative, E.eq("C1", "A1")))
        count = E.ScalarSubquery(L.ScalarAggregate(streams, [("g", AggSpec("count", STAR))]))
        plan = join(r, s, E.And((E.eq("A1", "B1"), E.Comparison("<", E.col("A2"), count))))
        tagged = remove_bypass(plan)
        assert not contains_bypass(tagged)
        validate_plan(tagged)
        assert_bag_equal(execute_plan(plan, rst), execute_plan(tagged, rst))

    def test_operator_inventory(self, rst):
        tagged = remove_bypass(unnested_plan(Q1, rst))
        counts = count_operators(tagged)
        assert counts.get("BypassSelect") is None
        assert counts.get("StreamTap") is None
        assert counts.get("Map", 0) >= 1
